//! The repository's end-to-end benchmark. See README.md beside this crate.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --workload all --seed 1
//! ```

mod calib;
mod gen;
mod host;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;
mod train;
mod tune;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use layers::Json;
use report::{Manifest, RunResult};
use workloads::Workload;

const USAGE: &str = "\
usage: argo-benchmark --workload <name|all> [--seed <n>] [--seconds <s>] [--trace [0|1]]
                      [--quick] [--selftest] [--list]

  --workload <name>  run one workload in this process and print its metrics;
                     `all` runs every workload, each in a child process, one at a time
  --seed <n>         seed of every generated input (default 1)
  --seconds <s>      measured seconds per run (default: run_seconds of BENCHMARK.json)
  --trace [0|1]      the traced run: per-layer metrics and out/<workload>.trace.json
  --quick            a quarter of the measured time; bounds are not enforced
  --selftest         run every workload twice and hold each end-to-end metric to its bound
  --list             print the workload names";

pub struct Args {
    workload: Option<String>,
    pub seed: u64,
    /// `--seconds` as given; [`Args::seconds`] is what a run measures for.
    seconds: f64,
    trace: bool,
    pub quick: bool,
    selftest: bool,
    list: bool,
}

impl Args {
    /// Measured seconds of one run: a quarter of `--seconds` with `--quick`.
    pub fn seconds(&self) -> f64 {
        if self.quick {
            self.seconds / 4.0
        } else {
            self.seconds
        }
    }
}

fn parse_args(manifest: &Manifest) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: manifest.run_seconds as f64,
        trace: false,
        quick: false,
        selftest: false,
        list: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--selftest" => args.selftest = true,
            "--list" => args.list = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the recorder's spans to `out/<workload>.trace.json`.
pub fn write_trace(workload: &str, rec: &trace::Recorder, result: &mut RunResult) {
    let path = out_dir().join(format!("{workload}.trace.json"));
    let written =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, rec.chrome_trace()));
    match written {
        Ok(()) => result.note("trace_file", path.display(), "path"),
        Err(e) => result.check("trace_written", false, format!("{}: {e}", path.display())),
    }
}

/// The values recorded for `workload` and `seed` in `expected.json`, if any.
fn expected_for(workload: &str, seed: u64) -> Option<Json> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected.json");
    let json = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    json.get(workload)?.get(&seed.to_string()).cloned()
}

/// Runs one workload in this process and prints its result.
fn run_one(name: &str, manifest: &Manifest, args: &Args) -> Result<bool, String> {
    let workload = workloads::by_name(name).ok_or(format!(
        "unknown workload `{name}`; --list prints the names"
    ))?;
    println!(
        "workload {name} seed {} seconds {} trace {}",
        args.seed,
        args.seconds(),
        u8::from(args.trace)
    );
    let expected = expected_for(name, args.seed);
    let result = match (&workload, args.trace) {
        (Workload::Train(spec), false) => train::run(*spec, expected.as_ref(), args),
        (Workload::Train(spec), true) => train::run_traced(name, *spec, expected.as_ref(), args),
        (Workload::Serve(w), false) => serve::run(w, args),
        (Workload::Serve(w), true) => serve::run_traced(name, w, args),
        (Workload::Tune, false) => tune::run(args),
        (Workload::Tune, true) => tune::run_traced(args),
    };
    report::print(&result, manifest, args.trace)?;
    Ok(result.correct())
}

/// What a child process printed: its text lines and the parsed result line.
struct ChildRun {
    lines: Vec<String>,
    result: Json,
}

impl ChildRun {
    fn field(&self, key: &str) -> Json {
        self.result.get(key).cloned().unwrap_or(Json::Null)
    }

    fn correct(&self) -> bool {
        self.result.get("correct") == Some(&Json::Bool(true))
    }

    fn lines_json(&self) -> Json {
        Json::Arr(self.lines.iter().map(|l| Json::str(l)).collect())
    }
}

/// Runs one workload in a child process of this same program and waits for
/// it, so that peak memory is per workload and workloads never overlap.
fn run_child(name: &str, args: &Args, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(args.quick.then_some("--quick"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let result = lines
        .last()
        .and_then(|l| Json::parse(l).ok())
        .ok_or(format!("{name}: no result line (exit {})", output.status))?;
    Ok(ChildRun { lines, result })
}

fn provenance(args: &Args) -> Json {
    Json::obj(vec![
        ("commit", Json::str(&host::git_commit())),
        ("nproc", Json::Num(layers::host_threads() as f64)),
        ("cpu_model", Json::str(&host::cpu_model())),
        ("simd_tier", Json::str(layers::simd_tier())),
        ("rustc", Json::str(&host::rustc_version())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("quick", Json::Bool(args.quick)),
    ])
}

/// Tags every number of a child's result: measured on this host, except the
/// tuning workload's quality, which rates configurations on the modeled
/// objective.
fn tagged(workload: &str, metrics: Option<&Json>) -> Json {
    let Some(Json::Obj(map)) = metrics else {
        return Json::Null;
    };
    Json::Obj(
        map.iter()
            .map(|(name, m)| {
                let tag = if workload == "tune_paper_tasks" && name == "quality" {
                    "modeled-objective"
                } else {
                    "measured"
                };
                let mut m = m.clone();
                if let Json::Obj(fields) = &mut m {
                    fields.insert("tag".to_string(), Json::str(tag));
                }
                (name.clone(), m)
            })
            .collect(),
    )
}

/// Runs every workload, one child at a time. Returns per workload the
/// end-to-end metrics, and whether every run was correct.
fn run_all(args: &Args) -> Result<(Vec<(String, Json)>, bool), String> {
    let mut per_workload = Vec::new();
    let mut all_correct = true;
    for name in workloads::NAMES {
        let plain = run_child(name, args, false)?;
        let mut fields = vec![
            ("end_to_end", tagged(name, plain.result.get("metrics"))),
            ("correct", plain.field("correct")),
            ("attempted", plain.field("attempted")),
            ("failed", plain.field("failed")),
            ("lines", plain.lines_json()),
        ];
        let mut correct = plain.correct();
        if args.trace {
            let traced = run_child(name, args, true)?;
            correct &= traced.correct();
            fields.push(("per_layer", tagged(name, traced.result.get("metrics"))));
            fields.push(("traced_lines", traced.lines_json()));
        }
        all_correct &= correct;
        per_workload.push((name.to_string(), Json::obj(fields)));
    }
    Ok((per_workload, all_correct))
}

fn write_results(args: &Args, per_workload: &[(String, Json)]) -> Result<PathBuf, String> {
    let doc = Json::obj(vec![
        ("provenance", provenance(args)),
        (
            "workloads",
            Json::Obj(per_workload.iter().cloned().collect()),
        ),
    ]);
    let path = out_dir().join("results.json");
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, doc.encode() + "\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn metric_value(workload: &Json, name: &str) -> Option<f64> {
    workload
        .get("end_to_end")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Runs the full set twice, back to back, and fails if an end-to-end metric
/// of the same code and seed differs between the two by more than its bound.
fn selftest(manifest: &Manifest, args: &Args) -> Result<bool, String> {
    let (first, ok1) = run_all(args)?;
    let (second, ok2) = run_all(args)?;
    let mut ok = ok1 && ok2;
    println!("selftest: metric workload first second rel_diff bound verdict");
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        for def in &manifest.end_to_end {
            let (Some(x), Some(y)) = (metric_value(a, &def.name), metric_value(b, &def.name))
            else {
                return Err(format!("{name}: {} missing from a run", def.name));
            };
            let bound = def.bound.unwrap_or(0.0);
            let diff = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
            let within = diff <= bound;
            let verdict = match (within, args.quick) {
                (true, _) => "ok",
                (false, true) => "over (not enforced with --quick)",
                (false, false) => "FAILED",
            };
            println!(
                "selftest: {} {name} {x} {y} {diff:.4} {bound} {verdict}",
                def.name
            );
            ok &= within || args.quick;
        }
    }
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let manifest = Manifest::load()?;
    let args = parse_args(&manifest).map_err(|e| format!("{e}\n{USAGE}"))?;
    if args.list {
        for name in workloads::NAMES {
            println!("{name}");
        }
        return Ok(true);
    }
    if args.selftest {
        return selftest(&manifest, &args);
    }
    match args.workload.as_deref() {
        Some("all") => {
            let (per_workload, correct) = run_all(&args)?;
            let path = write_results(&args, &per_workload)?;
            println!("results written to {}", path.display());
            Ok(correct)
        }
        Some(name) => run_one(name, &manifest, &args),
        None => Err(format!("--workload is required\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("argo-benchmark: an output check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("argo-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
