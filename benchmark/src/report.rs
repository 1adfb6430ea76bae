//! What a run reports: named metrics with units, output checks, and the one
//! JSON object the driver reads from the last line of standard output.

use std::path::PathBuf;

use crate::calib::host_factor;
use crate::layers::Json;
use crate::stats::Summary;

/// Named values in the order they were measured.
#[derive(Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.items.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.items.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Everything one workload run hands back.
#[derive(Default)]
pub struct RunResult {
    pub metrics: Metrics,
    /// Free-form `name value unit` lines that are printed but are not
    /// metrics of `BENCHMARK.json` (quartiles, counts, provenance).
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool, String)>,
}

impl RunResult {
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push((name.to_string(), ok, detail));
    }

    pub fn note(&mut self, name: &str, value: impl std::fmt::Display, unit: &str) {
        self.notes.push(format!("{name} {value} {unit}"));
    }

    /// A timing sample's quartiles and count, next to the metric that
    /// reports its median.
    pub fn note_summary(&mut self, name: &str, sample: &[f64], unit: &str) {
        let s = Summary::of(sample);
        self.notes.push(format!(
            "{name} {} {unit} (q1 {} q3 {} n {})",
            s.median, s.q1, s.q3, s.n
        ));
    }

    /// The host-speed reference samples of a phase and the factor its
    /// timings were divided by.
    pub fn note_reference(&mut self, phase: &str, samples: &[f64]) {
        self.note(
            &format!("{phase}.host_factor"),
            host_factor(samples),
            "ratio",
        );
        self.note_summary(&format!("{phase}.reference_sample_s"), samples, "s");
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }

    /// Ops counted as failed also count in `fail_frac`.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One metric of `BENCHMARK.json`.
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// Share of the reference by which the metric may worsen; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads: the metric
/// lists decide what goes into the result line, and the bounds are what
/// `--selftest` holds two runs of the same code to.
pub struct Manifest {
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
    pub run_seconds: u64,
}

impl Manifest {
    /// Reads `BENCHMARK.json` from the working directory (where the driver
    /// runs the command) or, failing that, from beside the `benchmark/`
    /// directory the program was built in.
    pub fn load() -> Result<Self, String> {
        let candidates = [
            PathBuf::from("BENCHMARK.json"),
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        ];
        let text = candidates
            .iter()
            .find_map(|p| std::fs::read_to_string(p).ok())
            .ok_or("BENCHMARK.json not found in the working directory or beside benchmark/")?;
        let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<Vec<MetricDef>, String> {
            json.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("BENCHMARK.json: no `{key}` list"))?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: field(m, "name")?,
                        unit: field(m, "unit")?,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
            run_seconds: json
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: no `run_seconds`")?,
        })
    }
}

fn field(m: &Json, key: &str) -> Result<String, String> {
    m.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or(format!("BENCHMARK.json: metric without `{key}`"))
}

/// Prints every metric as `name value unit`, every note and check, and last
/// the result object: with `traced` the per-layer metrics of the manifest,
/// otherwise its end-to-end metrics. A per-layer metric the workload did not
/// produce reads 0, because its layer does not run there; a missing
/// end-to-end metric is an error.
pub fn print(result: &RunResult, manifest: &Manifest, traced: bool) -> Result<(), String> {
    for (name, value, unit) in &result.metrics.items {
        println!("{name} {value} {unit}");
    }
    for note in &result.notes {
        println!("{note}");
    }
    println!("ops_attempted {} count", result.attempted);
    println!("ops_failed {} count", result.failed);
    println!("fail_frac {} fraction", result.fail_frac());
    for (name, ok, detail) in &result.checks {
        println!(
            "check {name} {} {detail}",
            if *ok { "ok" } else { "FAILED" }
        );
    }

    let listed = if traced {
        &manifest.per_layer
    } else {
        &manifest.end_to_end
    };
    let mut metrics = Vec::with_capacity(listed.len());
    for def in listed {
        let value = match result.metrics.get(&def.name) {
            Some(v) if v.is_finite() => v,
            Some(v) => return Err(format!("metric {} is {v}", def.name)),
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {} was not measured", def.name)),
        };
        metrics.push((
            def.name.as_str(),
            Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::str(&def.unit)),
            ]),
        ));
    }
    let line = Json::obj(vec![
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Num(result.attempted.max(1) as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", line.encode());
    Ok(())
}
