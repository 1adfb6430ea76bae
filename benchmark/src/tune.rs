//! The tuning workload: the auto-tuner over the paper's 32 tasks on the
//! modeled objective. Training is bypassed, so only `tune`, `platform` and
//! `core` run, on one thread.

use std::time::Instant;

use crate::calib::{host_factor, Reference};
use crate::gen::Rng;
use crate::host;
use crate::layers::{paper_tasks, TuneTask};
use crate::report::RunResult;
use crate::stats::{geometric_mean, interdecile_mean, mean, median, tail};
use crate::workloads::{MAX_REGRET, TUNE_SEEDS};
use crate::Args;

/// Tuner seeds of one run, from `--seed`.
fn tuner_seeds(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 3);
    (0..TUNE_SEEDS).map(|_| rng.below(1 << 32)).collect()
}

/// Set-up, and the seconds it took.
fn set_up() -> (Vec<TuneTask>, f64) {
    let t0 = Instant::now();
    let tasks = paper_tasks();
    (tasks, t0.elapsed().as_secs_f64())
}

/// One pass: every task under every tuner seed.
struct Pass {
    task_s: Vec<f64>,
    regrets: Vec<f64>,
    trials: u64,
    invalid: u64,
    /// Seconds of the host-speed reference samples taken during the pass,
    /// one after every second task, and of the set-up repeated after each:
    /// repeats done back to back all fall into the same 0.1 s of the host.
    reference_s: Vec<f64>,
    setup_s: Vec<f64>,
}

fn pass(tasks: &[TuneTask], seeds: &[u64], mut reference: Option<&mut Reference>) -> Pass {
    let mut p = Pass {
        task_s: Vec::with_capacity(tasks.len() * seeds.len()),
        regrets: Vec::with_capacity(tasks.len() * seeds.len()),
        trials: 0,
        invalid: 0,
        reference_s: Vec::with_capacity(tasks.len()),
        setup_s: Vec::with_capacity(tasks.len()),
    };
    for (i, task) in tasks.iter().enumerate() {
        for &seed in seeds {
            let t0 = Instant::now();
            let out = task.tune(seed);
            p.task_s.push(t0.elapsed().as_secs_f64());
            p.regrets.push(out.regret);
            p.trials += out.trials as u64;
            p.invalid += u64::from(!out.valid);
        }
        if let Some(reference) = reference.as_deref_mut().filter(|_| i % 2 == 1) {
            p.reference_s.push(reference.sample());
            p.setup_s.push(set_up().1);
        }
    }
    p
}

fn check(result: &mut RunResult, first: &Pass, regret: f64) {
    result.check(
        "configs_valid",
        first.invalid == 0,
        format!(
            "{} chosen configurations outside the space or the platform's cores",
            first.invalid
        ),
    );
    result.check(
        "regret_in_range",
        (1.0..=MAX_REGRET).contains(&regret),
        format!("mean found ÷ optimum = {regret}, allowed 1..{MAX_REGRET}"),
    );
}

/// The plain run: whole passes over tasks × seeds until `--seconds` is up.
/// The searches are deterministic, so every pass repeats the same 160. A
/// search's time in a pass is divided by the host factor of that pass, and
/// the search is rated by its fastest pass: what it takes when the host does
/// not interfere.
pub fn run(args: &Args) -> RunResult {
    let (tasks, first_setup_s) = set_up();
    let seeds = tuner_seeds(args.seed);
    let mut reference = Reference::new();
    let t0 = Instant::now();
    let mut passes = vec![pass(&tasks, &seeds, Some(&mut reference))];
    let mut last_pass_s = t0.elapsed().as_secs_f64();
    // Whole passes only, and no pass that would end after `--seconds`.
    while t0.elapsed().as_secs_f64() + last_pass_s <= args.seconds() {
        let t1 = Instant::now();
        passes.push(pass(&tasks, &seeds, Some(&mut reference)));
        last_pass_s = t1.elapsed().as_secs_f64();
    }
    let setup_times: Vec<f64> = std::iter::once(first_setup_s)
        .chain(passes.iter().flat_map(|p| p.setup_s.iter().copied()))
        .collect();

    let factors: Vec<f64> = passes.iter().map(|p| host_factor(&p.reference_s)).collect();
    let fastest: Vec<f64> = (0..passes[0].task_s.len())
        .map(|i| {
            passes
                .iter()
                .zip(&factors)
                .map(|(p, f)| p.task_s[i] / f)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let tune_s: Vec<f64> = passes.iter().map(|p| p.task_s.iter().sum()).collect();
    let regret = mean(&passes[0].regrets);

    let mut result = RunResult {
        attempted: (passes.len() * fastest.len()) as u64,
        failed: passes.iter().map(|p| p.invalid).sum(),
        ..RunResult::default()
    };
    let (tail_pct, tail_s) = tail(&fastest);
    let m = &mut result.metrics;
    // Set-up has two modes on this host (6.6 and 9.6 ms, mixed within a
    // run); a median jumps between them where a mean moves with the mix.
    m.put(
        "setup_s",
        interdecile_mean(&setup_times) / median(&factors),
        "s",
    );
    m.put("op_ms", geometric_mean(&fastest) * 1e3, "ms");
    m.put("op_tail_ms", tail_s * 1e3, "ms");
    m.put(
        "throughput",
        passes[0].trials as f64 / fastest.iter().sum::<f64>(),
        "1/s",
    );
    m.put("quality", 1.0 / regret, "fraction");
    m.put("peak_rss_mb", host::peak_rss_mb(), "MB");

    result.note_summary("tune_s", &tune_s, "s");
    result.note_summary("search_fastest_s", &fastest, "s");
    result.note_summary("setup_repeat_s", &setup_times, "s");
    for (i, p) in passes.iter().enumerate() {
        result.note_reference(&format!("pass{i}"), &p.reference_s);
        result.note(&format!("pass{i}.tune_s"), tune_s[i], "s");
    }
    result.note("search_tail_percentile", tail_pct * 100.0, "%");
    result.note("passes", passes.len(), "count");
    result.note("tune_regret", regret, "ratio");
    result.note("tune_tasks", tasks.len(), "count");
    result.note("tuner_seeds", seeds.len(), "count");
    result.note("objective", "modeled-objective", "tag");
    result.note("program_threads", 1, "count");
    check(&mut result, &passes[0], regret);
    result
}

/// The traced run: the same search driven by hand so that
/// `BayesOpt::suggest` and `BayesOpt::observe` are timed apart, the platform
/// model swept on its own, and `Argo::run_modeled` timed whole.
pub fn run_traced(args: &Args) -> RunResult {
    let (cpu_user0, cpu_sys0) = host::cpu_seconds();
    let (tasks, _) = set_up();
    let seeds = tuner_seeds(args.seed);
    let first = pass(&tasks, &seeds, None);
    let regret = mean(&first.regrets);

    let (mut suggest_s, mut observe_s, mut run_modeled_s) = (0.0, 0.0, 0.0);
    let (mut model_calls, mut model_s) = (0u64, 0.0);
    for task in &tasks {
        let (s, o) = task.suggest_observe_seconds(seeds[0]);
        suggest_s += s;
        observe_s += o;
        run_modeled_s += task.run_modeled_seconds(seeds[0]);
        let (calls, seconds) = task.epoch_time_sweep();
        model_calls += calls;
        model_s += seconds;
    }
    let trials: usize = tasks.iter().map(|t| t.n_search).sum();
    let explored = mean(
        &tasks
            .iter()
            .map(|t| t.n_search as f64 / t.space_size as f64)
            .collect::<Vec<_>>(),
    );

    let mut result = RunResult {
        attempted: first.task_s.len() as u64,
        failed: first.invalid,
        ..RunResult::default()
    };
    let m = &mut result.metrics;
    m.put("tune.suggest_s", suggest_s, "s");
    m.put("tune.observe_s", observe_s, "s");
    m.put("tune.trials", trials as f64, "count");
    m.put("tune.explored_frac", explored, "fraction");
    m.put(
        "tune.regret_max",
        first.regrets.iter().copied().fold(0.0, f64::max),
        "ratio",
    );
    m.put("platform.epoch_time_calls", model_calls as f64, "count");
    m.put("platform.epoch_time_s", model_s, "s");
    m.put("core.run_modeled_s", run_modeled_s, "s");
    let (cpu_user, cpu_sys) = host::cpu_seconds();
    m.put("proc.cpu_user_s", cpu_user - cpu_user0, "s");
    m.put("proc.cpu_sys_s", cpu_sys - cpu_sys0, "s");
    result.note("tune_regret", regret, "ratio");
    result.note("objective", "modeled-objective", "tag");
    check(&mut result, &first, regret);
    result
}
