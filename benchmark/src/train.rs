//! The training workloads: timed `Engine::train_epoch` runs, and the traced
//! run that replays the same epochs through the public layer calls.

use std::time::Instant;

use crate::calib::{host_factor, Reference};
use crate::host;
use crate::layers::{self, span, EpochOut, Json, TrainRig, TrainSpec};
use crate::report::RunResult;
use crate::stats::{median, tail};
use crate::trace::Recorder;
use crate::workloads::{ACC_PROBE_NODES, ACC_TARGET, TRAIN_SETUP_REPEATS, WARMUP_EPOCHS};
use crate::Args;

/// Fewest timed epochs of a run, however short `--seconds` is.
const MIN_EPOCHS: usize = 3;

/// Fewest traced replay epochs.
const MIN_REPLAY_EPOCHS: usize = 5;

/// Epochs whose sampled-edge counts are recorded per seed.
const RECORDED_EPOCHS: usize = 6;

/// Share of the replay wall time that spans may leave unexplained.
const MAX_UNEXPLAINED: f64 = 0.05;

/// Engine epochs in order, and when validation accuracy first met the target.
#[derive(Default)]
struct History {
    epochs: Vec<EpochOut>,
    failed: u64,
    /// (epochs run, their summed seconds) at the first probe ≥ the target.
    reached: Option<(usize, f64)>,
}

impl History {
    /// Runs one epoch; the accuracy probe that follows is outside the
    /// epoch's own timer. Returns false when the epoch failed.
    fn epoch(&mut self, rig: &mut TrainRig, with_telemetry: bool) -> bool {
        match rig.epoch(with_telemetry) {
            Ok(e) if e.loss.is_finite() => {
                self.epochs.push(e);
                if self.reached.is_none() && rig.val_accuracy(ACC_PROBE_NODES) >= ACC_TARGET {
                    let seconds = self.epochs.iter().map(|e| e.seconds).sum();
                    self.reached = Some((self.epochs.len(), seconds));
                }
                true
            }
            _ => {
                self.failed += 1;
                false
            }
        }
    }
}

/// Whether a timed phase that began at `t0` may end: its `seconds` have
/// passed and the model has reached the accuracy target. A host too slow to
/// get there in time is given up to `--seconds` more rather than a failed
/// check; `--quick` does not wait.
fn time_is_up(history: &History, t0: Instant, seconds: f64, args: &Args) -> bool {
    let elapsed = t0.elapsed().as_secs_f64();
    let converged = history.reached.is_some() || args.quick;
    elapsed >= seconds && (converged || elapsed >= seconds + args.seconds())
}

/// Set-up as a user pays it: synthesize the dataset, build the engine, run
/// the warm-up epochs. Repeated, keeping the last rig; returns the seconds
/// of each repeat.
fn set_up(spec: TrainSpec, seed: u64, repeats: usize) -> (TrainRig, History, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let mut rig = TrainRig::new(spec, seed);
        let warmup: Vec<_> = (0..WARMUP_EPOCHS).map(|_| rig.epoch(false)).collect();
        times.push(t0.elapsed().as_secs_f64());
        last = Some((rig, warmup));
    }
    let (rig, warmup) = last.expect("at least one repeat");
    let mut history = History::default();
    for e in warmup {
        match e {
            Ok(e) => history.epochs.push(e),
            Err(_) => history.failed += 1,
        }
    }
    if rig.val_accuracy(ACC_PROBE_NODES) >= ACC_TARGET {
        let seconds = history.epochs.iter().map(|e| e.seconds).sum();
        history.reached = Some((history.epochs.len(), seconds));
    }
    (rig, history, times)
}

/// Output checks shared by the plain and the traced run.
fn check_training(
    result: &mut RunResult,
    history: &History,
    val_acc: Option<f64>,
    expected: Option<&Json>,
    args: &Args,
) {
    let first = history.epochs.first().map_or(f64::NAN, |e| e.loss);
    let last = history.epochs.last().map_or(f64::NAN, |e| e.loss);
    result.check(
        "loss_decreased",
        last < first,
        format!("loss {first} after epoch 1, {last} at the end"),
    );
    // A quarter-length run may end before the model has converged.
    if !args.quick {
        if let Some(val_acc) = val_acc {
            result.check(
                "val_acc",
                val_acc >= ACC_TARGET,
                format!("{val_acc} on the validation split, target {ACC_TARGET}"),
            );
        }
        result.check(
            "reached_target",
            history.reached.is_some(),
            format!("accuracy probe ≥ {ACC_TARGET} within the run"),
        );
    }
    let edges: Vec<u64> = history
        .epochs
        .iter()
        .take(RECORDED_EPOCHS)
        .map(|e| e.edges)
        .collect();
    let epochs_to_acc = history.reached.map_or(0, |r| r.0);
    result.notes.push(format!(
        "expected_entry \"{}\": {{\"epochs_to_acc\": {epochs_to_acc}, \"edges\": {edges:?}}}",
        args.seed
    ));
    let Some(rec) = expected else {
        result.note("recorded_seed", 0, "bool");
        return;
    };
    result.note("recorded_seed", 1, "bool");
    if let (Some(want), Some((got, _))) = (
        rec.get("epochs_to_acc").and_then(Json::as_u64),
        history.reached,
    ) {
        result.check(
            "epochs_to_acc_recorded",
            want == got as u64,
            format!(
                "{got} epochs to the target, {want} recorded for seed {}",
                args.seed
            ),
        );
    }
    let want: Vec<u64> = rec
        .get("edges")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_u64).collect())
        .unwrap_or_default();
    let n = want.len().min(edges.len());
    result.check(
        "edges_recorded",
        n > 0 && want[..n] == edges[..n],
        format!(
            "sampled edges of the first {n} epochs against seed {}'s record",
            args.seed
        ),
    );
}

/// The plain run: set up, then `Engine::train_epoch` for `--seconds`, with a
/// sample of the host-speed reference after every epoch. Set-up is timed
/// once before the epochs and the other times after them and after peak
/// memory is read, so that memory is that of a process that set up once:
/// read after three set-ups it moved by 0.2 between runs, depending on which
/// allocator arenas the earlier rigs' threads had left behind.
pub fn run(spec: TrainSpec, expected: Option<&Json>, args: &Args) -> RunResult {
    let (mut rig, mut history, mut setup_times) = set_up(spec, args.seed, 1);
    let warm = history.epochs.len();
    let mut reference = Reference::new();
    let mut reference_s = Vec::new();

    let t0 = Instant::now();
    loop {
        if !history.epoch(&mut rig, false) {
            break;
        }
        reference_s.push(reference.sample());
        let timed = history.epochs.len() - warm;
        if timed >= MIN_EPOCHS && time_is_up(&history, t0, args.seconds(), args) {
            break;
        }
    }
    let timed: Vec<f64> = history.epochs[warm..].iter().map(|e| e.seconds).collect();
    let train_s: f64 = timed.iter().sum();
    let val_acc = rig.val_accuracy(usize::MAX);
    let host_factor = host_factor(&reference_s);
    let peak_rss_mb = host::peak_rss_mb();
    setup_times.extend(set_up(spec, args.seed, TRAIN_SETUP_REPEATS - 1).2);

    let mut result = RunResult {
        attempted: timed.len() as u64 + history.failed,
        failed: history.failed,
        ..RunResult::default()
    };
    let (tail_pct, tail_s) = tail(&timed);
    let targets = (rig.targets_per_epoch() * timed.len()) as f64;
    let m = &mut result.metrics;
    m.put("setup_s", median(&setup_times) / host_factor, "s");
    m.put("op_ms", median(&timed) / host_factor * 1e3, "ms");
    m.put("op_tail_ms", tail_s / host_factor * 1e3, "ms");
    m.put("throughput", targets / train_s * host_factor, "1/s");
    m.put("quality", val_acc, "fraction");
    m.put("peak_rss_mb", peak_rss_mb, "MB");

    result.note_summary("epoch_s", &timed, "s");
    result.note_summary("setup_repeat_s", &setup_times, "s");
    result.note_reference("train", &reference_s);
    result.notes.push(format!(
        "epoch_ms_series {:?}",
        timed
            .iter()
            .map(|s| (s * 1e3).round() as u64)
            .collect::<Vec<_>>()
    ));
    result.note("epoch_tail_percentile", tail_pct * 100.0, "%");
    result.note("epoch_tail_s", tail_s, "s");
    result.note("train_s", train_s, "s");
    result.note("seeds_per_s", targets / train_s, "1/s");
    result.note("seeds_per_epoch", rig.targets_per_epoch(), "count");
    result.note("global_batch", spec.global_batch, "count");
    result.note("graph_nodes", rig.num_nodes(), "count");
    result.note("graph_edges", rig.num_edges(), "count");
    result.note("program_threads", spec.program_threads(), "count");
    result.note("epochs_to_acc", history.reached.map_or(0, |r| r.0), "count");
    result.note("time_to_acc_s", history.reached.map_or(0.0, |r| r.1), "s");
    result.note("val_acc", val_acc, "fraction");
    check_training(&mut result, &history, Some(val_acc), expected, args);
    result
}

/// The traced run: the engine with and without its `Telemetry`, the serial
/// replay with one span per layer call, and the probes that need neither.
pub fn run_traced(name: &str, spec: TrainSpec, expected: Option<&Json>, args: &Args) -> RunResult {
    let (cpu_user0, cpu_sys0) = host::cpu_seconds();
    let (mut rig, mut history, _) = set_up(spec, args.seed, 1);

    // Rounds of one plain engine epoch, one with the existing Telemetry and
    // one replayed epoch, so that the three are compared under the same host
    // conditions.
    let (mut plain, mut with_tel) = (Vec::new(), Vec::new());
    let mut replay = rig.replay();
    let mut rec = Recorder::new(true);
    let mut replayed: Vec<layers::ReplayEpoch> = Vec::new();
    let t0 = Instant::now();
    while history.epoch(&mut rig, false) {
        plain.push(history.epochs[history.epochs.len() - 1].seconds);
        if !history.epoch(&mut rig, true) {
            break;
        }
        with_tel.push(history.epochs[history.epochs.len() - 1].seconds);
        replayed.push(replay.epoch(&mut rec));
        if replayed.len() >= MIN_REPLAY_EPOCHS
            && time_is_up(&history, t0, 0.6 * args.seconds(), args)
        {
            break;
        }
    }
    let epoch_p50 = median(&plain);
    let stages = rig.stage_seconds();
    let val_acc = rig.val_accuracy(usize::MAX);
    let replay_epoch_s: Vec<f64> = replayed.iter().map(|e| e.seconds).collect();
    let totals = rec.totals();
    let traced_epochs = replayed.len() as f64;
    let per_epoch = |name: &str| totals.get(name).map_or(0.0, |t| t.self_s) / traced_epochs;
    let root = totals.get(span::EPOCH).copied().unwrap_or_default();
    let unexplained = root.self_s / root.total_s.max(f64::MIN_POSITIVE);
    let replay_s = median(&replay_epoch_s);
    let c = replay.counters;
    // A counter of the replay, per epoch.
    let per = |total: u64| total as f64 / traced_epochs;

    // Probes outside the replay.
    let probe = replay.probe(8);
    let batches = replay.batches_per_epoch() as f64;
    let next_epoch = (history.epochs.len() + 1) as u64;
    let loader_s = median(&[
        rig.loader_drain_seconds(next_epoch),
        rig.loader_drain_seconds(next_epoch + 1),
    ]);
    let t0 = Instant::now();
    std::hint::black_box(rig.val_accuracy(ACC_PROBE_NODES));
    let eval_s = t0.elapsed().as_secs_f64();
    let ddp_speedup = if spec.n_proc > 1 {
        let baseline: Vec<f64> = (0..MIN_EPOCHS).map(|_| rig.baseline_epoch()).collect();
        median(&baseline) / epoch_p50
    } else {
        0.0
    };
    let stream = host::stream_triad(2);
    let gemm_peak = layers::gemm_peak_gflops(0.05);

    let mut result = RunResult {
        attempted: (history.epochs.len() + replayed.len()) as u64 + history.failed,
        failed: history.failed,
        ..RunResult::default()
    };
    let m = &mut result.metrics;
    m.put("graph.synth_s", rig.synth_seconds, "s");
    let gather_s = per_epoch(span::GATHER);
    let gather_rows = per(c.gather_rows);
    m.put("graph.gather_s", gather_s, "s");
    m.put("graph.gather_rows", gather_rows, "count");
    let gather_bytes = gather_rows * replay.feat_dim() as f64 * 4.0;
    m.put(
        "graph.gather_gbps",
        rate(gather_bytes, gather_s) / 1e9,
        "GB/s",
    );

    let sample_s = per_epoch(span::SAMPLE);
    let calls = per(c.sample_calls);
    let edges = per(c.edges);
    m.put("sample.sample_s", sample_s, "s");
    m.put("sample.calls", calls, "count");
    m.put("sample.edges", edges, "count");
    m.put("sample.input_nodes", per(c.input_nodes), "count");
    m.put("sample.ns_per_edge", rate(sample_s * 1e9, edges), "ns");
    m.put("sample.us_per_call", rate(sample_s * 1e6, calls), "us");
    m.put("sample.to_owned_s", per_epoch(span::TO_OWNED), "s");
    m.put("sample.metadata_bytes", per(c.metadata_bytes), "B");
    m.put("sample.scratch_allocs", per(c.scratch_allocs), "count");
    m.put("sample.loader_s", loader_s, "s");
    m.put("sample.cache_gather_s", per_epoch(span::CACHE_GATHER), "s");
    m.put(
        "sample.cache_hit_rate",
        rate(c.cache_hits as f64, c.cache_lookups as f64),
        "fraction",
    );
    m.put("sample.cache_evictions", per(c.cache_evictions), "count");

    m.put("tensor.spmm_s", probe.spmm_s * batches, "s");
    m.put("tensor.spmm_t_s", probe.spmm_t_s * batches, "s");
    m.put("tensor.gemm_s", probe.gemm_s * batches, "s");
    let spmm_gflops = rate(probe.spmm_flop, probe.spmm_s) / 1e9;
    let gemm_gflops = rate(probe.gemm_flop, probe.gemm_s) / 1e9;
    let spmm_gbps = rate(probe.spmm_bytes, probe.spmm_s) / 1e9;
    m.put("tensor.spmm_gflops", spmm_gflops, "GFLOP/s");
    m.put("tensor.gemm_gflops", gemm_gflops, "GFLOP/s");
    m.put("tensor.spmm_gbps", spmm_gbps, "GB/s");
    m.put(
        "tensor.spmm_bw_frac",
        rate(spmm_gbps, stream.gbps),
        "fraction",
    );
    m.put(
        "tensor.gemm_peak_frac",
        rate(gemm_gflops, gemm_peak),
        "fraction",
    );

    let step_s = per_epoch(span::STEP);
    let forward_s = probe.forward_s * batches;
    m.put("nn.forward_s", forward_s, "s");
    m.put("nn.step_s", step_s, "s");
    m.put("nn.backward_s", step_s - forward_s, "s");
    m.put(
        "nn.optim_s",
        per_epoch(span::GRADS) + per_epoch(span::OPT_STEP) + per_epoch(span::SET_PARAMS),
        "s",
    );
    m.put("nn.eval_s", eval_s, "s");

    m.put("rt.allreduce_s", per_epoch(span::ALLREDUCE), "s");
    m.put("rt.allreduce_calls", per(c.allreduce_calls), "count");
    m.put("rt.allreduce_bytes", per(c.allreduce_bytes), "B");
    m.put(
        "rt.telemetry_overhead_frac",
        median(&with_tel) / epoch_p50 - 1.0,
        "fraction",
    );

    m.put("engine.epoch_p50_s", epoch_p50, "s");
    m.put("engine.replay_s", replay_s, "s");
    m.put("engine.overlap_gain", replay_s / epoch_p50, "ratio");
    m.put("engine.unexplained_frac", unexplained, "fraction");
    m.put("engine.ddp_speedup", ddp_speedup, "ratio");
    m.put("engine.stage.sample_wait_s", stages.sample_wait, "s");
    m.put("engine.stage.gather_s", stages.gather, "s");
    m.put("engine.stage.compute_s", stages.compute, "s");
    m.put("engine.stage.sync_s", stages.sync, "s");

    m.put(
        "train.epochs_to_acc",
        history.reached.map_or(0.0, |r| r.0 as f64),
        "count",
    );
    m.put(
        "train.time_to_acc_s",
        history.reached.map_or(0.0, |r| r.1),
        "s",
    );
    m.put("train.val_acc", val_acc, "fraction");

    m.put("host.stream_gbps", stream.gbps, "GB/s");
    m.put("host.gemm_peak_gflops", gemm_peak, "GFLOP/s");
    let (cpu_user, cpu_sys) = host::cpu_seconds();
    m.put("proc.cpu_user_s", cpu_user - cpu_user0, "s");
    m.put("proc.cpu_sys_s", cpu_sys - cpu_sys0, "s");
    m.put(
        "bench.trace_overhead_frac",
        rec.len() as f64 * Recorder::span_cost_s() / replay_epoch_s.iter().sum::<f64>(),
        "fraction",
    );

    result.note_summary("engine.epoch_s", &plain, "s");
    result.note_summary("engine.epoch_telemetry_s", &with_tel, "s");
    result.note_summary("engine.replay_epoch_s", &replay_epoch_s, "s");
    result.note("replay.traced_epochs", traced_epochs, "count");
    result.note("replay.spans", rec.len(), "count");
    result.note(
        "replay.loss_last",
        replayed.last().map_or(f64::NAN, |e| e.loss),
        "loss",
    );
    result.note("host.stream_array_mb", stream.array_bytes / (1 << 20), "MB");
    result.note("host.llc_mb", stream.llc_bytes / (1 << 20), "MB");
    for (name, t) in &totals {
        result.note(
            &format!("span.{name}.self_s"),
            t.self_s / traced_epochs,
            "s",
        );
    }
    // The replay derives its seed lists the way `Engine::new` does, so the
    // edges it samples in epoch e should be the engine's. Reported, not
    // enforced: it documents that the replay did the engine's sampling work.
    let same = replayed
        .iter()
        .zip(&history.epochs)
        .all(|(r, e)| r.edges == e.edges);
    result.note("replay.edges_match_engine", u8::from(same), "bool");

    result.check(
        "spans_reconcile",
        unexplained.abs() <= MAX_UNEXPLAINED,
        format!("{unexplained} of the replay wall time is outside the layer spans, limit {MAX_UNEXPLAINED}"),
    );
    result.check(
        "replay_loss_finite",
        replayed.iter().all(|e| e.loss.is_finite()),
        "every replayed epoch's loss".to_string(),
    );
    // The traced run stops training once the probe meets the target, so the
    // whole split's accuracy is reported but held to nothing.
    check_training(&mut result, &history, None, expected, args);
    crate::write_trace(name, &rec, &mut result);
    result
}

/// `amount / per`, or 0 when the denominator is 0 (the layer did not run).
fn rate(amount: f64, per: f64) -> f64 {
    if per > 0.0 {
        amount / per
    } else {
        0.0
    }
}
