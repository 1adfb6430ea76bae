//! The serving workloads: one thread generates load for a live
//! `ServeSession`, closed-loop for capacity and open-loop on a precomputed
//! arrival schedule for latency.

use std::time::Instant;

use crate::calib::{host_factor, Reference};
use crate::gen::{distinct_queries, exponential_schedule, zipf_indices, Rng};
use crate::host;
use crate::layers::{span, Failure, Logits, Reply, ServeRig, KEEP_BITS_EVERY};
use crate::report::RunResult;
use crate::stats::{median, quantile};
use crate::trace::Recorder;
use crate::workloads::{
    ServeWorkload, LATENCY_LIMIT_MS, MAX_FAIL_FRAC, MAX_QUERY_SEEDS, SERVE_TAIL,
    SERVE_WARMUP_QUERIES, ZIPF_EXPONENT, ZIPF_POOL,
};
use crate::Args;

/// Consecutive parts a phase of the plain run is cut into, with a sample of
/// the host-speed reference after each.
const PARTS: usize = 10;

/// Share of `--seconds` the closed-loop capacity phase takes; the open-loop
/// phase takes the rest.
const CAPACITY_SHARE: f64 = 0.2;

/// Requests generated per second of closed-loop phase; the phase ends early
/// if the program answers faster than this. Distinct lists are the scarcer
/// kind: one in `MAX_QUERY_SEEDS` of them is a single node, and the graph has
/// only so many nodes.
const CLOSED_LOOP_POOL_PER_S: f64 = 12_000.0;
const CLOSED_LOOP_POOL_PER_S_ZIPF: f64 = 60_000.0;

/// The request stream of one run: `order[i]` is the query request `i` sends.
struct Queries {
    lists: Vec<Vec<u32>>,
    order: Vec<u32>,
}

impl Queries {
    /// `count` requests. Zipf: drawn from a pool of `ZIPF_POOL` distinct
    /// lists; otherwise every request is its own distinct list.
    fn generate(zipf: bool, count: usize, num_nodes: u32, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        if zipf {
            Self {
                lists: distinct_queries(&mut rng, ZIPF_POOL, num_nodes, MAX_QUERY_SEEDS),
                order: zipf_indices(&mut rng, count, ZIPF_POOL, ZIPF_EXPONENT),
            }
        } else {
            assert!(
                count / MAX_QUERY_SEEDS < num_nodes as usize / 2,
                "{count} distinct queries need more single-node lists than the graph offers"
            );
            Self {
                lists: distinct_queries(&mut rng, count, num_nodes, MAX_QUERY_SEEDS),
                order: (0..count as u32).collect(),
            }
        }
    }

    /// The stream of a workload. The node count it needs is a function of
    /// the frozen dataset definition; a throw-away rig reads it, so that the
    /// stream exists before set-up is timed.
    fn of(w: &ServeWorkload, count: usize, seed: u64) -> Self {
        let num_nodes = ServeRig::new(w.def, seed, 0).num_nodes();
        Self::generate(w.zipf, count, num_nodes, seed)
    }

    fn get(&self, request: usize) -> &[u32] {
        &self.lists[self.order[request] as usize]
    }
}

/// One request the session admitted, indexed by its request id.
struct Sent {
    /// Position in the run's request stream.
    request: usize,
    due_ns: u64,
}

/// One response, kept for the output checks.
struct Answer {
    request: usize,
    id: u64,
    cache_hit: bool,
    logits: Logits,
}

/// What one load phase measured.
#[derive(Default)]
struct Phase {
    sent: u64,
    answered: u64,
    queue_full: u64,
    shed: u64,
    other_failures: u64,
    wall_s: f64,
    /// Per response, from when the request was due to when the call that
    /// delivered the response returned, on the generator's own clock: ms.
    latency_ms: Vec<f64>,
    /// Per response, as `ServeResponse` reports queueing and execution: ms.
    queue_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    /// Per request: how long after it was due the generator sent it, ms.
    lag_ms: Vec<f64>,
    /// Per request: arrivals already due and not yet sent when it was sent.
    backlog: Vec<u32>,
    batches: u64,
    answers: Vec<Answer>,
}

impl Phase {
    fn failures(&self) -> u64 {
        self.queue_full + self.shed + self.other_failures
    }

    fn fail_frac(&self) -> f64 {
        self.failures() as f64 / self.sent.max(1) as f64
    }

    /// Requests that did not get a response within the limit; a failed
    /// request is one of them.
    fn misses(&self) -> u64 {
        self.failures()
            + self
                .latency_ms
                .iter()
                .filter(|&&l| l > LATENCY_LIMIT_MS)
                .count() as u64
    }

    /// Requests per second of a closed-loop phase.
    fn closed_loop_rps(&self) -> f64 {
        self.answered as f64 / self.wall_s
    }

    fn typical_ms(&self) -> f64 {
        median(&self.latency_ms)
    }

    /// Tail latency of the phase, at [`SERVE_TAIL`].
    fn tail_ms(&self) -> f64 {
        quantile(&self.latency_ms, SERVE_TAIL)
    }

    /// Appends a later part of the same phase.
    fn absorb(&mut self, part: Phase) {
        self.sent += part.sent;
        self.answered += part.answered;
        self.queue_full += part.queue_full;
        self.shed += part.shed;
        self.other_failures += part.other_failures;
        self.wall_s += part.wall_s;
        self.latency_ms.extend(part.latency_ms);
        self.queue_ms.extend(part.queue_ms);
        self.exec_ms.extend(part.exec_ms);
        self.lag_ms.extend(part.lag_ms);
        self.backlog.extend(part.backlog);
        self.batches += part.batches;
        self.answers.extend(part.answers);
    }

    /// The backlog grew from each sixth of the phase's last third to the
    /// next: the rate is beyond what the program sustains.
    fn saturated(&self) -> bool {
        let third = &self.backlog[self.backlog.len() - self.backlog.len() / 3..];
        let per = third.len() / 6;
        if per == 0 {
            return false;
        }
        let means: Vec<f64> = third
            .chunks_exact(per)
            .map(|c| c.iter().map(|&b| f64::from(b)).sum::<f64>() / per as f64)
            .collect();
        means.windows(2).all(|w| w[1] > w[0]) && means[means.len() - 1] >= 1.0
    }

    /// Mean backlog over the last twentieth of the phase.
    fn backlog_end(&self) -> f64 {
        let n = (self.backlog.len() / 20).max(1).min(self.backlog.len());
        let last = &self.backlog[self.backlog.len() - n..];
        last.iter().map(|&b| f64::from(b)).sum::<f64>() / n.max(1) as f64
    }

    /// Whether the phase met the latency limit: tail within it, few
    /// failures, no growing backlog.
    fn meets_limit(&self) -> bool {
        self.tail_ms() <= LATENCY_LIMIT_MS && self.fail_frac() <= MAX_FAIL_FRAC && !self.saturated()
    }
}

/// Books responses against the requests that caused them.
struct Ledger {
    /// Request id of `sent[0]`.
    base: Option<u64>,
    sent: Vec<Sent>,
    last_batch: Option<u64>,
}

impl Ledger {
    fn new() -> Self {
        Self {
            base: None,
            sent: Vec::new(),
            last_batch: None,
        }
    }

    fn admitted(&mut self, id: u64, sent: Sent) {
        let base = *self.base.get_or_insert(id);
        assert_eq!(id - base, self.sent.len() as u64, "request ids are dense");
        self.sent.push(sent);
    }

    /// Books the responses that a call returning at `done_ns` delivered.
    fn settle(
        &mut self,
        replies: &mut Vec<Result<Reply, Failure>>,
        done_ns: u64,
        phase: &mut Phase,
    ) {
        for reply in replies.drain(..) {
            match reply {
                Ok(r) => {
                    let base = self.base.expect("a response follows an admission");
                    let s = &self.sent[(r.request - base) as usize];
                    phase.latency_ms.push((done_ns - s.due_ns) as f64 / 1e6);
                    phase.queue_ms.push(r.queue_s * 1e3);
                    phase.exec_ms.push((r.latency_s - r.queue_s) * 1e3);
                    if self.last_batch != Some(r.batch) {
                        self.last_batch = Some(r.batch);
                        phase.batches += 1;
                    }
                    phase.answered += 1;
                    phase.answers.push(Answer {
                        request: s.request,
                        id: r.request,
                        cache_hit: r.cache_hit,
                        logits: r.logits,
                    });
                }
                Err(Failure::Shed) => phase.shed += 1,
                Err(Failure::QueueFull) => phase.queue_full += 1,
                Err(Failure::Other) => phase.other_failures += 1,
            }
        }
    }
}

/// Sends requests `first..` of the stream back to back, one client, each
/// after the previous one's response, for `seconds` or until `limit`
/// requests are sent.
fn closed_loop(
    rig: &mut ServeRig,
    queries: &Queries,
    first: usize,
    limit: usize,
    seconds: f64,
    rec: &mut Recorder,
) -> Phase {
    let mut phase = Phase::default();
    let mut ledger = Ledger::new();
    let mut replies = Vec::new();
    let t0 = Instant::now();
    let mut next = 0usize;
    while next < limit && (!next.is_multiple_of(64) || t0.elapsed().as_secs_f64() < seconds) {
        let now = rig.now_ns();
        let sp = rec.begin(span::SERVE_SUBMIT, next as u64);
        let admitted = rig.submit(queries.get(first + next), &mut replies);
        rec.end(sp);
        phase.sent += 1;
        match admitted {
            Ok(id) => ledger.admitted(
                id,
                Sent {
                    request: first + next,
                    due_ns: now,
                },
            ),
            Err(f) => replies.push(Err(f)),
        }
        // A session with a deadline answers on poll; the closed-loop
        // session has none and has answered already.
        while rig.pending() > 0 {
            rig.poll(&mut replies);
        }
        ledger.settle(&mut replies, rig.now_ns(), &mut phase);
        next += 1;
    }
    phase.wall_s = t0.elapsed().as_secs_f64();
    phase
}

/// Sends request `first + i` when `schedule[i]` microseconds have passed,
/// however the program is doing: one thread that spins on the clock and
/// either submits the arrival that is due or polls the session when its
/// deadline is due. Latency counts from the due time.
fn open_loop(
    rig: &mut ServeRig,
    queries: &Queries,
    first: usize,
    schedule: &[u64],
    rec: &mut Recorder,
) -> Phase {
    let mut phase = Phase::default();
    let mut ledger = Ledger::new();
    let mut replies = Vec::new();
    let n = schedule.len();
    let t0 = Instant::now();
    let start_ns = rig.now_ns();
    let due_ns = |i: usize| start_ns + schedule[i] * 1000;
    let (mut next, mut due_by_now) = (0usize, 0usize);
    loop {
        let now = rig.now_ns();
        if next < n && now >= due_ns(next) {
            while due_by_now < n && due_ns(due_by_now) <= now {
                due_by_now += 1;
            }
            phase.lag_ms.push((now - due_ns(next)) as f64 / 1e6);
            phase.backlog.push((due_by_now - next - 1) as u32);
            let sp = rec.begin(span::SERVE_SUBMIT, next as u64);
            let admitted = rig.submit(queries.get(first + next), &mut replies);
            rec.end(sp);
            phase.sent += 1;
            match admitted {
                Ok(id) => ledger.admitted(
                    id,
                    Sent {
                        request: first + next,
                        due_ns: due_ns(next),
                    },
                ),
                Err(f) => replies.push(Err(f)),
            }
            next += 1;
        } else if rig.next_deadline_us().is_some_and(|d| now >= d * 1000) {
            let sp = rec.begin(span::SERVE_POLL, next as u64);
            rig.poll(&mut replies);
            rec.end(sp);
        } else if next >= n && rig.pending() == 0 {
            break;
        } else {
            std::hint::spin_loop();
            continue;
        }
        ledger.settle(&mut replies, rig.now_ns(), &mut phase);
    }
    phase.wall_s = t0.elapsed().as_secs_f64();
    phase
}

/// Warm-up queries through the session: the first of the request stream for
/// Zipf (they fill the caches), distinct ones otherwise.
fn warm_up(rig: &mut ServeRig, queries: &Queries, count: usize) {
    let mut replies = Vec::new();
    for i in 0..count {
        let _ = rig.submit(queries.get(i), &mut replies);
        replies.clear();
    }
    rig.drain(&mut replies);
}

/// Output checks over the responses of `phases`, all outside the timers:
/// every request got a response or a failure; every `KEEP_BITS_EVERY`th
/// response equals a direct recompute bit for bit; responses to the same
/// query (cache hits included) equal the first one.
fn check_outputs(result: &mut RunResult, rig: &mut ServeRig, queries: &Queries, phases: &[&Phase]) {
    let accounted = phases.iter().all(|p| p.answered + p.failures() == p.sent);
    result.check(
        "all_requests_accounted",
        accounted,
        "responses + failures = sent in every phase".to_string(),
    );

    let mut rec = Recorder::new(false);
    let (mut compared, mut equal) = (0u64, 0u64);
    let (mut hits, mut hits_equal) = (0u64, 0u64);
    let mut first_answer: Vec<Option<&Logits>> = vec![None; queries.lists.len()];
    for a in phases.iter().flat_map(|p| &p.answers) {
        if a.id % KEEP_BITS_EVERY == 0 {
            compared += 1;
            let direct = rig.recompute(queries.get(a.request), a.id, &mut rec);
            equal += u64::from(direct.bitwise_eq(&a.logits));
        }
        let slot = &mut first_answer[queries.order[a.request] as usize];
        match slot {
            Some(first) => {
                hits += u64::from(a.cache_hit);
                hits_equal += u64::from(a.cache_hit && first.bitwise_eq(&a.logits));
            }
            None => *slot = Some(&a.logits),
        }
    }
    result.check(
        "responses_match_recompute",
        compared > 0 && equal == compared,
        format!(
            "{equal} of {compared} sampled responses equal sample_into + forward_gathered_view"
        ),
    );
    result.check(
        "cache_hits_match_first_response",
        hits_equal == hits,
        format!("{hits_equal} of {hits} cache hits equal the query's first response"),
    );
}

fn note_phase(result: &mut RunResult, label: &str, rate: f64, p: &Phase) {
    result.notes.push(format!(
        "phase {label} rate {rate} rps: sent {} answered {} failed {} p50 {} ms p{} {} ms p99 {} ms \
         saturated {} backlog_end {} gen_lag_p99 {} ms",
        p.sent,
        p.answered,
        p.failures(),
        p.typical_ms(),
        SERVE_TAIL * 100.0,
        p.tail_ms(),
        quantile(&p.latency_ms, 0.99),
        p.saturated(),
        p.backlog_end(),
        quantile(&p.lag_ms, 0.99),
    ));
}

/// A session with the workload's deadline, its closed-loop sibling, both
/// warmed: what set-up builds.
fn set_up(w: &ServeWorkload, queries: &Queries, seed: u64) -> (ServeRig, ServeRig) {
    let mut rig = ServeRig::new(w.def, seed, w.def.deadline_us);
    let mut closed = rig.sibling(0);
    warm_up(&mut rig, queries, SERVE_WARMUP_QUERIES);
    warm_up(&mut closed, queries, SERVE_WARMUP_QUERIES);
    (rig, closed)
}

/// Stream positions: warm-up, then the closed-loop pool, then the open loop.
struct Layout {
    closed_first: usize,
    closed_limit: usize,
    open_first: usize,
}

fn layout(zipf: bool, closed_seconds: f64) -> Layout {
    let per_s = if zipf {
        CLOSED_LOOP_POOL_PER_S_ZIPF
    } else {
        CLOSED_LOOP_POOL_PER_S
    };
    let closed_limit = (per_s * closed_seconds) as usize + 64;
    Layout {
        closed_first: SERVE_WARMUP_QUERIES,
        closed_limit,
        open_first: SERVE_WARMUP_QUERIES + closed_limit,
    }
}

/// A latency as it would read on a host of nominal speed. The batching
/// deadline is a timer and does not stretch with the host; what a response
/// takes beyond it is the program computing, and does.
fn at_nominal_speed(latency_ms: f64, deadline_ms: f64, host_factor: f64) -> f64 {
    if latency_ms > deadline_ms {
        deadline_ms + (latency_ms - deadline_ms) / host_factor
    } else {
        latency_ms
    }
}

/// The plain run: set up, closed-loop capacity, open loop at `rate_ref`, both
/// in `PARTS` parts with a sample of the host-speed reference after each.
/// Set-up is timed once before the phases and once after each part of the
/// open loop.
pub fn run(w: &ServeWorkload, args: &Args) -> RunResult {
    let closed_seconds = CAPACITY_SHARE * args.seconds();
    let open_seconds = args.seconds() - closed_seconds;
    let rate = w.rates[0];
    let mut rng = Rng::new(args.seed, 2);
    let schedules: Vec<Vec<u64>> = (0..PARTS)
        .map(|_| exponential_schedule(&mut rng, rate, open_seconds / PARTS as f64))
        .collect();
    let lay = layout(w.zipf, closed_seconds);
    // The node count is a function of the frozen dataset definition; a
    // throw-away rig reads it so the stream can be generated before set-up.
    let num_nodes = ServeRig::new(w.def, args.seed, 0).num_nodes();
    let queries = Queries::generate(
        w.zipf,
        lay.open_first + schedules.iter().map(Vec::len).sum::<usize>(),
        num_nodes,
        args.seed,
    );

    let t0 = Instant::now();
    let (mut rig, mut closed) = set_up(w, &queries, args.seed);
    let mut setup_times = vec![t0.elapsed().as_secs_f64()];

    let mut rec = Recorder::new(false);
    let mut reference = Reference::new();
    let (mut capacity, mut capacity_rps, mut capacity_ref_s) = (Phase::default(), vec![], vec![]);
    for part in 0..PARTS {
        let p = closed_loop(
            &mut closed,
            &queries,
            lay.closed_first + part * (lay.closed_limit / PARTS),
            lay.closed_limit / PARTS,
            closed_seconds / PARTS as f64,
            &mut rec,
        );
        capacity_rps.push(p.closed_loop_rps());
        capacity.absorb(p);
        capacity_ref_s.push(reference.sample());
    }
    let (mut open, mut open_ref_s) = (Phase::default(), vec![]);
    let mut first = lay.open_first;
    let mut peak_rss_mb = 0.0;
    for schedule in &schedules {
        open.absorb(open_loop(&mut rig, &queries, first, schedule, &mut rec));
        first += schedule.len();
        open_ref_s.push(reference.sample());
        // Set-up again, between the parts: repeats done back to back all
        // fall into the same second of the host. Peak memory is read before
        // the first of them builds a second pair of sessions.
        if setup_times.len() == 1 {
            peak_rss_mb = host::peak_rss_mb();
        }
        let t0 = Instant::now();
        drop(set_up(w, &queries, args.seed));
        setup_times.push(t0.elapsed().as_secs_f64());
    }

    let mut result = RunResult {
        attempted: open.sent + capacity.sent,
        failed: open.failures() + capacity.failures(),
        ..RunResult::default()
    };
    let deadline_ms = w.def.deadline_us as f64 / 1e3;
    let open_factor = host_factor(&open_ref_s);
    let m = &mut result.metrics;
    m.put("setup_s", median(&setup_times) / open_factor, "s");
    m.put(
        "op_ms",
        at_nominal_speed(open.typical_ms(), deadline_ms, open_factor),
        "ms",
    );
    m.put(
        "op_tail_ms",
        at_nominal_speed(open.tail_ms(), deadline_ms, open_factor),
        "ms",
    );
    m.put(
        "throughput",
        median(&capacity_rps) * host_factor(&capacity_ref_s),
        "1/s",
    );
    m.put(
        "quality",
        1.0 - open.misses() as f64 / open.sent.max(1) as f64,
        "fraction",
    );
    m.put("peak_rss_mb", peak_rss_mb, "MB");

    result.note_summary("lat_ms", &open.latency_ms, "ms");
    result.note_summary("capacity_rps", &capacity_rps, "1/s");
    result.note_summary("setup_repeat_s", &setup_times, "s");
    result.note_reference("capacity", &capacity_ref_s);
    result.note_reference("rate_ref", &open_ref_s);
    result.note("lat_tail_percentile", SERVE_TAIL * 100.0, "%");
    result.note("rate_ref", rate, "1/s");
    result.note("latency_limit_ms", LATENCY_LIMIT_MS, "ms");
    result.note("program_threads", 1, "count");
    note_phase(&mut result, "capacity", 0.0, &capacity);
    note_phase(&mut result, "rate_ref", rate, &open);
    result.check(
        "meets_latency_limit",
        open.meets_limit(),
        format!(
            "p{} {} ms ≤ {LATENCY_LIMIT_MS} ms, fail_frac {} ≤ {MAX_FAIL_FRAC}, no growing backlog",
            SERVE_TAIL * 100.0,
            open.tail_ms(),
            open.fail_frac()
        ),
    );
    check_outputs(&mut result, &mut rig, &queries, &[&open, &capacity]);
    result
}

/// The traced run: capacity with span recording off and on, the three fixed
/// rates with spans around `submit` and `poll`, and a replay of the query
/// path over the same request stream.
pub fn run_traced(name: &str, w: &ServeWorkload, args: &Args) -> RunResult {
    let (cpu_user0, cpu_sys0) = host::cpu_seconds();
    let s = args.seconds();
    let closed_seconds = 0.15 * s;
    let open_seconds = [0.3 * s, 0.15 * s, 0.15 * s];
    let replay_seconds = 0.15 * s;
    let mut rng = Rng::new(args.seed, 2);
    let schedules: Vec<Vec<u64>> = w
        .rates
        .iter()
        .zip(open_seconds)
        .map(|(&rate, seconds)| exponential_schedule(&mut rng, rate, seconds))
        .collect();
    let lay = layout(w.zipf, closed_seconds);
    let total = lay.open_first + schedules.iter().map(Vec::len).sum::<usize>();
    let queries = Queries::of(w, total, args.seed);
    let (mut rig, mut closed) = set_up(w, &queries, args.seed);

    let mut rec = Recorder::new(true);
    let t_traced = Instant::now();
    let mut phases = vec![closed_loop(
        &mut closed,
        &queries,
        lay.closed_first,
        lay.closed_limit,
        closed_seconds,
        &mut rec,
    )];
    let mut first = lay.open_first;
    for schedule in &schedules {
        phases.push(open_loop(&mut rig, &queries, first, schedule, &mut rec));
        first += schedule.len();
    }
    let [capacity, at_ref, mid, hi] = &phases[..] else {
        unreachable!("capacity and three rates")
    };

    // The query path called directly over the `rate_ref` phase's requests.
    let replay_first = lay.open_first;
    let t0 = Instant::now();
    let mut replayed = 0usize;
    while replayed < schedules[0].len() && t0.elapsed().as_secs_f64() < replay_seconds {
        let request = replay_first + replayed;
        std::hint::black_box(rig.recompute(queries.get(request), request as u64, &mut rec));
        replayed += 1;
    }
    let traced_s = t_traced.elapsed().as_secs_f64();
    let totals = rec.totals();
    let per_query =
        |name: &str| totals.get(name).map_or(0.0, |t| t.self_s) / replayed.max(1) as f64;

    let mut result = RunResult {
        attempted: phases.iter().map(|p| p.sent).sum(),
        failed: phases.iter().map(Phase::failures).sum(),
        ..RunResult::default()
    };
    let m = &mut result.metrics;
    m.put("serve.queue_ms_p50", median(&at_ref.queue_ms), "ms");
    m.put("serve.queue_ms_p99", quantile(&at_ref.queue_ms, 0.99), "ms");
    m.put("serve.exec_ms_p50", median(&at_ref.exec_ms), "ms");
    m.put("serve.exec_ms_p99", quantile(&at_ref.exec_ms, 0.99), "ms");
    m.put("serve.sample_s", per_query(span::Q_SAMPLE), "s");
    m.put("serve.gather_s", per_query(span::Q_GATHER), "s");
    m.put("serve.forward_s", per_query(span::Q_FORWARD), "s");
    m.put("serve.result_hit_rate", rig.result_hit_rate(), "fraction");
    m.put("serve.feature_hit_rate", rig.feature_hit_rate(), "fraction");
    m.put(
        "serve.batch_size_mean",
        at_ref.answered as f64 / at_ref.batches.max(1) as f64,
        "count",
    );
    m.put("serve.shed", at_ref.shed as f64, "count");
    m.put("serve.queue_full", at_ref.queue_full as f64, "count");
    m.put("serve.gen_lag_ms_p99", quantile(&at_ref.lag_ms, 0.99), "ms");
    m.put("serve.backlog_end", at_ref.backlog_end(), "count");
    let p99 = |p: &Phase| quantile(&p.latency_ms, 0.99);
    m.put("serve.rate_ref.p99_ms", p99(at_ref), "ms");
    m.put("serve.rate_mid.p99_ms", p99(mid), "ms");
    m.put("serve.rate_hi.p99_ms", p99(hi), "ms");
    let max_ok = w
        .rates
        .iter()
        .zip([at_ref, mid, hi])
        .filter(|(_, p)| p.meets_limit())
        .map(|(&r, _)| r)
        .fold(0.0, f64::max);
    m.put("serve.max_ok_rate_rps", max_ok, "1/s");
    let (cpu_user, cpu_sys) = host::cpu_seconds();
    m.put("proc.cpu_user_s", cpu_user - cpu_user0, "s");
    m.put("proc.cpu_sys_s", cpu_sys - cpu_sys0, "s");
    m.put(
        "bench.trace_overhead_frac",
        rec.len() as f64 * Recorder::span_cost_s() / traced_s,
        "fraction",
    );

    result.note("capacity_rps_traced", capacity.closed_loop_rps(), "1/s");
    result.note("replayed_queries", replayed, "count");
    result.note("spans", rec.len(), "count");
    for (label, (&rate, p)) in ["rate_ref", "rate_mid", "rate_hi"]
        .iter()
        .zip(w.rates.iter().zip([at_ref, mid, hi]))
    {
        note_phase(&mut result, label, rate, p);
    }
    let refs: Vec<&Phase> = phases.iter().collect();
    check_outputs(&mut result, &mut rig, &queries, &refs);
    crate::write_trace(name, &rec, &mut result);
    result
}
