//! A p99-latency objective that retargets the auto-tuner at serving.
//!
//! The paper's tuner minimizes *epoch time*; Algorithm 1 never looks inside
//! the objective, so pointing the same BayesOpt loop at tail latency is just
//! a different black box. [`ServeObjective`] provides that box: a
//! deterministic open-loop simulation of the serving pipeline — Poisson
//! arrivals at a target rate admitted through deadline micro-batching, a
//! single FIFO executor whose batch service time comes from a caller-supplied
//! model (typically `PerfModel::predicted_request_seconds`, or a closed-loop
//! measurement from `argo-bench`) — reduced to the p99 of per-request
//! latency.
//!
//! The simulation is pure: arrivals derive from a counter-based
//! [`StreamRng`] stream keyed by the workload seed, so the same
//! `(workload, config)` pair always yields the same p99. That keeps tuner
//! trajectories reproducible and makes the objective unit-testable without
//! a wall clock — the same design stance as the serving session itself.

use argo_rt::{Config, StreamRng};

/// The synthetic open-loop workload a [`ServeObjective`] simulates.
#[derive(Clone, Copy, Debug)]
pub struct ServeWorkload {
    /// Mean arrival rate, queries per second (Poisson arrivals).
    pub qps: f64,
    /// Number of requests to simulate per evaluation.
    pub num_requests: usize,
    /// Micro-batcher admission cap.
    pub max_batch: usize,
    /// Micro-batcher deadline in microseconds.
    pub deadline_us: u64,
    /// Seed of the arrival stream (evaluations are pure functions of this).
    pub seed: u64,
}

impl Default for ServeWorkload {
    fn default() -> Self {
        Self {
            qps: 500.0,
            num_requests: 2_000,
            max_batch: 8,
            deadline_us: 2_000,
            seed: 0x5EED,
        }
    }
}

/// Tail-latency objective for [`crate::OnlineAutoTuner`] /
/// [`crate::Searcher`]: evaluates a configuration by simulating the
/// workload and returning the latency quantile (default p99) in seconds.
pub struct ServeObjective<F: Fn(Config, usize) -> f64> {
    workload: ServeWorkload,
    /// Seconds to execute one micro-batch of `n` requests under `config`.
    service: F,
    quantile: f64,
}

impl<F: Fn(Config, usize) -> f64> ServeObjective<F> {
    /// An objective over `workload` with batch service times from
    /// `service(config, batch_size) -> seconds`.
    pub fn new(workload: ServeWorkload, service: F) -> Self {
        Self {
            workload,
            service,
            quantile: 0.99,
        }
    }

    /// Targets a different latency quantile (clamped to (0, 1]).
    pub fn with_quantile(mut self, quantile: f64) -> Self {
        self.quantile = quantile.clamp(1e-6, 1.0);
        self
    }

    /// Simulates the workload under `config` and returns every per-request
    /// latency in seconds, in arrival order.
    pub fn latencies(&self, config: Config) -> Vec<f64> {
        let w = self.workload;
        let n = w.num_requests.max(1);
        let qps = w.qps.max(1e-9);
        let deadline = w.deadline_us as f64 / 1e6;
        let max_batch = w.max_batch.max(1);

        // Poisson process: exponential inter-arrival gaps, counter-based
        // stream so the schedule is a pure function of the seed.
        let mut rng = StreamRng::new(w.seed);
        let mut arrivals = Vec::with_capacity(n);
        let mut t = 0.0f64;
        for _ in 0..n {
            let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            // Exponential gap; clamp keeps ln() off exact zero.
            t += -(1.0 - u).max(f64::MIN_POSITIVE).ln() / qps;
            arrivals.push(t);
        }

        // Deadline micro-batching over the arrival schedule, then one FIFO
        // executor: batch flushes at min(arrival filling max_batch, oldest
        // arrival + deadline); execution starts when the server frees up.
        let mut latencies = Vec::with_capacity(n);
        let mut server_free = 0.0f64;
        let mut i = 0usize;
        while i < n {
            let oldest = arrivals[i];
            let flush_by = oldest + deadline;
            let mut j = i + 1;
            while j < n && j - i < max_batch && arrivals[j] <= flush_by {
                j += 1;
            }
            let batch = j - i;
            let flushed = if batch == max_batch {
                arrivals[j - 1]
            } else {
                flush_by
            };
            let start = if flushed > server_free {
                flushed
            } else {
                server_free
            };
            let done = start + (self.service)(config, batch).max(0.0);
            server_free = done;
            for &a in &arrivals[i..j] {
                latencies.push(done - a);
            }
            i = j;
        }
        latencies
    }

    /// The configured latency quantile (nearest-rank) in seconds.
    pub fn tail_latency(&self, config: Config) -> f64 {
        let mut l = self.latencies(config);
        if l.is_empty() {
            return 0.0;
        }
        l.sort_by(f64::total_cmp);
        let rank = ((self.quantile * l.len() as f64).ceil() as usize).clamp(1, l.len());
        l[rank - 1]
    }

    /// Adapts the objective to the `FnMut(Config, epochs) -> f64` shape
    /// [`crate::OnlineAutoTuner::run`] consumes: `epochs` windows of the
    /// (deterministic) workload cost `epochs` times one window's tail.
    pub fn into_objective(self) -> impl FnMut(Config, usize) -> f64 {
        move |config, epochs| self.tail_latency(config) * epochs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BayesOpt, OnlineAutoTuner, SearchSpace};

    /// A toy service model: fixed overhead plus per-request work that
    /// parallelizes across sampling cores — more cores, faster batches.
    fn toy_service(config: Config, batch: usize) -> f64 {
        let cores = (config.n_samp * config.n_proc).max(1) as f64;
        200e-6 + batch as f64 * 400e-6 / cores
    }

    fn workload() -> ServeWorkload {
        ServeWorkload {
            qps: 800.0,
            num_requests: 1_200,
            max_batch: 8,
            deadline_us: 2_000,
            seed: 42,
        }
    }

    #[test]
    fn evaluations_are_deterministic() {
        let obj = ServeObjective::new(workload(), toy_service);
        let a = obj.tail_latency(Config::new(1, 2, 2));
        let b = obj.tail_latency(Config::new(1, 2, 2));
        assert_eq!(a, b, "same workload + config must reproduce exactly");
        assert!(a > 0.0);
    }

    #[test]
    fn more_cores_cut_the_tail() {
        let obj = ServeObjective::new(workload(), toy_service);
        let slow = obj.tail_latency(Config::new(1, 1, 1));
        let fast = obj.tail_latency(Config::new(2, 8, 8));
        assert!(
            fast < slow,
            "16 effective cores should beat 1: {fast} vs {slow}"
        );
    }

    #[test]
    fn p99_dominates_the_median() {
        let obj = ServeObjective::new(workload(), toy_service);
        let p99 = obj.tail_latency(Config::new(1, 2, 2));
        let p50 = ServeObjective::new(workload(), toy_service)
            .with_quantile(0.5)
            .tail_latency(Config::new(1, 2, 2));
        assert!(p99 >= p50);
    }

    #[test]
    fn every_request_is_accounted_for() {
        let obj = ServeObjective::new(workload(), toy_service);
        let lat = obj.latencies(Config::new(1, 2, 2));
        assert_eq!(lat.len(), workload().num_requests);
        assert!(lat.iter().all(|&l| l > 0.0 && l.is_finite()));
    }

    #[test]
    fn deadline_bounds_queueing_when_the_server_keeps_up() {
        // At low load with a fast service, latency ≈ queue wait ≤ deadline
        // plus one batch service time.
        let w = ServeWorkload {
            qps: 100.0,
            num_requests: 500,
            max_batch: 8,
            deadline_us: 1_000,
            seed: 7,
        };
        let obj = ServeObjective::new(w, |_, batch| 10e-6 * batch as f64);
        let p99 = obj.tail_latency(Config::new(1, 1, 1));
        assert!(p99 <= 1_000e-6 + 8.0 * 10e-6 + 1e-9, "p99 {p99}");
    }

    #[test]
    fn tuner_finds_a_better_config_than_default() {
        // Wire the objective into Algorithm 1 exactly as a caller would.
        let obj = ServeObjective::new(workload(), toy_service);
        let searcher = BayesOpt::new(SearchSpace::for_cores(16), 99);
        let report = OnlineAutoTuner::new(searcher, 12).run(40, obj.into_objective(), None);
        let default_p99 =
            ServeObjective::new(workload(), toy_service).tail_latency(Config::new(1, 1, 1));
        assert!(
            report.best_epoch_time < default_p99,
            "tuned {} vs default {default_p99}",
            report.best_epoch_time
        );
    }
}
