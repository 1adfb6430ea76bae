//! Core binding — the `taskset` equivalent of ARGO's Core-Binder
//! (paper Section IV-B3).
//!
//! A [`CoreSet`] is an explicit list of logical CPU ids. The [`CoreBinder`]
//! plans how a machine's cores are partitioned across `n` GNN training
//! processes, and within each process across the *sampling* stage and the
//! *training* (model propagation) stage. On Linux the plan can be applied for
//! real via `sched_setaffinity`; elsewhere (or when the host has fewer cores
//! than the plan, e.g. when simulating a 112-core Ice Lake on a laptop) the
//! plan remains a logical description consumed by the platform model.

use std::fmt;

/// An ordered set of logical CPU core ids.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CoreSet {
    ids: Vec<usize>,
}

impl CoreSet {
    /// Creates a core set from explicit core ids. Duplicates are removed
    /// while preserving first-occurrence order.
    pub fn new(mut ids: Vec<usize>) -> Self {
        let mut seen = std::collections::HashSet::new();
        ids.retain(|id| seen.insert(*id));
        Self { ids }
    }

    /// The contiguous range `[start, start + len)`.
    pub fn range(start: usize, len: usize) -> Self {
        Self {
            ids: (start..start + len).collect(),
        }
    }

    /// Number of cores in the set.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The core ids.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// Splits the set into `(first, rest)` where `first` holds the first
    /// `n` cores. Panics if `n > len`.
    pub fn split_at(&self, n: usize) -> (CoreSet, CoreSet) {
        assert!(
            n <= self.ids.len(),
            "split_at({n}) on CoreSet of {}",
            self.ids.len()
        );
        let (a, b) = self.ids.split_at(n);
        (CoreSet { ids: a.to_vec() }, CoreSet { ids: b.to_vec() })
    }
}

impl fmt::Display for CoreSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, id) in self.ids.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, "}}")
    }
}

/// The core allocation for one GNN training process: which cores serve the
/// sampler and which serve model propagation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageBinding {
    /// Cores running mini-batch sampling (the paper's "sampling cores").
    pub sampling: CoreSet,
    /// Cores running forward/backward propagation ("training cores").
    pub training: CoreSet,
}

/// Plans core assignments for a multi-process GNN training run.
///
/// Given a machine with `total_cores` cores, [`CoreBinder::plan`] carves out
/// for each of `n_proc` processes a contiguous block of
/// `⌊total_cores / n_proc⌋` cores and splits it into `n_samp` sampling cores
/// and `n_train` training cores, exactly mirroring Figure 4 of the paper.
#[derive(Clone, Debug)]
pub struct CoreBinder {
    total_cores: usize,
}

impl CoreBinder {
    /// A binder for a machine with `total_cores` logical cores.
    pub fn new(total_cores: usize) -> Self {
        assert!(total_cores > 0, "machine must have at least one core");
        Self { total_cores }
    }

    /// Total cores managed by the binder.
    pub fn total_cores(&self) -> usize {
        self.total_cores
    }

    /// Plans bindings for `n_proc` processes, each with `n_samp` sampling and
    /// `n_train` training cores.
    ///
    /// Returns `None` when the request does not fit the machine
    /// (`n_proc * (n_samp + n_train) > total_cores`) or any count is zero.
    pub fn plan(&self, n_proc: usize, n_samp: usize, n_train: usize) -> Option<Vec<StageBinding>> {
        if n_proc == 0 || n_samp == 0 || n_train == 0 {
            return None;
        }
        let per_proc = n_samp + n_train;
        if n_proc * per_proc > self.total_cores {
            return None;
        }
        // Each process gets a contiguous block so that, on a NUMA machine,
        // a process's cores tend to share a socket.
        let block = self.total_cores / n_proc;
        let mut out = Vec::with_capacity(n_proc);
        for p in 0..n_proc {
            let base = p * block;
            let all = CoreSet::range(base, per_proc);
            let (sampling, training) = all.split_at(n_samp);
            out.push(StageBinding { sampling, training });
        }
        Some(out)
    }

    /// NUMA-aware plan (the paper's Section IX future-work direction): never
    /// lets one process's cores straddle a socket boundary when the process
    /// fits inside a socket, so its memory traffic stays on the local DDR
    /// channels instead of crossing UPI.
    ///
    /// Processes are distributed round-robin over sockets; within a socket
    /// they are packed contiguously. Returns `None` when the request does
    /// not fit, or when a single process needs more cores than a socket has
    /// (then no NUMA-local plan exists).
    pub fn plan_numa(
        &self,
        sockets: usize,
        n_proc: usize,
        n_samp: usize,
        n_train: usize,
    ) -> Option<Vec<StageBinding>> {
        if n_proc == 0 || n_samp == 0 || n_train == 0 || sockets == 0 {
            return None;
        }
        let per_proc = n_samp + n_train;
        let per_socket = self.total_cores / sockets;
        if per_proc > per_socket {
            return None; // a process cannot be socket-local
        }
        // Capacity check: each socket hosts ⌊per_socket / per_proc⌋ procs.
        let cap_per_socket = per_socket / per_proc;
        if cap_per_socket * sockets < n_proc {
            return None;
        }
        let mut out = Vec::with_capacity(n_proc);
        let mut used = vec![0usize; sockets];
        for p in 0..n_proc {
            let socket = p % sockets;
            // Overflow to the next socket with room (round-robin may fill
            // unevenly when n_proc is not a multiple of sockets).
            #[expect(
                clippy::expect_used,
                reason = "preceding if-branch guarantees capacity; see the comment at the call site"
            )]
            let socket = (0..sockets)
                .map(|k| (socket + k) % sockets)
                .find(|&s| used[s] < cap_per_socket)
                .expect("capacity checked above");
            let base = socket * per_socket + used[socket] * per_proc;
            used[socket] += 1;
            let all = CoreSet::range(base, per_proc);
            let (sampling, training) = all.split_at(n_samp);
            out.push(StageBinding { sampling, training });
        }
        Some(out)
    }

    /// Socket index of a core under an even split into `sockets` sockets.
    pub fn socket_of(&self, core: usize, sockets: usize) -> usize {
        let per_socket = (self.total_cores / sockets).max(1);
        (core / per_socket).min(sockets - 1)
    }
}

/// Number of cores the current process may run on.
///
/// Uses the scheduler affinity mask on Linux (so it respects cgroup/taskset
/// restrictions) and falls back to [`std::thread::available_parallelism`].
pub fn num_available_cores() -> usize {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `cpu_set_t` is a plain `repr(C)` bitmask for which the
        // all-zero pattern is a valid (empty) value, so `zeroed` is sound.
        // `sched_getaffinity` is passed the exact size of `set` and writes
        // only within it; `CPU_COUNT` just reads the mask.
        unsafe {
            let mut set: libc::cpu_set_t = std::mem::zeroed();
            if libc::sched_getaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &mut set) == 0 {
                let n = libc::CPU_COUNT(&set);
                if n > 0 {
                    return n as usize;
                }
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Binds the calling thread to the given cores.
///
/// Core ids beyond the host's actual core count are silently dropped, so a
/// logical plan for a 112-core machine degrades gracefully on a smaller host.
/// Returns `true` if an affinity mask was applied.
pub fn bind_current_thread(cores: &CoreSet) -> bool {
    #[cfg(target_os = "linux")]
    {
        let host = num_available_cores();
        let usable: Vec<usize> = cores.ids().iter().copied().filter(|&c| c < host).collect();
        if usable.is_empty() {
            return false;
        }
        // SAFETY: the all-zero `cpu_set_t` is a valid empty mask; `CPU_SET`
        // bounds-checks the core id against the mask width internally; and
        // `sched_setaffinity` only reads `size_of::<cpu_set_t>()` bytes from
        // the fully initialized mask it is handed.
        unsafe {
            let mut set: libc::cpu_set_t = std::mem::zeroed();
            for &c in &usable {
                libc::CPU_SET(c, &mut set);
            }
            libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set) == 0
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cores;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coreset_dedups_and_keeps_order() {
        let cs = CoreSet::new(vec![3, 1, 3, 2, 1]);
        assert_eq!(cs.ids(), &[3, 1, 2]);
        assert_eq!(cs.len(), 3);
    }

    #[test]
    fn coreset_range_and_split() {
        let cs = CoreSet::range(4, 6);
        assert_eq!(cs.ids(), &[4, 5, 6, 7, 8, 9]);
        let (a, b) = cs.split_at(2);
        assert_eq!(a.ids(), &[4, 5]);
        assert_eq!(b.ids(), &[6, 7, 8, 9]);
    }

    #[test]
    #[should_panic]
    fn coreset_split_out_of_range_panics() {
        CoreSet::range(0, 2).split_at(3);
    }

    #[test]
    fn plan_matches_figure4_example() {
        // Figure 4: 8 processes, 2 sampling + 6 training cores each,
        // on a 64-core machine.
        let binder = CoreBinder::new(64);
        let plan = binder.plan(8, 2, 6).expect("fits");
        assert_eq!(plan.len(), 8);
        for (p, b) in plan.iter().enumerate() {
            assert_eq!(b.sampling.len(), 2);
            assert_eq!(b.training.len(), 6);
            assert_eq!(b.sampling.ids()[0], p * 8);
        }
        // No core appears in two processes.
        let mut all: Vec<usize> = plan
            .iter()
            .flat_map(|b| b.sampling.ids().iter().chain(b.training.ids()).copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8 * 8);
    }

    #[test]
    fn plan_rejects_oversubscription_and_zeroes() {
        let binder = CoreBinder::new(16);
        assert!(binder.plan(4, 2, 3).is_none()); // 4*5 > 16
        assert!(binder.plan(0, 1, 1).is_none());
        assert!(binder.plan(1, 0, 1).is_none());
        assert!(binder.plan(1, 1, 0).is_none());
        assert!(binder.plan(4, 1, 3).is_some()); // exactly 16
    }

    #[test]
    fn numa_plan_keeps_processes_socket_local() {
        // 112-core 4-socket Ice Lake: 28 cores/socket.
        let binder = CoreBinder::new(112);
        let plan = binder.plan_numa(4, 8, 2, 6).expect("fits");
        assert_eq!(plan.len(), 8);
        for b in &plan {
            let sockets: std::collections::HashSet<usize> = b
                .sampling
                .ids()
                .iter()
                .chain(b.training.ids())
                .map(|&c| binder.socket_of(c, 4))
                .collect();
            assert_eq!(sockets.len(), 1, "process straddles sockets: {b:?}");
        }
        // Cores remain disjoint across processes.
        let mut all: Vec<usize> = plan
            .iter()
            .flat_map(|b| b.sampling.ids().iter().chain(b.training.ids()).copied())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn numa_plan_spreads_over_sockets() {
        let binder = CoreBinder::new(64);
        let plan = binder.plan_numa(2, 4, 1, 7).expect("fits");
        let sockets: std::collections::HashSet<usize> = plan
            .iter()
            .map(|b| binder.socket_of(b.sampling.ids()[0], 2))
            .collect();
        assert_eq!(sockets.len(), 2, "processes should use both sockets");
    }

    #[test]
    fn numa_plan_rejects_oversized_process() {
        // One process needing 40 cores cannot be local on a 28-core socket.
        let binder = CoreBinder::new(112);
        assert!(binder.plan_numa(4, 1, 8, 32).is_none());
        // The plain planner accepts it (it may straddle).
        assert!(binder.plan(1, 8, 32).is_some());
    }

    #[test]
    fn numa_plan_handles_overflow_round_robin() {
        // 5 processes of 12 cores on 2×32: capacity 2 per socket = 4 < 5.
        let binder = CoreBinder::new(64);
        assert!(binder.plan_numa(2, 5, 4, 8).is_none());
        // 4 fit exactly.
        assert!(binder.plan_numa(2, 4, 4, 8).is_some());
    }

    #[test]
    fn available_cores_positive() {
        assert!(num_available_cores() >= 1);
    }

    #[test]
    fn bind_current_thread_is_graceful() {
        // Must not panic even with absurd core ids.
        let _ = bind_current_thread(&CoreSet::new(vec![100_000]));
        let _ = bind_current_thread(&CoreSet::range(0, 1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(CoreSet::new(vec![0, 2]).to_string(), "{0,2}");
        assert_eq!(CoreSet::new(vec![]).to_string(), "{}");
    }
}
