//! Vector-clock happens-before race detector (a mini-TSan) for the shimmed
//! synchronization primitives.
//!
//! Because the workspace owns its `parking_lot` *and* `crossbeam` stand-ins,
//! every synchronization edge the runtime actually uses flows through a
//! handful of hook points that this module instruments when the `check`
//! feature is on:
//!
//! * **Locks** ([`lock_acquire`]/[`lock_release`]): releasing a lock joins
//!   the releasing thread's vector clock into the lock's clock and advances
//!   the thread's own epoch; acquiring joins the lock's clock into the
//!   acquirer. RwLock readers are treated like mutex holders — the spurious
//!   reader→reader edges this adds can only *hide* races (false negatives),
//!   never invent them.
//! * **Channels** ([`chan_send`]/[`chan_recv`]): each channel keeps a FIFO
//!   of sender clocks parallel to its message queue (the shim invokes both
//!   hooks while holding the channel's queue mutex, so the two queues stay
//!   in lockstep); a receive joins the clock that was pushed with the
//!   message it pops. A *failed* send (receivers gone) establishes no edge.
//! * **Sync points** ([`point_publish`]/[`point_acquire`]): explicit
//!   fork/join barriers for the thread pool's completion latch, whose
//!   `fetch_sub` fast path is invisible to the lock hooks.
//!
//! On top of the clocks sits a FastTrack-style shadow memory
//! ([`region_register`]/[`region_access`]): a *region* models one
//! claimed-disjoint raw-pointer window (one cell per window unit, e.g. one
//! output row), each cell remembering its last write as an `(thread,
//! epoch)` pair plus a read vector. An access that is not ordered after
//! every prior conflicting access by the happens-before relation is a data
//! race, reported with the `file:line` of both sites via
//! [`std::panic::Location`].
//!
//! All bookkeeping uses raw `std::sync` primitives, never the instrumented
//! wrappers, so the detector cannot recurse into itself. Reports accumulate
//! in a global list drained by [`take_reports`]; [`reset`] clears all
//! per-object state between tests (thread identities persist — clocks only
//! grow, which at worst hides a race *across* tests, never fabricates one).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex as StdMutex;

use crate::sanitizer::LockId;

/// Identity of one instrumented object (channel, sync point, region).
pub type ObjectId = u64;

/// A vector clock: `clock[t]` is the latest epoch of thread `t` known to
/// happen before the owner's current instant.
type Clock = Vec<u64>;

/// Pointwise maximum: afterwards `into` knows everything `from` knows.
fn join(into: &mut Clock, from: &Clock) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (a, b) in into.iter_mut().zip(from.iter()) {
        *a = (*a).max(*b);
    }
}

/// Whether the epoch `(tid, at)` happens before (or is) the instant `clock`.
fn ordered(clock: &Clock, tid: usize, at: u64) -> bool {
    clock.get(tid).copied().unwrap_or(0) >= at
}

/// Kind of shadow-memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
}

impl AccessKind {
    fn label(self) -> &'static str {
        match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        }
    }
}

/// One detected race: two accesses to the same cell with no happens-before
/// order between them, at least one a write.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceReport {
    /// Region name given at [`region_register`].
    pub region: String,
    /// Cell index (window unit, e.g. output row) the accesses collided on.
    pub cell: usize,
    /// Kind of the earlier recorded access.
    pub prior: AccessKind,
    /// `file:line` of the earlier access.
    pub prior_site: String,
    /// Thread that made the earlier access.
    pub prior_thread: String,
    /// Kind of the access that detected the race.
    pub current: AccessKind,
    /// `file:line` of the detecting access.
    pub site: String,
    /// Thread that made the detecting access.
    pub thread: String,
}

impl std::fmt::Display for RaceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "data race on region '{}' cell {}: {} at {} (thread '{}') is unordered \
             with prior {} at {} (thread '{}')",
            self.region,
            self.cell,
            self.current.label(),
            self.site,
            self.thread,
            self.prior.label(),
            self.prior_site,
            self.prior_thread,
        )
    }
}

/// FastTrack-style per-cell state: the last write as an epoch, plus the
/// last read per thread since that write.
#[derive(Default)]
struct CellState {
    /// `(tid, epoch, site)` of the most recent write, if any.
    write: Option<(usize, u64, &'static Location<'static>)>,
    /// `(tid, epoch, site)` of each thread's latest read since the last
    /// write. Small in practice: one entry per concurrently-reading thread.
    reads: Vec<(usize, u64, &'static Location<'static>)>,
}

struct RegionState {
    name: &'static str,
    cells: Vec<CellState>,
}

#[derive(Default)]
struct State {
    /// Lock id → clock of everything the last releaser had seen.
    locks: BTreeMap<LockId, Clock>,
    /// Channel id → per-message sender clocks, FIFO-parallel to the queue.
    chans: BTreeMap<ObjectId, VecDeque<Clock>>,
    /// Sync point id → merged clock of every publisher so far.
    points: BTreeMap<ObjectId, Clock>,
    /// Shadow-memory regions currently alive.
    regions: BTreeMap<ObjectId, RegionState>,
    /// Thread slot → name, assigned at first instrumented action.
    threads: Vec<String>,
    reports: Vec<RaceReport>,
    /// Dedup key `(region, prior_site, site)`: one report per racing pair
    /// of source sites, not one per cell.
    seen: BTreeSet<(String, String, String)>,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static STATE: StdMutex<Option<State>> = StdMutex::new(None);

thread_local! {
    /// This thread's `(slot, vector clock)`, assigned lazily.
    static THREAD: RefCell<Option<(usize, Clock)>> = const { RefCell::new(None) };
}

fn thread_name() -> String {
    std::thread::current()
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| format!("{:?}", std::thread::current().id()))
}

/// Runs `f` with this thread's slot + clock and the global state, both
/// borrowed mutably. Returns `None` during thread teardown (TLS gone) —
/// hooks silently no-op then, which can only lose edges on dying threads.
fn with_thread_state<R>(f: impl FnOnce(usize, &mut Clock, &mut State) -> R) -> Option<R> {
    THREAD
        .try_with(|t| {
            let mut slot = t.borrow_mut();
            let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
            let state = guard.get_or_insert_with(State::default);
            if slot.is_none() {
                let tid = state.threads.len();
                state.threads.push(thread_name());
                let mut clock = vec![0; tid + 1];
                clock[tid] = 1;
                *slot = Some((tid, clock));
            }
            let (tid, clock) = slot.as_mut().expect("thread slot initialized above");
            f(*tid, clock, state)
        })
        .ok()
}

fn fresh_id() -> ObjectId {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

// ---- locks ---------------------------------------------------------------

/// Acquire edge: the acquirer inherits everything the last releaser saw.
/// Locks are keyed by the id [`crate::sanitizer`] assigned them.
pub(crate) fn lock_acquire(id: LockId) {
    with_thread_state(|_tid, clock, state| {
        if let Some(lc) = state.locks.get(&id) {
            join(clock, lc);
        }
    });
}

/// Release edge: the lock's clock absorbs the releaser's, and the releaser
/// starts a new epoch so later accesses are not ordered by this release.
pub(crate) fn lock_release(id: LockId) {
    with_thread_state(|tid, clock, state| {
        join(state.locks.entry(id).or_default(), clock);
        clock[tid] += 1;
    });
}

// ---- channels ------------------------------------------------------------

/// Assigns an id to a new channel instance.
pub fn chan_register() -> ObjectId {
    fresh_id()
}

/// Drops a channel's clock queue (called when the channel is torn down).
pub fn chan_unregister(id: ObjectId) {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(state) = guard.as_mut() {
        state.chans.remove(&id);
    }
}

/// Send edge: push the sender's clock alongside the message. Must be called
/// while holding the channel's queue mutex, right after the enqueue, so the
/// clock FIFO stays parallel to the message FIFO.
pub fn chan_send(id: ObjectId) {
    with_thread_state(|tid, clock, state| {
        state.chans.entry(id).or_default().push_back(clock.clone());
        clock[tid] += 1;
    });
}

/// Receive edge: join the clock pushed with the message just dequeued. Must
/// be called while holding the channel's queue mutex, right after the pop.
pub fn chan_recv(id: ObjectId) {
    with_thread_state(|_tid, clock, state| {
        if let Some(sent) = state.chans.get_mut(&id).and_then(VecDeque::pop_front) {
            join(clock, &sent);
        }
    });
}

// ---- sync points ---------------------------------------------------------

/// Assigns an id to a new fork/join sync point.
pub fn point_register() -> ObjectId {
    fresh_id()
}

/// Drops a sync point's clock.
pub fn point_unregister(id: ObjectId) {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(state) = guard.as_mut() {
        state.points.remove(&id);
    }
}

/// Publish edge (worker side of a join): the point's clock absorbs this
/// thread's, and the thread starts a new epoch.
pub fn point_publish(id: ObjectId) {
    with_thread_state(|tid, clock, state| {
        join(state.points.entry(id).or_default(), clock);
        clock[tid] += 1;
    });
}

/// Acquire edge (joiner side): inherit everything every publisher saw.
pub fn point_acquire(id: ObjectId) {
    with_thread_state(|_tid, clock, state| {
        if let Some(pc) = state.points.get(&id) {
            join(clock, pc);
        }
    });
}

// ---- shadow memory -------------------------------------------------------

/// Registers a shadow region of `cells` window units under `name`.
pub fn region_register(name: &'static str, cells: usize) -> ObjectId {
    let id = fresh_id();
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    let state = guard.get_or_insert_with(State::default);
    state.regions.insert(
        id,
        RegionState {
            name,
            cells: (0..cells).map(|_| CellState::default()).collect(),
        },
    );
    id
}

/// Drops a region's shadow cells (its window closed).
pub fn region_unregister(id: ObjectId) {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(state) = guard.as_mut() {
        state.regions.remove(&id);
    }
}

/// Checks and records an access to cells `start..start + len` of a region.
/// Any prior conflicting access (write/write, write/read, read/write) not
/// ordered before this one by happens-before is reported as a race.
pub fn region_access(
    id: ObjectId,
    start: usize,
    len: usize,
    kind: AccessKind,
    site: &'static Location<'static>,
) {
    with_thread_state(|tid, clock, state| {
        let State {
            regions,
            threads,
            reports,
            seen,
            ..
        } = state;
        let Some(region) = regions.get_mut(&id) else {
            return;
        };
        let end = start.saturating_add(len).min(region.cells.len());
        let here = clock.get(tid).copied().unwrap_or(0);
        for cell in start..end {
            let cs = &mut region.cells[cell];
            let mut racy: Option<(usize, u64, &'static Location<'static>, AccessKind)> = None;
            if let Some((wt, we, ws)) = cs.write {
                if wt != tid && !ordered(clock, wt, we) {
                    racy = Some((wt, we, ws, AccessKind::Write));
                }
            }
            if kind == AccessKind::Write && racy.is_none() {
                for &(rt, re, rs) in &cs.reads {
                    if rt != tid && !ordered(clock, rt, re) {
                        racy = Some((rt, re, rs, AccessKind::Read));
                        break;
                    }
                }
            }
            if let Some((pt, _pe, ps, pk)) = racy {
                let prior_site = format!("{}:{}", ps.file(), ps.line());
                let here_site = format!("{}:{}", site.file(), site.line());
                let key = (
                    region.name.to_string(),
                    prior_site.clone(),
                    here_site.clone(),
                );
                if seen.insert(key) {
                    reports.push(RaceReport {
                        region: region.name.to_string(),
                        cell,
                        prior: pk,
                        prior_site,
                        prior_thread: threads.get(pt).cloned().unwrap_or_default(),
                        current: kind,
                        site: here_site,
                        thread: threads.get(tid).cloned().unwrap_or_default(),
                    });
                }
            }
            match kind {
                AccessKind::Write => {
                    cs.write = Some((tid, here, site));
                    cs.reads.clear();
                }
                AccessKind::Read => {
                    if let Some(r) = cs.reads.iter_mut().find(|(rt, _, _)| *rt == tid) {
                        *r = (tid, here, site);
                    } else {
                        cs.reads.push((tid, here, site));
                    }
                }
            }
        }
    });
}

// ---- harness API ---------------------------------------------------------

/// Clears every per-object clock, all shadow regions and pending reports.
/// Thread slots and per-thread clocks persist (clocks only grow, which can
/// only hide cross-test races, never invent one).
pub fn reset() {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(state) = guard.as_mut() {
        state.locks.clear();
        state.chans.clear();
        state.points.clear();
        state.regions.clear();
        state.reports.clear();
        state.seen.clear();
    }
}

/// Drains and returns all race reports recorded since the last call/reset.
pub fn take_reports() -> Vec<RaceReport> {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    guard
        .as_mut()
        .map(|s| {
            s.seen.clear();
            std::mem::take(&mut s.reports)
        })
        .unwrap_or_default()
}

/// Number of race reports currently recorded.
pub fn report_count() -> usize {
    let guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().map(|s| s.reports.len()).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc() -> &'static Location<'static> {
        Location::caller()
    }

    #[test]
    fn join_and_ordered_are_pointwise() {
        let mut a = vec![1, 0, 3];
        join(&mut a, &vec![0, 5, 1, 2]);
        assert_eq!(a, vec![1, 5, 3, 2]);
        assert!(ordered(&a, 1, 5));
        assert!(!ordered(&a, 1, 6));
        assert!(ordered(&a, 9, 0), "unknown thread at epoch 0 is ordered");
        assert!(!ordered(&a, 9, 1));
    }

    #[test]
    fn same_thread_accesses_never_race() {
        reset();
        let r = region_register("self", 4);
        region_access(r, 0, 4, AccessKind::Write, loc());
        region_access(r, 0, 4, AccessKind::Write, loc());
        region_access(r, 0, 4, AccessKind::Read, loc());
        assert_eq!(report_count(), 0);
        region_unregister(r);
    }

    #[test]
    fn unsynchronized_cross_thread_write_write_races() {
        reset();
        let r = region_register("www", 2);
        region_access(r, 0, 2, AccessKind::Write, loc());
        std::thread::spawn(move || {
            region_access(r, 1, 1, AccessKind::Write, loc());
        })
        .join()
        .expect("no panic");
        let reports = take_reports();
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(reports[0].cell, 1);
        assert_eq!(reports[0].prior, AccessKind::Write);
        assert!(reports[0].prior_site.contains("race.rs"));
        region_unregister(r);
    }

    #[test]
    fn lock_edge_orders_the_handoff() {
        reset();
        let r = region_register("locked", 1);
        let l = crate::sanitizer::register();
        // Writer: write under the lock, then release.
        lock_acquire(l);
        region_access(r, 0, 1, AccessKind::Write, loc());
        lock_release(l);
        // Reader thread: acquire the lock first → ordered, no race.
        std::thread::spawn(move || {
            lock_acquire(l);
            region_access(r, 0, 1, AccessKind::Read, loc());
            lock_release(l);
        })
        .join()
        .expect("no panic");
        assert_eq!(take_reports(), vec![]);
        region_unregister(r);
    }

    #[test]
    fn channel_edge_orders_send_before_recv() {
        reset();
        let r = region_register("chan", 1);
        let c = chan_register();
        region_access(r, 0, 1, AccessKind::Write, loc());
        chan_send(c);
        std::thread::spawn(move || {
            chan_recv(c);
            region_access(r, 0, 1, AccessKind::Read, loc());
        })
        .join()
        .expect("no panic");
        assert_eq!(take_reports(), vec![]);
        chan_unregister(c);
        region_unregister(r);
    }

    #[test]
    fn sync_point_orders_publish_before_acquire() {
        reset();
        let r = region_register("point", 1);
        let p = point_register();
        std::thread::spawn(move || {
            region_access(r, 0, 1, AccessKind::Write, loc());
            point_publish(p);
        })
        .join()
        .expect("no panic");
        point_acquire(p);
        region_access(r, 0, 1, AccessKind::Read, loc());
        assert_eq!(take_reports(), vec![]);
        point_unregister(p);
        region_unregister(r);
    }

    #[test]
    fn duplicate_site_pairs_are_deduplicated() {
        reset();
        let r = region_register("dedup", 64);
        let site_a = loc();
        let site_b = loc();
        region_access(r, 0, 64, AccessKind::Write, site_a);
        std::thread::spawn(move || {
            region_access(r, 0, 64, AccessKind::Write, site_b);
        })
        .join()
        .expect("no panic");
        assert_eq!(take_reports().len(), 1, "64 racing cells, one report");
        region_unregister(r);
    }
}
