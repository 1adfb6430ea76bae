//! Debug-build concurrency sanitizer for the shimmed lock primitives.
//!
//! Because the workspace owns its `parking_lot` stand-in, every lock
//! acquisition in the runtime's hot paths (thread pool completion latches,
//! feature-cache shards, telemetry registries, loader channels) flows
//! through this one file when the `check` feature is on (`crate::hook`
//! reports each lock operation here). Two properties are checked at
//! runtime:
//!
//! * **Lock-order inversions** (potential deadlocks): a global directed
//!   graph records the edge `A → B` the first time any thread acquires `B`
//!   while holding `A`. Acquiring `B` while a path `B →* A` already exists
//!   for some held lock `A` means two threads can take the locks in
//!   opposite orders — the classic ABBA deadlock — and is recorded as a
//!   [`Violation::OrderInversion`].
//! * **Double-locks**: re-acquiring a lock this thread already holds would
//!   deadlock the std-backed primitives for real, so it is recorded as a
//!   [`Violation::DoubleLock`] and then panics (continuing would hang the
//!   process inside `std::sync::Mutex::lock`).
//!
//! All bookkeeping uses raw `std::sync` primitives, never the instrumented
//! wrappers, so the sanitizer cannot recurse into itself. Violations are
//! collected in a global list that tests drain via [`take_violations`];
//! inversions are *recorded, not fatal* because the interleaving that was
//! actually observed did not deadlock — only its mirror image would.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex as StdMutex;

/// Identity of one lock instance, assigned at construction.
pub type LockId = u64;

/// Which shim primitive a lock id belongs to (diagnostics only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockClass {
    Mutex,
    RwLock,
}

impl LockClass {
    fn label(self) -> &'static str {
        match self {
            LockClass::Mutex => "Mutex",
            LockClass::RwLock => "RwLock",
        }
    }
}

/// One detected violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A thread re-acquired a lock it already holds.
    DoubleLock {
        lock: LockId,
        class: LockClass,
        thread: String,
    },
    /// Acquiring `acquiring` while holding `held` inverts an ordering the
    /// graph has already seen in the other direction (via some path).
    OrderInversion {
        held: LockId,
        acquiring: LockId,
        thread: String,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::DoubleLock {
                lock,
                class,
                thread,
            } => write!(
                f,
                "double-lock: thread '{thread}' re-acquired {} #{lock} it already holds",
                class.label()
            ),
            Violation::OrderInversion {
                held,
                acquiring,
                thread,
            } => write!(
                f,
                "lock-order inversion: thread '{thread}' acquired lock #{acquiring} \
                 while holding #{held}, but the opposite order #{acquiring} → #{held} \
                 was observed before (potential ABBA deadlock)"
            ),
        }
    }
}

#[derive(Default)]
struct State {
    /// Edge `a → b`: some thread acquired `b` while holding `a`.
    order: BTreeMap<LockId, BTreeSet<LockId>>,
    violations: Vec<Violation>,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static STATE: StdMutex<Option<State>> = StdMutex::new(None);

thread_local! {
    /// Locks currently held by this thread, in acquisition order.
    static HELD: RefCell<Vec<(LockId, LockClass)>> = const { RefCell::new(Vec::new()) };
}

fn with_state<R>(f: impl FnOnce(&mut State) -> R) -> R {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(State::default))
}

fn thread_name() -> String {
    std::thread::current()
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| format!("{:?}", std::thread::current().id()))
}

/// `start →* goal` reachability over the order graph.
fn reaches(order: &BTreeMap<LockId, BTreeSet<LockId>>, start: LockId, goal: LockId) -> bool {
    if start == goal {
        return true;
    }
    let mut visited = BTreeSet::new();
    let mut stack = vec![start];
    while let Some(n) = stack.pop() {
        if !visited.insert(n) {
            continue;
        }
        if let Some(next) = order.get(&n) {
            if next.contains(&goal) {
                return true;
            }
            stack.extend(next.iter().copied());
        }
    }
    false
}

/// Assigns a fresh id to a new lock instance.
pub(crate) fn register() -> LockId {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Pre-acquisition check: double-lock detection (fatal) and lock-order
/// recording/inversion detection (recorded, non-fatal).
pub(crate) fn before_acquire(id: LockId, class: LockClass) {
    let held: Vec<(LockId, LockClass)> = HELD.with(|h| h.borrow().clone());
    if held.iter().any(|&(h, _)| h == id) {
        let v = Violation::DoubleLock {
            lock: id,
            class,
            thread: thread_name(),
        };
        let msg = v.to_string();
        with_state(|s| s.violations.push(v));
        // Proceeding would deadlock inside the std primitive for real.
        panic!("argo-sanitizer: {msg}");
    }
    if held.is_empty() {
        return;
    }
    with_state(|s| {
        for &(h, _) in &held {
            // An existing path id →* h means some execution takes these two
            // locks in the opposite order.
            if reaches(&s.order, id, h) {
                s.violations.push(Violation::OrderInversion {
                    held: h,
                    acquiring: id,
                    thread: thread_name(),
                });
            }
            s.order.entry(h).or_default().insert(id);
        }
    });
}

/// Post-acquisition bookkeeping (a successful `try_lock` starts here): push
/// onto this thread's held stack.
pub(crate) fn acquired(id: LockId, class: LockClass) {
    HELD.with(|h| h.borrow_mut().push((id, class)));
}

/// Release bookkeeping: remove the most recent hold of `id` (guards may be
/// dropped out of acquisition order, so search from the top).
pub(crate) fn released(id: LockId) {
    HELD.with(|h| {
        let mut held = h.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&(l, _)| l == id) {
            held.remove(pos);
        }
    });
}

/// Clears the order graph and pending violations (held stacks are
/// per-thread and survive; they drain naturally as guards drop).
pub fn reset() {
    with_state(|s| {
        s.order.clear();
        s.violations.clear();
    });
}

/// Drains and returns all violations recorded since the last call/reset.
pub fn take_violations() -> Vec<Violation> {
    with_state(|s| std::mem::take(&mut s.violations))
}

/// Number of violations currently recorded.
pub fn violation_count() -> usize {
    with_state(|s| s.violations.len())
}

/// Number of distinct ordering edges observed (diagnostics/tests).
pub fn order_edge_count() -> usize {
    with_state(|s| s.order.values().map(BTreeSet::len).sum())
}
