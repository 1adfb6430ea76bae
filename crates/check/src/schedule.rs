//! A miniature deterministic schedule explorer (a "mini-loom").
//!
//! Real thread interleavings are non-deterministic and unrepeatable; this
//! module takes the opposite trade: model each logical thread as an ordered
//! list of *steps* (closures over shared state), enumerate **every**
//! interleaving of two such lists, and run each interleaving serially on a
//! fresh copy of the state. For step counts `a` and `b` that is
//! `C(a+b, a)` schedules — exhaustive where stress tests are probabilistic.
//!
//! Serial execution of one interleaving is exactly the sequentially
//! consistent execution of that schedule, so any invariant that holds for
//! every enumerated schedule holds for every SC execution of the two
//! threads — which is what the linearizability tests in
//! `tests/linearize.rs` assert for the loader channels and the pool's slot
//! protocol.

/// One schedule: `true` = next step of thread A, `false` = thread B.
pub type Schedule = Vec<bool>;

/// All interleavings of `a` A-steps and `b` B-steps, in lexicographic
/// order (A-first). `C(a+b, a)` schedules — keep step counts small.
pub fn all_interleavings(a: usize, b: usize) -> Vec<Schedule> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(a + b);
    fn rec(a: usize, b: usize, cur: &mut Schedule, out: &mut Vec<Schedule>) {
        if a == 0 && b == 0 {
            out.push(cur.clone());
            return;
        }
        if a > 0 {
            cur.push(true);
            rec(a - 1, b, cur, out);
            cur.pop();
        }
        if b > 0 {
            cur.push(false);
            rec(a, b - 1, cur, out);
            cur.pop();
        }
    }
    rec(a, b, &mut cur, &mut out);
    out
}

/// Runs every interleaving of two step lists and checks an invariant.
///
/// For each schedule: `init` builds fresh shared state, the steps run in
/// schedule order, then `check` receives the final state plus the schedule
/// (for the panic message). `step_a`/`step_b` receive the state and the
/// 0-based index of the step within their thread.
///
/// Panics (via the caller's `check`) identify the exact schedule that broke
/// the invariant, rendered as e.g. `AABAB`.
pub fn explore<S>(
    a_steps: usize,
    b_steps: usize,
    mut init: impl FnMut() -> S,
    mut step_a: impl FnMut(&mut S, usize),
    mut step_b: impl FnMut(&mut S, usize),
    mut check: impl FnMut(&S, &str),
) -> usize {
    let schedules = all_interleavings(a_steps, b_steps);
    let n = schedules.len();
    for schedule in schedules {
        let mut state = init();
        let (mut ia, mut ib) = (0usize, 0usize);
        for &is_a in &schedule {
            if is_a {
                step_a(&mut state, ia);
                ia += 1;
            } else {
                step_b(&mut state, ib);
                ib += 1;
            }
        }
        let rendered: String = schedule
            .iter()
            .map(|&s| if s { 'A' } else { 'B' })
            .collect();
        check(&state, &rendered);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaving_counts_are_binomial() {
        assert_eq!(all_interleavings(0, 0).len(), 1);
        assert_eq!(all_interleavings(1, 1).len(), 2);
        assert_eq!(all_interleavings(2, 2).len(), 6);
        assert_eq!(all_interleavings(3, 3).len(), 20);
        assert_eq!(all_interleavings(4, 3).len(), 35);
    }

    #[test]
    fn each_schedule_preserves_per_thread_order() {
        for s in all_interleavings(3, 2) {
            assert_eq!(s.iter().filter(|&&x| x).count(), 3);
            assert_eq!(s.len(), 5);
        }
        // Lexicographic: first schedule is AAABB, last is BBAAA.
        let all = all_interleavings(3, 2);
        assert_eq!(all[0], vec![true, true, true, false, false]);
        assert_eq!(all[all.len() - 1], vec![false, false, true, true, true]);
    }

    #[test]
    fn explore_visits_every_schedule_with_fresh_state() {
        let mut seen = Vec::new();
        let n = explore(
            2,
            1,
            Vec::new,
            |s: &mut Vec<char>, _| s.push('a'),
            |s: &mut Vec<char>, _| s.push('b'),
            |s, sched| seen.push((s.clone(), sched.to_string())),
        );
        assert_eq!(n, 3);
        let orders: Vec<String> = seen.iter().map(|(s, _)| s.iter().collect()).collect();
        assert_eq!(orders, vec!["aab", "aba", "baa"]);
        // State was fresh per schedule: each run has exactly 3 chars.
        assert!(seen.iter().all(|(s, _)| s.len() == 3));
    }

    #[test]
    fn explore_finds_a_seeded_atomicity_bug() {
        // A classic lost update: both "threads" do read-modify-write in two
        // separate steps. Some interleaving must lose one increment.
        struct S {
            shared: i32,
            tmp_a: i32,
            tmp_b: i32,
        }
        let mut lost = 0;
        explore(
            2,
            2,
            || S {
                shared: 0,
                tmp_a: 0,
                tmp_b: 0,
            },
            |s, i| match i {
                0 => s.tmp_a = s.shared,
                _ => s.shared = s.tmp_a + 1,
            },
            |s, i| match i {
                0 => s.tmp_b = s.shared,
                _ => s.shared = s.tmp_b + 1,
            },
            |s, _| {
                if s.shared != 2 {
                    lost += 1;
                }
            },
        );
        assert!(lost > 0, "exhaustive exploration must hit the lost update");
    }
}
