//! Do this host's cores overlap? An FMA loop and a random-row gather, alone and
//! as two concurrent copies: ratio ~1.0 = side by side, ~2.0 = taking turns.
#![allow(
    clippy::disallowed_methods,
    reason = "a wall-clock measurement of the host"
)]

use std::hint::black_box;
use std::time::Instant;

type Kernel<'a> = &'a (dyn Fn() -> f32 + Sync);

fn fma() -> f32 {
    (0..200_000_000).fold(1.0f32, |x, _| black_box(x).mul_add(1.000_000_1, 1e-9))
}

fn gather(table: &[f32], cols: usize) -> f32 {
    let pick = |i: usize| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    let row = |i: usize| pick(i) % (table.len() / cols) * cols;
    let sum = |i: usize| table[row(i)..row(i) + cols].iter().sum::<f32>();
    (0..4_000_000).map(sum).sum()
}

/// Median seconds over five runs of `copies` concurrent calls of `f`.
fn timed(copies: usize, f: Kernel) -> f64 {
    let run = |_| {
        let t = Instant::now();
        std::thread::scope(|s| (0..copies).for_each(|_| drop(s.spawn(|| black_box(f())))));
        t.elapsed().as_secs_f64()
    };
    let mut runs: Vec<f64> = (0..5).map(run).collect();
    runs.sort_by(f64::total_cmp);
    runs[2]
}

fn main() {
    let table = vec![1.0f32; 200_000 * 64];
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let gather = || gather(&table, 64);
    for (name, f) in [("fma", &fma as Kernel), ("gather", &gather)] {
        let (one, two) = (timed(1, f), timed(2, f));
        let ratio = two / one;
        println!("{name:<6} one {one:.3}s two {two:.3}s ratio {ratio:.2} ({cores} cores)");
    }
}
