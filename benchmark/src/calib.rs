//! The host-speed reference: a fixed piece of work of the benchmark's own,
//! timed between the measured ops of a run, so that a slow spell of the host
//! can be divided out of them.
//!
//! This host shares its cores' execution units and caches with neighbours.
//! Their load comes in spells of seconds to minutes and slows everything that
//! is not a bare dependency chain by 15–40%, the program and this reference
//! alike: over a nine-minute series of training epochs with a reference
//! sample after each, the medians of 35-epoch stretches and of their
//! reference samples had a correlation of 0.96, and dividing one by the
//! other cut the spread between stretches from 0.12 to 0.03 (README.md has
//! this and the cases where it does less). The reference calls nothing of the
//! program under test, so no change to the program can move it.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// What one sample takes on the sizing host while it is calm. Times are
/// reported as if the host ran at this speed.
pub const NOMINAL_SAMPLE_S: f64 = 0.0215;

const ROW: usize = 64;
/// 16 MB of rows: four times the private L2, well inside the shared L3.
const TABLE_ROWS: usize = 64 * 1024;
/// The first 1 MB of the table stays in L2.
const NEAR_ROWS: usize = 4 * 1024;
/// The two gathers take about a quarter of a sample each, the chain half.
const FAR_GATHERS: usize = 192 * 1024;
const NEAR_GATHERS: usize = 480 * 1024;
const CHAIN_STEPS: u64 = 4_200_000;

pub struct Reference {
    table: Vec<f32>,
    state: u64,
}

impl Reference {
    pub fn new() -> Self {
        let mut r = Self {
            table: (0..TABLE_ROWS * ROW).map(|i| (i % 251) as f32).collect(),
            state: 0x9E37_79B9_7F4A_7C15,
        };
        // The first pass faults the table in.
        r.work();
        r
    }

    fn next(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    /// Random-row gather with accumulation, as feature gather and SpMM do:
    /// the kind of work the neighbours slow most.
    fn gather(&mut self, rows: usize, count: usize) -> f32 {
        let mut acc = [0.0f32; ROW];
        for _ in 0..count {
            let r = (self.next() % rows as u64) as usize;
            let row = &self.table[r * ROW..(r + 1) * ROW];
            for (a, b) in acc.iter_mut().zip(row) {
                *a += *b;
            }
        }
        acc.iter().sum()
    }

    /// A bare dependency chain, which the neighbours do not slow. The
    /// program's ops sit between the two kinds: over five-minute series,
    /// epoch and search times moved with the gather times to the power 0.5
    /// to 1.2, depending on the workload and the day, so the chain is half of
    /// a sample.
    fn chain() -> f64 {
        let mut x = black_box(1.000_001_f64);
        for i in 0..CHAIN_STEPS {
            x = x * 1.000_000_1 + (i & 1) as f64 * 1e-9;
        }
        x
    }

    fn work(&mut self) {
        black_box(self.gather(TABLE_ROWS, FAR_GATHERS));
        black_box(self.gather(NEAR_ROWS, NEAR_GATHERS));
        black_box(Self::chain());
    }

    /// Does the reference work once and returns the seconds it took. The
    /// table is read through first, untimed, so that the reading does not
    /// depend on what the program left in the caches.
    pub fn sample(&mut self) -> f64 {
        black_box(self.table.iter().step_by(16).sum::<f32>());
        let t0 = Instant::now();
        self.work();
        t0.elapsed().as_secs_f64()
    }
}

/// How much slower than nominal the host ran while `samples` were taken:
/// their median over [`NOMINAL_SAMPLE_S`].
pub fn host_factor(samples: &[f64]) -> f64 {
    median(samples) / NOMINAL_SAMPLE_S
}
