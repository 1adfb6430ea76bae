//! Seeded input generation. Everything a workload feeds the program comes
//! from here and from `--seed`; the generator owns its own random stream so
//! that a change to the program's RNG cannot change the benchmark's inputs.

/// SplitMix64.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated by `salt` so that the query list, the
    /// arrival schedule and the tuner seeds of one run do not share draws.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// One query: `len` distinct node ids below `num_nodes`.
fn query(rng: &mut Rng, num_nodes: u32, len: usize) -> Vec<u32> {
    let mut q: Vec<u32> = Vec::with_capacity(len);
    while q.len() < len {
        let v = rng.below(u64::from(num_nodes)) as u32;
        if !q.contains(&v) {
            q.push(v);
        }
    }
    q
}

/// `count` pairwise distinct queries. Query `k` has `1 + k % max_seeds`
/// seeds, so every seed gives the same mix of query sizes (and, in a ranked
/// pool, the same size at every rank); only the node ids are drawn.
pub fn distinct_queries(
    rng: &mut Rng,
    count: usize,
    num_nodes: u32,
    max_seeds: usize,
) -> Vec<Vec<u32>> {
    let mut seen = std::collections::HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let q = query(rng, num_nodes, 1 + out.len() % max_seeds);
        if seen.insert(q.clone()) {
            out.push(q);
        }
    }
    out
}

/// `count` indices into a pool of `pool` items, item `k` drawn with
/// probability proportional to `1 / (k + 1)^exponent`.
pub fn zipf_indices(rng: &mut Rng, count: usize, pool: usize, exponent: f64) -> Vec<u32> {
    let mut cdf = Vec::with_capacity(pool);
    let mut acc = 0.0;
    for k in 0..pool {
        acc += 1.0 / ((k + 1) as f64).powf(exponent);
        cdf.push(acc);
    }
    (0..count)
        .map(|_| {
            let u = rng.unit() * acc;
            cdf.partition_point(|&c| c < u).min(pool - 1) as u32
        })
        .collect()
}

/// Arrival times in microseconds of a Poisson process at `rate_per_s`,
/// covering `duration_s` seconds.
pub fn exponential_schedule(rng: &mut Rng, rate_per_s: f64, duration_s: f64) -> Vec<u64> {
    let mut out = Vec::with_capacity((rate_per_s * duration_s * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -rng.unit().ln() / rate_per_s;
        if t >= duration_s {
            return out;
        }
        out.push((t * 1e6) as u64);
    }
}
