//! What a warm engine epoch allocates per batch, and where it comes from:
//! the per-epoch churn a persistent per-rank process would remove (ROADMAP
//! item 2(b)).
//!
//! A counting global allocator counts every allocation of the process, so
//! this binary holds a single test: no other test's allocations share the
//! count. The epoch's total is measured; its named sources are measured one
//! by one, in isolation, at the epoch's own sizes:
//!
//! * thread spawns: each rank's scoped thread and its loader's named
//!   sampler threads, spawned and joined;
//! * kernel buffers: the per-thread pack and transposed-weight buffers
//!   each fresh rank thread grows in its first step;
//! * `params` and `opt` clones: each rank's copy of the master parameters
//!   and optimizer state;
//! * the channels: the loader's bounded channels, one per worker, made
//!   once per epoch and used once per batch;
//! * four kinds of storage a rank keeps across epochs, which grow for a
//!   batch larger than any they carried — each counted over a second pass
//!   of batches after a first one warmed it, as a warm epoch follows
//!   another ([`growth`]):
//!   * the sampler scratch and the batch arenas: each loader worker's
//!     `SamplerScratch`, parked in the rank's `InputRing` when the worker
//!     exits and taken by the next epoch's worker, and the arenas the
//!     workers sample into, which cross the channels and come back to the
//!     ring (`2·n_samp + 1` in flight per rank);
//!   * the carried cascades: the needed-row cascade and the per-layer
//!     transposes a loader worker builds into the storage its ring recycles
//!     (`2·n_samp + 1` sets in flight per rank);
//!   * the ring's operand buffers: the aggregation (and GraphSAGE's self
//!     rows) `PreparedInput::prepare_for_training` takes from the
//!     `InputRing` and the step puts back;
//!   * the step: a warm model's `train_step_prepared`, whose workspace
//!     takes its buffers best-fit.
//!
//! What is left is per-epoch setup (the seed split, the loader, the span
//! rings, the core plan) and whatever no source above names. The test
//! prints the table (`--nocapture`) and pins no count:
//! the total is not reproducible — twenty runs of this binary gave two or
//! three different totals for each row, a few allocations apart, as the
//! ranks' and loaders' threads interleave differently — and consecutive
//! warm epochs draw different batches (the seed split depends on the
//! epoch), so a buffer may grow in any of them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use argo::engine::{Config, Engine, EngineOptions};
use argo::graph::datasets::FLICKR;
use argo::nn::{AnyOptimizer, Arch, Gnn};
use argo::rt::{SeedSequence, WorkerRing};
use argo::sample::{
    Cascade, InputRing, NeighborSampler, PreparedInput, SampleRun, Sampler, SamplerScratch,
    ShadowSampler,
};
use argo::tensor::Matrix;

/// Counts every `alloc` (`alloc_zeroed` included, through the default
/// method) and `realloc` of the process, then defers to the system
/// allocator.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the count beside it is one atomic add.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract (non-zero size).
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract on `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations the process makes while `f` runs, and what `f` returned.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.load(Ordering::SeqCst);
    let out = f();
    (ALLOCS.load(Ordering::SeqCst) - before, out)
}

#[test]
fn warm_epoch_allocations_per_batch_by_source() {
    argo::rt::watchdog(300, || {
        let d = Arc::new(FLICKR.synthesize(0.05, 3));
        let tasks: [(&str, Arch, Arc<dyn Sampler>); 2] = [
            (
                "SAGE/Neighbor",
                Arch::Sage,
                Arc::new(NeighborSampler::new(vec![15, 10])),
            ),
            (
                "GCN/ShaDow",
                Arch::Gcn,
                Arc::new(ShadowSampler::new(vec![10, 5], 3)),
            ),
        ];
        println!(
            "warm epoch allocations per batch: total = spawns + kernel buffers + params/opt + \
             channels + scratch + cascades + operands + step + rest"
        );
        for (name, kind, sampler) in tasks {
            for config in [Config::new(1, 1, 1), Config::new(2, 1, 1)] {
                let opts = EngineOptions {
                    kind,
                    hidden: 64,
                    num_layers: sampler.num_layers(),
                    global_batch: 128,
                    seed: 1,
                    total_cores: 4,
                    ..Default::default()
                };
                let mut e = Engine::new(Arc::clone(&d), Arc::clone(&sampler), opts);
                e.train_epoch(config, None);
                let (total, stats) = allocs_in(|| e.train_epoch(config, None));
                let sources = sources(&e, config, stats.minibatches);
                let rest = total as i64 - sources.iter().sum::<usize>() as i64;
                let per = |n: f64| n / stats.minibatches as f64;
                let named: Vec<String> = sources
                    .iter()
                    .map(|&n| format!("{:.1}", per(n as f64)))
                    .collect();
                println!(
                    "  {name} {config:?}: {} batches, {:.1} = {} + {:.1}",
                    stats.minibatches,
                    per(total as f64),
                    named.join(" + "),
                    per(rest as f64),
                );
                assert!(total > 0 && stats.minibatches > 0);
            }
        }
    });
}

/// The named sources' allocations in one epoch of `e` under `config`
/// (`batches` of them over all ranks): thread spawns, the fresh rank
/// threads' kernel buffers, `params`/`opt` clones, the channels, and the
/// growth of the sampler scratch and arenas, the carried cascades, the
/// ring's operand buffers and the step.
fn sources(e: &Engine, config: Config, batches: usize) -> [usize; 8] {
    let (d, sampler, opts) = (e.dataset(), e.sampler(), e.options());
    let (n_proc, n_samp) = (config.n_proc, config.n_samp);
    let local = (opts.global_batch / n_proc).max(1);
    let seeds: Vec<u32> = d.train_nodes[..local].to_vec();
    let mut scratch = SamplerScratch::new();
    let run =
        SampleRun::new(SeedSequence::new(1), &mut scratch).with_norm(opts.kind.normalization());
    let view = sampler.sample_into(&d.graph, &seeds, run);

    let spawns = allocs_in(|| {
        std::thread::scope(|s| {
            for _ in 0..n_proc {
                s.spawn(|| {
                    for w in 0..n_samp {
                        let worker = std::thread::Builder::new().name(format!("argo-sampler-{w}"));
                        worker.spawn(|| ()).unwrap().join().unwrap();
                    }
                });
            }
        })
    })
    .0;

    // A warm model's step, on a warm thread and then on a fresh one.
    let (ring, spans) = (InputRing::new(), WorkerRing::detached());
    let depth = opts.num_layers;
    let input = PreparedInput::prepare_for_training(&view, &d.features, depth, &ring, &spans, 0);
    let mut m: Gnn = e.model();
    m.train_step_prepared(&view, &input, &d.labels, None);
    let kernel_buffers = n_proc
        * std::thread::scope(|s| {
            s.spawn(|| allocs_in(|| m.train_step_prepared(&view, &input, &d.labels, None)).0)
                .join()
                .unwrap()
        });

    let opt = AnyOptimizer::build(opts.optimizer, e.params().len(), opts.lr);
    let clones = n_proc * allocs_in(|| (e.params().to_vec(), opt.clone())).0;

    let channels = n_proc
        * allocs_in(|| {
            let channels: Vec<_> = (0..n_samp)
                .map(|_| crossbeam::channel::bounded::<usize>(1))
                .collect();
            for i in 0..batches / n_proc {
                let (tx, rx) = &channels[i % n_samp];
                tx.send(i).unwrap();
                rx.recv().unwrap();
            }
        })
        .0;
    let [scratch, cascades, operands, step] =
        growth(e, config, batches / n_proc).map(|n| n_proc * n);
    [
        spawns,
        kernel_buffers,
        clones,
        channels,
        scratch,
        cascades,
        operands,
        step,
    ]
}

/// What one rank's growing storage allocates over `per_rank` batches, by
/// owner: `[scratch, cascades, operands, step]`. A first pass over the
/// batches runs on cold storage; a second, over batches drawn from other
/// streams, runs warm.
///
/// * Scratch: `2·n_samp + 1` `SamplerScratch`es, as many as the batch
///   arenas the rank's ring holds in flight, take the batches in turn — a
///   batch arena is reachable only inside a scratch, so each stands for one
///   arena and, warm, for a worker's scratch too.
/// * Cascades: `2·n_samp + 1` of them, as many as the rank's ring holds in
///   flight, take the batches in turn and build each one's cascade and
///   transposes, as `PreparedInput::prepare_for_training` does.
/// * Operands: an `InputRing` hands out each batch's operands at the
///   prologue's sizes (the self rows when the cascade keeps them, then the
///   aggregation) and, once `2·n_samp + 1` sets are in flight, gets the
///   oldest back in `PreparedInput::recycle`'s order.
/// * Step: a warm model's `train_step_prepared` on the batch, on this
///   thread: its workspace's best-fit takes (and the thread's kernel
///   buffers, which a rank thread grows the same way).
fn growth(e: &Engine, config: Config, per_rank: usize) -> [usize; 4] {
    let (d, sampler, opts) = (e.dataset(), e.sampler(), e.options());
    let local = (opts.global_batch / config.n_proc).max(1);
    let in_flight = 2 * config.n_samp + 1;
    let mut cascades: Vec<Cascade> = (0..in_flight).map(|_| Cascade::default()).collect();
    let ring = InputRing::new();
    let mut sets: VecDeque<(Matrix, Option<Matrix>)> = VecDeque::with_capacity(in_flight);
    let (step_ring, spans) = (InputRing::new(), WorkerRing::detached());
    let mut model: Gnn = e.model();
    let mut scratches: Vec<SamplerScratch> =
        (0..in_flight).map(|_| SamplerScratch::new()).collect();
    let mut counted = [0; 4];
    for pass in 0..2u64 {
        for i in 0..per_rank {
            let lo = (i * local) % d.train_nodes.len();
            let seeds = &d.train_nodes[lo..(lo + local).min(d.train_nodes.len())];
            let stream = SeedSequence::new(pass << 32 | i as u64);
            let scratch = &mut scratches[i % in_flight];
            let run = SampleRun::new(stream, scratch).with_norm(opts.kind.normalization());
            let (in_scratch, view) = allocs_in(|| sampler.sample_into(&d.graph, seeds, run));

            let cascade = &mut cascades[i % in_flight];
            let (in_cascade, ()) = allocs_in(|| {
                cascade.for_view(opts.num_layers, &view);
                cascade.transpose_layers(|l| view.layer_adj(l));
            });

            let rows = cascade.layer(0, view.layer_adj(0)).0.rows();
            let keeps_self_rows = cascade.keeps_self_rows();
            let (in_operands, ()) = allocs_in(|| {
                if sets.len() == in_flight {
                    let (agg, self_rows) = sets.pop_front().unwrap();
                    ring.put(agg);
                    if let Some(self_rows) = self_rows {
                        ring.put(self_rows);
                    }
                }
                let self_rows = keeps_self_rows.then(|| ring.take(rows, d.feat_dim()));
                sets.push_back((ring.take(rows, d.feat_dim()), self_rows));
            });

            let depth = opts.num_layers;
            let input = PreparedInput::prepare_for_training(
                &view,
                &d.features,
                depth,
                &step_ring,
                &spans,
                0,
            );
            let (in_step, _) =
                allocs_in(|| model.train_step_prepared(&view, &input, &d.labels, None));
            input.recycle(&step_ring);

            if pass == 1 {
                let owners = [in_scratch, in_cascade, in_operands, in_step];
                for (c, n) in counted.iter_mut().zip(owners) {
                    *c += n;
                }
            }
        }
    }
    counted
}
