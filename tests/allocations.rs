//! The process's one allocation instrument: a counting global allocator,
//! and the warm hot paths pinned with it.
//!
//! Every allocation (and reallocation) is counted on the thread that makes
//! it, so a pin measures exactly the calls it makes on its own thread while
//! the harness runs other tests on theirs. Each pin makes one warm-up call,
//! then counts a second, identical one: a warm training step, sampler call,
//! prologue or dispatch kernel allocates nothing. Kernels run with
//! `pool = None`; a pool's workers allocate on their own threads.
//!
//! The loader's workers allocate on their own threads too, so its pin reads
//! a second, process-wide count, and runs alone: it holds [`EXCLUSIVE`] for
//! writing, every other pin for reading.
//!
//! Run it alone with `cargo test -q --test allocations` (and with
//! `ARGO_SIMD=off` for the scalar tier).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

use argo::graph::datasets::{Dataset, FLICKR};
use argo::graph::{generators::power_law, Features};
use argo::nn::{Arch, Gnn};
use argo::rt::{SeedSequence, WorkerRing};
use argo::sample::{
    InputRing, LoaderSpec, NeighborSampler, Normalization, PipelinedLoader, PreparedInput,
    SampleRun, Sampler, SamplerScratch, ShadowSampler,
};
use argo::tensor::{DispatchPolicy, Epilogue, Matrix, SparseMatrix};
use argo_serve::clock::ManualClock;
use argo_serve::{ServeSession, ServeSpec};

/// Counts every `alloc`, `alloc_zeroed` (through the default method, which
/// calls `alloc`) and `realloc` on the calling thread, then defers to the
/// system allocator.
struct Counting;

thread_local! {
    /// This thread's allocations so far. A `const` `Cell` of a `Copy` type:
    /// reading or bumping it neither allocates nor registers a destructor,
    /// so the allocator can use it from inside an allocation.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Every thread's allocations so far.
static ALL: AtomicUsize = AtomicUsize::new(0);

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
    ALL.fetch_add(1, Ordering::Relaxed);
}

/// Held for reading by every pin that counts its own thread, and for
/// writing by the one that counts the whole process, which so runs alone.
static EXCLUSIVE: RwLock<()> = RwLock::new(());

/// A pin of this thread's allocations: it may run beside the others.
fn shared() -> RwLockReadGuard<'static, ()> {
    EXCLUSIVE.read().unwrap_or_else(PoisonError::into_inner)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the count beside it touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract (non-zero size).
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract on `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs_in(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Allocations of the second of two calls of `f`: a warm call.
fn warm_allocs(mut f: impl FnMut()) -> usize {
    f();
    allocs_in(f)
}

fn dataset() -> Dataset {
    FLICKR.synthesize(0.02, 7)
}

fn seeds(d: &Dataset) -> Vec<u32> {
    d.train_nodes.iter().copied().take(128).collect()
}

/// The two paper tasks: Neighbor[15,10] + 2-layer SAGE (mean-normalized
/// blocks) and ShaDow[10,5] + 3-layer GCN (a GCN-normalized subgraph).
fn tasks() -> [(Arch, Box<dyn Sampler>, usize); 2] {
    [
        (Arch::Sage, Box::new(NeighborSampler::new(vec![15, 10])), 2),
        (Arch::Gcn, Box::new(ShadowSampler::new(vec![10, 5], 3)), 3),
    ]
}

fn run<'a>(arch: Arch, scratch: &'a mut SamplerScratch) -> SampleRun<'a> {
    SampleRun::new(SeedSequence::new(5), scratch).with_norm(arch.normalization())
}

/// A warm sampler call, and a warm prologue over its view: serving's
/// `prepare` (layer-0 operands and the cascade — for ShaDow[10,5]×3 a
/// three-layer cascade), the loader's transpose build alone, and the
/// loader's `prepare_for_training`, which runs both. The ring hands back
/// the operand buffers and the cascade a call retired.
#[test]
fn warm_sampling_and_prologue_allocate_nothing() {
    let _shared = shared();
    let d = dataset();
    let seeds = seeds(&d);
    let (ring, spans) = (InputRing::new(), WorkerRing::detached());
    for (arch, sampler, depth) in tasks() {
        let name = sampler.name();
        let mut scratch = SamplerScratch::new();
        let sample = warm_allocs(|| {
            sampler.sample_into(&d.graph, &seeds, run(arch, &mut scratch));
        });
        assert_eq!(sample, 0, "{name}: sample_into");
        let view = sampler.sample_into(&d.graph, &seeds, run(arch, &mut scratch));
        let prepare = warm_allocs(|| {
            PreparedInput::prepare(&view, &d.features, depth, &ring, &spans, 0).recycle(&ring);
        });
        assert_eq!(prepare, 0, "{name}: PreparedInput::prepare");
        let mut input = PreparedInput::prepare(&view, &d.features, depth, &ring, &spans, 0);
        if name == "ShaDow" {
            assert!(input.cascade.first() < depth, "{name}: the cascade cuts");
        }
        let transposes = warm_allocs(|| input.cascade.transpose_layers(|l| view.layer_adj(l)));
        assert_eq!(transposes, 0, "{name}: Cascade::transpose_layers");
        input.recycle(&ring);
        let training = warm_allocs(|| {
            PreparedInput::prepare_for_training(&view, &d.features, depth, &ring, &spans, 0)
                .recycle(&ring);
        });
        assert_eq!(training, 0, "{name}: PreparedInput::prepare_for_training");
    }
}

/// A warm step over a batch it has not seen: the warm-up step runs over one
/// copy of the batch and the counted step over another — for the prepared
/// step, the same batch sampled into a second scratch's arena — as each step
/// of an epoch receives a batch of its own from the loader. The step starts from
/// what the loader prepared, as the engine's does, or from the gathered
/// rows: `train_step_gathered` and `forward_gathered_view` build the
/// cascade and layer 0's operands in the model's own ring, so a warm call
/// through them allocates nothing either.
#[test]
fn warm_training_step_allocates_nothing() {
    let _shared = shared();
    let d = dataset();
    for (arch, sampler, depth) in tasks() {
        let (mut scratch, mut other) = (SamplerScratch::new(), SamplerScratch::new());
        let view = sampler.sample_into(&d.graph, &seeds(&d), run(arch, &mut scratch));
        let other = sampler.sample_into(&d.graph, &seeds(&d), run(arch, &mut other));
        let (ring, spans) = (InputRing::new(), WorkerRing::detached());
        let input =
            PreparedInput::prepare_for_training(&view, &d.features, depth, &ring, &spans, 0);
        let batch = view.to_owned();
        let ids = view.input_nodes();
        let mut rows = Matrix::zeros(ids.len(), d.feat_dim());
        d.features.gather_into(ids, rows.data_mut());
        for policy in [
            DispatchPolicy::default(),
            DispatchPolicy::default().force_scalar(),
        ] {
            let who = format!(
                "{arch:?}-{depth} over {}, simd {}",
                sampler.name(),
                policy.simd_enabled()
            );
            let mut m = Gnn::new(arch, d.feat_dim(), 128, d.num_classes, depth, 3);
            m = m.with_dispatch(policy);
            m.train_step_prepared(&view, &input, &d.labels, None);
            let step = allocs_in(|| {
                m.train_step_prepared(&other, &input, &d.labels, None);
            });
            assert_eq!(step, 0, "{who}: train_step_prepared");
            m.train_step_gathered(&batch.clone(), &rows, &d.labels, None);
            let next = batch.clone();
            let step = allocs_in(|| {
                m.train_step_gathered(&next, &rows, &d.labels, None);
            });
            assert_eq!(step, 0, "{who}: train_step_gathered");
            let forward = warm_allocs(|| {
                m.forward_gathered_view(&view, &rows, None);
            });
            assert_eq!(forward, 0, "{who}: forward_gathered_view");
        }
    }
}

/// The dispatch kernels the step calls, on a thread of their own so that
/// its per-thread kernel buffers (packed panels, the transpose) start
/// empty: a call at a shape no larger than one already run allocates
/// nothing, and a larger shape allocates on its first call only.
#[test]
fn dispatch_kernels_grow_once_then_allocate_nothing() {
    let _shared = shared();
    std::thread::spawn(|| {
        for policy in [
            DispatchPolicy::default(),
            DispatchPolicy::default().force_scalar(),
        ] {
            let tier = format!("simd {}", policy.simd_enabled());
            // `kernels(n)` runs all five over `n` rows: GEMM and SAGE's
            // fused GEMM into a 128-wide layer, the weight gradient of both
            // halves, the input gradient and the transposed aggregation.
            let kernels = |n: usize, grows: &dyn Fn(&str, usize)| {
                let (h, agg) = (Matrix::xavier(n + 8, 64, 1), Matrix::xavier(n, 64, 2));
                let (w, stacked) = (Matrix::xavier(64, 128, 3), Matrix::xavier(128, 128, 4));
                let (grad, adj) = (Matrix::xavier(n, 128, 5), ring_adj(n));
                let dgrad = Matrix::xavier(n, 64, 6);
                let mut out = Matrix::zeros(n, 128);
                let mut dw = Matrix::zeros(128, 128);
                let mut dx = Matrix::zeros(n, 64);
                let mut dh = Matrix::zeros(n + 8, 64);
                let bias = vec![0.1; 128];
                grows(
                    "gemm_into",
                    allocs_in(|| policy.gemm_into(&agg, &w, Epilogue::none(), None, &mut out)),
                );
                grows(
                    "sage_gemm_into",
                    allocs_in(|| {
                        let epi = Epilogue::bias_relu(&bias);
                        policy.sage_gemm_into(&h, &agg, &stacked, epi, None, &mut out);
                    }),
                );
                grows(
                    "grad_weights_into",
                    allocs_in(|| policy.grad_weights_into(&[&h, &agg], &grad, None, &mut dw)),
                );
                grows(
                    "grad_input_into",
                    allocs_in(|| policy.grad_input_into(&grad, &stacked, 64..128, None, &mut dx)),
                );
                grows(
                    "aggregate_transpose_into",
                    allocs_in(|| policy.aggregate_transpose_into(&adj, &dgrad, None, &mut dh)),
                );
            };
            kernels(200, &|_, _| {});
            for n in [200, 150, 1] {
                kernels(n, &|kernel: &str, allocs| {
                    assert_eq!(allocs, 0, "{kernel} at {n} rows after 200, {tier}");
                });
            }
            // The transpose's arrays grow once at the larger shape; so does
            // the pack buffer of the SIMD tier's packing kernels.
            kernels(400, &|kernel: &str, allocs| {
                assert!(allocs <= 3, "{kernel}: {allocs} at 400 rows, {tier}");
            });
            kernels(400, &|kernel: &str, allocs| {
                assert_eq!(allocs, 0, "{kernel} at 400 rows again, {tier}");
            });
        }
    })
    .join()
    .unwrap();
}

/// An `n × (n + 8)` adjacency: row `i` names columns `i`, `i + 3` and
/// `i + 8`, with values.
fn ring_adj(n: usize) -> SparseMatrix {
    let indptr = (0..=n as u32).map(|i| 3 * i).collect();
    let indices = (0..n as u32).flat_map(|i| [i, i + 3, i + 8]).collect();
    let values = (0..3 * n).map(|k| 0.5 + k as f32 * 1e-3).collect();
    SparseMatrix::new(n, n + 8, indptr, indices, Some(values))
}

/// What a computed serve query allocates once warm (deadline 0, no result
/// cache), each counted once:
///
/// 1. the admitted request's micro-batch: `MicroBatcher` flushes it as a
///    `Vec` of its own;
/// 2. the `Vec` of responses [`ServeSession::submit`] returns;
/// 3. the logits, which leave the model in the response;
/// 4. their `Arc` (shared with the result cache, when one is on).
const SERVE_QUERY_ALLOCS: usize = 4;

#[test]
fn warm_serve_query_allocates_only_its_response() {
    let _shared = shared();
    let d = Arc::new(dataset());
    for (arch, sampler, depth) in tasks() {
        let sampler: Arc<dyn Sampler> = Arc::from(sampler);
        let model = Gnn::new(arch, d.feat_dim(), 128, d.num_classes, depth, 3);
        let mut s: ServeSession = ServeSpec::builder(Arc::clone(&d), Arc::clone(&sampler), model)
            .deadline_us(0)
            .clock(Arc::new(ManualClock::new()))
            .start();
        let query = seeds(&d)[..8].to_vec();
        let mut submit = |seeds: Vec<u32>| {
            let done = s.submit(seeds, None).unwrap();
            assert!(matches!(done.completed[..], [Ok(_)]));
        };
        submit(query.clone());
        let seeds = query.clone();
        let allocs = allocs_in(|| submit(seeds));
        assert_eq!(allocs, SERVE_QUERY_ALLOCS, "{}", sampler.name());
    }
}

/// The instrument itself: an allocation and a reallocation count once
/// each, and freeing counts nothing.
#[test]
fn the_counter_counts_allocations_and_reallocations() {
    let _shared = shared();
    let mut v: Vec<u64> = Vec::with_capacity(1);
    assert_eq!(allocs_in(|| v.reserve(100)), 1);
    assert_eq!(allocs_in(|| drop(std::hint::black_box(vec![7u8; 64]))), 1);
    assert_eq!(allocs_in(|| drop(v)), 0);
}

/// Two warm loader epochs on one `InputRing`, of `N` and of `2N` batches,
/// make the same allocations, counted over every thread (the workers
/// allocate on theirs): each epoch's threads and channels, and nothing per
/// batch. A worker samples into an arena the consumer handed back, runs the
/// prologue into the ring's operand buffers and cascade, and sends the
/// arena; no batch is copied out of it. Every batch is the same 16 seeds
/// with every neighbour taken, so one epoch warms every arena and buffer;
/// each count is the least of three epochs, so neither a set made late (the
/// ring holds at most `2·n_samp + 1`) nor the harness's bookkeeping for a
/// test that just ended reaches the comparison.
#[test]
fn warm_loader_epochs_allocate_per_epoch_not_per_batch() {
    let _alone = EXCLUSIVE.write().unwrap_or_else(PoisonError::into_inner);
    argo::rt::watchdog(60, || {
        let g = Arc::new(power_law(500, 5000, 0.8, 1));
        let all = g.max_degree();
        let sampler: Arc<dyn Sampler> = Arc::new(NeighborSampler::new(vec![all, all]));
        let feats = Arc::new(Features::new(
            (0..500 * 8).map(|x| x as f32 * 0.01).collect(),
            8,
        ));
        let ring = InputRing::new();
        let spec = |batches: usize| {
            let seeds = Arc::new((0..batches).flat_map(|_| 0..16).collect::<Vec<u32>>());
            LoaderSpec::builder(Arc::clone(&g), Arc::clone(&sampler), seeds)
                .batch_size(16)
                .epoch_seeds(SeedSequence::new(3))
                .normalization(Normalization::Mean)
                .features(Arc::clone(&feats))
                .build()
        };
        let epoch = |spec| {
            let before = ALL.load(Ordering::SeqCst);
            for (_, batch) in PipelinedLoader::start_recycling(spec, ring.clone()) {
                batch.recycle(&ring);
            }
            ALL.load(Ordering::SeqCst) - before
        };
        const N: usize = 6;
        for _ in 0..2 {
            epoch(spec(2 * N));
        }
        let (mut short, mut long) = (usize::MAX, usize::MAX);
        for _ in 0..3 {
            let (n, two_n) = (spec(N), spec(2 * N));
            short = short.min(epoch(n));
            long = long.min(epoch(two_n));
        }
        assert_eq!(
            long,
            short,
            "{N} more batches allocated {} more times",
            long as i64 - short as i64
        );
    });
}
