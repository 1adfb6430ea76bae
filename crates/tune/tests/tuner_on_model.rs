//! Integration: the auto-tuner against the modeled design-space surfaces —
//! verifies the paper's headline auto-tuning claims (Section VI-D) on the
//! same objective the benches use.

use argo_graph::datasets::{OGBN_PRODUCTS, REDDIT};
use argo_platform::{
    Library, ModelKind, PerfModel, SamplerKind, Setup, ICE_LAKE_8380H, SAPPHIRE_RAPIDS_6430L,
};
use argo_tune::acquisition::Acquisition;
use argo_tune::{
    paper_num_searches, BayesOpt, OnlineAutoTuner, SearchSpace, Searcher, SimulatedAnnealing,
};

fn model(
    platform: argo_platform::PlatformSpec,
    sampler: SamplerKind,
    modelk: ModelKind,
) -> PerfModel {
    PerfModel::new(Setup {
        platform,
        library: Library::Dgl,
        sampler,
        model: modelk,
        dataset: OGBN_PRODUCTS,
    })
}

fn optimum(m: &PerfModel) -> f64 {
    m.argo_best_epoch_time(m.setup().platform.total_cores).1
}

/// Paper claim: the auto-tuner finds a configuration at least ~90% as fast
/// as the exhaustive optimum while exploring only 5–6% of the space.
#[test]
fn bayesopt_reaches_90_percent_of_optimal_with_paper_budget() {
    for (platform, sampler, modelk) in [
        (ICE_LAKE_8380H, SamplerKind::Neighbor, ModelKind::Sage),
        (ICE_LAKE_8380H, SamplerKind::Shadow, ModelKind::Gcn),
        (
            SAPPHIRE_RAPIDS_6430L,
            SamplerKind::Neighbor,
            ModelKind::Sage,
        ),
        (SAPPHIRE_RAPIDS_6430L, SamplerKind::Shadow, ModelKind::Gcn),
    ] {
        let m = model(platform, sampler, modelk);
        let opt = optimum(&m);
        let budget =
            paper_num_searches(platform.total_cores, matches!(sampler, SamplerKind::Shadow));
        let mut wins = 0;
        let runs = 5;
        for seed in 0..runs {
            let space = SearchSpace::for_cores(platform.total_cores);
            let tuner = OnlineAutoTuner::new(BayesOpt::new(space, seed), budget);
            let report = tuner.run(budget, |c, e| m.epoch_time(c) * e as f64, None);
            if opt / report.best_epoch_time >= 0.9 {
                wins += 1;
            }
        }
        assert!(
            wins >= runs - 1,
            "{}: only {wins}/{runs} runs reached 90% of optimal",
            m.setup().label()
        );
    }
}

/// The 35 trials of `BayesOpt::new(SearchSpace::for_cores(112), 0)` on DGL /
/// Ice Lake / Neighbor-SAGE / ogbn-products: `((n_proc, n_samp, n_train),
/// f64::to_bits(epoch_time))`. A change to the space, the GP or the model
/// that claims to leave posteriors and epoch times unchanged must leave this
/// sequence unchanged bit for bit.
const TRAJECTORY_ICELAKE_NEIGHBOR_SAGE: [((usize, usize, usize), u64); 35] = [
    ((7, 1, 8), 0x401be7874d5aed91),
    ((2, 3, 22), 0x401f2b13f600da3b),
    ((3, 2, 19), 0x401cb1caf98d04b2),
    ((7, 2, 5), 0x401d2d4a739b03be),
    ((5, 1, 1), 0x402a5ee6fa036f1e),
    ((8, 1, 8), 0x401bd8901dbfb07b),
    ((7, 1, 15), 0x401aea28687e6a89),
    ((8, 2, 12), 0x401b3a34ceb5de97),
    ((8, 3, 11), 0x401b56ff97434a92),
    ((8, 4, 1), 0x40250c849dad76bc),
    ((7, 2, 14), 0x401afed7569addb9),
    ((3, 2, 35), 0x401cb1caf98d04b2),
    ((6, 3, 15), 0x401af51576e450fd),
    ((2, 1, 55), 0x40335d114a8e5183),
    ((4, 3, 25), 0x401ae3a7b2cb8cc3),
    ((4, 2, 26), 0x401ad7fad1b9a068),
    ((4, 4, 24), 0x401af04da69ef77a),
    ((2, 4, 44), 0x401dddb53ab415a1),
    ((4, 4, 7), 0x401e053fc398f76d),
    ((5, 3, 19), 0x401ad6b855626a07),
    ((2, 4, 1), 0x403a25e7af24526a),
    ((5, 4, 14), 0x401b4905ca1a95bc),
    ((3, 3, 34), 0x401b8d5c3b1988c5),
    ((5, 3, 5), 0x401e7e8c0dc43135),
    ((2, 3, 53), 0x401da519113cc8c5),
    ((5, 2, 20), 0x401ac6b7bacdc011),
    ((2, 2, 26), 0x4024898752a149ec),
    ((3, 4, 33), 0x401b964609e62ac8),
    ((7, 3, 13), 0x401b16b4df809db5),
    ((4, 2, 16), 0x401b8e680e71ad6b),
    ((5, 4, 2), 0x40236b22620e990d),
    ((4, 4, 16), 0x401b8e680e71ad6b),
    ((4, 3, 15), 0x401bae06f0023835),
    ((6, 2, 16), 0x401adff839274612),
    ((5, 4, 18), 0x401ae8801d95d188),
];

/// The first 20 trials of `BayesOpt::new(SearchSpace::for_cores(64), 0)`
/// on DGL / Sapphire Rapids / Neighbor-SAGE / ogbn-products (the paper's
/// 20-search budget for that task), in the same form.
const TRAJECTORY_SAPPHIRE_NEIGHBOR_SAGE: [((usize, usize, usize), u64); 20] = [
    ((3, 1, 14), 0x4027f69648bdbe3a),
    ((7, 3, 4), 0x401b1daa984f5d43),
    ((4, 4, 9), 0x4019fca31af298aa),
    ((2, 1, 21), 0x40314f735dfbe22f),
    ((2, 1, 6), 0x40314f735dfbe22f),
    ((5, 4, 5), 0x401b63009475b0ac),
    ((5, 3, 8), 0x40198b64c161dd60),
    ((8, 1, 7), 0x40193f349b911d71),
    ((7, 2, 7), 0x40194cafcb70aee8),
    ((2, 4, 28), 0x401b3d9a8aca749d),
    ((3, 4, 17), 0x4019ab8265876cbf),
    ((6, 1, 9), 0x401a14a5ec3799c0),
    ((7, 1, 1), 0x4023ea43193310e4),
    ((8, 4, 4), 0x401ad16650c2dee3),
    ((4, 3, 13), 0x401914fbf26a67a2),
    ((5, 2, 10), 0x401903a8c6c72977),
    ((2, 4, 1), 0x40370433d48b67ee),
    ((4, 4, 12), 0x4019406b4a03f0d4),
    ((8, 2, 6), 0x40199894fcb89dc3),
    ((5, 4, 8), 0x40198b64c161dd60),
];

/// The first 20 trials of the Ice Lake task of
/// [`TRAJECTORY_ICELAKE_NEIGHBOR_SAGE`] under LCB (and, in the two constants
/// below, under PI and greedy-mean): the five warm-up trials are EI's, the
/// 15 surrogate-guided ones are each acquisition's own.
const TRAJECTORY_ICELAKE_LCB: [((usize, usize, usize), u64); 20] = [
    ((7, 1, 8), 0x401be7874d5aed91),
    ((2, 3, 22), 0x401f2b13f600da3b),
    ((3, 2, 19), 0x401cb1caf98d04b2),
    ((7, 2, 5), 0x401d2d4a739b03be),
    ((5, 1, 1), 0x402a5ee6fa036f1e),
    ((8, 1, 13), 0x401b21d7fda0aa9b),
    ((8, 1, 2), 0x4020e96f71717447),
    ((7, 1, 15), 0x401aea28687e6a89),
    ((8, 2, 12), 0x401b3a34ceb5de97),
    ((8, 3, 11), 0x401b56ff97434a92),
    ((7, 3, 3), 0x401fac11e21a1a9b),
    ((8, 4, 10), 0x401b798c87ecff58),
    ((7, 4, 1), 0x402637eb55a06d86),
    ((7, 2, 14), 0x401afed7569addb9),
    ((3, 2, 34), 0x401cb1caf98d04b2),
    ((3, 1, 32), 0x402ac45a440fc8cf),
    ((4, 3, 25), 0x401ae3a7b2cb8cc3),
    ((3, 3, 34), 0x401b8d5c3b1988c5),
    ((4, 3, 13), 0x401bfbdccc79b53a),
    ((5, 3, 19), 0x401ad6b855626a07),
];

const TRAJECTORY_ICELAKE_PI: [((usize, usize, usize), u64); 20] = [
    ((7, 1, 8), 0x401be7874d5aed91),
    ((2, 3, 22), 0x401f2b13f600da3b),
    ((3, 2, 19), 0x401cb1caf98d04b2),
    ((7, 2, 5), 0x401d2d4a739b03be),
    ((5, 1, 1), 0x402a5ee6fa036f1e),
    ((7, 1, 10), 0x401b7af0eb4590d7),
    ((7, 1, 13), 0x401b16b4df809db5),
    ((8, 1, 12), 0x401b3a34ceb5de97),
    ((8, 1, 7), 0x401c1c6e1b0d0a6f),
    ((8, 2, 12), 0x401b3a34ceb5de97),
    ((7, 1, 15), 0x401aea28687e6a89),
    ((8, 3, 11), 0x401b56ff97434a92),
    ((7, 3, 13), 0x401b16b4df809db5),
    ((7, 4, 12), 0x401b328ca9e1fdaf),
    ((8, 4, 10), 0x401b798c87ecff58),
    ((7, 4, 2), 0x40216e818a31e55c),
    ((7, 2, 14), 0x401afed7569addb9),
    ((6, 3, 15), 0x401af51576e450fd),
    ((5, 3, 19), 0x401ad6b855626a07),
    ((5, 4, 18), 0x401ae8801d95d188),
];

const TRAJECTORY_ICELAKE_GREEDY_MEAN: [((usize, usize, usize), u64); 20] = [
    ((7, 1, 8), 0x401be7874d5aed91),
    ((2, 3, 22), 0x401f2b13f600da3b),
    ((3, 2, 19), 0x401cb1caf98d04b2),
    ((7, 2, 5), 0x401d2d4a739b03be),
    ((5, 1, 1), 0x402a5ee6fa036f1e),
    ((7, 1, 9), 0x401bab33c187f2f0),
    ((7, 1, 10), 0x401b7af0eb4590d7),
    ((7, 1, 11), 0x401b53746a839daa),
    ((8, 1, 11), 0x401b56ff97434a92),
    ((7, 1, 14), 0x401afed7569addb9),
    ((7, 1, 15), 0x401aea28687e6a89),
    ((7, 1, 13), 0x401b16b4df809db5),
    ((7, 1, 12), 0x401b328ca9e1fdaf),
    ((8, 1, 13), 0x401b21d7fda0aa9b),
    ((8, 1, 12), 0x401b3a34ceb5de97),
    ((8, 1, 10), 0x401b798c87ecff58),
    ((8, 1, 9), 0x401ba3c70367152f),
    ((8, 1, 8), 0x401bd8901dbfb07b),
    ((8, 2, 12), 0x401b3a34ceb5de97),
    ((8, 2, 11), 0x401b56ff97434a92),
];

/// `trials` suggest/observe rounds of `BayesOpt::new(SearchSpace::for_cores(cores), 0)`
/// under `acquisition` on the noise-free surface of `m`: every suggestion
/// and the bits of every epoch time it observes.
fn trajectory(
    m: &PerfModel,
    cores: usize,
    acquisition: Acquisition,
    trials: usize,
) -> Vec<((usize, usize, usize), u64)> {
    let mut bo = BayesOpt::new(SearchSpace::for_cores(cores), 0).with_acquisition(acquisition);
    let mut out = Vec::with_capacity(trials);
    for _ in 0..trials {
        let c = bo.suggest();
        let v = m.epoch_time(c);
        out.push(((c.n_proc, c.n_samp, c.n_train), v.to_bits()));
        bo.observe(c, v);
    }
    out
}

/// The tuner's trajectory on the modeled objective is pinned bit for bit:
/// every suggestion and every epoch time it observes.
#[test]
fn bayesopt_trajectory_is_pinned_bitwise() {
    let m = model(ICE_LAKE_8380H, SamplerKind::Neighbor, ModelKind::Sage);
    let trials = trajectory(&m, 112, Acquisition::ExpectedImprovement, 35);
    assert_eq!(trials, TRAJECTORY_ICELAKE_NEIGHBOR_SAGE);
}

/// The same pin on the 64-core (362-configuration) space.
#[test]
fn bayesopt_trajectory_on_the_64_core_space_is_pinned_bitwise() {
    let m = model(
        SAPPHIRE_RAPIDS_6430L,
        SamplerKind::Neighbor,
        ModelKind::Sage,
    );
    let trials = trajectory(&m, 64, Acquisition::ExpectedImprovement, 20);
    assert_eq!(trials, TRAJECTORY_SAPPHIRE_NEIGHBOR_SAGE);
}

/// The same pin under LCB, PI and greedy-mean: every acquisition reads the
/// same posteriors.
#[test]
fn bayesopt_trajectory_under_every_acquisition_is_pinned_bitwise() {
    let m = model(ICE_LAKE_8380H, SamplerKind::Neighbor, ModelKind::Sage);
    for (acquisition, pinned) in [
        (Acquisition::LowerConfidenceBound, &TRAJECTORY_ICELAKE_LCB),
        (
            Acquisition::ProbabilityOfImprovement,
            &TRAJECTORY_ICELAKE_PI,
        ),
        (Acquisition::GreedyMean, &TRAJECTORY_ICELAKE_GREEDY_MEAN),
    ] {
        let trials = trajectory(&m, 112, acquisition, 20);
        assert_eq!(trials, pinned, "{}", acquisition.name());
    }
}

/// Paper claim: with the same number of searches, the auto-tuner outperforms
/// simulated annealing on average (Table IV discussion).
#[test]
fn bayesopt_beats_simulated_annealing_on_average() {
    let m = model(ICE_LAKE_8380H, SamplerKind::Neighbor, ModelKind::Sage);
    let budget = 35;
    let runs = 7;
    let mean = |mut f: Box<dyn FnMut(u64) -> f64>| -> f64 {
        (0..runs).map(&mut f).sum::<f64>() / runs as f64
    };
    let bo_mean = mean(Box::new(|seed| {
        let mut bo = BayesOpt::new(SearchSpace::for_cores(112), seed);
        for _ in 0..budget {
            let c = bo.suggest();
            bo.observe(c, m.epoch_time(c));
        }
        bo.best().unwrap().1
    }));
    let sa_mean = mean(Box::new(|seed| {
        let mut sa = SimulatedAnnealing::new(SearchSpace::for_cores(112), seed);
        for _ in 0..budget {
            let c = sa.suggest();
            sa.observe(c, m.epoch_time(c));
        }
        sa.best().unwrap().1
    }));
    assert!(
        bo_mean <= sa_mean * 1.02,
        "BayesOpt mean {bo_mean} should beat SA mean {sa_mean}"
    );
}

/// The tuner's own overhead must be a negligible fraction of training time
/// (paper: <1% of overall training; Section VI-D reports seconds on a
/// 200-epoch run).
#[test]
fn tuner_overhead_is_negligible() {
    let m = model(ICE_LAKE_8380H, SamplerKind::Neighbor, ModelKind::Sage);
    let space = SearchSpace::for_cores(112);
    let tuner = OnlineAutoTuner::new(BayesOpt::new(space, 0), 35);
    let report = tuner.run(200, |c, e| m.epoch_time(c) * e as f64, None);
    assert!(
        report.tuner_overhead < 0.01 * report.total_time,
        "overhead {} vs total {}",
        report.tuner_overhead,
        report.total_time
    );
}

/// End-to-end 200 epochs with auto-tuning (including the sub-optimal search
/// epochs) still beats 200 epochs at the default setup — the Figure 10
/// comparison.
#[test]
fn tuned_200_epochs_beat_default_200_epochs() {
    for (sampler, modelk, dataset) in [
        (SamplerKind::Neighbor, ModelKind::Sage, REDDIT),
        (SamplerKind::Shadow, ModelKind::Gcn, OGBN_PRODUCTS),
    ] {
        let m = PerfModel::new(Setup {
            platform: ICE_LAKE_8380H,
            library: Library::Dgl,
            sampler,
            model: modelk,
            dataset,
        });
        let budget = paper_num_searches(112, matches!(sampler, SamplerKind::Shadow));
        let tuner = OnlineAutoTuner::new(BayesOpt::new(SearchSpace::for_cores(112), 1), budget);
        let report = tuner.run(200, |c, e| m.epoch_time(c) * e as f64, None);
        let default_total = 200.0 * m.epoch_time(m.default_config());
        assert!(
            report.total_time < default_total,
            "{}: tuned {} !< default {}",
            m.setup().label(),
            report.total_time,
            default_total
        );
    }
}
