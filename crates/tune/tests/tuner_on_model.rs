//! Integration: the auto-tuner against the modeled design-space surfaces —
//! verifies the paper's headline auto-tuning claims (Section VI-D) on the
//! same objective the benches use.

use argo_graph::datasets::{OGBN_PRODUCTS, REDDIT};
use argo_platform::{
    Library, ModelKind, PerfModel, SamplerKind, Setup, ICE_LAKE_8380H, SAPPHIRE_RAPIDS_6430L,
};
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
