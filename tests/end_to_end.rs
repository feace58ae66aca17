//! Cross-crate integration tests: the full pipeline from benchmark
//! generation through optimization to yield analysis and Monte Carlo
//! validation, exercised through the public facade.

use std::sync::Arc;
use std::time::Duration;
use varbuf::core::det::assignment_with_nominal_values;
use varbuf::core::dp::{DpOptions, RootSelection};
use varbuf::prelude::*;
use varbuf::rctree::elmore::ElmoreEvaluator;
use varbuf::stats::mc::sample_moments;

fn small_setup(sinks: usize, seed: u64, kind: SpatialKind) -> (RoutingTree, ProcessModel) {
    let tree = generate_benchmark(&BenchmarkSpec::random("it", sinks, seed)).subdivided(500.0);
    let model = ProcessModel::paper_defaults(tree.bounding_box(), kind);
    (tree, model)
}

#[test]
fn full_pipeline_all_modes() {
    let (tree, model) = small_setup(48, 11, SpatialKind::Heterogeneous);
    let [nom, d2d, wid] =
        optimize_all_modes(&tree, &model, &Options::default()).expect("optimizations succeed");

    // Under the true silicon model, WID's 95%-yield RAT is the best of
    // the three (it optimizes exactly that criterion with full knowledge).
    let silicon = YieldEvaluator::new(&tree, &model, VariationMode::WithinDie);
    let scores: Vec<f64> = [&nom, &d2d, &wid]
        .iter()
        .map(|r| silicon.analyze(&r.assignment).rat_at_95_yield)
        .collect();
    assert!(
        scores[2] >= scores[0] - 1e-6 && scores[2] >= scores[1] - 1e-6,
        "WID {} must beat NOM {} and D2D {}",
        scores[2],
        scores[0],
        scores[1]
    );
}

#[test]
fn statistical_mean_is_consistent_with_deterministic_elmore() {
    // The WID-optimized design, stripped of variation, must evaluate via
    // plain Elmore to (almost) the mean the canonical propagation claims —
    // the only gap is the statistical-min correction, which is small and
    // always pushes the analytic mean DOWN (min is concave).
    let (tree, model) = small_setup(40, 3, SpatialKind::Homogeneous);
    let wid = optimize_statistical(&tree, &model, VariationMode::WithinDie, &Options::default())
        .expect("optimize");

    // Nominal Elmore of the same assignment, but with the systematic
    // within-die shift applied through the model's nominal evaluator.
    let silicon = YieldEvaluator::new(&tree, &model, VariationMode::WithinDie);
    let analytic = silicon.analyze(&wid.assignment);

    let mc = silicon.monte_carlo(&wid.assignment, 3000, 99);
    let (mc_mean, _) = sample_moments(&mc);
    let rel = (analytic.rat.mean() - mc_mean).abs() / mc_mean.abs();
    assert!(
        rel < 0.01,
        "analytic {} vs MC {}",
        analytic.rat.mean(),
        mc_mean
    );

    // And the pure-nominal (no shift) evaluation matches plain Elmore.
    let nom_eval = YieldEvaluator::new(&tree, &model, VariationMode::Nominal);
    let nominal_rat = nom_eval.rat_form(&wid.assignment);
    let elmore = ElmoreEvaluator::new(&tree).evaluate(
        &assignment_with_nominal_values(&wid.assignment, model.library())
            .expect("ids from this library"),
    );
    assert!(
        (nominal_rat.mean() - elmore.root_rat).abs() <= 1e-6 * elmore.root_rat.abs(),
        "canonical nominal {} vs Elmore {} (min-correction must vanish without variance)",
        nominal_rat.mean(),
        elmore.root_rat
    );
}

#[test]
fn pruning_rules_agree_on_tiny_nets() {
    // On a net small enough for the 4P cross-product, all rules land
    // within a few percent of each other.
    let tree = generate_benchmark(&BenchmarkSpec::random("tiny", 5, 2));
    let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
    let opts = DpOptions::default();
    let mut means = Vec::new();
    let rules: Vec<Arc<dyn PruningRule>> = vec![
        Arc::new(TwoParam::default()),
        Arc::new(OneParam::default()),
        Arc::new(FourParam::default()),
    ];
    for rule in &rules {
        let r = optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::clone(rule),
            &opts,
        )
        .expect("completes");
        means.push(r.root_rat.mean());
    }
    let spread = (means.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        - means.iter().copied().fold(f64::INFINITY, f64::min))
        / means[0].abs();
    assert!(spread < 0.05, "rules disagree: {means:?}");
}

#[test]
fn root_selection_criteria_trade_mean_for_sigma() {
    let (tree, model) = small_setup(64, 21, SpatialKind::Heterogeneous);
    let mean_sel = optimize_with_rule(
        &tree,
        &model,
        VariationMode::WithinDie,
        Arc::new(TwoParam::default()),
        &DpOptions {
            root_selection: RootSelection::MeanRat,
            ..DpOptions::default()
        },
    )
    .expect("mean");
    let yield_sel = optimize_with_rule(
        &tree,
        &model,
        VariationMode::WithinDie,
        Arc::new(TwoParam::default()),
        &DpOptions::default(),
    )
    .expect("yield");
    // By construction of the criteria:
    assert!(mean_sel.root_rat.mean() >= yield_sel.root_rat.mean() - 1e-9);
    let y = |r: &varbuf::core::dp::StatResult| {
        r.root_rat.mean() - 1.644_853_626_951_472_4 * r.root_rat.std_dev()
    };
    assert!(y(&yield_sel) >= y(&mean_sel) - 1e-9);
}

#[test]
fn io_roundtrip_preserves_optimization_results() {
    // Serialize the tree, read it back, and confirm the optimizer makes
    // identical decisions — guards against lossy IO.
    let (tree, model) = small_setup(32, 8, SpatialKind::Homogeneous);
    let mut buf = Vec::new();
    varbuf::rctree::io::write_tree(&tree, &mut buf).expect("write");
    let back = varbuf::rctree::io::read_tree(buf.as_slice()).expect("read");

    let a = optimize_statistical(&tree, &model, VariationMode::WithinDie, &Options::default())
        .expect("a");
    let model_b = ProcessModel::paper_defaults(back.bounding_box(), SpatialKind::Homogeneous);
    let b = optimize_statistical(
        &back,
        &model_b,
        VariationMode::WithinDie,
        &Options::default(),
    )
    .expect("b");
    assert_eq!(a.assignment.len(), b.assignment.len());
    assert!((a.root_rat.mean() - b.root_rat.mean()).abs() < 1e-9);
}

#[test]
fn htree_capacity_smoke() {
    // A 1024-sink H-tree completes quickly with flat per-node lists —
    // the miniature of the paper's 64k-sink capacity footnote (the full
    // size runs in the `capacity` experiment binary).
    let tree = generate_htree(&HTreeSpec::with_levels(10));
    let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
    let r = optimize_statistical(&tree, &model, VariationMode::WithinDie, &Options::default())
        .expect("completes");
    assert!(r.buffer_count() > 0);
    assert!(r.stats.max_solutions_per_node < 10_000);
}

#[test]
fn governed_facade_survives_budget_the_strict_engine_cannot() {
    // Through the public facade: a solution budget that makes strict 4P
    // abort is absorbed by the governed engine via rule fallback, and
    // the degraded design still scores sanely under the silicon model.
    let (tree, model) = small_setup(64, 17, SpatialKind::Heterogeneous);
    let four = RunRequest::new(
        &tree,
        &model,
        VariationMode::WithinDie,
        Arc::new(FourParam::default()),
    );
    let capped = RunRequest {
        budget: Budget::strict(150, Duration::MAX),
        strict: true,
        ..four.clone()
    };
    let strict = run(&capped, RunControls::default());
    assert!(strict.is_err(), "strict 4P must abort under this cap");

    let budget = Budget {
        soft_solutions: 150,
        hard_solutions: 600,
        ..Budget::unlimited()
    };
    let governed = run(&RunRequest { budget, ..four }, RunControls::default())
        .expect("governed run completes");
    assert!(governed.degradation.degraded());
    assert!(governed.degradation.rule_fallbacks() >= 1);

    // The degraded design is a real design: the silicon evaluator agrees
    // with the DP's claimed RAT and lands near a pure-2P design.
    let silicon = YieldEvaluator::new(&tree, &model, VariationMode::WithinDie);
    let rat = silicon.rat_form(&governed.result.assignment);
    assert!((rat.mean() - governed.result.root_rat.mean()).abs() < 1e-6 * rat.mean().abs());
    let pure = optimize_statistical(&tree, &model, VariationMode::WithinDie, &Options::default())
        .expect("2P");
    let rel =
        (governed.result.root_rat.mean() - pure.root_rat.mean()).abs() / pure.root_rat.mean().abs();
    assert!(
        rel < 0.02,
        "degraded 4P {} vs 2P {}",
        governed.result.root_rat.mean(),
        pure.root_rat.mean()
    );
}

#[test]
fn deterministic_results_are_reproducible() {
    let (tree, model) = small_setup(40, 5, SpatialKind::Heterogeneous);
    let a = optimize_statistical(&tree, &model, VariationMode::WithinDie, &Options::default())
        .expect("a");
    let b = optimize_statistical(&tree, &model, VariationMode::WithinDie, &Options::default())
        .expect("b");
    assert_eq!(a.assignment, b.assignment);
    assert_eq!(a.root_rat, b.root_rat);
}
