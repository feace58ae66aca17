//! Integration tests of the extension features: clock-skew analysis and
//! simultaneous wire sizing, cross-validated against Monte Carlo and the
//! deterministic Elmore evaluator.

use std::sync::Arc;
use varbuf::prelude::*;
use varbuf::rctree::elmore::{BufferValues, ElmoreEvaluator};
use varbuf::stats::mc::{sample_moments, MonteCarlo};

#[test]
fn pair_skew_form_matches_monte_carlo() {
    // Build a buffered clock-ish tree and compare the analytic skew form
    // between two sinks against brute-force Monte Carlo of the full
    // deterministic evaluator.
    let tree = generate_htree(&HTreeSpec::with_levels(5));
    let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
    let wid = optimize_statistical(&tree, &model, VariationMode::WithinDie, &Options::default())
        .expect("optimize");

    let arrivals =
        SkewAnalyzer::new(&tree, &model, VariationMode::WithinDie).arrivals(&wid.assignment);
    let sinks = arrivals.sinks();
    let (sink_a, sink_b) = (sinks[0].0, sinks[sinks.len() / 2].0);
    let skew_form = arrivals.pair_skew(sink_a, sink_b);

    // Monte Carlo: sample the buffers' sources, evaluate both arrivals.
    let mut used = std::collections::BTreeSet::new();
    let prepared: Vec<_> = wid
        .assignment
        .iter()
        .map(|&(node, ty)| {
            let loc = tree.node(node).location;
            let cap = model.buffer_cap_form(ty, node, loc, VariationMode::WithinDie);
            let delay = model.buffer_delay_form(ty, node, loc, VariationMode::WithinDie);
            used.extend(cap.term_ids().iter().copied());
            used.extend(delay.term_ids().iter().copied());
            (node, cap, delay, model.buffer_resistance(ty))
        })
        .collect();
    let mut mc = MonteCarlo::new(11, used.into_iter().collect());
    let eval = ElmoreEvaluator::new(&tree);
    let samples: Vec<f64> = (0..2000)
        .map(|_| {
            let s = mc.draw();
            let mut placed = varbuf::rctree::elmore::BufferAssignment::new();
            for (node, cap, delay, res) in &prepared {
                placed.insert(
                    *node,
                    BufferValues {
                        capacitance: s.eval(cap),
                        intrinsic_delay: s.eval(delay),
                        resistance: *res,
                    },
                );
            }
            let rep = eval.evaluate(&placed);
            let d = |id| {
                rep.sink_delays
                    .iter()
                    .find(|&&(sid, _)| sid == id)
                    .expect("sink")
                    .1
            };
            d(sink_a) - d(sink_b)
        })
        .collect();
    let (mc_mean, mc_var) = sample_moments(&samples);

    assert!(
        (skew_form.mean() - mc_mean).abs() < 0.5 + 0.02 * mc_mean.abs(),
        "skew mean: form {} vs MC {}",
        skew_form.mean(),
        mc_mean
    );
    let mc_sigma = mc_var.sqrt();
    assert!(
        (skew_form.std_dev() - mc_sigma).abs() < 0.15 * mc_sigma.max(0.5),
        "skew sigma: form {} vs MC {}",
        skew_form.std_dev(),
        mc_sigma
    );
}

#[test]
fn sized_design_matches_sized_elmore_at_nominal() {
    // The wire-sizing DP's claimed mean RAT must agree with the
    // deterministic Elmore evaluator once the widths and buffers are
    // applied — with the zero-variance model so the min-corrections
    // vanish.
    let tree = generate_benchmark(&BenchmarkSpec::random("ext-size", 24, 3)).subdivided(1000.0);
    let lib = BufferLibrary::default_65nm();
    let model = ProcessModel::new(
        tree.bounding_box(),
        SpatialKind::Homogeneous,
        VariationBudgets::zero(),
        lib.clone(),
    );
    let sizing = WireSizing::default_three();
    let sized = optimize_with_sizing(
        &tree,
        &model,
        VariationMode::WithinDie,
        Arc::new(TwoParam::default()),
        &sizing,
        &DpOptions::default(),
    )
    .expect("sized");

    let mut placed = varbuf::rctree::elmore::BufferAssignment::new();
    for &(node, ty) in &sized.assignment {
        let t = lib.get(ty);
        placed.insert(
            node,
            BufferValues {
                capacitance: t.capacitance,
                intrinsic_delay: t.intrinsic_delay,
                resistance: t.resistance,
            },
        );
    }
    let widths = sizing.edge_widths(&sized.wire_widths);
    let rep = ElmoreEvaluator::new(&tree).evaluate_sized(&placed, &widths);
    assert!(
        (rep.root_rat - sized.root_rat.mean()).abs() < 1e-6 * rep.root_rat.abs(),
        "Elmore {} vs DP {}",
        rep.root_rat,
        sized.root_rat.mean()
    );
}

#[test]
fn governed_wire_sizing_degrades_but_keeps_consistent_widths() {
    use std::sync::Arc;
    // Wire sizing triples the decision space, so a modest solution
    // budget forces degradation — and the degraded result's widths must
    // still index into the sizing table and re-evaluate consistently.
    let tree = generate_benchmark(&BenchmarkSpec::random("ext-gov", 40, 7)).subdivided(500.0);
    let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous);
    let sizing = WireSizing::default_three();
    let budget = Budget {
        soft_solutions: 12,
        hard_solutions: 48,
        ..Budget::unlimited()
    };
    let governed = optimize_governed_detailed(
        &tree,
        &model,
        VariationMode::WithinDie,
        fallback_cascade(Arc::new(TwoParam::new(0.9, 0.9))),
        &sizing,
        &DpOptions::default(),
        &budget,
        RunControls::default(),
    )
    .expect("governed sizing completes");
    assert!(governed.degradation.degraded());
    let r = &governed.result;
    assert!(r
        .wire_widths
        .iter()
        .all(|&(_, wi)| (wi as usize) < sizing.widths().len()));
    let ye = YieldEvaluator::new(&tree, &model, VariationMode::WithinDie);
    let rat = ye.rat_form_sized(&r.assignment, &sizing.edge_widths(&r.wire_widths));
    // Degradation may tighten epsilon-sparsification, so the DP's forms
    // can drift slightly from the exact re-evaluation — allow 0.1%.
    assert!(
        (rat.mean() - r.root_rat.mean()).abs() < 1e-3 * r.root_rat.mean().abs(),
        "evaluator {} vs degraded DP {}",
        rat.mean(),
        r.root_rat.mean()
    );
}

#[test]
fn skew_shared_variation_cancels() {
    // Two sinks sharing most of their path: pair skew sigma must be far
    // below either arrival's sigma (the correlation-aware payoff).
    let tree = generate_htree(&HTreeSpec::with_levels(6));
    let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
    let wid = optimize_statistical(&tree, &model, VariationMode::WithinDie, &Options::default())
        .expect("optimize");
    let arrivals =
        SkewAnalyzer::new(&tree, &model, VariationMode::WithinDie).arrivals(&wid.assignment);

    // Neighboring sinks in the arrival list share deep path prefixes.
    let (a, fa) = &arrivals.sinks()[0];
    let (b, fb) = &arrivals.sinks()[1];
    let pair = arrivals.pair_skew(*a, *b);
    let arrival_sigma = fa.std_dev().max(fb.std_dev());
    assert!(
        pair.std_dev() < 0.8 * arrival_sigma,
        "pair skew sigma {} should be well below arrival sigma {arrival_sigma}",
        pair.std_dev()
    );
}
