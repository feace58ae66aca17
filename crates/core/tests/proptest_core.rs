//! Property-style tests of the optimization core: DP optimality
//! invariants against the independent Elmore evaluator, pruning
//! soundness, and key-operation consistency. Cases are drawn from the
//! in-tree deterministic [`SplitMix64`] generator.

use std::sync::Arc;
use varbuf_core::det::{assignment_with_nominal_values, optimize_deterministic};
use varbuf_core::dp::{optimize_with_rule, DpOptions};
use varbuf_core::prune::{
    prune_solutions, prune_solutions_keyed, FourParam, MergeStrategy, OneParam, PruneScratch,
    PruningRule, TwoParam,
};
use varbuf_core::solution::StatSolution;
use varbuf_core::trace::Trace;
use varbuf_rctree::elmore::ElmoreEvaluator;
use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};
use varbuf_rctree::NodeId;
use varbuf_stats::rng::SplitMix64;
use varbuf_stats::{CanonicalForm, SourceId};
use varbuf_variation::{
    BufferLibrary, BufferTypeId, ProcessModel, SpatialKind, VariationBudgets, VariationMode,
};

const CASES: usize = 24;

/// Random (load, rat) pairs for synthetic pruning inputs.
fn load_rat_pairs(rng: &mut SplitMix64) -> Vec<(f64, f64)> {
    let n = 1 + rng.below(59);
    (0..n)
        .map(|_| (rng.uniform(0.0, 100.0), rng.uniform(-500.0, 0.0)))
        .collect()
}

#[test]
fn det_dp_is_exact_per_elmore() {
    let mut rng = SplitMix64::new(0xD0);
    for _ in 0..CASES {
        let sinks = 2 + rng.below(38);
        let seed = rng.next_u64() % 40;
        // The DP's claimed RAT must match an independent deterministic
        // Elmore evaluation of its own assignment.
        let tree = generate_benchmark(&BenchmarkSpec::random("pc", sinks, seed));
        let lib = BufferLibrary::default_65nm();
        let r = optimize_deterministic(&tree, &lib).expect("optimize");
        let rep = ElmoreEvaluator::new(&tree).evaluate(
            &assignment_with_nominal_values(&r.assignment, &lib).expect("ids from this library"),
        );
        assert!(
            (rep.root_rat - r.root_rat).abs() < 1e-6 * rep.root_rat.abs().max(1.0),
            "DP {} vs Elmore {}",
            r.root_rat,
            rep.root_rat
        );
        // And never lose to the unbuffered tree.
        let unbuf = ElmoreEvaluator::new(&tree).evaluate_unbuffered().root_rat;
        assert!(r.root_rat >= unbuf - 1e-9);
    }
}

#[test]
fn det_dp_beats_every_single_buffer_design() {
    let mut rng = SplitMix64::new(0xD1);
    for _ in 0..CASES {
        let sinks = 2 + rng.below(14);
        let seed = rng.next_u64() % 20;
        // The optimum dominates the entire one-buffer design family.
        let tree = generate_benchmark(&BenchmarkSpec::random("pc1", sinks, seed));
        let lib = BufferLibrary::single_65nm();
        let best = optimize_deterministic(&tree, &lib)
            .expect("optimize")
            .root_rat;
        let eval = ElmoreEvaluator::new(&tree);
        for (id, node) in tree.iter() {
            if !node.is_candidate {
                continue;
            }
            let one = assignment_with_nominal_values(&[(id, BufferTypeId(0))], &lib)
                .expect("ids from this library");
            assert!(eval.evaluate(&one).root_rat <= best + 1e-9);
        }
    }
}

#[test]
fn stat_dp_zero_budgets_equals_det() {
    let mut rng = SplitMix64::new(0xD2);
    for _ in 0..CASES {
        let sinks = 2 + rng.below(28);
        let seed = rng.next_u64() % 20;
        let tree = generate_benchmark(&BenchmarkSpec::random("pc0", sinks, seed));
        let lib = BufferLibrary::default_65nm();
        let model = ProcessModel::new(
            tree.bounding_box(),
            SpatialKind::Heterogeneous,
            VariationBudgets::zero(),
            lib.clone(),
        );
        let s = optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &DpOptions::default(),
        )
        .expect("stat");
        let d = optimize_deterministic(&tree, &lib).expect("det");
        assert!(
            (s.root_rat.mean() - d.root_rat).abs() < 1e-6 * d.root_rat.abs().max(1.0),
            "stat {} vs det {}",
            s.root_rat.mean(),
            d.root_rat
        );
        assert!(s.root_rat.std_dev() < 1e-9);
    }
}

#[test]
fn pruned_set_is_mutually_nondominated() {
    let mut rng = SplitMix64::new(0xD3);
    for case in 0..CASES {
        let loads = load_rat_pairs(&mut rng);
        let rules: [Box<dyn PruningRule>; 3] = [
            Box::new(TwoParam::default()),
            Box::new(TwoParam::new(0.8, 0.8)),
            Box::new(OneParam::default()),
        ];
        let rule = rules[case % 3].as_ref();
        let sols: Vec<StatSolution> = loads
            .iter()
            .enumerate()
            .map(|(i, &(l, t))| {
                StatSolution::new(
                    CanonicalForm::with_terms(l, vec![(SourceId(i as u32 % 5), 1.0)]),
                    CanonicalForm::with_terms(t, vec![(SourceId(5 + i as u32 % 5), 2.0)]),
                )
            })
            .collect();
        let kept = prune_solutions(rule, sols.clone());
        assert!(!kept.is_empty());
        assert!(kept.len() <= sols.len());
        // Consecutive survivors must not dominate each other (transitive
        // rules prune against the predecessor, so adjacency is the
        // guarantee the algorithm gives).
        for w in kept.windows(2) {
            assert!(
                !rule.dominates(&w[0], &w[1]),
                "adjacent domination survived"
            );
        }
        // Survivors are sorted by the load key.
        for w in kept.windows(2) {
            assert!(rule.load_key(&w[0]) <= rule.load_key(&w[1]) + 1e-12);
        }
    }
}

/// The prune `prune_solutions_keyed` must reproduce, spelled out with
/// the rule's scalar accessors: a linear rule stable-sorts by (load key
/// ascending, RAT key descending) and keeps each solution its last kept
/// predecessor does not dominate; a cross-product rule drops every
/// solution some undropped one dominates, then stable-sorts the rest by
/// load key.
fn naive_prune(rule: &dyn PruningRule, mut sols: Vec<StatSolution>) -> Vec<StatSolution> {
    match rule.strategy() {
        MergeStrategy::SortedLinear => {
            sols.sort_by(|a, b| {
                rule.load_key(a)
                    .total_cmp(&rule.load_key(b))
                    .then(rule.rat_key(b).total_cmp(&rule.rat_key(a)))
            });
            let mut kept: Vec<StatSolution> = Vec::new();
            for s in sols {
                if !kept.last().is_some_and(|k| rule.dominates(k, &s)) {
                    kept.push(s);
                }
            }
            kept
        }
        MergeStrategy::CrossProduct => {
            let mut dominated = vec![false; sols.len()];
            for i in 0..sols.len() {
                if dominated[i] {
                    continue;
                }
                for j in 0..sols.len() {
                    if i != j && !dominated[j] && rule.dominates(&sols[i], &sols[j]) {
                        dominated[j] = true;
                    }
                }
            }
            let mut flags = dominated.into_iter();
            sols.retain(|_| !flags.next().unwrap_or(true));
            sols.sort_by(|a, b| rule.load_key(a).total_cmp(&rule.load_key(b)));
            sols
        }
    }
}

/// A solution with one load and one RAT term and its own trace, so
/// survivors can be matched to inputs by identity.
fn tagged(tag: usize, load: f64, rat: f64, rng: &mut SplitMix64) -> StatSolution {
    let mut s = StatSolution::new(
        CanonicalForm::with_terms(
            load,
            vec![(SourceId(tag as u32 % 5), rng.uniform(0.0, 4.0))],
        ),
        CanonicalForm::with_terms(
            rat,
            vec![(SourceId(5 + tag as u32 % 5), rng.uniform(0.0, 6.0))],
        ),
    );
    s.trace = Trace::buffer(NodeId(tag as u32), BufferTypeId(0), Trace::empty());
    s
}

#[test]
fn keyed_prune_matches_a_stable_sort_and_linear_sweep() {
    let rules: [&dyn PruningRule; 5] = [
        &TwoParam::default(),
        &TwoParam::new(0.8, 0.8),
        &TwoParam::new(0.9, 0.9),
        &OneParam::default(),
        &FourParam::default(),
    ];
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let mut rng = SplitMix64::new(0xD5);
    let mut scratch = PruneScratch::default();
    for case in 0..8 * CASES {
        let rule = rules[case % rules.len()];
        let mut tag = 0usize;
        // A list the engine would hold: the survivors of an earlier prune.
        // The first cases start every rule from an empty list, then from
        // one entry, so empty and one-element inputs are always covered.
        let len = if case < 2 * rules.len() {
            case / rules.len()
        } else {
            rng.below(48)
        };
        let base: Vec<StatSolution> = (0..len)
            .map(|_| {
                tag += 1;
                let all_equal = case % 7 == 0;
                let (l, t) = if all_equal {
                    (10.0, -50.0)
                } else {
                    (rng.uniform(0.0, 100.0), rng.uniform(-500.0, 0.0))
                };
                tagged(tag, l, t, &mut rng)
            })
            .collect();
        let mut sols = naive_prune(rule, base);
        // Appended candidates, as a buffering step adds them: 0, 1 or 3
        // of them, or more than the insertion path takes. Some tie an
        // existing entry's keys exactly, some duplicate its forms, some
        // carry non-finite means.
        let appended = [0, 1, 3, rng.below(40)][case % 4];
        for _ in 0..appended {
            tag += 1;
            let kind = rng.below(5);
            let s = if kind == 0 && !sols.is_empty() {
                let old = &sols[rng.below(sols.len())];
                tagged(tag, old.load_mean(), old.rat_mean(), &mut rng)
            } else if kind == 1 && !sols.is_empty() {
                let mut dup = sols[rng.below(sols.len())].clone();
                dup.trace = Trace::buffer(NodeId(tag as u32), BufferTypeId(0), Trace::empty());
                dup
            } else if kind == 2 && case % 3 == 0 {
                let special = specials[rng.below(specials.len())];
                let (l, t) = if rng.below(2) == 0 {
                    (special, rng.uniform(-500.0, 0.0))
                } else {
                    (rng.uniform(0.0, 100.0), special)
                };
                tagged(tag, l, t, &mut rng)
            } else {
                tagged(
                    tag,
                    rng.uniform(0.0, 100.0),
                    rng.uniform(-500.0, 0.0),
                    &mut rng,
                )
            };
            sols.push(s);
        }
        let expected = naive_prune(rule, sols.clone());
        prune_solutions_keyed(rule, &mut sols, &mut scratch);
        let label = format!("case {case} ({}, {appended} appended)", rule.name());
        assert_eq!(sols.len(), expected.len(), "{label}: survivor count");
        for (k, (got, want)) in sols.iter().zip(&expected).enumerate() {
            assert!(
                Arc::ptr_eq(&got.trace, &want.trace),
                "{label}: survivor {k} is a different solution"
            );
        }
        // The keys the prune leaves behind stay aligned with the list.
        assert_eq!(scratch.keys.len(), sols.len(), "{label}: key count");
        for (k, s) in sols.iter().enumerate() {
            assert_eq!(
                scratch.keys.load[k].to_bits(),
                rule.load_key(s).to_bits(),
                "{label}: load key {k}"
            );
            assert_eq!(
                scratch.keys.rat[k].to_bits(),
                rule.rat_key(s).to_bits(),
                "{label}: RAT key {k}"
            );
        }
    }
}

#[test]
fn prune_keeps_a_best_rat_solution() {
    let mut rng = SplitMix64::new(0xD4);
    for _ in 0..CASES {
        let loads = load_rat_pairs(&mut rng);
        // Whatever gets pruned, the best-RAT (by mean) solution survives
        // under the 2P rule: nothing can dominate it on the RAT side.
        let rule = TwoParam::default();
        let sols: Vec<StatSolution> = loads
            .iter()
            .map(|&(l, t)| {
                StatSolution::new(CanonicalForm::constant(l), CanonicalForm::constant(t))
            })
            .collect();
        let best_rat = sols
            .iter()
            .map(|s| s.rat_mean())
            .fold(f64::NEG_INFINITY, f64::max);
        let kept = prune_solutions(&rule, sols);
        let kept_best = kept
            .iter()
            .map(|s| s.rat_mean())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((kept_best - best_rat).abs() < 1e-12);
    }
}

#[test]
fn more_variation_never_improves_yield_rat() {
    let mut rng = SplitMix64::new(0xD5);
    for _ in 0..12 {
        let sinks = 4 + rng.below(20);
        let seed = rng.next_u64() % 12;
        // Scaling every budget up can only worsen (or preserve) the
        // 95%-yield RAT of the optimized design.
        let tree = generate_benchmark(&BenchmarkSpec::random("mv", sinks, seed)).subdivided(1000.0);
        let lib = BufferLibrary::default_65nm();
        let mut y95 = Vec::new();
        for scale in [0.5, 2.0] {
            let budgets = VariationBudgets {
                random: 0.05 * scale,
                inter_die: 0.05 * scale,
                intra_die: 0.05 * scale,
                systematic: 0.0,
            };
            let model = ProcessModel::new(
                tree.bounding_box(),
                SpatialKind::Homogeneous,
                budgets,
                lib.clone(),
            );
            let r = optimize_with_rule(
                &tree,
                &model,
                VariationMode::WithinDie,
                Arc::new(TwoParam::default()),
                &DpOptions::default(),
            )
            .expect("opt");
            y95.push(r.root_rat.percentile(0.05));
        }
        assert!(
            y95[0] >= y95[1] - 1e-9,
            "low-var {} vs high-var {}",
            y95[0],
            y95[1]
        );
    }
}
