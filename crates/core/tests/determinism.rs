//! Bit-for-bit determinism of the parallel engine.
//!
//! The contract (see `pool` module docs): for every pruning rule and
//! any `jobs` count, batch and intra-tree parallel results — winning
//! RAT form, assignment, wire widths, `DpStats` counters, degradation
//! events — are identical to the sequential engine's, bit for bit.

use std::sync::Arc;
use std::time::Duration;
use varbuf_core::dp::{
    fallback_cascade, optimize_governed, optimize_governed_detailed, optimize_with_rule,
    optimize_with_sizing, DpOptions, GovernedResult, RunControls, StatResult, WireSizing,
};
use varbuf_core::governor::Budget;
use varbuf_core::pool::{optimize_batch, BatchRequest};
use varbuf_core::prune::{FourParam, OneParam, PruningRule, TwoParam};
use varbuf_core::InsertionError;
use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};
use varbuf_rctree::RoutingTree;
use varbuf_variation::{ProcessModel, SpatialKind, VariationMode};

/// SplitMix64-style seeds for the generated benchmark topologies.
const SEEDS: [u64; 3] = [0x9E37_79B9, 0x85EB_CA6B, 0xC2B2_AE35];

fn model_for(tree: &RoutingTree) -> ProcessModel {
    ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous)
}

/// All three rules with tree sizes each can digest (the 4P cross
/// product blows up fast, mirroring the paper's 9-sink ceiling).
fn rule_suite() -> Vec<(&'static str, Arc<dyn PruningRule>, usize)> {
    vec![
        (
            "1P",
            Arc::new(OneParam::default()) as Arc<dyn PruningRule>,
            40,
        ),
        (
            "2P",
            Arc::new(TwoParam::default()) as Arc<dyn PruningRule>,
            40,
        ),
        (
            "4P",
            Arc::new(FourParam::default()) as Arc<dyn PruningRule>,
            6,
        ),
    ]
}

/// Bitwise equality of two results, durations excluded (wall-clock
/// fields are the only thing allowed to differ between runs).
fn assert_bit_identical(label: &str, seq: &StatResult, par: &StatResult) {
    assert_eq!(seq.assignment, par.assignment, "{label}: assignment");
    assert_eq!(seq.wire_widths, par.wire_widths, "{label}: wire widths");
    assert_eq!(
        seq.root_rat.mean().to_bits(),
        par.root_rat.mean().to_bits(),
        "{label}: RAT mean bits"
    );
    assert_eq!(
        seq.root_rat.variance().to_bits(),
        par.root_rat.variance().to_bits(),
        "{label}: RAT variance bits"
    );
    assert_eq!(
        seq.root_rat.term_count(),
        par.root_rat.term_count(),
        "{label}: term count"
    );
    for (a, b) in seq.root_rat.terms().zip(par.root_rat.terms()) {
        assert_eq!(a.0, b.0, "{label}: term source");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "{label}: term coefficient");
    }
    assert_eq!(
        seq.stats.sans_times(),
        par.stats.sans_times(),
        "{label}: DpStats counters"
    );
}

fn assert_same_degradation(label: &str, seq: &GovernedResult, par: &GovernedResult) {
    assert_bit_identical(label, &seq.result, &par.result);
    // Event timestamps are wall clock; triggers and actions are not.
    let strip = |g: &GovernedResult| {
        g.degradation
            .events
            .iter()
            .map(|e| (e.trigger.clone(), e.action.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(strip(seq), strip(par), "{label}: degradation events");
    assert_eq!(
        seq.degradation.final_rule, par.degradation.final_rule,
        "{label}: final rule"
    );
    assert_eq!(
        seq.degradation.panic_completion, par.degradation.panic_completion,
        "{label}: panic completion"
    );
}

#[test]
fn strict_parallel_is_bit_identical_for_all_rules() {
    for (name, rule, sinks) in rule_suite() {
        for seed in SEEDS {
            let tree = generate_benchmark(&BenchmarkSpec::random("det-strict", sinks, seed));
            let model = model_for(&tree);
            let run = |jobs: usize| {
                optimize_with_rule(
                    &tree,
                    &model,
                    VariationMode::WithinDie,
                    Arc::clone(&rule),
                    &DpOptions {
                        jobs,
                        // Force the fan-out so single-thread hosts still
                        // exercise the parallel engine under test.
                        jobs_force: true,
                        ..DpOptions::default()
                    },
                )
                .expect("strict run")
            };
            let seq = run(1);
            let par = run(4);
            assert_bit_identical(&format!("{name}/seed{seed:x}/strict"), &seq, &par);
        }
    }
}

#[test]
fn governed_parallel_is_bit_identical_for_all_rules() {
    for (name, rule, sinks) in rule_suite() {
        for seed in SEEDS {
            let tree = generate_benchmark(&BenchmarkSpec::random("det-gov", sinks, seed));
            let model = model_for(&tree);
            let run = |jobs: usize| {
                optimize_governed(
                    &tree,
                    &model,
                    VariationMode::WithinDie,
                    Arc::clone(&rule),
                    &DpOptions {
                        jobs,
                        // Force the fan-out so single-thread hosts still
                        // exercise the parallel engine under test.
                        jobs_force: true,
                        ..DpOptions::default()
                    },
                    &Budget::unlimited(),
                )
                .expect("governed run")
            };
            let seq = run(1);
            let par = run(4);
            assert_same_degradation(&format!("{name}/seed{seed:x}/governed"), &seq, &par);
        }
    }
}

#[test]
fn governed_under_pressure_matches_including_degradation_counters() {
    // A tight solution budget forces the degradation ladder: the
    // speculative parallel phase must detect the pressure, abandon
    // itself, and reproduce the sequential run — including every
    // recorded trigger/action pair — bit for bit.
    let budget = Budget {
        soft_solutions: 6,
        hard_solutions: 24,
        ..Budget::unlimited()
    };
    for (name, rule, sinks) in rule_suite() {
        for seed in SEEDS {
            let tree = generate_benchmark(&BenchmarkSpec::random("det-press", sinks, seed));
            let model = model_for(&tree);
            let run = |jobs: usize| {
                optimize_governed(
                    &tree,
                    &model,
                    VariationMode::WithinDie,
                    Arc::clone(&rule),
                    &DpOptions {
                        jobs,
                        // Force the fan-out so single-thread hosts still
                        // exercise the parallel engine under test.
                        jobs_force: true,
                        ..DpOptions::default()
                    },
                    &budget,
                )
                .expect("governed run")
            };
            let seq = run(1);
            let par = run(4);
            let label = format!("{name}/seed{seed:x}/pressure");
            assert_same_degradation(&label, &seq, &par);
            assert!(
                seq.result.stats.degraded(),
                "{label}: budget was meant to force degradation"
            );
        }
    }
}

#[test]
fn strict_capacity_error_is_deterministic_across_jobs() {
    // The 4P cross product on a bigger tree breaches a tight cap; the
    // parallel engine must surface the same first-in-postorder breach
    // the sequential engine hits.
    let tree = generate_benchmark(&BenchmarkSpec::random("det-cap", 100, 11));
    let model = model_for(&tree);
    let run = |jobs: usize| -> InsertionError {
        optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(FourParam::default()),
            &DpOptions {
                max_solutions_per_node: 150,
                jobs,
                jobs_force: true,
                ..DpOptions::default()
            },
        )
        .expect_err("cap was meant to breach")
    };
    let seq = run(1);
    let par = run(4);
    assert!(matches!(seq, InsertionError::CapacityExceeded { .. }));
    assert_eq!(format!("{seq:?}"), format!("{par:?}"), "breach identity");
}

#[test]
fn batch_is_bit_identical_to_serial_loop_and_order_preserving() {
    let trees: Vec<RoutingTree> = SEEDS
        .iter()
        .enumerate()
        .map(|(i, &seed)| generate_benchmark(&BenchmarkSpec::random("det-batch", 24 + 8 * i, seed)))
        .collect();
    let models: Vec<ProcessModel> = trees.iter().map(model_for).collect();
    let mut requests = Vec::new();
    for (tree, model) in trees.iter().zip(&models) {
        for strict in [false, true] {
            let mut req = BatchRequest::new(
                tree,
                model,
                VariationMode::WithinDie,
                Arc::new(TwoParam::default()),
            );
            req.strict = strict;
            requests.push(req);
        }
    }
    // One deliberately failing request: batch must report errors in
    // place without disturbing its neighbors' slots.
    let mut failing = BatchRequest::new(
        &trees[0],
        &models[0],
        VariationMode::WithinDie,
        Arc::new(FourParam::default()),
    );
    failing.strict = true;
    failing.options = DpOptions {
        max_solutions_per_node: 10,
        time_limit: Duration::from_secs(4 * 3600),
        ..DpOptions::default()
    };
    requests.push(failing);

    // Forced fan-out: the host clamp would quietly serialize this on a
    // single-thread machine, and the whole point is to drive the
    // multi-worker result slots.
    let serial = optimize_batch(&requests, 1);
    let batched = varbuf_core::optimize_batch_forced(&requests, 4);
    assert_eq!(serial.len(), requests.len());
    assert_eq!(batched.len(), requests.len());
    for (i, (s, p)) in serial.iter().zip(&batched).enumerate() {
        match (s, p) {
            (Ok(s), Ok(p)) => assert_same_degradation(&format!("batch[{i}]"), s, p),
            (Err(es), Err(ep)) => {
                assert_eq!(format!("{es:?}"), format!("{ep:?}"), "batch[{i}]: error")
            }
            _ => panic!("batch[{i}]: Ok/Err divergence between jobs=1 and jobs=4"),
        }
    }
    assert!(
        serial.last().expect("non-empty").is_err(),
        "failing request must error in both"
    );
}

/// A root-RAT result pinned bit for bit on one oracle tree.
struct Pin {
    rule: &'static str,
    sinks: usize,
    seed: u64,
    kind: SpatialKind,
    mode: VariationMode,
    sized: bool,
    mean_bits: u64,
    variance_bits: u64,
    assignment: &'static [(u32, usize)],
    /// Non-default wire widths, as `(node, width index)`.
    widened: &'static [(u32, u8)],
}

/// Results recorded while the engine still ran bound-guided pruning by
/// default: deterministic upstream bounds that retired candidates
/// before the dominance sweep (removed because on every benchmark
/// workload it retired nothing, at a quarter of the run time on
/// wire-heavy nets; see DESIGN.md). These are the shallow oracle trees
/// where the filter did fire (23–345 retirements per run). That the
/// pins still hold without it shows the removal changed no result
/// even where the filter used to act.
#[rustfmt::skip]
const BOUND_ERA_PINS: [Pin; 6] = [
    Pin {
        rule: "1P", sinks: 40, seed: 0x9E37_79B9, sized: false,
        kind: SpatialKind::Heterogeneous, mode: VariationMode::WithinDie,
        mean_bits: 0xc07f_a1be_e9f6_aba2, variance_bits: 0x406a_656c_344d_cfcd,
        assignment: &[
            (1, 2), (41, 2), (61, 2), (75, 2), (72, 1), (62, 2), (42, 2), (52, 2), (43, 2),
            (2, 2), (22, 2), (32, 2), (36, 2), (33, 2), (23, 2), (3, 2), (17, 2), (14, 1),
            (4, 2),
        ],
        widened: &[],
    },
    Pin {
        rule: "2P", sinks: 40, seed: 0x85EB_CA6B, sized: false,
        kind: SpatialKind::Homogeneous, mode: VariationMode::WithinDie,
        mean_bits: 0xc082_b926_e86c_d8a3, variance_bits: 0x4069_628b_b82e_6312,
        assignment: &[
            (1, 2), (41, 2), (61, 0), (71, 2), (62, 1), (42, 2), (52, 0), (56, 2), (53, 1),
            (43, 2), (49, 2), (48, 0), (44, 1), (2, 1), (22, 1), (32, 2), (23, 2), (3, 2),
            (17, 2), (14, 0), (4, 2),
        ],
        widened: &[],
    },
    Pin {
        rule: "2P9", sinks: 40, seed: 0xC2B2_AE35, sized: false,
        kind: SpatialKind::Heterogeneous, mode: VariationMode::WithinDie,
        mean_bits: 0xc080_6e75_f4de_d2b1, variance_bits: 0x406c_0c65_65a0_1fe4,
        assignment: &[
            (1, 2), (41, 2), (61, 2), (75, 2), (72, 1), (62, 2), (66, 2), (63, 2), (42, 2),
            (56, 2), (53, 2), (43, 2), (2, 1), (22, 1), (32, 2), (23, 2), (3, 2), (13, 2),
            (4, 2),
        ],
        widened: &[],
    },
    Pin {
        rule: "2P9", sinks: 40, seed: 0x85EB_CA6B, sized: false,
        kind: SpatialKind::Homogeneous, mode: VariationMode::DieToDie,
        mean_bits: 0xc082_ea51_4f2c_2ba6, variance_bits: 0x4063_a687_e945_b41a,
        assignment: &[
            (1, 2), (41, 2), (61, 0), (71, 2), (62, 1), (42, 2), (52, 0), (56, 2), (53, 1),
            (43, 2), (49, 2), (48, 0), (44, 1), (2, 1), (22, 1), (32, 2), (23, 2), (3, 2),
            (17, 2), (14, 0), (4, 2),
        ],
        widened: &[],
    },
    Pin {
        rule: "4P", sinks: 6, seed: 0x85EB_CA6B, sized: false,
        kind: SpatialKind::Homogeneous, mode: VariationMode::WithinDie,
        mean_bits: 0xc064_9a9e_cd9b_3b27, variance_bits: 0x4034_3af9_2f35_052e,
        assignment: &[(7, 2), (2, 2)],
        widened: &[],
    },
    Pin {
        rule: "2P", sinks: 40, seed: 0x85EB_CA6B, sized: true,
        kind: SpatialKind::Heterogeneous, mode: VariationMode::WithinDie,
        mean_bits: 0xc082_e02c_9d4c_fe44, variance_bits: 0x4064_399e_7a4b_0b60,
        assignment: &[
            (1, 2), (41, 2), (61, 0), (71, 2), (62, 1), (42, 2), (52, 1), (56, 2), (53, 1),
            (47, 2), (44, 0), (2, 1), (22, 1), (32, 2), (23, 2), (3, 2), (17, 2), (14, 0),
            (4, 2),
        ],
        widened: &[(75, 1), (43, 1), (49, 1)],
    },
];

#[test]
fn results_where_bound_pruning_fired_are_pinned() {
    for pin in &BOUND_ERA_PINS {
        let rule: Arc<dyn PruningRule> = match pin.rule {
            "1P" => Arc::new(OneParam::default()),
            "2P" => Arc::new(TwoParam::default()),
            "2P9" => Arc::new(TwoParam::new(0.9, 0.9)),
            "4P" => Arc::new(FourParam::default()),
            other => unreachable!("no rule {other}"),
        };
        let (name, sizing) = if pin.sized {
            ("oracle-sized", WireSizing::default_three())
        } else {
            ("oracle", WireSizing::single())
        };
        let tree = generate_benchmark(&BenchmarkSpec::random(name, pin.sinks, pin.seed));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), pin.kind);
        let strict = optimize_with_sizing(
            &tree,
            &model,
            pin.mode,
            Arc::clone(&rule),
            &sizing,
            &DpOptions::default(),
        )
        .expect("strict run");
        // The governed engine with the parallel fan-out forced: the same
        // pin must hold on every path the filter used to arm on.
        let governed = optimize_governed_detailed(
            &tree,
            &model,
            pin.mode,
            fallback_cascade(Arc::clone(&rule)),
            &sizing,
            &DpOptions {
                jobs: 4,
                jobs_force: true,
                ..DpOptions::default()
            },
            &Budget::unlimited(),
            RunControls::default(),
        )
        .expect("governed run")
        .result;
        for (path, r) in [("strict", &strict), ("governed", &governed)] {
            let label = format!(
                "{}/{}/seed{:x}/{:?}/{:?}/{path}",
                pin.rule, name, pin.seed, pin.kind, pin.mode
            );
            assert_eq!(r.root_rat.mean().to_bits(), pin.mean_bits, "{label}: mean");
            assert_eq!(
                r.root_rat.variance().to_bits(),
                pin.variance_bits,
                "{label}: variance"
            );
            let assignment: Vec<(u32, usize)> =
                r.assignment.iter().map(|&(n, b)| (n.0, b.0)).collect();
            assert_eq!(assignment, pin.assignment, "{label}: assignment");
            let widened: Vec<(u32, u8)> = r
                .wire_widths
                .iter()
                .filter(|&&(_, w)| w != 0)
                .map(|&(n, w)| (n.0, w))
                .collect();
            assert_eq!(widened, pin.widened, "{label}: wire widths");
        }
    }
}
