//! Bit-for-bit determinism of the batch pool, and pinned results.
//!
//! The contract (see `pool` module docs): for every pruning rule, strict
//! or governed, degraded or not, and any `jobs` count, a batch's results
//! — winning RAT form, assignment, wire widths, `DpStats` counters,
//! degradation events, errors — are identical to the same requests run
//! in a serial loop, bit for bit.

use std::sync::Arc;
use std::time::Duration;
use varbuf_core::dp::{run, RunControls, RunRequest, RunResult, StatResult, WireSizing};
use varbuf_core::governor::Budget;
use varbuf_core::pool::optimize_batch;
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

fn assert_same_degradation(label: &str, seq: &RunResult, par: &RunResult) {
    assert_bit_identical(label, &seq.result, &par.result);
    // Event timestamps are wall clock; triggers and actions are not.
    let strip = |g: &RunResult| {
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
fn batch_is_bit_identical_to_serial_loop_and_order_preserving() {
    // 2P nets of three sizes, then 1P and 4P at the sizes each can
    // digest; every net runs strict and governed.
    let mut nets: Vec<(Arc<dyn PruningRule>, RoutingTree)> = SEEDS
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            let tree = generate_benchmark(&BenchmarkSpec::random("det-batch", 24 + 8 * i, seed));
            (Arc::new(TwoParam::default()) as Arc<dyn PruningRule>, tree)
        })
        .collect();
    for (name, rule, sinks) in rule_suite() {
        if name != "2P" {
            for seed in SEEDS {
                let tree = generate_benchmark(&BenchmarkSpec::random("det-batch", sinks, seed));
                nets.push((Arc::clone(&rule), tree));
            }
        }
    }
    // Every rule again under a tight solution budget, which forces the
    // degradation ladder: the events must match too.
    let pressure = Budget {
        soft_solutions: 6,
        hard_solutions: 24,
        ..Budget::unlimited()
    };
    let pressured: Vec<(Arc<dyn PruningRule>, RoutingTree)> = rule_suite()
        .into_iter()
        .flat_map(|(_, rule, sinks)| {
            SEEDS.map(|seed| {
                let tree = generate_benchmark(&BenchmarkSpec::random("det-press", sinks, seed));
                (Arc::clone(&rule), tree)
            })
        })
        .collect();
    // A 4P cross product on a bigger tree that breaches a tight strict
    // cap.
    let breaching = generate_benchmark(&BenchmarkSpec::random("det-cap", 100, 11));
    let models: Vec<ProcessModel> = nets.iter().map(|(_, t)| model_for(t)).collect();
    let pressured_models: Vec<ProcessModel> = pressured.iter().map(|(_, t)| model_for(t)).collect();
    let breaching_model = model_for(&breaching);

    let mut requests = Vec::new();
    for ((rule, tree), model) in nets.iter().zip(&models) {
        let governed = RunRequest::new(tree, model, VariationMode::WithinDie, Arc::clone(rule));
        let strict = RunRequest {
            budget: Budget::paper(),
            strict: true,
            ..governed.clone()
        };
        requests.extend([governed, strict]);
    }
    let first_pressured = requests.len();
    for ((rule, tree), model) in pressured.iter().zip(&pressured_models) {
        requests.push(RunRequest {
            budget: pressure,
            ..RunRequest::new(tree, model, VariationMode::WithinDie, Arc::clone(rule))
        });
    }
    let first_failing = requests.len();
    // Deliberately failing requests: batch must report errors in place
    // without disturbing their neighbors' slots.
    for (tree, model, cap) in [
        (&nets[0].1, &models[0], 10),
        (&breaching, &breaching_model, 150),
    ] {
        requests.push(RunRequest {
            budget: Budget::strict(cap, Duration::from_secs(4 * 3600)),
            ..RunRequest::strict(
                tree,
                model,
                VariationMode::WithinDie,
                Arc::new(FourParam::default()),
            )
        });
    }

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
    for (i, s) in serial.iter().enumerate().take(first_failing) {
        let s = s.as_ref().expect("only the capped requests fail");
        assert_eq!(
            s.result.stats.degraded(),
            i >= first_pressured,
            "batch[{i}]: only the pressured requests degrade"
        );
    }
    for s in &serial[first_failing..] {
        assert!(
            matches!(s, Err(InsertionError::CapacityExceeded { .. })),
            "a capped 4P request must breach: {s:?}"
        );
    }
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
        let governed = RunRequest {
            sizing,
            ..RunRequest::new(&tree, &model, pin.mode, rule)
        };
        let strict = RunRequest {
            budget: Budget::paper(),
            strict: true,
            ..governed.clone()
        };
        // The governed engine: the same pin must hold on every path the
        // filter used to arm on.
        for (path, request) in [("strict", strict), ("governed", governed)] {
            let r = &run(&request, RunControls::default())
                .unwrap_or_else(|e| panic!("{path} run: {e}"))
                .result;
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
