//! Integration tests of the resource governor's graceful-degradation
//! paths, driven by the deterministic fault-injection harness.
//!
//! The two headline scenarios:
//!
//! 1. a solution budget that kills a strict 4P run outright is survived
//!    by the governed engine via automatic fallback to the 2P rule,
//!    returning a valid buffered tree plus a populated report;
//! 2. a hard wall-clock breach (scripted through an injected clock, no
//!    sleeping) still yields a best-so-far design instead of an error.

mod common;

use common::assert_valid_design;
use std::sync::Arc;
use std::time::Duration;
use varbuf_core::dp::{optimize_with_rule, run, DpOptions, RunControls, RunRequest};
use varbuf_core::faultinject::{FaultInjector, FaultPlan, PoisonKind, SkewedClock, StepClock};
use varbuf_core::governor::Budget;
use varbuf_core::prune::{FourParam, PruningRule, TwoParam};
use varbuf_core::InsertionError;
use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};
use varbuf_rctree::RoutingTree;
use varbuf_variation::{ProcessModel, SpatialKind, VariationMode};

fn model_for(tree: &RoutingTree) -> ProcessModel {
    ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous)
}

/// A governed WID request of `rule` under `budget`.
fn governed<'a>(
    tree: &'a RoutingTree,
    model: &'a ProcessModel,
    rule: Arc<dyn PruningRule>,
    budget: Budget,
) -> RunRequest<'a> {
    RunRequest {
        budget,
        ..RunRequest::new(tree, model, VariationMode::WithinDie, rule)
    }
}

#[test]
fn solution_cap_that_kills_strict_4p_degrades_to_2p_and_completes() {
    // The exact setup of the strict engine's capacity test: 120 sinks,
    // 200-solution cap, 4P. Strict: typed error. Governed: fallback.
    let tree = generate_benchmark(&BenchmarkSpec::random("cap", 120, 6));
    let model = model_for(&tree);
    let request = RunRequest {
        budget: Budget::strict(200, Duration::MAX),
        ..RunRequest::strict(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(FourParam::default()),
        )
    };
    let strict = run(&request, RunControls::default());
    assert!(
        matches!(strict, Err(InsertionError::CapacityExceeded { .. })),
        "the strict engine must still abort"
    );

    let budget = Budget {
        soft_solutions: 200,
        hard_solutions: 800,
        ..Budget::unlimited()
    };
    let request = governed(&tree, &model, Arc::new(FourParam::default()), budget);
    let governed =
        run(&request, RunControls::default()).expect("the governed engine must complete");

    assert!(governed.degradation.degraded());
    assert!(governed.degradation.rule_fallbacks() >= 1);
    assert_eq!(governed.degradation.initial_rule, "4P");
    assert_eq!(governed.degradation.final_rule, "2P");
    assert!(governed.result.stats.rule_fallbacks >= 1);
    assert!(!governed.result.assignment.is_empty());
    assert_valid_design("4P fallback", &request, &governed);
    // The report is populated and readable.
    let summary = governed.degradation.summary();
    assert!(summary.contains("4P"), "summary: {summary}");
    assert!(summary.contains("2P"), "summary: {summary}");
}

#[test]
fn hard_wall_clock_breach_returns_best_so_far_not_err() {
    let tree = generate_benchmark(&BenchmarkSpec::random("clock", 80, 11));
    let model = model_for(&tree);
    // A scripted clock: every read advances 1s, so the 30s hard budget
    // breaks deterministically partway through the postorder sweep.
    let clock = StepClock::new(Duration::from_secs(1));
    let budget = Budget {
        soft_time: Duration::from_secs(20),
        hard_time: Duration::from_secs(30),
        ..Budget::unlimited()
    };
    let request = governed(&tree, &model, Arc::new(TwoParam::default()), budget);
    let governed = run(
        &request,
        RunControls {
            clock: Some(Box::new(clock)),
            ..RunControls::default()
        },
    )
    .expect("hard time breach must not error");

    assert!(governed.degradation.panic_completion);
    assert!(governed.result.stats.panic_completion);
    assert!(governed.degradation.degraded());
    assert_valid_design("hard time", &request, &governed);
    // Panic completion keeps one candidate per node from the breach on.
    assert!(governed.result.stats.nodes_processed == tree.len());
}

#[test]
fn frozen_clock_past_hard_limit_still_completes_whole_tree() {
    // Time already exhausted before the first node: the entire run is
    // panic completion, which must still produce a valid design.
    let tree = generate_benchmark(&BenchmarkSpec::random("frozen", 60, 3));
    let model = model_for(&tree);
    let budget = Budget {
        soft_time: Duration::from_secs(1),
        hard_time: Duration::from_secs(2),
        ..Budget::unlimited()
    };
    let request = governed(&tree, &model, Arc::new(TwoParam::default()), budget);
    let governed = run(
        &request,
        RunControls {
            clock: Some(Box::new(SkewedClock::frozen(Duration::from_secs(10)))),
            ..RunControls::default()
        },
    )
    .expect("completes");
    assert!(governed.degradation.panic_completion);
    assert_eq!(governed.result.stats.max_solutions_per_node, 1);
    assert_valid_design("frozen clock", &request, &governed);
}

#[test]
fn soft_time_pressure_triggers_rule_fallback_not_panic() {
    let tree = generate_benchmark(&BenchmarkSpec::random("soft", 60, 7));
    let model = model_for(&tree);
    // Soft limit breached immediately, hard limit unreachable.
    let budget = Budget {
        soft_time: Duration::from_secs(1),
        hard_time: Duration::from_secs(1_000_000),
        ..Budget::unlimited()
    };
    let request = governed(&tree, &model, Arc::new(FourParam::default()), budget);
    let governed = run(
        &request,
        RunControls {
            clock: Some(Box::new(SkewedClock::frozen(Duration::from_secs(5)))),
            ..RunControls::default()
        },
    )
    .expect("completes");
    assert!(!governed.degradation.panic_completion);
    assert_eq!(
        governed.degradation.rule_fallbacks(),
        1,
        "one soft-time step"
    );
    assert_eq!(governed.degradation.final_rule, "2P");
    assert_valid_design("soft time", &request, &governed);
}

#[test]
fn poisoned_solutions_are_dropped_and_reported() {
    let tree = generate_benchmark(&BenchmarkSpec::random("poison", 50, 5));
    let model = model_for(&tree);
    for kind in [
        PoisonKind::NanRat,
        PoisonKind::NanLoad,
        PoisonKind::InfiniteVariance,
    ] {
        let mut injector = FaultInjector::new(FaultPlan::poison(3, kind));
        let request = governed(
            &tree,
            &model,
            Arc::new(TwoParam::default()),
            Budget::unlimited(),
        );
        let governed = run(
            &request,
            RunControls {
                faults: Some(&mut injector),
                ..RunControls::default()
            },
        )
        .expect("poison must be survivable");
        assert!(injector.poisoned_injected() > 0);
        assert_eq!(
            governed.result.stats.poisoned_dropped,
            injector.poisoned_injected(),
            "every injected poison must be caught ({kind:?})"
        );
        assert!(governed.degradation.degraded());
        assert_valid_design(&format!("poison {kind:?}"), &request, &governed);
        // Poison never leaks into the reported result.
        assert!(governed.result.root_rat.mean().is_finite());
    }
}

#[test]
fn padding_pressure_forces_truncation_but_run_completes() {
    let tree = generate_benchmark(&BenchmarkSpec::random("pad", 60, 9));
    let model = model_for(&tree);
    // Pad every node with 50 duplicates against a 20-solution soft cap:
    // the ladder (fallbacks, epsilon, truncation) must absorb it.
    let mut injector = FaultInjector::new(FaultPlan::pad(1, 50));
    let budget = Budget {
        soft_solutions: 20,
        hard_solutions: 60,
        ..Budget::unlimited()
    };
    let request = governed(&tree, &model, Arc::new(TwoParam::new(0.9, 0.9)), budget);
    let governed = run(
        &request,
        RunControls {
            faults: Some(&mut injector),
            ..RunControls::default()
        },
    )
    .expect("capacity pressure must be survivable");
    assert!(injector.padded_injected() > 0);
    assert!(governed.degradation.degraded());
    assert!(governed.result.stats.max_solutions_per_node <= 60 + 51);
    assert_valid_design("padding", &request, &governed);
}

#[test]
fn memory_budget_pressure_degrades_gracefully() {
    let tree = generate_benchmark(&BenchmarkSpec::random("mem", 70, 13));
    let model = model_for(&tree);
    let budget = Budget {
        soft_mem_bytes: 64 * 1024,
        hard_mem_bytes: 64 * 1024 * 1024,
        ..Budget::unlimited()
    };
    let request = governed(&tree, &model, Arc::new(FourParam::default()), budget);
    let governed =
        run(&request, RunControls::default()).expect("memory pressure must be survivable");
    assert!(governed.degradation.degraded());
    assert!(governed
        .degradation
        .events
        .iter()
        .any(|e| e.to_string().contains("KiB")));
    assert_valid_design("memory", &request, &governed);
}

#[test]
fn fallback_cascade_never_worse_than_pure_two_param() {
    // Property-style sweep (satellite of the governor work): a governed
    // run that starts from 4P and falls back must end no worse than a
    // pure 2P run — the cascade only ever *adds* exploration before the
    // fallback point, and prunes with the same 2P rule after it.
    for seed in [1u64, 5, 9, 23, 41] {
        let tree = generate_benchmark(&BenchmarkSpec::random("prop", 40, seed));
        let model = model_for(&tree);
        let pure = optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &DpOptions::default(),
        )
        .expect("pure 2P");
        // Budget chosen so rule fallback fires well before any
        // truncation could discard candidates a 2P run would keep.
        let budget = Budget {
            soft_solutions: 64,
            hard_solutions: 1_000_000,
            ..Budget::unlimited()
        };
        let request = governed(&tree, &model, Arc::new(FourParam::default()), budget);
        let governed = run(&request, RunControls::default()).expect("governed");
        let y = |f: &varbuf_stats::CanonicalForm| f.percentile(0.05);
        let pure_y = y(&pure.root_rat);
        let gov_y = y(&governed.result.root_rat);
        assert!(
            gov_y >= pure_y - 1e-6 * pure_y.abs(),
            "seed {seed}: governed {gov_y} worse than pure 2P {pure_y}"
        );
    }
}

#[test]
fn unpressured_governed_run_reports_clean() {
    let tree = generate_benchmark(&BenchmarkSpec::random("clean", 40, 2));
    let model = model_for(&tree);
    let request = governed(
        &tree,
        &model,
        Arc::new(TwoParam::default()),
        Budget::unlimited(),
    );
    let governed = run(&request, RunControls::default()).expect("clean");
    assert!(!governed.degradation.degraded());
    assert!(!governed.result.stats.degraded());
    assert_eq!(
        governed.degradation.summary(),
        "completed within budget (no degradation)"
    );
}
