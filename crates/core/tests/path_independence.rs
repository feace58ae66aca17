//! Path independence: every path into the engine reports a root RAT
//! that its own design re-evaluates to.
//!
//! One table of [`RunRequest`]s — strict, governed, lazy wire off,
//! wire-sized, hierarchical cuts, a 4P run degraded by a solution
//! budget, and an incremental replay after an edit — goes through
//! [`run`], and each result through the shared `assert_valid_design`
//! check: the reported root-RAT mean is within 1e-6 relative of
//! `YieldEvaluator`'s re-evaluation of the design, the benchmark's
//! tolerance. The served `opt` and `cts` replies, cold and replayed
//! after an edit, equal [`run`] of the same request bit for bit.

mod common;

use common::assert_valid_design;
use std::sync::Arc;
use varbuf_core::cache::{run_signature, NodeSigs, SolutionCache};
use varbuf_core::dp::{run, DpOptions, Memo, RunControls, RunRequest, WireSizing};
use varbuf_core::governor::Budget;
use varbuf_core::hier::HierOptions;
use varbuf_core::prune::{FourParam, PruningRule, TwoParam};
use varbuf_core::service::{
    parse_line, parse_open_spec, Command, Response, Service, ServiceConfig,
};
use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};
use varbuf_rctree::{NodeId, RoutingTree};
use varbuf_variation::{ProcessModel, SpatialKind, VariationMode};

const WID: VariationMode = VariationMode::WithinDie;

fn model_for(tree: &RoutingTree) -> ProcessModel {
    ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous)
}

fn two() -> Arc<dyn PruningRule> {
    Arc::new(TwoParam::default())
}

#[test]
fn every_path_reports_the_rat_its_design_reevaluates_to() {
    let tree = generate_benchmark(&BenchmarkSpec::random("paths", 40, 7)).subdivided(700.0);
    let model = model_for(&tree);
    let governed = RunRequest::new(&tree, &model, WID, two());
    let cuts = HierOptions {
        cut_nodes: 24,
        ..HierOptions::default()
    };
    let table = [
        ("strict", RunRequest::strict(&tree, &model, WID, two())),
        ("governed", governed.clone()),
        (
            "lazy wire off",
            RunRequest {
                options: DpOptions {
                    use_lazy_wire: false,
                    ..DpOptions::default()
                },
                ..governed.clone()
            },
        ),
        (
            "wire-sized",
            RunRequest {
                sizing: WireSizing::default_three(),
                ..governed.clone()
            },
        ),
        ("hierarchical", governed.clone().with_hier(cuts)),
        (
            "degraded 4P",
            RunRequest {
                budget: Budget {
                    soft_solutions: 200,
                    hard_solutions: 800,
                    ..Budget::unlimited()
                },
                ..RunRequest::new(&tree, &model, WID, Arc::new(FourParam::default()))
            },
        ),
    ];
    for (label, request) in &table {
        let r = run(request, RunControls::default()).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_valid_design(label, request, &r);
        // Each row takes the path it names.
        let took_path = match *label {
            "wire-sized" => r.result.wire_widths.iter().any(|&(_, w)| w != 0),
            "hierarchical" => r.hier.cut_count > 0,
            "degraded 4P" => r.degradation.degraded(),
            _ => !r.degradation.degraded(),
        };
        assert!(took_path, "{label}: the run did not take its path");
    }

    // An incremental replay after an edit.
    let mut edited = tree.clone();
    let mut sigs = NodeSigs::build(&edited);
    let mut cache = SolutionCache::new();
    let run_sig = run_signature(2, 2, 0.0, 1, true, None, 0);
    let mut warm = |tree: &RoutingTree, sigs: &NodeSigs| {
        let request = RunRequest::new(tree, &model, WID, two());
        let memo = Memo {
            sigs,
            cache: &mut cache,
            run_sig,
        };
        let controls = RunControls {
            memo: Some(memo),
            ..RunControls::default()
        };
        let r = run(&request, controls).expect("warm run");
        assert_valid_design("incremental replay", &request, &r);
        r.result.stats.cache_hits
    };
    warm(&edited, &sigs);
    let sink = edited.sinks().nth(3).expect("a fourth sink");
    edited.set_sink(sink, 9.5, -60.0);
    let path = sigs.update_path(&edited, sink);
    let hits = warm(&edited, &sigs);
    assert!(
        hits > 0 && hits + path.len() == edited.len(),
        "the replay recomputed more than the edited path"
    );
}

/// The served `opt` and `cts` replies are [`run`] of the same request:
/// the same bits, cold and after an edit (when the session cache
/// replays the clean subtrees).
#[test]
fn served_replies_equal_the_engine_run_of_the_same_request() {
    let mut service = Service::new(ServiceConfig::default());
    let mut send = |line: &str| match parse_line(line) {
        Ok(Command::Req(request)) => service.execute(request),
        other => panic!("`{line}` parsed as {other:?}"),
    };
    assert!(matches!(
        send("open random:48:5 hetero"),
        Response::Opened { .. }
    ));
    let mut tree = parse_open_spec("random:48:5").expect("spec");
    let model = model_for(&tree);
    let cuts = HierOptions {
        cut_nodes: 16,
        ..HierOptions::default()
    };
    for edit in [None, Some("edit wire s0.0 13 1200")] {
        if let Some(edit) = edit {
            assert!(matches!(send(edit), Response::Edited { .. }));
            tree.set_edge_length(NodeId(13), 1200.0);
        }
        for (line, hier) in [("opt s0.0", None), ("cts s0.0 cut-nodes=16", Some(cuts))] {
            let request = RunRequest {
                hier,
                ..RunRequest::new(&tree, &model, WID, two())
            };
            let rat = run(&request, RunControls::default())
                .expect("engine run")
                .result
                .root_rat;
            match send(line) {
                Response::Optimized {
                    rat_mean,
                    rat_sigma,
                    ..
                } => {
                    assert_eq!(rat_mean.to_bits(), rat.mean().to_bits(), "`{line}`: mean");
                    assert_eq!(
                        rat_sigma.to_bits(),
                        rat.std_dev().abs().to_bits(),
                        "`{line}`: sigma"
                    );
                }
                other => panic!("`{line}`: {other}"),
            }
        }
    }
}
