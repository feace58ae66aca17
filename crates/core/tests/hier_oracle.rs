//! Hierarchical-vs-flat oracle for the decomposition engine.
//!
//! The hierarchical engine buys full-chip scale by splicing cut-node
//! frontiers with an epsilon-bounded thinning, so it owes two
//! guarantees: with decomposition disabled it is *byte-identical* to
//! the flat governed engine (same walk, same admissions, same bits),
//! and with decomposition active its root objective stays within a
//! small relative epsilon of the flat answer. This suite checks both,
//! plus the 4P guard satellite: an unconstrained governed 4P run over
//! the guard threshold completes quickly via the deterministic 2P
//! substitution, reported as a guard note rather than a degradation.

use std::sync::Arc;
use varbuf_core::dp::{
    fallback_cascade, run, DpOptions, RunControls, RunRequest, StatResult, WireSizing,
};
use varbuf_core::governor::Budget;
use varbuf_core::hier::{optimize_hier, HierOptions};
use varbuf_core::prune::{FourParam, OneParam, PruningRule, TwoParam};
use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};
use varbuf_rctree::RoutingTree;
use varbuf_variation::{ProcessModel, SpatialKind, VariationMode};

const SEEDS: [u64; 3] = [0x9E37_79B9, 0x85EB_CA6B, 0xC2B2_AE35];

fn setup(sinks: usize, seed: u64) -> (RoutingTree, ProcessModel) {
    let tree = generate_benchmark(&BenchmarkSpec::random("hier-oracle", sinks, seed));
    let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous);
    (tree, model)
}

fn run_flat(
    tree: &RoutingTree,
    model: &ProcessModel,
    rule: &Arc<dyn PruningRule>,
    options: &DpOptions,
) -> StatResult {
    let request = RunRequest {
        options: *options,
        ..RunRequest::new(tree, model, VariationMode::WithinDie, Arc::clone(rule))
    };
    run(&request, RunControls::default())
        .expect("flat governed run")
        .result
}

fn assert_results_identical(label: &str, hier: &StatResult, flat: &StatResult) {
    assert_eq!(hier.assignment, flat.assignment, "{label}: assignment");
    assert_eq!(hier.wire_widths, flat.wire_widths, "{label}: wire widths");
    assert_eq!(
        hier.root_rat.mean().to_bits(),
        flat.root_rat.mean().to_bits(),
        "{label}: RAT mean bits"
    );
    assert_eq!(
        hier.root_rat.variance().to_bits(),
        flat.root_rat.variance().to_bits(),
        "{label}: RAT variance bits"
    );
}

/// `cut_nodes == 0` must run the flat engine bit-for-bit.
#[test]
fn decomposition_off_is_byte_identical() {
    let (tree, model) = setup(96, SEEDS[0]);
    let rule: Arc<dyn PruningRule> = Arc::new(TwoParam::default());
    let options = DpOptions::default();
    let flat = run_flat(&tree, &model, &rule, &options);
    let hier = optimize_hier(
        &tree,
        &model,
        VariationMode::WithinDie,
        fallback_cascade(Arc::clone(&rule)),
        &WireSizing::single(),
        &options,
        &HierOptions::disabled(),
        &Budget::unlimited(),
        RunControls::default(),
    )
    .expect("hier run with decomposition off");
    assert_eq!(hier.hier.cut_count, 0, "disabled config must plan no cuts");
    assert_results_identical("decomposition off", &hier.result, &flat);
}

/// With decomposition forced on (small cut regions so mid-size trees
/// actually fracture), the hierarchical root objective stays within a
/// relative epsilon of the flat engine across seeds, rules, and sizes.
#[test]
fn hierarchical_root_objective_within_epsilon_of_flat() {
    let rules: Vec<(&str, Arc<dyn PruningRule>)> = vec![
        ("2p", Arc::new(TwoParam::default()) as _),
        ("1p", Arc::new(OneParam::default()) as _),
    ];
    let hier_opts = HierOptions {
        cut_nodes: 32,
        fanout_cut: 0,
        ..HierOptions::default()
    };
    let options = DpOptions::default();
    let mut cases = 0usize;
    for &seed in &SEEDS {
        for (name, rule) in &rules {
            for &sinks in &[64usize, 128] {
                let (tree, model) = setup(sinks, seed);
                let flat = run_flat(&tree, &model, rule, &options);
                let hier = optimize_hier(
                    &tree,
                    &model,
                    VariationMode::WithinDie,
                    fallback_cascade(Arc::clone(rule)),
                    &WireSizing::single(),
                    &options,
                    &hier_opts,
                    &Budget::unlimited(),
                    RunControls::default(),
                )
                .expect("hier run");
                let label = format!("{name}/n{sinks}/seed{seed:x}");
                assert!(
                    hier.hier.cut_count > 0,
                    "{label}: decomposition must actually fire (vacuous otherwise)"
                );
                let f = flat.root_rat.mean();
                let h = hier.result.root_rat.mean();
                let rel = (h - f).abs() / f.abs().max(1.0);
                assert!(
                    rel <= 1e-2,
                    "{label}: hier root RAT {h} strays {rel:.3e} from flat {f}"
                );
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 12, "full seed x rule x size matrix must run");
}

/// A governed, unconstrained 4P run past the guard threshold completes
/// via the deterministic 2P substitution: guard note set, *zero*
/// degradation events, and bytes identical to running 2P directly.
#[test]
fn guarded_4p_matches_2p_without_degradation() {
    let (tree, model) = setup(24, SEEDS[1]);
    let options = DpOptions::default();
    let four: Arc<dyn PruningRule> = Arc::new(FourParam::default());
    let request = RunRequest::new(&tree, &model, VariationMode::WithinDie, Arc::clone(&four));
    let governed = run(&request, RunControls::default()).expect("guarded 4P run");
    let guard = governed
        .degradation
        .guard
        .as_ref()
        .expect("24 sinks over the default 12-sink threshold must be guarded");
    assert_eq!(guard.from, "4P");
    assert_eq!(guard.to, "2P");
    assert_eq!(guard.sinks, 24);
    assert!(
        !governed.degradation.degraded(),
        "a guard note is a planning decision, not a degradation"
    );
    let two: Arc<dyn PruningRule> = Arc::new(TwoParam::default());
    let direct = run_flat(&tree, &model, &two, &options);
    assert_results_identical("guarded 4P vs direct 2P", &governed.result, &direct);
}
