//! The lazy wire propagation equal-objective oracle.
//!
//! Lazy wire propagation (see `DpOptions::use_lazy_wire`) replaces the
//! per-segment O(terms) RAT update with an O(1) deferred transform that
//! is materialized only where a consumer needs the full canonical form
//! (merges, the buffering argmax partner, term-keyed prunes, winner
//! selection). Along a chain, means evolve through the *same* fadd
//! sequence either way; only the RAT *term coefficients* of solutions
//! that crossed more than one segment before materializing differ, by
//! floating-point reassociation (`(T − r₁·L) − r₂·L` versus
//! `T − (r₁+r₂)·L`). Clark merges fold term coefficients back into the
//! merged mean, so downstream of a branch point even means can drift at
//! the ulp level — the contract there is 1e-9 *relative*, while the
//! discrete outputs (assignment, widths, survivor counts) must still
//! agree exactly.
//!
//! This suite replays the repo's 168-case verification matrix (rules ×
//! governance × seeds × spatial kinds × variation modes, plus a
//! wire-sizing subset) on *subdivided* trees — multi-segment chains,
//! the case the deferral exists for — with `use_lazy_wire` on and off,
//! asserting:
//!
//! * identical buffer assignment and wire widths,
//! * bit-identical root RAT mean,
//! * root RAT variance within 1e-9 relative,
//! * identical solution counts (generated / pruned / peak / per-cause),
//!
//! plus two sharper contracts: term-keyed rules on unit chains are
//! byte-for-byte identical (each pending transform spans exactly one
//! segment and materializes at the very point the eager kernel ran),
//! and the deferral demonstrably engages on subdivided chains (some
//! coefficient bit differs somewhere — a vacuous oracle proves
//! nothing).

use std::sync::Arc;
use varbuf_core::dp::{
    fallback_cascade, optimize_governed_detailed, optimize_with_sizing, DpOptions, RunControls,
    StatResult, WireSizing,
};
use varbuf_core::governor::Budget;
use varbuf_core::prune::{FourParam, OneParam, PruningRule, TwoParam};
use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};
use varbuf_rctree::RoutingTree;
use varbuf_variation::{ProcessModel, SpatialKind, VariationMode};

const SEEDS: [u64; 3] = [0x9E37_79B9, 0x85EB_CA6B, 0xC2B2_AE35];

/// Subdivision pitch, µm. The random benchmarks place sinks on a
/// `1000·√sinks` µm die, so typical Steiner edges run several hundred
/// µm and split into 2–4 segments at this pitch — enough for pending
/// transforms to compound without blowing up the candidate-node count.
const PITCH_UM: f64 = 700.0;

/// Relative tolerance for the root RAT objective between the eager and
/// deferred evaluation orders (the ISSUE's equal-objective contract).
const REL_TOL: f64 = 1e-9;

#[derive(Clone, Copy)]
enum Gov {
    /// `optimize_with_sizing`: hard caps, no degradation — lazy armed.
    Strict,
    /// Governed with `Budget::unlimited()` — cannot degrade, lazy armed.
    Governed,
    /// Governed with a tight solution budget: the run is degradable, so
    /// lazy wire disarms itself and both runs take the eager path.
    Pressured,
}

impl Gov {
    fn label(self) -> &'static str {
        match self {
            Gov::Strict => "strict",
            Gov::Governed => "governed",
            Gov::Pressured => "pressured",
        }
    }
}

fn run_case(
    tree: &RoutingTree,
    model: &ProcessModel,
    mode: VariationMode,
    rule: &Arc<dyn PruningRule>,
    sizing: &WireSizing,
    gov: Gov,
    use_lazy_wire: bool,
) -> StatResult {
    let options = DpOptions {
        use_lazy_wire,
        ..DpOptions::default()
    };
    match gov {
        Gov::Strict => optimize_with_sizing(tree, model, mode, Arc::clone(rule), sizing, &options)
            .expect("strict run"),
        Gov::Governed | Gov::Pressured => {
            let budget = match gov {
                Gov::Pressured => Budget {
                    soft_solutions: 6,
                    hard_solutions: 24,
                    ..Budget::unlimited()
                },
                _ => Budget::unlimited(),
            };
            optimize_governed_detailed(
                tree,
                model,
                mode,
                fallback_cascade(Arc::clone(rule)),
                sizing,
                &options,
                &budget,
                RunControls::default(),
            )
            .expect("governed run")
            .result
        }
    }
}

/// The equal-objective contract: identical decisions and counts,
/// bit-identical means, objective within `REL_TOL`.
fn assert_equal_objective(label: &str, on: &StatResult, off: &StatResult) {
    assert_eq!(on.assignment, off.assignment, "{label}: assignment");
    assert_eq!(on.wire_widths, off.wire_widths, "{label}: wire widths");
    let (ma, mb) = (on.root_rat.mean(), off.root_rat.mean());
    let mean_scale = ma.abs().max(mb.abs()).max(1.0);
    assert!(
        (ma - mb).abs() <= REL_TOL * mean_scale,
        "{label}: RAT mean diverged beyond {REL_TOL:e} relative: {ma} vs {mb}"
    );
    let (va, vb) = (on.root_rat.variance(), off.root_rat.variance());
    let scale = va.abs().max(vb.abs()).max(1.0);
    assert!(
        (va - vb).abs() <= REL_TOL * scale,
        "{label}: RAT variance diverged beyond {REL_TOL:e} relative: {va} vs {vb}"
    );

    // Solution-count identity: bit-identical means drive every keyed
    // prune and Li–Shi prediction, so the survivor sets —
    // not just the winner — must agree exactly.
    let (a, b) = (&on.stats, &off.stats);
    assert_eq!(a.nodes_processed, b.nodes_processed, "{label}: nodes");
    assert_eq!(
        a.solutions_generated, b.solutions_generated,
        "{label}: solutions generated"
    );
    assert_eq!(
        a.solutions_pruned, b.solutions_pruned,
        "{label}: solutions pruned"
    );
    assert_eq!(
        a.max_solutions_per_node, b.max_solutions_per_node,
        "{label}: peak list size"
    );
    assert_eq!(
        a.pruned_by_dominance, b.pruned_by_dominance,
        "{label}: dominance retirements"
    );
}

/// The stronger contract for cases where the deferred path is
/// guaranteed to materialize exactly where the eager kernel ran.
fn assert_byte_identical(label: &str, on: &StatResult, off: &StatResult) {
    assert_equal_objective(label, on, off);
    assert_eq!(
        on.root_rat.mean().to_bits(),
        off.root_rat.mean().to_bits(),
        "{label}: RAT mean bits"
    );
    assert_eq!(
        on.root_rat.variance().to_bits(),
        off.root_rat.variance().to_bits(),
        "{label}: RAT variance bits"
    );
    assert_eq!(
        on.root_rat.term_count(),
        off.root_rat.term_count(),
        "{label}: term count"
    );
    for (a, b) in on.root_rat.terms().zip(off.root_rat.terms()) {
        assert_eq!(a.0, b.0, "{label}: term source");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "{label}: term coefficient");
    }
}

/// `(name, rule, sinks)` — sink counts mirror the Li–Shi oracle but
/// smaller, because subdivision multiplies candidate nodes.
fn rule_suite() -> Vec<(&'static str, Arc<dyn PruningRule>, usize)> {
    vec![
        (
            "1P",
            Arc::new(OneParam::default()) as Arc<dyn PruningRule>,
            24,
        ),
        (
            "2P",
            Arc::new(TwoParam::default()) as Arc<dyn PruningRule>,
            24,
        ),
        (
            "2P9",
            Arc::new(TwoParam::new(0.9, 0.9)) as Arc<dyn PruningRule>,
            24,
        ),
        (
            "4P",
            Arc::new(FourParam::default()) as Arc<dyn PruningRule>,
            5,
        ),
    ]
}

const GOVS: [Gov; 3] = [Gov::Strict, Gov::Governed, Gov::Pressured];
const KINDS: [SpatialKind; 2] = [SpatialKind::Homogeneous, SpatialKind::Heterogeneous];
const MODES: [VariationMode; 2] = [VariationMode::DieToDie, VariationMode::WithinDie];

#[test]
fn lazy_wire_matches_eager_across_the_verification_matrix() {
    let mut cases = 0usize;
    let single = WireSizing::single();
    let sized = WireSizing::default_three();

    // 144 unsized cases: 4 rules × 3 governance levels × 3 seeds ×
    // 2 spatial kinds × 2 variation modes, all on subdivided
    // (multi-segment) trees.
    for (rule_name, rule, sinks) in rule_suite() {
        for &seed in &SEEDS {
            let tree = generate_benchmark(&BenchmarkSpec::random("lazy-oracle", sinks, seed))
                .subdivided(PITCH_UM);
            for kind in KINDS {
                let model = ProcessModel::paper_defaults(tree.bounding_box(), kind);
                for mode in MODES {
                    for gov in GOVS {
                        let label =
                            format!("{rule_name}/seed{seed:x}/{kind:?}/{mode:?}/{}", gov.label());
                        let on = run_case(&tree, &model, mode, &rule, &single, gov, true);
                        let off = run_case(&tree, &model, mode, &rule, &single, gov, false);
                        assert_equal_objective(&label, &on, &off);
                        if matches!(gov, Gov::Pressured) {
                            // A degradable run disarms the deferral:
                            // both runs took the eager path, so even
                            // the coefficients must agree bitwise.
                            assert_byte_identical(&label, &on, &off);
                        }
                        cases += 1;
                    }
                }
            }
        }
    }

    // 24 sized cases: the 2P rule re-run with the three-width sizing
    // table over 2 seeds. Sizing multiplies the per-segment kernel
    // count, so this is where a broken deferral/materialization pairing
    // would show first.
    let two_p: Arc<dyn PruningRule> = Arc::new(TwoParam::default());
    for &seed in &SEEDS[..2] {
        let tree = generate_benchmark(&BenchmarkSpec::random("lazy-oracle-sized", 24, seed))
            .subdivided(PITCH_UM);
        for kind in KINDS {
            let model = ProcessModel::paper_defaults(tree.bounding_box(), kind);
            for mode in MODES {
                for gov in GOVS {
                    let label = format!("2P-sized/seed{seed:x}/{kind:?}/{mode:?}/{}", gov.label());
                    let on = run_case(&tree, &model, mode, &two_p, &sized, gov, true);
                    let off = run_case(&tree, &model, mode, &two_p, &sized, gov, false);
                    assert_equal_objective(&label, &on, &off);
                    if matches!(gov, Gov::Pressured) {
                        assert_byte_identical(&label, &on, &off);
                    }
                    cases += 1;
                }
            }
        }
    }

    assert_eq!(cases, 168, "oracle matrix must cover exactly 168 cases");
}

/// On unit chains (no subdivision — one segment per Steiner edge) a
/// term-keyed rule materializes every pending transform at the same
/// program point where the eager kernel would have run, and a
/// single-segment materialization performs the identical fadd/fmul
/// sequence. The whole run must therefore be byte-for-byte identical.
/// (`2P` is mean-keyed: its pending transforms survive keyed prunes and
/// compound across edges, so it is exercised by the relative-tolerance
/// matrix above instead.)
#[test]
fn term_keyed_rules_on_unit_chains_are_byte_identical() {
    let suite: Vec<(&str, Arc<dyn PruningRule>, usize)> = vec![
        ("1P", Arc::new(OneParam::default()), 24),
        ("2P9", Arc::new(TwoParam::new(0.9, 0.9)), 24),
        ("4P", Arc::new(FourParam::default()), 6),
    ];
    for (rule_name, rule, sinks) in suite {
        for &seed in &SEEDS {
            let tree = generate_benchmark(&BenchmarkSpec::random("lazy-unit", sinks, seed));
            let model =
                ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous);
            for mode in MODES {
                let label = format!("{rule_name}/seed{seed:x}/{mode:?}");
                let single = WireSizing::single();
                let on = run_case(&tree, &model, mode, &rule, &single, Gov::Strict, true);
                let off = run_case(&tree, &model, mode, &rule, &single, Gov::Strict, false);
                assert_byte_identical(&label, &on, &off);
            }
        }
    }
}

/// Guards against a vacuous oracle: if the deferral never engaged (a
/// broken arming condition would fall back to the eager kernels and
/// every assertion above would pass trivially), multi-segment chains
/// could not show reassociation-level coefficient differences. At least
/// one mean-keyed subdivided case must differ in some variance bit.
#[test]
fn lazy_wire_engages_on_subdivided_chains() {
    let rule: Arc<dyn PruningRule> = Arc::new(TwoParam::default());
    let single = WireSizing::single();
    let mut any_bit_differs = false;
    for &seed in &SEEDS {
        let tree = generate_benchmark(&BenchmarkSpec::random("lazy-engage", 24, seed))
            .subdivided(PITCH_UM);
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous);
        for mode in MODES {
            let on = run_case(&tree, &model, mode, &rule, &single, Gov::Strict, true);
            let off = run_case(&tree, &model, mode, &rule, &single, Gov::Strict, false);
            if on.root_rat.variance().to_bits() != off.root_rat.variance().to_bits() {
                any_bit_differs = true;
            }
        }
    }
    assert!(
        any_bit_differs,
        "no subdivided case showed a reassociation-level difference — \
         the lazy path never engaged and the oracle is vacuous"
    );
}
