//! The Li–Shi generation-skip golden oracle.
//!
//! The skip (see `DpOptions::use_lishi`) predicts a buffered candidate's
//! scalar keys before building its canonical forms and drops it when a
//! listed solution already shadows it under the keyed prune sweep. It
//! is sold as a *pure speedup*: toggling it must never
//! change what the engine returns — not the winning assignment, not the
//! wire widths, not one bit of the root RAT's canonical form. This
//! suite replays the repo's 336-case verification matrix (rules ×
//! governance × jobs × seeds × spatial kinds × variation modes, plus a
//! wire-sizing subset) with `use_lishi` on and off and asserts
//! byte-for-byte identity, then checks the skip actually fired
//! somewhere (a vacuous pass would prove nothing).
//!
//! Arming is narrow: besides disarming under a
//! degradable (pressured) governor, the skip only runs for rules whose
//! scalar keys are plain means — in this matrix, the default 2P rule.
//! Percentile-keyed rules (1P, 2P9) and the 4P partial order must
//! report zero skips even when armed.

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

#[derive(Clone, Copy)]
enum Gov {
    /// `optimize_with_sizing`: hard caps, no degradation — skip armed.
    Strict,
    /// Governed with `Budget::unlimited()` — cannot degrade, skip armed.
    Governed,
    /// Governed with a tight solution budget — the degradation schedule
    /// keys off pre-prune list sizes, so the skip must disarm itself.
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

    fn armed(self) -> bool {
        !matches!(self, Gov::Pressured)
    }
}

#[allow(clippy::too_many_arguments)]
fn run_case(
    tree: &RoutingTree,
    model: &ProcessModel,
    mode: VariationMode,
    rule: &Arc<dyn PruningRule>,
    sizing: &WireSizing,
    gov: Gov,
    jobs: usize,
    use_lishi: bool,
) -> StatResult {
    let options = DpOptions {
        jobs,
        // Forced so single-thread hosts still cover the parallel engine.
        jobs_force: true,
        use_lishi,
        ..DpOptions::default()
    };
    match gov {
        Gov::Strict => optimize_with_sizing(tree, model, mode, rule.as_ref(), sizing, &options)
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

fn assert_results_identical(label: &str, on: &StatResult, off: &StatResult) {
    assert_eq!(on.assignment, off.assignment, "{label}: assignment");
    assert_eq!(on.wire_widths, off.wire_widths, "{label}: wire widths");
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

/// `(name, rule, sinks, mean_keyed)` — the last field says whether the
/// skip is allowed to fire at all under this rule.
fn rule_suite() -> Vec<(&'static str, Arc<dyn PruningRule>, usize, bool)> {
    vec![
        (
            "1P",
            Arc::new(OneParam::default()) as Arc<dyn PruningRule>,
            40,
            false,
        ),
        (
            "2P",
            Arc::new(TwoParam::default()) as Arc<dyn PruningRule>,
            40,
            true,
        ),
        (
            "2P9",
            Arc::new(TwoParam::new(0.9, 0.9)) as Arc<dyn PruningRule>,
            40,
            false,
        ),
        (
            "4P",
            Arc::new(FourParam::default()) as Arc<dyn PruningRule>,
            6,
            false,
        ),
    ]
}

const GOVS: [Gov; 3] = [Gov::Strict, Gov::Governed, Gov::Pressured];
const JOBS: [usize; 2] = [1, 4];
const KINDS: [SpatialKind; 2] = [SpatialKind::Homogeneous, SpatialKind::Heterogeneous];
const MODES: [VariationMode; 2] = [VariationMode::DieToDie, VariationMode::WithinDie];

#[test]
fn lishi_skip_never_changes_any_output_bit() {
    let mut cases = 0usize;
    let mut skipped_total = 0usize;
    let single = WireSizing::single();
    let sized = WireSizing::default_three();

    // 288 unsized cases: 4 rules × 3 governance levels × 2 jobs ×
    // 3 seeds × 2 spatial kinds × 2 variation modes.
    for (rule_name, rule, sinks, mean_keyed) in rule_suite() {
        for &seed in &SEEDS {
            let tree = generate_benchmark(&BenchmarkSpec::random("oracle", sinks, seed));
            for kind in KINDS {
                let model = ProcessModel::paper_defaults(tree.bounding_box(), kind);
                for mode in MODES {
                    for gov in GOVS {
                        for jobs in JOBS {
                            let label = format!(
                                "{rule_name}/seed{seed:x}/{kind:?}/{mode:?}/{}/jobs{jobs}",
                                gov.label()
                            );
                            let on = run_case(&tree, &model, mode, &rule, &single, gov, jobs, true);
                            let off =
                                run_case(&tree, &model, mode, &rule, &single, gov, jobs, false);
                            assert_results_identical(&label, &on, &off);
                            if gov.armed() && mean_keyed {
                                skipped_total += on.stats.lishi_skipped;
                            } else {
                                assert_eq!(
                                    on.stats.lishi_skipped, 0,
                                    "{label}: skip must stay disarmed (pressured governor \
                                     or non-mean-keyed rule)"
                                );
                            }
                            assert_eq!(
                                off.stats.lishi_skipped, 0,
                                "{label}: disabled runs must not skip"
                            );
                            cases += 1;
                        }
                    }
                }
            }
        }
    }

    // 48 sized cases: the 2P rule re-run with the three-width sizing
    // table over 2 seeds (sizing multiplies the buffered-candidate
    // count per node, so this is where an unsound skip would show
    // first).
    let two_p: Arc<dyn PruningRule> = Arc::new(TwoParam::default());
    for &seed in &SEEDS[..2] {
        let tree = generate_benchmark(&BenchmarkSpec::random("oracle-sized", 40, seed));
        for kind in KINDS {
            let model = ProcessModel::paper_defaults(tree.bounding_box(), kind);
            for mode in MODES {
                for gov in GOVS {
                    for jobs in JOBS {
                        let label = format!(
                            "2P-sized/seed{seed:x}/{kind:?}/{mode:?}/{}/jobs{jobs}",
                            gov.label()
                        );
                        let on = run_case(&tree, &model, mode, &two_p, &sized, gov, jobs, true);
                        let off = run_case(&tree, &model, mode, &two_p, &sized, gov, jobs, false);
                        assert_results_identical(&label, &on, &off);
                        if gov.armed() {
                            skipped_total += on.stats.lishi_skipped;
                        } else {
                            assert_eq!(
                                on.stats.lishi_skipped, 0,
                                "{label}: pressured runs must disarm the skip"
                            );
                        }
                        cases += 1;
                    }
                }
            }
        }
    }

    assert_eq!(cases, 336, "oracle matrix must cover exactly 336 cases");
    assert!(
        skipped_total > 0,
        "the Li–Shi skip never fired across the armed mean-keyed matrix — \
         the oracle is vacuous"
    );
}
