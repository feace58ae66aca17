//! The incremental re-optimization golden oracle.
//!
//! Epoch-scoped subtree caching is sold as a *pure speedup*: replaying
//! a clean subtree's cached list must never change what the engine
//! returns — not the winning assignment, not the wire widths, not one
//! bit of the root RAT's canonical form. This suite fuzzes mutation
//! scripts (random sink-cap / sink-RAT / wire-length edits) across
//! seeds × rules × tree sizes × cut plans (flat, and hierarchical with
//! cuts) and, after every edit, compares the incremental replay
//! byte-for-byte against a cold run, then checks the cache actually
//! replayed something (a vacuous pass would prove nothing).

use std::sync::Arc;
use varbuf_core::cache::{run_signature, NodeSigs, SolutionCache};
use varbuf_core::dp::{
    run, DpOptions, Memo, RunControls, RunRequest, RunResult, StatResult, WireSizing,
};
use varbuf_core::hier::{plan_cuts, HierOptions};
use varbuf_core::prune::{FourParam, OneParam, PruningRule, TwoParam};
use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};
use varbuf_rctree::tree::NodeKind;
use varbuf_rctree::{NodeId, RoutingTree};
use varbuf_stats::rng::SplitMix64;
use varbuf_variation::{ProcessModel, SpatialKind, VariationMode};

const SEEDS: [u64; 3] = [0x9E37_79B9, 0x85EB_CA6B, 0xC2B2_AE35];
const EDITS_PER_SCRIPT: usize = 12;

/// (name, signature tag, rule, tree sizes) — one row of the fuzz matrix.
type RuleCase = (&'static str, u64, Arc<dyn PruningRule>, [usize; 2]);

/// Rule × tree-size matrix. 4P runs one net at or below the engine's
/// 4P blowup-guard threshold of 12 sinks (its unconstrained
/// cross-product merge is exact there) and one above it, where both
/// the cold and replayed paths deterministically substitute 2P via the
/// guarded fallback — byte identity must hold across that substitution
/// too.
fn rules() -> Vec<RuleCase> {
    vec![
        ("2p", 2, Arc::new(TwoParam::default()) as _, [24, 48]),
        ("4p", 4, Arc::new(FourParam::default()) as _, [6, 24]),
        ("1p", 1, Arc::new(OneParam::default()) as _, [24, 48]),
    ]
}

/// The governed within-die request of `rule` under the cut plan `hier`.
fn request<'a>(
    tree: &'a RoutingTree,
    model: &'a ProcessModel,
    rule: &Arc<dyn PruningRule>,
    hier: Option<HierOptions>,
) -> RunRequest<'a> {
    RunRequest {
        hier,
        ..RunRequest::new(tree, model, VariationMode::WithinDie, Arc::clone(rule))
    }
}

/// Runs `request` against the session's signatures and cache.
fn warm(
    request: &RunRequest<'_>,
    sigs: &NodeSigs,
    cache: &mut SolutionCache,
    run_sig: u64,
) -> RunResult {
    let memo = Memo {
        sigs,
        cache,
        run_sig,
    };
    let controls = RunControls {
        memo: Some(memo),
        ..RunControls::default()
    };
    run(request, controls).expect("incremental run succeeds")
}

/// Runs `request` cold.
fn cold(request: &RunRequest<'_>) -> RunResult {
    run(request, RunControls::default()).expect("cold run succeeds")
}

fn assert_results_identical(label: &str, inc: &StatResult, cold: &StatResult) {
    assert_eq!(inc.assignment, cold.assignment, "{label}: assignment");
    assert_eq!(inc.wire_widths, cold.wire_widths, "{label}: wire widths");
    assert_eq!(
        inc.root_rat.mean().to_bits(),
        cold.root_rat.mean().to_bits(),
        "{label}: RAT mean bits"
    );
    assert_eq!(
        inc.root_rat.variance().to_bits(),
        cold.root_rat.variance().to_bits(),
        "{label}: RAT variance bits"
    );
    assert_eq!(
        inc.root_rat.term_count(),
        cold.root_rat.term_count(),
        "{label}: term count"
    );
    for (a, b) in inc.root_rat.terms().zip(cold.root_rat.terms()) {
        assert_eq!(a.0, b.0, "{label}: term source");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "{label}: term coefficient");
    }
}

/// One random in-place mutation; returns the edited node.
fn random_edit(tree: &mut RoutingTree, rng: &mut SplitMix64) -> NodeId {
    let sinks: Vec<NodeId> = tree.sinks().collect();
    match rng.below(3) {
        0 => {
            let id = sinks[rng.below(sinks.len())];
            let NodeKind::Sink {
                required_arrival, ..
            } = tree.node(id).kind
            else {
                unreachable!("sinks() yields sinks");
            };
            tree.set_sink(id, rng.uniform(0.5, 20.0), required_arrival);
            id
        }
        1 => {
            let id = sinks[rng.below(sinks.len())];
            let NodeKind::Sink { capacitance, .. } = tree.node(id).kind else {
                unreachable!("sinks() yields sinks");
            };
            tree.set_sink(id, capacitance, rng.uniform(-200.0, 400.0));
            id
        }
        _ => {
            // Any non-root node owns its parent edge.
            let id = NodeId(1 + rng.below(tree.len() - 1) as u32);
            tree.set_edge_length(id, rng.uniform(1.0, 500.0));
            id
        }
    }
}

/// The cut plans each script runs under: flat, and a hierarchical
/// plan small enough to cut the 24- and 48-sink nets.
fn cut_plans() -> [Option<HierOptions>; 2] {
    [
        None,
        Some(HierOptions {
            cut_nodes: 12,
            ..HierOptions::default()
        }),
    ]
}

/// Replays a fuzzed mutation script, asserting after every edit that
/// the incremental replay is byte-identical to a cold run.
#[test]
fn mutation_fuzz_replay_matches_cold() {
    let options = DpOptions::default();
    let sizing = WireSizing::single();
    let mut cases = 0usize;
    let mut total_hits = 0usize;
    for hier in cut_plans() {
        for seed in SEEDS {
            for (rule_name, rule_tag, rule, sizes) in rules() {
                for sinks in sizes {
                    let plan = if hier.is_some() { "cut" } else { "flat" };
                    let name = format!("fuzz-{seed:x}-{sinks}-{rule_name}");
                    let mut tree = generate_benchmark(&BenchmarkSpec::random(&name, sinks, seed));
                    if let Some(h) = &hier {
                        if sinks >= 24 {
                            assert!(plan_cuts(&tree, h).contains(&true), "{name}: no cuts");
                        }
                    }
                    let name = format!("{name}-{plan}");
                    let model = ProcessModel::paper_defaults(
                        tree.bounding_box(),
                        SpatialKind::Heterogeneous,
                    );
                    let mut rng = SplitMix64::new(seed ^ sinks as u64 ^ rule_tag);
                    let mut sigs = NodeSigs::build(&tree);
                    let mut cache = SolutionCache::new();
                    let run_sig = run_signature(
                        rule_tag,
                        2, // within-die
                        options.sparsify_epsilon,
                        sizing.widths().len(),
                        options.use_lazy_wire,
                        hier.as_ref(),
                        0,
                    );
                    for step in 0..EDITS_PER_SCRIPT {
                        let edited = random_edit(&mut tree, &mut rng);
                        for id in sigs.update_path(&tree, edited) {
                            cache.invalidate(id);
                        }
                        let req = request(&tree, &model, &rule, hier);
                        let inc = warm(&req, &sigs, &mut cache, run_sig);
                        let cold = cold(&req);
                        let label = format!("{name} step {step}");
                        assert!(!inc.degradation.degraded(), "{label}: degraded");
                        assert_results_identical(&label, &inc.result, &cold.result);
                        assert_eq!(
                            inc.result.stats.cache_hits + inc.result.stats.cache_misses,
                            tree.len(),
                            "{label}: hit/miss partition"
                        );
                        total_hits += inc.result.stats.cache_hits;
                        cases += 1;
                    }
                }
            }
        }
    }
    assert!(cases >= 200, "fuzz matrix shrank to {cases} cases");
    // Non-vacuity: after the first (cold) step of each script, edits
    // dirty only a root path, so replays must dominate.
    assert!(
        total_hits > cases,
        "cache never replayed anything ({total_hits} hits over {cases} cases)"
    );
}

/// Re-optimizing with no intervening edit replays every node.
#[test]
fn replay_without_edit_is_all_hits() {
    let tree = generate_benchmark(&BenchmarkSpec::random("warm", 32, 7));
    let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous);
    let options = DpOptions::default();
    let sizing = WireSizing::single();
    let sigs = NodeSigs::build(&tree);
    let mut cache = SolutionCache::new();
    let run_sig = run_signature(
        2,
        2,
        options.sparsify_epsilon,
        sizing.widths().len(),
        options.use_lazy_wire,
        None,
        0,
    );
    let two: Arc<dyn PruningRule> = Arc::new(TwoParam::default());
    let req = request(&tree, &model, &two, None);
    let run = |cache: &mut SolutionCache| warm(&req, &sigs, cache, run_sig);
    let first = run(&mut cache);
    assert_eq!(first.result.stats.cache_hits, 0);
    assert_eq!(first.result.stats.cache_misses, tree.len());
    let second = run(&mut cache);
    assert_eq!(second.result.stats.cache_hits, tree.len());
    assert_eq!(second.result.stats.cache_misses, 0);
    assert_results_identical("warm replay", &second.result, &first.result);
}

/// A changed run signature (different rule, mode, or model epoch)
/// flushes the cache instead of replaying foreign lists.
#[test]
fn run_signature_mismatch_flushes() {
    // Small net: the 4P side of the crossover runs unconstrained.
    let tree = generate_benchmark(&BenchmarkSpec::random("sig", 6, 3));
    let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous);
    let options = DpOptions::default();
    let sizing = WireSizing::single();
    let sigs = NodeSigs::build(&tree);
    let mut cache = SolutionCache::new();
    let sig_a = run_signature(
        2,
        2,
        options.sparsify_epsilon,
        sizing.widths().len(),
        options.use_lazy_wire,
        None,
        0,
    );
    let sig_b = run_signature(
        4,
        2,
        options.sparsify_epsilon,
        sizing.widths().len(),
        options.use_lazy_wire,
        None,
        0,
    );
    assert_ne!(sig_a, sig_b);
    let (two, four): (Arc<dyn PruningRule>, Arc<dyn PruningRule>) = (
        Arc::new(TwoParam::default()),
        Arc::new(FourParam::default()),
    );
    warm(
        &request(&tree, &model, &two, None),
        &sigs,
        &mut cache,
        sig_a,
    );
    let four = request(&tree, &model, &four, None);
    let cross = warm(&four, &sigs, &mut cache, sig_b);
    assert_eq!(cross.result.stats.cache_hits, 0, "foreign lists replayed");
    let cold = cold(&four);
    assert_results_identical("post-flush 4p", &cross.result, &cold.result);
}

/// Chain rows: the same byte-identity check on subdivided nets, whose
/// candidate chains put single-child parents on every edge. A
/// single-child parent buffers into its child's lifted list, so a
/// replay there hands it an owned copy of the cached list, while a
/// merge parent reads its cached operands in place; both must replay
/// the cold bits, under 2P and 1P, flat and with cuts, and wire edits
/// land on chain nodes as well as on Steiner edges.
#[test]
fn chain_fuzz_replay_matches_cold() {
    let options = DpOptions::default();
    let sizing = WireSizing::single();
    let chain_rules: [(&str, u64, Arc<dyn PruningRule>); 2] = [
        ("2p", 2, Arc::new(TwoParam::default())),
        ("1p", 1, Arc::new(OneParam::default())),
    ];
    let mut cases = 0usize;
    let mut total_hits = 0usize;
    let mut parked_runs = 0usize;
    let mut chain_edits = 0usize;
    for hier in cut_plans() {
        for seed in SEEDS {
            for (rule_name, rule_tag, rule) in &chain_rules {
                let plan = if hier.is_some() { "cut" } else { "flat" };
                let name = format!("chain-{seed:x}-{rule_name}-{plan}");
                let mut tree =
                    generate_benchmark(&BenchmarkSpec::random(&name, 16, seed)).subdivided(250.0);
                let chain_links = tree
                    .iter()
                    .filter(|(id, n)| *id != tree.root() && n.children.len() == 1)
                    .count();
                assert!(
                    chain_links > tree.len() / 4,
                    "{name}: {chain_links} chain links"
                );
                if let Some(h) = &hier {
                    assert!(plan_cuts(&tree, h).contains(&true), "{name}: no cuts");
                }
                let model =
                    ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous);
                let mut rng = SplitMix64::new(seed ^ rule_tag);
                let mut sigs = NodeSigs::build(&tree);
                let mut cache = SolutionCache::new();
                let run_sig = run_signature(
                    *rule_tag,
                    2, // within-die
                    options.sparsify_epsilon,
                    sizing.widths().len(),
                    options.use_lazy_wire,
                    hier.as_ref(),
                    0,
                );
                for step in 0..EDITS_PER_SCRIPT {
                    let edited = random_edit(&mut tree, &mut rng);
                    // A wire edit on a chain node leaves its only child
                    // clean: the replay hands that child's cached list to
                    // a single-child parent.
                    chain_edits += usize::from(tree.node(edited).children.len() == 1);
                    for id in sigs.update_path(&tree, edited) {
                        cache.invalidate(id);
                    }
                    let req = request(&tree, &model, rule, hier);
                    let inc = warm(&req, &sigs, &mut cache, run_sig);
                    let cold = cold(&req);
                    let label = format!("{name} step {step}");
                    assert!(!inc.degradation.degraded(), "{label}: degraded");
                    assert_results_identical(&label, &inc.result, &cold.result);
                    // A replayed cut node parks what its cold run parked,
                    // and a skipped subtree parks nothing, so a warm run
                    // never parks more than a cold one.
                    assert!(
                        inc.degradation.peak_chunk_bytes <= cold.degradation.peak_chunk_bytes,
                        "{label}: parked bytes"
                    );
                    if hier.is_some() {
                        parked_runs += usize::from(inc.degradation.peak_chunk_bytes > 0);
                    }
                    assert_eq!(
                        inc.result.stats.cache_hits + inc.result.stats.cache_misses,
                        tree.len(),
                        "{label}: hit/miss partition"
                    );
                    total_hits += inc.result.stats.cache_hits;
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 2 * SEEDS.len() * 2 * EDITS_PER_SCRIPT);
    assert!(parked_runs > cases / 4, "warm cut runs parked nothing");
    assert!(chain_edits > 0, "no edit left a chain child clean");
    assert!(
        total_hits > cases,
        "cache never replayed anything ({total_hits} hits over {cases} cases)"
    );
}
