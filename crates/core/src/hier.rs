//! Hierarchical decomposition for full-chip-scale buffer insertion.
//!
//! The flat DP's peak memory is `O(largest candidate list × live
//! lists)` — acceptable at the paper's net sizes, hostile at the 64k
//! sinks a clock tree brings. This module bounds it structurally:
//!
//! * [`plan_cuts`] partitions the routing tree at *cut nodes* chosen by
//!   accumulated subtree size and fanout, so the tree becomes a forest
//!   of bounded regions solved bottom-up by the existing
//!   [`process_node`] engine;
//! * at each cut node the surviving Pareto frontier is **spliced**: an
//!   epsilon-bounded thinning keeps a representative subset (the best-
//!   RAT survivor always included) capped at
//!   [`HierOptions::frontier_cap`] entries, so what a region exports
//!   upward is a bounded frontier, not its full candidate list;
//! * spliced frontiers are parked in chunked streaming lists
//!   ([`ChunkedList`]) charged byte-by-byte to a shared
//!   [`ChunkLedger`], making "frontier memory resident right now" one
//!   ledger read; when the ledger crosses the budget's soft memory
//!   limit the frontier cap halves for subsequent splices, and the
//!   high-water mark is reported as
//!   [`Degradation::peak_chunk_bytes`].
//!
//! The contract with the flat engine: with decomposition disabled
//! ([`HierOptions::disabled`], or a tree that produces no cuts) the run
//! delegates to [`optimize_governed_detailed`] and is byte-identical to
//! it; with decomposition on, the root objective is within an epsilon
//! bounded by the splice parameters (pinned by the `hier_oracle`
//! suite).

use crate::dp::{
    finish_governed, governed_setup, materialize_list, optimize_governed_detailed, process_node,
    select_winner, DpOptions, GovSupervisor, GovernedResult, RunControls, RunCtx, SolPool,
    StatResult, Supervisor, WireSizing,
};
use crate::error::InsertionError;
use crate::faultinject::FaultInjector;
use crate::governor::{solution_footprint, truncate_spread, Budget, Degradation};
use crate::metrics::DpStats;
use crate::prune::PruningRule;
use crate::solution::{ChunkLedger, ChunkedList, StatSolution};
use std::sync::Arc;
use varbuf_rctree::RoutingTree;
use varbuf_variation::{ProcessModel, VariationMode};

/// Decomposition knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierOptions {
    /// Accumulated-subtree-size threshold: a node whose region has
    /// grown to at least this many nodes becomes a cut. `0` disables
    /// decomposition entirely (byte-identical delegation to the flat
    /// engine).
    pub cut_nodes: usize,
    /// Fanout threshold: a node with at least this many children
    /// becomes a cut regardless of region size (`0` = never by fanout).
    pub fanout_cut: usize,
    /// Relative epsilon of the frontier thinning at cut nodes, as a
    /// fraction of the frontier's load/RAT key spans. A dropped
    /// candidate is within this distance of a kept one on both axes.
    pub splice_epsilon: f64,
    /// Hard cap on the solutions a cut node exports upward (spread-
    /// preserving truncation past the epsilon thinning). Halved — down
    /// to a floor of 4 — each time parked-frontier memory crosses the
    /// budget's soft memory limit.
    pub frontier_cap: usize,
}

impl HierOptions {
    /// Decomposition off: the run delegates to the flat engine.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            cut_nodes: 0,
            ..Self::default()
        }
    }

    /// Whether this configuration can produce cuts at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.cut_nodes > 0
    }
}

impl Default for HierOptions {
    fn default() -> Self {
        Self {
            cut_nodes: 2048,
            fanout_cut: 8,
            splice_epsilon: 1e-4,
            frontier_cap: 64,
        }
    }
}

/// What the decomposition did on one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierReport {
    /// Cut nodes the planner selected (0 = the run was effectively
    /// flat, whether by configuration or tree shape).
    pub cut_count: usize,
    /// Solutions dropped by frontier splicing across all cuts.
    pub spliced_dropped: usize,
    /// High-water mark of bytes parked in streaming chunks.
    pub peak_chunk_bytes: usize,
    /// The frontier cap in force at the end of the run (smaller than
    /// the configured cap when memory pressure halved it).
    pub final_frontier_cap: usize,
}

/// A hierarchical run's outcome: the design, the governed-degradation
/// report, and the decomposition report.
#[derive(Debug, Clone)]
pub struct HierResult {
    /// The winning design.
    pub result: StatResult,
    /// Budget-driven relaxations (as for [`optimize_governed_detailed`]).
    pub degradation: Degradation,
    /// What the decomposition itself did.
    pub hier: HierReport,
}

impl HierResult {
    /// Collapses to the flat engine's result shape (the batch pool's
    /// common currency), keeping the degradation report.
    #[must_use]
    pub fn into_governed(self) -> GovernedResult {
        GovernedResult {
            result: self.result,
            degradation: self.degradation,
        }
    }
}

/// Selects cut nodes: a postorder sweep accumulates region weight
/// (1 per node plus the *residual* weight of each child — a child that
/// is itself a cut contributes 1, its region having been exported);
/// a non-root node cuts when its region reaches `cut_nodes` nodes or
/// its fanout reaches `fanout_cut`. Returns a `tree.len()`-indexed cut
/// mask. Deterministic in the tree and options.
#[must_use]
pub fn plan_cuts(tree: &RoutingTree, hier: &HierOptions) -> Vec<bool> {
    let mut cuts = vec![false; tree.len()];
    if !hier.enabled() {
        return cuts;
    }
    let mut residual = vec![0usize; tree.len()];
    let root = tree.root();
    for id in tree.postorder() {
        let node = tree.node(id);
        let mut weight = 1usize;
        for &c in &node.children {
            weight += residual[c.index()];
        }
        let by_size = weight >= hier.cut_nodes;
        let by_fanout = hier.fanout_cut > 0 && node.children.len() >= hier.fanout_cut;
        if id != root && (by_size || by_fanout) {
            cuts[id.index()] = true;
            residual[id.index()] = 1;
        } else {
            residual[id.index()] = weight;
        }
    }
    cuts
}

/// Epsilon-bounded frontier thinning at a cut node, then a spread-
/// preserving truncation to `cap`. The list is load-key sorted on
/// return. Returns how many solutions were dropped.
///
/// Thinning keeps the first (lowest-load) and last (best-RAT, by the
/// Pareto ordering keyed pruning maintains) entries unconditionally and
/// drops any interior entry within `epsilon × span` of the last kept
/// one on *both* key axes — so every dropped candidate has a kept
/// representative within the epsilon box, which is what bounds the
/// splice's objective error.
fn splice_compact(
    rule: &dyn PruningRule,
    sols: &mut Vec<StatSolution>,
    epsilon: f64,
    cap: usize,
) -> usize {
    let before = sols.len();
    if sols.len() > 2 && epsilon > 0.0 {
        sols.sort_by(|a, b| rule.load_key(a).total_cmp(&rule.load_key(b)));
        let load_span = (rule.load_key(&sols[sols.len() - 1]) - rule.load_key(&sols[0])).abs();
        let rat_span = sols
            .iter()
            .map(|s| rule.rat_key(s))
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), k| {
                (lo.min(k), hi.max(k))
            });
        let rat_span = rat_span.1 - rat_span.0;
        if load_span.is_finite() && rat_span.is_finite() {
            let gap_load = epsilon * load_span;
            let gap_rat = epsilon * rat_span;
            let last_idx = sols.len() - 1;
            let mut last_load = rule.load_key(&sols[0]);
            let mut last_rat = rule.rat_key(&sols[0]);
            let mut keep_idx = 0usize;
            sols.retain(|s| {
                let i = keep_idx;
                keep_idx += 1;
                if i == 0 || i == last_idx {
                    last_load = rule.load_key(s);
                    last_rat = rule.rat_key(s);
                    return true;
                }
                let load = rule.load_key(s);
                let rat = rule.rat_key(s);
                if (load - last_load).abs() <= gap_load && (rat - last_rat).abs() <= gap_rat {
                    return false;
                }
                last_load = load;
                last_rat = rat;
                true
            });
        }
    }
    truncate_spread(rule, sols, cap);
    before - sols.len()
}

/// Hierarchical governed optimization. With decomposition disabled (or
/// a tree the planner leaves uncut) this *is*
/// [`optimize_governed_detailed`] — same bytes out; with cuts, each
/// region is solved by the flat per-node engine and exports an
/// epsilon-spliced, capped frontier parked in budget-charged chunks.
///
/// # Errors
///
/// Same as [`optimize_governed_detailed`].
///
/// # Panics
///
/// Panics if `cascade` is empty.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub fn optimize_hier(
    tree: &RoutingTree,
    model: &ProcessModel,
    mode: VariationMode,
    cascade: Vec<Arc<dyn PruningRule>>,
    sizing: &WireSizing,
    options: &DpOptions,
    hier: &HierOptions,
    budget: &Budget,
    controls: RunControls<'_>,
) -> Result<HierResult, InsertionError> {
    let cuts = plan_cuts(tree, hier);
    let cut_count = cuts.iter().filter(|&&c| c).count();
    if cut_count == 0 {
        // Byte-identity contract: no decomposition means the flat
        // engine, not a reimplementation of it.
        let flat = optimize_governed_detailed(
            tree, model, mode, cascade, sizing, options, budget, controls,
        )?;
        return Ok(HierResult {
            result: flat.result,
            degradation: flat.degradation,
            hier: HierReport {
                final_frontier_cap: hier.frontier_cap,
                ..HierReport::default()
            },
        });
    }

    tree.validate()?;
    if tree.sink_count() == 0 {
        return Err(InsertionError::NoSinks);
    }

    let (mut governor, guard, faults) = governed_setup(tree, cascade, options, budget, controls);
    let ctx = RunCtx::new(
        tree,
        model,
        mode,
        sizing,
        options,
        &governor,
        faults.is_some(),
    );

    let ledger = Arc::new(ChunkLedger::new());
    let mut parked: Vec<Option<ChunkedList>> = Vec::new();
    parked.resize_with(tree.len(), || None);
    let mut lists: Vec<Vec<StatSolution>> = vec![Vec::new(); tree.len()];
    let mut pool = SolPool::default();
    let mut stats = DpStats::default();
    let mut spliced_dropped = 0usize;
    let mut live_cap = hier.frontier_cap.max(1);

    let walk = |sup: &mut GovSupervisor<'_, '_>,
                mut faults: Option<&mut FaultInjector>,
                lists: &mut Vec<Vec<StatSolution>>,
                parked: &mut Vec<Option<ChunkedList>>,
                pool: &mut SolPool,
                stats: &mut DpStats,
                spliced_dropped: &mut usize,
                live_cap: &mut usize|
     -> Result<(), crate::dp::EngineInterrupt> {
        for id in tree.postorder() {
            let children: Vec<Vec<StatSolution>> = tree
                .node(id)
                .children
                .iter()
                .map(|&c| match parked[c.index()].take() {
                    Some(frontier) => frontier.into_vec(),
                    None => std::mem::take(&mut lists[c.index()]),
                })
                .collect();
            let mut sols =
                process_node(&ctx, sup, id, children, faults.as_deref_mut(), pool, stats)?;
            if cuts[id.index()] {
                // A parked frontier outlives its region's DP, so any
                // deferred wire coupling must land *before* the splice:
                // the epsilon thinning and the bytes charged to the
                // chunk ledger must both see settled solutions, not
                // pending ones whose RAT terms (and footprint) are
                // still about to grow.
                materialize_list(&mut sols, sup.epsilon(), stats);
                // Splice: thin the region's frontier, free the dropped
                // footprint from the governor's live estimate, park the
                // survivors in budget-charged chunks.
                let footprint_before: usize = sols.iter().map(solution_footprint).sum();
                let rh = sup.rule();
                *spliced_dropped +=
                    splice_compact(rh.get(), &mut sols, hier.splice_epsilon, *live_cap);
                let footprint_after: usize = sols.iter().map(solution_footprint).sum();
                sup.note_memory(&[], footprint_before - footprint_after);
                let mut frontier = ChunkedList::with_ledger(Arc::clone(&ledger));
                for s in sols.drain(..) {
                    let bytes = solution_footprint(&s);
                    frontier.push(s, bytes);
                }
                pool.put(sols);
                sup.governor.note_chunk_bytes(ledger.live());
                if ledger.live() > sup.governor.budget().soft_mem_bytes {
                    *live_cap = (*live_cap / 2).max(4);
                }
                parked[id.index()] = Some(frontier);
            } else {
                lists[id.index()] = sols;
            }
        }
        Ok(())
    };

    {
        let mut sup = GovSupervisor {
            static_rule: None,
            governor: &mut governor,
        };
        walk(
            &mut sup,
            faults,
            &mut lists,
            &mut parked,
            &mut pool,
            &mut stats,
            &mut spliced_dropped,
            &mut live_cap,
        )
        .map_err(crate::dp::EngineInterrupt::into_error)?;
    }

    stats.runtime = governor.elapsed();
    stats.jobs_requested = options.jobs.max(1);
    stats.jobs_effective = 1;
    let result = select_winner(tree, options, &mut lists[tree.root().index()], stats);
    let GovernedResult {
        result,
        mut degradation,
    } = finish_governed(result, governor, guard);
    degradation.peak_chunk_bytes = degradation.peak_chunk_bytes.max(ledger.peak());
    Ok(HierResult {
        result,
        degradation,
        hier: HierReport {
            cut_count,
            spliced_dropped,
            peak_chunk_bytes: ledger.peak(),
            final_frontier_cap: live_cap,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};

    #[test]
    fn plan_cuts_disabled_produces_none() {
        let tree = generate_benchmark(&BenchmarkSpec::random("cuts-off", 64, 1));
        let cuts = plan_cuts(&tree, &HierOptions::disabled());
        assert!(cuts.iter().all(|&c| !c));
    }

    #[test]
    fn plan_cuts_bounds_region_size() {
        let tree = generate_benchmark(&BenchmarkSpec::random("cuts", 256, 9));
        let hier = HierOptions {
            cut_nodes: 32,
            fanout_cut: 0,
            ..HierOptions::default()
        };
        let cuts = plan_cuts(&tree, &hier);
        assert!(cuts.iter().any(|&c| c), "a 256-sink tree must cut at 32");
        assert!(!cuts[tree.root().index()], "the root is never a cut");
        // Re-walk the residual accumulation: no region may exceed the
        // threshold plus one node per child boundary.
        let mut residual = vec![0usize; tree.len()];
        for id in tree.postorder() {
            let node = tree.node(id);
            let mut w = 1usize;
            for &c in &node.children {
                w += residual[c.index()];
            }
            residual[id.index()] = if cuts[id.index()] { 1 } else { w };
            if !cuts[id.index()] && id != tree.root() {
                assert!(w < hier.cut_nodes + node.children.len().max(1) * hier.cut_nodes);
            }
        }
    }

    #[test]
    fn splice_compact_keeps_best_rat_and_caps() {
        use crate::prune::TwoParam;
        use varbuf_stats::CanonicalForm;
        let rule = TwoParam::default();
        let mut sols: Vec<StatSolution> = (0..500)
            .map(|i| {
                StatSolution::new(
                    CanonicalForm::constant(f64::from(i)),
                    CanonicalForm::constant(-900.0 + f64::from(i)),
                )
            })
            .collect();
        let best_before = sols
            .iter()
            .map(StatSolution::rat_mean)
            .fold(f64::NEG_INFINITY, f64::max);
        let dropped = splice_compact(&rule, &mut sols, 1e-2, 32);
        assert!(sols.len() <= 32);
        assert_eq!(dropped, 500 - sols.len());
        let best_after = sols
            .iter()
            .map(StatSolution::rat_mean)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(best_before, best_after, "best-RAT survivor is mandatory");
    }
}
