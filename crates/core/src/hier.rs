//! Hierarchical decomposition for full-chip-scale buffer insertion.
//!
//! The flat DP's peak memory is `O(largest candidate list × live
//! lists)` — acceptable at the paper's net sizes, hostile at the 64k
//! sinks a clock tree brings. This module bounds it structurally:
//!
//! * [`plan_cuts`] partitions the routing tree at *cut nodes* chosen by
//!   accumulated subtree size and fanout, so the tree becomes a forest
//!   of bounded regions solved bottom-up by the engine's one walk;
//! * at each cut node the surviving Pareto frontier is **spliced**: an
//!   epsilon-bounded thinning keeps a representative subset (the best-
//!   RAT survivor always included) capped at
//!   [`HierOptions::frontier_cap`] entries, so what a region exports
//!   upward is a bounded frontier, not its full candidate list;
//! * a spliced frontier stays parked on the walk's stack until its
//!   parent takes it, and its bytes are counted while it waits (a
//!   replayed cut node counts the bytes its cold run parked);
//!   when the parked bytes cross the budget's soft memory limit the
//!   frontier cap halves for subsequent splices, and the high-water
//!   mark is reported as [`HierReport::peak_chunk_bytes`].
//!
//! The contract with the flat engine: with decomposition disabled
//! ([`HierOptions::disabled`], or a tree that produces no cuts) the run
//! is the flat walk of [`crate::dp::run`] and byte-identical to it; with
//! decomposition on, the root objective is within an epsilon bounded by
//! the splice parameters (pinned by the `hier_oracle` suite).

use crate::dp::{materialize_list, run, DpOptions, RunControls, RunRequest, RunResult, WireSizing};
use crate::error::InsertionError;
use crate::governor::{solution_footprint, truncate_spread, Budget, Governor};
use crate::metrics::DpStats;
use crate::prune::PruningRule;
use crate::solution::StatSolution;
use std::sync::Arc;
use varbuf_rctree::{NodeId, RoutingTree};
use varbuf_variation::{ProcessModel, VariationMode};

/// Decomposition knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierOptions {
    /// Accumulated-subtree-size threshold: a node whose region has
    /// grown to at least this many nodes becomes a cut. `0` disables
    /// decomposition entirely (the run is the flat engine's, byte for
    /// byte).
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
    /// Decomposition off: the run is the flat engine's.
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
    /// High-water mark of bytes parked in spliced cut-node frontiers.
    pub peak_chunk_bytes: usize,
    /// The frontier cap in force at the end of the run (smaller than
    /// the configured cap when memory pressure halved it).
    pub final_frontier_cap: usize,
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

/// A hierarchical run's cut plan and splice state, threaded through the
/// engine walk: the [`plan_cuts`] mask, the frontier cap in force, and
/// the bytes parked in cut-node slots right now.
pub(crate) struct Cuts {
    mask: Vec<bool>,
    count: usize,
    splice_epsilon: f64,
    cap: usize,
    dropped: usize,
    parked: usize,
}

impl Cuts {
    /// The cut plan for `tree`, or `None` when the planner leaves it
    /// uncut — the run is then flat.
    pub(crate) fn plan(tree: &RoutingTree, hier: &HierOptions) -> Option<Self> {
        let mask = plan_cuts(tree, hier);
        let count = mask.iter().filter(|&&c| c).count();
        (count > 0).then(|| Self {
            mask,
            count,
            splice_epsilon: hier.splice_epsilon,
            cap: hier.frontier_cap.max(1),
            dropped: 0,
            parked: 0,
        })
    }

    /// Whether `id` is a cut node.
    pub(crate) fn is_cut(&self, id: NodeId) -> bool {
        self.mask[id.index()]
    }

    /// Splices a cut node's freshly computed list and parks it: lands
    /// its deferred wire coupling, thins it, frees the dropped footprint
    /// from the governor's live estimate, and counts the rest as parked.
    /// Returns the parked bytes.
    pub(crate) fn splice(
        &mut self,
        governor: &mut Governor,
        sols: &mut Vec<StatSolution>,
        stats: &mut DpStats,
    ) -> usize {
        // A parked frontier outlives its region's DP, so the epsilon
        // thinning and the parked bytes must both see settled
        // solutions, not pending ones whose RAT terms (and footprint)
        // are still about to grow.
        materialize_list(sols, governor.epsilon(), stats);
        let before: usize = sols.iter().map(solution_footprint).sum();
        self.dropped += splice_compact(
            &*governor.active_rule(),
            sols,
            self.splice_epsilon,
            self.cap,
        );
        let after: usize = sols.iter().map(solution_footprint).sum();
        governor.note_memory(&[], before - after);
        self.park(governor, after);
        after
    }

    /// Counts `bytes` more as parked in cut-node slots (a fresh splice,
    /// or a replayed cut node's recorded bytes), and halves the frontier
    /// cap (floor 4) while parked bytes exceed the budget's soft memory
    /// limit.
    pub(crate) fn park(&mut self, governor: &mut Governor, bytes: usize) {
        self.parked += bytes;
        governor.note_chunk_bytes(self.parked);
        if self.parked > governor.budget().soft_mem_bytes {
            self.cap = (self.cap / 2).max(4);
        }
    }

    /// Uncounts `bytes` of parked frontier as the parent takes it.
    pub(crate) fn release(&mut self, bytes: usize) {
        self.parked -= bytes;
    }

    /// The run's decomposition report, given the governor's high-water
    /// mark of parked bytes.
    pub(crate) fn report(&self, peak_chunk_bytes: usize) -> HierReport {
        HierReport {
            cut_count: self.count,
            spliced_dropped: self.dropped,
            peak_chunk_bytes,
            final_frontier_cap: self.cap,
        }
    }
}

/// Hierarchical governed optimization: [`crate::dp::run`] of a governed
/// request over `cascade` with the [`plan_cuts`] plan, where each cut
/// node exports an epsilon-spliced, capped frontier. With decomposition
/// disabled (or a tree the planner leaves uncut) this is the flat run —
/// same bytes out.
///
/// # Errors
///
/// Same as [`crate::dp::run`].
///
/// # Panics
///
/// Panics if `cascade` is empty.
#[allow(clippy::too_many_arguments)]
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
) -> Result<RunResult, InsertionError> {
    let request = RunRequest {
        tree,
        model,
        mode,
        cascade,
        sizing: sizing.clone(),
        options: *options,
        budget: *budget,
        strict: false,
        hier: Some(*hier),
    };
    run(&request, controls)
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
