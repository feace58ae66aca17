//! Instrumentation collected by the dynamic programs.

use std::time::Duration;

/// Counters describing one optimization run — the raw material for
/// Table 2 and Figure 5 of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DpStats {
    /// Nodes processed (equals the tree size on success).
    pub nodes_processed: usize,
    /// Largest candidate list held at any node.
    pub max_solutions_per_node: usize,
    /// Candidate solutions generated across the whole run.
    pub solutions_generated: usize,
    /// Solutions discarded by pruning.
    pub solutions_pruned: usize,
    /// Wall-clock runtime.
    pub runtime: Duration,
    /// Time spent generating branch-merge combinations (both the linear
    /// walk and the 4P cross product).
    pub merge_time: Duration,
    /// Time spent extending solutions along wire segments (the lift
    /// loops, eager or deferred) plus materializing pending lazy-wire
    /// transforms at consumption points. Was folded into `merge_time`
    /// before lazy wire propagation made the split worth watching.
    /// Materialization that happens inside the buffering arm is charged
    /// to `buffer_time`.
    pub wire_time: Duration,
    /// Time spent in dominance pruning (list pruning plus the quadratic
    /// cross-product sweep).
    pub prune_time: Duration,
    /// Time spent offering buffers at candidate nodes.
    pub buffer_time: Duration,
    /// Always 0: the engine has no bound-guided pruning (see DESIGN.md).
    /// Kept only because the end-to-end benchmark reads it.
    pub pruned_by_bound: usize,
    /// Solutions removed by dominance pruning (the keyed 2P/4P sweeps).
    pub pruned_by_dominance: usize,
    /// Always zero, like [`pruned_by_bound`](Self::pruned_by_bound), and
    /// kept for the same reason.
    pub bound_time: Duration,
    /// Always 0: the engine has no Li–Shi generation skip (see
    /// DESIGN.md). Kept only because the end-to-end benchmark reads it.
    pub lishi_skipped: usize,
    /// Pruning-rule fallback steps a governed run took (0 = primary rule
    /// held for the whole run).
    pub rule_fallbacks: usize,
    /// Epsilon-tightening steps a governed run took.
    pub epsilon_tightenings: usize,
    /// Spread-preserving list truncations a governed run applied.
    pub list_truncations: usize,
    /// Poisoned (non-finite) candidates dropped by the sanitizer.
    pub poisoned_dropped: usize,
    /// Whether the run finished in panic-completion (best-so-far) mode.
    pub panic_completion: bool,
    /// Nodes whose pruned lists were replayed from the session solution
    /// cache instead of being recomputed (0 outside incremental runs).
    pub cache_hits: usize,
    /// Nodes the incremental engine had to recompute — the dirty set.
    /// Equals `nodes_processed` on the incremental path; 0 elsewhere.
    pub cache_misses: usize,
}

impl DpStats {
    /// Fraction of generated solutions that pruning removed.
    #[must_use]
    pub fn prune_ratio(&self) -> f64 {
        if self.solutions_generated == 0 {
            return 0.0;
        }
        self.solutions_pruned as f64 / self.solutions_generated as f64
    }

    /// Whether the run gave up any fidelity to stay within budget.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.rule_fallbacks > 0
            || self.epsilon_tightenings > 0
            || self.list_truncations > 0
            || self.poisoned_dropped > 0
            || self.panic_completion
    }

    /// One-line attribution of where the run's time went — the
    /// phase-level companion to `runtime` used by the bench output.
    #[must_use]
    pub fn phase_summary(&self) -> String {
        format!(
            "wire {:.1}ms, merge {:.1}ms, prune {:.1}ms, buffering {:.1}ms \
             (of {:.1}ms total; cache {}/{} hit/miss)",
            self.wire_time.as_secs_f64() * 1e3,
            self.merge_time.as_secs_f64() * 1e3,
            self.prune_time.as_secs_f64() * 1e3,
            self.buffer_time.as_secs_f64() * 1e3,
            self.runtime.as_secs_f64() * 1e3,
            self.cache_hits,
            self.cache_misses,
        )
    }

    /// This record with every wall-clock field zeroed — counters only.
    ///
    /// Timings vary run to run even when the computation is bit-for-bit
    /// identical; the determinism suite compares `sans_times()` records.
    #[must_use]
    pub fn sans_times(mut self) -> Self {
        self.runtime = Duration::ZERO;
        self.merge_time = Duration::ZERO;
        self.wire_time = Duration::ZERO;
        self.prune_time = Duration::ZERO;
        self.buffer_time = Duration::ZERO;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prune_ratio_handles_zero() {
        assert_eq!(DpStats::default().prune_ratio(), 0.0);
        let s = DpStats {
            solutions_generated: 10,
            solutions_pruned: 4,
            ..DpStats::default()
        };
        assert!((s.prune_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn degraded_reflects_any_counter() {
        assert!(!DpStats::default().degraded());
        assert!(DpStats {
            rule_fallbacks: 1,
            ..DpStats::default()
        }
        .degraded());
        assert!(DpStats {
            panic_completion: true,
            ..DpStats::default()
        }
        .degraded());
    }
}
