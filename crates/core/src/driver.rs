//! High-level optimization entry points (the NOM / D2D / WID algorithms
//! compared in Section 5.3).

use crate::det::optimize_deterministic;
use crate::dp::{optimize_with_rule, DpOptions};
use crate::error::InsertionError;
use crate::metrics::DpStats;
use crate::prune::TwoParam;
use std::sync::Arc;
use varbuf_rctree::{NodeId, RoutingTree};
use varbuf_stats::CanonicalForm;
use varbuf_variation::{BufferTypeId, ProcessModel, VariationMode};

/// Options shared by the driver entry points.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Options {
    /// Engine knobs passed to the statistical DP (its limits are the
    /// paper's, see [`crate::governor::Budget::paper`]).
    pub dp: DpOptions,
    /// The 2P thresholds (`p̄_L`, `p̄_T`).
    pub rule: TwoParam,
}

/// A uniform result across the three algorithms.
#[derive(Debug, Clone)]
pub struct OptimizeResult {
    /// Which variation categories the optimizer modeled.
    pub mode: VariationMode,
    /// The RAT at the source as the *optimizer* saw it: a deterministic
    /// value for NOM (zero-variance form), a full canonical form for
    /// D2D/WID.
    pub root_rat: CanonicalForm,
    /// The buffer placement.
    pub assignment: Vec<(NodeId, BufferTypeId)>,
    /// Run instrumentation.
    pub stats: DpStats,
}

impl OptimizeResult {
    /// Number of buffers inserted (Table 5's metric).
    #[must_use]
    pub fn buffer_count(&self) -> usize {
        self.assignment.len()
    }
}

/// The deterministic **NOM** algorithm: plain van Ginneken on nominal
/// values, blind to every variation category.
///
/// # Errors
///
/// See [`optimize_deterministic`].
pub fn optimize_nominal(
    tree: &RoutingTree,
    model: &ProcessModel,
    _options: &Options,
) -> Result<OptimizeResult, InsertionError> {
    let r = optimize_deterministic(tree, model.library())?;
    Ok(OptimizeResult {
        mode: VariationMode::Nominal,
        root_rat: CanonicalForm::constant(r.root_rat),
        assignment: r.assignment,
        stats: r.stats,
    })
}

/// The variation-aware algorithms: **D2D**
/// ([`VariationMode::DieToDie`]: random + inter-die) or **WID**
/// ([`VariationMode::WithinDie`]: + spatially correlated intra-die),
/// both with the 2P pruning rule.
///
/// # Errors
///
/// See [`optimize_with_rule`]. Passing [`VariationMode::Nominal`] is
/// accepted and equivalent to [`optimize_nominal`] modulo the engine used.
pub fn optimize_statistical(
    tree: &RoutingTree,
    model: &ProcessModel,
    mode: VariationMode,
    options: &Options,
) -> Result<OptimizeResult, InsertionError> {
    if matches!(mode, VariationMode::Nominal) {
        return optimize_nominal(tree, model, options);
    }
    let r = optimize_with_rule(tree, model, mode, Arc::new(options.rule), &options.dp)?;
    Ok(OptimizeResult {
        mode,
        root_rat: r.root_rat,
        assignment: r.assignment,
        stats: r.stats,
    })
}

/// Runs all three algorithms on one benchmark — the row generator for
/// Tables 3–5.
///
/// # Errors
///
/// Propagates the first optimizer failure.
pub fn optimize_all_modes(
    tree: &RoutingTree,
    model: &ProcessModel,
    options: &Options,
) -> Result<[OptimizeResult; 3], InsertionError> {
    Ok([
        optimize_nominal(tree, model, options)?,
        optimize_statistical(tree, model, VariationMode::DieToDie, options)?,
        optimize_statistical(tree, model, VariationMode::WithinDie, options)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};
    use varbuf_variation::SpatialKind;

    fn setup(sinks: usize, seed: u64) -> (RoutingTree, ProcessModel) {
        let tree = generate_benchmark(&BenchmarkSpec::random("drv", sinks, seed));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous);
        (tree, model)
    }

    #[test]
    fn all_three_modes_run() {
        let (tree, model) = setup(40, 2);
        let opts = Options::default();
        let [nom, d2d, wid] = optimize_all_modes(&tree, &model, &opts).expect("all");
        assert_eq!(nom.mode, VariationMode::Nominal);
        assert_eq!(d2d.mode, VariationMode::DieToDie);
        assert_eq!(wid.mode, VariationMode::WithinDie);
        assert!(nom.root_rat.std_dev() < 1e-12);
        assert!(d2d.root_rat.std_dev() > 0.0);
        assert!(wid.root_rat.std_dev() >= d2d.root_rat.std_dev() * 0.5);
        for r in [&nom, &d2d, &wid] {
            assert!(r.buffer_count() > 0);
        }
    }

    #[test]
    fn nominal_mode_via_statistical_entry() {
        let (tree, model) = setup(20, 4);
        let opts = Options::default();
        let direct = optimize_nominal(&tree, &model, &opts).expect("nom");
        let via = optimize_statistical(&tree, &model, VariationMode::Nominal, &opts).expect("via");
        assert_eq!(direct.root_rat, via.root_rat);
        assert_eq!(direct.assignment.len(), via.assignment.len());
    }
}
