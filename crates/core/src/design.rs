//! Design-level (multi-net) optimization and joint timing yield.
//!
//! A die carries many nets, and they are *not* independent: every net's
//! buffers share the inter-die source `G` and, when physically close,
//! spatial region sources. The paper's single-net formulation extends
//! naturally — one [`ProcessModel`] spans the die, each net is optimized
//! on it, and the per-net root-RAT canonical forms stay expressed over
//! the **same** source space, so cross-net correlation falls out of the
//! representation for free.
//!
//! The interesting design-level question is the **joint** timing yield:
//! `P(every net meets its target)`. Independent-net math multiplies
//! per-net yields and gets it badly wrong when nets are correlated
//! (shared G means slow dice fail *together*, which *raises* the joint
//! yield relative to independence at equal margins). We compute the
//! joint yield by Monte Carlo over the shared source space — exact up to
//! sampling error, for any number of nets.

use crate::driver::{optimize_statistical, OptimizeResult, Options};
use crate::error::InsertionError;
use crate::yield_eval::YieldEvaluator;
use std::collections::BTreeSet;
use varbuf_rctree::RoutingTree;
use varbuf_stats::mc::{SampleVector, StandardNormal};
use varbuf_stats::rng::SplitMix64;
use varbuf_stats::CanonicalForm;
use varbuf_variation::{ProcessModel, VariationMode};

/// One net of a design, plus its optimization result and silicon RAT
/// form (over the design-shared source space).
#[derive(Debug, Clone)]
pub struct DesignNet {
    /// The net's name (from the routing tree).
    pub name: String,
    /// The optimization result.
    pub result: OptimizeResult,
    /// The net's root RAT under the full silicon model.
    pub silicon_rat: CanonicalForm,
}

/// A multi-net design sharing one process model.
#[derive(Debug)]
pub struct Design {
    nets: Vec<DesignNet>,
}

impl Design {
    /// Optimizes every net with the given mode on a shared model.
    ///
    /// All trees must live on the die `model` spans. Net `i` is given the
    /// model's `i`-th device-source block
    /// ([`ProcessModel::for_net`]) so that the nets' random device
    /// variation is independent while the inter-die and spatial sources
    /// remain shared — exactly the silicon situation.
    ///
    /// # Errors
    ///
    /// Propagates the first optimizer failure.
    ///
    /// # Panics
    ///
    /// Panics if more than 1022 nets are passed (device-id space).
    pub fn optimize(
        trees: &[RoutingTree],
        model: &ProcessModel,
        mode: VariationMode,
        options: &Options,
    ) -> Result<Self, InsertionError> {
        let mut nets = Vec::with_capacity(trees.len());
        for (i, tree) in trees.iter().enumerate() {
            let net_model = model.for_net(u32::try_from(i).expect("net count fits u32"));
            let result = optimize_statistical(tree, &net_model, mode, options)?;
            let silicon = YieldEvaluator::new(tree, &net_model, VariationMode::WithinDie);
            let silicon_rat = silicon.rat_form(&result.assignment);
            nets.push(DesignNet {
                name: tree.name().to_owned(),
                result,
                silicon_rat,
            });
        }
        Ok(Self { nets })
    }

    /// The per-net records.
    #[must_use]
    pub fn nets(&self) -> &[DesignNet] {
        &self.nets
    }

    /// Product of per-net yields — the (wrong under correlation)
    /// independence approximation, kept for comparison.
    #[must_use]
    pub fn independent_yield(&self, targets: &[f64]) -> f64 {
        assert_eq!(targets.len(), self.nets.len(), "one target per net");
        self.nets
            .iter()
            .zip(targets)
            .map(|(n, &t)| n.silicon_rat.prob_at_least(t))
            .product()
    }

    /// Joint yield `P(∀ i: RAT_i ≥ target_i)` by Monte Carlo over the
    /// shared source space — correlation-exact up to sampling error.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() != self.nets().len()` or `samples == 0`.
    #[must_use]
    pub fn joint_yield(&self, targets: &[f64], samples: usize, seed: u64) -> f64 {
        assert_eq!(targets.len(), self.nets.len(), "one target per net");
        assert!(samples > 0, "need at least one sample");

        // Union of every source any net references.
        let mut sources = BTreeSet::new();
        for net in &self.nets {
            sources.extend(net.silicon_rat.terms().map(|(id, _)| id));
        }
        let sources: Vec<_> = sources.into_iter().collect();

        let mut rng = SplitMix64::new(seed);
        let normal = StandardNormal;
        let mut pass = 0usize;
        for _ in 0..samples {
            let mut sample = SampleVector::new();
            for &id in &sources {
                sample.set(id, normal.sample(&mut rng));
            }
            let ok = self
                .nets
                .iter()
                .zip(targets)
                .all(|(n, &t)| sample.eval(&n.silicon_rat) >= t);
            if ok {
                pass += 1;
            }
        }
        pass as f64 / samples as f64
    }

    /// Per-net targets at a common margin: each net's mean RAT minus
    /// `margin_sigmas` of its own σ.
    #[must_use]
    pub fn targets_at_margin(&self, margin_sigmas: f64) -> Vec<f64> {
        self.nets
            .iter()
            .map(|n| n.silicon_rat.mean() - margin_sigmas * n.silicon_rat.std_dev())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};
    use varbuf_rctree::geom::BoundingBox;
    use varbuf_variation::SpatialKind;

    fn design(nets: usize) -> (Vec<RoutingTree>, ProcessModel) {
        let trees: Vec<RoutingTree> = (0..nets)
            .map(|i| {
                generate_benchmark(&BenchmarkSpec::random(
                    &format!("net{i}"),
                    24,
                    100 + i as u64,
                ))
            })
            .collect();
        let die = trees
            .iter()
            .map(|t| t.bounding_box())
            .reduce(|a, b| BoundingBox {
                min: varbuf_rctree::Point::new(a.min.x.min(b.min.x), a.min.y.min(b.min.y)),
                max: varbuf_rctree::Point::new(a.max.x.max(b.max.x), a.max.y.max(b.max.y)),
            })
            .expect("non-empty");
        let model = ProcessModel::paper_defaults(die, SpatialKind::Homogeneous);
        (trees, model)
    }

    #[test]
    fn joint_yield_exceeds_independent_for_correlated_nets() {
        let (trees, model) = design(4);
        let d = Design::optimize(
            &trees,
            &model,
            VariationMode::WithinDie,
            &Options::default(),
        )
        .expect("optimize");
        assert_eq!(d.nets().len(), 4);

        // Nets share the inter-die source, so their RATs are positively
        // correlated: at a symmetric margin the joint yield must beat
        // the independence product.
        let targets = d.targets_at_margin(1.0);
        let indep = d.independent_yield(&targets);
        let joint = d.joint_yield(&targets, 20_000, 5);
        assert!(
            joint > indep,
            "joint {joint} should exceed independent {indep} under positive correlation"
        );
        // Sanity bounds: joint can never beat the weakest single net.
        let weakest = d
            .nets()
            .iter()
            .zip(&targets)
            .map(|(n, &t)| n.silicon_rat.prob_at_least(t))
            .fold(1.0_f64, f64::min);
        assert!(joint <= weakest + 0.02);
    }

    #[test]
    fn single_net_joint_equals_marginal() {
        let (trees, model) = design(1);
        let d = Design::optimize(
            &trees,
            &model,
            VariationMode::WithinDie,
            &Options::default(),
        )
        .expect("optimize");
        let targets = d.targets_at_margin(1.645);
        let marginal = d.nets()[0].silicon_rat.prob_at_least(targets[0]);
        let joint = d.joint_yield(&targets, 40_000, 9);
        assert!(
            (joint - marginal).abs() < 0.01,
            "joint {joint} vs marginal {marginal}"
        );
        assert!((d.independent_yield(&targets) - marginal).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one target per net")]
    fn mismatched_targets_rejected() {
        let (trees, model) = design(2);
        let d = Design::optimize(
            &trees,
            &model,
            VariationMode::WithinDie,
            &Options::default(),
        )
        .expect("optimize");
        let _ = d.joint_yield(&[0.0], 10, 1);
    }
}
