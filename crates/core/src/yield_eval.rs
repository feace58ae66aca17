//! Timing-yield analysis of a fixed buffered tree (Section 5.3).
//!
//! Once an optimizer has committed to a buffer placement, the question the
//! paper asks is: *what RAT distribution does that design actually achieve
//! on variable silicon?* [`YieldEvaluator`] answers it two ways:
//!
//! * **analytically** — propagate canonical forms through the fixed tree
//!   with the key operations of Section 4.2 (no optimization choices, one
//!   solution per node) and read off the mean/σ/percentiles;
//! * **by Monte Carlo** — sample every variation source, instantiate
//!   concrete buffer values, and re-run the deterministic Elmore
//!   evaluator per sample (Figure 6's validation).
//!
//! This is how the NOM and D2D designs get scored *under the full WID
//! variation model* in Tables 3–5: they chose their buffers while blind to
//! some variation categories, but the silicon varies anyway.

use crate::ops::{buffer_extend_stat, driver_rat_stat, merge_pair_stat, wire_extend_stat_in_place};
use crate::solution::StatSolution;
use std::collections::HashMap;
use varbuf_rctree::elmore::{BufferAssignment, EdgeWidths, ElmoreEvaluator};
use varbuf_rctree::tree::NodeKind;
use varbuf_rctree::{NodeId, RoutingTree};
use varbuf_stats::mc::MonteCarlo;
use varbuf_stats::CanonicalForm;
use varbuf_variation::{BufferTypeId, ProcessModel, VariationMode};

/// The analytic yield summary of one design.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldAnalysis {
    /// The root RAT as a canonical form.
    pub rat: CanonicalForm,
    /// The 95%-timing-yield RAT — the 5th percentile of the RAT
    /// distribution (the design beats this RAT with 95% probability).
    pub rat_at_95_yield: f64,
}

impl YieldAnalysis {
    /// Timing yield at a required RAT: `P(RAT ≥ target)`.
    #[must_use]
    pub fn yield_at(&self, target: f64) -> f64 {
        self.rat.prob_at_least(target)
    }
}

/// Evaluates fixed buffer placements on one tree under one variation
/// model/mode.
#[derive(Debug)]
pub struct YieldEvaluator<'a> {
    tree: &'a RoutingTree,
    model: &'a ProcessModel,
    mode: VariationMode,
}

impl<'a> YieldEvaluator<'a> {
    /// Creates an evaluator; `mode` is the variation the *silicon* has
    /// (normally [`VariationMode::WithinDie`], regardless of what the
    /// optimizer believed).
    #[must_use]
    pub fn new(tree: &'a RoutingTree, model: &'a ProcessModel, mode: VariationMode) -> Self {
        Self { tree, model, mode }
    }

    /// The canonical form of the root RAT for `assignment` (all wires at
    /// default width).
    ///
    /// # Panics
    ///
    /// Panics if the tree is structurally invalid or has no sinks.
    #[must_use]
    pub fn rat_form(&self, assignment: &[(NodeId, BufferTypeId)]) -> CanonicalForm {
        self.rat_form_sized(assignment, &EdgeWidths::new())
    }

    /// The canonical form of the root RAT for `assignment` with per-edge
    /// wire widths (for designs produced by
    /// [`optimize_with_sizing`](crate::dp::optimize_with_sizing)).
    ///
    /// # Panics
    ///
    /// Panics if the tree is structurally invalid or has no sinks.
    #[must_use]
    pub fn rat_form_sized(
        &self,
        assignment: &[(NodeId, BufferTypeId)],
        widths: &EdgeWidths,
    ) -> CanonicalForm {
        let buffers: HashMap<NodeId, BufferTypeId> = assignment.iter().copied().collect();
        let wire = self.tree.wire();
        let mut forms: Vec<Option<StatSolution>> = vec![None; self.tree.len()];

        for id in self.tree.postorder() {
            let node = self.tree.node(id);
            let mut sol = match node.kind {
                NodeKind::Sink {
                    capacitance,
                    required_arrival,
                } => StatSolution::new(
                    CanonicalForm::constant(capacitance),
                    CanonicalForm::constant(required_arrival),
                ),
                NodeKind::Internal | NodeKind::Source { .. } => {
                    let mut acc: Option<StatSolution> = None;
                    for &c in &node.children {
                        let w = widths.get(c);
                        let mut seg = wire.segment(self.tree.node(c).edge_length);
                        seg.resistance /= w;
                        seg.capacitance *= w;
                        // Each child is read once, by its parent: take it
                        // and extend it where it sits.
                        let mut lifted = forms[c.index()].take().expect("post-order");
                        wire_extend_stat_in_place(&mut lifted, &seg);
                        acc = Some(match acc {
                            None => lifted,
                            Some(prev) => merge_pair_stat(&prev, &lifted),
                        });
                    }
                    acc.expect("validated internal nodes have children")
                }
            };
            if let Some(&ty) = buffers.get(&id) {
                let (cap, delay) = self.model.buffer_forms(ty, id, node.location, self.mode);
                sol = buffer_extend_stat(
                    &sol,
                    &cap,
                    &delay,
                    self.model.buffer_resistance(ty),
                    id,
                    ty,
                );
            }
            forms[id.index()] = Some(sol);
        }

        let root = self.tree.root();
        let driver_res = match self.tree.node(root).kind {
            NodeKind::Source { driver_resistance } => driver_resistance,
            _ => panic!("root must be a source"),
        };
        driver_rat_stat(forms[root.index()].as_ref().expect("root"), driver_res)
    }

    /// Full analytic summary for `assignment`.
    #[must_use]
    pub fn analyze(&self, assignment: &[(NodeId, BufferTypeId)]) -> YieldAnalysis {
        let rat = self.rat_form(assignment);
        let rat_at_95_yield = if rat.std_dev() > 0.0 {
            rat.percentile(0.05)
        } else {
            rat.mean()
        };
        YieldAnalysis {
            rat,
            rat_at_95_yield,
        }
    }

    /// Parallel [`Self::monte_carlo`]: splits the draws across `threads`
    /// OS threads with decorrelated seeds. The sample set differs from
    /// the sequential method's (different RNG streams) but is
    /// statistically equivalent; the same `(seed, threads)` pair is
    /// reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn monte_carlo_parallel(
        &self,
        assignment: &[(NodeId, BufferTypeId)],
        samples: usize,
        seed: u64,
        threads: usize,
    ) -> Vec<f64> {
        assert!(threads > 0, "need at least one thread");
        let chunk = samples.div_ceil(threads);
        let mut out = Vec::with_capacity(samples);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let count = chunk.min(samples.saturating_sub(t * chunk));
                    scope.spawn(move || {
                        // Decorrelate thread streams by a large odd stride.
                        self.monte_carlo(
                            assignment,
                            count,
                            seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(t as u64 + 1)),
                        )
                    })
                })
                .collect();
            for h in handles {
                out.extend(h.join().expect("worker thread panicked"));
            }
        });
        out
    }

    /// Classic corner analysis: the root RAT with **every** variation
    /// source pinned at `z` standard deviations (e.g. `z = 3.0` for the
    /// slow corner, `-3.0` for the fast corner, `0.0` for typical).
    ///
    /// Corners ignore the correlation structure entirely — comparing the
    /// slow corner against the statistical 95%-yield RAT shows how much
    /// pessimism the statistical treatment removes.
    #[must_use]
    pub fn corner(&self, assignment: &[(NodeId, BufferTypeId)], z: f64) -> f64 {
        let rat = self.rat_form(assignment);
        // Pinning all sources at +z lowers the RAT by z·Σ|aᵢ| when the
        // worst sign is taken per source; the conventional corner instead
        // moves every source in its locally-worst direction:
        let l1: f64 = rat.terms().map(|(_, a)| a.abs()).sum();
        rat.mean() - z * l1
    }

    /// Monte Carlo RAT samples: each draw samples every variation source,
    /// instantiates the placed buffers, and runs the deterministic Elmore
    /// evaluator.
    #[must_use]
    pub fn monte_carlo(
        &self,
        assignment: &[(NodeId, BufferTypeId)],
        samples: usize,
        seed: u64,
    ) -> Vec<f64> {
        // Precompute each placed buffer's forms once; per sample only the
        // cheap form evaluation and the Elmore pass remain.
        let prepared: Vec<_> = assignment
            .iter()
            .map(|&(node, ty)| {
                let loc = self.tree.node(node).location;
                let (cap, delay) = self.model.buffer_forms(ty, node, loc, self.mode);
                (node, cap, delay, self.model.buffer_resistance(ty))
            })
            .collect();
        // Only the sources the placed buffers actually reference need
        // sampling — unused device sources would just be multiplied by
        // zero coefficients. This keeps each draw proportional to the
        // design, not the candidate space.
        let used: std::collections::BTreeSet<_> = prepared
            .iter()
            .flat_map(|(_, cap, delay, _)| cap.terms().chain(delay.terms()))
            .map(|(id, _)| id)
            .collect();
        let mut mc = MonteCarlo::new(seed, used.into_iter().collect());
        let eval = ElmoreEvaluator::new(self.tree);

        (0..samples)
            .map(|_| {
                let sample = mc.draw();
                let mut placed = BufferAssignment::new();
                for (node, cap, delay, resistance) in &prepared {
                    placed.insert(
                        *node,
                        varbuf_rctree::elmore::BufferValues {
                            capacitance: sample.eval(cap),
                            intrinsic_delay: sample.eval(delay),
                            resistance: *resistance,
                        },
                    );
                }
                eval.evaluate(&placed).root_rat
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det::{assignment_with_nominal_values, optimize_deterministic};
    use crate::dp::{optimize_with_rule, DpOptions};
    use crate::prune::TwoParam;
    use std::sync::Arc;
    use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};
    use varbuf_stats::mc::sample_moments;
    use varbuf_variation::SpatialKind;

    fn setup(sinks: usize, seed: u64) -> (RoutingTree, ProcessModel) {
        let tree = generate_benchmark(&BenchmarkSpec::random("ye", sinks, seed));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        (tree, model)
    }

    #[test]
    fn nominal_mode_matches_elmore_exactly() {
        let (tree, model) = setup(30, 3);
        let det = optimize_deterministic(&tree, model.library()).expect("det");
        let ye = YieldEvaluator::new(&tree, &model, VariationMode::Nominal);
        let rat = ye.rat_form(&det.assignment);
        assert!(rat.std_dev() < 1e-12);
        let eval = ElmoreEvaluator::new(&tree);
        let rep = eval.evaluate(
            &assignment_with_nominal_values(&det.assignment, model.library())
                .expect("ids from this library"),
        );
        assert!(
            (rat.mean() - rep.root_rat).abs() < 1e-6 * rep.root_rat.abs(),
            "{} vs {}",
            rat.mean(),
            rep.root_rat
        );
    }

    #[test]
    fn wid_form_matches_dp_winner_form() {
        // The DP and the fixed-assignment evaluator walk the same key
        // operations, so re-evaluating the winning assignment must give
        // back (nearly) the same canonical form.
        let (tree, model) = setup(40, 9);
        let r = optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &DpOptions::default(),
        )
        .expect("opt");
        let ye = YieldEvaluator::new(&tree, &model, VariationMode::WithinDie);
        let rat = ye.rat_form(&r.assignment);
        assert!(
            (rat.mean() - r.root_rat.mean()).abs() < 1e-6 * r.root_rat.mean().abs(),
            "mean {} vs {}",
            rat.mean(),
            r.root_rat.mean()
        );
        assert!(
            (rat.std_dev() - r.root_rat.std_dev()).abs() < 0.02 * r.root_rat.std_dev().max(1e-12),
            "std {} vs {}",
            rat.std_dev(),
            r.root_rat.std_dev()
        );
    }

    #[test]
    fn monte_carlo_confirms_analytic_moments() {
        // Figure 6: the first-order model predicts the MC distribution.
        let (tree, model) = setup(25, 5);
        let r = optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &DpOptions::default(),
        )
        .expect("opt");
        let ye = YieldEvaluator::new(&tree, &model, VariationMode::WithinDie);
        let analysis = ye.analyze(&r.assignment);
        let samples = ye.monte_carlo(&r.assignment, 4000, 42);
        let (mc_mean, mc_var) = sample_moments(&samples);
        let rel_mean = (mc_mean - analysis.rat.mean()).abs() / analysis.rat.mean().abs().max(1.0);
        assert!(
            rel_mean < 0.01,
            "MC mean {} vs model {}",
            mc_mean,
            analysis.rat.mean()
        );
        let model_sigma = analysis.rat.std_dev();
        let rel_sigma = (mc_var.sqrt() - model_sigma).abs() / model_sigma.max(1e-12);
        assert!(
            rel_sigma < 0.15,
            "MC σ {} vs model σ {}",
            mc_var.sqrt(),
            model_sigma
        );
    }

    #[test]
    fn parallel_mc_matches_sequential_statistics() {
        let (tree, model) = setup(20, 8);
        let r = optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &DpOptions::default(),
        )
        .expect("opt");
        let ye = YieldEvaluator::new(&tree, &model, VariationMode::WithinDie);
        let seq = ye.monte_carlo(&r.assignment, 3000, 7);
        let par = ye.monte_carlo_parallel(&r.assignment, 3000, 7, 4);
        assert_eq!(par.len(), 3000);
        let (ms, vs) = sample_moments(&seq);
        let (mp, vp) = sample_moments(&par);
        assert!(
            (ms - mp).abs() < 3.0 * (vs / 3000.0).sqrt() + 1.0,
            "{ms} vs {mp}"
        );
        assert!((vs.sqrt() - vp.sqrt()).abs() / vs.sqrt() < 0.1);
        // Reproducibility of the parallel variant.
        let par2 = ye.monte_carlo_parallel(&r.assignment, 3000, 7, 4);
        assert_eq!(par, par2);
    }

    #[test]
    fn corner_analysis_is_more_pessimistic_than_statistics() {
        let (tree, model) = setup(30, 13);
        let r = optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &DpOptions::default(),
        )
        .expect("opt");
        let ye = YieldEvaluator::new(&tree, &model, VariationMode::WithinDie);
        let a = ye.analyze(&r.assignment);
        let slow = ye.corner(&r.assignment, 3.0);
        let typical = ye.corner(&r.assignment, 0.0);
        let fast = ye.corner(&r.assignment, -3.0);
        // Corner ordering, and the classic result: the all-worst corner
        // is far more pessimistic than the statistical 5th percentile
        // because it ignores that sources won't all conspire.
        assert!(slow < a.rat_at_95_yield);
        assert!((typical - a.rat.mean()).abs() < 1e-9);
        assert!(fast > typical);
    }

    #[test]
    fn yield_semantics() {
        let (tree, model) = setup(20, 7);
        let r = optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &DpOptions::default(),
        )
        .expect("opt");
        let ye = YieldEvaluator::new(&tree, &model, VariationMode::WithinDie);
        let a = ye.analyze(&r.assignment);
        // The 95%-yield RAT sits below the mean; yield at it is 95%.
        assert!(a.rat_at_95_yield < a.rat.mean());
        assert!((a.yield_at(a.rat_at_95_yield) - 0.95).abs() < 1e-6);
        // An easy target yields ~100%, an impossible one ~0%.
        assert!(a.yield_at(a.rat.mean() - 10.0 * a.rat.std_dev()) > 0.999999);
        assert!(a.yield_at(a.rat.mean() + 10.0 * a.rat.std_dev()) < 1e-6);
    }

    #[test]
    fn blind_design_scores_worse_under_full_variation() {
        // The heart of Tables 3-4: a deterministic (NOM) design evaluated
        // under the full WID model has a wider RAT distribution than the
        // WID-aware design, hence a worse 95%-yield RAT.
        let tree = generate_benchmark(&BenchmarkSpec::random("blind", 60, 21));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous);
        let nom = optimize_deterministic(&tree, model.library()).expect("nom");
        let wid = optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &DpOptions::default(),
        )
        .expect("wid");
        let ye = YieldEvaluator::new(&tree, &model, VariationMode::WithinDie);
        let nom_a = ye.analyze(&nom.assignment);
        let wid_a = ye.analyze(&wid.assignment);
        // WID optimizes the statistical objective, so its 95%-yield RAT is
        // at least as good (small slack for mean-vs-percentile selection).
        assert!(
            wid_a.rat_at_95_yield >= nom_a.rat_at_95_yield - 1.0,
            "WID {} vs NOM {}",
            wid_a.rat_at_95_yield,
            nom_a.rat_at_95_yield
        );
    }
}
