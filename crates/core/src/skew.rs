//! Statistical clock-skew analysis — the extension the paper names as
//! future work ("we intend to apply the same 2P-based pruning rule and
//! develop efficient algorithms for clock skew minimization").
//!
//! For a *fixed* buffered clock tree, [`SkewAnalyzer`] propagates
//! source-to-sink **arrival times** as first-order canonical forms (the
//! downward analogue of the upward RAT propagation): every sink's
//! arrival becomes `a0 + Σ aᵢ·Xᵢ`, so the skew between any two sinks is
//! just the difference of two forms — with all the shared inter-die and
//! spatial terms cancelling exactly as they do on silicon. The global
//! skew (max minus min arrival) is estimated with iterated Clark
//! max/min.
//!
//! The analysis runs in place: loads accumulate into one form per node,
//! arrivals live in one recycled buffer per tree depth, and only sink
//! arrivals are materialized. DESIGN.md ("Skew analysis") gives the
//! bitwise contract with the allocating formulation.

use varbuf_rctree::tree::NodeKind;
use varbuf_rctree::{NodeId, RoutingTree};
use varbuf_stats::clark::{stat_max_assign, stat_min_assign};
use varbuf_stats::{prob_at_least_normal, CanonicalForm};
use varbuf_variation::{BufferTypeId, ProcessModel, VariationMode};

/// Per-sink arrival forms plus derived skew quantities.
#[derive(Debug, Clone)]
pub struct SkewAnalysis {
    /// Arrival time of every sink, canonical form, ps, sorted by node id.
    pub arrivals: Vec<(NodeId, CanonicalForm)>,
    /// The statistical latest arrival (Clark max over sinks).
    pub latest: CanonicalForm,
    /// The statistical earliest arrival (Clark min over sinks).
    pub earliest: CanonicalForm,
}

impl SkewAnalysis {
    /// The global-skew form: latest minus earliest arrival.
    ///
    /// Shared variation (inter-die, common spatial regions, shared
    /// buffers on common paths) cancels in the difference — the reason a
    /// correlation-aware model predicts far less skew than an
    /// independent-variation one.
    #[must_use]
    pub fn global_skew(&self) -> CanonicalForm {
        self.latest.sub(&self.earliest)
    }

    /// The skew form between two specific sinks.
    ///
    /// # Panics
    ///
    /// Panics if either node is not a sink of the analyzed tree.
    #[must_use]
    pub fn pair_skew(&self, a: NodeId, b: NodeId) -> CanonicalForm {
        let find = |id: NodeId| match self.arrivals.binary_search_by_key(&id, |&(n, _)| n) {
            Ok(i) => &self.arrivals[i].1,
            Err(_) => panic!("{id} is not a sink of the analyzed tree"),
        };
        find(a).sub(find(b))
    }

    /// Probability that the global skew stays below `target` ps.
    ///
    /// Allocation-free: the moments of latest − earliest come from
    /// `sub_stats`, bitwise those of [`global_skew`](Self::global_skew).
    #[must_use]
    pub fn skew_yield(&self, target: f64) -> f64 {
        // P(skew <= target) = P(skew - target <= 0).
        let (mean, var) = self.latest.sub_stats(&self.earliest);
        1.0 - prob_at_least_normal(mean, var.sqrt(), target)
    }
}

/// Computes arrival-time forms for fixed buffer placements on one tree.
#[derive(Debug)]
pub struct SkewAnalyzer<'a> {
    tree: &'a RoutingTree,
    model: &'a ProcessModel,
    mode: VariationMode,
}

impl<'a> SkewAnalyzer<'a> {
    /// Creates an analyzer; `mode` selects the silicon's variation
    /// categories (normally [`VariationMode::WithinDie`]).
    #[must_use]
    pub fn new(tree: &'a RoutingTree, model: &'a ProcessModel, mode: VariationMode) -> Self {
        Self { tree, model, mode }
    }

    /// Analyzes one buffer placement.
    ///
    /// When a node appears more than once in `assignment` the last entry
    /// wins; ids outside the tree are ignored.
    ///
    /// # Panics
    ///
    /// Panics if the tree has no sinks.
    #[must_use]
    pub fn analyze(&self, assignment: &[(NodeId, BufferTypeId)]) -> SkewAnalysis {
        let tree = self.tree;
        let wire = tree.wire();
        let n = tree.len();
        let mut buffer: Vec<Option<BufferTypeId>> = vec![None; n];
        for &(id, ty) in assignment {
            if let Some(slot) = buffer.get_mut(id.index()) {
                *slot = Some(ty);
            }
        }

        // Upward pass: the subtree load below each node (what a buffer
        // placed there drives). A buffered node presents its input-cap
        // form to its parent instead.
        let mut load = vec![CanonicalForm::default(); n];
        let mut cap: Vec<Option<CanonicalForm>> = vec![None; n];
        for id in tree.postorder() {
            let node = tree.node(id);
            let mut l = CanonicalForm::constant(match node.kind {
                NodeKind::Sink { capacitance, .. } => capacitance,
                _ => 0.0,
            });
            for &c in &node.children {
                l.add_scaled_assign(cap[c.index()].as_ref().unwrap_or(&load[c.index()]), 1.0);
                l.add_constant(wire.cap_per_um * tree.node(c).edge_length);
            }
            if let Some(ty) = buffer[id.index()] {
                cap[id.index()] =
                    Some(self.model.buffer_cap_form(ty, id, node.location, self.mode));
            }
            load[id.index()] = l;
        }
        let upward = |id: NodeId| cap[id.index()].as_ref().unwrap_or(&load[id.index()]);

        // Downward pass: a depth-first walk where `level[d]` holds the
        // arrival at the node being visited at depth `d`. Every node
        // visited between a node and its child lies deeper, so the
        // parent's buffer is intact when the child reads it.
        let root = tree.root();
        let NodeKind::Source { driver_resistance } = tree.node(root).kind else {
            panic!("root must be a source");
        };
        let mut level = vec![upward(root).scaled(driver_resistance)];
        let mut arrivals = Vec::new();
        let mut stack: Vec<(NodeId, usize)> = tree
            .node(root)
            .children
            .iter()
            .rev()
            .map(|&c| (c, 1))
            .collect();
        while let Some((id, depth)) = stack.pop() {
            if level.len() == depth {
                level.push(CanonicalForm::default());
            }
            let (above, here) = level.split_at_mut(depth);
            let t = &mut here[0];
            let node = tree.node(id);
            let seg = wire.segment(node.edge_length);
            // Wire delay r·l·(c·l/2 + upward load of the node).
            t.lin_comb_into(&above[depth - 1], 1.0, upward(id), seg.resistance);
            t.add_constant(seg.resistance * seg.capacitance / 2.0);
            if let Some(ty) = buffer[id.index()] {
                let delay = self
                    .model
                    .buffer_delay_form(ty, id, node.location, self.mode);
                t.add_scaled_assign(&delay, 1.0);
                t.add_scaled_assign(&load[id.index()], self.model.buffer_resistance(ty));
            }
            if matches!(node.kind, NodeKind::Sink { .. }) {
                arrivals.push((id, t.clone()));
            }
            stack.extend(node.children.iter().rev().map(|&c| (c, depth + 1)));
        }
        arrivals.sort_unstable_by_key(|&(id, _)| id);

        // Fold Clark max/min over the sinks in node-id order, each into
        // a recycled destination.
        assert!(!arrivals.is_empty(), "tree must have at least one sink");
        let mut latest = arrivals[0].1.clone();
        let mut earliest = latest.clone();
        let mut scratch = CanonicalForm::default();
        for (_, a) in &arrivals[1..] {
            stat_max_assign(&mut scratch, &latest, a);
            std::mem::swap(&mut latest, &mut scratch);
            stat_min_assign(&mut scratch, &earliest, a);
            std::mem::swap(&mut earliest, &mut scratch);
        }
        SkewAnalysis {
            arrivals,
            latest,
            earliest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{optimize_statistical, Options};
    use std::collections::HashMap;
    use varbuf_rctree::generate::{generate_benchmark, generate_htree, BenchmarkSpec, HTreeSpec};
    use varbuf_rctree::{Point, WireParams};
    use varbuf_stats::{stat_max, stat_min};
    use varbuf_variation::SpatialKind;

    #[test]
    fn symmetric_htree_has_zero_mean_skew() {
        let tree = generate_htree(&HTreeSpec::with_levels(6));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        let analyzer = SkewAnalyzer::new(&tree, &model, VariationMode::WithinDie);
        // Unbuffered symmetric tree: all nominal arrivals identical.
        let analysis = analyzer.analyze(&[]);
        let skew = analysis.global_skew();
        // Mean skew is positive (max > min with independent terms) but
        // small relative to arrival times.
        let arrival_scale = analysis.arrivals[0].1.mean().abs();
        assert!(skew.mean() >= -1e-9);
        assert!(
            skew.mean() < 0.05 * arrival_scale,
            "skew {} vs arrival {arrival_scale}",
            skew.mean()
        );
        // Pairwise skew between mirror sinks: zero-mean.
        let a = analysis.arrivals.first().expect("sinks").0;
        let b = analysis.arrivals.last().expect("sinks").0;
        let pair = analysis.pair_skew(a, b);
        assert!(pair.mean().abs() < 1e-6);
    }

    #[test]
    fn buffered_htree_skew_and_yield() {
        let tree = generate_htree(&HTreeSpec::with_levels(7));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        let wid =
            optimize_statistical(&tree, &model, VariationMode::WithinDie, &Options::default())
                .expect("optimize");
        let analyzer = SkewAnalyzer::new(&tree, &model, VariationMode::WithinDie);
        let analysis = analyzer.analyze(&wid.assignment);
        let skew = analysis.global_skew();
        assert!(skew.mean() >= 0.0);
        // Yield is monotone in the target and hits the extremes.
        let tight = analysis.skew_yield(0.0);
        let loose = analysis.skew_yield(skew.mean() + 10.0 * skew.std_dev() + 1.0);
        assert!(tight <= 0.6, "P(skew<=0) = {tight}");
        assert!(loose > 0.999);
        assert!(analysis.skew_yield(skew.mean()) >= tight);
        // The allocation-free yield is the materialized form's, bit for bit.
        for target in [0.0, skew.mean(), skew.mean() + skew.std_dev()] {
            assert_eq!(
                analysis.skew_yield(target).to_bits(),
                (1.0 - skew.prob_at_least(target)).to_bits()
            );
        }
    }

    #[test]
    fn asymmetric_tree_has_nonzero_mean_skew() {
        let tree = generate_benchmark(&BenchmarkSpec::random("skew", 24, 9));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        let analyzer = SkewAnalyzer::new(&tree, &model, VariationMode::WithinDie);
        let analysis = analyzer.analyze(&[]);
        let skew = analysis.global_skew();
        // Random trees have structurally different path lengths.
        assert!(skew.mean() > 1.0, "skew mean {}", skew.mean());
        // Latest >= every arrival mean; earliest <= every arrival mean.
        for (_, a) in &analysis.arrivals {
            assert!(analysis.latest.mean() >= a.mean() - 1e-6);
            assert!(analysis.earliest.mean() <= a.mean() + 1e-6);
        }
    }

    #[test]
    fn arrival_matches_deterministic_elmore_nominal() {
        use crate::det::assignment_with_nominal_values;
        use varbuf_rctree::elmore::ElmoreEvaluator;

        let tree = generate_benchmark(&BenchmarkSpec::random("skewdet", 16, 4));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        let wid =
            optimize_statistical(&tree, &model, VariationMode::WithinDie, &Options::default())
                .expect("optimize");
        // In Nominal mode the arrival forms are deterministic and must
        // equal the Elmore evaluator's sink delays exactly.
        let analyzer = SkewAnalyzer::new(&tree, &model, VariationMode::Nominal);
        let analysis = analyzer.analyze(&wid.assignment);
        let elmore = ElmoreEvaluator::new(&tree).evaluate(
            &assignment_with_nominal_values(&wid.assignment, model.library())
                .expect("ids from this library"),
        );
        for (id, form) in &analysis.arrivals {
            let (_, d) = elmore
                .sink_delays
                .iter()
                .find(|&&(s, _)| s == *id)
                .expect("sink present");
            assert!(
                (form.mean() - d).abs() < 1e-6 * d.abs().max(1.0),
                "{id}: skew-analyzer {} vs elmore {}",
                form.mean(),
                d
            );
            assert!(form.std_dev() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "is not a sink")]
    fn pair_skew_rejects_non_sinks() {
        let tree = generate_htree(&HTreeSpec::with_levels(3));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        let analysis = SkewAnalyzer::new(&tree, &model, VariationMode::WithinDie).analyze(&[]);
        let _ = analysis.pair_skew(tree.root(), tree.root());
    }

    /// The allocating analyzer the in-place one replaced: a `HashMap`
    /// buffer lookup, a load and an arrival form for every node, sink
    /// arrivals cloned out, and Clark folds through `stat_max`/`stat_min`.
    fn reference_analyze(
        tree: &RoutingTree,
        model: &ProcessModel,
        mode: VariationMode,
        assignment: &[(NodeId, BufferTypeId)],
    ) -> SkewAnalysis {
        let buffers: HashMap<NodeId, BufferTypeId> = assignment.iter().copied().collect();
        let wire = tree.wire();
        let n = tree.len();
        let mut subtree_load: Vec<Option<CanonicalForm>> = vec![None; n];
        let mut upward_load: Vec<Option<CanonicalForm>> = vec![None; n];
        let postorder = tree.postorder();
        for &id in &postorder {
            let node = tree.node(id);
            let mut load = match node.kind {
                NodeKind::Sink { capacitance, .. } => CanonicalForm::constant(capacitance),
                _ => CanonicalForm::constant(0.0),
            };
            for &c in &node.children {
                let seg_cap = wire.cap_per_um * tree.node(c).edge_length;
                load = load
                    .add(upward_load[c.index()].as_ref().expect("post-order"))
                    .plus_constant(seg_cap);
            }
            upward_load[id.index()] = Some(match buffers.get(&id) {
                Some(&ty) => model.buffer_cap_form(ty, id, node.location, mode),
                None => load.clone(),
            });
            subtree_load[id.index()] = Some(load);
        }
        let root = tree.root();
        let NodeKind::Source { driver_resistance } = tree.node(root).kind else {
            panic!("root must be a source");
        };
        let mut arrival: Vec<Option<CanonicalForm>> = vec![None; n];
        arrival[root.index()] = Some(
            upward_load[root.index()]
                .as_ref()
                .expect("root")
                .scaled(driver_resistance),
        );
        for &id in postorder.iter().rev() {
            let base = arrival[id.index()].clone().expect("pre-order");
            for &c in &tree.node(id).children {
                let child = tree.node(c);
                let seg = wire.segment(child.edge_length);
                let mut t = base.linear_combination(
                    1.0,
                    upward_load[c.index()].as_ref().expect("post-order"),
                    seg.resistance,
                );
                t.add_constant(seg.resistance * seg.capacitance / 2.0);
                if let Some(&ty) = buffers.get(&c) {
                    let delay = model.buffer_delay_form(ty, c, child.location, mode);
                    t = t.add(&delay).linear_combination(
                        1.0,
                        subtree_load[c.index()].as_ref().expect("post-order"),
                        model.buffer_resistance(ty),
                    );
                }
                arrival[c.index()] = Some(t);
            }
        }
        let mut arrivals = Vec::new();
        for (id, node) in tree.iter() {
            if matches!(node.kind, NodeKind::Sink { .. }) {
                arrivals.push((id, arrival[id.index()].clone().expect("computed")));
            }
        }
        let mut latest = arrivals[0].1.clone();
        let mut earliest = arrivals[0].1.clone();
        for (_, a) in &arrivals[1..] {
            latest = stat_max(&latest, a).form;
            earliest = stat_min(&earliest, a).form;
        }
        SkewAnalysis {
            arrivals,
            latest,
            earliest,
        }
    }

    fn assert_form_bits(x: &CanonicalForm, y: &CanonicalForm, ctx: &str) {
        assert_eq!(x.mean().to_bits(), y.mean().to_bits(), "{ctx}: nominal");
        assert_eq!(x.term_ids(), y.term_ids(), "{ctx}: term ids");
        let bits = |f: &CanonicalForm| {
            f.term_coeffs()
                .iter()
                .map(|c| c.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(x), bits(y), "{ctx}: coefficients");
    }

    /// A tree built breadth-first, so node ids are not in DFS order:
    /// root → {1, 2}; 1 → sinks {3, 4}; 2 → {5, sink 6}; 5 → sinks {7, 8}.
    fn breadth_first_tree() -> RoutingTree {
        let mut t = RoutingTree::new(Point::new(0.0, 0.0), 0.1, WireParams::default_65nm());
        let a = t.add_internal(t.root(), Point::new(900.0, 0.0));
        let b = t.add_internal(t.root(), Point::new(0.0, 1200.0));
        t.add_sink(a, Point::new(1800.0, 300.0), 12.0, 0.0);
        t.add_sink(a, Point::new(900.0, -700.0), 20.0, -15.0);
        let c = t.add_internal(b, Point::new(600.0, 2000.0));
        t.add_sink(b, Point::new(-800.0, 1500.0), 8.0, 0.0);
        t.add_sink(c, Point::new(1500.0, 2600.0), 25.0, 0.0);
        t.add_sink(c, Point::new(400.0, 3100.0), 5.0, -30.0);
        t.validate().expect("valid");
        t
    }

    #[test]
    fn analyze_matches_allocating_reference_bitwise() {
        let mut trees: Vec<(String, RoutingTree)> = [1, 3, 6, 9]
            .map(|l| {
                (
                    format!("htree{l}"),
                    generate_htree(&HTreeSpec::with_levels(l)),
                )
            })
            .into();
        for seed in [3, 11, 29] {
            let tree = generate_benchmark(&BenchmarkSpec::random("oracle", 40, seed));
            trees.push((format!("random{seed}/sub"), tree.subdivided(400.0)));
            trees.push((format!("random{seed}"), tree));
        }
        let bfs = breadth_first_tree();
        let postorder = bfs.postorder();
        assert!(
            postorder.iter().rev().zip(0..).any(|(id, i)| id.0 != i),
            "ids must not be in DFS order"
        );
        trees.push(("breadth-first".to_owned(), bfs));

        let mut buffered_designs = 0;
        for (name, tree) in &trees {
            for spatial in [SpatialKind::Homogeneous, SpatialKind::Heterogeneous] {
                let model = ProcessModel::paper_defaults(tree.bounding_box(), spatial);
                let wid = optimize_statistical(
                    tree,
                    &model,
                    VariationMode::WithinDie,
                    &Options::default(),
                )
                .expect("optimize")
                .assignment;
                buffered_designs += usize::from(!wid.is_empty());
                let last_ty = BufferTypeId(model.library().len() - 1);
                let root_buffered = vec![(tree.root(), BufferTypeId(0))];
                let mut duplicated = wid.clone();
                let first = wid.first().map_or(NodeId(1), |&(id, _)| id);
                duplicated.push((first, last_ty));
                duplicated.push((first, BufferTypeId(0)));
                let mut out_of_range = wid.clone();
                out_of_range.push((NodeId(tree.len() as u32 + 5), last_ty));
                let assignments = [
                    ("empty", Vec::new()),
                    ("2P-WID", wid),
                    ("root-buffered", root_buffered),
                    ("duplicated", duplicated),
                    ("out-of-range", out_of_range),
                ];
                for mode in [
                    VariationMode::WithinDie,
                    VariationMode::DieToDie,
                    VariationMode::Nominal,
                ] {
                    for (label, assignment) in &assignments {
                        let ctx = format!("{name} {spatial:?} {mode:?} {label}");
                        let got = SkewAnalyzer::new(tree, &model, mode).analyze(assignment);
                        let want = reference_analyze(tree, &model, mode, assignment);
                        assert_eq!(got.arrivals.len(), want.arrivals.len(), "{ctx}");
                        for ((gi, gf), (wi, wf)) in got.arrivals.iter().zip(&want.arrivals) {
                            assert_eq!(gi, wi, "{ctx}: arrival ids");
                            assert_form_bits(gf, wf, &format!("{ctx} {gi}"));
                        }
                        assert_form_bits(&got.latest, &want.latest, &format!("{ctx} latest"));
                        assert_form_bits(&got.earliest, &want.earliest, &format!("{ctx} earliest"));
                    }
                }
            }
        }
        assert!(
            buffered_designs > 10,
            "only {buffered_designs} optimized designs buffer"
        );
    }
}
