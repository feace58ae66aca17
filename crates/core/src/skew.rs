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
//! skew (max minus min arrival) is estimated with Clark max/min folded
//! up the tree: a node's latest and earliest arrival below it come from
//! its children's, left to right.
//!
//! The analysis runs in place: loads accumulate into one form per node,
//! arrivals and folds live in recycled buffers, one per tree depth, and
//! sink arrivals are kept only when [`SkewAnalyzer::arrivals`] asks for
//! them. DESIGN.md ("Skew analysis") states the fold-order contract.

use varbuf_rctree::tree::NodeKind;
use varbuf_rctree::{NodeId, RoutingTree};
use varbuf_stats::clark::{stat_max_assign, stat_min_assign};
use varbuf_stats::{prob_at_least_normal, CanonicalForm};
use varbuf_variation::{BufferTypeId, DeviceSite, ProcessModel, VariationMode};

/// The statistical latest and earliest sink arrival of one buffered
/// tree, and the skew quantities derived from them.
#[derive(Debug, Clone)]
pub struct SkewAnalysis {
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

/// Every sink's arrival form under one buffer placement, from
/// [`SkewAnalyzer::arrivals`].
#[derive(Debug, Clone)]
pub struct SinkArrivals {
    /// Sorted by node id, which [`pair_skew`](Self::pair_skew)'s search
    /// relies on.
    sinks: Vec<(NodeId, CanonicalForm)>,
}

impl SinkArrivals {
    /// Arrival time of every sink, canonical form, ps, sorted by node id.
    #[must_use]
    pub fn sinks(&self) -> &[(NodeId, CanonicalForm)] {
        &self.sinks
    }

    /// The skew form between two specific sinks.
    ///
    /// # Panics
    ///
    /// Panics if either node is not a sink of the analyzed tree.
    #[must_use]
    pub fn pair_skew(&self, a: NodeId, b: NodeId) -> CanonicalForm {
        let find = |id: NodeId| match self.sinks.binary_search_by_key(&id, |&(n, _)| n) {
            Ok(i) => &self.sinks[i].1,
            Err(_) => panic!("{id} is not a sink of the analyzed tree"),
        };
        find(a).sub(find(b))
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

    /// Analyzes one buffer placement: the latest and earliest sink
    /// arrival, folded up the tree. A sink contributes its own arrival;
    /// every other node folds its children's pairs left to right, in
    /// `Node::children` order, with Clark max and min. No sink arrival
    /// is kept.
    ///
    /// When a node appears more than once in `assignment` the last entry
    /// wins; ids outside the tree are ignored.
    ///
    /// # Panics
    ///
    /// Panics if the tree has no sinks.
    #[must_use]
    pub fn analyze(&self, assignment: &[(NodeId, BufferTypeId)]) -> SkewAnalysis {
        let mut fold = TreeFold::new();
        self.walk(assignment, |_, depth, sink, arrival| {
            fold.visit(depth, sink, arrival);
        });
        fold.finish()
    }

    /// Every sink's arrival form under one buffer placement, sorted by
    /// node id: [`analyze`](Self::analyze)'s walk without its fold.
    ///
    /// `assignment` is read as in [`analyze`](Self::analyze).
    #[must_use]
    pub fn arrivals(&self, assignment: &[(NodeId, BufferTypeId)]) -> SinkArrivals {
        let mut sinks = Vec::new();
        self.walk(assignment, |id, _, sink, arrival| {
            if sink {
                sinks.push((id, arrival.clone()));
            }
        });
        sinks.sort_unstable_by_key(|&(id, _)| id);
        SinkArrivals { sinks }
    }

    /// The propagation both entry points share. It calls
    /// `visit(id, depth, is_sink, arrival)` on every node below the root,
    /// depth first with children in `Node::children` order; `arrival` is
    /// the walk's buffer for `depth` and is overwritten as the walk moves
    /// on.
    fn walk(
        &self,
        assignment: &[(NodeId, BufferTypeId)],
        mut visit: impl FnMut(NodeId, usize, bool, &CanonicalForm),
    ) {
        let tree = self.tree;
        let model = self.model;
        let wire = tree.wire();
        let n = tree.len();
        // Each placed buffer's site: one taper scan, read in both passes.
        // Its forms are written where they are read, so the walk holds a
        // site per buffered node and never both of its forms.
        let mut device: Vec<Option<(BufferTypeId, DeviceSite)>> = Vec::new();
        device.resize_with(n, || None);
        for &(id, ty) in assignment {
            if let Some(slot) = device.get_mut(id.index()) {
                let mut site = DeviceSite::default();
                model.device_site(id, tree.node(id).location, self.mode, &mut site);
                *slot = Some((ty, site));
            }
        }
        // The form a node presents to its parent: a placed buffer's input
        // cap (written into `forms`, with its delay), else its subtree load.
        fn upward<'f>(
            model: &ProcessModel,
            device: &[Option<(BufferTypeId, DeviceSite)>],
            load: &'f [CanonicalForm],
            forms: &'f mut (CanonicalForm, CanonicalForm),
            id: NodeId,
        ) -> &'f CanonicalForm {
            match &device[id.index()] {
                Some((ty, site)) => {
                    model.device_forms_into(site, *ty, forms);
                    &forms.0
                }
                None => &load[id.index()],
            }
        }
        let mut forms = (CanonicalForm::default(), CanonicalForm::default());

        // Upward pass: the subtree load below each node (what a buffer
        // placed there drives). A buffered node presents its input-cap
        // form to its parent instead.
        let mut load = vec![CanonicalForm::default(); n];
        for id in tree.postorder() {
            let node = tree.node(id);
            let mut l = CanonicalForm::constant(match node.kind {
                NodeKind::Sink { capacitance, .. } => capacitance,
                _ => 0.0,
            });
            for &c in &node.children {
                l.add_scaled_assign(upward(model, &device, &load, &mut forms, c), 1.0);
                l.add_constant(wire.cap_per_um * tree.node(c).edge_length);
            }
            load[id.index()] = l;
        }

        // Downward pass: a depth-first walk where `level[d]` holds the
        // arrival at the node being visited at depth `d`. Every node
        // visited between a node and its child lies deeper, so the
        // parent's buffer is intact when the child reads it.
        let root = tree.root();
        let NodeKind::Source { driver_resistance } = tree.node(root).kind else {
            panic!("root must be a source");
        };
        let mut level =
            vec![upward(model, &device, &load, &mut forms, root).scaled(driver_resistance)];
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
            let below = upward(model, &device, &load, &mut forms, id);
            t.lin_comb_into(&above[depth - 1], 1.0, below, seg.resistance);
            t.add_constant(seg.resistance * seg.capacitance / 2.0);
            if let Some((ty, _)) = device[id.index()] {
                // `upward` just wrote this buffer's delay form.
                t.add_scaled_assign(&forms.1, 1.0);
                t.add_scaled_assign(&load[id.index()], model.buffer_resistance(ty));
            }
            visit(id, depth, matches!(node.kind, NodeKind::Sink { .. }), t);
            stack.extend(node.children.iter().rev().map(|&c| (c, depth + 1)));
        }
    }
}

/// One node's running (latest, earliest) pair.
#[derive(Debug, Default)]
struct Pair {
    latest: CanonicalForm,
    earliest: CanonicalForm,
    /// Whether a sink below the node has been folded in yet.
    filled: bool,
}

impl Pair {
    /// Folds `(latest, earliest)` into a filled pair: one Clark max and
    /// one Clark min step, each through the recycled `scratch`.
    fn merge(
        &mut self,
        latest: &CanonicalForm,
        earliest: &CanonicalForm,
        scratch: &mut CanonicalForm,
    ) {
        stat_max_assign(scratch, &self.latest, latest);
        std::mem::swap(&mut self.latest, scratch);
        stat_min_assign(scratch, &self.earliest, earliest);
        std::mem::swap(&mut self.earliest, scratch);
    }
}

/// The tree-order fold behind [`SkewAnalyzer::analyze`], fed by its
/// depth-first walk.
///
/// The walk's current path holds one *open* node per depth, and
/// `pairs[d]` is the fold of the open node's finished children at depth
/// `d`. A node's subtree is finished when the walk next visits a node at
/// its depth or shallower; its pair then moves into its parent's, by
/// swap if it is the first to arrive and by a Clark step otherwise. A
/// sink, being a leaf, folds its arrival straight into its parent's
/// pair.
#[derive(Debug)]
struct TreeFold {
    pairs: Vec<Pair>,
    /// Depth of the deepest open node; the root, at depth 0, is always
    /// open.
    open: usize,
    scratch: CanonicalForm,
}

impl TreeFold {
    fn new() -> Self {
        Self {
            pairs: vec![Pair::default()],
            open: 0,
            scratch: CanonicalForm::default(),
        }
    }

    /// Closes the open nodes at `depth` and deeper, deepest first, each
    /// into its parent's pair.
    fn close_to(&mut self, depth: usize) {
        while self.open >= depth {
            let (above, here) = self.pairs.split_at_mut(self.open);
            let (parent, child) = (&mut above[self.open - 1], &mut here[0]);
            if child.filled {
                if parent.filled {
                    parent.merge(&child.latest, &child.earliest, &mut self.scratch);
                } else {
                    std::mem::swap(parent, child);
                }
            }
            self.open -= 1;
        }
    }

    /// Takes the walk's next node: closes the subtrees it finishes, then
    /// folds a sink's arrival into its parent's pair or opens any other
    /// node with an empty pair.
    fn visit(&mut self, depth: usize, sink: bool, arrival: &CanonicalForm) {
        self.close_to(depth);
        if sink {
            let parent = &mut self.pairs[depth - 1];
            if parent.filled {
                parent.merge(arrival, arrival, &mut self.scratch);
            } else {
                parent.latest.copy_from(arrival);
                parent.earliest.copy_from(arrival);
                parent.filled = true;
            }
        } else {
            if self.pairs.len() == depth {
                self.pairs.push(Pair::default());
            }
            self.pairs[depth].filled = false;
            self.open = depth;
        }
    }

    /// Closes every node below the root and returns the root's pair.
    fn finish(mut self) -> SkewAnalysis {
        self.close_to(1);
        let root = self.pairs.swap_remove(0);
        assert!(root.filled, "tree must have at least one sink");
        SkewAnalysis {
            latest: root.latest,
            earliest: root.earliest,
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
    use varbuf_stats::mc::sample_moments;
    use varbuf_stats::{stat_max, stat_min, SplitMix64};
    use varbuf_variation::SpatialKind;

    #[test]
    fn symmetric_htree_has_zero_mean_skew() {
        let tree = generate_htree(&HTreeSpec::with_levels(6));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        let analyzer = SkewAnalyzer::new(&tree, &model, VariationMode::WithinDie);
        // Unbuffered symmetric tree: all nominal arrivals identical.
        let skew = analyzer.analyze(&[]).global_skew();
        let arrivals = analyzer.arrivals(&[]);
        // Mean skew is positive (max > min with independent terms) but
        // small relative to arrival times.
        let arrival_scale = arrivals.sinks()[0].1.mean().abs();
        assert!(skew.mean() >= -1e-9);
        assert!(
            skew.mean() < 0.05 * arrival_scale,
            "skew {} vs arrival {arrival_scale}",
            skew.mean()
        );
        // Pairwise skew between mirror sinks: zero-mean.
        let a = arrivals.sinks().first().expect("sinks").0;
        let b = arrivals.sinks().last().expect("sinks").0;
        let pair = arrivals.pair_skew(a, b);
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
        for (_, a) in analyzer.arrivals(&[]).sinks() {
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
        let arrivals =
            SkewAnalyzer::new(&tree, &model, VariationMode::Nominal).arrivals(&wid.assignment);
        let elmore = ElmoreEvaluator::new(&tree).evaluate(
            &assignment_with_nominal_values(&wid.assignment, model.library())
                .expect("ids from this library"),
        );
        for (id, form) in arrivals.sinks() {
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
        let arrivals = SkewAnalyzer::new(&tree, &model, VariationMode::WithinDie).arrivals(&[]);
        let _ = arrivals.pair_skew(tree.root(), tree.root());
    }

    /// The allocating analyzer the in-place one replaced: a `HashMap`
    /// buffer lookup, a load and an arrival form for every node, sink
    /// arrivals cloned out, and Clark folds through `stat_max`/`stat_min`
    /// over the sinks in node-id order: the id-order fold the Monte Carlo
    /// test judges the tree-order fold against.
    fn reference_analyze(
        tree: &RoutingTree,
        model: &ProcessModel,
        mode: VariationMode,
        assignment: &[(NodeId, BufferTypeId)],
    ) -> (SinkArrivals, SkewAnalysis) {
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
        (
            SinkArrivals { sinks: arrivals },
            SkewAnalysis { latest, earliest },
        )
    }

    /// The tree-order fold, allocating and recursive: a sink's pair is its
    /// arrival, and every other node folds its children's pairs left to
    /// right through `stat_max`/`stat_min`.
    fn reference_tree_fold(tree: &RoutingTree, arrivals: &SinkArrivals) -> SkewAnalysis {
        fn pair(
            tree: &RoutingTree,
            arrivals: &SinkArrivals,
            id: NodeId,
        ) -> Option<(CanonicalForm, CanonicalForm)> {
            let node = tree.node(id);
            if matches!(node.kind, NodeKind::Sink { .. }) {
                let i = arrivals
                    .sinks
                    .binary_search_by_key(&id, |&(n, _)| n)
                    .expect("sink arrival");
                let a = &arrivals.sinks[i].1;
                return Some((a.clone(), a.clone()));
            }
            node.children
                .iter()
                .filter_map(|&c| pair(tree, arrivals, c))
                .reduce(|(l, e), (cl, ce)| (stat_max(&l, &cl).form, stat_min(&e, &ce).form))
        }
        let (latest, earliest) = pair(tree, arrivals, tree.root()).expect("sinks");
        SkewAnalysis { latest, earliest }
    }

    fn assert_form_bits(x: &CanonicalForm, y: &CanonicalForm, ctx: &str) {
        assert_eq!(x.mean().to_bits(), y.mean().to_bits(), "{ctx}: nominal");
        let bits = |f: &CanonicalForm| {
            f.terms()
                .map(|(id, c)| (id, c.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(x), bits(y), "{ctx}: terms");
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
                        let analyzer = SkewAnalyzer::new(tree, &model, mode);
                        let got = analyzer.arrivals(assignment);
                        let (want, _) = reference_analyze(tree, &model, mode, assignment);
                        assert_eq!(got.sinks.len(), want.sinks.len(), "{ctx}");
                        for ((gi, gf), (wi, wf)) in got.sinks.iter().zip(&want.sinks) {
                            assert_eq!(gi, wi, "{ctx}: arrival ids");
                            assert_form_bits(gf, wf, &format!("{ctx} {gi}"));
                        }
                        let got = analyzer.analyze(assignment);
                        let want = reference_tree_fold(tree, &want);
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

    /// Monte Carlo of the global skew over the sinks' arrival forms:
    /// each draw samples every source the arrivals use from N(0, 1),
    /// evaluates every sink's form, and records the max minus the min.
    /// Draws run `LANES` at a time, so each term's multiply-add is one
    /// short contiguous loop. Returns the sample mean and standard
    /// deviation.
    fn monte_carlo_global_skew(arrivals: &SinkArrivals, draws: usize, seed: u64) -> (f64, f64) {
        const LANES: usize = 16;
        fn ids(f: &CanonicalForm) -> impl Iterator<Item = usize> + '_ {
            f.terms().map(|(id, _)| id.0 as usize)
        }
        let mut used: Vec<usize> = arrivals.sinks.iter().flat_map(|(_, f)| ids(f)).collect();
        used.sort_unstable();
        used.dedup();
        let mut x = vec![[0.0; LANES]; used.last().map_or(0, |&i| i + 1)];
        let mut rng = SplitMix64::new(seed);
        let mut samples = Vec::with_capacity(draws);
        for _ in 0..draws.div_ceil(LANES) {
            for &i in &used {
                x[i] = std::array::from_fn(|_| rng.normal());
            }
            let (mut hi, mut lo) = ([f64::NEG_INFINITY; LANES], [f64::INFINITY; LANES]);
            for (_, f) in &arrivals.sinks {
                let mut v = [f.mean(); LANES];
                for (id, a) in f.terms() {
                    let i = id.0 as usize;
                    for (v, x) in v.iter_mut().zip(&x[i]) {
                        *v += a * x;
                    }
                }
                for k in 0..LANES {
                    hi[k] = hi[k].max(v[k]);
                    lo[k] = lo[k].min(v[k]);
                }
            }
            samples.extend((0..LANES).map(|k| hi[k] - lo[k]));
        }
        samples.truncate(draws);
        let (mean, var) = sample_moments(&samples);
        (mean, var.sqrt())
    }

    #[test]
    fn global_skew_is_no_further_from_monte_carlo_than_the_id_order_fold() {
        const DRAWS: usize = 4000;
        let mut trees: Vec<(String, RoutingTree)> = [4, 6, 8, 10]
            .map(|l| {
                (
                    format!("htree{l}"),
                    generate_htree(&HTreeSpec::with_levels(l)),
                )
            })
            .into();
        for sinks in [32, 128, 512] {
            for seed in [3, 11, 29] {
                let spec = BenchmarkSpec::random("skewmc", sinks, seed);
                trees.push((format!("random{sinks}/{seed}"), generate_benchmark(&spec)));
            }
        }
        // `--nocapture` prints the comparison table.
        println!("case: MC mean ± sigma | tree fold | id-order fold (ps)");
        for (name, tree) in &trees {
            for spatial in [SpatialKind::Homogeneous, SpatialKind::Heterogeneous] {
                let model = ProcessModel::paper_defaults(tree.bounding_box(), spatial);
                let mode = VariationMode::WithinDie;
                let wid = optimize_statistical(tree, &model, mode, &Options::default())
                    .expect("optimize")
                    .assignment;
                let analyzer = SkewAnalyzer::new(tree, &model, mode);
                let (mc_mean, mc_sigma) =
                    monte_carlo_global_skew(&analyzer.arrivals(&wid), DRAWS, 17);
                let tree_fold = analyzer.analyze(&wid).global_skew();
                let id_fold = reference_analyze(tree, &model, mode, &wid).1.global_skew();
                let ctx = format!(
                    "{name} {spatial:?}: {mc_mean:.2} ± {mc_sigma:.2} | {:.2} ± {:.2} | {:.2} ± {:.2}",
                    tree_fold.mean(),
                    tree_fold.std_dev(),
                    id_fold.mean(),
                    id_fold.std_dev()
                );
                println!("{ctx}");
                let mean_err = |f: &CanonicalForm| (f.mean() - mc_mean).abs();
                let sigma_err = |f: &CanonicalForm| (f.std_dev() - mc_sigma).abs();
                assert!(
                    mean_err(&tree_fold)
                        <= mean_err(&id_fold) + 3.0 * mc_sigma / (DRAWS as f64).sqrt(),
                    "{ctx}: mean"
                );
                assert!(
                    sigma_err(&tree_fold) <= sigma_err(&id_fold) + 0.1 * mc_sigma,
                    "{ctx}: sigma"
                );
            }
        }
    }
}
