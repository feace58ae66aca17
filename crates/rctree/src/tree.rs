//! The arena-based routing tree.
//!
//! A [`RoutingTree`] is a rooted tree over three kinds of nodes:
//!
//! * exactly one **source** (the driver) at the root,
//! * **sinks** at the leaves, each with a load capacitance and a required
//!   arrival time (RAT),
//! * **internal** nodes (Steiner / branch points) everywhere else.
//!
//! Every edge connects a parent to a child and carries a wire length.
//! Following the paper's benchmark convention (Table 1: `positions =
//! 2·sinks − 1` for a binary topology), each edge offers **one legal
//! buffer position at its downstream endpoint**; nodes can opt out via
//! [`RoutingTree::set_candidate`].

use crate::geom::{BoundingBox, Point};
use crate::wire::WireParams;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

/// Index of a node inside a [`RoutingTree`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The arena index as `usize`.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a tree node is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeKind {
    /// The driver at the root of the net. Carries the driver resistance
    /// (kΩ) used when computing the delay from the source into the tree.
    Source {
        /// Driver output resistance, kΩ.
        driver_resistance: f64,
    },
    /// A leaf being driven.
    Sink {
        /// Input (load) capacitance, fF.
        capacitance: f64,
        /// Required arrival time, ps. The optimization maximizes the RAT
        /// propagated to the root.
        required_arrival: f64,
    },
    /// A Steiner / branch point.
    Internal,
}

/// One node of the arena.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Position on the die.
    pub location: Point,
    /// What the node is.
    pub kind: NodeKind,
    /// Parent link (`None` only for the root).
    pub parent: Option<NodeId>,
    /// Wire length of the edge from the parent, µm (0 for the root).
    pub edge_length: f64,
    /// Whether a buffer may legally be inserted at this node (at the
    /// downstream end of its parent edge). Always `false` for the root.
    pub is_candidate: bool,
    /// Children, in insertion order.
    pub children: Vec<NodeId>,
}

/// Structural error detected by [`RoutingTree::validate`] or during
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeError {
    /// The tree has no nodes.
    Empty,
    /// A non-root node has no parent, or the root has one.
    BrokenParentLink(NodeId),
    /// Parent/child links disagree.
    InconsistentChildLink {
        /// The parent whose child list is wrong.
        parent: NodeId,
        /// The child with the broken link.
        child: NodeId,
    },
    /// A sink has children.
    SinkWithChildren(NodeId),
    /// A non-sink leaf (dangling internal node).
    DanglingInternal(NodeId),
    /// A second source node was found.
    MultipleSources(NodeId),
    /// The root is not a source.
    RootNotSource,
    /// Edge length is negative or non-finite.
    BadEdgeLength(NodeId),
    /// Node is unreachable from the root (cycle or disconnection).
    Unreachable(NodeId),
    /// A sink parameter is invalid (negative capacitance, non-finite RAT).
    BadSink(NodeId),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Empty => write!(f, "routing tree has no nodes"),
            TreeError::BrokenParentLink(n) => write!(f, "broken parent link at {n}"),
            TreeError::InconsistentChildLink { parent, child } => {
                write!(f, "inconsistent child link {parent} -> {child}")
            }
            TreeError::SinkWithChildren(n) => write!(f, "sink {n} has children"),
            TreeError::DanglingInternal(n) => write!(f, "internal node {n} is a leaf"),
            TreeError::MultipleSources(n) => write!(f, "unexpected extra source at {n}"),
            TreeError::RootNotSource => write!(f, "root node is not a source"),
            TreeError::BadEdgeLength(n) => write!(f, "bad edge length at {n}"),
            TreeError::Unreachable(n) => write!(f, "node {n} unreachable from the root"),
            TreeError::BadSink(n) => write!(f, "sink {n} has invalid parameters"),
        }
    }
}

impl Error for TreeError {}

/// A rooted RC routing tree with wire parameters.
///
/// Construction is incremental: create the tree with its source, then
/// attach internal nodes and sinks. All structural invariants are checked
/// by [`RoutingTree::validate`], which remembers a pass until the next
/// attach, so re-validating a tree that was only edited costs nothing.
///
/// ```
/// use varbuf_rctree::{RoutingTree, NodeKind, Point, WireParams};
///
/// let mut t = RoutingTree::new(Point::new(0.0, 0.0), 0.1, WireParams::default_65nm());
/// let mid = t.add_internal(t.root(), Point::new(500.0, 0.0));
/// t.add_sink(mid, Point::new(1000.0, 0.0), 20.0, 0.0);
/// t.add_sink(mid, Point::new(500.0, 500.0), 15.0, 0.0);
/// t.validate().unwrap();
/// assert_eq!(t.sink_count(), 2);
/// assert_eq!(t.candidate_count(), 3); // one per edge
/// ```
#[derive(Debug)]
pub struct RoutingTree {
    nodes: Vec<Node>,
    wire: WireParams,
    name: String,
    /// Sink nodes attached so far: a sink stays a sink.
    sinks: usize,
    /// Whether [`RoutingTree::validate`] passed since the last attach.
    /// Atomic because engine workers share the tree by reference.
    /// `Relaxed` suffices: it publishes no other data, since the nodes
    /// it vouches for change only through `&mut self`, which happens
    /// before any shared reader can load it.
    validated: AtomicBool,
}

impl Clone for RoutingTree {
    fn clone(&self) -> Self {
        Self {
            nodes: self.nodes.clone(),
            wire: self.wire,
            name: self.name.clone(),
            sinks: self.sinks,
            validated: AtomicBool::new(self.validated.load(Ordering::Relaxed)),
        }
    }
}

/// Trees are equal by content; whether one has been validated yet is
/// not part of it.
impl PartialEq for RoutingTree {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.wire == other.wire && self.name == other.name
    }
}

impl RoutingTree {
    /// Creates a tree containing just the source node.
    #[must_use]
    pub fn new(source_location: Point, driver_resistance: f64, wire: WireParams) -> Self {
        Self {
            nodes: vec![Node {
                location: source_location,
                kind: NodeKind::Source { driver_resistance },
                parent: None,
                edge_length: 0.0,
                is_candidate: false,
                children: Vec::new(),
            }],
            wire,
            name: String::new(),
            sinks: 0,
            validated: AtomicBool::new(false),
        }
    }

    /// Sets a human-readable benchmark name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The benchmark name (may be empty).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The root (source) node id.
    #[inline]
    #[must_use]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// The wire parameters.
    #[inline]
    #[must_use]
    pub fn wire(&self) -> WireParams {
        self.wire
    }

    /// Total number of nodes.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty (never true after construction).
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Iterator over `(NodeId, &Node)` in arena order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Ids of all sink nodes.
    pub fn sinks(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Sink { .. }))
            .map(|(id, _)| id)
    }

    /// Number of sinks, counted as they are attached.
    #[inline]
    #[must_use]
    pub fn sink_count(&self) -> usize {
        self.sinks
    }

    /// Number of legal buffer positions.
    #[must_use]
    pub fn candidate_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_candidate).count()
    }

    /// Total wire length, µm.
    #[must_use]
    pub fn total_wire_length(&self) -> f64 {
        self.nodes.iter().map(|n| n.edge_length).sum()
    }

    /// Bounding box of all node locations.
    #[must_use]
    pub fn bounding_box(&self) -> BoundingBox {
        BoundingBox::of(self.nodes.iter().map(|n| n.location))
            .expect("tree always has at least the source")
    }

    /// Attaches an internal (Steiner) node under `parent`; edge length is
    /// the Manhattan distance between the endpoints. The node is a buffer
    /// candidate by default.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is out of range or is a sink.
    pub fn add_internal(&mut self, parent: NodeId, location: Point) -> NodeId {
        self.attach(parent, location, NodeKind::Internal)
    }

    /// Attaches a sink under `parent`. The sink position is a buffer
    /// candidate by default (a buffer may shield the sink from upstream).
    ///
    /// # Panics
    ///
    /// Panics if `parent` is out of range or is a sink, if `capacitance`
    /// is negative, or if either parameter is non-finite.
    pub fn add_sink(
        &mut self,
        parent: NodeId,
        location: Point,
        capacitance: f64,
        required_arrival: f64,
    ) -> NodeId {
        assert!(
            capacitance.is_finite() && capacitance >= 0.0,
            "sink capacitance must be finite and non-negative"
        );
        assert!(
            required_arrival.is_finite(),
            "sink required arrival time must be finite"
        );
        self.attach(
            parent,
            location,
            NodeKind::Sink {
                capacitance,
                required_arrival,
            },
        )
    }

    fn attach(&mut self, parent: NodeId, location: Point, kind: NodeKind) -> NodeId {
        assert!(parent.index() < self.nodes.len(), "parent out of range");
        assert!(
            !matches!(self.nodes[parent.index()].kind, NodeKind::Sink { .. }),
            "cannot attach a child to a sink"
        );
        let edge_length = self.nodes[parent.index()].location.manhattan(location);
        let id = NodeId(self.nodes.len() as u32);
        self.sinks += usize::from(matches!(kind, NodeKind::Sink { .. }));
        // A new node can break the structure (a childless internal node,
        // an infinite Manhattan length), so the next validate re-checks.
        *self.validated.get_mut() = false;
        self.nodes.push(Node {
            location,
            kind,
            parent: Some(parent),
            edge_length,
            is_candidate: true,
            children: Vec::new(),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Enables/disables the buffer position at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is the root (the source is never a candidate) or out
    /// of range.
    pub fn set_candidate(&mut self, id: NodeId, candidate: bool) {
        assert!(id != self.root(), "the source cannot host a buffer");
        self.nodes[id.index()].is_candidate = candidate;
    }

    /// Overwrites the load capacitance and required arrival time of the
    /// sink at `id`, keeping the node's position and links intact. This is
    /// the mutation surface incremental re-optimization edits through.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or not a sink, if `capacitance` is
    /// negative, or if either parameter is non-finite.
    pub fn set_sink(&mut self, id: NodeId, capacitance: f64, required_arrival: f64) {
        assert!(
            capacitance.is_finite() && capacitance >= 0.0,
            "sink capacitance must be finite and non-negative"
        );
        assert!(
            required_arrival.is_finite(),
            "sink required arrival time must be finite"
        );
        let node = &mut self.nodes[id.index()];
        assert!(
            matches!(node.kind, NodeKind::Sink { .. }),
            "set_sink target must be a sink"
        );
        node.kind = NodeKind::Sink {
            capacitance,
            required_arrival,
        };
    }

    /// Overrides the wire length of the edge above `id` (by default the
    /// Manhattan distance between the endpoints; detoured routes may be
    /// longer).
    ///
    /// # Panics
    ///
    /// Panics if `id` is the root, out of range, or `length` is negative
    /// or non-finite.
    pub fn set_edge_length(&mut self, id: NodeId, length: f64) {
        assert!(id != self.root(), "the root has no parent edge");
        assert!(
            length.is_finite() && length >= 0.0,
            "edge length must be finite and non-negative"
        );
        self.nodes[id.index()].edge_length = length;
    }

    /// Post-order (children before parents) traversal from the root.
    ///
    /// This is the reverse-topological order the dynamic program consumes.
    #[must_use]
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        // Iterative post-order with an explicit stack of (node, visited).
        let mut stack = vec![(self.root(), false)];
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                order.push(id);
            } else {
                stack.push((id, true));
                for &c in &self.nodes[id.index()].children {
                    stack.push((c, false));
                }
            }
        }
        order
    }

    /// Returns a copy of the tree with every edge longer than
    /// `max_segment_um` subdivided into equal pieces by chains of
    /// internal candidate nodes.
    ///
    /// Buffer-insertion quality depends on how finely wires expose legal
    /// positions; the generated benchmarks default to one position per
    /// Steiner edge (matching Table 1 of the paper), and this method
    /// refines that when more placement freedom is wanted.
    ///
    /// # Panics
    ///
    /// Panics if `max_segment_um` is not strictly positive.
    #[must_use]
    pub fn subdivided(&self, max_segment_um: f64) -> RoutingTree {
        assert!(
            max_segment_um > 0.0,
            "segment length must be positive, got {max_segment_um}"
        );
        let root = self.root();
        let mut out = RoutingTree::new(
            self.nodes[root.index()].location,
            match self.nodes[root.index()].kind {
                NodeKind::Source { driver_resistance } => driver_resistance,
                _ => 0.0,
            },
            self.wire,
        );
        out.set_name(self.name.clone());

        // Map old ids to new ids, walking parents before children
        // (pre-order = reverse post-order).
        let mut remap: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        remap[root.index()] = Some(out.root());
        for &old_id in self.postorder().iter().rev() {
            if old_id == root {
                continue;
            }
            let node = &self.nodes[old_id.index()];
            let old_parent = node.parent.expect("non-root");
            let mut parent = remap[old_parent.index()].expect("pre-order");
            let parent_loc = out.node(parent).location;

            // Insert intermediate candidates along the edge.
            let pieces = (node.edge_length / max_segment_um).ceil().max(1.0) as usize;
            for k in 1..pieces {
                let t = k as f64 / pieces as f64;
                let loc = Point::new(
                    parent_loc.x + t * (node.location.x - parent_loc.x),
                    parent_loc.y + t * (node.location.y - parent_loc.y),
                );
                let mid = out.add_internal(parent, loc);
                out.set_edge_length(mid, node.edge_length / pieces as f64);
                parent = mid;
            }
            let new_id = match node.kind {
                NodeKind::Sink {
                    capacitance,
                    required_arrival,
                } => out.add_sink(parent, node.location, capacitance, required_arrival),
                _ => out.add_internal(parent, node.location),
            };
            out.set_edge_length(new_id, node.edge_length / pieces as f64);
            out.set_candidate(new_id, node.is_candidate);
            remap[old_id.index()] = Some(new_id);
        }
        out
    }

    /// Checks all structural invariants.
    ///
    /// A pass is remembered: the next call returns `Ok` in O(1) until a
    /// node is attached ([`add_internal`](Self::add_internal) or
    /// [`add_sink`](Self::add_sink)), which clears it. The in-place
    /// setters ([`set_sink`](Self::set_sink),
    /// [`set_edge_length`](Self::set_edge_length),
    /// [`set_candidate`](Self::set_candidate)) keep it, because they
    /// assert the same conditions on their inputs that this check reads.
    /// So a resident tree that is only edited is walked once.
    ///
    /// # Errors
    ///
    /// Returns the first [`TreeError`] found; see the enum for the list of
    /// conditions.
    pub fn validate(&self) -> Result<(), TreeError> {
        if self.validated.load(Ordering::Relaxed) {
            return Ok(());
        }
        self.check()?;
        self.validated.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// The full structural check behind [`validate`](Self::validate).
    fn check(&self) -> Result<(), TreeError> {
        if self.nodes.is_empty() {
            return Err(TreeError::Empty);
        }
        if !matches!(self.nodes[0].kind, NodeKind::Source { .. }) {
            return Err(TreeError::RootNotSource);
        }
        if self.nodes[0].parent.is_some() {
            return Err(TreeError::BrokenParentLink(self.root()));
        }

        let mut reached = vec![false; self.nodes.len()];
        let mut stack = vec![self.root()];
        while let Some(id) = stack.pop() {
            if reached[id.index()] {
                // A node reachable twice means a child appears in two
                // child lists — surface it as an inconsistent link.
                return Err(TreeError::InconsistentChildLink {
                    parent: self.nodes[id.index()].parent.unwrap_or(self.root()),
                    child: id,
                });
            }
            reached[id.index()] = true;
            let node = &self.nodes[id.index()];
            for &c in &node.children {
                if c.index() >= self.nodes.len() || self.nodes[c.index()].parent != Some(id) {
                    return Err(TreeError::InconsistentChildLink {
                        parent: id,
                        child: c,
                    });
                }
                stack.push(c);
            }
        }

        for (i, node) in self.nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            if !reached[i] {
                return Err(TreeError::Unreachable(id));
            }
            if i != 0 {
                if node.parent.is_none() {
                    return Err(TreeError::BrokenParentLink(id));
                }
                if matches!(node.kind, NodeKind::Source { .. }) {
                    return Err(TreeError::MultipleSources(id));
                }
                if !node.edge_length.is_finite() || node.edge_length < 0.0 {
                    return Err(TreeError::BadEdgeLength(id));
                }
            }
            match node.kind {
                NodeKind::Sink {
                    capacitance,
                    required_arrival,
                } => {
                    if !node.children.is_empty() {
                        return Err(TreeError::SinkWithChildren(id));
                    }
                    if !capacitance.is_finite()
                        || capacitance < 0.0
                        || !required_arrival.is_finite()
                    {
                        return Err(TreeError::BadSink(id));
                    }
                }
                NodeKind::Internal => {
                    if node.children.is_empty() {
                        return Err(TreeError::DanglingInternal(id));
                    }
                }
                NodeKind::Source { .. } => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_sink_tree() -> RoutingTree {
        let mut t = RoutingTree::new(Point::new(0.0, 0.0), 0.1, WireParams::default_65nm());
        let mid = t.add_internal(t.root(), Point::new(100.0, 0.0));
        t.add_sink(mid, Point::new(200.0, 0.0), 10.0, 0.0);
        t.add_sink(mid, Point::new(100.0, 100.0), 20.0, -50.0);
        t
    }

    #[test]
    fn construction_and_counts() {
        let t = two_sink_tree();
        assert_eq!(t.len(), 4);
        assert_eq!(t.sink_count(), 2);
        assert_eq!(t.candidate_count(), 3);
        assert_eq!(t.total_wire_length(), 300.0);
        t.validate().expect("valid");
    }

    #[test]
    fn edge_lengths_are_manhattan() {
        let t = two_sink_tree();
        let mid = NodeId(1);
        assert_eq!(t.node(mid).edge_length, 100.0);
        assert_eq!(t.node(NodeId(3)).edge_length, 100.0);
    }

    #[test]
    fn postorder_children_first() {
        let t = two_sink_tree();
        let order = t.postorder();
        assert_eq!(order.len(), 4);
        assert_eq!(*order.last().unwrap(), t.root());
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        // Children come before their parent.
        assert!(pos(NodeId(2)) < pos(NodeId(1)));
        assert!(pos(NodeId(3)) < pos(NodeId(1)));
        assert!(pos(NodeId(1)) < pos(NodeId(0)));
    }

    #[test]
    fn set_candidate_changes_count() {
        let mut t = two_sink_tree();
        t.set_candidate(NodeId(2), false);
        assert_eq!(t.candidate_count(), 2);
        t.set_candidate(NodeId(2), true);
        assert_eq!(t.candidate_count(), 3);
    }

    #[test]
    fn set_sink_updates_parameters_in_place() {
        let mut t = two_sink_tree();
        t.set_sink(NodeId(2), 42.0, -7.5);
        assert_eq!(
            t.node(NodeId(2)).kind,
            NodeKind::Sink {
                capacitance: 42.0,
                required_arrival: -7.5
            }
        );
        t.validate().expect("still valid");
    }

    #[test]
    #[should_panic(expected = "must be a sink")]
    fn set_sink_rejects_non_sinks() {
        let mut t = two_sink_tree();
        t.set_sink(NodeId(1), 10.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "source cannot host a buffer")]
    fn root_cannot_be_candidate() {
        let mut t = two_sink_tree();
        t.set_candidate(t.root(), true);
    }

    #[test]
    #[should_panic(expected = "cannot attach a child to a sink")]
    fn sink_cannot_have_children() {
        let mut t = two_sink_tree();
        t.add_sink(NodeId(2), Point::new(300.0, 0.0), 5.0, 0.0);
    }

    #[test]
    fn validate_detects_dangling_internal() {
        let mut t = RoutingTree::new(Point::new(0.0, 0.0), 0.1, WireParams::default_65nm());
        t.add_internal(t.root(), Point::new(10.0, 0.0));
        assert_eq!(t.validate(), Err(TreeError::DanglingInternal(NodeId(1))));
    }

    #[test]
    fn validate_detects_bad_edge_length() {
        let mut t = two_sink_tree();
        // `attach` stores the Manhattan distance to a non-finite
        // location as the edge length, bypassing the setter's assert.
        let far = t.add_sink(NodeId(1), Point::new(f64::INFINITY, 0.0), 5.0, 0.0);
        assert_eq!(t.node(far).edge_length, f64::INFINITY);
        assert_eq!(t.validate(), Err(TreeError::BadEdgeLength(far)));
    }

    #[test]
    fn attaching_a_bad_edge_after_a_pass_fails_again() {
        let mut t = two_sink_tree();
        t.validate().expect("valid");
        let far = t.add_sink(NodeId(1), Point::new(0.0, f64::NEG_INFINITY), 5.0, 0.0);
        assert_eq!(t.validate(), Err(TreeError::BadEdgeLength(far)));
        // A failed check is not remembered as a pass.
        assert_eq!(t.validate(), Err(TreeError::BadEdgeLength(far)));
    }

    #[test]
    fn attaching_a_childless_internal_after_a_pass_fails_again() {
        let mut t = two_sink_tree();
        t.validate().expect("valid");
        let stub = t.add_internal(NodeId(1), Point::new(150.0, 50.0));
        assert_eq!(t.validate(), Err(TreeError::DanglingInternal(stub)));
        // Giving it a sink repairs the tree, and the next check sees it.
        t.add_sink(stub, Point::new(160.0, 50.0), 5.0, 0.0);
        t.validate().expect("valid again");
    }

    #[test]
    fn in_place_setters_keep_a_pass() {
        let mut t = two_sink_tree();
        t.validate().expect("valid");
        t.set_sink(NodeId(2), 33.0, -12.0);
        t.set_edge_length(NodeId(3), 250.0);
        t.set_candidate(NodeId(1), false);
        t.validate().expect("still valid");
        // The remembered pass agrees with a full check of the edited tree.
        assert_eq!(t.check(), Ok(()));
        // A clone keeps the pass, and equality ignores it.
        let copy = t.clone();
        assert!(copy.validated.load(Ordering::Relaxed));
        *t.validated.get_mut() = false;
        assert_eq!(copy, t);
    }

    #[test]
    fn sink_count_matches_a_scan() {
        let scan = |t: &RoutingTree| t.sinks().count();
        let mut t = RoutingTree::new(Point::new(0.0, 0.0), 0.1, WireParams::default_65nm());
        assert_eq!(t.sink_count(), 0);
        let mid = t.add_internal(t.root(), Point::new(100.0, 0.0));
        assert_eq!(t.sink_count(), scan(&t));
        let s = t.add_sink(mid, Point::new(200.0, 0.0), 10.0, 0.0);
        let inner = t.add_internal(mid, Point::new(100.0, 300.0));
        t.add_sink(inner, Point::new(50.0, 300.0), 4.0, 1.0);
        t.add_sink(inner, Point::new(150.0, 300.0), 6.0, 2.0);
        t.set_sink(s, 12.0, -3.0);
        assert_eq!(t.sink_count(), 3);
        assert_eq!(t.sink_count(), scan(&t));
        let s = t.subdivided(40.0);
        assert_eq!(s.sink_count(), 3);
        assert_eq!(s.sink_count(), scan(&s));
        let mut buf = Vec::new();
        crate::io::write_tree(&s, &mut buf).expect("write");
        let back = crate::io::read_tree(buf.as_slice()).expect("read");
        assert_eq!(back.sink_count(), scan(&back));
        assert_eq!(back.sink_count(), 3);
        let generated = crate::generate::generate_benchmark(
            &crate::generate::BenchmarkSpec::random("count", 37, 4),
        );
        assert_eq!(generated.sink_count(), scan(&generated));
        assert_eq!(generated.sink_count(), 37);
    }

    #[test]
    fn debug_format_names_node_kinds() {
        let t = two_sink_tree();
        let debug = format!("{t:?}");
        assert!(debug.contains("Sink"));
    }

    #[test]
    fn subdivided_preserves_structure_and_length() {
        let t = two_sink_tree();
        let s = t.subdivided(30.0);
        s.validate().expect("valid");
        assert_eq!(s.sink_count(), t.sink_count());
        assert!((s.total_wire_length() - t.total_wire_length()).abs() < 1e-9);
        // Each 100 µm edge becomes four 25 µm pieces: 3 edges → 12 edges.
        assert_eq!(s.candidate_count(), 12);
        // Electrically identical: same Elmore delays at sinks.
        let et = crate::elmore::ElmoreEvaluator::new(&t).evaluate_unbuffered();
        let es = crate::elmore::ElmoreEvaluator::new(&s).evaluate_unbuffered();
        assert!((et.root_rat - es.root_rat).abs() < 1e-9 * et.root_rat.abs().max(1.0));
    }

    #[test]
    fn subdivided_with_large_limit_is_identity_shaped() {
        let t = two_sink_tree();
        let s = t.subdivided(1e9);
        assert_eq!(s.len(), t.len());
        assert_eq!(s.candidate_count(), t.candidate_count());
        assert!((s.total_wire_length() - t.total_wire_length()).abs() < 1e-9);
    }

    #[test]
    fn display_of_errors() {
        assert!(!TreeError::Empty.to_string().is_empty());
        assert!(TreeError::Unreachable(NodeId(3)).to_string().contains("n3"));
    }
}
