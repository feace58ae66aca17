//! Persistent decision traces for backtracking.
//!
//! The dynamic program explores thousands of candidate solutions per node;
//! each must remember which buffers it inserted so the winning solution at
//! the root can be turned back into a concrete [`BufferAssignment`]. A
//! [`Trace`] is a persistent (structurally shared) DAG of decisions:
//! cloning is an `Arc` bump, and merging two subtree solutions is a single
//! `Join` node — no per-solution vector copying anywhere in the DP.
//!
//! [`BufferAssignment`]: varbuf_rctree::elmore::BufferAssignment

use std::sync::Arc;
use varbuf_rctree::NodeId;
use varbuf_variation::BufferTypeId;

/// A trace's buffer decisions and its wire-sizing decisions, as
/// [`Trace::collect`] and [`Trace::collect_wires`] list them.
pub(crate) type Decisions = (Vec<(NodeId, BufferTypeId)>, Vec<(NodeId, u8)>);

/// A persistent trace of buffer-insertion (and wire-sizing) decisions.
#[derive(Debug, Clone)]
pub enum Trace {
    /// No decisions (a bare sink or unbuffered wire).
    Empty,
    /// A buffer of `ty` inserted at `node`, on top of earlier decisions.
    Buffer {
        /// The candidate node hosting the buffer.
        node: NodeId,
        /// The library type used.
        ty: BufferTypeId,
        /// Decisions made downstream of this one.
        rest: Arc<Trace>,
    },
    /// A non-default width chosen for the edge above `node`
    /// (simultaneous buffer insertion and wire sizing, ref. \[8\]).
    Wire {
        /// The downstream node of the sized edge.
        node: NodeId,
        /// Index into the sizing option's width table.
        width_index: u8,
        /// Decisions made downstream of this one.
        rest: Arc<Trace>,
    },
    /// The union of two subtree traces (a branch merge).
    Join(Arc<Trace>, Arc<Trace>),
}

impl Trace {
    /// The shared empty trace.
    #[must_use]
    pub fn empty() -> Arc<Trace> {
        Arc::new(Trace::Empty)
    }

    /// Extends `rest` with a buffer decision.
    #[must_use]
    pub fn buffer(node: NodeId, ty: BufferTypeId, rest: Arc<Trace>) -> Arc<Trace> {
        Arc::new(Trace::Buffer { node, ty, rest })
    }

    /// Extends `rest` with a wire-sizing decision.
    #[must_use]
    pub fn wire(node: NodeId, width_index: u8, rest: Arc<Trace>) -> Arc<Trace> {
        Arc::new(Trace::Wire {
            node,
            width_index,
            rest,
        })
    }

    /// Joins two traces at a branch point.
    #[must_use]
    pub fn join(a: Arc<Trace>, b: Arc<Trace>) -> Arc<Trace> {
        // Tiny optimization: joining with an empty side is a no-op.
        match (&*a, &*b) {
            (Trace::Empty, _) => b,
            (_, Trace::Empty) => a,
            _ => Arc::new(Trace::Join(a, b)),
        }
    }

    /// Collects every `(node, type)` buffer decision reachable from this
    /// trace.
    ///
    /// The DP never records two decisions for the same node inside one
    /// solution, so the output has no duplicates.
    #[must_use]
    pub fn collect(self: &Arc<Trace>) -> Vec<(NodeId, BufferTypeId)> {
        let mut out = Vec::new();
        let mut stack: Vec<&Trace> = vec![self];
        while let Some(t) = stack.pop() {
            match t {
                Trace::Empty => {}
                Trace::Buffer { node, ty, rest } => {
                    out.push((*node, *ty));
                    stack.push(rest);
                }
                Trace::Wire { rest, .. } => stack.push(rest),
                Trace::Join(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
            }
        }
        out
    }

    /// Collects every `(node, width index)` wire-sizing decision.
    #[must_use]
    pub fn collect_wires(self: &Arc<Trace>) -> Vec<(NodeId, u8)> {
        let mut out = Vec::new();
        let mut stack: Vec<&Trace> = vec![self];
        while let Some(t) = stack.pop() {
            match t {
                Trace::Empty => {}
                Trace::Buffer { rest, .. } => stack.push(rest),
                Trace::Wire {
                    node,
                    width_index,
                    rest,
                } => {
                    out.push((*node, *width_index));
                    stack.push(rest);
                }
                Trace::Join(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
            }
        }
        out
    }

    /// Collects the buffer and the wire-sizing decisions in one walk:
    /// `(self.collect(), self.collect_wires())`, each list in the same
    /// order, for the winner's trace that both are read from.
    #[must_use]
    pub(crate) fn decisions(self: &Arc<Trace>) -> Decisions {
        let (mut buffers, mut wires) = (Vec::new(), Vec::new());
        let mut stack: Vec<&Trace> = vec![self];
        while let Some(t) = stack.pop() {
            match t {
                Trace::Empty => {}
                Trace::Buffer { node, ty, rest } => {
                    buffers.push((*node, *ty));
                    stack.push(rest);
                }
                Trace::Wire {
                    node,
                    width_index,
                    rest,
                } => {
                    wires.push((*node, *width_index));
                    stack.push(rest);
                }
                Trace::Join(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
            }
        }
        (buffers, wires)
    }

    /// Number of buffer decisions in the trace.
    #[must_use]
    pub fn buffer_count(self: &Arc<Trace>) -> usize {
        self.collect().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_collects_nothing() {
        let t = Trace::empty();
        assert!(t.collect().is_empty());
        assert_eq!(t.buffer_count(), 0);
    }

    #[test]
    fn buffer_chain_collects_in_any_order() {
        let t = Trace::buffer(
            NodeId(2),
            BufferTypeId(0),
            Trace::buffer(NodeId(5), BufferTypeId(1), Trace::empty()),
        );
        let mut got = t.collect();
        got.sort();
        assert_eq!(
            got,
            vec![(NodeId(2), BufferTypeId(0)), (NodeId(5), BufferTypeId(1))]
        );
    }

    #[test]
    fn join_unions_subtrees() {
        let left = Trace::buffer(NodeId(1), BufferTypeId(0), Trace::empty());
        let right = Trace::buffer(NodeId(2), BufferTypeId(0), Trace::empty());
        let j = Trace::join(left.clone(), right);
        assert_eq!(j.buffer_count(), 2);
        // Joining with empty returns the other side unchanged.
        let k = Trace::join(left.clone(), Trace::empty());
        assert!(Arc::ptr_eq(&k, &left));
    }

    #[test]
    fn wire_decisions_collected_separately() {
        let t = Trace::wire(
            NodeId(3),
            2,
            Trace::buffer(NodeId(1), BufferTypeId(0), Trace::empty()),
        );
        assert_eq!(t.collect(), vec![(NodeId(1), BufferTypeId(0))]);
        assert_eq!(t.collect_wires(), vec![(NodeId(3), 2)]);
        // Joins see both sides' wires.
        let u = Trace::wire(NodeId(4), 1, Trace::empty());
        let j = Trace::join(t, u);
        let mut wires = j.collect_wires();
        wires.sort();
        assert_eq!(wires, vec![(NodeId(3), 2), (NodeId(4), 1)]);
    }

    /// `decisions` is both collectors in one walk: the same lists in the
    /// same order, on chains, joins (nested and shared) and traces that
    /// mix buffer and wire decisions.
    #[test]
    fn one_walk_matches_both_collectors() {
        let b = |n: u32, ty: usize, rest| Trace::buffer(NodeId(n), BufferTypeId(ty), rest);
        let w = |n: u32, wi: u8, rest| Trace::wire(NodeId(n), wi, rest);
        let mut chain = Trace::empty();
        for i in 0..20 {
            chain = if i % 3 == 0 {
                w(i, (i % 4) as u8, chain)
            } else {
                b(i, (i % 2) as usize, chain)
            };
        }
        let left = b(30, 1, w(31, 2, b(32, 0, Trace::empty())));
        let right = w(
            40,
            1,
            Trace::join(b(41, 0, Trace::empty()), w(42, 3, Trace::empty())),
        );
        let nested = Trace::join(Trace::join(left.clone(), right.clone()), chain.clone());
        let shared = Trace::join(nested.clone(), b(50, 1, nested.clone()));
        let cases = [
            Trace::empty(),
            b(1, 0, Trace::empty()),
            w(2, 1, Trace::empty()),
            chain,
            Trace::join(left.clone(), right.clone()),
            Trace::join(right, left),
            nested,
            shared,
        ];
        for (i, t) in cases.iter().enumerate() {
            let (buffers, wires) = t.decisions();
            assert_eq!(buffers, t.collect(), "case {i}: buffers");
            assert_eq!(wires, t.collect_wires(), "case {i}: wires");
        }
    }

    #[test]
    fn structural_sharing_is_cheap() {
        // A deep chain shared by many solutions: cloning must not deep-copy.
        let mut t = Trace::empty();
        for i in 0..1000 {
            t = Trace::buffer(NodeId(i), BufferTypeId(0), t);
        }
        let clones: Vec<_> = (0..100).map(|_| t.clone()).collect();
        assert_eq!(clones[99].buffer_count(), 1000);
    }
}
