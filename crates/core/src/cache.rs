//! Epoch-scoped solution caching for incremental re-optimization.
//!
//! The van Ginneken-style DP is naturally incremental: a node's pruned
//! solution list is a pure function of its subtree (topology, sink
//! parameters, wire lengths) plus the run-wide inputs (buffer library,
//! pruning rule, options). This module provides the two pieces the
//! resident service needs to exploit that:
//!
//! * [`NodeSigs`] — per-node Merkle content signatures. A node's
//!   signature folds its own parameters with its children's signatures,
//!   so an edit at node `v` changes exactly the signatures on the path
//!   `v → root` and nothing else. [`NodeSigs::update_path`] recomputes
//!   that path and returns it — the dirty set for the next run.
//! * [`SolutionCache`] — a per-session arena mapping node index →
//!   `(signature, cached list)` under a run-wide signature
//!   ([`run_signature`]: rule, mode, epsilon, sizing widths, lazy wire,
//!   cut plan, model epoch). A lookup hits only when both the run
//!   signature and the node's content signature match, so replayed
//!   lists are byte-identical to what a cold run would have produced at
//!   that node.
//!
//! A node's entry is its list as its parent reads it: lifted through
//! the node's parent edge (which its signature covers), pruned, and,
//! when the parent merges, with its deferred wire landed. The root has
//! no parent, so its entry is its own list, materialized as winner
//! selection reads it. Entries are [`CachedList`]s behind an `Arc` that
//! the cache and the engine walk share: a store keeps the walk's list
//! by handle and a replay hands the handle back, so neither copies a
//! solution.
//!
//! Model-level inputs (buffer library, variation budgets) are *not* part
//! of the node signatures — the service bumps a `model_epoch` instead,
//! which flows into the run signature and flushes the whole cache in one
//! comparison.

use crate::hier::HierOptions;
use crate::solution::StatSolution;
use std::sync::Arc;
use varbuf_rctree::{NodeId, NodeKind, RoutingTree};

/// `splitmix64` finalizer — the same mixer the in-tree RNG uses; good
/// avalanche behaviour for hash folding at one multiply-shift per word.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Folds one word into a running signature.
#[inline]
fn fold(acc: u64, word: u64) -> u64 {
    mix(acc ^ word)
}

/// Folds an `f64` by exact bit pattern (`-0.0 != 0.0` is fine here: the
/// tree validators reject non-finite values and edits go through the
/// same setters, so bit equality is the equality we want).
#[inline]
fn fold_f64(acc: u64, value: f64) -> u64 {
    fold(acc, value.to_bits())
}

/// Per-node Merkle content signatures for a routing tree.
///
/// `sigs[i]` covers the entire subtree rooted at node `i`: the node's
/// kind and parameters, its parent-edge length, its candidate flag, its
/// location, the tree's wire parameters, and — recursively — all child
/// signatures in child order.
#[derive(Debug, Clone)]
pub struct NodeSigs {
    sigs: Vec<u64>,
}

impl NodeSigs {
    /// Computes signatures for every node of `tree` bottom-up.
    #[must_use]
    pub fn build(tree: &RoutingTree) -> Self {
        let mut sigs = vec![0u64; tree.len()];
        for &id in &tree.postorder() {
            sigs[id.index()] = Self::node_sig(tree, id, &sigs);
        }
        Self { sigs }
    }

    /// Local + children fold for one node, reading child signatures from
    /// `sigs` (children must already be up to date).
    fn node_sig(tree: &RoutingTree, id: NodeId, sigs: &[u64]) -> u64 {
        let node = tree.node(id);
        let wire = tree.wire();
        let mut acc = match node.kind {
            NodeKind::Source { driver_resistance } => fold_f64(fold(0x51, 0), driver_resistance),
            NodeKind::Sink {
                capacitance,
                required_arrival,
            } => fold_f64(fold_f64(fold(0x53, 0), capacitance), required_arrival),
            NodeKind::Internal => fold(0x49, 0),
        };
        acc = fold_f64(acc, node.edge_length);
        acc = fold(acc, u64::from(node.is_candidate));
        acc = fold_f64(acc, node.location.x);
        acc = fold_f64(acc, node.location.y);
        acc = fold_f64(acc, wire.res_per_um);
        acc = fold_f64(acc, wire.cap_per_um);
        for &c in &node.children {
            acc = fold(acc, sigs[c.index()]);
        }
        acc
    }

    /// Recomputes the signatures on the path `from → root` after an edit
    /// at `from`, and returns the path (the dirty node set) in leaf-first
    /// order. All off-path signatures are untouched.
    pub fn update_path(&mut self, tree: &RoutingTree, from: NodeId) -> Vec<NodeId> {
        let mut path = Vec::new();
        let mut cursor = Some(from);
        while let Some(id) = cursor {
            self.sigs[id.index()] = Self::node_sig(tree, id, &self.sigs);
            path.push(id);
            cursor = tree.node(id).parent;
        }
        path
    }

    /// The signature of node `id`.
    #[inline]
    #[must_use]
    pub fn get(&self, id: NodeId) -> u64 {
        self.sigs[id.index()]
    }

    /// Number of node signatures held.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Whether the signature table is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }
}

/// Run-wide cache signature: everything that changes a node's pruned
/// list *without* changing the node's subtree content. `rule_tag` is the
/// pruning-rule discriminant, `mode_tag` the variation mode, `epsilon`
/// the sparsify threshold, `widths` the wire-sizing width count,
/// `lazy_wire` whether lazy wire propagation is enabled (cached lists
/// carry deferred-coupling state and slightly different term bits, so
/// lazy and eager runs must never share entries), `hier` the cut plan
/// (a cut node caches its spliced list, so flat and hierarchical runs,
/// or two cut plans, must never share entries either), and
/// `model_epoch` the session's library/model generation.
#[must_use]
pub fn run_signature(
    rule_tag: u64,
    mode_tag: u64,
    epsilon: f64,
    widths: usize,
    lazy_wire: bool,
    hier: Option<&HierOptions>,
    model_epoch: u64,
) -> u64 {
    let mut acc = fold(0x7255_4e53_4947, rule_tag);
    acc = fold(acc, mode_tag);
    acc = fold_f64(acc, epsilon);
    acc = fold(acc, widths as u64);
    acc = fold(acc, u64::from(lazy_wire));
    acc = fold(acc, u64::from(hier.is_some()));
    if let Some(h) = hier {
        acc = fold(acc, h.cut_nodes as u64);
        acc = fold(acc, h.fanout_cut as u64);
        acc = fold_f64(acc, h.splice_epsilon);
        acc = fold(acc, h.frontier_cap as u64);
    }
    fold(acc, model_epoch)
}

/// One node's cached list, as the engine walk hands it to the node's
/// parent (see the module docs for what it holds at the root).
#[derive(Debug, Clone)]
pub struct CachedList {
    /// The list, shared by handle between the cache and the walk that
    /// replays it.
    pub list: Arc<Vec<StatSolution>>,
    /// At a cut node, the bytes its spliced frontier charged while
    /// parked, before its parent lifted it, so a replay parks what a
    /// cold run parks; 0 at every other node.
    pub parked: usize,
}

/// One cached node entry: the content signature the list was computed
/// under, plus the list itself.
#[derive(Debug)]
struct Entry {
    sig: u64,
    cached: CachedList,
}

/// Arena of cached per-node solution lists for one session.
///
/// The cache is valid for exactly one run signature at a time; a
/// [`SolutionCache::begin_run`] with a different signature flushes it.
/// Entries are validated per lookup against the node's current content
/// signature, so stale subtrees simply miss.
#[derive(Debug, Default)]
pub struct SolutionCache {
    run_sig: u64,
    entries: Vec<Option<Entry>>,
    live: usize,
    invalidations: u64,
}

impl SolutionCache {
    /// A fresh, empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares the cache for a run over `n` nodes under `run_sig`. If
    /// the signature differs from the previous run's, every live entry
    /// is dropped (and counted as an invalidation).
    pub fn begin_run(&mut self, run_sig: u64, n: usize) {
        if self.run_sig != run_sig {
            self.clear();
            self.run_sig = run_sig;
        }
        if self.entries.len() != n {
            self.clear();
            self.entries.resize_with(n, || None);
        }
    }

    /// The list cached for node `id`, if its content signature still
    /// matches.
    #[must_use]
    pub fn lookup(&self, id: NodeId, sig: u64) -> Option<&CachedList> {
        match self.entries.get(id.index())? {
            Some(e) if e.sig == sig => Some(&e.cached),
            _ => None,
        }
    }

    /// Stores `cached` for node `id` under `sig`, keeping its handle
    /// (the list is not copied).
    pub fn store(&mut self, id: NodeId, sig: u64, cached: CachedList) {
        if id.index() >= self.entries.len() {
            return;
        }
        let slot = &mut self.entries[id.index()];
        if slot.is_none() {
            self.live += 1;
        }
        *slot = Some(Entry { sig, cached });
    }

    /// Drops the entry for node `id`, if any.
    pub fn invalidate(&mut self, id: NodeId) {
        if let Some(slot) = self.entries.get_mut(id.index()) {
            if slot.take().is_some() {
                self.live -= 1;
                self.invalidations += 1;
            }
        }
    }

    /// Drops every entry (counting each as an invalidation) — used when
    /// a degraded, cancelled, or failed run may have produced lists that
    /// do not match the unconstrained fixpoint.
    pub fn clear(&mut self) {
        self.invalidations += self.live as u64;
        self.live = 0;
        for slot in &mut self.entries {
            *slot = None;
        }
    }

    /// Number of nodes currently holding a cached list.
    #[inline]
    #[must_use]
    pub fn live_entries(&self) -> usize {
        self.live
    }

    /// Total entries dropped over the cache's lifetime.
    #[inline]
    #[must_use]
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use varbuf_rctree::{Point, WireParams};

    fn chain_tree(sinks: usize) -> RoutingTree {
        let mut t = RoutingTree::new(Point::new(0.0, 0.0), 0.1, WireParams::default_65nm());
        let mut parent = t.root();
        for i in 0..sinks {
            let x = 100.0 * (i + 1) as f64;
            let mid = t.add_internal(parent, Point::new(x, 0.0));
            t.add_sink(mid, Point::new(x, 100.0), 10.0 + i as f64, 0.0);
            parent = mid;
        }
        t
    }

    fn empty() -> CachedList {
        CachedList {
            list: Arc::default(),
            parked: 0,
        }
    }

    #[test]
    fn sigs_are_deterministic_and_content_addressed() {
        let t = chain_tree(4);
        let a = NodeSigs::build(&t);
        let b = NodeSigs::build(&t);
        assert_eq!(a.sigs, b.sigs);
        // Distinct sinks (different capacitance) get distinct signatures.
        let sinks: Vec<NodeId> = t.sinks().collect();
        assert_ne!(a.get(sinks[0]), a.get(sinks[1]));
    }

    #[test]
    fn edit_dirties_exactly_the_root_path() {
        let mut t = chain_tree(5);
        let mut sigs = NodeSigs::build(&t);
        let before = sigs.sigs.clone();
        let victim: NodeId = t.sinks().nth(2).expect("sink");
        t.set_sink(victim, 99.0, -10.0);
        let path = sigs.update_path(&t, victim);
        // The path runs leaf-first from the edited sink to the root.
        assert_eq!(*path.first().unwrap(), victim);
        assert_eq!(*path.last().unwrap(), t.root());
        for (i, (&old, &new)) in before.iter().zip(&sigs.sigs).enumerate() {
            let on_path = path.iter().any(|p| p.index() == i);
            if on_path {
                assert_ne!(old, new, "path node {i} must change");
            } else {
                assert_eq!(old, new, "off-path node {i} must be stable");
            }
        }
    }

    #[test]
    fn reverting_an_edit_restores_the_signature() {
        let mut t = chain_tree(3);
        let mut sigs = NodeSigs::build(&t);
        let before = sigs.sigs.clone();
        let victim: NodeId = t.sinks().next().expect("sink");
        t.set_sink(victim, 77.0, 5.0);
        sigs.update_path(&t, victim);
        t.set_sink(victim, 10.0, 0.0);
        sigs.update_path(&t, victim);
        assert_eq!(before, sigs.sigs);
    }

    #[test]
    fn begin_run_flushes_on_signature_change_only() {
        let t = chain_tree(2);
        let sigs = NodeSigs::build(&t);
        let mut cache = SolutionCache::new();
        let rs = run_signature(2, 1, 0.0, 1, true, None, 0);
        cache.begin_run(rs, t.len());
        cache.store(t.root(), sigs.get(t.root()), empty());
        assert_eq!(cache.live_entries(), 1);
        cache.begin_run(rs, t.len());
        assert_eq!(cache.live_entries(), 1, "same signature keeps entries");
        cache.begin_run(run_signature(2, 1, 0.0, 1, false, None, 0), t.len());
        assert_eq!(cache.live_entries(), 0, "lazy-wire toggle flushes");
        cache.begin_run(run_signature(2, 1, 0.0, 1, false, None, 1), t.len());
        assert_eq!(cache.live_entries(), 0, "model epoch bump flushes");
        assert_eq!(cache.invalidations(), 1);
    }

    #[test]
    fn lookup_validates_the_content_signature() {
        let t = chain_tree(2);
        let sigs = NodeSigs::build(&t);
        let mut cache = SolutionCache::new();
        cache.begin_run(1, t.len());
        let id = t.root();
        cache.store(id, sigs.get(id), empty());
        assert!(cache.lookup(id, sigs.get(id)).is_some());
        assert!(cache.lookup(id, sigs.get(id) ^ 1).is_none());
        cache.invalidate(id);
        assert!(cache.lookup(id, sigs.get(id)).is_none());
        assert_eq!(cache.invalidations(), 1);
    }

    /// A store keeps the caller's handle and a lookup returns it: the
    /// cache holds the list the walk built, not a copy of it.
    #[test]
    fn store_keeps_the_handle() {
        use varbuf_stats::CanonicalForm;
        let t = chain_tree(2);
        let sigs = NodeSigs::build(&t);
        let mut cache = SolutionCache::new();
        cache.begin_run(1, t.len());
        let id = t.root();
        let list = Arc::new(vec![StatSolution::new(
            CanonicalForm::constant(1.0),
            CanonicalForm::constant(-2.0),
        )]);
        cache.store(
            id,
            sigs.get(id),
            CachedList {
                list: Arc::clone(&list),
                parked: 7,
            },
        );
        let hit = cache.lookup(id, sigs.get(id)).expect("stored");
        assert!(Arc::ptr_eq(&hit.list, &list));
        assert_eq!(hit.parked, 7);
        drop(list);
        let hit = cache.lookup(id, sigs.get(id)).expect("stored");
        assert_eq!(
            Arc::strong_count(&hit.list),
            1,
            "the cache holds the only handle"
        );
    }
}
