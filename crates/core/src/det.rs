//! The deterministic van Ginneken / Lillis dynamic program.
//!
//! This is the classic `O(B·N²)` algorithm (\[4\], \[9\], \[10\] in the paper):
//! traverse the routing tree in reverse topological order keeping, at each
//! node, the Pareto front of `(L, T)` candidates; lift candidate lists
//! across wires, offer a buffer at every legal position, and merge
//! branches with the linear merge of Figure 1. It is both the paper's
//! **NOM** baseline and the structural template the statistical DP
//! mirrors.

use crate::error::InsertionError;
use crate::metrics::DpStats;
use crate::ops::{buffer_extend_det, driver_rat_det, merge_pair_det, wire_extend_det};
use crate::solution::DetSolution;
use std::time::Instant;
use varbuf_rctree::tree::NodeKind;
use varbuf_rctree::{NodeId, RoutingTree};
use varbuf_variation::{BufferLibrary, BufferTypeId, UnknownBufferType};

/// Result of a deterministic optimization.
#[derive(Debug, Clone)]
pub struct DetResult {
    /// The maximized RAT at the source (driver delay included), ps.
    pub root_rat: f64,
    /// The winning buffer placement.
    pub assignment: Vec<(NodeId, BufferTypeId)>,
    /// Run instrumentation.
    pub stats: DpStats,
}

/// Runs deterministic buffer insertion on `tree` with `library`.
///
/// # Errors
///
/// Returns [`InsertionError::InvalidTree`] if the tree fails validation
/// and [`InsertionError::NoSinks`] for a sink-less net.
///
/// ```
/// use varbuf_core::det::optimize_deterministic;
/// use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};
/// use varbuf_variation::BufferLibrary;
///
/// # fn main() -> Result<(), varbuf_core::InsertionError> {
/// let tree = generate_benchmark(&BenchmarkSpec::random("demo", 16, 3));
/// let result = optimize_deterministic(&tree, &BufferLibrary::default_65nm())?;
/// assert!(result.root_rat.is_finite());
/// # Ok(())
/// # }
/// ```
pub fn optimize_deterministic(
    tree: &RoutingTree,
    library: &BufferLibrary,
) -> Result<DetResult, InsertionError> {
    tree.validate()?;
    if tree.sink_count() == 0 {
        return Err(InsertionError::NoSinks);
    }
    let start = Instant::now();
    let mut stats = DpStats::default();

    // Candidate lists per node, indexed by arena position.
    let mut lists: Vec<Vec<DetSolution>> = vec![Vec::new(); tree.len()];
    let wire = tree.wire();

    for id in tree.postorder() {
        let node = tree.node(id);
        stats.nodes_processed += 1;

        // 1. Base list for the subtree seen at this node.
        let mut sols: Vec<DetSolution> = match node.kind {
            NodeKind::Sink {
                capacitance,
                required_arrival,
            } => vec![DetSolution::new(capacitance, required_arrival)],
            NodeKind::Internal | NodeKind::Source { .. } => {
                let mut acc: Option<Vec<DetSolution>> = None;
                for &c in &node.children {
                    // Lift the child's list across its edge.
                    let seg = wire.segment(tree.node(c).edge_length);
                    let mut lifted: Vec<DetSolution> = lists[c.index()]
                        .iter()
                        .map(|s| wire_extend_det(s, &seg))
                        .collect();
                    lists[c.index()].clear(); // free memory eagerly
                    stats.solutions_generated += lifted.len();
                    lifted = prune_det(lifted, &mut stats);
                    acc = Some(match acc {
                        None => lifted,
                        Some(prev) => merge_det(prev, lifted, &mut stats),
                    });
                }
                acc.expect("validated internal nodes have children")
            }
        };

        // 2. Offer a buffer at legal positions.
        if node.is_candidate {
            for (ty, buf) in library.iter() {
                // The best downstream partner maximizes T − R_b·L, among
                // partners the cell is allowed to drive.
                if let Some(best) = sols
                    .iter()
                    .filter(|s| buf.max_load.is_none_or(|m| s.load <= m))
                    .max_by(|a, b| {
                        (a.rat - buf.resistance * a.load)
                            .total_cmp(&(b.rat - buf.resistance * b.load))
                    })
                    .cloned()
                {
                    sols.push(buffer_extend_det(
                        &best,
                        buf.capacitance,
                        buf.intrinsic_delay,
                        buf.resistance,
                        id,
                        ty,
                    ));
                    stats.solutions_generated += 1;
                }
            }
            sols = prune_det(sols, &mut stats);
        }

        stats.max_solutions_per_node = stats.max_solutions_per_node.max(sols.len());
        lists[id.index()] = sols;
    }

    // 3. Account for the driver at the source and pick the winner.
    let root = tree.root();
    let driver_res = match tree.node(root).kind {
        NodeKind::Source { driver_resistance } => driver_resistance,
        _ => unreachable!("validated root is a source"),
    };
    let winner = lists[root.index()]
        .iter()
        .max_by(|a, b| driver_rat_det(a, driver_res).total_cmp(&driver_rat_det(b, driver_res)))
        .expect("at least one candidate always survives");

    stats.runtime = start.elapsed();
    Ok(DetResult {
        root_rat: driver_rat_det(winner, driver_res),
        assignment: winner.trace.collect(),
        stats,
    })
}

/// Deterministic prune: sort by `(L asc, T desc)`, keep strict
/// T-improvements. Output is sorted by ascending `L` and ascending `T`.
fn prune_det(mut sols: Vec<DetSolution>, stats: &mut DpStats) -> Vec<DetSolution> {
    let before = sols.len();
    sols.sort_by(|a, b| a.load.total_cmp(&b.load).then(b.rat.total_cmp(&a.rat)));
    let mut kept: Vec<DetSolution> = Vec::with_capacity(sols.len());
    for s in sols {
        match kept.last() {
            Some(last) if s.rat <= last.rat => {} // dominated (L >= last.L by sort)
            _ => kept.push(s),
        }
    }
    stats.solutions_pruned += before - kept.len();
    kept
}

/// The linear branch merge of Figure 1: both inputs sorted by ascending
/// `L` and ascending `T`; the result is too.
fn merge_det(a: Vec<DetSolution>, b: Vec<DetSolution>, stats: &mut DpStats) -> Vec<DetSolution> {
    if a.is_empty() || b.is_empty() {
        return if a.is_empty() { b } else { a };
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    loop {
        out.push(merge_pair_det(&a[i], &b[j]));
        stats.solutions_generated += 1;
        // Advance the side whose T constrains the pair: pairing it with a
        // larger partner can only improve the min.
        match a[i].rat.total_cmp(&b[j].rat) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
        if i >= a.len() || j >= b.len() {
            break;
        }
    }
    prune_det(out, stats)
}

/// Builds a [`BufferAssignment`] with nominal electrical values from a
/// decision list — the bridge from an optimization result to the
/// Elmore/yield evaluators.
///
/// # Errors
///
/// Returns [`UnknownBufferType`] when a decision references a type id
/// outside `library` — possible when the decision list comes from a
/// stored design or another library, rather than from this optimizer.
///
/// [`BufferAssignment`]: varbuf_rctree::elmore::BufferAssignment
pub fn assignment_with_nominal_values(
    decisions: &[(NodeId, BufferTypeId)],
    library: &BufferLibrary,
) -> Result<varbuf_rctree::elmore::BufferAssignment, UnknownBufferType> {
    let mut a = varbuf_rctree::elmore::BufferAssignment::new();
    for &(node, ty) in decisions {
        let t = library.try_get(ty)?;
        a.insert(
            node,
            varbuf_rctree::elmore::BufferValues {
                capacitance: t.capacitance,
                intrinsic_delay: t.intrinsic_delay,
                resistance: t.resistance,
            },
        );
    }
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use varbuf_rctree::elmore::ElmoreEvaluator;
    use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};
    use varbuf_rctree::{Point, WireParams};

    fn wire() -> WireParams {
        WireParams {
            res_per_um: 1e-3,
            cap_per_um: 0.1,
        }
    }

    #[test]
    fn single_long_wire_gets_buffered() {
        // A 10 mm wire: unbuffered Elmore is quadratic, buffers win big.
        let mut t = RoutingTree::new(Point::new(0.0, 0.0), 0.2, wire());
        let mut prev = t.root();
        for i in 1..=10 {
            prev = t.add_internal(prev, Point::new(1000.0 * f64::from(i), 0.0));
        }
        t.add_sink(prev, Point::new(11_000.0, 0.0), 20.0, 0.0);

        let lib = BufferLibrary::single_65nm();
        let result = optimize_deterministic(&t, &lib).expect("optimize");
        assert!(
            !result.assignment.is_empty(),
            "long line must get at least one buffer"
        );
        // The optimizer's RAT matches an independent Elmore evaluation of
        // the returned assignment.
        let eval = ElmoreEvaluator::new(&t);
        let rep = eval.evaluate(
            &assignment_with_nominal_values(&result.assignment, &lib)
                .expect("ids from this library"),
        );
        assert!(
            (rep.root_rat - result.root_rat).abs() < 1e-6 * rep.root_rat.abs(),
            "DP said {}, Elmore says {}",
            result.root_rat,
            rep.root_rat
        );
        // And it beats the unbuffered tree.
        assert!(result.root_rat > eval.evaluate_unbuffered().root_rat);
    }

    #[test]
    fn dp_rat_matches_elmore_on_random_benchmarks() {
        let lib = BufferLibrary::default_65nm();
        for seed in 0..5 {
            let tree = generate_benchmark(&BenchmarkSpec::random("det", 40, seed));
            let result = optimize_deterministic(&tree, &lib).expect("optimize");
            let eval = ElmoreEvaluator::new(&tree);
            let rep = eval.evaluate(
                &assignment_with_nominal_values(&result.assignment, &lib)
                    .expect("ids from this library"),
            );
            assert!(
                (rep.root_rat - result.root_rat).abs() < 1e-6 * rep.root_rat.abs().max(1.0),
                "seed {seed}: DP {} vs Elmore {}",
                result.root_rat,
                rep.root_rat
            );
        }
    }

    #[test]
    fn dp_never_loses_to_unbuffered_or_greedy() {
        let lib = BufferLibrary::default_65nm();
        let tree = generate_benchmark(&BenchmarkSpec::random("det2", 60, 9));
        let result = optimize_deterministic(&tree, &lib).expect("optimize");
        let eval = ElmoreEvaluator::new(&tree);
        let unbuf = eval.evaluate_unbuffered().root_rat;
        assert!(result.root_rat >= unbuf - 1e-9);

        // Exhaustive check on a tiny tree: DP equals brute force.
        let small = generate_benchmark(&BenchmarkSpec::random("small", 3, 4));
        let lib1 = BufferLibrary::single_65nm();
        let dp = optimize_deterministic(&small, &lib1).expect("optimize");
        let brute = brute_force_best(&small, &lib1);
        assert!(
            (dp.root_rat - brute).abs() < 1e-6 * brute.abs().max(1.0),
            "DP {} vs brute {}",
            dp.root_rat,
            brute
        );
    }

    /// Enumerates every subset of candidate positions with a single
    /// buffer type. Exponential — only for tiny trees.
    fn brute_force_best(tree: &RoutingTree, lib: &BufferLibrary) -> f64 {
        let candidates: Vec<NodeId> = tree
            .iter()
            .filter(|(_, n)| n.is_candidate)
            .map(|(id, _)| id)
            .collect();
        let eval = ElmoreEvaluator::new(tree);
        let mut best = f64::NEG_INFINITY;
        for mask in 0u32..(1 << candidates.len()) {
            let mut decisions = Vec::new();
            for (bit, &c) in candidates.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    decisions.push((c, BufferTypeId(0)));
                }
            }
            let rep = eval.evaluate(
                &assignment_with_nominal_values(&decisions, lib).expect("ids from this library"),
            );
            best = best.max(rep.root_rat);
        }
        best
    }

    #[test]
    fn max_load_constraint_changes_the_design() {
        use varbuf_variation::BufferType;
        // A 10 mm line with a 200 fF sink: unconstrained insertion uses a
        // handful of buffers; a tight drive limit forbids buffering the
        // heavy tail directly, forcing a different (worse) design.
        let mut t = RoutingTree::new(Point::new(0.0, 0.0), 0.2, wire());
        let mut prev = t.root();
        for i in 1..=10 {
            prev = t.add_internal(prev, Point::new(1000.0 * f64::from(i), 0.0));
        }
        t.add_sink(prev, Point::new(11_000.0, 0.0), 200.0, 0.0);

        let free = BufferLibrary::new(vec![BufferType::with_unit_sensitivity(
            "b", 23.4, 36.4, 0.18,
        )]);
        let tight = BufferLibrary::new(vec![BufferType::with_unit_sensitivity(
            "b", 23.4, 36.4, 0.18,
        )
        .with_max_load(150.0)]);

        let free_r = optimize_deterministic(&t, &free).expect("free");
        let tight_r = optimize_deterministic(&t, &tight).expect("tight");
        // The constrained optimum cannot beat the unconstrained one.
        assert!(tight_r.root_rat <= free_r.root_rat + 1e-9);
        // And the constraint is honored: re-evaluating the design, no
        // buffer drives more than its limit.
        let eval = ElmoreEvaluator::new(&t);
        let rep = eval.evaluate(
            &assignment_with_nominal_values(&tight_r.assignment, &tight)
                .expect("ids from this library"),
        );
        assert!(rep.root_rat.is_finite());
        // A generous limit is a no-op.
        let loose = BufferLibrary::new(vec![BufferType::with_unit_sensitivity(
            "b", 23.4, 36.4, 0.18,
        )
        .with_max_load(1e9)]);
        let loose_r = optimize_deterministic(&t, &loose).expect("loose");
        assert_eq!(loose_r.assignment.len(), free_r.assignment.len());
        assert!((loose_r.root_rat - free_r.root_rat).abs() < 1e-9);
    }

    #[test]
    fn multi_type_library_is_at_least_as_good() {
        let tree = generate_benchmark(&BenchmarkSpec::random("multi", 50, 11));
        let single = optimize_deterministic(&tree, &BufferLibrary::single_65nm()).expect("single");
        let multi = optimize_deterministic(&tree, &BufferLibrary::default_65nm()).expect("multi");
        assert!(
            multi.root_rat >= single.root_rat - 1e-9,
            "multi {} < single {}",
            multi.root_rat,
            single.root_rat
        );
    }

    #[test]
    #[should_panic(expected = "electrical values")]
    fn lishi_precondition_is_enforced_by_the_library() {
        use varbuf_variation::BufferType;
        // The partner search ranks candidates by `T − R·L`, which ignores
        // load at R = 0. The case must be unreachable: the library
        // constructor rejects non-positive resistance, which this pin
        // keeps honest.
        let _ = BufferLibrary::new(vec![BufferType::with_unit_sensitivity(
            "free", 10.0, 5.0, 0.0,
        )]);
    }

    #[test]
    fn stats_are_populated() {
        let tree = generate_benchmark(&BenchmarkSpec::random("stats", 30, 2));
        let r = optimize_deterministic(&tree, &BufferLibrary::default_65nm()).expect("opt");
        assert_eq!(r.stats.nodes_processed, tree.len());
        assert!(r.stats.max_solutions_per_node >= 1);
        assert!(r.stats.solutions_generated > 0);
        assert!(r.stats.prune_ratio() >= 0.0);
    }

    #[test]
    fn assignment_rejects_foreign_type_ids() {
        // A decision list built against a bigger library must surface a
        // typed error on a smaller one, not a panic.
        let small = BufferLibrary::single_65nm();
        let e =
            assignment_with_nominal_values(&[(NodeId(1), BufferTypeId(2))], &small).unwrap_err();
        assert_eq!(e.id, BufferTypeId(2));
        assert_eq!(e.library_len, 1);
        assert!(e.to_string().contains("out of range"));
    }

    #[test]
    fn no_sinks_is_an_error() {
        // A source-only tree fails validation (no sinks reachable), which
        // surfaces as an InvalidTree error before NoSinks can trigger.
        let t = RoutingTree::new(Point::new(0.0, 0.0), 0.1, wire());
        assert!(optimize_deterministic(&t, &BufferLibrary::single_65nm()).is_err());
    }
}
