//! Statistical sink criticality.
//!
//! Under variation there is no single critical sink: each sink has a
//! *probability* of being the one that sets the root RAT. This module
//! computes those probabilities with the tightness-probability cascade
//! used in block-based SSTA (Visweswariah et al., the paper's \[3\]):
//! fold the per-sink slack forms through Clark minimums, scaling the
//! already-folded criticalities by each step's tightness.
//!
//! Criticalities are a diagnosis tool the deterministic flow cannot
//! offer: a design whose criticality mass is spread across many sinks is
//! the regime where variation-aware optimization matters (and where
//! deterministic "fix the worst path" iterations thrash).

use crate::skew::SkewAnalyzer;
use varbuf_rctree::tree::NodeKind;
use varbuf_rctree::{NodeId, RoutingTree};
use varbuf_stats::clark::stat_min_assign;
use varbuf_stats::CanonicalForm;
use varbuf_variation::{BufferTypeId, ProcessModel, VariationMode};

/// Per-sink criticality report.
#[derive(Debug, Clone)]
pub struct CriticalityReport {
    /// `(sink, slack form, probability the sink is critical)`, sorted by
    /// descending criticality. Probabilities sum to 1.
    pub sinks: Vec<(NodeId, CanonicalForm, f64)>,
    /// The statistical minimum slack (the root-RAT form relative to the
    /// sink required times).
    pub min_slack: CanonicalForm,
}

impl CriticalityReport {
    /// The number of sinks needed to cover `mass` of the criticality
    /// probability (e.g. `0.95`) — a scalar "how spread out is the
    /// criticality" summary.
    ///
    /// # Panics
    ///
    /// Panics unless `mass` is in `(0, 1]`.
    #[must_use]
    pub fn sinks_covering(&self, mass: f64) -> usize {
        assert!(mass > 0.0 && mass <= 1.0, "mass must be in (0, 1]");
        let mut acc = 0.0;
        for (i, &(_, _, c)) in self.sinks.iter().enumerate() {
            acc += c;
            if acc >= mass {
                return i + 1;
            }
        }
        self.sinks.len()
    }
}

/// Computes sink criticalities for a fixed buffered design.
///
/// `mode` is the silicon's variation model (normally
/// [`VariationMode::WithinDie`]).
///
/// # Panics
///
/// Panics if the tree has no sinks.
#[must_use]
pub fn sink_criticalities(
    tree: &RoutingTree,
    model: &ProcessModel,
    mode: VariationMode,
    assignment: &[(NodeId, BufferTypeId)],
) -> CriticalityReport {
    // Arrival forms come from the skew analyzer's downward propagation.
    let arrivals = SkewAnalyzer::new(tree, model, mode).arrivals(assignment);

    // Slack_i = required_i − arrival_i.
    let mut slacks: Vec<(NodeId, CanonicalForm)> = arrivals
        .sinks()
        .iter()
        .map(|&(id, ref arrival)| {
            let required = match tree.node(id).kind {
                NodeKind::Sink {
                    required_arrival, ..
                } => required_arrival,
                _ => unreachable!("arrivals only lists sinks"),
            };
            (id, arrival.scaled(-1.0).plus_constant(required))
        })
        .collect();
    assert!(!slacks.is_empty(), "tree must have at least one sink");

    // Tightness cascade: fold slacks through Clark minimums into a
    // recycled destination. At each step, `t = P(running-min < next)`
    // keeps the accumulated mass and `1 − t` goes to the newcomer.
    let (first_id, first_slack) = slacks.remove(0);
    let mut min_slack = first_slack.clone();
    let mut scratch = CanonicalForm::default();
    let mut report: Vec<(NodeId, CanonicalForm, f64)> = vec![(first_id, first_slack, 1.0)];
    for (id, slack) in slacks {
        let t = stat_min_assign(&mut scratch, &min_slack, &slack); // P(running-min is the min)
        std::mem::swap(&mut min_slack, &mut scratch);
        for entry in &mut report {
            entry.2 *= t;
        }
        report.push((id, slack, 1.0 - t));
    }
    report.sort_by(|a, b| b.2.total_cmp(&a.2));

    CriticalityReport {
        sinks: report,
        min_slack,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{optimize_statistical, Options};
    use varbuf_rctree::generate::{generate_benchmark, generate_htree, BenchmarkSpec, HTreeSpec};
    use varbuf_stats::stat_min;
    use varbuf_variation::SpatialKind;

    #[test]
    fn criticalities_sum_to_one_and_sorted() {
        let tree = generate_benchmark(&BenchmarkSpec::random("crit", 40, 5));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        let wid =
            optimize_statistical(&tree, &model, VariationMode::WithinDie, &Options::default())
                .expect("optimize");
        let report = sink_criticalities(&tree, &model, VariationMode::WithinDie, &wid.assignment);
        let total: f64 = report.sinks.iter().map(|&(_, _, c)| c).sum();
        assert!((total - 1.0).abs() < 1e-9, "criticalities sum to {total}");
        assert!(report.sinks.windows(2).all(|w| w[0].2 >= w[1].2 - 1e-12));
        assert!(report
            .sinks
            .iter()
            .all(|&(_, _, c)| (0.0..=1.0).contains(&c)));
        assert_eq!(report.sinks.len(), tree.sink_count());
    }

    #[test]
    fn symmetric_buffered_htree_spreads_criticality() {
        // Every sink of an ideal H-tree is equally likely to be critical;
        // with real (buffered) variation the tightness cascade should
        // spread the mass across many sinks. (The unbuffered tree is
        // fully deterministic, where ties make the cascade order-biased —
        // a known limitation of Clark cascades on exact ties.)
        let tree = generate_htree(&HTreeSpec::with_levels(5));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        let wid =
            optimize_statistical(&tree, &model, VariationMode::WithinDie, &Options::default())
                .expect("optimize");
        let report = sink_criticalities(&tree, &model, VariationMode::WithinDie, &wid.assignment);
        let n = tree.sink_count();
        // Covering 95% of the mass needs a sizable fraction of the sinks.
        assert!(
            report.sinks_covering(0.95) > n / 4,
            "covering {} of {n}",
            report.sinks_covering(0.95)
        );
    }

    #[test]
    fn dominant_sink_concentrates_criticality() {
        // An unbuffered random tree: the farthest path dominates sharply,
        // so a handful of sinks hoard the criticality mass.
        let tree = generate_benchmark(&BenchmarkSpec::random("crit2", 20, 9));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        let report = sink_criticalities(&tree, &model, VariationMode::WithinDie, &[]);
        assert!(
            report.sinks_covering(0.95) <= 5,
            "expected concentration, needed {}",
            report.sinks_covering(0.95)
        );
        // min_slack mean is at most the most-critical sink's slack mean.
        let best = report.sinks[0].1.mean();
        assert!(report.min_slack.mean() <= best + 1e-9);
    }

    #[test]
    fn in_place_fold_matches_stat_min_fold_bitwise() {
        let tree = generate_benchmark(&BenchmarkSpec::random("crit3", 48, 7));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous);
        let wid =
            optimize_statistical(&tree, &model, VariationMode::WithinDie, &Options::default())
                .expect("optimize");
        let report = sink_criticalities(&tree, &model, VariationMode::WithinDie, &wid.assignment);
        // Replay the fold this function ran before the in-place kernel,
        // `stat_min(..)`, over the report's slacks in node-id order.
        let mut slacks: Vec<_> = report.sinks.iter().map(|(id, s, _)| (*id, s)).collect();
        slacks.sort_by_key(|&(id, _)| id);
        let mut min_slack = slacks[0].1.clone();
        let mut crit = vec![(slacks[0].0, 1.0f64)];
        for &(id, slack) in &slacks[1..] {
            let folded = stat_min(&min_slack, slack);
            for entry in &mut crit {
                entry.1 *= folded.tightness;
            }
            crit.push((id, 1.0 - folded.tightness));
            min_slack = folded.form;
        }
        crit.sort_by(|a, b| b.1.total_cmp(&a.1));
        let bits = |f: &CanonicalForm| {
            let mut v = vec![f.mean().to_bits()];
            v.extend(f.terms().flat_map(|(id, c)| [u64::from(id.0), c.to_bits()]));
            v
        };
        assert_eq!(bits(&report.min_slack), bits(&min_slack));
        let got: Vec<_> = report
            .sinks
            .iter()
            .map(|(id, _, c)| (*id, c.to_bits()))
            .collect();
        let want: Vec<_> = crit.iter().map(|&(id, c)| (id, c.to_bits())).collect();
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "mass must be in (0, 1]")]
    fn covering_rejects_bad_mass() {
        let tree = generate_htree(&HTreeSpec::with_levels(2));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
        let report = sink_criticalities(&tree, &model, VariationMode::WithinDie, &[]);
        let _ = report.sinks_covering(0.0);
    }
}
