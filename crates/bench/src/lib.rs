//! Shared plumbing for the experiment binaries and micro-benchmarks.
//!
//! Every table and figure of the paper has a dedicated binary in
//! `src/bin/` (see `DESIGN.md` for the index); this library holds the
//! setup they share so each binary stays a readable script. The
//! [`harness`] module provides the in-tree timing framework the
//! `benches/` targets run on.

// `deny` rather than `forbid`: the harness's counting allocator needs
// two forwarding calls into `std::alloc::System` (see
// `harness::alloc_counter`, the single `#[allow]` site). Everything
// else in the crate stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

use varbuf_core::driver::Options;
use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};
use varbuf_rctree::RoutingTree;
use varbuf_stats::CanonicalForm;
use varbuf_variation::{ProcessModel, SpatialKind};

/// The wire-segment refinement used by the optimization experiments
/// (Tables 2–5): legal positions every 250 µm along wires, i.e. finer
/// than the raw one-per-Steiner-edge suite that Table 1 characterizes.
pub const SEGMENT_UM: f64 = 250.0;

/// The seven named benchmarks, Table 1 order.
pub const SUITE: [&str; 7] = ["p1", "p2", "r1", "r2", "r3", "r4", "r5"];

/// Loads one named benchmark, refined for optimization.
///
/// # Panics
///
/// Panics if `name` is not in [`SUITE`].
#[must_use]
pub fn load(name: &str) -> RoutingTree {
    let spec = BenchmarkSpec::named(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    generate_benchmark(&spec).subdivided(SEGMENT_UM)
}

/// Loads one named benchmark without refinement (Table 1 counts).
///
/// # Panics
///
/// Panics if `name` is not in [`SUITE`].
#[must_use]
pub fn load_raw(name: &str) -> RoutingTree {
    let spec = BenchmarkSpec::named(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    generate_benchmark(&spec)
}

/// The paper's process model over a tree's die.
#[must_use]
pub fn model_for(tree: &RoutingTree, kind: SpatialKind) -> ProcessModel {
    ProcessModel::paper_defaults(tree.bounding_box(), kind)
}

/// Default optimization options for the experiments.
#[must_use]
pub fn options() -> Options {
    Options::default()
}

/// One row of the Table 3/4/5 experiments: the three algorithms' designs
/// on one benchmark, scored under the full within-die silicon model.
#[derive(Debug, Clone)]
pub struct RatRow {
    /// Benchmark name.
    pub bench: String,
    /// Per-algorithm results, NOM / D2D / WID order.
    pub algos: [AlgoScore; 3],
}

/// Score of one algorithm's design under the true silicon model.
#[derive(Debug, Clone)]
pub struct AlgoScore {
    /// Algorithm label (`NOM`/`D2D`/`WID`).
    pub label: &'static str,
    /// 95%-timing-yield RAT, ps.
    pub rat_95_yield: f64,
    /// Mean RAT under the silicon model, ps.
    pub rat_mean: f64,
    /// RAT standard deviation, ps.
    pub rat_sigma: f64,
    /// Yield at the paper's target (WID mean relaxed by 10%).
    pub yield_paper_target: f64,
    /// Yield at the WID design's 95%-yield RAT (the margin WID certifies).
    pub yield_wid_spec: f64,
    /// Number of buffers inserted.
    pub buffers: usize,
}

/// Runs the Table 3/4 experiment on one benchmark: optimize with all
/// three algorithms, then score every design under the full within-die
/// variation model of the given spatial kind.
///
/// # Panics
///
/// Panics if any optimizer fails (the 2P-based algorithms never hit the
/// engine caps on this suite).
#[must_use]
pub fn rat_optimization_row(name: &str, kind: SpatialKind) -> RatRow {
    rat_optimization_row_jobs(name, kind, 1)
}

/// [`rat_optimization_row`] with the statistical optimizations (D2D,
/// WID) fanned across `jobs` workers via [`varbuf_core::optimize_batch`]
/// — bit-identical to the sequential row at any job count (NOM is the
/// deterministic van Ginneken DP, which has no statistical engine to
/// parallelize and runs inline).
///
/// # Panics
///
/// Panics if any optimizer fails (the 2P-based algorithms never hit the
/// engine caps on this suite).
#[must_use]
pub fn rat_optimization_row_jobs(name: &str, kind: SpatialKind, jobs: usize) -> RatRow {
    use std::sync::Arc;
    use varbuf_core::dp::RunRequest;
    use varbuf_core::driver::{optimize_nominal, OptimizeResult};
    use varbuf_core::pool::optimize_batch;
    use varbuf_core::yield_eval::YieldEvaluator;
    use varbuf_variation::VariationMode;

    let tree = load(name);
    let model = model_for(&tree, kind);
    let opts = options();
    let nom = optimize_nominal(&tree, &model, &opts).expect("suite optimizations succeed");
    let statistical_modes = [VariationMode::DieToDie, VariationMode::WithinDie];
    let requests: Vec<RunRequest> = statistical_modes
        .iter()
        .map(|&mode| RunRequest {
            options: opts.dp,
            ..RunRequest::strict(&tree, &model, mode, Arc::new(opts.rule))
        })
        .collect();
    let mut results = vec![nom];
    for (r, &mode) in optimize_batch(&requests, jobs)
        .into_iter()
        .zip(&statistical_modes)
    {
        let r = r.expect("suite optimizations succeed").result;
        results.push(OptimizeResult {
            mode,
            root_rat: r.root_rat,
            assignment: r.assignment,
            stats: r.stats,
        });
    }
    let silicon = YieldEvaluator::new(&tree, &model, VariationMode::WithinDie);

    let analyses: Vec<_> = results
        .iter()
        .map(|r| silicon.analyze(&r.assignment))
        .collect();
    let wid = &analyses[2];
    let paper_target = wid.rat.mean() - 0.10 * wid.rat.mean().abs();
    let wid_spec = wid.rat_at_95_yield;

    let mut algos = Vec::with_capacity(3);
    for (r, a) in results.iter().zip(&analyses) {
        algos.push(AlgoScore {
            label: r.mode.label(),
            rat_95_yield: a.rat_at_95_yield,
            rat_mean: a.rat.mean(),
            rat_sigma: a.rat.std_dev(),
            yield_paper_target: a.yield_at(paper_target),
            yield_wid_spec: a.yield_at(wid_spec),
            buffers: r.buffer_count(),
        });
    }
    RatRow {
        bench: name.to_owned(),
        algos: algos.try_into().expect("exactly three algorithms"),
    }
}

/// Canonical-form operands shaped like the statistical DP's own, for the
/// kernel micro-benchmarks: the load and RAT of two neighbouring
/// subtrees, each folded from the WID device forms of six buffers placed
/// within ~0.7 mm of its centre (the two centres 1 mm apart), plus the
/// delay form of a buffer between them. The forms carry region windows,
/// as the engine's do; [`sparse`](Self::sparse) gives the same values
/// with every term in the sparse tail.
#[derive(Debug, Clone)]
pub struct KernelOperands {
    /// The two subtree loads: sums of the buffers' input-cap forms.
    pub loads: [CanonicalForm; 2],
    /// The two subtree RATs: each buffer's delay and load coupling
    /// subtracted in turn.
    pub rats: [CanonicalForm; 2],
    /// A buffer's delay form at the merge point: the buffering
    /// subtrahend.
    pub delay: CanonicalForm,
}

impl KernelOperands {
    /// Builds the operands on a 16 mm die (a 32 × 32 region grid).
    #[must_use]
    pub fn build() -> Self {
        use varbuf_rctree::geom::{BoundingBox, Point};
        use varbuf_rctree::NodeId;
        use varbuf_stats::rng::SplitMix64;
        use varbuf_variation::{BufferTypeId, VariationMode};

        let die = BoundingBox {
            min: Point::new(0.0, 0.0),
            max: Point::new(16_000.0, 16_000.0),
        };
        let model = ProcessModel::paper_defaults(die, SpatialKind::Heterogeneous);
        let mut rng = SplitMix64::new(0x5EED);
        let mut node = 0u32;
        let mut subtree = |cx: f64| {
            let mut load = CanonicalForm::constant(12.0);
            let mut rat = CanonicalForm::constant(-400.0);
            for i in 0..6 {
                let loc = Point::new(
                    cx + rng.uniform(-700.0, 700.0),
                    8000.0 + rng.uniform(-700.0, 700.0),
                );
                node += 1;
                let (cap, delay) = model.buffer_forms(
                    BufferTypeId(i % model.library().len()),
                    NodeId(node),
                    loc,
                    VariationMode::WithinDie,
                );
                let mut next = CanonicalForm::default();
                next.lin_comb_sub_into(&rat, 1.0, &load, -0.4, &delay);
                rat = next;
                load.add_scaled_assign(&cap, 1.0);
            }
            (load, rat)
        };
        let (load_a, rat_a) = subtree(7500.0);
        let (load_b, rat_b) = subtree(8500.0);
        let (_, delay) = model.buffer_forms(
            BufferTypeId(0),
            NodeId(node + 1),
            Point::new(8000.0, 8000.0),
            VariationMode::WithinDie,
        );
        Self {
            loads: [load_a, load_b],
            rats: [rat_a, rat_b],
            delay,
        }
    }

    /// The same values with every term in the sparse tail.
    #[must_use]
    pub fn sparse(&self) -> Self {
        let sparse = |f: &CanonicalForm| CanonicalForm::with_terms(f.mean(), f.terms().collect());
        Self {
            loads: [sparse(&self.loads[0]), sparse(&self.loads[1])],
            rats: [sparse(&self.rats[0]), sparse(&self.rats[1])],
            delay: sparse(&self.delay),
        }
    }
}

/// Renders a percentage like the paper's parenthesized degradations.
#[must_use]
pub fn pct(delta: f64, base: f64) -> String {
    format!("{:+.1}%", 100.0 * delta / base.abs())
}

/// Prints a full Table 3/4-style report for one spatial kind.
pub fn print_rat_table(kind: SpatialKind, table: &str, label: &str) {
    println!("{table}: RAT optimization under the {label} spatial variation model");
    println!(
        "{:<6} | {:>10} {:>9} {:>7} {:>7} | {:>10} {:>9} {:>7} {:>7} | {:>10} {:>7} {:>7}",
        "Bench",
        "NOM RAT",
        "(vs WID)",
        "Yld10%",
        "YldSpec",
        "D2D RAT",
        "(vs WID)",
        "Yld10%",
        "YldSpec",
        "WID RAT",
        "Yld10%",
        "YldSpec",
    );

    let mut deg_sums = [0.0_f64; 2];
    let mut yld_sums = [[0.0_f64; 2]; 3];
    let n = SUITE.len() as f64;
    for name in SUITE {
        let row = rat_optimization_row(name, kind);
        let wid = &row.algos[2];
        let mut cells = String::new();
        for (i, a) in row.algos.iter().enumerate() {
            if i < 2 {
                let deg = a.rat_95_yield - wid.rat_95_yield;
                deg_sums[i] += 100.0 * deg / wid.rat_95_yield.abs();
                cells.push_str(&format!(
                    "{:>10.1} {:>9} {:>6.1}% {:>6.1}% | ",
                    a.rat_95_yield,
                    format!("({})", pct(deg, wid.rat_95_yield)),
                    100.0 * a.yield_paper_target,
                    100.0 * a.yield_wid_spec,
                ));
            } else {
                cells.push_str(&format!(
                    "{:>10.1} {:>6.1}% {:>6.1}%",
                    a.rat_95_yield,
                    100.0 * a.yield_paper_target,
                    100.0 * a.yield_wid_spec,
                ));
            }
            yld_sums[i][0] += a.yield_paper_target;
            yld_sums[i][1] += a.yield_wid_spec;
        }
        println!("{:<6} | {cells}", row.bench);
    }
    println!(
        "{:<6} | {:>10} {:>8.1}% {:>6.1}% {:>6.1}% | {:>10} {:>8.1}% {:>6.1}% {:>6.1}% | {:>10} {:>6.1}% {:>6.1}%",
        "Avg",
        "",
        deg_sums[0] / n,
        100.0 * yld_sums[0][0] / n,
        100.0 * yld_sums[0][1] / n,
        "",
        deg_sums[1] / n,
        100.0 * yld_sums[1][0] / n,
        100.0 * yld_sums[1][1] / n,
        "",
        100.0 * yld_sums[2][0] / n,
        100.0 * yld_sums[2][1] / n,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loaders_work() {
        let raw = load_raw("r1");
        assert_eq!(raw.candidate_count(), 533);
        let refined = load("r1");
        assert!(refined.candidate_count() > raw.candidate_count());
        assert_eq!(refined.sink_count(), raw.sink_count());
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(-5.0, -100.0), "-5.0%");
        assert_eq!(pct(2.5, 50.0), "+5.0%");
    }
}
