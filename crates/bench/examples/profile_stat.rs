//! Phase-level profile of a single statistical DP run on the scaling
//! bench's exact configuration (`random("scale", N, 77)` subdivided at
//! 500 µm, Heterogeneous WID, 2P).
//!
//! Usage:
//! `cargo run --release -p varbuf-bench --example profile_stat [N] [--json FILE]`
//!
//! This is the tool behind the phase tables in EXPERIMENTS.md: it prints
//! the `phase_summary` split (wire/merge/prune/buffering) plus the
//! generated/pruned/skipped counters for one warm run, which the
//! aggregate medians in BENCH_dp.json deliberately hide. With `--json`
//! the same attribution is written as a machine-readable report
//! (ci.sh's smoke gate validates it).

use std::sync::Arc;
use varbuf_bench::harness::JsonReport;
use varbuf_core::dp::{optimize_with_rule, DpOptions};
use varbuf_core::prune::TwoParam;
use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};
use varbuf_variation::{ProcessModel, SpatialKind, VariationMode};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args
        .get(1)
        .filter(|s| !s.starts_with("--"))
        .and_then(|s| s.parse().ok())
        .unwrap_or(1024);
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    let tree = generate_benchmark(&BenchmarkSpec::random("scale", n, 77)).subdivided(500.0);
    let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous);
    let rule = TwoParam::default();
    let opts = DpOptions::default();
    // One warm-up run so the allocator and caches are primed, then the
    // measured run.
    let _ = optimize_with_rule(
        &tree,
        &model,
        VariationMode::WithinDie,
        Arc::new(rule),
        &opts,
    )
    .expect("warm-up run");
    let t = std::time::Instant::now();
    let r = optimize_with_rule(
        &tree,
        &model,
        VariationMode::WithinDie,
        Arc::new(rule),
        &opts,
    )
    .expect("profiled run");
    let wall = t.elapsed();
    println!("N={n}: wall {:.2} ms", wall.as_secs_f64() * 1e3);
    println!("phases: {}", r.stats.phase_summary());
    println!(
        "generated {}, pruned {} (dominance {}), peak list {}",
        r.stats.solutions_generated,
        r.stats.solutions_pruned,
        r.stats.pruned_by_dominance,
        r.stats.max_solutions_per_node,
    );
    println!(
        "root RAT {:.1} ± {:.2} ps ({} terms), {} buffers",
        r.root_rat.mean(),
        r.root_rat.std_dev(),
        r.root_rat.term_count(),
        r.assignment.len(),
    );
    if let Some(path) = json_path {
        let mut report = JsonReport::new();
        report.meta_str("profile", "stat");
        report.meta_num("sinks", n as f64);
        report.meta_num("wall_ns", wall.as_nanos() as f64);
        report.meta_num("wire_ns", r.stats.wire_time.as_nanos() as f64);
        report.meta_num("merge_ns", r.stats.merge_time.as_nanos() as f64);
        report.meta_num("prune_ns", r.stats.prune_time.as_nanos() as f64);
        report.meta_num("buffer_ns", r.stats.buffer_time.as_nanos() as f64);
        report.meta_num("nodes_processed", r.stats.nodes_processed as f64);
        report.meta_num("solutions_generated", r.stats.solutions_generated as f64);
        report.meta_num("solutions_pruned", r.stats.solutions_pruned as f64);
        report.meta_num("pruned_by_dominance", r.stats.pruned_by_dominance as f64);
        report.meta_num(
            "max_solutions_per_node",
            r.stats.max_solutions_per_node as f64,
        );
        report.write(&path).expect("write profile JSON");
        println!("phase attribution written to {}", path.display());
    }
}
