//! Figure 5 — runtime of the 2P algorithm versus the number of sinks.
//!
//! The paper's claim: roughly linear scalability. We run the named suite
//! plus larger synthetic nets (up to ~12k sinks) and report seconds and
//! microseconds per candidate position; approximate linearity shows as a
//! flat µs/position column.

use std::sync::Arc;
use std::time::Instant;
use varbuf_bench::{model_for, SEGMENT_UM};
use varbuf_core::dp::{optimize_with_rule, DpOptions};
use varbuf_core::prune::TwoParam;
use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};
use varbuf_variation::{SpatialKind, VariationMode};

fn main() {
    println!("Figure 5: 2P runtime versus total number of sinks (WID variation)");
    println!(
        "{:<8} {:>8} {:>10} {:>10} {:>12} {:>10}",
        "Bench", "Sinks", "Positions", "Time (s)", "us/position", "PeakSols"
    );

    let cases: Vec<(String, usize, u64)> = [
        ("p1", 269),
        ("p2", 603),
        ("r1", 267),
        ("r2", 598),
        ("r3", 862),
        ("r4", 1903),
        ("r5", 3101),
    ]
    .iter()
    .map(|&(n, s)| (n.to_owned(), s, 0))
    .chain([
        ("x6k".to_owned(), 6000, 0xA001),
        ("x9k".to_owned(), 9000, 0xA002),
        ("x12k".to_owned(), 12_000, 0xA003),
    ])
    .collect();

    for (name, sinks, seed) in cases {
        let tree = if seed == 0 {
            varbuf_bench::load(&name)
        } else {
            generate_benchmark(&BenchmarkSpec::random(&name, sinks, seed)).subdivided(SEGMENT_UM)
        };
        let model = model_for(&tree, SpatialKind::Heterogeneous);
        let start = Instant::now();
        let r = optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &DpOptions::default(),
        )
        .expect("2P completes");
        let secs = start.elapsed().as_secs_f64();
        println!(
            "{:<8} {:>8} {:>10} {:>10.3} {:>12.1} {:>10}",
            name,
            tree.sink_count(),
            tree.candidate_count(),
            secs,
            1e6 * secs / tree.candidate_count() as f64,
            r.stats.max_solutions_per_node
        );
    }
    println!("\npaper reference: 'roughly the linear runtime scalability ... in terms of");
    println!("the number of sinks' (their absolute times: 1.5s on p1 to 922.8s on r5)");
}
