//! The capacity experiment of footnote 4 — an eight-level H-tree clock
//! network with more than 64,000 sinks, far past what the 4P rule (9
//! sinks in the original DATE'05 report) can handle.
//!
//! Run with `cargo run --release -p varbuf-bench --bin capacity -- [levels]`
//! (levels defaults to 16 → 65,536 sinks).

use std::sync::Arc;
use std::time::Instant;
use varbuf_core::dp::{optimize_with_rule, DpOptions};
use varbuf_core::prune::TwoParam;
use varbuf_rctree::generate::{generate_htree, HTreeSpec};
use varbuf_variation::{ProcessModel, SpatialKind, VariationMode};

fn main() {
    let levels: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let tree = generate_htree(&HTreeSpec::with_levels(levels));
    println!(
        "capacity run: {}-level binary H-tree, {} sinks, {} candidate positions",
        levels,
        tree.sink_count(),
        tree.candidate_count()
    );

    let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
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
        "2P WID insertion: {secs:.2}s, {} buffers, RAT {:.1} ± {:.2} ps, peak {} solutions/node",
        r.assignment.len(),
        r.root_rat.mean(),
        r.root_rat.std_dev(),
        r.stats.max_solutions_per_node
    );
    println!("\npaper reference: 'the largest benchmark we have tested in house is an");
    println!("eight-level H-tree clock network with more than 64,000 sinks'");
}
