//! Simultaneous buffer insertion and wire sizing: how much does a wire
//! width library buy on a long, wire-dominated net, and what does the
//! width map look like along the critical path?
//!
//! Run with: `cargo run --release --example wire_sizing`

use std::sync::Arc;
use varbuf::prelude::*;

fn main() -> Result<(), InsertionError> {
    // A sparse long-wire net: 48 sinks spread over a full-size die.
    let mut spec = BenchmarkSpec::random("sizing-demo", 48, 23);
    spec.die_um = 25_000.0;
    let tree = generate_benchmark(&spec).subdivided(500.0);
    let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous);
    println!(
        "{} sinks, {} candidates, {:.0} mm of wire",
        tree.sink_count(),
        tree.candidate_count(),
        tree.total_wire_length() / 1000.0
    );

    let options = Options::default();
    let plain = optimize_statistical(&tree, &model, VariationMode::WithinDie, &options)?;

    let sizing = WireSizing::default_three();
    let request = RunRequest {
        sizing: sizing.clone(),
        options: options.dp,
        ..RunRequest::strict(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(options.rule),
        )
    };
    let sized = run(&request, RunControls::default())?.result;

    let y = |rat: &CanonicalForm| rat.percentile(0.05);
    println!(
        "buffers only : {:>4} buffers, 95%-yield RAT {:.1} ps",
        plain.assignment.len(),
        y(&plain.root_rat)
    );
    let widened = sized.wire_widths.iter().filter(|&&(_, wi)| wi != 0).count();
    println!(
        "with sizing  : {:>4} buffers, 95%-yield RAT {:.1} ps ({} of {} edges widened)",
        sized.assignment.len(),
        y(&sized.root_rat),
        widened,
        sized.wire_widths.len()
    );
    println!(
        "gain         : {:+.2}%",
        100.0 * (y(&sized.root_rat) - y(&plain.root_rat)) / y(&plain.root_rat).abs()
    );

    // Width histogram.
    let mut counts = vec![0usize; sizing.widths().len()];
    for &(_, wi) in &sized.wire_widths {
        counts[wi as usize] += 1;
    }
    println!("\nwidth usage:");
    for (w, c) in sizing.widths().iter().zip(&counts) {
        println!("  {w:>3}x : {c:>5} edges");
    }
    Ok(())
}
