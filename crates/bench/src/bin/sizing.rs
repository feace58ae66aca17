//! Extension experiment — simultaneous buffer insertion and wire sizing
//! (the formulation of the companion paper \[8\], He/Kahng/Tam/Xiong
//! ISPD'05): how much RAT does a 3-width wire library buy on top of
//! buffering, and at what runtime cost?

use std::sync::Arc;
use std::time::Instant;
use varbuf_bench::{load, model_for, SUITE};
use varbuf_core::dp::{optimize_with_rule, optimize_with_sizing, DpOptions, WireSizing};
use varbuf_core::prune::TwoParam;
use varbuf_variation::{SpatialKind, VariationMode};

fn main() {
    println!("Wire-sizing extension: 2P WID insertion with a {{1x, 2x, 4x}} width library");
    println!(
        "{:<6} {:>12} {:>12} {:>8} {:>10} {:>10} {:>10}",
        "Bench", "buf-only", "buf+size", "gain", "t.buf (s)", "t.size (s)", "widened"
    );
    for name in SUITE {
        let tree = load(name);
        let model = model_for(&tree, SpatialKind::Heterogeneous);
        let opts = DpOptions::default();

        let t0 = Instant::now();
        let plain = optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &opts,
        )
        .expect("completes");
        let t_plain = t0.elapsed().as_secs_f64();

        let sizing = WireSizing::default_three();
        let t1 = Instant::now();
        let sized = optimize_with_sizing(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &sizing,
            &opts,
        )
        .expect("completes");
        let t_sized = t1.elapsed().as_secs_f64();

        let y_plain = plain.root_rat.percentile(0.05);
        let y_sized = sized.root_rat.percentile(0.05);
        let widened = sized.wire_widths.iter().filter(|&&(_, wi)| wi != 0).count();
        println!(
            "{:<6} {:>12.1} {:>12.1} {:>7.2}% {:>10.2} {:>10.2} {:>10}",
            name,
            y_plain,
            y_sized,
            100.0 * (y_sized - y_plain) / y_plain.abs(),
            t_plain,
            t_sized,
            widened,
        );
    }
    println!("\nshape expectation: sizing improves the 95%-yield RAT a few percent on");
    println!("wire-dominated nets at a ~{{width count}}x runtime multiplier");
}
