//! Section 5.3's final experiment — sensitivity of the optimal RAT to the
//! 2P thresholds `p̄_L`, `p̄_T` swept from 0.5 to 0.95.
//!
//! The paper reports less than 0.1% difference across the sweep; this
//! binary reports the per-benchmark spread and the surviving-solution
//! counts (higher thresholds prune less).

use std::sync::Arc;
use varbuf_bench::{load, model_for, SUITE};
use varbuf_core::dp::{optimize_with_rule, DpOptions};
use varbuf_core::prune::TwoParam;
use varbuf_variation::{SpatialKind, VariationMode};

fn main() {
    let thresholds = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95];
    println!("p-bar sweep: relative change of the optimal mean RAT vs p=0.5");
    print!("{:<6}", "Bench");
    for p in thresholds {
        print!(" {:>10}", format!("p={p}"));
    }
    println!(" {:>12}", "max |delta|");

    for name in SUITE {
        let tree = load(name);
        let model = model_for(&tree, SpatialKind::Heterogeneous);
        let mut base = None;
        let mut max_delta: f64 = 0.0;
        print!("{name:<6}");
        for &p in &thresholds {
            let rule = TwoParam::new(p, p);
            let r = optimize_with_rule(
                &tree,
                &model,
                VariationMode::WithinDie,
                Arc::new(rule),
                &DpOptions::default(),
            )
            .expect("2P completes");
            let mean = r.root_rat.mean();
            let b = *base.get_or_insert(mean);
            let delta = 100.0 * (mean - b) / b.abs();
            max_delta = max_delta.max(delta.abs());
            print!(" {:>9.4}%", delta);
        }
        println!(" {max_delta:>11.4}%");
    }
    println!("\npaper reference: 'less than 0.1% difference in the final optimal RAT'");
}
