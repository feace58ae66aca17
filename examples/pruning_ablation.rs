//! Pruning-rule ablation: run the same benchmark under the 2P, 1P and 4P
//! rules and compare runtime, surviving-solution counts, and result
//! quality — a miniature of the paper's Table 2 story.
//!
//! Run with: `cargo run --release --example pruning_ablation -- [sinks]`

use std::sync::Arc;
use std::time::Duration;
use varbuf::prelude::*;

fn main() {
    let sinks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);

    let tree = generate_benchmark(&BenchmarkSpec::random("ablation", sinks, 3));
    let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
    // Modest caps so the 4P blow-up fails fast instead of hanging.
    let caps = Budget::strict(50_000, Duration::from_secs(60));

    println!(
        "{} sinks, {} candidates — WID variation\n",
        tree.sink_count(),
        tree.candidate_count()
    );
    println!(
        "{:<6} {:>10} {:>12} {:>10} {:>14}",
        "rule", "time", "mean RAT", "buffers", "peak solutions"
    );

    let rules: Vec<(&str, Arc<dyn PruningRule>)> = vec![
        ("2P", Arc::new(TwoParam::default())),
        ("1P", Arc::new(OneParam::default())),
        ("4P", Arc::new(FourParam::default())),
    ];
    for (name, rule) in rules {
        let request = RunRequest {
            budget: caps,
            ..RunRequest::strict(&tree, &model, VariationMode::WithinDie, rule)
        };
        match run(&request, RunControls::default()).map(|r| r.result) {
            Ok(r) => println!(
                "{:<6} {:>9.2}s {:>12.1} {:>10} {:>14}",
                name,
                r.stats.runtime.as_secs_f64(),
                r.root_rat.mean(),
                r.assignment.len(),
                r.stats.max_solutions_per_node
            ),
            Err(e) => println!("{name:<6} FAILED: {e}"),
        }
    }
}
