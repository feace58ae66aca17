//! Overhead of the resource governor: the same DP run strict (the legacy
//! path) versus governed with an unlimited budget — the difference is the
//! pure bookkeeping cost of budget checks, memory accounting and
//! admission control. A third variant runs 4P under a solution budget it
//! cannot meet, pricing the full fallback cascade.

use std::sync::Arc;
use varbuf_bench::harness::{black_box, BenchConfig, Bencher};
use varbuf_core::dp::{optimize_governed, optimize_with_rule, DpOptions};
use varbuf_core::governor::Budget;
use varbuf_core::prune::{FourParam, TwoParam};
use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};
use varbuf_variation::{ProcessModel, SpatialKind, VariationMode};

fn main() {
    let mut group = Bencher::new("degradation").with_config(BenchConfig::slow());
    for &sinks in &[32usize, 96] {
        let tree = generate_benchmark(&BenchmarkSpec::random("deg", sinks, 13)).subdivided(500.0);
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous);
        let opts = DpOptions::default();

        // Baseline: the strict engine, exactly what optimize_statistical runs.
        group.bench(&format!("strict-2P/{sinks}"), || {
            optimize_with_rule(
                black_box(&tree),
                &model,
                VariationMode::WithinDie,
                Arc::new(TwoParam::default()),
                &opts,
            )
            .expect("strict completes")
        });

        // Governed, unlimited budget: same work plus governor bookkeeping.
        // The gap to strict-2P is the governor's overhead.
        let unlimited = Budget::unlimited();
        group.bench(&format!("governed-2P-unlimited/{sinks}"), || {
            optimize_governed(
                black_box(&tree),
                &model,
                VariationMode::WithinDie,
                Arc::new(TwoParam::default()),
                &opts,
                &unlimited,
            )
            .expect("governed completes")
        });

        // Governed 4P under real pressure: the budget forces the fallback
        // cascade, pricing degradation itself (strict 4P would abort here).
        let tight = Budget {
            soft_solutions: 150,
            hard_solutions: 600,
            ..Budget::unlimited()
        };
        let capped = DpOptions {
            max_solutions_per_node: 150,
            ..DpOptions::default()
        };
        group.bench(&format!("governed-4P-pressured/{sinks}"), || {
            let r = optimize_governed(
                black_box(&tree),
                &model,
                VariationMode::WithinDie,
                Arc::new(FourParam::default()),
                &capped,
                &tight,
            )
            .expect("governed absorbs the pressure");
            assert!(r.degradation.degraded(), "budget must actually bind");
            r
        });
    }
    group.finish();
}
