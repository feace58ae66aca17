//! Table 2 — runtime comparison between the 4P and 2P pruning rules.
//!
//! The paper's Table 2: 4P completes only on p1 (25.4 s vs 1.5 s for 2P,
//! a 17.3× speedup) and runs out of the 2 GB / 4 h caps everywhere else,
//! while 2P finishes the whole suite. We enforce the same failure
//! discipline with a solution-count cap and a wall-clock limit
//! (configurable via `--cap N` and `--limit SECONDS`).
//!
//! Both columns route through [`optimize_batch`]: `--jobs N` fans the
//! 2P/4P pair of each benchmark across the worker pool (results are
//! bit-identical at any job count; `--jobs 1` is the sequential loop and
//! reproduces the historical numbers).

use std::sync::Arc;
use std::time::Duration;
use varbuf_bench::{load_raw, model_for, SUITE};
use varbuf_core::dp::DpOptions;
use varbuf_core::pool::{default_jobs, optimize_batch, BatchRequest};
use varbuf_core::prune::{FourParam, TwoParam};
use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};
use varbuf_variation::{SpatialKind, VariationMode};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cap = arg_value(&args, "--cap").unwrap_or(200_000.0) as usize;
    let limit = Duration::from_secs_f64(arg_value(&args, "--limit").unwrap_or(120.0));
    let jobs =
        arg_value(&args, "--jobs")
            .map_or(1, |n| if n <= 0.0 { default_jobs() } else { n as usize });

    println!("Table 2: runtime comparison in seconds (WID variation, RAT optimization)");
    println!(
        "(4P caps: {cap} solutions/node, {:.0}s wall clock; {jobs} worker(s))",
        limit.as_secs_f64()
    );
    println!("{:<6} {:>12} {:>10} {:>10}", "Bench", "4P", "2P", "Speedup");

    // Table 2 uses the raw (Table 1) position counts, like the paper.
    for name in SUITE {
        let tree = load_raw(name);
        let model = model_for(&tree, SpatialKind::Heterogeneous);
        let opts4 = DpOptions {
            max_solutions_per_node: cap,
            time_limit: limit,
            ..DpOptions::default()
        };

        let mut two = BatchRequest::new(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
        );
        two.strict = true;
        let mut four = BatchRequest::new(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(FourParam::default()),
        );
        four.strict = true;
        four.options = opts4;

        let mut results = optimize_batch(&[two, four], jobs).into_iter();
        let t2 = results
            .next()
            .expect("2P slot")
            .expect("2P always completes")
            .result
            .stats
            .runtime
            .as_secs_f64();
        match results.next().expect("4P slot") {
            Ok(r) => {
                let t4 = r.result.stats.runtime.as_secs_f64();
                println!("{name:<6} {t4:>12.2} {t2:>10.3} {:>9.1}x", t4 / t2);
            }
            Err(e) => {
                println!("{name:<6} {:>12} {t2:>10.3} {:>10}", "-", "-");
                eprintln!("  ({name}: 4P failed: {e})");
            }
        }
    }
    println!("\npaper reference: p1 25.4s vs 1.5s (17.3x); 4P '-' beyond p1;");
    println!("                 2P up to 922.8s on r5 (2005 hardware)");

    // The paper frames [7]'s capacity as "the largest routing tree has
    // only nine (9) sinks". Find the largest synthetic net our 4P
    // implementation completes under the same caps, one net at a time.
    println!("\n4P capacity sweep (synthetic nets, same caps):");
    let mut largest_ok = 0;
    for sinks in [4usize, 6, 9, 12, 16, 24, 32, 48] {
        let tree = generate_benchmark(&BenchmarkSpec::random("cap4p", sinks, 1));
        let model = model_for(&tree, SpatialKind::Heterogeneous);
        let mut req = BatchRequest::new(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(FourParam::default()),
        );
        req.strict = true;
        req.options = DpOptions {
            max_solutions_per_node: cap,
            time_limit: limit,
            ..DpOptions::default()
        };
        let start = std::time::Instant::now();
        match optimize_batch(&[req], 1).pop().expect("one request") {
            Ok(r) => {
                largest_ok = sinks;
                println!(
                    "  {sinks:>3} sinks: ok in {:.2}s (peak {} solutions/node)",
                    start.elapsed().as_secs_f64(),
                    r.result.stats.max_solutions_per_node
                );
            }
            Err(e) => {
                println!("  {sinks:>3} sinks: {e}");
                break;
            }
        }
    }
    println!("largest 4P-completable net: {largest_ok} sinks (paper's [7]: 9 sinks)");
}

fn arg_value(args: &[String], key: &str) -> Option<f64> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}
