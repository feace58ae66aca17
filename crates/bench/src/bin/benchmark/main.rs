//! `benchmark` — the end-to-end benchmark of varbuf (see README.md in
//! this directory for the workloads, the metrics and how to use them).
//!
//! ```text
//! benchmark --workload <flat_random|wire_heavy|cts_htree|serve_edit|all>
//!           [--seed N] [--seconds S] [--trace 0|1] [--out RUNS.jsonl] [--spans SPANS.jsonl]
//! benchmark compare A.jsonl B.jsonl [--spec BENCHMARK.json]
//! ```
//!
//! A run sets up five times, then measures items for `--seconds`
//! (and at least until the p90 has ten samples beyond it), checks every
//! output, prints a summary and, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced, the per-layer metrics with `--trace 1`. Times are
//! host-speed normalized (see `speed.rs`); the raw wall-clock values are
//! in the summary and the run record.

mod compare;
mod json;
mod speed;
mod stats;
mod trace;
mod workloads;

use json::quote;
use std::fs::OpenOptions;
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{breakdown, Tracer};
use workloads::{Runner, Sizes, Workload};

/// End-to-end metrics (untraced runs) with their units, as listed in
/// `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs). The times are medians per traced
/// item of the item's self time grouped by stage (see [`stage`]); the
/// counters are medians per item, except the totals named in
/// [`TOTALS`] and the pooled `cache.hit_ratio`.
const PER_LAYER: [(&str, &str); 21] = [
    ("item_ms", "ms"),
    ("input_ms", "ms"),
    ("engine_ms", "ms"),
    ("output_ms", "ms"),
    ("other_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("rctree.nodes", "count"),
    ("dp.generated", "count"),
    ("dp.survival_ratio", "ratio"),
    ("dp.bound_pruned", "count"),
    ("dp.lishi_skipped", "count"),
    ("dp.max_list", "count"),
    ("hier.cuts", "count"),
    ("hier.spliced_dropped", "count"),
    ("hier.peak_chunk_bytes", "bytes"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.invalidations", "count"),
    ("governor.degraded", "count"),
    ("service.errors", "count"),
];

/// Counters reported as run totals rather than per-item medians.
const TOTALS: [&str; 2] = ["governor.degraded", "service.errors"];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Measuring stops here even short of the p90 sample count, so a run on
/// a slow host still ends well inside three minutes.
const MAX_MEASURE: Duration = Duration::from_secs(120);

const USAGE: &str = "usage:
  benchmark --workload <flat_random|wire_heavy|cts_htree|serve_edit|all>
            [--seed N] [--seconds S] [--trace 0|1] [--out RUNS.jsonl] [--spans SPANS.jsonl]
  benchmark compare A.jsonl B.jsonl [--spec BENCHMARK.json]";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Append this run's full record (one JSON line) here.
    out: Option<String>,
    /// Write the traced spans here (JSON lines).
    spans: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or(format!("--seconds needs a number in (0, 600], got `{v}`"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got `{v}`")),
                };
            }
            "--out" => a.out = Some(value()?.clone()),
            "--spans" => a.spans = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    if a.workload != "all" && Workload::parse(&a.workload).is_none() {
        return Err(format!("unknown workload `{}`", a.workload));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let workload = Workload::parse(&args.workload).expect("validated by parse_args");
    let report = match run(workload, &args, Sizes::FULL, stats::samples_for(0.9)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.summary());
    if let Err(e) = report.save(&args) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: one child process per workload, one after another,
/// so each workload's peak RSS is its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for w in Workload::ALL {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(out) = &args.out {
            cmd.args(["--out", out]);
        }
        if let Some(spans) = &args.spans {
            cmd.args(["--spans", &format!("{spans}.{}", w.name())]);
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => failed.push(format!("{} ({status})", w.name())),
            Err(e) => failed.push(format!("{} (could not start: {e})", w.name())),
        }
    }
    if failed.is_empty() {
        println!("all workloads passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

/// Peak resident set size of this process so far (VmHWM), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// The stage a traced layer belongs to: what builds (and frees) the
/// engine's input, the engine call, what reads its output, and the
/// benchmark's own remainder. Every workload has all four, so each
/// per-layer time is measured on every workload; the module-level
/// layers are in the summary, the run record and the spans.
fn stage(layer: &str) -> &'static str {
    match layer {
        "service.parse" | "service.edit" => "input_ms",
        "service.opt" => "engine_ms",
        "service.render" => "output_ms",
        "other" => "other_ms",
        _ => match layer.split('.').next() {
            Some("rctree" | "variation") => "input_ms",
            Some("dp" | "hier") => "engine_ms",
            Some("yield_eval" | "skew") => "output_ms",
            _ => "other_ms",
        },
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
}

struct Report {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    attempted: usize,
    failures: Vec<String>,
    failed: usize,
    checks: usize,
    measured_s: f64,
    metrics: Vec<Metric>,
    /// The highest latency percentile with ten samples beyond it.
    tail: Option<(f64, f64)>,
    /// Traced layers: (name, median ms per item, share of item wall).
    layers: Vec<(&'static str, f64, f64)>,
    /// Wall-clock values before host-speed normalization.
    raw: Vec<(&'static str, f64)>,
    /// Median reference-kernel time over the run, ms.
    kernel_ms: f64,
    rat95_mean: Option<f64>,
    tracer: Tracer,
}

/// Runs one workload: set-ups, the measured items, the end-of-run
/// checks, and the metrics for the run's mode.
fn run(w: Workload, args: &Args, sizes: Sizes, min_items: usize) -> Result<Report, String> {
    let mut kernel = speed::Kernel::new();
    let mut runner = Runner::new(w, args.seed, sizes);
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let before = kernel.time_ms();
        let t = Instant::now();
        runner.setup()?;
        let secs = t.elapsed().as_secs_f64();
        raw_setups.push(secs);
        setups.push(secs * speed::factor(before, kernel.time_ms()));
    }

    let mut tracer = Tracer::new();
    // Per item: wall ms, index of the kernel timing before it, traced.
    let mut samples: Vec<(f64, usize, bool)> = Vec::new();
    let mut kernels = vec![kernel.time_ms()];
    let mut since_kernel_ms = 0.0;
    let mut counters: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut failures = Vec::new();
    let mut failed = 0;
    let mut rat95 = Vec::new();
    let seconds = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut id = 0u64;
    while (start.elapsed() < seconds || (id as usize) < min_items) && start.elapsed() < MAX_MEASURE
    {
        if since_kernel_ms >= speed::REFRESH_MS {
            kernels.push(kernel.time_ms());
            since_kernel_ms = 0.0;
        }
        let input = runner.next_input();
        // Traced runs alternate traced and untraced items, so the
        // tracing overhead is measured on the same item stream.
        let on = args.trace && id % 2 == 1;
        tracer.set_enabled(on);
        let out = runner.item(id, input, &mut tracer);
        let ms = out.latency.as_secs_f64() * 1e3;
        samples.push((ms, kernels.len() - 1, on));
        since_kernel_ms += ms;
        if let Some(why) = out.failure {
            failed += 1;
            failures.push(format!("item {id}: {why}"));
        }
        rat95.extend(out.rat95);
        counters.push(out.counters);
        id += 1;
    }
    tracer.set_enabled(false);
    kernels.push(kernel.time_ms());
    let measured_s = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb()?;
    let (checks, end_failures) = runner.finish();
    failed += end_failures.len();
    failures.extend(end_failures);

    let attempted = id as usize;
    // Each item is normalized by the kernel timings on either side of it.
    let factors: Vec<f64> = samples
        .iter()
        .map(|&(_, k, _)| speed::factor(kernels[k], kernels[k + 1]))
        .collect();
    let normalized = |traced: bool| -> Vec<f64> {
        samples
            .iter()
            .zip(&factors)
            .filter(|(s, _)| s.2 == traced)
            .map(|(s, f)| s.0 * f)
            .collect()
    };
    let (untraced, traced) = (normalized(false), normalized(true));
    let mut all: Vec<f64> = untraced.iter().chain(&traced).copied().collect();
    all.sort_by(f64::total_cmp);
    let mut raw: Vec<f64> = samples.iter().map(|s| s.0).collect();
    raw.sort_by(f64::total_cmp);
    let tail = stats::tail_percentile(all.len()).map(|p| (p, stats::percentile(&all, p)));
    let mut report = Report {
        workload: w,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        attempted,
        failures,
        failed,
        checks: checks + attempted,
        measured_s,
        metrics: Vec::new(),
        tail,
        layers: Vec::new(),
        raw: vec![
            ("setup_s", stats::median(&raw_setups)),
            ("latency_p50_ms", stats::percentile(&raw, 0.5)),
            ("latency_p90_ms", stats::percentile(&raw, 0.9)),
        ],
        kernel_ms: stats::median(&kernels),
        rat95_mean: (!rat95.is_empty()).then(|| rat95.iter().sum::<f64>() / rat95.len() as f64),
        tracer,
    };
    if args.trace {
        report.layer_metrics(&untraced, &traced, &counters, &factors);
    } else {
        let metric = |i: usize, value: f64, samples: usize| Metric {
            name: END_TO_END[i].0,
            unit: END_TO_END[i].1,
            value,
            samples,
        };
        let total_s: f64 = all.iter().sum::<f64>() / 1e3;
        report.metrics = vec![
            metric(0, stats::median(&setups), setups.len()),
            metric(1, stats::percentile(&all, 0.5), all.len()),
            metric(2, stats::percentile(&all, 0.9), all.len()),
            metric(3, attempted as f64 / total_s, attempted),
            metric(4, rss, 1),
        ];
    }
    for m in &report.metrics {
        if !m.value.is_finite() {
            report.failed += 1;
            report.failures.push(format!("{} is not finite", m.name));
        }
    }
    Ok(report)
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The per-layer metrics and the layer table, from the traced items'
    /// spans (normalized by each item's host-speed factor) and every
    /// item's counters.
    fn layer_metrics(
        &mut self,
        untraced: &[f64],
        traced: &[f64],
        counters: &[Vec<(&str, f64)>],
        factors: &[f64],
    ) {
        let items = breakdown(self.tracer.spans());
        let factor = |i: &trace::ItemBreakdown| factors[i.item as usize];
        let wall_total: f64 = items.iter().map(|i| i.wall_ns as f64 * factor(i)).sum();
        let mut names: Vec<&'static str> = Vec::new();
        for item in &items {
            for &(name, _) in &item.layers {
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
        let ms = |i: &trace::ItemBreakdown, ns: u64| ns as f64 / 1e6 * factor(i);
        let per_item = |f: &dyn Fn(&trace::ItemBreakdown) -> u64| {
            stats::median(&items.iter().map(|i| ms(i, f(i))).collect::<Vec<_>>())
        };
        for &name in &names {
            let layer_ns = |i: &trace::ItemBreakdown| {
                i.layers.iter().filter(|l| l.0 == name).map(|l| l.1).sum()
            };
            let total: f64 = items.iter().map(|i| ms(i, layer_ns(i))).sum();
            self.layers
                .push((name, per_item(&layer_ns), total * 1e6 / wall_total));
        }
        let by_stage = |i: &trace::ItemBreakdown, s: &str| -> u64 {
            i.layers
                .iter()
                .filter(|l| stage(l.0) == s)
                .map(|l| l.1)
                .sum()
        };
        // A fold from +0.0: `sum` of no floats is -0.0.
        let counter = |i: usize, key: &str| {
            counters[i]
                .iter()
                .filter(|c| c.0 == key)
                .fold(0.0, |acc, c| acc + c.1)
        };
        let n = counters.len();
        for (name, unit) in PER_LAYER {
            let (value, samples) = match name {
                "item_ms" => (per_item(&|i| i.wall_ns), items.len()),
                "input_ms" | "engine_ms" | "output_ms" | "other_ms" => {
                    (per_item(&|i| by_stage(i, name)), items.len())
                }
                "trace.overhead_ratio" => (
                    stats::median(traced) / stats::median(untraced),
                    traced.len().min(untraced.len()),
                ),
                "cache.hit_ratio" => {
                    let hits: f64 = (0..n).map(|i| counter(i, "cache.hits")).sum();
                    let misses: f64 = (0..n).map(|i| counter(i, "cache.misses")).sum();
                    let lookups = hits + misses;
                    (if lookups > 0.0 { hits / lookups } else { 0.0 }, n)
                }
                _ if TOTALS.contains(&name) => ((0..n).map(|i| counter(i, name)).sum(), n),
                _ => (
                    stats::median(&(0..n).map(|i| counter(i, name)).collect::<Vec<_>>()),
                    n,
                ),
            };
            self.metrics.push(Metric {
                name,
                unit,
                value,
                samples,
            });
        }
    }

    fn summary(&self) -> String {
        let mut s = format!(
            "benchmark {} seed={} trace={}: {} items ({} failed) in {:.2} s, {} outputs checked\n",
            self.workload.name(),
            self.seed,
            u8::from(self.trace),
            self.attempted,
            self.failed,
            self.measured_s,
            self.checks,
        );
        for m in &self.metrics {
            s += &format!(
                "  {:<24} {:>14.4} {:<6} (n={})\n",
                m.name, m.value, m.unit, m.samples
            );
        }
        match self.tail {
            Some((p, v)) => {
                s += &format!(
                    "  latency tail: p{} = {v:.4} ms (highest percentile with >= {} of {} samples beyond)\n",
                    p * 100.0,
                    stats::BEYOND_MIN,
                    self.attempted
                );
            }
            None => s += "  latency tail: too few samples for a p90\n",
        }
        let raw: Vec<String> = self
            .raw
            .iter()
            .map(|(k, v)| format!("{k} {v:.4}"))
            .collect();
        s += &format!(
            "  wall clock before normalization: {}; reference kernel median {:.4} ms\n",
            raw.join(", "),
            self.kernel_ms
        );
        if !self.layers.is_empty() {
            s += "  layer self time per traced item (median ms, share of item wall):\n";
            for &(name, ms, share) in &self.layers {
                s += &format!(
                    "    {:<22} {:>12.4} ms {:>7.2}%  [{}]\n",
                    name,
                    ms,
                    share * 100.0,
                    stage(name)
                );
            }
            let total: f64 = self.layers.iter().map(|l| l.2).sum();
            s += &format!(
                "    layers incl. other sum to {:.3}% of item wall\n",
                total * 100.0
            );
        }
        if let Some(r) = self.rat95_mean {
            s += &format!("  mean 95%-yield root RAT {r:.3} ps\n");
        }
        for f in self.failures.iter().take(10) {
            s += &format!("  FAILED {f}\n");
        }
        s
    }

    /// The last stdout line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    quote(m.name),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full run record `compare` reads: one JSON line.
    fn record(&self) -> String {
        let num = |v: f64| {
            if v.is_finite() {
                v.to_string()
            } else {
                "null".to_owned()
            }
        };
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
                    quote(m.name),
                    num(m.value),
                    quote(m.unit),
                    m.samples
                )
            })
            .collect();
        let layers: Vec<String> = self
            .layers
            .iter()
            .map(|&(name, ms, share)| {
                format!(
                    "{}:{{\"median_ms\":{},\"share\":{}}}",
                    quote(name),
                    num(ms),
                    num(share)
                )
            })
            .collect();
        let tail = self.tail.map_or("null".to_owned(), |(p, v)| {
            format!("{{\"percentile\":{p},\"ms\":{}}}", num(v))
        });
        let failures: Vec<String> = self.failures.iter().map(|f| quote(f)).collect();
        let raw: Vec<String> = self
            .raw
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), num(*v)))
            .collect();
        format!(
            "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"correct\":{},\
             \"attempted\":{},\"failed\":{},\"checks\":{},\"measured_s\":{},\"metrics\":{{{}}},\
             \"tail\":{tail},\"layers\":{{{}}},\"raw\":{{{}}},\"kernel_ms\":{},\"rat95_ps\":{},\
             \"failures\":[{}]}}",
            quote(self.workload.name()),
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.correct(),
            self.attempted,
            self.failed,
            self.checks,
            num(self.measured_s),
            metrics.join(","),
            layers.join(","),
            raw.join(","),
            num(self.kernel_ms),
            self.rat95_mean.map_or("null".to_owned(), num),
            failures.join(",")
        )
    }

    /// Appends the run record to `--out` and writes the spans to
    /// `--spans`.
    fn save(&self, args: &Args) -> Result<(), String> {
        if let Some(path) = &args.out {
            let mut f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("cannot open {path}: {e}"))?;
            writeln!(f, "{}", self.record()).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        if let Some(path) = &args.spans {
            let f =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            self.tracer
                .write_jsonl(BufWriter::new(f))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::{parse, Json};

    fn tiny(w: Workload, trace: bool) -> Report {
        let args = Args {
            workload: w.name().to_owned(),
            seed: 3,
            seconds: 0.01,
            trace,
            out: None,
            spans: None,
        };
        run(w, &args, Sizes::TINY, 6).expect("tiny run")
    }

    #[test]
    fn output_lines_are_well_formed() {
        for trace in [false, true] {
            let report = tiny(Workload::FlatRandom, trace);
            assert!(report.correct(), "{:?}", report.failures);
            let line = parse(&report.result_line()).expect("result line is JSON");
            let Json::Obj(fields) = &line else {
                panic!("not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 6.0);
            let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let Some(Json::Obj(metrics)) = line.get("metrics") else {
                panic!("no metrics")
            };
            assert_eq!(metrics.len(), expected.len());
            for ((name, m), (want, unit)) in metrics.iter().zip(expected) {
                assert_eq!(name, want);
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
                assert!(m
                    .get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite));
            }
            let record = parse(&report.record()).expect("record is JSON");
            assert_eq!(
                record.get("workload").and_then(Json::as_str),
                Some("flat_random")
            );
        }
    }

    #[test]
    fn traced_layers_add_up_to_item_wall() {
        for w in Workload::ALL {
            let report = tiny(w, true);
            assert!(report.correct(), "{}: {:?}", w.name(), report.failures);
            let share: f64 = report.layers.iter().map(|l| l.2).sum();
            assert!((share - 1.0).abs() < 1e-9, "{}: {share}", w.name());
            let get = |n: &str| report.metrics.iter().find(|m| m.name == n).unwrap().value;
            assert!(get("engine_ms") > 0.0, "{}", w.name());
            assert!(get("input_ms") > 0.0, "{}", w.name());
            assert!(get("output_ms") > 0.0, "{}", w.name());
        }
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let spec = loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.exists() {
                break std::fs::read_to_string(candidate).expect("readable");
            }
            assert!(dir.pop(), "BENCHMARK.json not found above the manifest");
        };
        let spec = parse(&spec).expect("BENCHMARK.json is JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .map(Json::as_array)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = spec
            .get("workloads")
            .map(Json::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn arguments_are_validated() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>());
        let a = parse("--workload cts_htree --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (9, 2.5, true));
        assert!(parse("--workload all").is_ok());
        for bad in [
            "--seed 1",
            "--workload nope",
            "--workload flat_random --trace yes",
            "--workload flat_random --seconds -1",
            "--workload flat_random --seed",
            "--workload flat_random --bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
