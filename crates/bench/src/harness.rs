//! A minimal in-tree micro-benchmark harness.
//!
//! The workspace builds hermetically with no external crates, so the
//! Criterion dependency was replaced by this module: warmup plus a fixed
//! wall-clock budget per benchmark, reporting min/median/mean over the
//! collected iteration timings. It is deliberately simple — no outlier
//! rejection, no statistical regression — because the experiment binaries
//! only need stable relative numbers (2P vs 4P, analytic vs Monte Carlo,
//! governed vs ungoverned), not publishable absolute ones.

use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] so bench files need one import.
pub use std::hint::black_box;

/// Allocation counting for hot-path regression assertions.
///
/// The DP's steady-state node visit is supposed to be (nearly)
/// allocation-free: solution carcasses, candidate lists, and prune
/// scratch all come from the engine's recycling pool, so the only
/// allocations left per candidate are the trace `Arc`s that record
/// lineage. [`CountingAlloc`](alloc_counter::CountingAlloc) wraps the
/// system allocator and counts every allocation and reallocation; a
/// bench binary installs it with `#[global_allocator]` and asserts on
/// [`alloc_count`](alloc_counter::alloc_count) deltas around a
/// measured region, turning an allocation regression (per-candidate
/// heap traffic creeping back into the kernels) into a loud failure.
pub mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    /// A [`System`] wrapper counting allocations and reallocations
    /// (frees are not counted — the assertion is about acquisition
    /// pressure, and `realloc` already covers growth).
    pub struct CountingAlloc;

    // SAFETY: pure forwarding to `System`'s implementation; the counter
    // is a relaxed atomic with no effect on allocation semantics. This
    // is the crate's single `unsafe` exemption (see `lib.rs`).
    #[allow(unsafe_code)]
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    /// Allocations (plus reallocations) since process start. Only
    /// meaningful when [`CountingAlloc`] is installed as the global
    /// allocator; returns a frozen 0 otherwise.
    #[must_use]
    pub fn alloc_count() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }
}

/// Per-benchmark tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Wall-clock spent warming up (JIT-free in Rust, but fills caches).
    pub warmup: Duration,
    /// Wall-clock budget for measured iterations.
    pub measure: Duration,
    /// Hard cap on measured iterations (keeps slow benches bounded).
    pub max_iters: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            warmup: Duration::from_millis(100),
            measure: Duration::from_millis(500),
            max_iters: 100_000,
        }
    }
}

impl BenchConfig {
    /// A configuration for expensive benchmarks (few, long iterations).
    #[must_use]
    pub fn slow() -> Self {
        Self {
            warmup: Duration::from_millis(50),
            measure: Duration::from_secs(2),
            max_iters: 20,
        }
    }
}

/// Timing summary of one benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark label as printed.
    pub name: String,
    /// Number of measured iterations.
    pub iters: u64,
    /// Fastest observed iteration.
    pub min: Duration,
    /// Median iteration.
    pub median: Duration,
    /// Mean iteration.
    pub mean: Duration,
    /// Candidate solutions generated per second of median iteration
    /// (DP benches annotate this from `DpStats`; `None` elsewhere).
    pub solutions_per_sec: Option<f64>,
    /// Largest candidate list the benched run held at any node.
    pub max_list_size: Option<usize>,
}

impl BenchResult {
    /// Attaches DP throughput metadata to this result: `generated` is
    /// the number of candidate solutions one iteration produced,
    /// `max_list` the peak list size it reached. Feeds `BENCH_dp.json`.
    pub fn annotate_dp(&mut self, generated: usize, max_list: usize) -> &mut Self {
        let secs = self.median.as_secs_f64();
        self.solutions_per_sec = (secs > 0.0).then(|| generated as f64 / secs);
        self.max_list_size = Some(max_list);
        self
    }

    fn render(d: Duration) -> String {
        let ns = d.as_nanos();
        if ns < 1_000 {
            format!("{ns} ns")
        } else if ns < 1_000_000 {
            format!("{:.2} µs", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            format!("{:.2} ms", ns as f64 / 1e6)
        } else {
            format!("{:.3} s", ns as f64 / 1e9)
        }
    }
}

/// A named group of benchmarks printed as one table.
#[derive(Debug, Default)]
pub struct Bencher {
    group: String,
    config: BenchConfig,
    results: Vec<BenchResult>,
}

impl Bencher {
    /// Starts a benchmark group with default timing budgets.
    #[must_use]
    pub fn new(group: &str) -> Self {
        Self {
            group: group.to_owned(),
            config: BenchConfig::default(),
            results: Vec::new(),
        }
    }

    /// Overrides the timing budgets for subsequent benchmarks.
    #[must_use]
    pub fn with_config(mut self, config: BenchConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs one benchmark: `f` is called repeatedly; its return value is
    /// passed through [`black_box`] so the computation cannot be elided.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> &mut BenchResult {
        // Warmup.
        let start = Instant::now();
        while start.elapsed() < self.config.warmup {
            black_box(f());
        }
        // Measure.
        let mut samples = Vec::new();
        let start = Instant::now();
        while start.elapsed() < self.config.measure
            && (samples.len() as u64) < self.config.max_iters
        {
            let t0 = Instant::now();
            black_box(f());
            samples.push(t0.elapsed());
        }
        if samples.is_empty() {
            // The first iteration overran the budget; measure exactly one.
            let t0 = Instant::now();
            black_box(f());
            samples.push(t0.elapsed());
        }
        samples.sort_unstable();
        let iters = samples.len() as u64;
        let min = samples[0];
        let median = samples[samples.len() / 2];
        let total: Duration = samples.iter().sum();
        let mean = total / u32::try_from(iters).unwrap_or(u32::MAX);
        let result = BenchResult {
            name: name.to_owned(),
            iters,
            min,
            median,
            mean,
            solutions_per_sec: None,
            max_list_size: None,
        };
        println!(
            "{}/{:<40} {:>12} median, {:>12} mean, {:>12} min ({} iters)",
            self.group,
            result.name,
            BenchResult::render(result.median),
            BenchResult::render(result.mean),
            BenchResult::render(result.min),
            result.iters
        );
        self.results.push(result);
        self.results.last_mut().expect("just pushed")
    }

    /// All results recorded so far.
    #[must_use]
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Finishes the group (prints a separator for readability).
    pub fn finish(&self) {
        println!(
            "--- {} done ({} benchmarks)",
            self.group,
            self.results.len()
        );
    }
}

/// Machine-readable sibling of the printed tables.
///
/// Accumulates [`BenchResult`]s across groups plus free-form metadata
/// and serializes them as one JSON document — `BENCH_dp.json` at the
/// repo root for the DP benches. Hand-rolled (the workspace is
/// dependency-free), so only the shapes used here are supported:
/// string/number metadata and a flat `benches` array.
#[derive(Debug, Default)]
pub struct JsonReport {
    /// `key -> already-rendered JSON value`, emitted in insert order.
    meta: Vec<(String, String)>,
    /// `(group, result)` pairs, emitted in insert order.
    entries: Vec<(String, BenchResult)>,
}

impl JsonReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a numeric metadata field (e.g. `threads_available`).
    pub fn meta_num(&mut self, key: &str, value: f64) {
        self.meta.push((key.to_owned(), format!("{value}")));
    }

    /// Records a string metadata field (e.g. the bench binary name).
    pub fn meta_str(&mut self, key: &str, value: &str) {
        self.meta.push((key.to_owned(), json_string(value)));
    }

    /// Records every result of a finished group.
    pub fn record_group(&mut self, group: &str, results: &[BenchResult]) {
        for r in results {
            self.entries.push((group.to_owned(), r.clone()));
        }
    }

    /// Serializes the report.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (key, value) in &self.meta {
            out.push_str(&format!("  {}: {value},\n", json_string(key)));
        }
        out.push_str("  \"benches\": [\n");
        for (i, (group, r)) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"group\": {}, \"name\": {}, \"median_ns\": {}, \"mean_ns\": {}, \"min_ns\": {}, \"iters\": {}, \"solutions_per_sec\": {}, \"max_list_size\": {}}}{}\n",
                json_string(group),
                json_string(&r.name),
                r.median.as_nanos(),
                r.mean.as_nanos(),
                r.min.as_nanos(),
                r.iters,
                r.solutions_per_sec
                    .map_or_else(|| "null".to_owned(), |v| format!("{v:.1}")),
                r.max_list_size
                    .map_or_else(|| "null".to_owned(), |v| v.to_string()),
                if i + 1 < self.entries.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Escapes `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_round_trips_structure() {
        let mut report = JsonReport::new();
        report.meta_num("threads_available", 4.0);
        report.meta_str("source", "unit \"test\"");
        let mut r = BenchResult {
            name: "2P/128".to_owned(),
            iters: 3,
            min: Duration::from_nanos(10),
            median: Duration::from_micros(2),
            mean: Duration::from_micros(3),
            solutions_per_sec: None,
            max_list_size: None,
        };
        r.annotate_dp(1000, 42);
        report.record_group("dp", &[r]);
        let json = report.to_json();
        assert!(json.contains("\"threads_available\": 4"));
        assert!(json.contains("\"source\": \"unit \\\"test\\\"\""));
        assert!(json.contains("\"median_ns\": 2000"));
        assert!(json.contains("\"max_list_size\": 42"));
        assert!(json.contains("\"solutions_per_sec\": 500000000.0"));
        // Balanced braces/brackets — cheap well-formedness proxy.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn bench_records_samples() {
        let mut b = Bencher::new("test").with_config(BenchConfig {
            warmup: Duration::from_millis(1),
            measure: Duration::from_millis(5),
            max_iters: 1000,
        });
        let r = b.bench("sum", || (0..100u64).sum::<u64>()).clone();
        assert!(r.iters >= 1);
        assert!(r.min <= r.median && r.median <= r.mean * 2);
        assert_eq!(b.results().len(), 1);
        b.finish();
    }

    #[test]
    fn render_units() {
        assert!(BenchResult::render(Duration::from_nanos(10)).ends_with("ns"));
        assert!(BenchResult::render(Duration::from_micros(10)).ends_with("µs"));
        assert!(BenchResult::render(Duration::from_millis(10)).ends_with("ms"));
        assert!(BenchResult::render(Duration::from_secs(10)).ends_with('s'));
    }
}
