//! `benchmark compare A.jsonl B.jsonl`: the end-to-end metrics of two
//! sets of untraced runs (A the parent, B the change), judged with the
//! directions and bounds of `BENCHMARK.json`.

use crate::json::{parse, Json};
use crate::stats::{median, quartiles};
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread is wider than the bound, and B does not
    /// read better than A on every run.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative interquartile range of `v`.
fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    (q3 - q1) / median(v).abs()
}

/// Judges B against A for a metric where lower (or higher) is better
/// and `bound` is the share of A's median by which B may be worse.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    if a.len() < 2 || b.len() < 2 {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = (if lower_is_better { mb - ma } else { ma - mb }) / ma.abs();
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let b_always_better = if lower_is_better {
        max(b) < min(a)
    } else {
        min(b) > max(a)
    };
    if spread(a).max(spread(b)) > bound && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

struct Spec {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn load_spec(path: &str) -> Result<Vec<Spec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let metrics = doc
        .get("end_to_end")
        .map(Json::as_array)
        .ok_or(format!("{path} has no end_to_end list"))?;
    metrics
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_owned);
            Ok(Spec {
                name: s("name").ok_or("metric without a name")?,
                unit: s("unit").unwrap_or_default(),
                lower_is_better: s("better").as_deref() != Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// The untraced run records of one `--out` file.
fn load_runs(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if run.get("trace").and_then(Json::as_f64) == Some(0.0) {
            runs.push(run);
        }
    }
    Ok(runs)
}

fn values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

pub fn main(args: &[String]) -> ExitCode {
    match compare(args) {
        Ok(clean) if clean => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: benchmark compare A.jsonl B.jsonl [--spec BENCHMARK.json]"
            );
            ExitCode::from(2)
        }
    }
}

/// Prints the comparison table; `Ok(true)` when no row is `worse` or
/// `unresolved`.
fn compare(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_owned();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            spec_path = it.next().ok_or("--spec needs a path")?.clone();
        } else {
            files.push(a.clone());
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return Err("compare takes two run files".to_owned());
    };
    let spec = load_spec(&spec_path)?;
    let (a, b) = (load_runs(a_path)?, load_runs(b_path)?);
    let mut workloads: Vec<&str> = Vec::new();
    for run in a.iter().chain(&b) {
        if let Some(w) = run.get("workload").and_then(Json::as_str) {
            if !workloads.contains(&w) {
                workloads.push(w);
            }
        }
    }
    if workloads.is_empty() {
        return Err("no untraced runs in either file".to_owned());
    }
    let show = |v: &[f64]| match v.len() {
        0 => "-".to_owned(),
        1 => format!("{:.4} (n=1)", v[0]),
        n => {
            let (q1, q3) = quartiles(v);
            format!("{:.4} [{q1:.4}, {q3:.4}] (n={n})", median(v))
        }
    };
    println!(
        "{:<12} {:<24} {:<42} {:<42} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "bound"
    );
    let mut clean = true;
    for w in &workloads {
        for m in &spec {
            let (va, vb) = (values(&a, w, &m.name), values(&b, w, &m.name));
            let v = verdict(&va, &vb, m.lower_is_better, m.bound);
            clean &= v == Verdict::Ok;
            let change = if va.is_empty() || vb.is_empty() {
                "-".to_owned()
            } else {
                format!("{:+.2}%", 100.0 * (median(&vb) / median(&va) - 1.0))
            };
            println!(
                "{:<12} {:<24} {:<42} {:<42} {:>8} {:>5.0}%  {}",
                w,
                format!("{} ({})", m.name, m.unit),
                show(&va),
                show(&vb),
                change,
                m.bound * 100.0,
                v.label()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Within 10% either way: ok.
        assert_eq!(
            verdict(&a, &[10.5, 10.6, 10.4, 10.5], true, 0.10),
            Verdict::Ok
        );
        // 20% slower: worse for lower-is-better, fine for higher.
        assert_eq!(
            verdict(&a, &[12.0, 12.1, 11.9, 12.0], true, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[12.0, 12.1, 11.9, 12.0], false, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&a, &[8.0, 8.1, 7.9, 8.0], false, 0.10),
            Verdict::Worse
        );
        // A spread wider than the bound cannot show "no regression"...
        let noisy = [5.0, 10.0, 15.0, 8.0, 12.0];
        assert_eq!(verdict(&noisy, &a, true, 0.10), Verdict::Unresolved);
        // ...unless every B run beats every A run.
        assert_eq!(verdict(&noisy, &[1.0, 1.1, 0.9], true, 0.10), Verdict::Ok);
        // One run is no spread at all.
        assert_eq!(verdict(&a, &[10.0], true, 0.10), Verdict::Unresolved);
    }
}
