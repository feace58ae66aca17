//! `varbuf` — command-line front end for the library.
//!
//! ```text
//! varbuf gen r1 -o r1.tree                    # write a named benchmark
//! varbuf gen random:500:7 --subdivide 250 -o n.tree
//! varbuf info n.tree                          # structural summary
//! varbuf opt n.tree --mode wid --spatial hetero --mc 2000
//! varbuf skew n.tree                          # clock-skew analysis
//! varbuf serve --watchdog 5 --faults          # resident line-protocol service
//! ```

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use varbuf::prelude::*;
use varbuf::rctree::io::{read_tree, write_tree};
use varbuf::stats::mc::sample_moments;

/// How a subcommand finished: exit code 0 for a clean run, 2 when the
/// run succeeded but the governor had to degrade it (errors exit 1).
enum Outcome {
    Clean,
    Degraded,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `println!` panics when stdout closes early (`varbuf info | head`);
    // treat that as a normal end-of-output, not a crash with a backtrace.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let broken_pipe = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .is_some_and(|m| m.contains("Broken pipe"));
        if !broken_pipe {
            default_hook(info);
        }
    }));
    let run = std::panic::catch_unwind(|| match args.split_first() {
        Some((cmd, rest)) if cmd != "help" => {
            let (run, flags) = subcommand(cmd)
                .ok_or_else(|| format!("unknown subcommand `{cmd}` (try `varbuf help`)"))?;
            check_flags(cmd, rest, flags)?;
            run(rest)
        }
        _ => {
            print_usage();
            Ok(Outcome::Clean)
        }
    });
    match run {
        Ok(Ok(Outcome::Clean)) => ExitCode::SUCCESS,
        Ok(Ok(Outcome::Degraded)) => ExitCode::from(2),
        Ok(Err(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
        Err(payload) => {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            if message.contains("Broken pipe") {
                ExitCode::SUCCESS
            } else {
                std::panic::resume_unwind(payload)
            }
        }
    }
}

/// A subcommand's entry point and the flags it accepts, each as
/// `(flag, takes_value)`.
type Subcommand = (
    fn(&[String]) -> Result<Outcome, String>,
    &'static [(&'static str, bool)],
);

fn subcommand(name: &str) -> Option<Subcommand> {
    Some(match name {
        "gen" => (cmd_gen, &[("--subdivide", true), ("-o", true)]),
        "info" => (cmd_info, &[]),
        "opt" => (
            cmd_opt,
            &[
                ("--mode", true),
                ("--spatial", true),
                ("--rule", true),
                ("--p", true),
                ("--sizing", false),
                ("--mc", true),
                ("--degrade", false),
                ("--budget-solutions", true),
                ("--budget-time", true),
                ("--budget-mem", true),
                ("--jobs", true),
                ("--jobs-force", false),
                ("--no-lazy-wire", false),
            ],
        ),
        "skew" => (cmd_skew, &[("--spatial", true)]),
        "cts" => (
            cmd_cts,
            &[
                ("--levels", true),
                ("--spatial", true),
                ("--rule", true),
                ("--p", true),
                ("--skew-target", true),
                ("--flat", false),
                ("--cut-nodes", true),
                ("--fanout-cut", true),
                ("--budget-solutions", true),
                ("--budget-time", true),
                ("--budget-mem", true),
            ],
        ),
        "serve" => (
            cmd_serve,
            &[
                ("--jobs", true),
                ("--watchdog", true),
                ("--max-sessions", true),
                ("--queue-soft", true),
                ("--queue-hard", true),
                ("--faults", false),
                ("--no-cache", false),
                ("--budget-solutions", true),
                ("--budget-time", true),
                ("--budget-mem", true),
            ],
        ),
        _ => return None,
    })
}

/// Rejects any `-`-prefixed argument `cmd` does not accept, so a typo
/// (or a retired flag) is an error instead of a silent no-op. The
/// argument after a flag that takes a value is that value, not a flag:
/// `--budget-time -3` reaches the budget parser and its own message.
fn check_flags(cmd: &str, args: &[String], accepted: &[(&str, bool)]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with('-') {
            continue;
        }
        match accepted.iter().find(|(flag, _)| flag == arg) {
            Some((_, true)) => {
                rest.next();
            }
            Some((_, false)) => {}
            None => {
                return Err(format!(
                    "unknown flag `{arg}` for `varbuf {cmd}` (try `varbuf help`)"
                ))
            }
        }
    }
    Ok(())
}

fn print_usage() {
    println!(
        "varbuf — variation-aware buffer insertion

usage:
  varbuf gen <spec> [--subdivide UM] [-o FILE]
      spec: a named benchmark (p1 p2 r1..r5), `htree:LEVELS`,
            or `random:SINKS:SEED`
  varbuf info FILE
  varbuf opt FILE [--mode nom|d2d|wid] [--spatial homog|hetero]
                  [--rule 2p|4p|1p] [--p THRESH] [--sizing] [--mc SAMPLES]
                  [--degrade] [--budget-solutions N] [--budget-time SECS]
                  [--budget-mem MB] [--jobs N] [--jobs-force]
                  [--no-lazy-wire]
      --jobs N: worker threads for the DP (0 = all cores); results are
                bit-identical to --jobs 1. Requests beyond the host's
                available parallelism are clamped unless --jobs-force.
      --no-lazy-wire: disable lazy wire propagation (deferred affine
                wire transforms materialized at merges, buffers and the
                winner); solution counts and decisions are identical,
                the objective agrees to ~1e-9 relative
  varbuf skew FILE [--spatial homog|hetero]
  varbuf cts [--levels N] [--spatial homog|hetero] [--rule 2p|4p|1p]
             [--p THRESH] [--skew-target PS] [--flat] [--cut-nodes N]
             [--fanout-cut N] [--budget-solutions N] [--budget-time SECS]
             [--budget-mem MB]
      clock-tree pipeline: generate an H-tree with 2^N sinks
      (default N=10), buffer it variation-aware (WID) through the
      hierarchical engine, and score the result against skew targets.
      --flat disables decomposition (byte-identical to the flat
      engine); --cut-nodes / --fanout-cut tune where the tree is cut.
      With a --budget-* flag the run is governed and exits 2 on
      degradation, like `opt --degrade`.
  varbuf serve [--jobs N] [--watchdog SECS] [--max-sessions N]
               [--queue-soft COST] [--queue-hard COST] [--faults]
               [--no-cache] [--budget-solutions N] [--budget-time SECS]
               [--budget-mem MB]
      resident service on stdin/stdout (one command per line; `help`
      inside the session prints the protocol). --faults enables the
      `inject` fault-testing commands; --watchdog cancels any request
      past the deadline and returns its best-so-far design; requests
      queued past --queue-hard cost units are shed with a typed
      `err overloaded` response; --no-cache disables the per-session
      solution cache, so every opt after an `edit` runs cold (results
      are byte-identical either way).

exit codes:
  0  success
  1  error (bad input, or a budget breach without --degrade)
  2  success with degradation: a --degrade run stayed within budget by
     falling back to a cheaper pruning rule, tightening pruning, or
     finishing best-so-far; the design printed is valid but suboptimal"
    );
}

fn flag_value<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

/// Node count of `htree:24`, the largest tree `gen` makes.
const MAX_GEN_NODES: u64 = (1 << 25) - 1;

fn build_tree(spec: &str, subdivide: Option<f64>) -> Result<RoutingTree, String> {
    // Range checks mirror the generators' asserts so a bad spec is a
    // clean exit-1 error instead of a panic.
    let tree = if let Some(rest) = spec.strip_prefix("htree:") {
        let levels: u32 = rest.parse().map_err(|_| "bad htree levels".to_owned())?;
        if !(1..=24).contains(&levels) {
            return Err(format!("htree levels must be in 1..=24, got {levels}"));
        }
        generate_htree(&HTreeSpec::with_levels(levels))
    } else if let Some(rest) = spec.strip_prefix("random:") {
        let mut parts = rest.split(':');
        let sinks: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or("random spec needs SINKS")?;
        if sinks == 0 {
            return Err("random spec needs at least one sink".to_owned());
        }
        let seed: u64 = match parts.next() {
            Some(s) => s.parse().map_err(|_| format!("bad seed in `{spec}`"))?,
            None => 1,
        };
        generate_benchmark(&BenchmarkSpec::random("random", sinks, seed))
    } else {
        let bench =
            BenchmarkSpec::named(spec).ok_or_else(|| format!("unknown benchmark `{spec}`"))?;
        generate_benchmark(&bench)
    };
    Ok(match subdivide {
        Some(um) => {
            // Counted before any node is built: each edge becomes
            // ⌈length / um⌉ pieces, so a tiny pitch would otherwise
            // allocate until memory runs out.
            let root = tree.root();
            let nodes = 1.0
                + (0..tree.len())
                    .map(|i| NodeId(i as u32))
                    .filter(|&id| id != root)
                    .map(|id| (tree.node(id).edge_length / um).ceil().max(1.0))
                    .sum::<f64>();
            if nodes > MAX_GEN_NODES as f64 {
                return Err(format!(
                    "--subdivide {um:e} would build {nodes:.3e} nodes, \
                     more than the {MAX_GEN_NODES} of the largest gen tree (htree:24)"
                ));
            }
            tree.subdivided(um)
        }
        None => tree,
    })
}

fn load_tree(path: &str) -> Result<RoutingTree, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_tree(BufReader::new(file)).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn spatial_kind(args: &[String]) -> Result<SpatialKind, String> {
    match flag_value(args, "--spatial") {
        Some("homog") => Ok(SpatialKind::Homogeneous),
        None | Some("hetero") => Ok(SpatialKind::Heterogeneous),
        Some(other) => Err(format!(
            "unknown --spatial `{other}` (expected homog or hetero)"
        )),
    }
}

/// The `--p` percentile pair for the 2P rule, if given (a bad value is
/// an error, not a silent fall-through to the default).
fn parse_p(args: &[String]) -> Result<Option<f64>, String> {
    match flag_value(args, "--p") {
        None => Ok(None),
        Some(v) => v
            .parse::<f64>()
            .map(Some)
            .map_err(|_| format!("bad --p value `{v}`")),
    }
}

/// The primary pruning rule from `--rule` (with `--p` honored for 2P).
fn parse_rule(args: &[String]) -> Result<Arc<dyn PruningRule>, String> {
    let p = parse_p(args)?;
    match flag_value(args, "--rule") {
        None | Some("2p") => Ok(match p {
            Some(p) => Arc::new(TwoParam::try_new(p, p).map_err(|e| e.to_string())?),
            None => Arc::new(TwoParam::default()),
        }),
        Some("4p") => Ok(Arc::new(FourParam::default())),
        Some("1p") => Ok(Arc::new(OneParam::default())),
        Some(other) => Err(format!("unknown rule `{other}` (expected 2p, 4p, or 1p)")),
    }
}

/// A positive number of seconds that fits a [`Duration`] (`None` for
/// anything else, `1e300` included).
fn positive_secs(v: &str) -> Option<Duration> {
    let secs: f64 = v.parse().ok().filter(|&s| s > 0.0)?;
    Duration::try_from_secs_f64(secs).ok()
}

/// Soft budgets from the `--budget-*` flags; hard limits sit a fixed
/// factor above each soft limit (4x solutions/memory, 2x time).
fn parse_budget(args: &[String]) -> Result<Budget, String> {
    // A budget flag with no value is a typo, not a request for the
    // default — reject it rather than silently running ungoverned.
    for key in ["--budget-solutions", "--budget-time", "--budget-mem"] {
        if has_flag(args, key) && flag_value(args, key).is_none() {
            return Err(format!("{key} needs a value"));
        }
    }
    let mut budget = Budget::unlimited();
    if let Some(v) = flag_value(args, "--budget-solutions") {
        let n: usize = v
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or("--budget-solutions needs a positive integer")?;
        budget.soft_solutions = n;
        budget.hard_solutions = n.saturating_mul(4);
    }
    if let Some(v) = flag_value(args, "--budget-time") {
        let soft = positive_secs(v).ok_or("--budget-time needs a positive number of seconds")?;
        budget.soft_time = soft;
        budget.hard_time = soft.saturating_mul(2);
    }
    if let Some(v) = flag_value(args, "--budget-mem") {
        let mb: usize = v
            .parse()
            .ok()
            .filter(|&m| m > 0)
            .ok_or("--budget-mem needs a positive number of MiB")?;
        budget.soft_mem_bytes = mb.saturating_mul(1 << 20);
        budget.hard_mem_bytes = budget.soft_mem_bytes.saturating_mul(4);
    }
    Ok(budget)
}

fn cmd_gen(args: &[String]) -> Result<Outcome, String> {
    let spec = args.first().ok_or("gen needs a spec")?;
    let subdivide = match flag_value(args, "--subdivide") {
        None => None,
        Some(v) => {
            let um: f64 = v
                .parse()
                .ok()
                .filter(|&um| um > 0.0 && f64::is_finite(um))
                .ok_or_else(|| format!("--subdivide needs a positive length in um, got `{v}`"))?;
            Some(um)
        }
    };
    let tree = build_tree(spec, subdivide)?;
    match flag_value(args, "-o") {
        Some(path) => {
            let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            write_tree(&tree, BufWriter::new(file)).map_err(|e| e.to_string())?;
            println!(
                "wrote {path}: {} sinks, {} candidates",
                tree.sink_count(),
                tree.candidate_count()
            );
        }
        None => {
            write_tree(&tree, std::io::stdout().lock()).map_err(|e| e.to_string())?;
        }
    }
    Ok(Outcome::Clean)
}

fn cmd_info(args: &[String]) -> Result<Outcome, String> {
    let path = args.first().ok_or("info needs a FILE")?;
    let tree = load_tree(path)?;
    tree.validate().map_err(|e| e.to_string())?;
    let bb = tree.bounding_box();
    println!("name:        {}", tree.name());
    println!("nodes:       {}", tree.len());
    println!("sinks:       {}", tree.sink_count());
    println!("candidates:  {}", tree.candidate_count());
    println!("wire length: {:.1} mm", tree.total_wire_length() / 1000.0);
    println!(
        "die:         {:.2} x {:.2} mm",
        bb.width() / 1000.0,
        bb.height() / 1000.0
    );
    Ok(Outcome::Clean)
}

fn cmd_opt(args: &[String]) -> Result<Outcome, String> {
    let path = args.first().ok_or("opt needs a FILE")?;
    // Flags that only the post-analysis reads are checked before any
    // work, so a bad one costs no optimization run.
    let mc_samples = match flag_value(args, "--mc") {
        None => None,
        Some(v) => Some(
            v.parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("bad --mc sample count `{v}`: needs a positive integer"))?,
        ),
    };
    if mc_samples.is_some() && has_flag(args, "--sizing") {
        return Err("--mc is not supported together with --sizing".to_owned());
    }
    let tree = load_tree(path)?;
    let model = ProcessModel::paper_defaults(tree.bounding_box(), spatial_kind(args)?);
    let mode = match flag_value(args, "--mode") {
        Some("nom") => VariationMode::Nominal,
        Some("d2d") => VariationMode::DieToDie,
        None | Some("wid") => VariationMode::WithinDie,
        Some(other) => {
            return Err(format!(
                "unknown --mode `{other}` (expected nom, d2d, or wid)"
            ))
        }
    };
    let rule = parse_rule(args)?;
    let mut options = Options::default();
    if let Some(p) = parse_p(args)? {
        options.rule = TwoParam::try_new(p, p).map_err(|e| e.to_string())?;
    }
    if let Some(v) = flag_value(args, "--jobs") {
        let n: usize = v
            .parse()
            .map_err(|_| "--jobs needs an integer".to_owned())?;
        options.dp.jobs = if n == 0 { default_jobs() } else { n };
    }
    if has_flag(args, "--no-lazy-wire") {
        options.dp.use_lazy_wire = false;
    }
    if has_flag(args, "--jobs-force") {
        options.dp.jobs_force = true;
    }
    let degrade = has_flag(args, "--degrade")
        || has_flag(args, "--budget-solutions")
        || has_flag(args, "--budget-time")
        || has_flag(args, "--budget-mem");

    let mut outcome = Outcome::Clean;
    let (assignment, widths, rat_desc) = if degrade {
        if matches!(mode, VariationMode::Nominal) {
            return Err("--degrade / --budget-* need a statistical mode (d2d or wid)".to_owned());
        }
        let budget = parse_budget(args)?;
        let sizing = if has_flag(args, "--sizing") {
            WireSizing::default_three()
        } else {
            WireSizing::single()
        };
        let record_widths = sizing.widths().len() > 1;
        let g = optimize_governed_detailed(
            &tree,
            &model,
            mode,
            fallback_cascade(rule),
            &sizing,
            &options.dp,
            &budget,
            RunControls::default(),
        )
        .map_err(|e| e.to_string())?;
        if g.degradation.degraded() {
            outcome = Outcome::Degraded;
            print!("{}", g.degradation.summary());
        }
        let r = g.result;
        println!("phases: {}", r.stats.phase_summary());
        let desc = format!(
            "RAT {:.1} ± {:.2} ps",
            r.root_rat.mean(),
            r.root_rat.std_dev()
        );
        let widths = record_widths.then(|| sizing.edge_widths(&r.wire_widths));
        (r.assignment, widths, desc)
    } else if has_flag(args, "--sizing") {
        let sizing = WireSizing::default_three();
        let r = optimize_with_sizing(&tree, &model, mode, Arc::clone(&rule), &sizing, &options.dp)
            .map_err(|e| e.to_string())?;
        let desc = format!(
            "RAT {:.1} ± {:.2} ps ({} widened edges)",
            r.root_rat.mean(),
            r.root_rat.std_dev(),
            r.wire_widths.iter().filter(|&&(_, w)| w != 0).count()
        );
        (r.assignment, Some(sizing.edge_widths(&r.wire_widths)), desc)
    } else if flag_value(args, "--rule").is_some_and(|r| r != "2p") {
        if matches!(mode, VariationMode::Nominal) {
            return Err("--rule applies to statistical modes (d2d or wid)".to_owned());
        }
        let r = optimize_with_rule(&tree, &model, mode, Arc::clone(&rule), &options.dp)
            .map_err(|e| e.to_string())?;
        let desc = format!(
            "RAT {:.1} ± {:.2} ps",
            r.root_rat.mean(),
            r.root_rat.std_dev()
        );
        (r.assignment, None, desc)
    } else {
        let r = optimize_statistical(&tree, &model, mode, &options).map_err(|e| e.to_string())?;
        let desc = format!(
            "RAT {:.1} ± {:.2} ps",
            r.root_rat.mean(),
            r.root_rat.std_dev()
        );
        (r.assignment, None, desc)
    };

    println!(
        "mode {}: {} buffers, {rat_desc}",
        mode.label(),
        assignment.len()
    );

    // Always score under the full silicon model.
    let silicon = YieldEvaluator::new(&tree, &model, VariationMode::WithinDie);
    let analysis = match &widths {
        Some(w) => {
            let rat = silicon.rat_form_sized(&assignment, w);
            let y95 = rat.percentile(0.05);
            println!(
                "silicon (WID): mean {:.1}, sigma {:.2}, 95%-yield RAT {:.1}",
                rat.mean(),
                rat.std_dev(),
                y95
            );
            None
        }
        None => {
            let a = silicon.analyze(&assignment);
            println!(
                "silicon (WID): mean {:.1}, sigma {:.2}, 95%-yield RAT {:.1}",
                a.rat.mean(),
                a.rat.std_dev(),
                a.rat_at_95_yield
            );
            Some(a)
        }
    };

    if let Some(samples) = mc_samples {
        let mc = silicon.monte_carlo(&assignment, samples, 42);
        let (mean, var) = sample_moments(&mc);
        println!(
            "monte carlo ({samples} samples): mean {:.1}, sigma {:.2}",
            mean,
            var.sqrt()
        );
        if let Some(a) = analysis {
            println!(
                "model-vs-MC mean error: {:.3}%",
                100.0 * (a.rat.mean() - mean).abs() / mean.abs()
            );
        }
    }
    Ok(outcome)
}

/// Service policy from the `serve` flags.
fn parse_serve_config(args: &[String]) -> Result<(ServiceConfig, usize), String> {
    let mut config = ServiceConfig {
        budget: parse_budget(args)?,
        allow_faults: has_flag(args, "--faults"),
        use_cache: !has_flag(args, "--no-cache"),
        ..ServiceConfig::default()
    };
    if let Some(v) = flag_value(args, "--watchdog") {
        let secs = positive_secs(v).ok_or("--watchdog needs a positive number of seconds")?;
        config.watchdog = Some(secs);
    }
    if let Some(v) = flag_value(args, "--max-sessions") {
        config.max_sessions = v
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or("--max-sessions needs a positive integer")?;
    }
    if let Some(v) = flag_value(args, "--queue-soft") {
        config.queue_soft_cost = v
            .parse()
            .map_err(|_| "--queue-soft needs a cost in tree nodes".to_owned())?;
    }
    if let Some(v) = flag_value(args, "--queue-hard") {
        config.queue_hard_cost = v
            .parse()
            .map_err(|_| "--queue-hard needs a cost in tree nodes".to_owned())?;
    }
    if config.queue_soft_cost > config.queue_hard_cost {
        return Err("--queue-soft must not exceed --queue-hard".to_owned());
    }
    let jobs = match flag_value(args, "--jobs") {
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| "--jobs needs an integer".to_owned())?;
            if n == 0 {
                default_jobs()
            } else {
                n
            }
        }
        None => 1,
    };
    Ok((config, jobs))
}

/// The resident service: one command per stdin line, one response line
/// per request on stdout (see `help` inside the session). A parse error
/// or a contained crash answers `err …` and keeps serving; EOF or
/// `quit` shuts down cleanly with `ok bye`.
fn cmd_serve(args: &[String]) -> Result<Outcome, String> {
    let (config, jobs) = parse_serve_config(args)?;
    let mut service = Service::new(config);
    let stdin = std::io::stdin().lock();
    let mut out = std::io::stdout().lock();
    let mut batching = false;
    let say = |out: &mut dyn Write, line: &str| -> Result<(), String> {
        writeln!(out, "{line}")
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())
    };
    let mut lines = stdin.lines();
    while let Some(line) = lines.next() {
        let line = line.map_err(|e| format!("stdin read failed: {e}"))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let command = match parse_line(trimmed) {
            Ok(c) => c,
            Err(e) => {
                say(&mut out, &Response::Error(e).to_string())?;
                continue;
            }
        };
        match command {
            Command::Quit => break,
            Command::Help => say(&mut out, varbuf::core::service::PROTOCOL_HELP)?,
            Command::Begin => {
                batching = true;
                say(&mut out, "ok begin")?;
            }
            Command::Commit => {
                batching = false;
                for response in service.drain(jobs) {
                    say(&mut out, &response.to_string())?;
                }
                say(&mut out, "ok commit")?;
            }
            Command::Inject { id, fault } => {
                say(&mut out, &service.inject(id, fault).to_string())?;
            }
            Command::LoadTree { spatial } => {
                // Collect the inline net until its `end` terminator.
                let mut text = String::new();
                let mut terminated = false;
                for body in lines.by_ref() {
                    let body = body.map_err(|e| format!("stdin read failed: {e}"))?;
                    if body.trim() == "end" {
                        terminated = true;
                        break;
                    }
                    text.push_str(&body);
                    text.push('\n');
                }
                if !terminated {
                    say(&mut out, "err malformed `load` block hit EOF before `end`")?;
                    continue;
                }
                match read_tree(text.as_bytes()) {
                    Ok(tree) => {
                        let request = Request::Open {
                            tree: Box::new(tree),
                            spatial,
                        };
                        if batching {
                            service.submit(request);
                        } else {
                            say(&mut out, &service.execute(request).to_string())?;
                        }
                    }
                    Err(e) => {
                        say(&mut out, &format!("err malformed bad tree: {e}"))?;
                    }
                }
            }
            Command::Req(request) => {
                if batching {
                    service.submit(request);
                } else {
                    say(&mut out, &service.execute(request).to_string())?;
                }
            }
        }
    }
    // Anything still queued at shutdown is abandoned deliberately; the
    // session stats have already counted its admissions.
    say(&mut out, "ok bye")?;
    Ok(Outcome::Clean)
}

/// The CTS pipeline: H-tree generation, bottom-up variation-aware
/// buffering through the hierarchical engine, skew scoring.
fn cmd_cts(args: &[String]) -> Result<Outcome, String> {
    let levels: u32 = match flag_value(args, "--levels") {
        Some(v) => v
            .parse()
            .ok()
            .filter(|l| (1..=24).contains(l))
            .ok_or_else(|| format!("--levels must be in 1..=24, got `{v}`"))?,
        None => 10,
    };
    let skew_target = flag_value(args, "--skew-target")
        .map(|v| {
            v.parse::<f64>()
                .ok()
                .filter(|t| t.is_finite() && *t > 0.0)
                .ok_or_else(|| format!("--skew-target needs a positive number of ps, got `{v}`"))
        })
        .transpose()?;
    let tree = generate_htree(&HTreeSpec::with_levels(levels));
    tree.validate().map_err(|e| e.to_string())?;
    let model = ProcessModel::paper_defaults(tree.bounding_box(), spatial_kind(args)?);
    let rule = parse_rule(args)?;
    let budget = parse_budget(args)?;
    let mut hier = if has_flag(args, "--flat") {
        HierOptions::disabled()
    } else {
        HierOptions::default()
    };
    if let Some(v) = flag_value(args, "--cut-nodes") {
        hier.cut_nodes = v
            .parse()
            .map_err(|_| "--cut-nodes needs an integer (0 disables cuts)".to_owned())?;
    }
    if let Some(v) = flag_value(args, "--fanout-cut") {
        hier.fanout_cut = v
            .parse()
            .map_err(|_| "--fanout-cut needs an integer (0 = never by fanout)".to_owned())?;
    }
    let options = DpOptions::default();
    let g = optimize_hier(
        &tree,
        &model,
        VariationMode::WithinDie,
        fallback_cascade(rule),
        &WireSizing::single(),
        &options,
        &hier,
        &budget,
        RunControls::default(),
    )
    .map_err(|e| e.to_string())?;
    let mut outcome = Outcome::Clean;
    if g.degradation.degraded() {
        outcome = Outcome::Degraded;
        print!("{}", g.degradation.summary());
    }
    let r = &g.result;
    println!(
        "htree{levels}: {} sinks, {} buffers, RAT {:.1} ± {:.2} ps",
        tree.sink_count(),
        r.assignment.len(),
        r.root_rat.mean(),
        r.root_rat.std_dev()
    );
    println!(
        "decomposition: {} cuts, {} spliced candidates dropped, peak chunk bytes {}, frontier cap {}",
        g.hier.cut_count, g.hier.spliced_dropped, g.hier.peak_chunk_bytes, g.hier.final_frontier_cap
    );
    let analysis =
        SkewAnalyzer::new(&tree, &model, VariationMode::WithinDie).analyze(&r.assignment);
    let skew = analysis.global_skew();
    println!("global skew {:.2} ± {:.2} ps", skew.mean(), skew.std_dev());
    let targets: Vec<f64> = match skew_target {
        Some(target) => vec![target],
        None => [1.0, 1.5, 2.0]
            .iter()
            .map(|m| skew.mean() * m + 1e-9)
            .collect(),
    };
    for target in targets {
        println!(
            "  P(skew <= {:.2} ps) = {:.1}%",
            target,
            100.0 * analysis.skew_yield(target)
        );
    }
    Ok(outcome)
}

fn cmd_skew(args: &[String]) -> Result<Outcome, String> {
    let path = args.first().ok_or("skew needs a FILE")?;
    let tree = load_tree(path)?;
    let model = ProcessModel::paper_defaults(tree.bounding_box(), spatial_kind(args)?);
    let wid = optimize_statistical(&tree, &model, VariationMode::WithinDie, &Options::default())
        .map_err(|e| e.to_string())?;
    let analysis =
        SkewAnalyzer::new(&tree, &model, VariationMode::WithinDie).analyze(&wid.assignment);
    let skew = analysis.global_skew();
    println!(
        "{} sinks, {} buffers: global skew {:.2} ± {:.2} ps",
        tree.sink_count(),
        wid.assignment.len(),
        skew.mean(),
        skew.std_dev()
    );
    for target_mult in [1.0, 1.5, 2.0] {
        let target = skew.mean() * target_mult + 1e-9;
        println!(
            "  P(skew <= {:.2} ps) = {:.1}%",
            target,
            100.0 * analysis.skew_yield(target)
        );
    }
    Ok(Outcome::Clean)
}
