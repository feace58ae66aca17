//! The four workloads: input generation from the seed, the timed item
//! (the same sequence of public calls as the corresponding `varbuf`
//! command, each wrapped in a span), and the untimed output checks.

use crate::trace::Tracer;
use std::sync::Arc;
use std::time::{Duration, Instant};
use varbuf_core::dp::{fallback_cascade, DpOptions, RunControls, WireSizing};
use varbuf_core::driver::{optimize_statistical, Options};
use varbuf_core::governor::Budget;
use varbuf_core::hier::{optimize_hier, HierOptions};
use varbuf_core::metrics::DpStats;
use varbuf_core::prune::TwoParam;
use varbuf_core::service::{
    parse_line, parse_open_spec, Command, Request, Response, Service, ServiceConfig,
};
use varbuf_core::skew::SkewAnalyzer;
use varbuf_core::yield_eval::YieldEvaluator;
use varbuf_rctree::generate::{generate_benchmark, generate_htree, BenchmarkSpec, HTreeSpec};
use varbuf_rctree::io::{read_tree, write_tree};
use varbuf_rctree::tree::NodeKind;
use varbuf_rctree::{NodeId, RoutingTree};
use varbuf_stats::rng::SplitMix64;
use varbuf_variation::{BufferTypeId, ProcessModel, SpatialKind, VariationMode};

/// Relative tolerance between the engine's root RAT mean and the
/// independent re-evaluation of its design (the degradation suite's).
const RAT_TOLERANCE: f64 = 1e-6;

/// `serve_edit` opt replies re-checked against a cache-off replay.
const CHECKPOINTS: usize = 20;

/// Buffer-candidate pitch of `flat_random` nets, µm (the paper tables').
const FLAT_PITCH_UM: f64 = 500.0;

/// Pitch of `wire_heavy` nets: ~16 candidates on a typical 1 mm edge.
const WIRE_PITCH_UM: f64 = 62.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FlatRandom,
    WireHeavy,
    CtsHtree,
    ServeEdit,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FlatRandom,
        Workload::WireHeavy,
        Workload::CtsHtree,
        Workload::ServeEdit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FlatRandom => "flat_random",
            Workload::WireHeavy => "wire_heavy",
            Workload::CtsHtree => "cts_htree",
            Workload::ServeEdit => "serve_edit",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Sizes::FULL`] is what the benchmark measures; the
/// unit tests run [`Sizes::TINY`].
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub flat_sinks: usize,
    pub wire_sinks: usize,
    pub cts_levels: u32,
    pub serve_sinks: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        flat_sinks: 1024,
        wire_sinks: 256,
        cts_levels: 12,
        serve_sinks: 4096,
    };
    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        flat_sinks: 24,
        wire_sinks: 8,
        cts_levels: 5,
        serve_sinks: 48,
    };
}

/// One measured item.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub latency: Duration,
    /// Why the item failed (error, check mismatch or degraded result).
    pub failure: Option<String>,
    /// Per-item counters, named as the per-layer metrics.
    pub counters: Vec<(&'static str, f64)>,
    /// 95%-yield root RAT of the item's design, ps, where one exists.
    pub rat95: Option<f64>,
}

/// The untimed input of one item.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// A net serialized in the `varbuf-tree` text format.
    Net(Vec<u8>),
    /// The clock tree is generated inside the item.
    Htree,
    /// One `edit` protocol line (the `opt` line that follows is fixed).
    Edit(String),
}

enum State {
    Net {
        sinks: usize,
        pitch: f64,
    },
    Cts {
        levels: u32,
    },
    Serve {
        spec: String,
        script: Script,
        session: Option<Box<ServeSession>>,
    },
}

struct ServeSession {
    service: Service,
    /// Node count of the resident net.
    nodes: usize,
    opt_line: String,
    /// Every edit line sent, with the opt reply that followed it.
    log: Vec<(String, OptReply)>,
}

/// The fields of an `ok opt` reply the cache-off replay must reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OptReply {
    buffers: usize,
    rat_mean: f64,
    rat_sigma: f64,
    degraded: bool,
}

pub struct Runner {
    state: State,
    setup_rng: SplitMix64,
    item_rng: SplitMix64,
    check_seed: u64,
}

impl Runner {
    pub fn new(workload: Workload, seed: u64, sizes: Sizes) -> Self {
        // Independent streams per workload and purpose, all from `seed`.
        let mut master = SplitMix64::new(seed ^ (workload as u64 + 1).wrapping_mul(0x9E37_79B9));
        let setup_rng = SplitMix64::new(master.next_u64());
        let item_rng = SplitMix64::new(master.next_u64());
        let check_seed = master.next_u64();
        let state = match workload {
            Workload::FlatRandom => State::Net {
                sinks: sizes.flat_sinks,
                pitch: FLAT_PITCH_UM,
            },
            Workload::WireHeavy => State::Net {
                sinks: sizes.wire_sinks,
                pitch: WIRE_PITCH_UM,
            },
            Workload::CtsHtree => State::Cts {
                levels: sizes.cts_levels,
            },
            Workload::ServeEdit => {
                let spec = format!("random:{}:{}", sizes.serve_sinks, seed);
                let tree = parse_open_spec(&spec).expect("sink count within the protocol's limit");
                State::Serve {
                    spec,
                    script: Script::new(&tree, master.next_u64()),
                    session: None,
                }
            }
        };
        Self {
            state,
            setup_rng,
            item_rng,
            check_seed,
        }
    }

    /// One set-up: what a run does before its first measured item.
    /// `flat_random`/`wire_heavy` and `cts_htree` run one warm-up item
    /// (a fresh net each time); `serve_edit` starts a service, opens
    /// the session and runs its first, cold `opt`, replacing any
    /// session an earlier set-up left.
    pub fn setup(&mut self) -> Result<(), String> {
        let mut off = Tracer::new();
        let input = match &mut self.state {
            State::Net { sinks, pitch } => net_input(&mut self.setup_rng, *sinks, *pitch),
            State::Cts { .. } => Input::Htree,
            State::Serve {
                spec,
                session,
                script,
            } => {
                *session = None;
                let (service, handle, nodes) = open_session(ServiceConfig::default(), spec)?;
                script.handle = handle.clone();
                let mut s = ServeSession {
                    service,
                    nodes,
                    opt_line: format!("opt {handle}"),
                    log: Vec::new(),
                };
                let reply = s.service.execute(request(&s.opt_line)?);
                opt_reply(&reply)?;
                *session = Some(Box::new(s));
                return Ok(());
            }
        };
        match self.item(0, input, &mut off).failure {
            None => Ok(()),
            Some(why) => Err(why),
        }
    }

    /// The next item's input, derived from the seed (not timed).
    pub fn next_input(&mut self) -> Input {
        match &mut self.state {
            State::Net { sinks, pitch } => net_input(&mut self.item_rng, *sinks, *pitch),
            State::Cts { .. } => Input::Htree,
            State::Serve { script, .. } => Input::Edit(script.next_line()),
        }
    }

    /// Runs and times one item, then checks its output outside the
    /// timed region.
    pub fn item(&mut self, id: u64, input: Input, tracer: &mut Tracer) -> Outcome {
        let start = Instant::now();
        tracer.begin_item(id);
        let Timed { mut done, check } = match (&mut self.state, input) {
            (State::Net { .. }, Input::Net(bytes)) => net_item(&bytes, tracer),
            (State::Cts { levels }, Input::Htree) => cts_item(*levels, tracer),
            (State::Serve { session, .. }, Input::Edit(line)) => {
                let s = session.as_mut().expect("setup opened the session");
                serve_item(s, line, tracer)
            }
            _ => unreachable!("inputs come from next_input of the same runner"),
        };
        tracer.end_item();
        done.latency = start.elapsed();
        if done.failure.is_none() {
            done.failure = check.and_then(Check::run);
        }
        done
    }

    /// End-of-run checks that need the whole run: `serve_edit` replays
    /// its edit script on a cache-off service and compares seeded `opt`
    /// checkpoints. Returns (checks made, failures).
    pub fn finish(&self) -> (usize, Vec<String>) {
        let State::Serve {
            spec,
            session: Some(s),
            ..
        } = &self.state
        else {
            return (0, Vec::new());
        };
        replay(spec, &s.log, self.check_seed)
            .unwrap_or_else(|e| (1, vec![format!("cache-off replay: {e}")]))
    }
}

/// What a timed item hands back: its outcome so far and the check to
/// run once the clock has stopped.
struct Timed {
    done: Outcome,
    check: Option<Check>,
}

impl Timed {
    fn fail(why: String) -> Self {
        Timed {
            done: Outcome {
                failure: Some(why),
                ..Outcome::default()
            },
            check: None,
        }
    }
}

/// An output check, run after the item's clock stops.
enum Check {
    /// Engine root RAT mean against the re-evaluated one.
    Rat { engine: f64, reeval: f64 },
    /// Re-evaluate a `cts_htree` design on a regenerated tree and model
    /// (both are deterministic), then compare as `Rat`.
    Reeval {
        levels: u32,
        assignment: Vec<(NodeId, BufferTypeId)>,
        engine: f64,
    },
}

impl Check {
    fn run(self) -> Option<String> {
        let (engine, reeval) = match self {
            Check::Rat { engine, reeval } => (engine, reeval),
            Check::Reeval {
                levels,
                assignment,
                engine,
            } => {
                let tree = generate_htree(&HTreeSpec::with_levels(levels));
                let model =
                    ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous);
                let rat = YieldEvaluator::new(&tree, &model, VariationMode::WithinDie)
                    .rat_form(&assignment)
                    .mean();
                (engine, rat)
            }
        };
        let rel = (engine - reeval).abs() / engine.abs().max(1.0);
        (rel > RAT_TOLERANCE).then(|| {
            format!("root RAT mean {engine} differs from re-evaluation {reeval} (rel {rel:.3e})")
        })
    }
}

fn net_input(rng: &mut SplitMix64, sinks: usize, pitch: f64) -> Input {
    let tree = generate_benchmark(&BenchmarkSpec::random("bench", sinks, rng.next_u64()))
        .subdivided(pitch);
    let mut bytes = Vec::new();
    write_tree(&tree, &mut bytes).expect("writing to memory cannot fail");
    Input::Net(bytes)
}

fn dp_counters(s: &DpStats) -> Vec<(&'static str, f64)> {
    let ns = |d: Duration| d.as_nanos() as f64;
    let generated = s.solutions_generated as f64;
    let kept = s.solutions_generated.saturating_sub(s.solutions_pruned) as f64;
    vec![
        ("phase:dp.wire", ns(s.wire_time)),
        ("phase:dp.merge", ns(s.merge_time)),
        ("phase:dp.prune", ns(s.prune_time)),
        ("phase:dp.buffer", ns(s.buffer_time)),
        ("phase:dp.bound", ns(s.bound_time)),
        ("dp.generated", generated),
        (
            "dp.survival_ratio",
            if generated > 0.0 {
                kept / generated
            } else {
                0.0
            },
        ),
        ("dp.bound_pruned", s.pruned_by_bound as f64),
        ("dp.lishi_skipped", s.lishi_skipped as f64),
        ("dp.max_list", s.max_solutions_per_node as f64),
    ]
}

/// `varbuf opt FILE`: read the net, build the model, run the 2P-WID
/// engine, score the design under the full silicon model.
fn net_item(bytes: &[u8], t: &mut Tracer) -> Timed {
    let tree = match t.span("rctree.read", || read_tree(bytes)) {
        Ok(tree) => tree,
        Err(e) => return Timed::fail(format!("read_tree: {e}")),
    };
    let model = t.span("variation.model", || {
        ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous)
    });
    let (result, mut counters) = t.span_with(
        "dp.optimize",
        || optimize_statistical(&tree, &model, VariationMode::WithinDie, &Options::default()),
        |r| {
            r.as_ref()
                .map(|r| dp_counters(&r.stats))
                .unwrap_or_default()
        },
    );
    let r = match result {
        Ok(r) => r,
        Err(e) => return Timed::fail(format!("optimize_statistical: {e}")),
    };
    let analysis = t.span("yield_eval.analyze", || {
        YieldEvaluator::new(&tree, &model, VariationMode::WithinDie).analyze(&r.assignment)
    });
    counters.push(("rctree.nodes", tree.len() as f64));
    counters.push(("governor.degraded", f64::from(u8::from(r.stats.degraded()))));
    free(t, tree, model);
    Timed {
        done: Outcome {
            failure: r.stats.degraded().then(|| "degraded run".to_owned()),
            counters,
            rat95: Some(analysis.rat_at_95_yield),
            ..Outcome::default()
        },
        check: Some(Check::Rat {
            engine: r.root_rat.mean(),
            reeval: analysis.rat.mean(),
        }),
    }
}

/// Frees the item's tree and model inside their layers' spans: the
/// model's device-form memo alone takes ~5% of a `flat_random` item,
/// which would otherwise land in the unattributed remainder.
fn free(t: &mut Tracer, tree: RoutingTree, model: ProcessModel) {
    t.span("variation.drop", || drop(model));
    t.span("rctree.drop", || drop(tree));
}

/// `varbuf cts`: H-tree generation and validation, the hierarchical
/// 2P-WID engine, skew analysis and skew yield at the CLI's targets.
fn cts_item(levels: u32, t: &mut Tracer) -> Timed {
    let tree = t.span("rctree.generate", || {
        generate_htree(&HTreeSpec::with_levels(levels))
    });
    if let Err(e) = t.span("rctree.validate", || tree.validate()) {
        return Timed::fail(format!("validate: {e}"));
    }
    let model = t.span("variation.model", || {
        ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous)
    });
    let (result, mut counters) = t.span_with(
        "hier.optimize",
        || {
            optimize_hier(
                &tree,
                &model,
                VariationMode::WithinDie,
                fallback_cascade(Arc::new(TwoParam::default())),
                &WireSizing::single(),
                &DpOptions::default(),
                &HierOptions::default(),
                &Budget::unlimited(),
                RunControls::default(),
            )
        },
        |g| {
            let Ok(g) = g else { return Vec::new() };
            let mut c = dp_counters(&g.result.stats);
            c.extend([
                ("hier.cuts", g.hier.cut_count as f64),
                ("hier.spliced_dropped", g.hier.spliced_dropped as f64),
                ("hier.peak_chunk_bytes", g.hier.peak_chunk_bytes as f64),
            ]);
            c
        },
    );
    let g = match result {
        Ok(g) => g,
        Err(e) => return Timed::fail(format!("optimize_hier: {e}")),
    };
    let analysis = t.span("skew.analyze", || {
        SkewAnalyzer::new(&tree, &model, VariationMode::WithinDie).analyze(&g.result.assignment)
    });
    let yields = t.span("skew.yield", || {
        let skew = analysis.global_skew();
        [1.0, 1.5, 2.0].map(|m| analysis.skew_yield(skew.mean() * m + 1e-9))
    });
    t.span("skew.drop", || drop(analysis));
    let degraded = g.degradation.degraded();
    counters.push(("rctree.nodes", tree.len() as f64));
    counters.push(("governor.degraded", f64::from(u8::from(degraded))));
    free(t, tree, model);
    let failure = if degraded {
        Some("degraded run".to_owned())
    } else if !yields.iter().all(|y| (0.0..=1.0).contains(y)) {
        Some(format!("skew yields out of [0, 1]: {yields:?}"))
    } else {
        None
    };
    let rat = &g.result.root_rat;
    Timed {
        done: Outcome {
            failure,
            counters,
            rat95: Some(if rat.std_dev() > 0.0 {
                rat.percentile(0.05)
            } else {
                rat.mean()
            }),
            ..Outcome::default()
        },
        check: Some(Check::Reeval {
            engine: rat.mean(),
            assignment: g.result.assignment,
            levels,
        }),
    }
}

/// `varbuf serve`, one client waiting on each reply: an edit line and
/// an `opt` line, each parsed, executed and rendered.
fn serve_item(s: &mut ServeSession, line: String, t: &mut Tracer) -> Timed {
    let before = s.service.stats();
    let mut replies = Vec::with_capacity(2);
    for text in [line.as_str(), s.opt_line.as_str()] {
        let is_edit = replies.is_empty();
        let command = t.span("service.parse", || parse_line(text));
        let request = match command {
            Ok(Command::Req(r)) => r,
            Ok(other) => return Timed::fail(format!("`{text}` parsed as {other:?}")),
            Err(e) => return Timed::fail(format!("`{text}`: {e}")),
        };
        let name = if is_edit {
            "service.edit"
        } else {
            "service.opt"
        };
        let response = t.span(name, || s.service.execute(request));
        let rendered = t.span("service.render", || response.to_string());
        replies.push((response, rendered));
    }
    let after = s.service.stats();
    let counters = vec![
        ("rctree.nodes", s.nodes as f64),
        ("cache.hits", (after.cache_hits - before.cache_hits) as f64),
        (
            "cache.misses",
            (after.cache_misses - before.cache_misses) as f64,
        ),
        (
            "cache.invalidations",
            (after.cache_invalidations - before.cache_invalidations) as f64,
        ),
        (
            "governor.degraded",
            (after.degraded - before.degraded) as f64,
        ),
        (
            "service.errors",
            replies.iter().filter(|r| r.0.is_error()).count() as f64,
        ),
    ];
    let edit_ok =
        matches!(replies[0].0, Response::Edited { .. }) && replies[0].1.starts_with("ok edit");
    let failure = if !edit_ok {
        Some(format!("`{line}` answered `{}`", replies[0].1))
    } else {
        match opt_reply(&replies[1].0) {
            Ok(reply) => {
                s.log.push((line, reply));
                None
            }
            Err(e) => Some(e),
        }
    };
    Timed {
        done: Outcome {
            failure,
            counters,
            ..Outcome::default()
        },
        check: None,
    }
}

fn request(line: &str) -> Result<Request, String> {
    match parse_line(line) {
        Ok(Command::Req(r)) => Ok(r),
        Ok(other) => Err(format!("`{line}` parsed as {other:?}")),
        Err(e) => Err(format!("`{line}`: {e}")),
    }
}

/// A service with one session open over `spec`: (service, handle, nodes).
fn open_session(config: ServiceConfig, spec: &str) -> Result<(Service, String, usize), String> {
    let mut service = Service::new(config);
    match service.execute(request(&format!("open {spec} hetero"))?) {
        Response::Opened { handle, nodes, .. } => Ok((service, handle.to_string(), nodes)),
        other => Err(format!("open answered `{other}`")),
    }
}

fn opt_reply(response: &Response) -> Result<OptReply, String> {
    match *response {
        Response::Optimized {
            buffers,
            rat_mean,
            rat_sigma,
            degraded,
            ..
        } => {
            let reply = OptReply {
                buffers,
                rat_mean,
                rat_sigma,
                degraded,
            };
            if degraded {
                Err(format!("degraded opt reply `{response}`"))
            } else {
                Ok(reply)
            }
        }
        ref other => Err(format!("opt answered `{other}`")),
    }
}

/// Replays the logged edit script on a cache-off service and compares
/// the `opt` replies at up to [`CHECKPOINTS`] seeded positions.
fn replay(
    spec: &str,
    log: &[(String, OptReply)],
    seed: u64,
) -> Result<(usize, Vec<String>), String> {
    let config = ServiceConfig {
        use_cache: false,
        ..ServiceConfig::default()
    };
    let (mut service, handle, _) = open_session(config, spec)?;
    let opt_line = format!("opt {handle}");
    let mut rng = SplitMix64::new(seed);
    let mut picks: Vec<usize> = (0..log.len()).collect();
    for i in 0..picks.len().min(CHECKPOINTS) {
        let j = i + rng.below(picks.len() - i);
        picks.swap(i, j);
    }
    picks.truncate(CHECKPOINTS);
    picks.sort_unstable();
    let mut failures = Vec::new();
    let mut next = picks.iter().peekable();
    for (i, (line, expected)) in log.iter().enumerate() {
        if !matches!(service.execute(request(line)?), Response::Edited { .. }) {
            failures.push(format!("replay of `{line}` failed"));
        }
        if next.peek() == Some(&&i) {
            next.next();
            match opt_reply(&service.execute(request(&opt_line)?)) {
                Ok(got) if got == *expected => {}
                Ok(got) => failures.push(format!(
                    "interaction {i}: cached reply {expected:?} but cache-off replay {got:?}"
                )),
                Err(e) => failures.push(format!("interaction {i}: {e}")),
            }
        }
    }
    Ok((picks.len(), failures))
}

#[derive(Debug, Clone, Copy)]
enum EditKind {
    Rat,
    Wire,
    Sink,
    Lib,
}

/// The seeded `serve_edit` request mix. Each block of 100 edits holds
/// exactly 80 `edit rat`, 15 `edit wire`, 3 `edit sink` and 2
/// `edit lib` in shuffled order, so every run sends the same mix (a
/// cache-flushing lib edit costs ~50 warm edits; letting their count
/// drift with the seed would drift throughput with it).
struct Script {
    rng: SplitMix64,
    handle: String,
    sinks: Vec<u32>,
    /// Every non-root node with its parent edge's original length.
    edges: Vec<(u32, f64)>,
    block: Vec<EditKind>,
    next_lib_single: bool,
}

impl Script {
    fn new(tree: &RoutingTree, seed: u64) -> Self {
        let mut sinks = Vec::new();
        let mut edges = Vec::new();
        for (id, node) in tree.iter() {
            if matches!(node.kind, NodeKind::Sink { .. }) {
                sinks.push(id.0);
            }
            if id != tree.root() {
                edges.push((id.0, node.edge_length));
            }
        }
        Self {
            rng: SplitMix64::new(seed),
            handle: String::new(),
            sinks,
            edges,
            block: Vec::new(),
            next_lib_single: true,
        }
    }

    fn next_line(&mut self) -> String {
        if self.block.is_empty() {
            let counts = [
                (EditKind::Rat, 80),
                (EditKind::Wire, 15),
                (EditKind::Sink, 3),
                (EditKind::Lib, 2),
            ];
            for (kind, n) in counts {
                self.block.extend(std::iter::repeat_n(kind, n));
            }
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i + 1);
                self.block.swap(i, j);
            }
        }
        let h = &self.handle;
        let rng = &mut self.rng;
        match self.block.pop().expect("refilled above") {
            EditKind::Rat => {
                let node = self.sinks[rng.below(self.sinks.len())];
                format!("edit rat {h} {node} {:.3}", -rng.uniform(0.0, 200.0))
            }
            EditKind::Wire => {
                let (node, length) = self.edges[rng.below(self.edges.len())];
                format!("edit wire {h} {node} {:.3}", length * rng.uniform(0.5, 1.5))
            }
            EditKind::Sink => {
                let node = self.sinks[rng.below(self.sinks.len())];
                format!("edit sink {h} {node} {:.3}", rng.uniform(5.0, 30.0))
            }
            EditKind::Lib => {
                let lib = if self.next_lib_single {
                    "single"
                } else {
                    "full"
                };
                self.next_lib_single = !self.next_lib_single;
                format!("edit lib {h} {lib}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::breakdown;

    #[test]
    fn same_seed_gives_identical_inputs() {
        for w in Workload::ALL {
            let inputs = |seed: u64| {
                let mut r = Runner::new(w, seed, Sizes::TINY);
                r.setup().expect("tiny setup");
                (0..8).map(|_| r.next_input()).collect::<Vec<_>>()
            };
            let a = inputs(7);
            assert_eq!(a, inputs(7), "{}", w.name());
            if w != Workload::CtsHtree {
                assert_ne!(a, inputs(8), "{} ignores its seed", w.name());
            }
        }
    }

    #[test]
    fn edit_mix_is_exact_per_block() {
        let tree = parse_open_spec("random:48:3").unwrap();
        let mut script = Script::new(&tree, 11);
        script.handle = "s0.0".to_owned();
        let lines: Vec<String> = (0..200).map(|_| script.next_line()).collect();
        for block in lines.chunks(100) {
            let count = |kind: &str| block.iter().filter(|l| l.starts_with(kind)).count();
            assert_eq!(
                [
                    count("edit rat "),
                    count("edit wire "),
                    count("edit sink "),
                    count("edit lib ")
                ],
                [80, 15, 3, 2]
            );
        }
        for line in &lines {
            assert!(
                matches!(parse_line(line), Ok(Command::Req(Request::Edit { .. }))),
                "{line}"
            );
        }
    }

    #[test]
    fn tiny_pass_of_every_workload() {
        let start = Instant::now();
        for w in Workload::ALL {
            let mut runner = Runner::new(w, 5, Sizes::TINY);
            runner.setup().expect("setup");
            let mut tracer = Tracer::new();
            tracer.set_enabled(true);
            for id in 0..25 {
                let input = runner.next_input();
                let out = runner.item(id, input, &mut tracer);
                assert_eq!(out.failure, None, "{} item {id}", w.name());
                assert!(out.latency > Duration::ZERO);
            }
            let (checked, failures) = runner.finish();
            assert!(failures.is_empty(), "{failures:?}");
            if w == Workload::ServeEdit {
                assert_eq!(checked, CHECKPOINTS);
            }
            let items = breakdown(tracer.spans());
            assert_eq!(items.len(), 25);
            for item in &items {
                let sum: u64 = item.layers.iter().map(|l| l.1).sum();
                assert_eq!(sum, item.wall_ns, "{}", w.name());
                assert!(item.layers.len() > 2, "{} traced no layers", w.name());
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "{:?}",
            start.elapsed()
        );
    }
}
