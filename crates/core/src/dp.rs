//! The variation-aware dynamic program (Section 4 of the paper).
//!
//! Structurally identical to the deterministic van Ginneken DP in
//! [`crate::det`], but every solution is a pair of first-order canonical
//! forms and dominance is delegated to a [`PruningRule`]:
//!
//! * rules with [`MergeStrategy::SortedLinear`] (2P, 1P) keep lists sorted
//!   by the rule's scalar key; lifting, buffering, merging and pruning are
//!   all linear walks — Theorem 1's `O(B·N²)`;
//! * rules with [`MergeStrategy::CrossProduct`] (4P) must form all `n·m`
//!   pair combinations at merges and prune pairwise in `O(N²)`; the
//!   engine enforces a per-node solution cap and a wall-clock limit so
//!   that the blow-up surfaces as a typed error (the "-" rows of
//!   Table 2) rather than an OOM kill.
//!
//! Every run is mediated by a [`Governor`]: the legacy entry points
//! ([`optimize_with_rule`], [`optimize_with_sizing`]) use a *strict*
//! governor over their one rule that turns the first budget breach into
//! a typed error, while [`optimize_governed`] uses a degrading governor
//! that walks a pruning-rule fallback cascade, tightens epsilon,
//! truncates candidate lists, and — past a hard limit — finishes in
//! panic-completion mode so the caller still gets a valid best-so-far
//! design plus a [`Degradation`] report.
//!
//! Cold, incremental ([`optimize_incremental`]) and hierarchical
//! ([`crate::hier::optimize_hier`]) runs share one postorder walk that
//! takes two optional inputs: a memo (the session's node signatures and
//! solution cache), whose hits replay a cached list and skip the whole
//! subtree, and a cut plan, whose cut nodes splice their lists before
//! the parent takes them.

use crate::cache::{NodeSigs, SolutionCache};
use crate::error::InsertionError;
use crate::faultinject::FaultInjector;
use crate::governor::{
    keep_best, solution_footprint, truncate_spread, Admission, Budget, CancelToken, Clock,
    Degradation, Governor, GuardedFallback,
};
use crate::hier::{Cuts, HierOptions, HierReport, HierResult};
use crate::metrics::DpStats;
use crate::ops::{
    buffer_extend_stat_into, driver_rat_stat, materialize_wire_stat, merge_pair_stat_into,
    wire_defer_stat_in_place, wire_defer_stat_into, wire_extend_stat_in_place,
    wire_extend_stat_into,
};
use crate::prune::{
    prune_solutions_keyed, prune_solutions_polled, MergeStrategy, PruneScratch, PruningRule,
    TwoParam,
};
use crate::solution::StatSolution;
use std::sync::Arc;
use std::time::{Duration, Instant};
use varbuf_rctree::tree::NodeKind;
use varbuf_rctree::wire::WireSegment;
use varbuf_rctree::{NodeId, RoutingTree};
use varbuf_stats::CanonicalForm;
use varbuf_variation::{BufferTypeId, DeviceSite, ProcessModel, VariationMode};

/// How the winning solution is chosen among the root's survivors.
///
/// Pruning keeps the rule's Pareto front; this criterion picks the single
/// design reported to the caller. The paper's figure of merit is the RAT
/// at 95% timing yield (Section 5.3), so the default maximizes the 5th
/// percentile `μ − z₀.₉₅·σ`, trading a little mean for less variance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RootSelection {
    /// Maximize the mean RAT.
    MeanRat,
    /// Maximize the RAT achieved with the given timing yield (e.g. `0.95`
    /// maximizes the 5th-percentile RAT).
    YieldRat(f64),
}

impl RootSelection {
    pub(crate) fn key(self, rat: &CanonicalForm) -> f64 {
        match self {
            RootSelection::MeanRat => rat.mean(),
            RootSelection::YieldRat(y) => {
                if rat.std_dev() > 0.0 {
                    rat.percentile(1.0 - y)
                } else {
                    rat.mean()
                }
            }
        }
    }
}

/// Engine limits and knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpOptions {
    /// Abort with [`InsertionError::CapacityExceeded`] when a node would
    /// hold more candidates than this (the paper's 2 GB memory cap, in
    /// solution-count form). Governed runs degrade instead of aborting —
    /// see [`optimize_governed`].
    pub max_solutions_per_node: usize,
    /// Abort with [`InsertionError::TimeLimitExceeded`] past this
    /// wall-clock budget (the paper's 4-hour cutoff).
    pub time_limit: Duration,
    /// Drop canonical-form terms below this fraction of the form's σ
    /// after each operation (`0.0` keeps everything).
    pub sparsify_epsilon: f64,
    /// Winner criterion at the root.
    pub root_selection: RootSelection,
    /// Worker threads for intra-tree parallelism (`1` = sequential).
    /// Independent sibling subtrees are solved concurrently and joined
    /// at branch nodes in fixed child order; results are bit-identical
    /// to the sequential engine (see `pool` module docs for the
    /// determinism contract and when the engine falls back to one
    /// thread).
    pub jobs: usize,
    /// Lazy list-level wire propagation: the wire lift updates only the
    /// *means* per segment (two scalar adds, bit-identical to the eager
    /// kernel's nominal path) and defers the O(terms) coupling
    /// `rat ← rat − r·load` by accumulating the segment resistances in
    /// [`wire_pending`](crate::solution::StatFields::wire_pending); the
    /// whole deferred chain is paid off with one term update at the
    /// points that read RAT sensitivities (merges, buffering, winner
    /// selection).
    /// Mean-keyed pruning runs pre-materialization — dominance order is
    /// preserved under the shared transform (see DESIGN.md) — while
    /// non-mean-keyed rules materialize before every prune, which
    /// degenerates to the eager kernel bit for bit. Equal-objective for
    /// mean-keyed rules on subdivided chains (root RAT within 1e-9
    /// relative; the lazy-wire oracle pins this plus solution-count
    /// identity), byte-identical everywhere chains have unit length.
    /// Disarmed under a degradable governor (pending-aware footprints
    /// would shift *when* degradation triggers) and under fault
    /// injection. `--no-lazy-wire` on the CLI.
    pub use_lazy_wire: bool,
    /// Honor `jobs` literally even when it exceeds the host's available
    /// parallelism. By default a request for more workers than the
    /// machine has hardware threads is clamped (oversubscribed pools
    /// only add contention — on a single-thread host `jobs = 4` measured
    /// ~0.8× of sequential), but benchmarks probing the pool machinery
    /// itself can force the fan-out with `--jobs-force`.
    pub jobs_force: bool,
    /// Combinatorial-blowup guard for governed runs: when the requested
    /// primary rule merges by cross product (4P), the budget puts no
    /// ceiling on solutions or memory, and the tree has more sinks than
    /// this threshold, the run starts directly under the cascade's first
    /// linear-merge rule instead of discovering the `n·m` blowup nodes
    /// deep into the run. Recorded as [`Degradation::guard`] — a typed
    /// planning note, not a degradation event, since the substituted run
    /// completes at full fidelity. `0` disables the guard. Strict runs
    /// are never guarded (they own their rule and abort by contract),
    /// and neither are runs whose budget constrains solutions or memory
    /// (the governor's ladder handles those, with full event reporting).
    pub guard_4p_sinks: usize,
}

impl DpOptions {
    /// The worker count the engine will actually use: `jobs` clamped to
    /// the host's available parallelism unless [`Self::jobs_force`] is
    /// set. Recorded as `DpStats::jobs_effective` alongside the raw
    /// request.
    #[must_use]
    pub fn effective_jobs(&self) -> usize {
        let jobs = self.jobs.max(1);
        if self.jobs_force {
            jobs
        } else {
            jobs.min(crate::pool::default_jobs())
        }
    }
}

impl Default for DpOptions {
    fn default() -> Self {
        Self {
            max_solutions_per_node: 2_000_000,
            time_limit: Duration::from_secs(4 * 3600),
            sparsify_epsilon: 0.0,
            root_selection: RootSelection::YieldRat(0.95),
            jobs: 1,
            use_lazy_wire: true,
            jobs_force: false,
            guard_4p_sinks: 12,
        }
    }
}

/// The wire-width choice set for simultaneous buffer insertion and wire
/// sizing (the extension of \[8\]). Width `w` scales an edge's
/// resistance by `1/w` and capacitance by `w`.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSizing {
    widths: Vec<f64>,
}

impl WireSizing {
    /// Buffer insertion only: every wire at default width.
    #[must_use]
    pub fn single() -> Self {
        Self { widths: vec![1.0] }
    }

    /// A custom width table; index 0 should be the default (`1.0`) so
    /// unsized evaluation remains meaningful.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty, exceeds 256 entries, or contains a
    /// non-positive or non-finite width.
    #[must_use]
    pub fn new(widths: Vec<f64>) -> Self {
        assert!(
            !widths.is_empty() && widths.len() <= 256,
            "width table must have 1..=256 entries"
        );
        assert!(
            widths.iter().all(|&w| w.is_finite() && w > 0.0),
            "wire widths must be positive and finite"
        );
        Self { widths }
    }

    /// A typical three-width table: default, 2× and 4× wide.
    #[must_use]
    pub fn default_three() -> Self {
        Self::new(vec![1.0, 2.0, 4.0])
    }

    /// The width table.
    #[must_use]
    pub fn widths(&self) -> &[f64] {
        &self.widths
    }

    /// Converts a result's `(node, width index)` choices into the
    /// [`EdgeWidths`] map the evaluators consume.
    ///
    /// # Panics
    ///
    /// Panics if a width index is out of the table's range.
    ///
    /// [`EdgeWidths`]: varbuf_rctree::elmore::EdgeWidths
    #[must_use]
    pub fn edge_widths(&self, choices: &[(NodeId, u8)]) -> varbuf_rctree::elmore::EdgeWidths {
        let mut out = varbuf_rctree::elmore::EdgeWidths::new();
        for &(node, wi) in choices {
            out.set(node, self.widths[wi as usize]);
        }
        out
    }
}

impl Default for WireSizing {
    fn default() -> Self {
        Self::single()
    }
}

/// Result of a statistical optimization.
#[derive(Debug, Clone)]
pub struct StatResult {
    /// The canonical form of the RAT at the source (driver delay
    /// included), ps.
    pub root_rat: CanonicalForm,
    /// The winning buffer placement.
    pub assignment: Vec<(NodeId, BufferTypeId)>,
    /// The winning non-default wire widths as `(edge's downstream node,
    /// width-table index)` — empty unless wire sizing was enabled.
    pub wire_widths: Vec<(NodeId, u8)>,
    /// Run instrumentation.
    pub stats: DpStats,
}

/// A governed run's outcome: the (possibly degraded) result plus the
/// structured report of every budget-driven relaxation.
#[derive(Debug, Clone)]
pub struct GovernedResult {
    /// The winning design — valid even when the run degraded.
    pub result: StatResult,
    /// What was relaxed to get there; `degraded() == false` means the
    /// run finished at full fidelity.
    pub degradation: Degradation,
}

/// Runs variation-aware buffer insertion with an explicit pruning rule.
///
/// `mode` selects which variation categories the solution forms carry
/// (D2D = random + inter-die, WID = + spatial).
///
/// # Errors
///
/// * [`InsertionError::InvalidTree`] / [`InsertionError::NoSinks`] for bad
///   inputs;
/// * [`InsertionError::CapacityExceeded`] /
///   [`InsertionError::TimeLimitExceeded`] when a quadratic rule (4P)
///   blows past the configured caps.
///
/// ```
/// use std::sync::Arc;
/// use varbuf_core::dp::{optimize_with_rule, DpOptions};
/// use varbuf_core::prune::TwoParam;
/// use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};
/// use varbuf_variation::{ProcessModel, SpatialKind, VariationMode};
///
/// # fn main() -> Result<(), varbuf_core::InsertionError> {
/// let tree = generate_benchmark(&BenchmarkSpec::random("demo", 24, 5));
/// let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
/// let result = optimize_with_rule(
///     &tree, &model, VariationMode::WithinDie, Arc::new(TwoParam::default()), &DpOptions::default())?;
/// assert!(result.root_rat.std_dev() > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn optimize_with_rule(
    tree: &RoutingTree,
    model: &ProcessModel,
    mode: VariationMode,
    rule: Arc<dyn PruningRule>,
    options: &DpOptions,
) -> Result<StatResult, InsertionError> {
    optimize_with_sizing(tree, model, mode, rule, &WireSizing::single(), options)
}

/// [`optimize_with_rule`] extended with simultaneous wire sizing: every
/// edge additionally chooses a width from `sizing`'s table, recorded in
/// [`StatResult::wire_widths`].
///
/// # Errors
///
/// Same as [`optimize_with_rule`]; the enlarged decision space multiplies
/// candidate counts by at most the width-table size per edge.
pub fn optimize_with_sizing(
    tree: &RoutingTree,
    model: &ProcessModel,
    mode: VariationMode,
    rule: Arc<dyn PruningRule>,
    sizing: &WireSizing,
    options: &DpOptions,
) -> Result<StatResult, InsertionError> {
    optimize_strict(tree, model, mode, rule, sizing, options).map(|g| g.result)
}

/// The strict run behind [`optimize_with_sizing`] and strict batch
/// requests: a [`Governor::strict`] over `rule` with the caps of
/// `options`, reported like a governed run (its [`Degradation`] names
/// the rule and is never degraded — a breach is an error instead).
pub(crate) fn optimize_strict(
    tree: &RoutingTree,
    model: &ProcessModel,
    mode: VariationMode,
    rule: Arc<dyn PruningRule>,
    sizing: &WireSizing,
    options: &DpOptions,
) -> Result<GovernedResult, InsertionError> {
    let mut governor = Governor::strict(
        Budget::strict(options.max_solutions_per_node, options.time_limit),
        rule,
        options.sparsify_epsilon,
    );
    let (result, _) = run_engine(
        tree,
        model,
        mode,
        sizing,
        options,
        &mut governor,
        None,
        None,
        None,
    )?;
    Ok(GovernedResult {
        result,
        degradation: governor.into_report(),
    })
}

/// The degradation cascade started from `primary`: the primary rule,
/// then (unless the primary is already a 2P variant) a thresholded 2P
/// rule, then plain mean dominance — each strictly cheaper than the
/// last.
#[must_use]
pub fn fallback_cascade(primary: Arc<dyn PruningRule>) -> Vec<Arc<dyn PruningRule>> {
    let primary_is_two_param = primary.name() == "2P";
    let mut cascade = vec![primary];
    if !primary_is_two_param {
        cascade.push(Arc::new(TwoParam::new(0.9, 0.9)) as Arc<dyn PruningRule>);
    }
    cascade.push(Arc::new(TwoParam::default()) as Arc<dyn PruningRule>);
    cascade
}

/// The pre-run combinatorial-blowup guard (see
/// [`DpOptions::guard_4p_sinks`]): rewrites `cascade` so a governed run
/// that would start under a cross-product rule on a known-intractable
/// tree starts under the first linear-merge fallback instead. Returns
/// the [`GuardedFallback`] note to attach to the run's report, or
/// `None` when the guard does not apply. Deterministic in the inputs,
/// so the incremental and cold paths substitute identically.
fn guard_cascade(
    tree: &RoutingTree,
    cascade: &mut Vec<Arc<dyn PruningRule>>,
    options: &DpOptions,
    budget: &Budget,
) -> Option<GuardedFallback> {
    let threshold = options.guard_4p_sinks;
    if threshold == 0 || cascade.is_empty() {
        return None;
    }
    if cascade[0].strategy() != MergeStrategy::CrossProduct {
        return None;
    }
    let sinks = tree.sink_count();
    if sinks <= threshold {
        return None;
    }
    // A finite solution or memory ceiling means the governor's own
    // ladder will catch the blowup (with full event reporting, which
    // the degradation suite pins down) — only the unconstrained case
    // has nothing between the caller and an `n·m` explosion.
    let unconstrained = budget.soft_solutions == usize::MAX
        && budget.hard_solutions == usize::MAX
        && budget.soft_mem_bytes == usize::MAX
        && budget.hard_mem_bytes == usize::MAX;
    if !unconstrained {
        return None;
    }
    let from = cascade[0].name().to_owned();
    while cascade.len() > 1 && cascade[0].strategy() == MergeStrategy::CrossProduct {
        cascade.remove(0);
    }
    if cascade[0].strategy() == MergeStrategy::CrossProduct {
        cascade[0] = Arc::new(TwoParam::default());
    }
    Some(GuardedFallback {
        from,
        to: cascade[0].name().to_owned(),
        sinks,
        threshold,
    })
}

/// Runs the DP under a degrading [`Governor`]: budget breaches relax the
/// run (rule fallback, epsilon tightening, list truncation, panic
/// completion) instead of aborting it, so even a pathological 4P run
/// returns a valid buffered design plus a [`Degradation`] report.
///
/// # Errors
///
/// Only [`InsertionError::InvalidTree`], [`InsertionError::NoSinks`], or
/// [`InsertionError::PoisonedSolutions`] (every candidate at some node
/// invalid — nothing valid to recover to). Resource pressure never errors.
pub fn optimize_governed(
    tree: &RoutingTree,
    model: &ProcessModel,
    mode: VariationMode,
    primary: Arc<dyn PruningRule>,
    options: &DpOptions,
    budget: &Budget,
) -> Result<GovernedResult, InsertionError> {
    optimize_governed_detailed(
        tree,
        model,
        mode,
        fallback_cascade(primary),
        &WireSizing::single(),
        options,
        budget,
        RunControls::default(),
    )
}

/// Per-run execution controls orthogonal to the optimization problem
/// itself: a replacement clock (fault injection skews it), a fault
/// injector mutating candidate lists, and the cooperative-cancellation
/// pair the service layer arms for every request — an external
/// [`CancelToken`] plus an optional watchdog deadline measured on the
/// governor's clock.
///
/// `RunControls::default()` is the plain batch run: real clock, no
/// faults, no cancellation.
#[derive(Default)]
pub struct RunControls<'a> {
    /// Replacement wall-clock source (`None` = real monotonic clock).
    pub clock: Option<Box<dyn Clock>>,
    /// Deterministic fault injector mutating candidate lists.
    pub faults: Option<&'a mut FaultInjector>,
    /// External cancellation token, polled at every time check.
    pub cancel: Option<CancelToken>,
    /// Watchdog deadline on the governor's clock; overrun cancels the
    /// run into best-so-far completion.
    pub watchdog: Option<Duration>,
}

impl RunControls<'_> {
    fn has_cancellation(&self) -> bool {
        self.cancel.is_some() || self.watchdog.is_some()
    }
}

/// [`optimize_governed`] with every knob exposed: an explicit fallback
/// cascade, wire sizing, and the [`RunControls`] for clock replacement,
/// fault injection, and cooperative cancellation.
///
/// # Errors
///
/// Same as [`optimize_governed`].
///
/// # Panics
///
/// Panics if `cascade` is empty.
#[allow(clippy::too_many_arguments)]
pub fn optimize_governed_detailed(
    tree: &RoutingTree,
    model: &ProcessModel,
    mode: VariationMode,
    cascade: Vec<Arc<dyn PruningRule>>,
    sizing: &WireSizing,
    options: &DpOptions,
    budget: &Budget,
    controls: RunControls<'_>,
) -> Result<GovernedResult, InsertionError> {
    run_governed(
        tree, model, mode, cascade, sizing, options, None, budget, controls, None,
    )
    .map(HierResult::into_governed)
}

/// [`optimize_governed_detailed`] with an epoch-scoped solution cache
/// and, when `hier` is set, the cut plan of
/// [`crate::hier::optimize_hier`]: nodes whose content signature still
/// matches a cached entry replay their list (a clone, re-admitted
/// through the governor so budget accounting stays coherent) and their
/// subtrees are never visited; only dirty nodes — the root path of the
/// session's edits — run the DP. Fresh lists are stored back under the
/// node's signature, after the splice at a cut node.
///
/// Cached replay stays byte-identical to a cold run because the cache
/// only feeds (and is only fed by) full-fidelity runs. A constraining
/// budget or a fault injector runs cold without touching the cache,
/// and a run that degraded, was cancelled, or errored flushes the
/// cache — its lists may be truncated best-so-far artifacts.
///
/// `sigs` must be current for `tree` (see
/// [`NodeSigs::update_path`](crate::cache::NodeSigs::update_path));
/// `run_sig` is the [`crate::cache::run_signature`] of the run-wide
/// inputs, `hier` included. `stats.cache_hits` counts the nodes covered
/// by replayed lists (whole clean subtrees); `stats.cache_misses` the
/// recomputed dirty nodes.
///
/// # Errors
///
/// Same as [`optimize_governed`].
///
/// # Panics
///
/// Panics if `cascade` is empty.
#[allow(clippy::too_many_arguments)]
pub fn optimize_incremental(
    tree: &RoutingTree,
    model: &ProcessModel,
    mode: VariationMode,
    cascade: Vec<Arc<dyn PruningRule>>,
    sizing: &WireSizing,
    options: &DpOptions,
    hier: Option<&HierOptions>,
    budget: &Budget,
    controls: RunControls<'_>,
    sigs: &NodeSigs,
    cache: &mut SolutionCache,
    run_sig: u64,
) -> Result<GovernedResult, InsertionError> {
    let memo = Memo {
        sigs,
        cache,
        run_sig,
    };
    run_governed(
        tree,
        model,
        mode,
        cascade,
        sizing,
        options,
        hier,
        budget,
        controls,
        Some(memo),
    )
    .map(HierResult::into_governed)
}

/// The governed run behind every degrading entry point: the
/// [`guard_cascade`] substitution, a degrading [`Governor`] over the
/// resulting cascade with the controls' cancellation pair and clock,
/// then [`run_engine`] with the optional memo and cut plan. The memo is
/// dropped for fault-injected or budget-constrained runs, and flushed
/// when the run errors or degrades.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_governed(
    tree: &RoutingTree,
    model: &ProcessModel,
    mode: VariationMode,
    mut cascade: Vec<Arc<dyn PruningRule>>,
    sizing: &WireSizing,
    options: &DpOptions,
    hier: Option<&HierOptions>,
    budget: &Budget,
    controls: RunControls<'_>,
    memo: Option<Memo<'_>>,
) -> Result<HierResult, InsertionError> {
    let guard = guard_cascade(tree, &mut cascade, options, budget);
    let mut governor = Governor::governed(*budget, cascade, options.sparsify_epsilon);
    if controls.has_cancellation() {
        governor =
            governor.with_cancellation(controls.cancel.unwrap_or_default(), controls.watchdog);
    }
    if let Some(c) = controls.clock {
        governor = governor.with_clock(c);
    }
    // Degradable or fault-injected lists are not the unconstrained
    // fixpoint, so those runs neither consume nor produce cache entries.
    let mut memo = memo.filter(|_| controls.faults.is_none() && !budget.constrains_run());
    let run = run_engine(
        tree,
        model,
        mode,
        sizing,
        options,
        &mut governor,
        controls.faults,
        memo.as_mut(),
        hier,
    )
    .map(|(mut result, hier)| {
        let mut degradation = governor.into_report();
        degradation.guard = guard;
        result.stats.rule_fallbacks = degradation.rule_fallbacks();
        result.stats.epsilon_tightenings = degradation.epsilon_tightenings();
        result.stats.list_truncations = degradation.truncations();
        result.stats.poisoned_dropped = degradation.poisoned_dropped();
        result.stats.panic_completion = degradation.panic_completion;
        HierResult {
            result,
            degradation,
            hier,
        }
    });
    // An errored, cancelled or degraded run may have stored best-so-far
    // lists; they are not the fixpoint, so nothing of it survives.
    if run.as_ref().map_or(true, |r| r.degradation.degraded()) {
        if let Some(m) = memo {
            m.cache.clear();
        }
    }
    run
}

/// An incremental run's memo: the session's node signatures and
/// solution cache, valid under one run signature.
pub(crate) struct Memo<'m> {
    pub(crate) sigs: &'m NodeSigs,
    pub(crate) cache: &'m mut SolutionCache,
    pub(crate) run_sig: u64,
}

/// Control-flow signal inside the engine: a typed error to surface to
/// the caller, or *pressure* — the speculative parallel phase detected
/// that the governor would have to degrade, so the whole run must be
/// redone sequentially under the real governor (see [`crate::pool`]).
pub(crate) enum EngineInterrupt {
    /// A hard failure the caller sees as-is.
    Error(InsertionError),
    /// Raised only by the parallel probe; never escapes `run_engine`.
    Pressure,
}

impl From<InsertionError> for EngineInterrupt {
    fn from(e: InsertionError) -> Self {
        EngineInterrupt::Error(e)
    }
}

impl EngineInterrupt {
    fn into_error(self) -> InsertionError {
        match self {
            EngineInterrupt::Error(e) => e,
            EngineInterrupt::Pressure => {
                unreachable!("pressure is raised only by the parallel probe")
            }
        }
    }
}

/// The DP's resource-policy interface. The sequential engine wires it
/// straight to the [`Governor`]; the parallel engine substitutes a
/// frozen probe that never mutates the caller's governor and raises
/// [`EngineInterrupt::Pressure`] the moment a degradation *would*
/// happen ([`crate::pool`]).
pub(crate) trait Supervisor {
    /// The active pruning rule. Cheap; fetch again after any call that
    /// may have advanced the fallback cascade.
    fn rule(&self) -> Arc<dyn PruningRule>;
    /// Current epsilon-sparsification level.
    fn epsilon(&self) -> f64;
    /// Whether integrity screening (sanitize + re-admission) applies.
    fn is_governed(&self) -> bool;
    /// Whether panic completion is engaged.
    fn panicking(&self) -> bool;
    /// Wall-clock policy check.
    fn check_time(&mut self) -> Result<(), EngineInterrupt>;
    /// Offers a candidate count (materialized or about to be).
    fn admit(&mut self, node: NodeId, solutions: usize) -> Result<Admission, EngineInterrupt>;
    /// Drops non-finite candidates per the governor's integrity policy.
    fn sanitize(
        &mut self,
        node: NodeId,
        sols: &mut Vec<StatSolution>,
    ) -> Result<(), EngineInterrupt>;
    /// Live-memory accounting after a list is stored/freed.
    fn note_memory(&mut self, stored: &[StatSolution], freed: usize);
}

/// The sequential supervisor is the governor itself, so the engine
/// makes exactly the call sequence the degradation tests pin down.
impl Supervisor for Governor {
    fn rule(&self) -> Arc<dyn PruningRule> {
        self.active_rule()
    }

    fn epsilon(&self) -> f64 {
        Governor::epsilon(self)
    }

    fn is_governed(&self) -> bool {
        Governor::is_governed(self)
    }

    fn panicking(&self) -> bool {
        Governor::panicking(self)
    }

    fn check_time(&mut self) -> Result<(), EngineInterrupt> {
        Governor::check_time(self).map_err(Into::into)
    }

    fn admit(&mut self, node: NodeId, solutions: usize) -> Result<Admission, EngineInterrupt> {
        Governor::admit(self, node, solutions).map_err(Into::into)
    }

    fn sanitize(
        &mut self,
        node: NodeId,
        sols: &mut Vec<StatSolution>,
    ) -> Result<(), EngineInterrupt> {
        Governor::sanitize(self, node, sols).map_err(Into::into)
    }

    fn note_memory(&mut self, stored: &[StatSolution], freed: usize) {
        Governor::note_memory(self, stored, freed);
    }
}

/// Immutable per-run context: the run's inputs plus the lazy-wire
/// switch, shared read-only by the sequential loop and every pool
/// worker. Per-node values are computed where the walk uses them — each
/// wire segment at its lift, each candidate's device forms in its
/// buffering arm, into the worker's [`SolPool`] scratch — so a run pays
/// only for what it reads and holds nothing per node.
pub(crate) struct RunCtx<'a> {
    pub(crate) tree: &'a RoutingTree,
    pub(crate) model: &'a ProcessModel,
    pub(crate) mode: VariationMode,
    pub(crate) sizing: &'a WireSizing,
    /// Whether lazy wire propagation is armed for this run (see
    /// [`DpOptions::use_lazy_wire`] for the arming conditions). Shared by
    /// the parallel workers and the sequential engine.
    pub(crate) lazy: bool,
}

impl<'a> RunCtx<'a> {
    /// Collects the run's inputs and arms lazy wire propagation for a
    /// run under `governor`, with a fault injector when `faults` is set.
    pub(crate) fn new(
        tree: &'a RoutingTree,
        model: &'a ProcessModel,
        mode: VariationMode,
        sizing: &'a WireSizing,
        options: &DpOptions,
        governor: &Governor,
        faults: bool,
    ) -> Self {
        Self {
            tree,
            model,
            mode,
            sizing,
            // A degradable run keeps eager wire (pending-aware
            // footprints would shift its degradation schedule's memory
            // estimates), and so does a fault-injected one, so injected
            // lists keep their eager shape.
            lazy: options.use_lazy_wire
                && !(governor.is_governed() && governor.budget().constrains_run())
                && !faults,
        }
    }

    /// The RC segment of the edge above `node` scaled to width `wi`.
    pub(crate) fn segment(&self, node: NodeId, wi: usize) -> WireSegment {
        let w = self.sizing.widths()[wi];
        let mut seg = self.tree.wire().segment(self.tree.node(node).edge_length);
        seg.resistance /= w;
        seg.capacitance *= w;
        seg
    }
}

/// One worker's device-form scratch: the candidate site being buffered
/// and its `(C_b, T_b)` pair per buffer type, rewritten in place at
/// every candidate.
#[derive(Default)]
struct DeviceScratch {
    site: DeviceSite,
    forms: Vec<(CanonicalForm, CanonicalForm)>,
}

impl DeviceScratch {
    /// Writes candidate `id`'s forms (one taper scan, one writer call per
    /// buffer type) and returns them indexed by buffer-type id.
    fn write(&mut self, ctx: &RunCtx<'_>, id: NodeId) -> &[(CanonicalForm, CanonicalForm)] {
        let model = ctx.model;
        model.device_site(id, ctx.tree.node(id).location, ctx.mode, &mut self.site);
        self.forms
            .resize_with(model.library().len(), Default::default);
        for (ty, _) in model.library().iter() {
            model.device_forms_into(&self.site, ty, &mut self.forms[ty.0]);
        }
        &self.forms
    }
}

/// Recycles the engine's transient allocations: candidate-list `Vec`s,
/// the solution carcasses inside them (term vectors keep their
/// capacity), the batched-key prune scratch, the sorted-merge key
/// buffers and the buffering arm's device forms. One pool per worker —
/// never shared.
#[derive(Default)]
pub(crate) struct SolPool {
    lists: Vec<Vec<StatSolution>>,
    sols: Vec<StatSolution>,
    pub(crate) scratch: PruneScratch,
    merge_keys: (Vec<f64>, Vec<f64>),
    device: DeviceScratch,
}

impl SolPool {
    /// Spare list allocations to hold; beyond this, freed lists really
    /// are freed so the pool cannot turn into a leak.
    const KEEP: usize = 8;
    /// Spare solution carcasses to hold. A recycled carcass keeps its
    /// two term buffers and — until its next reuse overwrites it — a
    /// stale trace `Arc`; both are bounded by this constant, so the
    /// pool pins at most a few hundred retired traces while turning the
    /// steady-state node visit allocation-free.
    const KEEP_SOLS: usize = 256;

    fn take(&mut self, capacity: usize) -> Vec<StatSolution> {
        match self.lists.pop() {
            Some(mut v) => {
                v.reserve(capacity);
                v
            }
            None => Vec::with_capacity(capacity),
        }
    }

    fn put(&mut self, mut v: Vec<StatSolution>) {
        if self.sols.len() < Self::KEEP_SOLS {
            let room = Self::KEEP_SOLS - self.sols.len();
            let keep = v.len().min(room);
            self.sols.extend(v.drain(..keep));
        }
        v.clear();
        if self.lists.len() < Self::KEEP && v.capacity() > 0 {
            self.lists.push(v);
        }
    }

    /// A recycled solution carcass (or a fresh empty one): the caller
    /// must overwrite load, RAT, trace *and* `wire_pending` before the
    /// solution is read — every `_into` kernel writes all four, so a
    /// carcass retiring with deferred wire coupling still pending cannot
    /// leak it into its next life.
    fn take_sol(&mut self) -> StatSolution {
        self.sols.pop().unwrap_or_else(|| {
            StatSolution::new(CanonicalForm::constant(0.0), CanonicalForm::constant(0.0))
        })
    }

    /// Reclaims the carcasses the last keyed prune eliminated (up to
    /// [`Self::KEEP_SOLS`]; the surplus is freed). Called after every
    /// prune so dominated solutions feed the next node's `take_sol`
    /// instead of round-tripping through the allocator.
    fn reclaim_pruned(&mut self) {
        let room = Self::KEEP_SOLS.saturating_sub(self.sols.len());
        self.sols.extend(self.scratch.drain_retired().take(room));
    }
}

/// The shared DP engine behind every entry point. Every resource
/// decision is delegated to `governor`. A run with no fault injector,
/// no memo and no cuts first tries the speculative parallel phase when
/// [`DpOptions::jobs`] > 1 (see [`crate::pool`]); [`walk`] is the
/// authoritative sequential engine. Returns the design plus the
/// decomposition report (zero unless `hier` produced cuts).
#[allow(clippy::too_many_arguments)]
fn run_engine(
    tree: &RoutingTree,
    model: &ProcessModel,
    mode: VariationMode,
    sizing: &WireSizing,
    options: &DpOptions,
    governor: &mut Governor,
    faults: Option<&mut FaultInjector>,
    memo: Option<&mut Memo<'_>>,
    hier: Option<&HierOptions>,
) -> Result<(StatResult, HierReport), InsertionError> {
    tree.validate()?;
    if tree.sink_count() == 0 {
        return Err(InsertionError::NoSinks);
    }
    if memo.as_ref().is_some_and(|m| m.sigs.len() != tree.len()) {
        return Err(InsertionError::InvalidTree(
            varbuf_rctree::TreeError::Unreachable(tree.root()),
        ));
    }

    let ctx = RunCtx::new(
        tree,
        model,
        mode,
        sizing,
        options,
        governor,
        faults.is_some(),
    );
    let mut cuts = hier.and_then(|h| Cuts::plan(tree, h));

    // Speculative parallel phase: `None` means ineligible or aborted on
    // pressure — fall through to the walk with the governor untouched,
    // so results stay bit-identical.
    let parallel = if faults.is_none() && memo.is_none() && cuts.is_none() {
        crate::pool::try_parallel_tree(&ctx, options, governor)
    } else {
        None
    };
    let (mut root_list, mut stats) = match parallel {
        Some(outcome) => outcome?,
        None => walk(&ctx, governor, faults, memo, cuts.as_mut())
            .map_err(EngineInterrupt::into_error)?,
    };
    stats.runtime = governor.elapsed();
    stats.jobs_requested = options.jobs.max(1);
    let report = match cuts {
        Some(c) => c.report(governor.peak_chunk_bytes()),
        None => HierReport {
            final_frontier_cap: hier.map_or(0, |h| h.frontier_cap),
            ..HierReport::default()
        },
    };
    Ok((select_winner(tree, options, &mut root_list, stats), report))
}

/// The engine's one sequential walk. It visits `tree` in
/// [`RoutingTree::postorder`] order (last child first) — the order the
/// parallel phase's smallest-position error rule assumes — and runs
/// [`process_node`] at each node, pushing the node's list on a stack of
/// finished lists. Children finish last-first, so a parent pops its
/// children's lists in child order, and the walk holds one list per
/// finished subtree whose parent is still open, not a slot per node.
/// With a memo, a signature hit replays the cached list instead and
/// skips the whole subtree, so a warm run visits only the dirty path; a
/// miss stores its fresh list back. With cuts, a cut node's list is
/// spliced before it is stored and stays parked on the stack. Returns
/// the root's list and the run's counters.
fn walk(
    ctx: &RunCtx<'_>,
    governor: &mut Governor,
    mut faults: Option<&mut FaultInjector>,
    mut memo: Option<&mut Memo<'_>>,
    mut cuts: Option<&mut Cuts>,
) -> Result<(Vec<StatSolution>, DpStats), EngineInterrupt> {
    let tree = ctx.tree;
    let mut stats = DpStats::default();
    let mut done: Vec<Vec<StatSolution>> = Vec::new();
    let mut pool = SolPool::default();
    if let Some(m) = memo.as_deref_mut() {
        m.cache.begin_run(m.run_sig, tree.len());
    }
    // `(node, children done)`: a node goes back on the stack below its
    // children, pushed in child order so the last child pops first.
    let mut stack = vec![(tree.root(), false)];
    while let Some((id, expanded)) = stack.pop() {
        let cached = if expanded {
            None
        } else {
            memo.as_deref()
                .and_then(|m| m.cache.lookup(id, m.sigs.get(id)))
        };
        let sols = if let Some(cached) = cached {
            governor.check_time()?;
            let mut list = pool.take(cached.len());
            list.extend(cached.iter().cloned());
            admit_list(governor, id, &mut list, &mut pool, &mut stats)?;
            governor.note_memory(&list, 0);
            stats.max_solutions_per_node = stats.max_solutions_per_node.max(list.len());
            list
        } else if !expanded {
            stack.push((id, true));
            stack.extend(tree.node(id).children.iter().map(|&c| (c, false)));
            continue;
        } else {
            let children: Vec<Vec<StatSolution>> = tree
                .node(id)
                .children
                .iter()
                .map(|&c| {
                    let list = done.pop().expect("a child finishes before its parent");
                    if let Some(cuts) = cuts.as_deref_mut() {
                        cuts.release(c, &list);
                    }
                    list
                })
                .collect();
            let mut sols = process_node(
                ctx,
                governor,
                id,
                children,
                faults.as_deref_mut(),
                &mut pool,
                &mut stats,
            )?;
            if let Some(cuts) = cuts.as_deref_mut() {
                cuts.splice(governor, id, &mut sols, &mut stats);
            }
            if let Some(m) = memo.as_deref_mut() {
                m.cache.store(id, m.sigs.get(id), &sols);
            }
            sols
        };
        if let Some(cuts) = cuts.as_deref_mut() {
            cuts.park(governor, id, &sols);
        }
        done.push(sols);
    }
    if memo.is_some() {
        stats.cache_misses = stats.nodes_processed;
        stats.cache_hits = tree.len() - stats.nodes_processed;
    }
    stats.jobs_effective = 1;
    let root_list = done.pop().expect("the root finishes last");
    debug_assert!(done.is_empty(), "every other list was taken by its parent");
    Ok((root_list, stats))
}

/// One node of the DP, shared verbatim by the sequential and parallel
/// engines: builds the node's base list from its children (taken as
/// owned lists in fixed child order), offers buffers, and applies the
/// supervisor's admission/integrity policy. Returns the node's
/// surviving candidate list.
///
/// The hot path is allocation-free in steady state: wire segments are
/// computed at the lift, device forms are written into the worker's
/// [`SolPool`] scratch, new solutions are recycled carcasses from the
/// same pool, and pruning runs over the pool's batched-key scratch.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub(crate) fn process_node<S: Supervisor>(
    ctx: &RunCtx<'_>,
    sup: &mut S,
    id: NodeId,
    mut children: Vec<Vec<StatSolution>>,
    faults: Option<&mut FaultInjector>,
    pool: &mut SolPool,
    stats: &mut DpStats,
) -> Result<Vec<StatSolution>, EngineInterrupt> {
    sup.check_time()?;
    let node = ctx.tree.node(id);
    stats.nodes_processed += 1;

    // 1. Base list for the subtree seen at this node.
    let mut sols: Vec<StatSolution> = match node.kind {
        NodeKind::Sink {
            capacitance,
            required_arrival,
        } => vec![StatSolution::new(
            CanonicalForm::constant(capacitance),
            CanonicalForm::constant(required_arrival),
        )],
        NodeKind::Internal | NodeKind::Source { .. } => {
            let mut acc: Option<Vec<StatSolution>> = None;
            for (slot, &c) in node.children.iter().enumerate() {
                let child_list = std::mem::take(&mut children[slot]);
                let widths = ctx.sizing.widths().len();
                let record_width = widths > 1;
                let t_lift = Instant::now();
                let mut lifted = if widths == 1 {
                    // Single-width lift: the child list is consumed by this
                    // edge, so each solution is extended where it sits —
                    // the in-place kernel is bitwise identical to the
                    // copying one, and the trace Arc stays untouched. The
                    // freed estimate is taken before the extension so the
                    // governor sees the same numbers as the copying path.
                    let freed: usize = child_list.iter().map(solution_footprint).sum();
                    let mut lifted = child_list;
                    let seg = &ctx.segment(c, 0);
                    if ctx.lazy {
                        // Deferred: fold the segment's mean effects in
                        // eagerly (bitwise the eager kernel's nominal
                        // path) and bank its resistance; the O(terms)
                        // coupling and the epsilon pass run once at the
                        // next materialization point.
                        for s in &mut lifted {
                            wire_defer_stat_in_place(s, seg);
                        }
                    } else {
                        for s in &mut lifted {
                            wire_extend_stat_in_place(s, seg);
                            sparsify(s, sup.epsilon());
                        }
                    }
                    stats.wire_time += t_lift.elapsed();
                    sup.note_memory(&[], freed);
                    lifted
                } else {
                    let mut lifted = pool.take(child_list.len() * widths);
                    for s in &child_list {
                        for wi in 0..widths {
                            let mut out = pool.take_sol();
                            if ctx.lazy {
                                wire_defer_stat_into(&mut out, s, &ctx.segment(c, wi));
                            } else {
                                wire_extend_stat_into(&mut out, s, &ctx.segment(c, wi));
                                sparsify(&mut out, sup.epsilon());
                            }
                            if record_width {
                                // `out.trace` is a clone of `s.trace`, and
                                // a field cannot be moved out of the box.
                                out.trace = crate::trace::Trace::wire(c, wi as u8, s.trace.clone());
                            }
                            lifted.push(out);
                        }
                    }
                    stats.wire_time += t_lift.elapsed();
                    let freed: usize = child_list.iter().map(solution_footprint).sum();
                    pool.put(child_list);
                    sup.note_memory(&[], freed);
                    lifted
                };
                stats.solutions_generated += lifted.len();
                // Mean-keyed rules prune on nominals alone, which lazy
                // extension keeps bit-identical to eager (deferral only
                // touches the RAT's sensitivity terms) — so their keyed
                // sweep runs on pending solutions as-is. Any rule whose
                // keys read the terms (percentile keys, and every
                // CrossProduct dominance check) gets the list
                // materialized first, which also makes those rules'
                // whole runs byte-identical to eager.
                if ctx.lazy {
                    let term_keyed = {
                        let rule = sup.rule();
                        !rule.mean_keys() || rule.strategy() == MergeStrategy::CrossProduct
                    };
                    if term_keyed {
                        materialize_list(&mut lifted, sup.epsilon(), stats);
                    }
                }
                let before = lifted.len();
                let t_prune = Instant::now();
                prune_solutions_keyed(&*sup.rule(), &mut lifted, &mut pool.scratch);
                pool.reclaim_pruned();
                stats.prune_time += t_prune.elapsed();
                stats.solutions_pruned += before - lifted.len();
                stats.pruned_by_dominance += before - lifted.len();

                acc = Some(match acc {
                    None => lifted,
                    Some(prev) => merge_lists(ctx, sup, prev, lifted, id, pool, stats)?,
                });
                if let Some(list) = acc.as_mut() {
                    admit_list(sup, id, list, pool, stats)?;
                }
            }
            acc.expect("validated internal nodes have children")
        }
    };

    // 2. Offer a buffer at legal positions.
    if node.is_candidate {
        sup.check_time()?;
        let t_buf = Instant::now();
        let mut buffered = pool.take(0);
        // Moved out for the arm, so `take_sol` can borrow the pool while
        // the forms are read.
        let mut device = std::mem::take(&mut pool.device);
        {
            let rule = sup.rule();
            let forms = device.write(ctx, id);
            for (ty, bt) in ctx.model.library().iter() {
                let (cap_form, delay_form) = &forms[ty.0];
                let resistance = bt.resistance;
                let max_load = bt.max_load;
                let drivable = |s: &&StatSolution| max_load.is_none_or(|m| s.load_mean() <= m);
                match rule.strategy() {
                    MergeStrategy::SortedLinear => {
                        // All buffered options share the load form, so only
                        // the best RAT (by the rule's scalar key) survives:
                        // generate just that one. Index-based so the winner
                        // can be materialized in place below; the keys are
                        // means, which deferral never perturbs.
                        let best_idx = sols
                            .iter()
                            .enumerate()
                            .filter(|(_, s)| drivable(s))
                            .max_by(|(_, a), (_, b)| {
                                let ka = a.rat_mean() - resistance * a.load_mean();
                                let kb = b.rat_mean() - resistance * b.load_mean();
                                ka.total_cmp(&kb)
                            })
                            .map(|(i, _)| i);
                        if let Some(bi) = best_idx {
                            if ctx.lazy {
                                // The buffer kernel reads the partner's RAT
                                // terms: land its deferred coupling first.
                                // The argmax key above is a mean, so the
                                // choice does not move; the cost stays
                                // inside this arm's `buffer_time` window.
                                materialize_solution(&mut sols[bi], sup.epsilon());
                            }
                            let mut s = pool.take_sol();
                            buffer_extend_stat_into(
                                &mut s, &sols[bi], cap_form, delay_form, resistance, id, ty,
                            );
                            sparsify(&mut s, sup.epsilon());
                            buffered.push(s);
                            stats.solutions_generated += 1;
                        }
                    }
                    MergeStrategy::CrossProduct => {
                        // A partial order may keep several incomparable
                        // buffered options alive: generate them all.
                        for s in sols.iter().filter(drivable) {
                            let mut b = pool.take_sol();
                            buffer_extend_stat_into(
                                &mut b, s, cap_form, delay_form, resistance, id, ty,
                            );
                            sparsify(&mut b, sup.epsilon());
                            buffered.push(b);
                            stats.solutions_generated += 1;
                        }
                    }
                }
            }
        }
        pool.device = device;
        sols.append(&mut buffered);
        pool.put(buffered);
        stats.buffer_time += t_buf.elapsed();
        admit_list(sup, id, &mut sols, pool, stats)?;
        let before = sols.len();
        prune_full(sup, &mut sols, pool, stats)?;
        stats.solutions_pruned += before - sols.len();
        stats.pruned_by_dominance += before - sols.len();
    }

    // 3. Fault-injection hook, then integrity screening.
    if let Some(inj) = faults {
        inj.on_node(id, &mut sols);
    }
    if sup.is_governed() {
        sup.sanitize(id, &mut sols)?;
        admit_list(sup, id, &mut sols, pool, stats)?;
    }
    if sup.panicking() {
        keep_best(&*sup.rule(), &mut sols);
    }

    sup.note_memory(&sols, 0);
    stats.max_solutions_per_node = stats.max_solutions_per_node.max(sols.len());
    Ok(sols)
}

/// Driver step and winner selection at the root (by the configured
/// root-selection key).
///
/// Takes the list mutably: any deferred wire transforms still pending on
/// root candidates are materialized (and epsilon-sparsified) here, since
/// both the selection key's σ and the reported root RAT read the terms.
fn select_winner(
    tree: &RoutingTree,
    options: &DpOptions,
    root_list: &mut [StatSolution],
    mut stats: DpStats,
) -> StatResult {
    materialize_list(root_list, options.sparsify_epsilon, &mut stats);
    let root = tree.root();
    let driver_res = match tree.node(root).kind {
        NodeKind::Source { driver_resistance } => driver_resistance,
        _ => unreachable!("validated root is a source"),
    };
    // Each candidate's driver form and key are built once. A later
    // candidate whose key ties the best so far replaces it: the rule of
    // `Iterator::max_by`, under which the last of equal maxima wins.
    let mut best: Option<(f64, CanonicalForm, &StatSolution)> = None;
    for s in root_list.iter() {
        let rat = driver_rat_stat(s, driver_res);
        let key = options.root_selection.key(&rat);
        if best.as_ref().is_none_or(|(k, ..)| key.total_cmp(k).is_ge()) {
            best = Some((key, rat, s));
        }
    }
    let (_, root_rat, winner) = best.expect("at least one candidate always survives");
    let (assignment, wire_widths) = winner.trace.decisions();
    StatResult {
        root_rat,
        assignment,
        wire_widths,
        stats,
    }
}

fn sparsify(s: &mut StatSolution, epsilon: f64) {
    if epsilon > 0.0 {
        s.load.sparsify(epsilon);
        s.rat.sparsify(epsilon);
    }
}

/// Lands one solution's deferred wire coupling and runs the single
/// deferred epsilon pass over the result. No-op when nothing is pending,
/// so mixed lists (some entries already consumed by a merge or buffer)
/// cost one float compare per settled entry.
fn materialize_solution(s: &mut StatSolution, epsilon: f64) {
    if s.wire_pending != 0.0 {
        materialize_wire_stat(s);
        sparsify(s, epsilon);
    }
}

/// Materializes a whole list, charging the pass to
/// [`DpStats::wire_time`] — it is wire work that lazy extension moved
/// out of the lift loop, not merge or prune work.
pub(crate) fn materialize_list(sols: &mut [StatSolution], epsilon: f64, stats: &mut DpStats) {
    if sols.iter().any(|s| s.wire_pending != 0.0) {
        let t = Instant::now();
        for s in sols.iter_mut() {
            materialize_solution(s, epsilon);
        }
        stats.wire_time += t.elapsed();
    }
}

/// Offers a node's candidate list to the supervisor, applying whatever
/// the verdict requires (re-prune under a fallback rule, spread-
/// preserving truncation) until the list is admitted.
fn admit_list<S: Supervisor>(
    sup: &mut S,
    node: NodeId,
    sols: &mut Vec<StatSolution>,
    pool: &mut SolPool,
    stats: &mut DpStats,
) -> Result<(), EngineInterrupt> {
    loop {
        match sup.admit(node, sols.len())? {
            Admission::Ok => return Ok(()),
            Admission::Reprune => {
                let before = sols.len();
                let t = Instant::now();
                prune_solutions_keyed(&*sup.rule(), sols, &mut pool.scratch);
                pool.reclaim_pruned();
                stats.prune_time += t.elapsed();
                stats.solutions_pruned += before - sols.len();
                stats.pruned_by_dominance += before - sols.len();
            }
            Admission::Truncate(n) => {
                if sols.len() <= n {
                    // Nothing left to cut; accept as-is rather than spin.
                    return Ok(());
                }
                let before = sols.len();
                let t = Instant::now();
                truncate_spread(&*sup.rule(), sols, n);
                stats.prune_time += t.elapsed();
                stats.solutions_pruned += before - sols.len();
            }
        }
    }
}

/// Merges two candidate lists at a branch node.
#[allow(clippy::too_many_arguments)]
fn merge_lists<S: Supervisor>(
    ctx: &RunCtx<'_>,
    sup: &mut S,
    mut a: Vec<StatSolution>,
    mut b: Vec<StatSolution>,
    node: NodeId,
    pool: &mut SolPool,
    stats: &mut DpStats,
) -> Result<Vec<StatSolution>, EngineInterrupt> {
    if a.is_empty() || b.is_empty() {
        // The surviving list keeps its pending transforms; they ride on
        // to the next materialization point untouched.
        return Ok(if a.is_empty() { b } else { a });
    }
    // A merge adds the operands' RAT *forms* (terms included), so any
    // deferred wire coupling must land first. This is one of the three
    // places lazy runs pay the O(terms) wire cost — the others are the
    // buffering arm and winner selection.
    if ctx.lazy {
        materialize_list(&mut a, sup.epsilon(), stats);
        materialize_list(&mut b, sup.epsilon(), stats);
    }
    // Admission may switch the rule (re-prune and retry with a linear
    // merge) or shrink the operands; `forced` breaks the loop if a
    // truncation could not shrink them further.
    let mut forced = false;
    let mut merged = loop {
        let rule = sup.rule();
        match rule.strategy() {
            MergeStrategy::SortedLinear => {
                // Figure 1: both lists sorted ascending in (load key, RAT key);
                // walk both, advancing the side whose RAT constrains the min.
                // Each side's RAT keys are computed once up front (the same
                // deterministic values `rat_key` returns per comparison, so
                // the walk is bit-identical) into recycled buffers.
                let t = Instant::now();
                let (mut ka, mut kb) = std::mem::take(&mut pool.merge_keys);
                ka.clear();
                ka.extend(a.iter().map(|s| rule.rat_key(s)));
                kb.clear();
                kb.extend(b.iter().map(|s| rule.rat_key(s)));
                let mut out = pool.take(a.len() + b.len());
                let (mut i, mut j) = (0, 0);
                loop {
                    let mut m = pool.take_sol();
                    merge_pair_stat_into(&mut m, &a[i], &b[j]);
                    out.push(m);
                    stats.solutions_generated += 1;
                    match ka[i].total_cmp(&kb[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            i += 1;
                            j += 1;
                        }
                    }
                    if i >= a.len() || j >= b.len() {
                        break;
                    }
                }
                pool.merge_keys = (ka, kb);
                stats.merge_time += t.elapsed();
                break out;
            }
            MergeStrategy::CrossProduct => {
                // The 4P price: all n·m combinations — ask before paying.
                let needed = a.len().saturating_mul(b.len());
                let admission = if forced {
                    Admission::Ok
                } else {
                    sup.admit(node, needed)?
                };
                match admission {
                    Admission::Ok => {
                        let t = Instant::now();
                        let mut out = pool.take(0);
                        'rows: for sa in &a {
                            sup.check_time()?;
                            if sup.panicking() {
                                // A hard breach mid-merge: the pairs formed so
                                // far are valid candidates; stop generating.
                                break 'rows;
                            }
                            // Grow one row at a time (amortized) instead of
                            // reserving the full n·m up front, so a panic-
                            // completion bail doesn't pay for rows it never
                            // materializes.
                            out.reserve(b.len());
                            for sb in &b {
                                let mut m = pool.take_sol();
                                merge_pair_stat_into(&mut m, sa, sb);
                                out.push(m);
                            }
                        }
                        stats.solutions_generated += out.len();
                        stats.merge_time += t.elapsed();
                        break out;
                    }
                    Admission::Reprune => {
                        let before = a.len() + b.len();
                        let t = Instant::now();
                        let next = sup.rule();
                        prune_solutions_keyed(&*next, &mut a, &mut pool.scratch);
                        pool.reclaim_pruned();
                        prune_solutions_keyed(&*next, &mut b, &mut pool.scratch);
                        pool.reclaim_pruned();
                        stats.prune_time += t.elapsed();
                        stats.solutions_pruned += before - a.len() - b.len();
                        stats.pruned_by_dominance += before - a.len() - b.len();
                    }
                    Admission::Truncate(n) => {
                        // Shrink both operands toward √n each.
                        let keep = ((n as f64).sqrt().floor() as usize).max(1);
                        if a.len() <= keep && b.len() <= keep {
                            forced = true;
                            continue;
                        }
                        let before = a.len() + b.len();
                        let t = Instant::now();
                        truncate_spread(&*rule, &mut a, keep);
                        truncate_spread(&*rule, &mut b, keep);
                        stats.prune_time += t.elapsed();
                        stats.solutions_pruned += before - a.len() - b.len();
                    }
                }
            }
        }
    };
    pool.put(a);
    pool.put(b);
    let before = merged.len();
    prune_full(sup, &mut merged, pool, stats)?;
    stats.solutions_pruned += before - merged.len();
    stats.pruned_by_dominance += before - merged.len();
    Ok(merged)
}

/// Pruning with the engine's wall-clock limit enforced *inside* the
/// quadratic cross-product sweep, every 256 rows: an `O(N²)` prune on a
/// six-figure candidate list can otherwise outlive any between-node time
/// check. Under panic completion the sweep bails early: a superset of
/// the non-dominated set is still valid, and the node-level reduction
/// keeps one candidate anyway. In-place, over the worker's [`SolPool`]
/// scratch.
fn prune_full<S: Supervisor>(
    sup: &mut S,
    sols: &mut Vec<StatSolution>,
    pool: &mut SolPool,
    stats: &mut DpStats,
) -> Result<(), EngineInterrupt> {
    let rule = sup.rule();
    let t = Instant::now();
    prune_solutions_polled(&*rule, sols, &mut pool.scratch, || {
        sup.check_time().map(|()| sup.panicking())
    })?;
    pool.reclaim_pruned();
    stats.prune_time += t.elapsed();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det::optimize_deterministic;
    use crate::prune::{FourParam, OneParam, TwoParam};
    use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};
    use varbuf_variation::{BufferLibrary, SpatialKind, VariationBudgets};

    fn model_for(tree: &RoutingTree) -> ProcessModel {
        ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous)
    }

    #[test]
    fn two_param_runs_and_carries_variance() {
        let tree = generate_benchmark(&BenchmarkSpec::random("dp", 48, 3));
        let model = model_for(&tree);
        let r = optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &DpOptions::default(),
        )
        .expect("optimize");
        assert!(r.root_rat.std_dev() > 0.0, "WID RAT must be random");
        assert!(!r.assignment.is_empty());
        assert_eq!(r.stats.nodes_processed, tree.len());
    }

    #[test]
    fn zero_budget_statistical_matches_deterministic() {
        // With all budgets at zero the statistical DP must reproduce the
        // deterministic optimum exactly.
        let tree = generate_benchmark(&BenchmarkSpec::random("dp0", 40, 8));
        let library = BufferLibrary::default_65nm();
        let zero = ProcessModel::new(
            tree.bounding_box(),
            SpatialKind::Homogeneous,
            VariationBudgets::zero(),
            library.clone(),
        );
        let stat = optimize_with_rule(
            &tree,
            &zero,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &DpOptions::default(),
        )
        .expect("stat");
        let det = optimize_deterministic(&tree, &library).expect("det");
        assert!(
            (stat.root_rat.mean() - det.root_rat).abs() < 1e-6 * det.root_rat.abs(),
            "stat {} vs det {}",
            stat.root_rat.mean(),
            det.root_rat
        );
        assert!(stat.root_rat.std_dev() < 1e-9);
    }

    #[test]
    fn d2d_mode_has_no_region_terms() {
        let tree = generate_benchmark(&BenchmarkSpec::random("dpd", 30, 1));
        let model = model_for(&tree);
        let r = optimize_with_rule(
            &tree,
            &model,
            VariationMode::DieToDie,
            Arc::new(TwoParam::default()),
            &DpOptions::default(),
        )
        .expect("optimize");
        let layout = model.layout();
        for (id, _) in r.root_rat.terms() {
            assert!(
                !layout.is_region(id),
                "D2D form must not reference spatial regions"
            );
        }
    }

    #[test]
    fn one_param_also_linear_and_close() {
        let tree = generate_benchmark(&BenchmarkSpec::random("dp1", 40, 5));
        let model = model_for(&tree);
        let two = optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &DpOptions::default(),
        )
        .expect("2P");
        let one = optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(OneParam::default()),
            &DpOptions::default(),
        )
        .expect("1P");
        // Different rules, same ballpark (within a few percent).
        let rel = (two.root_rat.mean() - one.root_rat.mean()).abs() / two.root_rat.mean().abs();
        assert!(
            rel < 0.05,
            "2P {} vs 1P {}",
            two.root_rat.mean(),
            one.root_rat.mean()
        );
    }

    #[test]
    fn four_param_works_on_small_trees() {
        // Kept tiny on purpose: the 4P cross-product blows up fast — the
        // paper's own 4P implementation topped out at 9 sinks.
        let tree = generate_benchmark(&BenchmarkSpec::random("dp4", 6, 2));
        let model = model_for(&tree);
        let four = optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(FourParam::default()),
            &DpOptions::default(),
        )
        .expect("4P");
        let two = optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &DpOptions::default(),
        )
        .expect("2P");
        // 4P keeps a superset of solutions, so its winner can't be worse
        // by much; means should be very close on a small tree.
        let rel =
            (four.root_rat.mean() - two.root_rat.mean()).abs() / two.root_rat.mean().abs().max(1.0);
        assert!(
            rel < 0.05,
            "4P {} vs 2P {}",
            four.root_rat.mean(),
            two.root_rat.mean()
        );
    }

    #[test]
    fn four_param_hits_capacity_cap() {
        let tree = generate_benchmark(&BenchmarkSpec::random("cap", 120, 6));
        let model = model_for(&tree);
        let tight = DpOptions {
            max_solutions_per_node: 200,
            ..DpOptions::default()
        };
        let err = optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(FourParam::default()),
            &tight,
        )
        .unwrap_err();
        assert!(
            matches!(err, InsertionError::CapacityExceeded { .. }),
            "expected capacity error, got {err}"
        );
    }

    #[test]
    fn time_limit_enforced() {
        let tree = generate_benchmark(&BenchmarkSpec::random("time", 200, 6));
        let model = model_for(&tree);
        let opts = DpOptions {
            time_limit: Duration::from_nanos(1),
            ..DpOptions::default()
        };
        let err = optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &opts,
        )
        .unwrap_err();
        assert!(matches!(err, InsertionError::TimeLimitExceeded { .. }));
    }

    #[test]
    fn sparsify_keeps_results_close() {
        let tree = generate_benchmark(&BenchmarkSpec::random("sp", 60, 13));
        let model = model_for(&tree);
        let exact = optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &DpOptions::default(),
        )
        .expect("exact");
        let sparse = optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &DpOptions {
                sparsify_epsilon: 1e-3,
                ..DpOptions::default()
            },
        )
        .expect("sparse");
        let rel_mean =
            (exact.root_rat.mean() - sparse.root_rat.mean()).abs() / exact.root_rat.mean().abs();
        let rel_std = (exact.root_rat.std_dev() - sparse.root_rat.std_dev()).abs()
            / exact.root_rat.std_dev().max(1e-12);
        assert!(rel_mean < 1e-3, "means diverged: {rel_mean}");
        assert!(rel_std < 0.05, "sigmas diverged: {rel_std}");
    }

    #[test]
    fn wire_sizing_never_hurts_and_records_choices() {
        use crate::dp::{optimize_with_sizing, WireSizing};
        let tree = generate_benchmark(&BenchmarkSpec::random("ws", 30, 4));
        let model = model_for(&tree);
        let plain = optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &DpOptions::default(),
        )
        .expect("plain");
        assert!(plain.wire_widths.is_empty());

        let sizing = WireSizing::default_three();
        let sized = optimize_with_sizing(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &sizing,
            &DpOptions::default(),
        )
        .expect("sized");
        // The sized design space is a superset, so the result should not
        // be meaningfully worse. (The statistical DP prunes on mean and
        // selects on the yield percentile, so it is not exactly optimal
        // for the percentile; allow sub-0.1% inversions from that gap.)
        let y = |r: &StatResult| r.root_rat.percentile(0.05);
        assert!(
            y(&sized) >= y(&plain) - 1e-3 * y(&plain).abs(),
            "sized {} vs plain {}",
            y(&sized),
            y(&plain)
        );
        // Every edge got a recorded width choice.
        assert!(!sized.wire_widths.is_empty());
        assert!(sized
            .wire_widths
            .iter()
            .all(|&(_, wi)| (wi as usize) < sizing.widths().len()));
        // The edge_widths conversion produces a consistent map.
        let map = sizing.edge_widths(&sized.wire_widths);
        assert!(map.len() <= sized.wire_widths.len());
    }

    #[test]
    fn sized_result_matches_sized_yield_evaluator() {
        use crate::dp::{optimize_with_sizing, WireSizing};
        use crate::yield_eval::YieldEvaluator;
        let tree = generate_benchmark(&BenchmarkSpec::random("ws2", 24, 6));
        let model = model_for(&tree);
        let sizing = WireSizing::new(vec![1.0, 2.0]);
        let sized = optimize_with_sizing(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &sizing,
            &DpOptions::default(),
        )
        .expect("sized");
        let ye = YieldEvaluator::new(&tree, &model, VariationMode::WithinDie);
        let rat = ye.rat_form_sized(&sized.assignment, &sizing.edge_widths(&sized.wire_widths));
        assert!(
            (rat.mean() - sized.root_rat.mean()).abs() < 1e-6 * sized.root_rat.mean().abs(),
            "evaluator {} vs DP {}",
            rat.mean(),
            sized.root_rat.mean()
        );
    }

    #[test]
    fn threshold_sweep_changes_little() {
        // The paper's Section 5.3 finding: p̄ in [0.5, 0.95] moves the
        // optimal RAT by well under 0.1%.
        let tree = generate_benchmark(&BenchmarkSpec::random("sweep", 50, 17));
        let model = model_for(&tree);
        let base = optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &DpOptions::default(),
        )
        .expect("base");
        for p in [0.6, 0.75, 0.9, 0.95] {
            let r = optimize_with_rule(
                &tree,
                &model,
                VariationMode::WithinDie,
                Arc::new(TwoParam::new(p, p)),
                &DpOptions::default(),
            )
            .expect("sweep");
            let rel = (r.root_rat.mean() - base.root_rat.mean()).abs() / base.root_rat.mean().abs();
            assert!(rel < 0.01, "p={p}: relative change {rel}");
        }
    }

    #[test]
    fn governed_run_without_pressure_matches_strict() {
        let tree = generate_benchmark(&BenchmarkSpec::random("gv", 40, 9));
        let model = model_for(&tree);
        let strict = optimize_with_rule(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &DpOptions::default(),
        )
        .expect("strict");
        let governed = optimize_governed(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
            &DpOptions::default(),
            &Budget::unlimited(),
        )
        .expect("governed");
        assert!(!governed.degradation.degraded());
        assert_eq!(
            governed.result.root_rat.mean(),
            strict.root_rat.mean(),
            "an unpressured governed run must be bit-identical"
        );
        assert_eq!(governed.result.assignment, strict.assignment);
        assert!(!governed.result.stats.panic_completion);
    }

    /// The engine's tree check is remembered between runs only until a
    /// node is attached: a childless internal node attached after a
    /// clean run is still a typed `InvalidTree`, and a source-only tree
    /// is still `NoSinks`.
    #[test]
    fn engine_rechecks_a_tree_after_an_attach() {
        use varbuf_rctree::{Point, TreeError};
        let mut tree = generate_benchmark(&BenchmarkSpec::random("chk", 8, 3));
        let model = model_for(&tree);
        let run = |t: &RoutingTree| {
            optimize_with_rule(
                t,
                &model,
                VariationMode::WithinDie,
                Arc::new(TwoParam::default()),
                &DpOptions::default(),
            )
        };
        run(&tree).expect("valid tree");
        let stub = tree.add_internal(tree.root(), Point::new(1.0, 1.0));
        assert!(matches!(
            run(&tree),
            Err(InsertionError::InvalidTree(TreeError::DanglingInternal(id))) if id == stub
        ));
        let source_only = RoutingTree::new(Point::new(0.0, 0.0), 0.1, tree.wire());
        assert!(matches!(run(&source_only), Err(InsertionError::NoSinks)));
    }

    /// Equal keys at the root keep `Iterator::max_by`'s rule: the last
    /// of equal maxima wins, under both selection keys, and the winner's
    /// buffers and wire widths come from its own trace.
    #[test]
    fn select_winner_breaks_ties_toward_the_later_candidate() {
        use crate::trace::Trace;
        use varbuf_rctree::{Point, WireParams};
        use varbuf_stats::SourceId;
        let mut tree = RoutingTree::new(Point::new(0.0, 0.0), 0.5, WireParams::default_65nm());
        tree.add_sink(tree.root(), Point::new(10.0, 0.0), 1.0, 0.0);
        let candidate = |n: u32, wi: u8| {
            let mut s = StatSolution::new(
                CanonicalForm::with_terms(4.0, vec![(SourceId(1), 0.5)]),
                CanonicalForm::with_terms(100.0, vec![(SourceId(1), 2.0), (SourceId(2), 1.0)]),
            );
            s.trace = Trace::wire(
                NodeId(n),
                wi,
                Trace::buffer(NodeId(n), BufferTypeId(0), Trace::empty()),
            );
            s
        };
        // The middle candidate has a lower key; the outer two tie.
        let mut worse = candidate(2, 2);
        worse.rat.add_constant(-1.0);
        for selection in [RootSelection::MeanRat, RootSelection::YieldRat(0.95)] {
            let options = DpOptions {
                root_selection: selection,
                ..DpOptions::default()
            };
            let mut list = vec![candidate(1, 1), worse.clone(), candidate(3, 3)];
            let r = select_winner(&tree, &options, &mut list, DpStats::default());
            assert_eq!(
                r.assignment,
                vec![(NodeId(3), BufferTypeId(0))],
                "{selection:?}"
            );
            assert_eq!(r.wire_widths, vec![(NodeId(3), 3)], "{selection:?}");
            assert_eq!(r.root_rat, driver_rat_stat(&list[2], 0.5), "{selection:?}");
        }
    }

    #[test]
    fn fallback_cascade_shapes() {
        let from_four = fallback_cascade(Arc::new(FourParam::default()));
        assert_eq!(from_four.len(), 3);
        assert_eq!(from_four[0].name(), "4P");
        assert_eq!(from_four[2].name(), "2P");
        let from_two = fallback_cascade(Arc::new(TwoParam::new(0.75, 0.75)));
        assert_eq!(from_two.len(), 2);
        let from_one = fallback_cascade(Arc::new(OneParam::default()));
        assert_eq!(from_one.len(), 3);
        assert_eq!(from_one[0].name(), "1P");
    }

    /// The invariant the sorted-prefix insertion in
    /// `prune_solutions_keyed` banks on: under the 2P rule every list
    /// `process_node` emits — sink bases, merged branches, buffered
    /// candidate nodes — is mean-ordered: load means non-decreasing and
    /// RAT means non-decreasing (the pruned staircase). Property-tested
    /// over 3 seeds × 64 random trees: an unconstrained 2P run with an
    /// empty memo stores every node's list, which is then read back node
    /// by node.
    #[test]
    fn two_param_node_lists_stay_mean_ordered() {
        let sizing = WireSizing::single();
        let eager = DpOptions {
            use_lazy_wire: false,
            ..DpOptions::default()
        };
        for seed in [0x9E37_79B9u64, 0x85EB_CA6B, 0xC2B2_AE35] {
            for t in 0..64u64 {
                let sinks = 4 + (t as usize % 13);
                let tree = generate_benchmark(&BenchmarkSpec::random(
                    "order",
                    sinks,
                    seed.wrapping_add(t.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ));
                let model = model_for(&tree);
                let sigs = NodeSigs::build(&tree);
                let mut cache = SolutionCache::new();
                optimize_incremental(
                    &tree,
                    &model,
                    VariationMode::WithinDie,
                    vec![Arc::new(TwoParam::default())],
                    &sizing,
                    &eager,
                    None,
                    &Budget::unlimited(),
                    RunControls::default(),
                    &sigs,
                    &mut cache,
                    0,
                )
                .expect("unconstrained run");
                for id in tree.postorder() {
                    let sols = cache.lookup(id, sigs.get(id)).expect("every list stored");
                    for w in sols.windows(2) {
                        assert!(
                            w[0].load_mean() <= w[1].load_mean(),
                            "seed{seed:x}/tree{t}/node{}: load means out of order",
                            id.index()
                        );
                        assert!(
                            w[0].rat_mean() <= w[1].rat_mean(),
                            "seed{seed:x}/tree{t}/node{}: RAT means out of order",
                            id.index()
                        );
                    }
                }
            }
        }
    }
}
