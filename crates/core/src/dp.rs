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
//!   pair combinations at merges and prune pairwise in `O(N²)`; a strict
//!   run enforces a per-node solution cap and a wall-clock limit (the
//!   paper's, [`Budget::paper`]) so that the blow-up surfaces as a typed
//!   error (the "-" rows of Table 2) rather than an OOM kill.
//!
//! Every run is one [`RunRequest`] handed to [`run`], which mediates it
//! by a [`Governor`]: a *strict* request turns the first breach of its
//! budget's hard limits into a typed error, while a governed one walks a
//! pruning-rule fallback cascade, tightens epsilon, truncates candidate
//! lists, and — past a hard limit — finishes in panic-completion mode so
//! the caller still gets a valid best-so-far design plus a
//! [`Degradation`] report. [`optimize_with_rule`] is the strict request
//! of one rule.
//!
//! Cold, incremental (a [`Memo`] in [`RunControls::memo`]) and
//! hierarchical ([`RunRequest::hier`]) runs share one postorder walk
//! that takes two optional inputs: a memo (the session's node
//! signatures and solution cache), whose hits hand the parent a cached
//! list in place and skip the whole subtree, and a cut plan, whose cut
//! nodes splice their lists before the parent takes them.

use crate::cache::{CachedList, NodeSigs, SolutionCache};
use crate::error::InsertionError;
use crate::faultinject::FaultInjector;
use crate::governor::{
    keep_best, solution_footprint, truncate_spread, Admission, Budget, CancelToken, Clock,
    Degradation, Governor, GuardedFallback,
};
use crate::hier::{Cuts, HierOptions, HierReport};
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
use std::ops::Deref;
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

/// Engine knobs. The limits of a run are its [`RunRequest::budget`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpOptions {
    /// Drop canonical-form terms below this fraction of the form's σ
    /// after each operation (`0.0` keeps everything).
    pub sparsify_epsilon: f64,
    /// Winner criterion at the root.
    pub root_selection: RootSelection,
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
}

impl Default for DpOptions {
    fn default() -> Self {
        Self {
            sparsify_epsilon: 0.0,
            root_selection: RootSelection::YieldRat(0.95),
            use_lazy_wire: true,
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

/// One optimization run: the net, its model and every knob of the run.
/// [`run`] takes one; the batch pool fans a slice of them across
/// workers.
///
/// A strict request runs its cascade's first rule alone and turns the
/// first breach of its budget's hard limits into a typed error; a
/// governed one degrades within the budget instead. Both report a
/// [`Degradation`].
#[derive(Clone)]
pub struct RunRequest<'a> {
    /// The net to optimize.
    pub tree: &'a RoutingTree,
    /// Process-variation model.
    pub model: &'a ProcessModel,
    /// Variation categories the solution forms carry.
    pub mode: VariationMode,
    /// Pruning rules in order of decreasing cost, the primary first (see
    /// [`fallback_cascade`]). A strict run prunes with the primary only.
    pub cascade: Vec<Arc<dyn PruningRule>>,
    /// Wire-width choice set.
    pub sizing: WireSizing,
    /// Engine knobs: epsilon, root selection and the lazy-wire switch.
    pub options: DpOptions,
    /// Resource limits: the degradation thresholds of a governed run,
    /// the hard caps of a strict one.
    pub budget: Budget,
    /// Strict (typed error on breach) vs governed (degrade) policy.
    pub strict: bool,
    /// Decomposition knobs: cut nodes splice their frontiers (see
    /// [`crate::hier`]). `None` runs flat.
    pub hier: Option<HierOptions>,
}

impl<'a> RunRequest<'a> {
    /// A governed request over [`fallback_cascade`]`(rule)` with default
    /// sizing and options, an unlimited budget and no cuts.
    #[must_use]
    pub fn new(
        tree: &'a RoutingTree,
        model: &'a ProcessModel,
        mode: VariationMode,
        rule: Arc<dyn PruningRule>,
    ) -> Self {
        Self {
            tree,
            model,
            mode,
            cascade: fallback_cascade(rule),
            sizing: WireSizing::single(),
            options: DpOptions::default(),
            budget: Budget::unlimited(),
            strict: false,
            hier: None,
        }
    }

    /// A strict request of `rule` under the paper's caps
    /// ([`Budget::paper`]), otherwise as [`RunRequest::new`].
    #[must_use]
    pub fn strict(
        tree: &'a RoutingTree,
        model: &'a ProcessModel,
        mode: VariationMode,
        rule: Arc<dyn PruningRule>,
    ) -> Self {
        Self {
            budget: Budget::paper(),
            strict: true,
            ..Self::new(tree, model, mode, rule)
        }
    }

    /// Routes this request through the hierarchical engine.
    #[must_use]
    pub fn with_hier(mut self, hier: HierOptions) -> Self {
        self.hier = Some(hier);
        self
    }
}

/// A run's outcome: the design, the report of every budget-driven
/// relaxation, and what the decomposition did.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The winning design — valid even when the run degraded.
    pub result: StatResult,
    /// What was relaxed to get there; `degraded() == false` means the
    /// run finished at full fidelity (always so for a strict run).
    pub degradation: Degradation,
    /// What the decomposition did (zero unless the cut plan cut).
    pub hier: HierReport,
}

/// Runs variation-aware buffer insertion with an explicit pruning rule:
/// the strict run of [`RunRequest::strict`].
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
///   blows past the paper's caps.
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
    let request = RunRequest {
        options: *options,
        ..RunRequest::strict(tree, model, mode, rule)
    };
    run(&request, RunControls::default()).map(|r| r.result)
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

/// The sink count above which the pre-run blowup guard
/// ([`guard_cascade`]) substitutes a linear-merge rule for a
/// cross-product primary.
const GUARD_4P_SINKS: usize = 12;

/// The pre-run combinatorial-blowup guard for governed runs: when the
/// requested primary rule merges by cross product (4P), the budget puts
/// no ceiling on solutions or memory, and the tree has more than
/// [`GUARD_4P_SINKS`] sinks, `cascade` is rewritten so the run starts
/// directly under its first linear-merge rule instead of discovering
/// the `n·m` blowup nodes deep into the run. Strict runs are never
/// guarded (they own their rule and abort by contract), and neither
/// are runs whose budget constrains solutions or memory (the
/// governor's ladder handles those, with full event reporting).
///
/// Returns the [`GuardedFallback`] note to attach to the run's report
/// as [`Degradation::guard`] — a typed planning note, not a degradation
/// event, since the substituted run completes at full fidelity — or
/// `None` when the guard does not apply. Deterministic in the inputs,
/// so the incremental and cold paths substitute identically.
fn guard_cascade(
    tree: &RoutingTree,
    cascade: &mut Vec<Arc<dyn PruningRule>>,
    budget: &Budget,
) -> Option<GuardedFallback> {
    if cascade.is_empty() {
        return None;
    }
    if cascade[0].strategy() != MergeStrategy::CrossProduct {
        return None;
    }
    let sinks = tree.sink_count();
    if sinks <= GUARD_4P_SINKS {
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
        threshold: GUARD_4P_SINKS,
    })
}

/// Per-run execution controls orthogonal to the optimization problem
/// itself: a replacement clock (fault injection skews it), a fault
/// injector mutating candidate lists, the cooperative-cancellation
/// pair the service layer arms for every request — an external
/// [`CancelToken`] plus an optional watchdog deadline measured on the
/// governor's clock — and an incremental run's session memo.
///
/// `RunControls::default()` is the plain batch run: real clock, no
/// faults, no cancellation, no memo.
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
    /// The session memo of an incremental run (`None` = cold run).
    pub memo: Option<Memo<'a>>,
}

/// An incremental run's memo: the session's node signatures and
/// solution cache, valid under one run signature.
///
/// Nodes whose content signature still matches a cached entry hand
/// their parent the cached list in place (re-admitted through the
/// governor so budget accounting stays coherent) and their subtrees are
/// never visited; only dirty nodes — the root path of the session's
/// edits — run the DP. Each fresh list is stored back by handle under
/// its node's signature, as its parent reads it (see [`crate::cache`]):
/// after the splice at a cut node and the parent's lift.
/// `stats.cache_hits` counts the nodes covered by replayed lists (whole
/// clean subtrees); `stats.cache_misses` the recomputed dirty nodes.
///
/// Cached replay stays byte-identical to a cold run because the cache
/// only feeds (and is only fed by) full-fidelity runs. A constraining
/// budget or a fault injector runs cold without touching the cache,
/// and a run that degraded, was cancelled, or errored flushes the
/// cache — its lists may be truncated best-so-far artifacts.
pub struct Memo<'m> {
    /// Node signatures, current for the run's tree (see
    /// [`NodeSigs::update_path`]).
    pub sigs: &'m NodeSigs,
    /// The session's solution cache.
    pub cache: &'m mut SolutionCache,
    /// The [`crate::cache::run_signature`] of the run-wide inputs, the
    /// cut plan included.
    pub run_sig: u64,
}

/// Runs the DP for one request: the engine's one entry point. Builds
/// the run's [`Governor`] — strict over the cascade's primary rule, or
/// degrading over the cascade — with the controls' clock and
/// cancellation pair, then walks the tree with the optional memo and
/// the request's cut plan. A governed cross-product (4P) primary on a
/// net over 12 sinks, under a budget with no solution or memory
/// ceiling, starts at the cascade's first linear-merge rule instead
/// (noted as [`Degradation::guard`]).
///
/// # Errors
///
/// * [`InsertionError::InvalidTree`] / [`InsertionError::NoSinks`] for
///   bad inputs (and `InvalidTree` for a memo whose signatures do not
///   cover the tree);
/// * [`InsertionError::PoisonedSolutions`] when every candidate at some
///   node of a governed run is invalid — nothing valid to recover to;
/// * strict runs only: [`InsertionError::CapacityExceeded`],
///   [`InsertionError::TimeLimitExceeded`] or
///   [`InsertionError::Cancelled`] at the first breach of the budget's
///   hard limits or a cancellation. Resource pressure never errors a
///   governed run.
///
/// # Panics
///
/// Panics if the request's cascade is empty.
pub fn run(
    request: &RunRequest<'_>,
    controls: RunControls<'_>,
) -> Result<RunResult, InsertionError> {
    let RunControls {
        clock,
        faults,
        cancel,
        watchdog,
        memo,
    } = controls;
    let epsilon = request.options.sparsify_epsilon;
    let (mut governor, guard) = if request.strict {
        let rule = Arc::clone(&request.cascade[0]);
        (Governor::strict(request.budget, rule, epsilon), None)
    } else {
        let mut cascade = request.cascade.clone();
        let guard = guard_cascade(request.tree, &mut cascade, &request.budget);
        (Governor::governed(request.budget, cascade, epsilon), guard)
    };
    if cancel.is_some() || watchdog.is_some() {
        governor = governor.with_cancellation(cancel.unwrap_or_default(), watchdog);
    }
    if let Some(c) = clock {
        governor = governor.with_clock(c);
    }
    // Degradable or fault-injected lists are not the unconstrained
    // fixpoint, so those runs neither consume nor produce cache entries.
    let mut memo = memo.filter(|_| faults.is_none() && !request.budget.constrains_run());
    let run =
        run_engine(request, &mut governor, faults, memo.as_mut()).map(|(mut result, hier)| {
            let mut degradation = governor.into_report();
            degradation.guard = guard;
            result.stats.rule_fallbacks = degradation.rule_fallbacks();
            result.stats.epsilon_tightenings = degradation.epsilon_tightenings();
            result.stats.list_truncations = degradation.truncations();
            result.stats.poisoned_dropped = degradation.poisoned_dropped();
            result.stats.panic_completion = degradation.panic_completion;
            RunResult {
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

impl Memo<'_> {
    /// Stores `list` as node `id`'s entry, with the bytes it parked at a
    /// cut node, and returns it shared with the cache.
    fn share(&mut self, id: NodeId, list: SolList, parked: usize) -> SolList {
        let list = match list {
            SolList::Owned(v) => Arc::new(v),
            SolList::Shared(v) => v,
        };
        self.cache.store(
            id,
            self.sigs.get(id),
            CachedList {
                list: Arc::clone(&list),
                parked,
            },
        );
        SolList::Shared(list)
    }
}

/// A candidate list as the walk hands it on: owned, or shared by handle
/// with the session cache. A merge reads a shared list in place and
/// drops it after; the few steps that write a list (a single-child
/// parent buffering into its child's list, an admission re-prune or
/// truncation, a sanitize that drops a candidate, landing deferred
/// wire) take an owned copy of a shared one first
/// ([`SolList::to_mut`]).
enum SolList {
    Owned(Vec<StatSolution>),
    Shared(Arc<Vec<StatSolution>>),
}

impl Deref for SolList {
    type Target = [StatSolution];

    fn deref(&self) -> &[StatSolution] {
        match self {
            SolList::Owned(v) => v,
            SolList::Shared(v) => v,
        }
    }
}

impl SolList {
    /// Write access: a shared list is copied first, unless this is its
    /// last handle.
    fn to_mut(&mut self) -> &mut Vec<StatSolution> {
        match self {
            SolList::Owned(v) => v,
            SolList::Shared(v) => Arc::make_mut(v),
        }
    }

    /// The list as an owned vector, copied only if still shared.
    fn into_owned(self) -> Vec<StatSolution> {
        match self {
            SolList::Owned(v) => v,
            SolList::Shared(v) => Arc::unwrap_or_clone(v),
        }
    }

    /// Returns an owned list to `pool`; a shared one is only dropped.
    fn recycle(self, pool: &mut SolPool) {
        if let SolList::Owned(v) = self {
            pool.put(v);
        }
    }
}

/// A finished list on the walk's stack, waiting for its parent.
struct Finished {
    /// A node's own list (shared only where the node passed its child's
    /// cached list through), or a cache hit's list as its parent reads
    /// it.
    list: SolList,
    /// Whether `list` is a cache hit, already lifted for the parent.
    lifted: bool,
    /// The bytes it parks at a cut node, 0 elsewhere.
    parked: usize,
}

/// The walk's finished lists: the stack they wait on for their parent,
/// plus the run's memo (which a parent stores its children's lifted
/// lists in) and cut plan (which uncounts a parked list as its parent
/// takes it).
struct Handoff<'w, 'm> {
    stack: Vec<Finished>,
    memo: Option<&'w mut Memo<'m>>,
    cuts: Option<&'w mut Cuts>,
}

impl Handoff<'_, '_> {
    /// Pops the next child's finished list: children finish last-first,
    /// so a parent takes them in child order.
    fn take(&mut self) -> Finished {
        let finished = self
            .stack
            .pop()
            .expect("a child finishes before its parent");
        if let Some(cuts) = self.cuts.as_deref_mut() {
            cuts.release(finished.parked);
        }
        finished
    }
}

/// Immutable per-run context: the run's inputs plus the lazy-wire
/// switch, read by every node of the walk. Per-node values are computed
/// where the walk uses them — each wire segment at its lift, each
/// candidate's device forms in its buffering arm, into the run's
/// [`SolPool`] scratch — so a run pays only for what it reads and holds
/// nothing per node.
struct RunCtx<'a> {
    tree: &'a RoutingTree,
    model: &'a ProcessModel,
    mode: VariationMode,
    sizing: &'a WireSizing,
    /// Whether lazy wire propagation is armed for this run (see
    /// [`DpOptions::use_lazy_wire`] for the arming conditions).
    lazy: bool,
}

impl<'a> RunCtx<'a> {
    /// Collects the request's inputs and arms lazy wire propagation for
    /// a run under `governor`, with a fault injector when `faults` is
    /// set.
    fn new(request: &'a RunRequest<'_>, governor: &Governor, faults: bool) -> Self {
        Self {
            tree: request.tree,
            model: request.model,
            mode: request.mode,
            sizing: &request.sizing,
            // A degradable run keeps eager wire (pending-aware
            // footprints would shift its degradation schedule's memory
            // estimates), and so does a fault-injected one, so injected
            // lists keep their eager shape.
            lazy: request.options.use_lazy_wire
                && !(governor.is_governed() && governor.budget().constrains_run())
                && !faults,
        }
    }

    /// The RC segment of the edge above `node` scaled to width `wi`.
    fn segment(&self, node: NodeId, wi: usize) -> WireSegment {
        let w = self.sizing.widths()[wi];
        let mut seg = self.tree.wire().segment(self.tree.node(node).edge_length);
        seg.resistance /= w;
        seg.capacitance *= w;
        seg
    }
}

/// The buffering arm's device-form scratch: the candidate site being
/// buffered and its `(C_b, T_b)` pair per buffer type, rewritten in
/// place at every candidate.
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
/// buffers and the buffering arm's device forms. One pool per run.
#[derive(Default)]
struct SolPool {
    lists: Vec<Vec<StatSolution>>,
    sols: Vec<StatSolution>,
    scratch: PruneScratch,
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

/// The DP engine behind [`run`]: validates the inputs, runs [`walk`]
/// with every resource decision delegated to `governor`, and picks the
/// winner. Returns the design plus the decomposition report (zero
/// unless the request's cut plan cut).
fn run_engine(
    request: &RunRequest<'_>,
    governor: &mut Governor,
    faults: Option<&mut FaultInjector>,
    mut memo: Option<&mut Memo<'_>>,
) -> Result<(StatResult, HierReport), InsertionError> {
    let tree = request.tree;
    tree.validate()?;
    if tree.sink_count() == 0 {
        return Err(InsertionError::NoSinks);
    }
    if memo.as_ref().is_some_and(|m| m.sigs.len() != tree.len()) {
        return Err(InsertionError::InvalidTree(
            varbuf_rctree::TreeError::Unreachable(tree.root()),
        ));
    }

    let ctx = RunCtx::new(request, governor, faults.is_some());
    let hier = request.hier.as_ref();
    let mut cuts = hier.and_then(|h| Cuts::plan(tree, h));
    let (mut root, mut stats) = walk(&ctx, governor, faults, memo.as_deref_mut(), cuts.as_mut())?;
    stats.runtime = governor.elapsed();
    let report = match cuts {
        Some(c) => c.report(governor.peak_chunk_bytes()),
        None => HierReport {
            final_frontier_cap: hier.map_or(0, |h| h.frontier_cap),
            ..HierReport::default()
        },
    };
    // Deferred wire still pending on root candidates lands here (the
    // selection key's σ and the reported root RAT read the terms), and
    // the root list is stored as selection reads it, so a replay of an
    // unedited tree reads the cached root list in place.
    let options = &request.options;
    materialize_operand(&mut root, options.sparsify_epsilon, &mut stats);
    let root = match memo {
        Some(m) => m.share(tree.root(), root, 0),
        None => root,
    };
    Ok((select_winner(tree, options, &root, stats), report))
}

/// The engine's one walk. It visits `tree` in
/// [`RoutingTree::postorder`] order (last child first) and runs
/// [`process_node`] at each node, pushing the node's list on a stack of
/// finished lists. Children finish last-first, so a parent pops its
/// children's lists in child order, and the walk holds one list per
/// finished subtree whose parent is still open, not a slot per node.
/// With a memo, a signature hit pushes the cached list (already lifted
/// for the parent, shared by handle) instead and skips the whole
/// subtree, so a warm run visits only the dirty path; a parent stores
/// each fresh child's lifted list back. With cuts, a cut node's list is
/// spliced and stays parked on the stack until its parent takes it.
/// Returns the root's list and the run's counters.
fn walk(
    ctx: &RunCtx<'_>,
    governor: &mut Governor,
    mut faults: Option<&mut FaultInjector>,
    memo: Option<&mut Memo<'_>>,
    cuts: Option<&mut Cuts>,
) -> Result<(SolList, DpStats), InsertionError> {
    let tree = ctx.tree;
    let mut stats = DpStats::default();
    let mut pool = SolPool::default();
    let mut lists = Handoff {
        stack: Vec::new(),
        memo,
        cuts,
    };
    if let Some(m) = lists.memo.as_deref_mut() {
        m.cache.begin_run(m.run_sig, tree.len());
    }
    // `(node, children done)`: a node goes back on the stack below its
    // children, pushed in child order so the last child pops first.
    let mut stack = vec![(tree.root(), false)];
    while let Some((id, expanded)) = stack.pop() {
        let cached = if expanded {
            None
        } else {
            lists
                .memo
                .as_deref()
                .and_then(|m| m.cache.lookup(id, m.sigs.get(id)))
                .cloned()
        };
        let finished = if let Some(hit) = cached {
            governor.check_time()?;
            let mut list = SolList::Shared(hit.list);
            admit_list(governor, id, &mut list, &mut pool, &mut stats)?;
            governor.note_memory(&list, 0);
            stats.max_solutions_per_node = stats.max_solutions_per_node.max(list.len());
            if let Some(cuts) = lists.cuts.as_deref_mut() {
                if cuts.is_cut(id) {
                    cuts.park(governor, hit.parked);
                }
            }
            Finished {
                list,
                lifted: true,
                parked: hit.parked,
            }
        } else if !expanded {
            stack.push((id, true));
            stack.extend(tree.node(id).children.iter().map(|&c| (c, false)));
            continue;
        } else {
            let mut list = process_node(
                ctx,
                governor,
                id,
                &mut lists,
                faults.as_deref_mut(),
                &mut pool,
                &mut stats,
            )?;
            let parked = match lists.cuts.as_deref_mut() {
                Some(cuts) if cuts.is_cut(id) => cuts.splice(governor, list.to_mut(), &mut stats),
                _ => 0,
            };
            Finished {
                list,
                lifted: false,
                parked,
            }
        };
        lists.stack.push(finished);
    }
    if lists.memo.is_some() {
        stats.cache_misses = stats.nodes_processed;
        stats.cache_hits = tree.len() - stats.nodes_processed;
    }
    let root = lists.stack.pop().expect("the root finishes last").list;
    debug_assert!(
        lists.stack.is_empty(),
        "every other list was taken by its parent"
    );
    Ok((root, stats))
}

/// One node of the DP: builds the node's base list from its children
/// (taken off the walk's stack in fixed child order; a fresh child's
/// list is lifted here, a replayed one arrives lifted), offers buffers,
/// and applies the governor's admission/integrity policy. Returns the
/// node's surviving candidate list.
///
/// With a memo, each fresh child's lifted list is stored by handle as
/// the parent reads it, its deferred wire landed first when the parent
/// merges, and handed to the merge shared, so a later replay of that
/// child reads the same allocation. A single-child parent buffers into
/// its child's list, so it works on an owned copy of a shared one.
///
/// The hot path is allocation-free in steady state: wire segments are
/// computed at the lift, device forms are written into the run's
/// [`SolPool`] scratch, new solutions are recycled carcasses from the
/// same pool, and pruning runs over the pool's batched-key scratch.
#[allow(clippy::too_many_lines)]
fn process_node(
    ctx: &RunCtx<'_>,
    gov: &mut Governor,
    id: NodeId,
    lists: &mut Handoff<'_, '_>,
    faults: Option<&mut FaultInjector>,
    pool: &mut SolPool,
    stats: &mut DpStats,
) -> Result<SolList, InsertionError> {
    gov.check_time()?;
    let node = ctx.tree.node(id);
    stats.nodes_processed += 1;

    // 1. Base list for the subtree seen at this node.
    let mut sols: SolList = match node.kind {
        NodeKind::Sink {
            capacitance,
            required_arrival,
        } => SolList::Owned(vec![StatSolution::new(
            CanonicalForm::constant(capacitance),
            CanonicalForm::constant(required_arrival),
        )]),
        NodeKind::Internal | NodeKind::Source { .. } => {
            let merges = node.children.len() > 1;
            let mut acc: Option<SolList> = None;
            for &c in &node.children {
                let child = lists.take();
                let lifted = if child.lifted {
                    child.list
                } else {
                    let mut lifted = lift(ctx, gov, c, child.list.into_owned(), pool, stats);
                    match lists.memo.as_deref_mut() {
                        None => SolList::Owned(lifted),
                        Some(m) => {
                            if merges || id == ctx.tree.root() {
                                // Stored as a merge or winner selection
                                // reads it, so a replay hands the list
                                // over as is. No wire lands on a root
                                // candidate after this lift, so landing it
                                // here leaves the same bits as at
                                // selection.
                                materialize_list(&mut lifted, gov.epsilon(), stats);
                            }
                            m.share(c, SolList::Owned(lifted), child.parked)
                        }
                    }
                };
                acc = Some(match acc {
                    None => lifted,
                    Some(prev) => merge_lists(ctx, gov, prev, lifted, id, pool, stats)?,
                });
                if let Some(list) = acc.as_mut() {
                    admit_list(gov, id, list, pool, stats)?;
                }
            }
            acc.expect("validated internal nodes have children")
        }
    };

    // 2. Offer a buffer at legal positions.
    if node.is_candidate {
        gov.check_time()?;
        let t_buf = Instant::now();
        let mut buffered = pool.take(0);
        // Moved out for the arm, so `take_sol` can borrow the pool while
        // the forms are read.
        let mut device = std::mem::take(&mut pool.device);
        {
            let sols = sols.to_mut();
            let rule = gov.active_rule();
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
                                materialize_solution(&mut sols[bi], gov.epsilon());
                            }
                            let mut s = pool.take_sol();
                            buffer_extend_stat_into(
                                &mut s, &sols[bi], cap_form, delay_form, resistance, id, ty,
                            );
                            sparsify(&mut s, gov.epsilon());
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
                            sparsify(&mut b, gov.epsilon());
                            buffered.push(b);
                            stats.solutions_generated += 1;
                        }
                    }
                }
            }
            sols.append(&mut buffered);
        }
        pool.device = device;
        pool.put(buffered);
        stats.buffer_time += t_buf.elapsed();
        admit_list(gov, id, &mut sols, pool, stats)?;
        let before = sols.len();
        prune_full(gov, sols.to_mut(), pool, stats)?;
        stats.solutions_pruned += before - sols.len();
        stats.pruned_by_dominance += before - sols.len();
    }

    // 3. Fault-injection hook, then integrity screening.
    if let Some(inj) = faults {
        inj.on_node(id, sols.to_mut());
    }
    if gov.is_governed() {
        // Screened first: a clean list shared with the cache (a root
        // passing its only child's list through) is not copied.
        if !sols.iter().all(Governor::is_valid) {
            gov.sanitize(id, sols.to_mut())?;
        }
        admit_list(gov, id, &mut sols, pool, stats)?;
    }
    if gov.panicking() {
        keep_best(&*gov.active_rule(), sols.to_mut());
    }

    gov.note_memory(&sols, 0);
    stats.max_solutions_per_node = stats.max_solutions_per_node.max(sols.len());
    Ok(sols)
}

/// Lifts child `c`'s finished list through its parent edge (one copy per
/// wire width) and prunes it under the active rule: the list its parent
/// merges, or buffers into at a single-child parent.
fn lift(
    ctx: &RunCtx<'_>,
    gov: &mut Governor,
    c: NodeId,
    child_list: Vec<StatSolution>,
    pool: &mut SolPool,
    stats: &mut DpStats,
) -> Vec<StatSolution> {
    let widths = ctx.sizing.widths().len();
    let record_width = widths > 1;
    let t_lift = Instant::now();
    let mut lifted = if widths == 1 {
        // Single-width lift: the child list is consumed by this edge, so
        // each solution is extended where it sits — the in-place kernel
        // is bitwise identical to the copying one, and the trace Arc
        // stays untouched. The freed estimate is taken before the
        // extension so the governor sees the same numbers as the copying
        // path.
        let freed: usize = child_list.iter().map(solution_footprint).sum();
        let mut lifted = child_list;
        let seg = &ctx.segment(c, 0);
        if ctx.lazy {
            // Deferred: fold the segment's mean effects in eagerly
            // (bitwise the eager kernel's nominal path) and bank its
            // resistance; the O(terms) coupling and the epsilon pass run
            // once at the next materialization point.
            for s in &mut lifted {
                wire_defer_stat_in_place(s, seg);
            }
        } else {
            for s in &mut lifted {
                wire_extend_stat_in_place(s, seg);
                sparsify(s, gov.epsilon());
            }
        }
        stats.wire_time += t_lift.elapsed();
        gov.note_memory(&[], freed);
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
                    sparsify(&mut out, gov.epsilon());
                }
                if record_width {
                    // `out.trace` is a clone of `s.trace`, and a field
                    // cannot be moved out of the box.
                    out.trace = crate::trace::Trace::wire(c, wi as u8, s.trace.clone());
                }
                lifted.push(out);
            }
        }
        stats.wire_time += t_lift.elapsed();
        let freed: usize = child_list.iter().map(solution_footprint).sum();
        pool.put(child_list);
        gov.note_memory(&[], freed);
        lifted
    };
    stats.solutions_generated += lifted.len();
    // Mean-keyed rules prune on nominals alone, which lazy extension
    // keeps bit-identical to eager (deferral only touches the RAT's
    // sensitivity terms) — so their keyed sweep runs on pending
    // solutions as-is. Any rule whose keys read the terms (percentile
    // keys, and every CrossProduct dominance check) gets the list
    // materialized first, which also makes those rules' whole runs
    // byte-identical to eager.
    if ctx.lazy {
        let term_keyed = {
            let rule = gov.active_rule();
            !rule.mean_keys() || rule.strategy() == MergeStrategy::CrossProduct
        };
        if term_keyed {
            materialize_list(&mut lifted, gov.epsilon(), stats);
        }
    }
    let before = lifted.len();
    let t_prune = Instant::now();
    prune_solutions_keyed(&*gov.active_rule(), &mut lifted, &mut pool.scratch);
    pool.reclaim_pruned();
    stats.prune_time += t_prune.elapsed();
    stats.solutions_pruned += before - lifted.len();
    stats.pruned_by_dominance += before - lifted.len();
    lifted
}

/// Driver step and winner selection at the root (by the configured
/// root-selection key), over a materialized root list: both the
/// selection key's σ and the reported root RAT read the terms.
fn select_winner(
    tree: &RoutingTree,
    options: &DpOptions,
    root_list: &[StatSolution],
    stats: DpStats,
) -> StatResult {
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
    if has_pending(sols) {
        let t = Instant::now();
        for s in sols.iter_mut() {
            materialize_solution(s, epsilon);
        }
        stats.wire_time += t.elapsed();
    }
}

fn has_pending(sols: &[StatSolution]) -> bool {
    sols.iter().any(|s| s.wire_pending != 0.0)
}

/// [`materialize_list`] over a list that may be shared: one with nothing
/// pending (a cached list stored as its reader reads it) is read as is,
/// not copied.
fn materialize_operand(list: &mut SolList, epsilon: f64, stats: &mut DpStats) {
    if has_pending(list) {
        materialize_list(list.to_mut(), epsilon, stats);
    }
}

/// Offers a node's candidate list to the governor, applying whatever
/// the verdict requires (re-prune under a fallback rule, spread-
/// preserving truncation, on an owned copy of a shared list) until the
/// list is admitted.
fn admit_list(
    gov: &mut Governor,
    node: NodeId,
    sols: &mut SolList,
    pool: &mut SolPool,
    stats: &mut DpStats,
) -> Result<(), InsertionError> {
    loop {
        match gov.admit(node, sols.len())? {
            Admission::Ok => return Ok(()),
            Admission::Reprune => {
                let sols = sols.to_mut();
                let before = sols.len();
                let t = Instant::now();
                prune_solutions_keyed(&*gov.active_rule(), sols, &mut pool.scratch);
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
                let sols = sols.to_mut();
                let before = sols.len();
                let t = Instant::now();
                truncate_spread(&*gov.active_rule(), sols, n);
                stats.prune_time += t.elapsed();
                stats.solutions_pruned += before - sols.len();
            }
        }
    }
}

/// Merges two candidate lists at a branch node. The merge only reads
/// its operands: a shared one (a cached list) is read in place and
/// dropped after, an owned one goes back to the pool.
fn merge_lists(
    ctx: &RunCtx<'_>,
    gov: &mut Governor,
    mut a: SolList,
    mut b: SolList,
    node: NodeId,
    pool: &mut SolPool,
    stats: &mut DpStats,
) -> Result<SolList, InsertionError> {
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
        materialize_operand(&mut a, gov.epsilon(), stats);
        materialize_operand(&mut b, gov.epsilon(), stats);
    }
    // Admission may switch the rule (re-prune and retry with a linear
    // merge) or shrink the operands; `forced` breaks the loop if a
    // truncation could not shrink them further.
    let mut forced = false;
    let mut merged = loop {
        let rule = gov.active_rule();
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
                    gov.admit(node, needed)?
                };
                match admission {
                    Admission::Ok => {
                        let t = Instant::now();
                        let mut out = pool.take(0);
                        'rows: for sa in a.iter() {
                            gov.check_time()?;
                            if gov.panicking() {
                                // A hard breach mid-merge: the pairs formed so
                                // far are valid candidates; stop generating.
                                break 'rows;
                            }
                            // Grow one row at a time (amortized) instead of
                            // reserving the full n·m up front, so a panic-
                            // completion bail doesn't pay for rows it never
                            // materializes.
                            out.reserve(b.len());
                            for sb in b.iter() {
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
                        let next = gov.active_rule();
                        prune_solutions_keyed(&*next, a.to_mut(), &mut pool.scratch);
                        pool.reclaim_pruned();
                        prune_solutions_keyed(&*next, b.to_mut(), &mut pool.scratch);
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
                        truncate_spread(&*rule, a.to_mut(), keep);
                        truncate_spread(&*rule, b.to_mut(), keep);
                        stats.prune_time += t.elapsed();
                        stats.solutions_pruned += before - a.len() - b.len();
                    }
                }
            }
        }
    };
    a.recycle(pool);
    b.recycle(pool);
    let before = merged.len();
    prune_full(gov, &mut merged, pool, stats)?;
    stats.solutions_pruned += before - merged.len();
    stats.pruned_by_dominance += before - merged.len();
    Ok(SolList::Owned(merged))
}

/// Pruning with the engine's wall-clock limit enforced *inside* the
/// quadratic cross-product sweep, every 256 rows: an `O(N²)` prune on a
/// six-figure candidate list can otherwise outlive any between-node time
/// check. Under panic completion the sweep bails early: a superset of
/// the non-dominated set is still valid, and the node-level reduction
/// keeps one candidate anyway. In-place, over the run's [`SolPool`]
/// scratch.
fn prune_full(
    gov: &mut Governor,
    sols: &mut Vec<StatSolution>,
    pool: &mut SolPool,
    stats: &mut DpStats,
) -> Result<(), InsertionError> {
    let rule = gov.active_rule();
    let t = Instant::now();
    prune_solutions_polled(&*rule, sols, &mut pool.scratch, || {
        gov.check_time().map(|()| gov.panicking())
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

    /// The strict WID run of `rule` under `budget`.
    fn strict_run(
        tree: &RoutingTree,
        rule: Arc<dyn PruningRule>,
        budget: Budget,
    ) -> Result<RunResult, InsertionError> {
        let model = model_for(tree);
        let request = RunRequest {
            budget,
            ..RunRequest::strict(tree, &model, VariationMode::WithinDie, rule)
        };
        run(&request, RunControls::default())
    }

    #[test]
    fn four_param_hits_capacity_cap() {
        let tree = generate_benchmark(&BenchmarkSpec::random("cap", 120, 6));
        let tight = Budget::strict(200, Duration::MAX);
        let err = strict_run(&tree, Arc::new(FourParam::default()), tight).unwrap_err();
        assert!(
            matches!(err, InsertionError::CapacityExceeded { .. }),
            "expected capacity error, got {err}"
        );
    }

    #[test]
    fn time_limit_enforced() {
        let tree = generate_benchmark(&BenchmarkSpec::random("time", 200, 6));
        let budget = Budget::strict(usize::MAX, Duration::from_nanos(1));
        let err = strict_run(&tree, Arc::new(TwoParam::default()), budget).unwrap_err();
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
        let request = RunRequest {
            sizing: sizing.clone(),
            ..RunRequest::strict(
                &tree,
                &model,
                VariationMode::WithinDie,
                Arc::new(TwoParam::default()),
            )
        };
        let sized = run(&request, RunControls::default()).expect("sized").result;
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
        use crate::yield_eval::YieldEvaluator;
        let tree = generate_benchmark(&BenchmarkSpec::random("ws2", 24, 6));
        let model = model_for(&tree);
        let sizing = WireSizing::new(vec![1.0, 2.0]);
        let request = RunRequest {
            sizing: sizing.clone(),
            ..RunRequest::strict(
                &tree,
                &model,
                VariationMode::WithinDie,
                Arc::new(TwoParam::default()),
            )
        };
        let sized = run(&request, RunControls::default()).expect("sized").result;
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
        let request = RunRequest::new(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
        );
        let governed = run(&request, RunControls::default()).expect("governed");
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
            let list = vec![candidate(1, 1), worse.clone(), candidate(3, 3)];
            let r = select_winner(&tree, &options, &list, DpStats::default());
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
    /// over 3 seeds × 64 random trees: an unconstrained 2P run is driven
    /// node by node in the walk's order, and each emitted list is read
    /// before its parent takes it.
    #[test]
    fn two_param_node_lists_stay_mean_ordered() {
        for seed in [0x9E37_79B9u64, 0x85EB_CA6B, 0xC2B2_AE35] {
            for t in 0..64u64 {
                let sinks = 4 + (t as usize % 13);
                let tree = generate_benchmark(&BenchmarkSpec::random(
                    "order",
                    sinks,
                    seed.wrapping_add(t.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ));
                let model = model_for(&tree);
                let request = RunRequest {
                    cascade: vec![Arc::new(TwoParam::default())],
                    options: DpOptions {
                        use_lazy_wire: false,
                        ..DpOptions::default()
                    },
                    ..RunRequest::new(
                        &tree,
                        &model,
                        VariationMode::WithinDie,
                        Arc::new(TwoParam::default()),
                    )
                };
                let mut gov = Governor::governed(Budget::unlimited(), request.cascade.clone(), 0.0);
                let ctx = RunCtx::new(&request, &gov, false);
                let mut lists = Handoff {
                    stack: Vec::new(),
                    memo: None,
                    cuts: None,
                };
                let (mut pool, mut stats) = (SolPool::default(), DpStats::default());
                for id in tree.postorder() {
                    let sols =
                        process_node(&ctx, &mut gov, id, &mut lists, None, &mut pool, &mut stats)
                            .expect("unconstrained run");
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
                    lists.stack.push(Finished {
                        list: sols,
                        lifted: false,
                        parked: 0,
                    });
                }
                assert_eq!(lists.stack.len(), 1, "the root's list is left");
            }
        }
    }

    /// Warm runs read cached lists in place. A hit hands the walk the
    /// stored allocation (the root of an unedited tree comes back as the
    /// cache's own handle), and after warm runs — one over the unedited
    /// tree, one after a sink edit — every entry off the dirty path keeps
    /// its handle and the cache holds it alone: no replayed list was
    /// copied or kept. The edited path's entries are new lists, held by
    /// the cache alone too.
    #[test]
    fn warm_runs_share_cached_lists() {
        let mut tree = generate_benchmark(&BenchmarkSpec::random("share", 32, 5));
        let model = model_for(&tree);
        let rule = || Arc::new(TwoParam::default());
        let mut sigs = NodeSigs::build(&tree);
        let mut cache = SolutionCache::new();
        let warm = |tree: &RoutingTree, sigs: &NodeSigs, cache: &mut SolutionCache| {
            let controls = RunControls {
                memo: Some(Memo {
                    sigs,
                    cache,
                    run_sig: 0,
                }),
                ..RunControls::default()
            };
            let request = RunRequest::new(tree, &model, VariationMode::WithinDie, rule());
            run(&request, controls).expect("unconstrained run")
        };
        // Every node's handle, asserting the cache alone holds each: a
        // list has as many handles as entries hold it (one, except where
        // the source passes its only child's list through, and the root
        // and that child hold one list).
        let handles = |tree: &RoutingTree, sigs: &NodeSigs, cache: &SolutionCache| {
            let lists: Vec<_> = tree
                .postorder()
                .into_iter()
                .map(|id| {
                    let hit = cache.lookup(id, sigs.get(id)).expect("every list stored");
                    (id, Arc::clone(&hit.list))
                })
                .collect();
            lists
                .iter()
                .map(|(id, list)| {
                    let entries = lists.iter().filter(|(_, l)| Arc::ptr_eq(l, list)).count();
                    // `lists` holds one more handle per entry.
                    assert_eq!(Arc::strong_count(list), 2 * entries, "node {}", id.index());
                    (*id, Arc::as_ptr(list))
                })
                .collect::<Vec<_>>()
        };
        let cold = warm(&tree, &sigs, &mut cache);
        let stored = handles(&tree, &sigs, &cache);
        let root = tree.root();
        let only_child = tree.node(root).children[0];
        assert_eq!(
            tree.node(root).children.len(),
            1,
            "the source has one child"
        );
        assert!(
            Arc::ptr_eq(
                &cache.lookup(root, sigs.get(root)).expect("root").list,
                &cache
                    .lookup(only_child, sigs.get(only_child))
                    .expect("child")
                    .list
            ),
            "the root passes its only child's list through"
        );

        let request = RunRequest::new(&tree, &model, VariationMode::WithinDie, rule());
        let mut gov = Governor::governed(Budget::unlimited(), request.cascade.clone(), 0.0);
        let ctx = RunCtx::new(&request, &gov, false);
        let mut memo = Memo {
            sigs: &sigs,
            cache: &mut cache,
            run_sig: 0,
        };
        let (root_list, stats) =
            walk(&ctx, &mut gov, None, Some(&mut memo), None).expect("replay of the root");
        assert_eq!(stats.cache_hits, tree.len());
        let SolList::Shared(root_list) = root_list else {
            panic!("a root hit hands over the cached list")
        };
        let entry = cache.lookup(root, sigs.get(root));
        assert!(Arc::ptr_eq(&root_list, &entry.expect("root stored").list));
        drop(root_list);

        let replay = warm(&tree, &sigs, &mut cache);
        assert_eq!(replay.result.stats.cache_hits, tree.len());
        assert_eq!(replay.result.root_rat, cold.result.root_rat);
        assert_eq!(handles(&tree, &sigs, &cache), stored, "unedited replay");

        // Holding every old handle through the edited run keeps the
        // path's retired lists alive, so no new list can take one's
        // address.
        let held: Vec<_> = tree
            .postorder()
            .into_iter()
            .map(|id| Arc::clone(&cache.lookup(id, sigs.get(id)).expect("stored").list))
            .collect();
        let sink = tree.sinks().nth(5).expect("a sixth sink");
        tree.set_sink(sink, 12.5, -40.0);
        let path = sigs.update_path(&tree, sink);
        for &id in &path {
            cache.invalidate(id);
        }
        let edited = warm(&tree, &sigs, &mut cache);
        assert_eq!(edited.result.stats.cache_misses, path.len());
        drop(held);
        for ((id, before), (_, after)) in stored.iter().zip(handles(&tree, &sigs, &cache)) {
            assert_eq!(
                *before == after,
                !path.contains(id),
                "node {}: only the edited path is stored anew",
                id.index()
            );
        }
    }
}
