//! Parallel execution layer: the batch API ([`optimize_batch`]) and the
//! intra-tree scheduler behind [`DpOptions::jobs`]. Hermetic std-only
//! threading (`std::thread::scope`) — no external runtime.
//!
//! # Threading model
//!
//! Two independent tiers:
//!
//! * **Batch** ([`optimize_batch`]): independent requests (net + rule +
//!   budget) are pulled off a shared atomic cursor by a fixed worker
//!   pool. Result `i` always corresponds to request `i`, and each
//!   request runs with one intra-tree worker, so a batch at any `jobs`
//!   is bit-identical to the same requests run in a serial loop.
//! * **Intra-tree** ([`DpOptions::jobs`] > 1): independent sibling
//!   subtrees of the RC tree are solved concurrently. Dependencies are
//!   tracked with per-node pending-children counters; a node becomes
//!   ready when its last child finishes, and the worker that finished
//!   that child continues with the parent (chain locality). Children
//!   are always joined in fixed child order, so merge results are
//!   bit-identical to the sequential engine.
//!
//! # Determinism contract and governor reconciliation
//!
//! The intra-tree phase is *speculative*: workers run against a frozen
//! snapshot of the governor (rule, epsilon, budget, clock origin) and
//! never mutate it. Any event that would require governor accounting —
//! a candidate list over the soft solution cap, wall clock past the
//! soft time limit, a poisoned candidate the sanitizer would drop —
//! raises *pressure*: the phase is abandoned wholesale and the run
//! redone sequentially under the real, untouched governor. Degraded
//! runs therefore reconcile to the sequential engine by construction:
//! the parallel engine only ever commits results for runs the governor
//! would have left pristine, and those are bit-identical by the fixed
//! join order. Strict-mode capacity breaches are node-local and
//! deterministic; the breach at the smallest postorder position is
//! reported, which is exactly the error the sequential engine hits
//! first. Wall-clock–triggered outcomes (strict time errors, governed
//! time degradations) remain timing-dependent, as they already are
//! between two sequential runs on different machines.
//!
//! Runs that are ineligible for the speculative phase fall back to one
//! thread silently: fault injection active, a memo or a cut plan (the
//! engine walk replays and splices), a scripted [`Clock`] (reads are
//! order-dependent), or a governed budget with finite memory limits
//! (live-byte accounting is order-dependent).
//!
//! [`Clock`]: crate::governor::Clock

use crate::dp::{
    fallback_cascade, optimize_strict, process_node, run_governed, DpOptions, EngineInterrupt,
    GovernedResult, RunControls, RunCtx, SolPool, Supervisor, WireSizing,
};
use crate::error::InsertionError;
use crate::governor::{Admission, Budget, Governor};
use crate::hier::HierOptions;
use crate::metrics::DpStats;
use crate::prune::PruningRule;
use crate::solution::StatSolution;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use varbuf_rctree::{NodeId, RoutingTree};
use varbuf_variation::{ProcessModel, VariationMode};

/// The machine's available parallelism (`1` when undetectable) — what
/// the CLI's `--jobs 0` resolves to.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One independent optimization request for [`optimize_batch`].
///
/// Strict requests (`strict == true`) take their limits from
/// `options` (the legacy caps) and surface breaches as typed errors;
/// governed requests degrade within `budget`. Both carry a
/// [`Degradation`](crate::governor::Degradation) report.
pub struct BatchRequest<'a> {
    /// The net to optimize.
    pub tree: &'a RoutingTree,
    /// Process-variation model.
    pub model: &'a ProcessModel,
    /// Variation categories the solution forms carry.
    pub mode: VariationMode,
    /// Primary pruning rule; governed requests start their fallback
    /// cascade here.
    pub rule: Arc<dyn PruningRule>,
    /// Wire-width choice set.
    pub sizing: WireSizing,
    /// Engine knobs (including intra-tree `jobs`, forced to 1 inside a
    /// multi-worker batch).
    pub options: DpOptions,
    /// Resource budget for governed requests.
    pub budget: Budget,
    /// Strict (typed errors on breach) vs governed (degrade) policy.
    pub strict: bool,
    /// When set, governed requests route through the hierarchical
    /// engine ([`crate::hier::optimize_hier`]) with these decomposition
    /// knobs; strict requests ignore it. This is how a forest of
    /// clock subtrees shards across the batch pool at full-chip scale.
    pub hier: Option<HierOptions>,
}

impl<'a> BatchRequest<'a> {
    /// A governed request with default sizing, options, and an
    /// unlimited budget.
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
            rule,
            sizing: WireSizing::single(),
            options: DpOptions::default(),
            budget: Budget::unlimited(),
            strict: false,
            hier: None,
        }
    }

    /// Routes this request through the hierarchical engine.
    #[must_use]
    pub fn with_hier(mut self, hier: HierOptions) -> Self {
        self.hier = Some(hier);
        self
    }

    fn run(&self, inner_jobs: Option<usize>) -> Result<GovernedResult, InsertionError> {
        let mut options = self.options;
        if let Some(jobs) = inner_jobs {
            options.jobs = jobs;
        }
        if self.strict {
            return optimize_strict(
                self.tree,
                self.model,
                self.mode,
                Arc::clone(&self.rule),
                &self.sizing,
                &options,
            );
        }
        run_governed(
            self.tree,
            self.model,
            self.mode,
            fallback_cascade(Arc::clone(&self.rule)),
            &self.sizing,
            &options,
            self.hier.as_ref(),
            &self.budget,
            RunControls::default(),
            None,
        )
        .map(crate::hier::HierResult::into_governed)
    }
}

/// Order-preserving parallel map over `0..n`: result `i` is `f(i)`,
/// independent of `jobs`. The shared-atomic-cursor worker pool behind
/// both [`optimize_batch`] and the service layer's request drain.
pub(crate) fn run_indexed<R, F>(n: usize, jobs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let jobs = jobs.max(1).min(n.max(1));
    if jobs == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let out = f(i);
        *slots[i].lock().expect("result slot") = Some(out);
    };
    std::thread::scope(|s| {
        // `work` only captures shared references, so it is `Copy` and
        // each spawn gets its own copy.
        for _ in 1..jobs {
            s.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot")
                .expect("every index completed")
        })
        .collect()
}

/// Fans independent optimization requests across `jobs` workers.
///
/// Result `i` always corresponds to `requests[i]`. With `jobs > 1`
/// each request runs with one intra-tree worker (the batch already
/// saturates the pool; nesting would oversubscribe), so the output is
/// bit-identical to running the requests in a serial loop.
/// `jobs` beyond the host's available parallelism is clamped (an
/// oversubscribed pool only adds contention); use
/// [`optimize_batch_forced`] to probe the pool machinery regardless.
#[must_use]
pub fn optimize_batch(
    requests: &[BatchRequest<'_>],
    jobs: usize,
) -> Vec<Result<GovernedResult, InsertionError>> {
    optimize_batch_with(requests, jobs.min(default_jobs()))
}

/// [`optimize_batch`] without the available-parallelism clamp: spawns
/// exactly `min(jobs, requests.len())` workers even on a host with
/// fewer hardware threads. The output is bit-identical to
/// [`optimize_batch`] either way (order-preserving result slots); this
/// exists so determinism tests and pool diagnostics exercise the
/// multi-worker path on any machine.
#[must_use]
pub fn optimize_batch_forced(
    requests: &[BatchRequest<'_>],
    jobs: usize,
) -> Vec<Result<GovernedResult, InsertionError>> {
    optimize_batch_with(requests, jobs)
}

fn optimize_batch_with(
    requests: &[BatchRequest<'_>],
    jobs: usize,
) -> Vec<Result<GovernedResult, InsertionError>> {
    let jobs = jobs.max(1).min(requests.len().max(1));
    if jobs == 1 {
        return requests.iter().map(|r| r.run(None)).collect();
    }
    run_indexed(requests.len(), jobs, |i| requests[i].run(Some(1)))
}

/// Frozen governor snapshot shared by the speculative phase's workers.
struct ProbeShared {
    /// Governor-relative elapsed time at phase start…
    base_elapsed: Duration,
    /// …plus this phase-local stopwatch (the governor's clock keeps
    /// counting through the phase either way).
    start: Instant,
    governed: bool,
    soft_time: Duration,
    hard_time: Duration,
    soft_solutions: usize,
    hard_solutions: usize,
    pressure: AtomicBool,
}

impl ProbeShared {
    fn elapsed(&self) -> Duration {
        self.base_elapsed + self.start.elapsed()
    }

    fn pressured(&self) -> bool {
        self.pressure.load(Ordering::Relaxed)
    }

    fn raise_pressure(&self) {
        self.pressure.store(true, Ordering::Relaxed);
    }
}

/// Per-worker supervisor for the speculative phase: read-only against
/// the frozen snapshot, raising [`EngineInterrupt::Pressure`] at the
/// first event the real governor would have had to account for.
struct ProbeSupervisor<'s> {
    shared: &'s ProbeShared,
    rule: Arc<dyn PruningRule>,
    epsilon: f64,
}

impl Supervisor for ProbeSupervisor<'_> {
    fn rule(&self) -> Arc<dyn PruningRule> {
        Arc::clone(&self.rule)
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn is_governed(&self) -> bool {
        self.shared.governed
    }

    fn panicking(&self) -> bool {
        false
    }

    fn check_time(&mut self) -> Result<(), EngineInterrupt> {
        if self.shared.pressured() {
            return Err(EngineInterrupt::Pressure);
        }
        let elapsed = self.shared.elapsed();
        if self.shared.governed {
            if elapsed > self.shared.soft_time {
                self.shared.raise_pressure();
                return Err(EngineInterrupt::Pressure);
            }
        } else if elapsed > self.shared.hard_time {
            return Err(EngineInterrupt::Error(InsertionError::TimeLimitExceeded {
                elapsed,
                limit: self.shared.hard_time,
            }));
        }
        Ok(())
    }

    fn admit(&mut self, node: NodeId, solutions: usize) -> Result<Admission, EngineInterrupt> {
        if self.shared.governed {
            if solutions > self.shared.soft_solutions {
                self.shared.raise_pressure();
                return Err(EngineInterrupt::Pressure);
            }
        } else if solutions > self.shared.hard_solutions {
            return Err(EngineInterrupt::Error(InsertionError::CapacityExceeded {
                node,
                solutions,
                limit: self.shared.hard_solutions,
            }));
        }
        Ok(Admission::Ok)
    }

    fn sanitize(
        &mut self,
        _node: NodeId,
        sols: &mut Vec<StatSolution>,
    ) -> Result<(), EngineInterrupt> {
        // Mirror of Governor::sanitize's predicate — but any candidate
        // it would drop is pressure, because the drop must be recorded
        // by the real governor.
        let clean = sols.iter().all(|s| {
            // Each variance is one ordered pass over the form's terms:
            // take it once.
            let (load_var, rat_var) = (s.load.variance(), s.rat.variance());
            s.load.mean().is_finite()
                && s.rat.mean().is_finite()
                && load_var.is_finite()
                && rat_var.is_finite()
                && load_var >= 0.0
                && rat_var >= 0.0
                && s.wire_pending.is_finite()
        });
        if clean {
            Ok(())
        } else {
            self.shared.raise_pressure();
            Err(EngineInterrupt::Pressure)
        }
    }

    fn note_memory(&mut self, _stored: &[StatSolution], _freed: usize) {
        // Eligibility guarantees memory budgets are unlimited, so the
        // estimate can never trigger anything.
    }
}

/// Dependency-counter scheduler shared by the phase's workers.
struct Scheduler {
    /// Initially the leaves; interior nodes are handed directly to the
    /// worker that completed their last child.
    queue: Mutex<VecDeque<NodeId>>,
    cv: Condvar,
    done: AtomicUsize,
    total: usize,
    /// Smallest postorder position with a recorded strict error
    /// (`usize::MAX` = none) — nodes at or past it are skipped.
    err_pos: AtomicUsize,
    error: Mutex<Option<(usize, InsertionError)>>,
}

impl Scheduler {
    fn next_ready(&self, shared: &ProbeShared) -> Option<NodeId> {
        let mut q = self.queue.lock().expect("queue lock");
        loop {
            if shared.pressured() || self.done.load(Ordering::Acquire) >= self.total {
                return None;
            }
            if let Some(id) = q.pop_front() {
                return Some(id);
            }
            q = self.cv.wait(q).expect("queue lock");
        }
    }

    fn skip(&self, pos: usize) -> bool {
        pos >= self.err_pos.load(Ordering::Relaxed)
    }

    fn record_error(&self, pos: usize, e: InsertionError) {
        let mut slot = self.error.lock().expect("error lock");
        if slot.as_ref().is_none_or(|(p, _)| pos < *p) {
            *slot = Some((pos, e));
            self.err_pos.store(pos, Ordering::Relaxed);
        }
    }

    /// Stores a finished node's list and hands its parent to this
    /// worker if that completed the parent's last dependency.
    fn complete(
        &self,
        tree: &RoutingTree,
        id: NodeId,
        sols: Vec<StatSolution>,
        slots: &[Mutex<Option<Vec<StatSolution>>>],
        pending: &[AtomicUsize],
        next: &mut Option<NodeId>,
    ) {
        *slots[id.index()].lock().expect("slot lock") = Some(sols);
        let finished = self.done.fetch_add(1, Ordering::AcqRel) + 1;
        if let Some(p) = tree.node(id).parent {
            if pending[p.index()].fetch_sub(1, Ordering::AcqRel) == 1 {
                *next = Some(p);
            }
        }
        if finished == self.total {
            self.cv.notify_all();
        }
    }

    fn wake_all(&self) {
        self.cv.notify_all();
    }
}

/// The speculative intra-tree phase. `None` means the run is
/// ineligible or aborted on pressure — the caller falls through to the
/// sequential engine with the governor untouched. `Some(Ok)` carries
/// the root's candidate list plus worker-merged stats; `Some(Err)` is
/// a deterministic strict-mode error (smallest postorder position).
#[allow(clippy::type_complexity)]
pub(crate) fn try_parallel_tree(
    ctx: &RunCtx<'_>,
    options: &DpOptions,
    governor: &Governor,
) -> Option<Result<(Vec<StatSolution>, DpStats), InsertionError>> {
    let tree = ctx.tree;
    if options.effective_jobs() <= 1
        || !governor.uses_real_clock()
        || !governor.pristine()
        || governor.cancellable()
    {
        // Cancellable runs stay sequential: the probe supervisor never
        // polls the token, so a watchdog could overrun unobserved for
        // the whole speculative phase.
        return None;
    }
    let budget = governor.budget();
    if governor.is_governed()
        && (budget.soft_mem_bytes != usize::MAX || budget.hard_mem_bytes != usize::MAX)
    {
        // Live-byte accounting is order-dependent; leave it sequential.
        return None;
    }
    let rule = governor.active_rule();
    let epsilon = governor.epsilon();
    let shared = ProbeShared {
        base_elapsed: governor.elapsed(),
        start: Instant::now(),
        governed: governor.is_governed(),
        soft_time: budget.soft_time,
        hard_time: budget.hard_time,
        soft_solutions: budget.soft_solutions,
        hard_solutions: budget.hard_solutions,
        pressure: AtomicBool::new(false),
    };

    let order = tree.postorder();
    let n = tree.len();
    let mut pos = vec![0usize; n];
    for (i, id) in order.iter().enumerate() {
        pos[id.index()] = i;
    }
    let pending: Vec<AtomicUsize> = (0..n)
        .map(|i| AtomicUsize::new(tree.node(NodeId(i as u32)).children.len()))
        .collect();
    let slots: Vec<Mutex<Option<Vec<StatSolution>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let leaves: VecDeque<NodeId> = order
        .iter()
        .copied()
        .filter(|id| tree.node(*id).children.is_empty())
        .collect();
    let sched = Scheduler {
        queue: Mutex::new(leaves),
        cv: Condvar::new(),
        done: AtomicUsize::new(0),
        total: n,
        err_pos: AtomicUsize::new(usize::MAX),
        error: Mutex::new(None),
    };

    let workers = options.effective_jobs().min(n.max(1));
    let mut worker_stats: Vec<DpStats> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers - 1);
        for _ in 1..workers {
            let rule = Arc::clone(&rule);
            handles.push(
                s.spawn(|| worker(ctx, &shared, rule, epsilon, &sched, &pos, &pending, &slots)),
            );
        }
        worker_stats.push(worker(
            ctx,
            &shared,
            Arc::clone(&rule),
            epsilon,
            &sched,
            &pos,
            &pending,
            &slots,
        ));
        for h in handles {
            worker_stats.push(h.join().expect("parallel worker panicked"));
        }
    });

    if shared.pressured() {
        return None;
    }
    if let Some((_, e)) = sched.error.into_inner().expect("error lock") {
        return Some(Err(e));
    }
    let root_list = slots[tree.root().index()]
        .lock()
        .expect("slot lock")
        .take()
        .expect("root list computed");
    let mut stats = DpStats::default();
    for w in &worker_stats {
        stats.absorb(w);
    }
    stats.jobs_effective = options.effective_jobs();
    Some(Ok((root_list, stats)))
}

/// One worker of the speculative phase: pulls ready nodes, processes
/// them with the shared per-node DP body, and chains into parents it
/// unblocks.
#[allow(clippy::too_many_arguments)]
fn worker(
    ctx: &RunCtx<'_>,
    shared: &ProbeShared,
    rule: Arc<dyn PruningRule>,
    epsilon: f64,
    sched: &Scheduler,
    pos: &[usize],
    pending: &[AtomicUsize],
    slots: &[Mutex<Option<Vec<StatSolution>>>],
) -> DpStats {
    let tree = ctx.tree;
    let mut sup = ProbeSupervisor {
        shared,
        rule,
        epsilon,
    };
    let mut pool = SolPool::default();
    let mut stats = DpStats::default();
    let mut next: Option<NodeId> = None;
    loop {
        let id = match next.take() {
            Some(id) => id,
            None => match sched.next_ready(shared) {
                Some(id) => id,
                None => break,
            },
        };
        // Past a recorded error position nothing can lower the minimum
        // (ancestors only have larger positions): skip, but keep the
        // dependency counters flowing so the phase still drains.
        if sched.skip(pos[id.index()]) {
            sched.complete(tree, id, Vec::new(), slots, pending, &mut next);
            continue;
        }
        let children: Vec<Vec<StatSolution>> = tree
            .node(id)
            .children
            .iter()
            .map(|c| {
                slots[c.index()]
                    .lock()
                    .expect("slot lock")
                    .take()
                    .unwrap_or_default()
            })
            .collect();
        match process_node(ctx, &mut sup, id, children, None, &mut pool, &mut stats) {
            Ok(sols) => sched.complete(tree, id, sols, slots, pending, &mut next),
            Err(EngineInterrupt::Pressure) => {
                shared.raise_pressure();
                sched.wake_all();
                break;
            }
            Err(EngineInterrupt::Error(e)) => {
                sched.record_error(pos[id.index()], e);
                sched.complete(tree, id, Vec::new(), slots, pending, &mut next);
            }
        }
    }
    stats
}
