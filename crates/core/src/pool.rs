//! Parallel execution layer: the batch API ([`optimize_batch`]).
//! Hermetic std-only threading (`std::thread::scope`) — no external
//! runtime.
//!
//! # Threading model and determinism contract
//!
//! Independent requests (net + rule + budget) are pulled off a shared
//! atomic cursor by a fixed worker pool. Result `i` always corresponds
//! to request `i`, and each request runs the engine's one sequential
//! walk on the worker that claimed it, so a batch at any `jobs` is
//! bit-identical to the same requests run in a serial loop — winning
//! design, root RAT bits, counters and degradation report alike. A
//! governed request degrades, or a strict one errors, exactly as it
//! would alone: each run owns its governor, and nothing is shared
//! between requests but the read-only inputs.
//!
//! This is the engine's one parallelism seam. A forest of clock
//! subtrees shards across it through [`BatchRequest::with_hier`], and
//! the service layer drains consecutive optimize requests through the
//! same order-preserving pool.

use crate::dp::{
    fallback_cascade, optimize_strict, run_governed, DpOptions, GovernedResult, RunControls,
    WireSizing,
};
use crate::error::InsertionError;
use crate::governor::Budget;
use crate::hier::HierOptions;
use crate::prune::PruningRule;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use varbuf_rctree::RoutingTree;
use varbuf_variation::{ProcessModel, VariationMode};

/// The machine's available parallelism (`1` when undetectable) — what
/// `varbuf serve --jobs 0` resolves to.
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
    /// Engine knobs: caps, epsilon, root selection and the lazy-wire
    /// switch. Every request runs on one worker whatever the batch's
    /// `jobs`.
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

    fn run(&self) -> Result<GovernedResult, InsertionError> {
        if self.strict {
            return optimize_strict(
                self.tree,
                self.model,
                self.mode,
                Arc::clone(&self.rule),
                &self.sizing,
                &self.options,
            );
        }
        run_governed(
            self.tree,
            self.model,
            self.mode,
            fallback_cascade(Arc::clone(&self.rule)),
            &self.sizing,
            &self.options,
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
/// Result `i` always corresponds to `requests[i]`, and each request
/// runs on one worker, so the output is bit-identical to running the
/// requests in a serial loop. `jobs` beyond the host's available
/// parallelism is clamped (an oversubscribed pool only adds
/// contention); use [`optimize_batch_forced`] to probe the pool
/// machinery regardless.
#[must_use]
pub fn optimize_batch(
    requests: &[BatchRequest<'_>],
    jobs: usize,
) -> Vec<Result<GovernedResult, InsertionError>> {
    optimize_batch_forced(requests, jobs.min(default_jobs()))
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
    run_indexed(requests.len(), jobs, |i| requests[i].run())
}
