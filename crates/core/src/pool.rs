//! Parallel execution layer: the batch API ([`optimize_batch`]).
//! Hermetic std-only threading (`std::thread::scope`) — no external
//! runtime.
//!
//! # Threading model and determinism contract
//!
//! Independent [`RunRequest`]s (net + rule + budget) are pulled off a
//! shared atomic cursor by a fixed worker pool, and each is one call of
//! [`crate::dp::run`] on the worker that claimed it. Result `i` always
//! corresponds to request `i`, and each run is the engine's one
//! sequential walk, so a batch at any `jobs` is bit-identical to the
//! same requests run in a serial loop — winning design, root RAT bits,
//! counters and degradation report alike. A governed request degrades,
//! or a strict one errors, exactly as it would alone: each run owns its
//! governor, and nothing is shared between requests but the read-only
//! inputs.
//!
//! This is the engine's one parallelism seam. A forest of clock
//! subtrees shards across it through [`RunRequest::with_hier`], and
//! the service layer drains consecutive optimize requests through the
//! same order-preserving pool.

use crate::dp::{run, RunControls, RunRequest, RunResult};
use crate::error::InsertionError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The machine's available parallelism (`1` when undetectable) — what
/// `varbuf serve --jobs 0` resolves to.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
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
    requests: &[RunRequest<'_>],
    jobs: usize,
) -> Vec<Result<RunResult, InsertionError>> {
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
    requests: &[RunRequest<'_>],
    jobs: usize,
) -> Vec<Result<RunResult, InsertionError>> {
    run_indexed(requests.len(), jobs, |i| {
        run(&requests[i], RunControls::default())
    })
}
