//! Resident optimization service: session store, hardened per-request
//! execution envelope, and admission control.
//!
//! The batch binary answers one net per process; the service keeps nets
//! *resident* — a [`Service`] owns a generational-arena [`SessionStore`]
//! whose [`SessionHandle`]s carry generation counters, so a handle that
//! outlives its session is a typed [`RequestError::StaleHandle`], never
//! a wrong answer against whatever net now occupies the slot. Residency
//! is what makes the service worth having: a session parses its net and
//! builds its `ProcessModel` once, and its solution cache replays every
//! clean subtree across requests.
//!
//! A resident process is only as good as its worst request, so every
//! optimize request runs inside a hardened envelope:
//!
//! * **Crash isolation** — the DP runs under `catch_unwind`; a panic
//!   mid-request becomes a structured [`RequestError::Internal`]
//!   response and poisons *only* the session it ran against (the crash
//!   may have observed that session's state mid-mutation; nothing else).
//! * **Watchdog deadline** — each request's governor is armed with a
//!   [`CancelToken`] plus the service watchdog; a `Budget` hard
//!   wall-clock breach completes best-so-far as before, and a watchdog
//!   overrun comes back `cancelled` with its partial
//!   [`Degradation`](crate::governor::Degradation) report.
//! * **Admission control** — queued work is costed (DP nodes); past the
//!   hard queue budget requests are shed with a deterministic
//!   retry-after ([`RequestError::Overloaded`]), and between the soft
//!   and hard budgets requests are *admitted but tightened* — their
//!   budgets halved so they degrade earlier (degrade-before-drop).
//!
//! Requests are submitted in order and drained through the same
//! order-preserving worker pool as [`crate::pool::optimize_batch`], so a
//! drain at any `jobs` is bit-identical to a serial drain.
//!
//! The line protocol (`varbuf serve`) is a thin rendering of this
//! module: [`parse_line`] turns a protocol line into a [`Command`], and
//! every [`Response`] renders as a single deterministic line (no
//! wall-clock values), which is what makes the isolation suite's
//! byte-compare meaningful.

use crate::cache::{run_signature, NodeSigs, SolutionCache};
use crate::dp::{
    fallback_cascade, optimize_governed_detailed, optimize_incremental, DpOptions, RunControls,
    WireSizing,
};
use crate::error::{InsertionError, RequestError};
use crate::faultinject::{FaultInjector, FaultPlan, RequestFault, RequestFaults, SkewedClock};
use crate::governor::{Budget, CancelToken};
use crate::hier::{optimize_hier, HierOptions, HierResult};
use crate::prune::{FourParam, OneParam, PruningRule, TwoParam};
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;
use varbuf_rctree::generate::{generate_benchmark, generate_htree, BenchmarkSpec, HTreeSpec};
use varbuf_rctree::tree::NodeKind;
use varbuf_rctree::{NodeId, RoutingTree};
use varbuf_variation::{BufferLibrary, ProcessModel, SpatialKind, VariationBudgets, VariationMode};

/// Largest net accepted through the protocol's `open` spec — a parse
/// guard, not a resource policy (that is the queue budget's job).
const MAX_SPEC_SINKS: usize = 65_536;

/// Service-wide policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Resident-session cap; `open` past it is a typed error.
    pub max_sessions: usize,
    /// Queued-cost level (DP nodes) above which newly admitted requests
    /// get tightened budgets (degrade-before-drop).
    pub queue_soft_cost: u64,
    /// Queued-cost level above which new optimize requests are shed
    /// with [`RequestError::Overloaded`].
    pub queue_hard_cost: u64,
    /// Baseline per-request budget (a request may override it).
    pub budget: Budget,
    /// Per-request watchdog deadline on the governor's clock.
    pub watchdog: Option<Duration>,
    /// Whether `inject` commands are honored.
    pub allow_faults: bool,
    /// Whether sessions keep their epoch-scoped solution cache armed
    /// (the incremental re-optimization path). Off (`--no-cache`),
    /// every optimize runs cold.
    pub use_cache: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_sessions: 256,
            queue_soft_cost: 4_096,
            queue_hard_cost: 16_384,
            budget: Budget::unlimited(),
            watchdog: None,
            allow_faults: false,
            use_cache: true,
        }
    }
}

/// A client's reference to a resident session: arena index plus the
/// generation the slot had when the session was opened. Renders as
/// `s<index>.<generation>` in the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionHandle {
    /// Arena slot index.
    pub index: u32,
    /// Slot generation at open time.
    pub generation: u32,
}

impl fmt::Display for SessionHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}.{}", self.index, self.generation)
    }
}

impl FromStr for SessionHandle {
    type Err = RequestError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || RequestError::Malformed {
            message: format!("bad session handle `{s}` (expected s<index>.<generation>)"),
        };
        let rest = s.strip_prefix('s').ok_or_else(bad)?;
        let (idx, generation) = rest.split_once('.').ok_or_else(bad)?;
        Ok(SessionHandle {
            index: idx.parse().map_err(|_| bad())?,
            generation: generation.parse().map_err(|_| bad())?,
        })
    }
}

/// One resident net: the routing tree plus its process model, the
/// per-node content signatures that detect what an `edit` dirtied, and
/// the epoch-scoped solution cache the incremental engine replays.
#[derive(Debug)]
pub struct Session {
    tree: RoutingTree,
    model: ProcessModel,
    poisoned: bool,
    /// Spatial structure the model was built with — needed to rebuild
    /// it on `edit lib` without re-asking the client.
    spatial: SpatialKind,
    /// Bumped by every `edit`; purely observational (rendered in the
    /// `ok edit` line so scripts can assert mutation ordering).
    epoch: u64,
    /// Bumped only by model-wide edits (`edit lib`); folded into the
    /// run signature so stale entries can never replay across a
    /// library swap.
    model_epoch: u64,
    sigs: NodeSigs,
    /// `drain` holds `&Session` across the worker pool, so the cache
    /// sits behind a mutex; runs against the same session serialize on
    /// it (distinct sessions still parallelize).
    cache: Mutex<SolutionCache>,
}

impl Session {
    /// The session's routing tree.
    #[must_use]
    pub fn tree(&self) -> &RoutingTree {
        &self.tree
    }

    /// Whether a contained crash has poisoned this session.
    #[must_use]
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Mutation epoch: 0 at open, +1 per applied `edit`.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Nodes with a live (replayable) cache entry right now.
    #[must_use]
    pub fn cached_nodes(&self) -> usize {
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .live_entries()
    }
}

#[derive(Debug)]
struct Slot {
    generation: u32,
    session: Option<Session>,
}

/// Generational-arena store of resident sessions.
///
/// Slots are reused through a free list; each `close` bumps the slot's
/// generation, so handles issued against the old occupant can never
/// resolve to the new one. Generations are monotone per slot.
#[derive(Debug)]
pub struct SessionStore {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    max_sessions: usize,
}

impl SessionStore {
    fn new(max_sessions: usize) -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            max_sessions,
        }
    }

    /// Number of live (open) sessions.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Number of arena slots ever allocated.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Current generation of a slot (`None` if never allocated) —
    /// monotone over the slot's lifetime.
    #[must_use]
    pub fn generation(&self, index: u32) -> Option<u32> {
        self.slots.get(index as usize).map(|s| s.generation)
    }

    fn open(
        &mut self,
        tree: RoutingTree,
        spatial: SpatialKind,
    ) -> Result<SessionHandle, RequestError> {
        if self.live >= self.max_sessions {
            return Err(RequestError::SessionLimit {
                limit: self.max_sessions,
            });
        }
        tree.validate().map_err(InsertionError::from)?;
        if tree.sink_count() == 0 {
            return Err(InsertionError::NoSinks.into());
        }
        let model = ProcessModel::paper_defaults(tree.bounding_box(), spatial);
        let sigs = NodeSigs::build(&tree);
        let session = Session {
            tree,
            model,
            poisoned: false,
            spatial,
            epoch: 0,
            model_epoch: 0,
            sigs,
            cache: Mutex::new(SolutionCache::new()),
        };
        let index = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize].session = Some(session);
                i
            }
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    session: Some(session),
                });
                u32::try_from(self.slots.len() - 1).expect("slot index fits u32")
            }
        };
        self.live += 1;
        Ok(SessionHandle {
            index,
            generation: self.slots[index as usize].generation,
        })
    }

    /// The live session behind `handle`, poisoned or not; `None` on any
    /// index/generation mismatch.
    fn slot(&self, handle: SessionHandle) -> Option<&Session> {
        let slot = self.slots.get(handle.index as usize)?;
        if slot.generation != handle.generation {
            return None;
        }
        slot.session.as_ref()
    }

    /// Resolves a handle to its session, rejecting stale handles and
    /// poisoned sessions with typed errors.
    pub fn resolve(&self, handle: SessionHandle) -> Result<&Session, RequestError> {
        let session = self
            .slot(handle)
            .ok_or(RequestError::StaleHandle { handle })?;
        if session.poisoned {
            return Err(RequestError::SessionPoisoned { handle });
        }
        Ok(session)
    }

    /// Mutable variant of [`resolve`](Self::resolve) — the edit path.
    fn resolve_mut(&mut self, handle: SessionHandle) -> Result<&mut Session, RequestError> {
        let slot = self
            .slots
            .get_mut(handle.index as usize)
            .filter(|s| s.generation == handle.generation);
        let session = slot
            .and_then(|s| s.session.as_mut())
            .ok_or(RequestError::StaleHandle { handle })?;
        if session.poisoned {
            return Err(RequestError::SessionPoisoned { handle });
        }
        Ok(session)
    }

    fn close(&mut self, handle: SessionHandle) -> Result<(), RequestError> {
        // Close works on poisoned sessions too — it is the only way out.
        if self.slot(handle).is_none() {
            return Err(RequestError::StaleHandle { handle });
        }
        let slot = &mut self.slots[handle.index as usize];
        slot.session = None;
        slot.generation += 1;
        self.free.push(handle.index);
        self.live -= 1;
        Ok(())
    }

    fn poison(&mut self, handle: SessionHandle) {
        if let Some(slot) = self.slots.get_mut(handle.index as usize) {
            if slot.generation == handle.generation {
                if let Some(s) = slot.session.as_mut() {
                    s.poisoned = true;
                }
            }
        }
    }
}

/// Which pruning rule an optimize request starts its cascade from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuleChoice {
    /// The paper's two-parameter rule (the default).
    #[default]
    TwoP,
    /// The four-parameter rule.
    FourP,
    /// The one-parameter percentile rule.
    OneP,
}

impl RuleChoice {
    fn build(self) -> Arc<dyn PruningRule> {
        match self {
            RuleChoice::TwoP => Arc::new(TwoParam::default()),
            RuleChoice::FourP => Arc::new(FourParam::default()),
            RuleChoice::OneP => Arc::new(OneParam::default()),
        }
    }
}

/// Parameters of one optimize request.
#[derive(Debug, Clone, Copy)]
pub struct OptimizeParams {
    /// Variation mode (statistical only: D2D or WID).
    pub mode: VariationMode,
    /// Primary pruning rule.
    pub rule: RuleChoice,
    /// Per-request budget override (`None` = the service baseline).
    pub budget: Option<Budget>,
    /// When set, the request runs through the hierarchical engine
    /// (the `cts` verb; large resident clock trees). Hierarchical
    /// requests bypass the session solution cache.
    pub hier: Option<HierOptions>,
}

impl Default for OptimizeParams {
    fn default() -> Self {
        Self {
            mode: VariationMode::WithinDie,
            rule: RuleChoice::TwoP,
            budget: None,
            hier: None,
        }
    }
}

/// Which buffer library an `edit lib` swaps the session's model to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LibChoice {
    /// The full 65 nm library (the open-time default).
    Full,
    /// The single-buffer 65 nm library.
    Single,
}

/// One in-place mutation of a resident session's net or model.
///
/// Structural edits dirty exactly the edited node's root path (those
/// cache entries are invalidated; the rest of the tree replays);
/// `Lib` is model-wide, so it flushes the whole cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EditOp {
    /// Replace a sink's load capacitance (fF).
    SinkCap {
        /// Target node index.
        node: u32,
        /// New load capacitance, fF (finite, non-negative).
        capacitance: f64,
    },
    /// Replace a sink's required arrival time (ps).
    SinkRat {
        /// Target node index.
        node: u32,
        /// New required arrival time, ps (finite).
        required_arrival: f64,
    },
    /// Replace the wire length of a node's parent edge (µm).
    Wire {
        /// Target node index (not the root — it has no parent edge).
        node: u32,
        /// New edge length, µm (finite, non-negative).
        length: f64,
    },
    /// Swap the session's buffer library, rebuilding the model.
    Lib(LibChoice),
}

/// One service request, in submission order.
#[derive(Debug)]
pub enum Request {
    /// Open a session over a net (the tree is validated here, so
    /// optimize never sees an invalid one).
    Open {
        /// The net to make resident.
        tree: Box<RoutingTree>,
        /// Spatial-correlation structure of the session's model.
        spatial: SpatialKind,
    },
    /// Close a session (works on poisoned sessions; frees the slot and
    /// bumps its generation).
    Close {
        /// The session to close.
        handle: SessionHandle,
    },
    /// Run the variation-aware DP against a resident session.
    Optimize {
        /// The session to optimize.
        handle: SessionHandle,
        /// Run parameters.
        params: OptimizeParams,
    },
    /// Mutate a resident session in place (epoch bump + targeted cache
    /// invalidation; the next optimize replays clean subtrees).
    Edit {
        /// The session to mutate.
        handle: SessionHandle,
        /// The mutation.
        op: EditOp,
    },
    /// Structural summary of a session's net.
    Info {
        /// The session to describe.
        handle: SessionHandle,
    },
    /// Service counters.
    Stats,
    /// Liveness probe.
    Ping,
}

/// Service counters, rendered by the protocol's `stats` command.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Optimize requests executed (envelope entered), including ones
    /// that returned a typed error.
    pub served: u64,
    /// Optimize requests shed by admission control.
    pub shed: u64,
    /// Requests admitted with tightened budgets under queue pressure.
    pub tightened: u64,
    /// Panics contained by the execution envelope.
    pub panics_contained: u64,
    /// Requests cancelled by watchdog or token (best-so-far completion).
    pub cancelled: u64,
    /// Requests that completed with a degradation report.
    pub degraded: u64,
    /// Live sessions right now.
    pub open_sessions: usize,
    /// High-water mark of queued cost units.
    pub peak_queue_cost: u64,
    /// Nodes replayed from session solution caches across all served
    /// optimize requests.
    pub cache_hits: u64,
    /// Nodes the incremental engine recomputed (the dirty sets).
    pub cache_misses: u64,
    /// Cache entries invalidated by edits, flushes, and armed runs
    /// that degraded or crashed.
    pub cache_invalidations: u64,
}

/// One service response; renders as a single deterministic protocol
/// line (never any wall-clock value, so identical runs byte-compare).
#[derive(Debug)]
pub enum Response {
    /// Session opened.
    Opened {
        /// The new session's handle.
        handle: SessionHandle,
        /// Node count of the resident net.
        nodes: usize,
        /// Sink count of the resident net.
        sinks: usize,
    },
    /// Session closed.
    Closed {
        /// The handle that was closed.
        handle: SessionHandle,
    },
    /// Optimize result.
    Optimized {
        /// The request's id (assigned at submission, in order).
        id: u64,
        /// Session it ran against.
        handle: SessionHandle,
        /// Buffers inserted.
        buffers: usize,
        /// Root RAT mean, ps.
        rat_mean: f64,
        /// Root RAT standard deviation, ps.
        rat_sigma: f64,
        /// Whether the governor degraded the run.
        degraded: bool,
        /// Whether the run was cancelled (watchdog) and completed
        /// best-so-far.
        cancelled: bool,
        /// Whether admission control tightened this request's budget.
        tightened: bool,
        /// Rule fallbacks recorded.
        fallbacks: usize,
        /// List truncations recorded.
        truncations: usize,
    },
    /// Session mutated in place.
    Edited {
        /// The mutated session.
        handle: SessionHandle,
        /// The session's mutation epoch after this edit.
        epoch: u64,
        /// Nodes this edit dirtied: the edited node's root path for
        /// structural edits, the whole net for `edit lib`.
        dirty: u64,
    },
    /// Net summary.
    Info {
        /// The described session.
        handle: SessionHandle,
        /// Net name.
        name: String,
        /// Node count.
        nodes: usize,
        /// Sink count.
        sinks: usize,
        /// Candidate-site count.
        candidates: usize,
    },
    /// Service counters.
    Stats(ServiceStats),
    /// A fault was armed for a request id.
    Injected {
        /// The armed request id.
        id: u64,
    },
    /// Liveness answer.
    Pong,
    /// The request failed with a typed error.
    Error(RequestError),
}

impl Response {
    /// Whether this is an error response.
    #[must_use]
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error(_))
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = u8::from;
        match self {
            Response::Opened {
                handle,
                nodes,
                sinks,
            } => write!(f, "ok open session={handle} nodes={nodes} sinks={sinks}"),
            Response::Closed { handle } => write!(f, "ok close session={handle}"),
            Response::Optimized {
                id,
                handle,
                buffers,
                rat_mean,
                rat_sigma,
                degraded,
                cancelled,
                tightened,
                fallbacks,
                truncations,
            } => write!(
                f,
                "ok opt id={id} session={handle} buffers={buffers} rat={rat_mean:.6} \
                 sigma={rat_sigma:.6} degraded={} cancelled={} tightened={} \
                 fallbacks={fallbacks} truncations={truncations}",
                b(*degraded),
                b(*cancelled),
                b(*tightened),
            ),
            Response::Edited {
                handle,
                epoch,
                dirty,
            } => write!(f, "ok edit session={handle} epoch={epoch} dirty={dirty}"),
            Response::Info {
                handle,
                name,
                nodes,
                sinks,
                candidates,
            } => write!(
                f,
                "ok info session={handle} name={name} nodes={nodes} sinks={sinks} \
                 candidates={candidates}"
            ),
            Response::Stats(s) => write!(
                f,
                "ok stats sessions={} served={} shed={} tightened={} panics={} cancelled={} \
                 degraded={} peak_queue={} cache_hits={} cache_misses={} cache_inval={}",
                s.open_sessions,
                s.served,
                s.shed,
                s.tightened,
                s.panics_contained,
                s.cancelled,
                s.degraded,
                s.peak_queue_cost,
                s.cache_hits,
                s.cache_misses,
                s.cache_invalidations,
            ),
            Response::Injected { id } => write!(f, "ok inject id={id}"),
            Response::Pong => write!(f, "ok pong"),
            Response::Error(e) => write!(f, "err {} {e}", e.kind()),
        }
    }
}

/// A queued submission: either a request still to execute, or a
/// response admission control already settled (a shed).
#[derive(Debug)]
enum Queued {
    Run {
        request: Request,
        /// Optimize-request id (`None` for control-plane requests).
        id: Option<u64>,
        tightened: bool,
    },
    Ready(Box<Response>),
}

/// What one optimize envelope produced, owned so the store borrow can
/// end before poisons and counters are applied.
struct OptOutcome {
    handle: SessionHandle,
    response: Response,
    poison: bool,
    /// Solution-cache deltas this envelope produced (0 on cold runs).
    cache_hits: u64,
    cache_misses: u64,
    cache_invalidations: u64,
}

/// The long-lived optimization service.
#[derive(Debug)]
pub struct Service {
    config: ServiceConfig,
    store: SessionStore,
    queue: VecDeque<Queued>,
    queued_cost: u64,
    next_id: u64,
    faults: RequestFaults,
    stats: ServiceStats,
}

impl Service {
    /// A service with the given policy.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        Self {
            store: SessionStore::new(config.max_sessions),
            config,
            queue: VecDeque::new(),
            queued_cost: 0,
            next_id: 0,
            faults: RequestFaults::new(),
            stats: ServiceStats::default(),
        }
    }

    /// The service's policy.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The session store (read-only; tests assert leak-freedom and
    /// generation monotonicity through it).
    #[must_use]
    pub fn store(&self) -> &SessionStore {
        &self.store
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let mut s = self.stats;
        s.open_sessions = self.store.live();
        s
    }

    /// Queued (not yet drained) submissions.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Cost units currently queued.
    #[must_use]
    pub fn queued_cost(&self) -> u64 {
        self.queued_cost
    }

    /// Arms a request-scoped fault for the optimize request with id
    /// `id` (ids are assigned in submission order, starting at 1).
    pub fn inject(&mut self, id: u64, fault: RequestFault) -> Response {
        if !self.config.allow_faults {
            return Response::Error(RequestError::FaultsDisabled);
        }
        self.faults.arm(id, fault);
        Response::Injected { id }
    }

    /// Cost of an optimize request in queue-budget units: the DP's work
    /// scales with the resident net's node count. Unresolvable handles
    /// cost nothing — their typed error is settled at execution.
    fn cost_of(&self, handle: SessionHandle) -> u64 {
        self.store.slot(handle).map_or(0, |s| s.tree.len() as u64)
    }

    /// Submits a request to the queue. Control-plane requests (open,
    /// close, info, stats, ping) are always admitted at zero cost;
    /// optimize requests pass admission control and may be shed.
    /// Returns the optimize-request id, if one was assigned.
    pub fn submit(&mut self, request: Request) -> Option<u64> {
        let Request::Optimize { handle, .. } = &request else {
            self.queue.push_back(Queued::Run {
                request,
                id: None,
                tightened: false,
            });
            return None;
        };
        self.next_id += 1;
        let id = self.next_id;
        let cost = self.cost_of(*handle);
        if self.queued_cost.saturating_add(cost) > self.config.queue_hard_cost {
            self.stats.shed += 1;
            let retry_after = Duration::from_millis(self.queued_cost / 100 + 1);
            self.queue.push_back(Queued::Ready(Box::new(Response::Error(
                RequestError::Overloaded {
                    queued_cost: self.queued_cost,
                    limit: self.config.queue_hard_cost,
                    retry_after,
                },
            ))));
            return Some(id);
        }
        let tightened = self.queued_cost > self.config.queue_soft_cost;
        if tightened {
            self.stats.tightened += 1;
        }
        self.queued_cost += cost;
        self.stats.peak_queue_cost = self.stats.peak_queue_cost.max(self.queued_cost);
        self.queue.push_back(Queued::Run {
            request,
            id: Some(id),
            tightened,
        });
        Some(id)
    }

    /// Submits one request and drains immediately — the interactive
    /// (non-pipelined) path.
    pub fn execute(&mut self, request: Request) -> Response {
        self.submit(request);
        self.drain(1)
            .pop()
            .expect("one submission yields one response")
    }

    /// Executes every queued submission, in submission order, and
    /// returns their responses in the same order.
    ///
    /// Runs of consecutive optimize requests are fanned across `jobs`
    /// workers (each request sequential inside); requests are
    /// independent, so the result is bit-identical to `jobs = 1`.
    pub fn drain(&mut self, jobs: usize) -> Vec<Response> {
        let mut items: Vec<Queued> = self.queue.drain(..).collect();
        self.queued_cost = 0;
        let mut out = Vec::with_capacity(items.len());
        let mut batch: Vec<(u64, SessionHandle, OptimizeParams, bool)> = Vec::new();
        for q in items.drain(..) {
            match q {
                Queued::Run {
                    request: Request::Optimize { handle, params },
                    id,
                    tightened,
                } => {
                    batch.push((
                        id.expect("optimize always has an id"),
                        handle,
                        params,
                        tightened,
                    ));
                }
                other => {
                    if !batch.is_empty() {
                        out.extend(self.run_optimize_batch(std::mem::take(&mut batch), jobs));
                    }
                    match other {
                        Queued::Ready(r) => out.push(*r),
                        Queued::Run { request, .. } => out.push(self.run_control(request)),
                    }
                }
            }
        }
        if !batch.is_empty() {
            out.extend(self.run_optimize_batch(batch, jobs));
        }
        out
    }

    /// Executes a control-plane request inline.
    fn run_control(&mut self, request: Request) -> Response {
        match request {
            Request::Open { tree, spatial } => {
                let (nodes, sinks) = (tree.len(), tree.sink_count());
                match self.store.open(*tree, spatial) {
                    Ok(handle) => Response::Opened {
                        handle,
                        nodes,
                        sinks,
                    },
                    Err(e) => Response::Error(e),
                }
            }
            Request::Close { handle } => match self.store.close(handle) {
                Ok(()) => Response::Closed { handle },
                Err(e) => Response::Error(e),
            },
            Request::Edit { handle, op } => self.apply_edit(handle, op),
            Request::Info { handle } => match self.store.resolve(handle) {
                Ok(session) => {
                    let t = session.tree();
                    Response::Info {
                        handle,
                        name: t.name().to_owned(),
                        nodes: t.len(),
                        sinks: t.sink_count(),
                        candidates: t.candidate_count(),
                    }
                }
                Err(e) => Response::Error(e),
            },
            Request::Stats => Response::Stats(self.stats()),
            Request::Ping => Response::Pong,
            Request::Optimize { .. } => unreachable!("optimize is batched, not control-plane"),
        }
    }

    /// Applies one in-place mutation: validate → mutate → resign the
    /// root path (or rebuild the model) → invalidate exactly the
    /// dirtied cache entries → bump the epoch.
    fn apply_edit(&mut self, handle: SessionHandle, op: EditOp) -> Response {
        let session = match self.store.resolve_mut(handle) {
            Ok(s) => s,
            Err(e) => return Response::Error(e),
        };
        // Pre-validate against this session's net so every bad edit is
        // a typed `Malformed`, never a tree-mutator assert.
        let check_node = |node: u32, len: usize| -> Result<NodeId, RequestError> {
            if (node as usize) < len {
                Ok(NodeId(node))
            } else {
                Err(malformed(format!(
                    "node {node} out of range (net has {len} nodes)"
                )))
            }
        };
        let len = session.tree.len();
        let dirtied = match op {
            EditOp::SinkCap { node, capacitance } => {
                let id = match check_node(node, len) {
                    Ok(id) => id,
                    Err(e) => return Response::Error(e),
                };
                let NodeKind::Sink {
                    required_arrival, ..
                } = session.tree.node(id).kind
                else {
                    return Response::Error(malformed(format!("node {node} is not a sink")));
                };
                if !(capacitance.is_finite() && capacitance >= 0.0) {
                    return Response::Error(malformed(
                        "sink capacitance must be finite and non-negative",
                    ));
                }
                session.tree.set_sink(id, capacitance, required_arrival);
                session.sigs.update_path(&session.tree, id)
            }
            EditOp::SinkRat {
                node,
                required_arrival,
            } => {
                let id = match check_node(node, len) {
                    Ok(id) => id,
                    Err(e) => return Response::Error(e),
                };
                let NodeKind::Sink { capacitance, .. } = session.tree.node(id).kind else {
                    return Response::Error(malformed(format!("node {node} is not a sink")));
                };
                if !required_arrival.is_finite() {
                    return Response::Error(malformed("sink RAT must be finite"));
                }
                session.tree.set_sink(id, capacitance, required_arrival);
                session.sigs.update_path(&session.tree, id)
            }
            EditOp::Wire { node, length } => {
                let id = match check_node(node, len) {
                    Ok(id) => id,
                    Err(e) => return Response::Error(e),
                };
                if id == session.tree.root() {
                    return Response::Error(malformed("the root has no parent edge"));
                }
                if !(length.is_finite() && length >= 0.0) {
                    return Response::Error(malformed(
                        "wire length must be finite and non-negative",
                    ));
                }
                session.tree.set_edge_length(id, length);
                session.sigs.update_path(&session.tree, id)
            }
            EditOp::Lib(choice) => {
                let library = match choice {
                    LibChoice::Full => BufferLibrary::default_65nm(),
                    LibChoice::Single => BufferLibrary::single_65nm(),
                };
                session.model = ProcessModel::new(
                    session.tree.bounding_box(),
                    session.spatial,
                    VariationBudgets::paper_5pct(),
                    library,
                );
                session.model_epoch += 1;
                Vec::new()
            }
        };
        let mut cache = session.cache.lock().unwrap_or_else(PoisonError::into_inner);
        let before = cache.invalidations();
        let dirty = if matches!(op, EditOp::Lib(_)) {
            cache.clear();
            len as u64
        } else {
            for &id in &dirtied {
                cache.invalidate(id);
            }
            dirtied.len() as u64
        };
        let invalidated = cache.invalidations() - before;
        drop(cache);
        session.epoch += 1;
        let epoch = session.epoch;
        self.stats.cache_invalidations += invalidated;
        Response::Edited {
            handle,
            epoch,
            dirty,
        }
    }

    /// Executes a contiguous run of optimize requests across `jobs`
    /// workers, then applies poisons and counters.
    fn run_optimize_batch(
        &mut self,
        batch: Vec<(u64, SessionHandle, OptimizeParams, bool)>,
        jobs: usize,
    ) -> Vec<Response> {
        // One-shot fault consumption needs `&mut self.faults`; do it
        // before the store borrow so the parallel region is read-only.
        let faults: Vec<Option<RequestFault>> =
            batch.iter().map(|&(id, ..)| self.faults.take(id)).collect();
        let config = self.config;
        let outcomes: Vec<OptOutcome> = {
            let store = &self.store;
            let prepared: Vec<_> = batch
                .iter()
                .zip(faults)
                .map(|(&(id, handle, params, tightened), fault)| {
                    let resolved = store.resolve(handle);
                    (id, handle, params, tightened, resolved, fault)
                })
                .collect();
            crate::pool::run_indexed(prepared.len(), jobs, |i| {
                let (id, handle, params, tightened, ref resolved, fault) = prepared[i];
                run_envelope(
                    &config,
                    id,
                    handle,
                    params,
                    tightened,
                    resolved.clone(),
                    fault,
                )
            })
        };
        let mut out = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            self.stats.served += 1;
            self.stats.cache_hits += outcome.cache_hits;
            self.stats.cache_misses += outcome.cache_misses;
            self.stats.cache_invalidations += outcome.cache_invalidations;
            if outcome.poison {
                self.store.poison(outcome.handle);
                self.stats.panics_contained += 1;
            }
            if let Response::Optimized {
                cancelled,
                degraded,
                ..
            } = &outcome.response
            {
                if *cancelled {
                    self.stats.cancelled += 1;
                }
                if *degraded {
                    self.stats.degraded += 1;
                }
            }
            out.push(outcome.response);
        }
        out
    }
}

/// Halves every finite soft limit — how admission control makes a
/// request admitted under queue pressure degrade earlier instead of
/// being dropped.
fn tighten(budget: Budget) -> Budget {
    let mut b = budget;
    if b.soft_solutions != usize::MAX {
        b.soft_solutions /= 2;
    }
    if b.soft_time != Duration::MAX {
        b.soft_time /= 2;
    }
    if b.soft_mem_bytes != usize::MAX {
        b.soft_mem_bytes /= 2;
    }
    b.normalized()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// The hardened per-request execution envelope: resolve, arm the
/// watchdog and any injected fault, run the governed DP under
/// `catch_unwind`, and map the outcome to a structured response.
///
/// When the session cache is armed (service-enabled, no fault, an
/// unconstraining budget), the DP runs through
/// [`optimize_incremental`], replaying clean subtrees from the cache.
/// The cache mutex is locked *outside* `catch_unwind` and the closure
/// only borrows the guard, so a contained panic can neither poison the
/// mutex nor leave half-written entries live — the still-held guard
/// flushes them on the way out.
fn run_envelope(
    config: &ServiceConfig,
    id: u64,
    handle: SessionHandle,
    params: OptimizeParams,
    tightened: bool,
    resolved: Result<&Session, RequestError>,
    fault: Option<RequestFault>,
) -> OptOutcome {
    let session = match resolved {
        Ok(s) => s,
        Err(e) => {
            return OptOutcome {
                handle,
                response: Response::Error(e),
                poison: false,
                cache_hits: 0,
                cache_misses: 0,
                cache_invalidations: 0,
            }
        }
    };
    let (tree, model) = (&session.tree, &session.model);
    let mut budget = params.budget.unwrap_or(config.budget);
    if tightened {
        budget = tighten(budget);
    }
    // Service-level parallelism is across requests; each request's DP
    // stays sequential (cancellable runs skip the parallel probe
    // anyway — it never polls the token).
    let options = DpOptions {
        jobs: 1,
        ..DpOptions::default()
    };
    let cascade = fallback_cascade(params.rule.build());
    let sizing = WireSizing::single();
    let mut injector = match fault {
        // The injected panic fires on the first node the DP visits.
        Some(RequestFault::Panic) => Some(FaultInjector::new(FaultPlan::panic_at(1))),
        // Synthetic capacity pressure: pad every node's list.
        Some(RequestFault::AllocSpike(count)) => Some(FaultInjector::new(FaultPlan::pad(1, count))),
        _ => None,
    };
    // Arm the session cache only for runs whose lists are the
    // unconstrained fixpoint: a fault-injected or budget-constrained
    // run may produce (or want to consume) lists that differ from the
    // cold result, so it takes the cold path untouched. Hierarchical
    // runs splice cut-node frontiers, so their lists are not the flat
    // fixpoint either — they bypass the cache the same way.
    let armed =
        config.use_cache && fault.is_none() && !budget.constrains_run() && params.hier.is_none();
    let mut cache_guard =
        armed.then(|| session.cache.lock().unwrap_or_else(PoisonError::into_inner));
    let inv_before = cache_guard.as_ref().map_or(0, |c| c.invalidations());
    let run_sig = run_signature(
        match params.rule {
            RuleChoice::TwoP => 2,
            RuleChoice::FourP => 4,
            RuleChoice::OneP => 1,
        },
        match params.mode {
            VariationMode::Nominal => 0,
            VariationMode::DieToDie => 1,
            VariationMode::WithinDie => 2,
        },
        options.sparsify_epsilon,
        sizing.widths().len(),
        options.use_lazy_wire,
        session.model_epoch,
    );
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let controls = RunControls {
            // A delay fault pre-ages the run's clock, so the watchdog
            // deadline trips deterministically on the first check.
            clock: match fault {
                Some(RequestFault::Delay(d)) => Some(Box::new(SkewedClock::new(1.0, d)) as _),
                _ => None,
            },
            faults: injector.as_mut(),
            cancel: Some(CancelToken::new()),
            watchdog: config.watchdog,
        };
        match (params.hier, cache_guard.as_mut()) {
            (Some(hier), _) => optimize_hier(
                tree,
                model,
                params.mode,
                cascade,
                &sizing,
                &options,
                &hier,
                &budget,
                controls,
            )
            .map(HierResult::into_governed),
            (None, Some(cache)) => optimize_incremental(
                tree,
                model,
                params.mode,
                cascade,
                &sizing,
                &options,
                &budget,
                controls,
                &session.sigs,
                cache,
                run_sig,
            ),
            (None, None) => optimize_governed_detailed(
                tree,
                model,
                params.mode,
                cascade,
                &sizing,
                &options,
                &budget,
                controls,
            ),
        }
    }));
    // Any outcome other than a clean completion flushes the cache: a
    // typed error or contained panic may have stored partial entries,
    // and `optimize_incremental` already cleared on degradation.
    if let Some(cache) = cache_guard.as_mut() {
        match &outcome {
            Ok(Ok(_)) => {}
            _ => cache.clear(),
        }
    }
    let cache_invalidations = cache_guard
        .as_ref()
        .map_or(0, |c| c.invalidations() - inv_before);
    drop(cache_guard);
    match outcome {
        Ok(Ok(governed)) => OptOutcome {
            handle,
            response: Response::Optimized {
                id,
                handle,
                buffers: governed.result.assignment.len(),
                rat_mean: governed.result.root_rat.mean(),
                // sqrt(-0.0) is -0.0; abs() keeps the rendered sigma at
                // a plain 0.000000.
                rat_sigma: governed.result.root_rat.std_dev().abs(),
                degraded: governed.degradation.degraded(),
                cancelled: governed.degradation.cancelled,
                tightened,
                fallbacks: governed.degradation.rule_fallbacks(),
                truncations: governed.degradation.truncations(),
            },
            poison: false,
            cache_hits: governed.result.stats.cache_hits as u64,
            cache_misses: governed.result.stats.cache_misses as u64,
            cache_invalidations,
        },
        Ok(Err(e)) => OptOutcome {
            handle,
            response: Response::Error(RequestError::Insertion(e)),
            poison: false,
            cache_hits: 0,
            cache_misses: 0,
            cache_invalidations,
        },
        Err(payload) => OptOutcome {
            handle,
            response: Response::Error(RequestError::Internal {
                message: panic_message(payload.as_ref()),
            }),
            poison: true,
            cache_hits: 0,
            cache_misses: 0,
            cache_invalidations,
        },
    }
}

// ---------------------------------------------------------------------------
// Line protocol
// ---------------------------------------------------------------------------

/// One parsed protocol line.
#[derive(Debug)]
pub enum Command {
    /// A service request to submit.
    Req(Request),
    /// Arm a request-scoped fault.
    Inject {
        /// Target optimize-request id.
        id: u64,
        /// The fault to arm.
        fault: RequestFault,
    },
    /// Start batching: subsequent requests queue until `commit`.
    Begin,
    /// Drain the batch and print every response, in order.
    Commit,
    /// Shut the service down cleanly.
    Quit,
    /// Print the protocol summary.
    Help,
    /// Open a session over an inline tree: the serve loop collects
    /// subsequent lines until `end` and parses them as `varbuf-tree v1`.
    LoadTree {
        /// Spatial-correlation structure for the session's model.
        spatial: SpatialKind,
    },
}

fn malformed(message: impl Into<String>) -> RequestError {
    RequestError::Malformed {
        message: message.into(),
    }
}

fn parse_spatial(token: Option<&str>) -> Result<SpatialKind, RequestError> {
    match token {
        None | Some("hetero") => Ok(SpatialKind::Heterogeneous),
        Some("homog") => Ok(SpatialKind::Homogeneous),
        Some(other) => Err(malformed(format!(
            "unknown spatial kind `{other}` (expected homog|hetero)"
        ))),
    }
}

/// Parses an `open` net spec: `random:SINKS[:SEED]` or `htree:LEVELS`.
///
/// # Errors
///
/// [`RequestError::Malformed`] for unknown forms or out-of-range sizes
/// (sinks `1..=65536`, levels `1..=24`) — the same inputs that would
/// trip generator asserts are typed errors here.
pub fn parse_open_spec(spec: &str) -> Result<RoutingTree, RequestError> {
    if let Some(rest) = spec.strip_prefix("random:") {
        let mut parts = rest.split(':');
        let sinks: usize = parts
            .next()
            .unwrap_or_default()
            .parse()
            .map_err(|_| malformed(format!("bad sink count in `{spec}`")))?;
        if sinks == 0 || sinks > MAX_SPEC_SINKS {
            return Err(malformed(format!(
                "sink count must be in 1..={MAX_SPEC_SINKS}, got {sinks}"
            )));
        }
        let seed: u64 = match parts.next() {
            Some(s) => s
                .parse()
                .map_err(|_| malformed(format!("bad seed in `{spec}`")))?,
            None => 42,
        };
        if parts.next().is_some() {
            return Err(malformed(format!("trailing fields in `{spec}`")));
        }
        return Ok(generate_benchmark(&BenchmarkSpec::random(
            "served", sinks, seed,
        )));
    }
    if let Some(rest) = spec.strip_prefix("htree:") {
        let levels: u32 = rest
            .parse()
            .map_err(|_| malformed(format!("bad level count in `{spec}`")))?;
        if !(1..=24).contains(&levels) {
            return Err(malformed(format!(
                "H-tree levels must be in 1..=24, got {levels}"
            )));
        }
        return Ok(generate_htree(&HTreeSpec::with_levels(levels)));
    }
    Err(malformed(format!(
        "unknown net spec `{spec}` (expected random:SINKS[:SEED] or htree:LEVELS)"
    )))
}

fn parse_handle(token: Option<&str>, cmd: &str) -> Result<SessionHandle, RequestError> {
    token
        .ok_or_else(|| malformed(format!("`{cmd}` needs a session handle")))?
        .parse()
}

fn parse_opt_params(tokens: &[&str]) -> Result<OptimizeParams, RequestError> {
    let mut params = OptimizeParams::default();
    let mut budget: Option<Budget> = None;
    for token in tokens {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| malformed(format!("expected key=value, got `{token}`")))?;
        match key {
            "mode" => {
                params.mode = match value {
                    "d2d" => VariationMode::DieToDie,
                    "wid" => VariationMode::WithinDie,
                    other => {
                        return Err(malformed(format!(
                            "unknown mode `{other}` (expected d2d|wid)"
                        )))
                    }
                };
            }
            "rule" => {
                params.rule = match value {
                    "2p" => RuleChoice::TwoP,
                    "4p" => RuleChoice::FourP,
                    "1p" => RuleChoice::OneP,
                    other => {
                        return Err(malformed(format!(
                            "unknown rule `{other}` (expected 2p|4p|1p)"
                        )))
                    }
                };
            }
            "budget-solutions" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| malformed(format!("bad budget-solutions `{value}`")))?;
                if n == 0 {
                    return Err(malformed("budget-solutions must be positive"));
                }
                let b = budget.get_or_insert_with(Budget::unlimited);
                b.soft_solutions = n;
                b.hard_solutions = n.saturating_mul(2);
            }
            "budget-time" => {
                let secs: f64 = value
                    .parse()
                    .map_err(|_| malformed(format!("bad budget-time `{value}`")))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(malformed("budget-time must be positive seconds"));
                }
                let b = budget.get_or_insert_with(Budget::unlimited);
                b.soft_time = Duration::from_secs_f64(secs);
                b.hard_time = Duration::from_secs_f64(secs * 2.0);
            }
            "cut-nodes" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| malformed(format!("bad cut-nodes `{value}`")))?;
                params
                    .hier
                    .get_or_insert_with(HierOptions::default)
                    .cut_nodes = n;
            }
            other => {
                return Err(malformed(format!(
                    "unknown opt key `{other}` \
                     (expected mode|rule|budget-solutions|budget-time|cut-nodes)"
                )))
            }
        }
    }
    params.budget = budget;
    Ok(params)
}

fn parse_edit(tokens: &[&str]) -> Result<Command, RequestError> {
    let kind = tokens
        .first()
        .ok_or_else(|| malformed("`edit` needs a kind (sink|rat|wire|lib)"))?;
    let handle = parse_handle(tokens.get(1).copied(), "edit")?;
    // Node tokens accept the rendered `n<IDX>` form or a bare index.
    let parse_node = |pos: usize| -> Result<u32, RequestError> {
        let token = tokens
            .get(pos)
            .ok_or_else(|| malformed(format!("`edit {kind}` needs a node index")))?;
        token
            .strip_prefix('n')
            .unwrap_or(token)
            .parse()
            .map_err(|_| malformed(format!("bad node index `{token}`")))
    };
    let parse_value = |pos: usize, what: &str| -> Result<f64, RequestError> {
        let token = tokens
            .get(pos)
            .ok_or_else(|| malformed(format!("`edit {kind}` needs a {what}")))?;
        token
            .parse()
            .map_err(|_| malformed(format!("bad {what} `{token}`")))
    };
    let op = match *kind {
        "sink" => EditOp::SinkCap {
            node: parse_node(2)?,
            capacitance: parse_value(3, "capacitance (fF)")?,
        },
        "rat" => EditOp::SinkRat {
            node: parse_node(2)?,
            required_arrival: parse_value(3, "required arrival (ps)")?,
        },
        "wire" => EditOp::Wire {
            node: parse_node(2)?,
            length: parse_value(3, "length (um)")?,
        },
        "lib" => EditOp::Lib(match tokens.get(2).copied() {
            Some("full") => LibChoice::Full,
            Some("single") => LibChoice::Single,
            other => {
                return Err(malformed(format!(
                    "unknown library `{}` (expected full|single)",
                    other.unwrap_or("")
                )))
            }
        }),
        other => {
            return Err(malformed(format!(
                "unknown edit kind `{other}` (expected sink|rat|wire|lib)"
            )))
        }
    };
    let arity = if matches!(op, EditOp::Lib(_)) { 3 } else { 4 };
    if tokens.len() > arity {
        return Err(malformed(format!("trailing fields after `edit {kind}`")));
    }
    Ok(Command::Req(Request::Edit { handle, op }))
}

fn parse_inject(tokens: &[&str]) -> Result<Command, RequestError> {
    let kind = tokens
        .first()
        .ok_or_else(|| malformed("`inject` needs a fault kind (panic|delay|spike)"))?;
    let id: u64 = tokens
        .get(1)
        .ok_or_else(|| malformed("`inject` needs a request id"))?
        .parse()
        .map_err(|_| malformed("bad request id"))?;
    let fault = match *kind {
        "panic" => RequestFault::Panic,
        "delay" => {
            let secs: f64 = tokens
                .get(2)
                .ok_or_else(|| malformed("`inject delay` needs seconds"))?
                .parse()
                .map_err(|_| malformed("bad delay seconds"))?;
            if !(secs.is_finite() && secs > 0.0) {
                return Err(malformed("delay must be positive seconds"));
            }
            RequestFault::Delay(Duration::from_secs_f64(secs))
        }
        "spike" => {
            let count: usize = tokens
                .get(2)
                .ok_or_else(|| malformed("`inject spike` needs a pad count"))?
                .parse()
                .map_err(|_| malformed("bad spike count"))?;
            RequestFault::AllocSpike(count)
        }
        other => {
            return Err(malformed(format!(
                "unknown fault kind `{other}` (expected panic|delay|spike)"
            )))
        }
    };
    Ok(Command::Inject { id, fault })
}

/// Parses one protocol line into a [`Command`].
///
/// # Errors
///
/// [`RequestError::Malformed`] on empty lines, unknown verbs, or bad
/// arguments — the serve loop renders these as `err malformed …` and
/// keeps serving.
pub fn parse_line(line: &str) -> Result<Command, RequestError> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let Some((&verb, rest)) = tokens.split_first() else {
        return Err(malformed("empty command"));
    };
    match verb {
        "open" => {
            let spec = rest
                .first()
                .ok_or_else(|| malformed("`open` needs a net spec"))?;
            let tree = parse_open_spec(spec)?;
            let spatial = parse_spatial(rest.get(1).copied())?;
            if rest.len() > 2 {
                return Err(malformed("`open` takes at most two arguments"));
            }
            Ok(Command::Req(Request::Open {
                tree: Box::new(tree),
                spatial,
            }))
        }
        "load" => {
            let spatial = parse_spatial(rest.first().copied())?;
            Ok(Command::LoadTree { spatial })
        }
        "close" => Ok(Command::Req(Request::Close {
            handle: parse_handle(rest.first().copied(), "close")?,
        })),
        "opt" => {
            let handle = parse_handle(rest.first().copied(), "opt")?;
            let params = parse_opt_params(&rest[1..])?;
            Ok(Command::Req(Request::Optimize { handle, params }))
        }
        "cts" => {
            // `opt` routed through the hierarchical engine — the verb
            // resident clock-tree sessions use at full-chip scale.
            let handle = parse_handle(rest.first().copied(), "cts")?;
            let mut params = parse_opt_params(&rest[1..])?;
            params.hier.get_or_insert_with(HierOptions::default);
            Ok(Command::Req(Request::Optimize { handle, params }))
        }
        "edit" => parse_edit(rest),
        "info" => Ok(Command::Req(Request::Info {
            handle: parse_handle(rest.first().copied(), "info")?,
        })),
        "stats" => Ok(Command::Req(Request::Stats)),
        "ping" => Ok(Command::Req(Request::Ping)),
        "inject" => parse_inject(rest),
        "begin" => Ok(Command::Begin),
        "commit" => Ok(Command::Commit),
        "quit" => Ok(Command::Quit),
        "help" => Ok(Command::Help),
        other => Err(malformed(format!("unknown command `{other}`"))),
    }
}

/// The protocol summary printed by the `help` command.
pub const PROTOCOL_HELP: &str = "\
commands:
  open <random:SINKS[:SEED]|htree:LEVELS> [homog|hetero]   open a session
  load [homog|hetero]   read a varbuf-tree v1 net on following lines, until `end`
  close s<I>.<G>        close a session (frees the slot, bumps its generation)
  opt s<I>.<G> [mode=d2d|wid] [rule=2p|4p|1p] [budget-solutions=N] [budget-time=SECS]
  cts s<I>.<G> [same keys as opt] [cut-nodes=N]
                        opt through the hierarchical engine (cut-node
                        decomposition + streamed frontiers; clock trees)
  edit sink s<I>.<G> <NODE> <CAP_FF> | edit rat s<I>.<G> <NODE> <RAT_PS>
  edit wire s<I>.<G> <NODE> <LEN_UM> | edit lib s<I>.<G> <full|single>
                        mutate the resident net in place; the next opt
                        replays cached subtrees the edit left clean
  info s<I>.<G>         net summary
  stats                 service counters
  ping                  liveness probe
  inject panic <ID> | inject delay <ID> <SECS> | inject spike <ID> <COUNT>
                        arm a fault for optimize request ID (needs --faults)
  begin / commit        queue requests, then drain them in order
  quit                  clean shutdown";

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_tree() -> RoutingTree {
        generate_benchmark(&BenchmarkSpec::random("t", 4, 7))
    }

    fn open_tiny(service: &mut Service) -> SessionHandle {
        match service.execute(Request::Open {
            tree: Box::new(tiny_tree()),
            spatial: SpatialKind::Heterogeneous,
        }) {
            Response::Opened { handle, .. } => handle,
            other => panic!("expected Opened, got {other}"),
        }
    }

    #[test]
    fn handle_roundtrips_through_display() {
        let h = SessionHandle {
            index: 3,
            generation: 17,
        };
        assert_eq!(h.to_string(), "s3.17");
        assert_eq!("s3.17".parse::<SessionHandle>().unwrap(), h);
        assert!("x3.17".parse::<SessionHandle>().is_err());
        assert!("s3".parse::<SessionHandle>().is_err());
        assert!("s3.x".parse::<SessionHandle>().is_err());
    }

    #[test]
    fn close_bumps_generation_and_stales_the_handle() {
        let mut service = Service::new(ServiceConfig::default());
        let h1 = open_tiny(&mut service);
        assert_eq!(service.store().live(), 1);
        assert!(matches!(
            service.execute(Request::Close { handle: h1 }),
            Response::Closed { .. }
        ));
        assert_eq!(service.store().live(), 0);
        // The slot is reused with a bumped generation...
        let h2 = open_tiny(&mut service);
        assert_eq!(h2.index, h1.index);
        assert_eq!(h2.generation, h1.generation + 1);
        // ...and the old handle is a typed error, not the new net.
        match service.execute(Request::Optimize {
            handle: h1,
            params: OptimizeParams::default(),
        }) {
            Response::Error(RequestError::StaleHandle { handle }) => assert_eq!(handle, h1),
            other => panic!("expected stale-handle error, got {other}"),
        }
    }

    #[test]
    fn session_limit_is_a_typed_error() {
        let mut service = Service::new(ServiceConfig {
            max_sessions: 1,
            ..ServiceConfig::default()
        });
        open_tiny(&mut service);
        match service.execute(Request::Open {
            tree: Box::new(tiny_tree()),
            spatial: SpatialKind::Heterogeneous,
        }) {
            Response::Error(RequestError::SessionLimit { limit }) => assert_eq!(limit, 1),
            other => panic!("expected session-limit error, got {other}"),
        }
    }

    #[test]
    fn contained_panic_poisons_only_its_session() {
        // Flat, and hierarchical with cuts: that engine walks the tree
        // itself and must still hand the injector to every node.
        let cuts = HierOptions {
            cut_nodes: 2,
            fanout_cut: 0,
            ..HierOptions::default()
        };
        assert!(crate::hier::plan_cuts(&tiny_tree(), &cuts).contains(&true));
        for params in [
            OptimizeParams::default(),
            OptimizeParams {
                hier: Some(cuts),
                ..OptimizeParams::default()
            },
        ] {
            let mut service = Service::new(ServiceConfig {
                allow_faults: true,
                ..ServiceConfig::default()
            });
            let healthy = open_tiny(&mut service);
            let doomed = open_tiny(&mut service);
            // Ids are assigned in submission order: the next opt is id 1.
            assert!(matches!(
                service.inject(1, RequestFault::Panic),
                Response::Injected { id: 1 }
            ));
            match service.execute(Request::Optimize {
                handle: doomed,
                params,
            }) {
                Response::Error(RequestError::Internal { message }) => {
                    assert!(message.contains("injected panic"), "got: {message}");
                }
                other => panic!("expected contained panic ({params:?}), got {other}"),
            }
            // The faulted session only accepts close now.
            assert!(matches!(
                service.execute(Request::Optimize {
                    handle: doomed,
                    params,
                }),
                Response::Error(RequestError::SessionPoisoned { .. })
            ));
            // The other session is untouched.
            assert!(matches!(
                service.execute(Request::Optimize {
                    handle: healthy,
                    params,
                }),
                Response::Optimized { .. }
            ));
            assert!(matches!(
                service.execute(Request::Close { handle: doomed }),
                Response::Closed { .. }
            ));
            assert_eq!(service.stats().panics_contained, 1);
        }
    }

    #[test]
    fn watchdog_cancels_a_delayed_request_best_so_far() {
        let mut service = Service::new(ServiceConfig {
            allow_faults: true,
            watchdog: Some(Duration::from_millis(50)),
            ..ServiceConfig::default()
        });
        let h = open_tiny(&mut service);
        // Pre-age the request's clock past the watchdog deadline.
        service.inject(1, RequestFault::Delay(Duration::from_secs(5)));
        match service.execute(Request::Optimize {
            handle: h,
            params: OptimizeParams::default(),
        }) {
            Response::Optimized { cancelled, .. } => {
                assert!(cancelled, "watchdog should have cancelled the run");
            }
            other => panic!("expected cancelled-but-completed run, got {other}"),
        }
        assert_eq!(service.stats().cancelled, 1);
    }

    #[test]
    fn hard_queue_budget_sheds_and_soft_budget_tightens() {
        // Budgets are in tree-node units; derive them from the actual
        // cost so exactly two requests fit and the second is tightened.
        let cost = {
            let mut probe = Service::new(ServiceConfig::default());
            let h = open_tiny(&mut probe);
            probe.cost_of(h)
        };
        assert!(cost > 1, "tiny tree cost: {cost}");
        let mut service = Service::new(ServiceConfig {
            queue_soft_cost: cost - 1,
            queue_hard_cost: cost * 2,
            ..ServiceConfig::default()
        });
        let h = open_tiny(&mut service);
        service.submit(Request::Optimize {
            handle: h,
            params: OptimizeParams::default(),
        });
        service.submit(Request::Optimize {
            handle: h,
            params: OptimizeParams::default(),
        });
        // Third request would exceed the hard budget → shed at submit.
        service.submit(Request::Optimize {
            handle: h,
            params: OptimizeParams::default(),
        });
        let responses = service.drain(1);
        assert_eq!(responses.len(), 3);
        assert!(matches!(
            responses[0],
            Response::Optimized {
                tightened: false,
                ..
            }
        ));
        assert!(
            matches!(
                responses[1],
                Response::Optimized {
                    tightened: true,
                    ..
                }
            ),
            "second request was admitted over the soft budget"
        );
        match &responses[2] {
            Response::Error(RequestError::Overloaded {
                queued_cost,
                limit,
                retry_after,
            }) => {
                assert_eq!(*queued_cost, cost * 2);
                assert_eq!(*limit, cost * 2);
                assert!(*retry_after > Duration::ZERO);
            }
            other => panic!("expected overloaded, got {other}"),
        }
        let stats = service.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.tightened, 1);
        assert_eq!(service.queued_cost(), 0);
    }

    #[test]
    fn faults_require_opt_in() {
        let mut service = Service::new(ServiceConfig::default());
        assert!(matches!(
            service.inject(1, RequestFault::Panic),
            Response::Error(RequestError::FaultsDisabled)
        ));
    }

    #[test]
    fn drain_is_order_preserving_across_jobs() {
        let run = |jobs: usize| -> Vec<String> {
            let mut service = Service::new(ServiceConfig::default());
            let h = open_tiny(&mut service);
            for _ in 0..4 {
                service.submit(Request::Optimize {
                    handle: h,
                    params: OptimizeParams::default(),
                });
            }
            service.submit(Request::Close { handle: h });
            service
                .drain(jobs)
                .iter()
                .map(ToString::to_string)
                .collect()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn edits_bump_epoch_and_dirty_only_the_root_path() {
        let mut service = Service::new(ServiceConfig::default());
        let h = open_tiny(&mut service);
        // Warm the cache, then edit one sink's RAT: the replay after it
        // must recompute only the dirtied root path.
        assert!(matches!(
            service.execute(Request::Optimize {
                handle: h,
                params: OptimizeParams::default(),
            }),
            Response::Optimized { .. }
        ));
        let warm = service.stats();
        assert_eq!(warm.cache_hits, 0, "cold run replays nothing");
        let sink = {
            let tree = service.store().resolve(h).unwrap().tree();
            tree.sinks().next().unwrap()
        };
        let dirty = match service.execute(Request::Edit {
            handle: h,
            op: EditOp::SinkRat {
                node: sink.0,
                required_arrival: 321.0,
            },
        }) {
            Response::Edited {
                epoch: 1, dirty, ..
            } => dirty,
            other => panic!("expected first-epoch Edited, got {other}"),
        };
        let nodes = service.store().resolve(h).unwrap().tree().len() as u64;
        assert!(dirty >= 1 && dirty < nodes, "path dirty count: {dirty}");
        assert!(matches!(
            service.execute(Request::Optimize {
                handle: h,
                params: OptimizeParams::default(),
            }),
            Response::Optimized { .. }
        ));
        let s = service.stats();
        assert_eq!(s.cache_hits, nodes - dirty, "clean subtrees replayed");
        assert!(s.cache_invalidations >= dirty);
        // A library swap is model-wide: the next run is cold again.
        assert!(matches!(
            service.execute(Request::Edit {
                handle: h,
                op: EditOp::Lib(LibChoice::Single),
            }),
            Response::Edited { epoch: 2, .. }
        ));
        let before = service.stats().cache_hits;
        assert!(matches!(
            service.execute(Request::Optimize {
                handle: h,
                params: OptimizeParams::default(),
            }),
            Response::Optimized { .. }
        ));
        assert_eq!(service.stats().cache_hits, before, "lib swap flushed");
    }

    #[test]
    fn edits_reject_bad_targets_with_typed_errors() {
        let mut service = Service::new(ServiceConfig::default());
        let h = open_tiny(&mut service);
        for (op, what) in [
            (
                EditOp::SinkCap {
                    node: 10_000,
                    capacitance: 1.0,
                },
                "out-of-range node",
            ),
            (
                EditOp::SinkRat {
                    node: 0,
                    required_arrival: 1.0,
                },
                "root is not a sink",
            ),
            (
                EditOp::Wire {
                    node: 0,
                    length: 5.0,
                },
                "root has no parent edge",
            ),
            (
                EditOp::Wire {
                    node: 1,
                    length: f64::NAN,
                },
                "non-finite length",
            ),
        ] {
            assert!(
                matches!(
                    service.execute(Request::Edit { handle: h, op }),
                    Response::Error(RequestError::Malformed { .. })
                ),
                "{what} should be malformed"
            );
        }
        // Rejected edits never bump the epoch.
        let epoch = service.store().resolve(h).unwrap().epoch();
        assert_eq!(epoch, 0);
    }

    #[test]
    fn incremental_replay_is_byte_identical_to_cold() {
        // The same open/edit/opt script against a cache-on and a
        // cache-off service must render identical responses (the stats
        // line is excluded — counters legitimately differ).
        let run = |use_cache: bool| -> Vec<String> {
            let mut service = Service::new(ServiceConfig {
                use_cache,
                ..ServiceConfig::default()
            });
            let h = match service.execute(Request::Open {
                tree: Box::new(generate_benchmark(&BenchmarkSpec::random("t", 24, 11))),
                spatial: SpatialKind::Heterogeneous,
            }) {
                Response::Opened { handle, .. } => handle,
                other => panic!("expected Opened, got {other}"),
            };
            let sink = {
                let tree = service.store().resolve(h).unwrap().tree();
                tree.sinks().nth(2).unwrap()
            };
            let mut out = Vec::new();
            // 2P/1P only: unconstrained 4P is intractable at this size;
            // the fuzz oracle covers 4P replay identity on small nets.
            for (rule, rat) in [
                (RuleChoice::TwoP, 100.0),
                (RuleChoice::OneP, 250.0),
                (RuleChoice::TwoP, -50.0),
            ] {
                out.push(
                    service
                        .execute(Request::Edit {
                            handle: h,
                            op: EditOp::SinkRat {
                                node: sink.0,
                                required_arrival: rat,
                            },
                        })
                        .to_string(),
                );
                out.push(
                    service
                        .execute(Request::Optimize {
                            handle: h,
                            params: OptimizeParams {
                                rule,
                                ..OptimizeParams::default()
                            },
                        })
                        .to_string(),
                );
            }
            out
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn protocol_parses_and_rejects() {
        assert!(matches!(
            parse_line("open random:8:7 homog"),
            Ok(Command::Req(Request::Open { .. }))
        ));
        assert!(matches!(
            parse_line("opt s0.0 mode=d2d rule=4p budget-solutions=100"),
            Ok(Command::Req(Request::Optimize { .. }))
        ));
        assert!(matches!(
            parse_line("inject delay 3 0.5"),
            Ok(Command::Inject {
                id: 3,
                fault: RequestFault::Delay(_)
            })
        ));
        assert!(matches!(
            parse_line("edit rat s0.0 n5 250.5"),
            Ok(Command::Req(Request::Edit {
                op: EditOp::SinkRat { node: 5, .. },
                ..
            }))
        ));
        assert!(matches!(
            parse_line("edit wire s0.0 3 140"),
            Ok(Command::Req(Request::Edit {
                op: EditOp::Wire { node: 3, .. },
                ..
            }))
        ));
        assert!(matches!(
            parse_line("edit lib s1.2 single"),
            Ok(Command::Req(Request::Edit {
                op: EditOp::Lib(LibChoice::Single),
                ..
            }))
        ));
        for bad in [
            "",
            "frobnicate",
            "open random:0",
            "open htree:30",
            "open random:abc",
            "opt s0.0 mode=nominal",
            "opt s0.0 rule=5p",
            "opt notahandle",
            "inject panic",
            "inject fizzle 1",
            "edit",
            "edit sink s0.0 n1",
            "edit sink s0.0 n1 abc",
            "edit lib s0.0 tiny",
            "edit wire s0.0 n1 5 extra",
            "edit grow s0.0 n1 5",
        ] {
            assert!(
                matches!(parse_line(bad), Err(RequestError::Malformed { .. })),
                "`{bad}` should be malformed"
            );
        }
    }
}
