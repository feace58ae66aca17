//! Resource governor and graceful-degradation policy for the DP engine.
//!
//! The paper's own evaluation (Table 2) shows the 4P rule blowing past
//! 2 GB of memory and a four-hour wall-clock cutoff; the seed engine
//! modeled that failure mode as a hard abort that threw away all work.
//! This module replaces the abort with a *policy object*, the
//! [`Governor`], consulted by the DP at every resource-relevant point:
//!
//! * a [`Budget`] carries **soft and hard** limits on per-node solution
//!   count, wall clock, and estimated live memory;
//! * on a **soft breach** the governor degrades instead of aborting:
//!   it walks a *fallback cascade* of pruning rules (e.g. 4P → thresholded
//!   2P → deterministic mean dominance, each strictly cheaper), then
//!   tightens epsilon-sparsification, then truncates candidate lists;
//! * on a **hard breach** it enters *panic completion*: every remaining
//!   node keeps only its single best candidate, so the run finishes in
//!   linear time and still returns a valid (suboptimal) buffered tree —
//!   the best-so-far recovery path;
//! * every degradation is recorded as a [`DegradationEvent`] in a
//!   structured [`Degradation`] report returned alongside the result.
//!
//! The legacy strict behavior (breach ⇒ typed error) is the same engine
//! with a [`Governor::strict`] policy whose soft and hard limits
//! coincide and whose cascade holds only the caller's rule.

use crate::error::InsertionError;
use crate::prune::PruningRule;
use crate::solution::StatSolution;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use varbuf_rctree::NodeId;

/// A monotonic elapsed-time source.
///
/// The DP never reads wall-clock time directly; it asks its governor's
/// clock. That indirection is what lets the fault-injection harness
/// (`crate::faultinject`) skew time deterministically in tests.
pub trait Clock: fmt::Debug {
    /// Time elapsed since the clock was started.
    fn elapsed(&self) -> Duration;
}

/// The real clock: elapsed time since construction.
#[derive(Debug)]
pub struct MonotonicClock {
    start: Instant,
}

impl MonotonicClock {
    /// Starts the clock now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// A cooperative cancellation token shared between a run and whoever may
/// need to stop it early — the service layer's shutdown path, or a
/// request watchdog. Cancelling is a one-way latch; the DP observes it at
/// its regular `check_time` points, so cancellation is *cooperative*:
/// a governed run answers it by entering panic completion (best-so-far),
/// a strict run by returning [`InsertionError::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Latches the token; every clone observes the cancellation.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Soft/hard resource limits for one optimization run.
///
/// A *soft* breach triggers graceful degradation (rule fallback, epsilon
/// tightening, list truncation); a *hard* breach triggers panic
/// completion. Every soft limit must be at most its hard counterpart —
/// constructors clamp to guarantee it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Per-node candidate count above which degradation starts.
    pub soft_solutions: usize,
    /// Per-node candidate count that must never be materialized.
    pub hard_solutions: usize,
    /// Wall clock after which degradation starts.
    pub soft_time: Duration,
    /// Wall clock after which only panic completion is allowed.
    pub hard_time: Duration,
    /// Estimated live solution memory (bytes) at which degradation starts.
    pub soft_mem_bytes: usize,
    /// Estimated live solution memory (bytes) forcing panic completion.
    pub hard_mem_bytes: usize,
}

impl Budget {
    /// Effectively no limits (the permissive default).
    #[must_use]
    pub fn unlimited() -> Self {
        Self {
            soft_solutions: usize::MAX,
            hard_solutions: usize::MAX,
            soft_time: Duration::MAX,
            hard_time: Duration::MAX,
            soft_mem_bytes: usize::MAX,
            hard_mem_bytes: usize::MAX,
        }
    }

    /// A budget with the given soft limits and hard limits a fixed factor
    /// (4× solutions/memory, 2× time) above them.
    #[must_use]
    pub fn with_soft(solutions: usize, time: Duration, mem_bytes: usize) -> Self {
        Self {
            soft_solutions: solutions,
            hard_solutions: solutions.saturating_mul(4),
            soft_time: time,
            hard_time: time.saturating_mul(2),
            soft_mem_bytes: mem_bytes,
            hard_mem_bytes: mem_bytes.saturating_mul(4),
        }
    }

    /// The strict legacy budget: soft and hard limits coincide at the
    /// engine caps, so the first breach is already a hard breach.
    #[must_use]
    pub fn strict(max_solutions_per_node: usize, time_limit: Duration) -> Self {
        Self {
            soft_solutions: max_solutions_per_node,
            hard_solutions: max_solutions_per_node,
            soft_time: time_limit,
            hard_time: time_limit,
            soft_mem_bytes: usize::MAX,
            hard_mem_bytes: usize::MAX,
        }
    }

    /// Whether any axis of this budget is finite — i.e. resource
    /// pressure can actually trigger degradation. Lazy wire propagation
    /// disarms itself on governed runs where this is `true`: changing
    /// list footprints would shift *when* the governor degrades, and a
    /// degraded run's output legitimately depends on that timing.
    #[must_use]
    pub fn constrains_run(&self) -> bool {
        self.soft_solutions != usize::MAX
            || self.hard_solutions != usize::MAX
            || self.soft_time != Duration::MAX
            || self.hard_time != Duration::MAX
            || self.soft_mem_bytes != usize::MAX
            || self.hard_mem_bytes != usize::MAX
    }

    /// Clamps soft limits to their hard counterparts (soft ≤ hard).
    #[must_use]
    pub fn normalized(mut self) -> Self {
        self.soft_solutions = self.soft_solutions.min(self.hard_solutions);
        self.soft_time = self.soft_time.min(self.hard_time);
        self.soft_mem_bytes = self.soft_mem_bytes.min(self.hard_mem_bytes);
        self
    }
}

impl Default for Budget {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// What resource pressure triggered a degradation step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trigger {
    /// A node's candidate list (or a pending cross-product merge)
    /// exceeded a solution-count limit.
    SolutionPressure {
        /// The node being processed.
        node: NodeId,
        /// The candidate count observed or required.
        solutions: usize,
        /// The limit that was breached.
        limit: usize,
    },
    /// Wall clock crossed a time limit.
    TimePressure {
        /// Elapsed time at the breach.
        elapsed: Duration,
        /// The limit that was breached.
        limit: Duration,
    },
    /// The estimated live-memory footprint crossed a limit.
    MemoryPressure {
        /// Estimated live bytes.
        estimated_bytes: usize,
        /// The limit that was breached.
        limit_bytes: usize,
    },
    /// Candidate solutions with non-finite statistics were found.
    PoisonedSolutions {
        /// The node whose list carried the poison.
        node: NodeId,
        /// How many entries were invalid.
        count: usize,
    },
    /// The run was cancelled — its watchdog deadline fired, or an
    /// external [`CancelToken`] was triggered.
    Cancelled {
        /// Elapsed time when the cancellation was observed.
        elapsed: Duration,
        /// The watchdog deadline, if that is what fired (`None` for an
        /// external cancel).
        deadline: Option<Duration>,
    },
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trigger::SolutionPressure {
                node,
                solutions,
                limit,
            } => write!(f, "{solutions} candidates at {node} over the {limit} cap"),
            Trigger::TimePressure { elapsed, limit } => write!(
                f,
                "{:.2}s elapsed over the {:.2}s budget",
                elapsed.as_secs_f64(),
                limit.as_secs_f64()
            ),
            Trigger::MemoryPressure {
                estimated_bytes,
                limit_bytes,
            } => write!(
                f,
                "~{} KiB live over the {} KiB budget",
                estimated_bytes / 1024,
                limit_bytes / 1024
            ),
            Trigger::PoisonedSolutions { node, count } => {
                write!(f, "{count} poisoned candidates at {node}")
            }
            Trigger::Cancelled { elapsed, deadline } => match deadline {
                Some(d) => write!(
                    f,
                    "watchdog deadline {:.2}s hit at {:.2}s",
                    d.as_secs_f64(),
                    elapsed.as_secs_f64()
                ),
                None => write!(f, "cancelled externally at {:.2}s", elapsed.as_secs_f64()),
            },
        }
    }
}

/// What the governor did about a trigger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// The active pruning rule was switched to a cheaper fallback.
    RuleFallback {
        /// Rule that was abandoned.
        from: &'static str,
        /// Rule now active.
        to: &'static str,
    },
    /// Epsilon-sparsification was tightened.
    EpsilonTightened {
        /// Previous epsilon ×10⁶ (scaled to stay integral/Eq-comparable).
        from_micros: u64,
        /// New epsilon ×10⁶.
        to_micros: u64,
    },
    /// A candidate list was cut down, keeping a load-spread subset.
    ListTruncated {
        /// Size before truncation.
        from: usize,
        /// Size after truncation.
        to: usize,
    },
    /// Panic completion engaged: one candidate per node from here on.
    PanicCompletion,
    /// Invalid (NaN / non-finite-variance) candidates were dropped.
    PoisonedDropped {
        /// How many entries were removed.
        count: usize,
    },
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::RuleFallback { from, to } => write!(f, "fell back from {from} to {to}"),
            Action::EpsilonTightened {
                from_micros,
                to_micros,
            } => write!(
                f,
                "tightened sparsify epsilon {:.0e} -> {:.0e}",
                *from_micros as f64 * 1e-6,
                *to_micros as f64 * 1e-6
            ),
            Action::ListTruncated { from, to } => {
                write!(f, "truncated candidate list {from} -> {to}")
            }
            Action::PanicCompletion => write!(f, "entered panic completion (best-so-far)"),
            Action::PoisonedDropped { count } => write!(f, "dropped {count} poisoned candidates"),
        }
    }
}

/// One recorded degradation step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationEvent {
    /// When it happened, relative to run start.
    pub at: Duration,
    /// The resource pressure observed.
    pub trigger: Trigger,
    /// The mitigation applied.
    pub action: Action,
}

impl fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>8.3}s] {}: {}",
            self.at.as_secs_f64(),
            self.trigger,
            self.action
        )
    }
}

/// A pre-run guard substitution: an unconstrained 4P request on a tree
/// large enough that its cross-product merges are known-intractable was
/// started directly under a cheaper rule instead of discovering the
/// blowup mid-run. Unlike a [`DegradationEvent`] this is a *planning*
/// decision — the run itself then proceeds at full fidelity under the
/// substituted rule, so it does not count as resource degradation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardedFallback {
    /// Rule the caller asked for.
    pub from: String,
    /// Rule the run actually started under.
    pub to: String,
    /// Sink count of the offending tree.
    pub sinks: usize,
    /// The configured sink-count threshold that tripped the guard.
    pub threshold: usize,
}

impl fmt::Display for GuardedFallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "guarded {} -> {}: {} sinks over the {}-sink unconstrained-merge threshold",
            self.from, self.to, self.sinks, self.threshold
        )
    }
}

/// Structured report of everything a governed run relaxed.
///
/// An empty report (`degraded() == false`) means the run completed within
/// its budget at full fidelity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Degradation {
    /// Every degradation step, in order.
    pub events: Vec<DegradationEvent>,
    /// Rule the run started with.
    pub initial_rule: String,
    /// Rule active when the run finished.
    pub final_rule: String,
    /// Whether panic completion (best-so-far recovery) was engaged.
    pub panic_completion: bool,
    /// Whether the run was cancelled (watchdog deadline or external
    /// token) and finished on the best-so-far path.
    pub cancelled: bool,
    /// A pre-run rule substitution applied by the combinatorial-blowup
    /// guard, if any. Deliberately *not* part of [`Degradation::degraded`]:
    /// the substituted run completes within budget at full fidelity.
    pub guard: Option<GuardedFallback>,
    /// Peak bytes simultaneously parked in spliced cut-node frontiers
    /// (hierarchical runs; `0` for flat runs, which park nothing).
    pub peak_chunk_bytes: usize,
}

impl Degradation {
    /// Whether anything was relaxed.
    #[must_use]
    pub fn degraded(&self) -> bool {
        !self.events.is_empty() || self.panic_completion || self.cancelled
    }

    /// Number of rule-fallback steps taken.
    #[must_use]
    pub fn rule_fallbacks(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.action, Action::RuleFallback { .. }))
            .count()
    }

    /// Number of epsilon-tightening steps taken.
    #[must_use]
    pub fn epsilon_tightenings(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.action, Action::EpsilonTightened { .. }))
            .count()
    }

    /// Number of list-truncation events recorded.
    #[must_use]
    pub fn truncations(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.action, Action::ListTruncated { .. }))
            .count()
    }

    /// Total poisoned candidates dropped across the run.
    #[must_use]
    pub fn poisoned_dropped(&self) -> usize {
        self.events
            .iter()
            .filter_map(|e| match e.action {
                Action::PoisonedDropped { count } => Some(count),
                _ => None,
            })
            .sum()
    }

    /// A one-line-per-event human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        if !self.degraded() {
            let mut out = "completed within budget (no degradation)".to_owned();
            if let Some(guard) = &self.guard {
                out.push_str(&format!("\n  {guard}\n"));
            }
            return out;
        }
        let mut out = format!(
            "degraded run: rule {} -> {}, {} event(s){}{}\n",
            self.initial_rule,
            self.final_rule,
            self.events.len(),
            if self.panic_completion {
                ", panic completion"
            } else {
                ""
            },
            if self.cancelled { ", cancelled" } else { "" }
        );
        if let Some(guard) = &self.guard {
            out.push_str(&format!("  {guard}\n"));
        }
        for e in &self.events {
            out.push_str(&format!("  {e}\n"));
        }
        out
    }
}

/// What the DP must do after offering a candidate list to the governor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Within budget; proceed.
    Ok,
    /// The governor switched the active rule; re-prune with
    /// [`Governor::active_rule`] and offer the list again.
    Reprune,
    /// Cut the list to this many entries (keep a load-spread subset),
    /// then offer it again.
    Truncate(usize),
}

/// Estimated heap footprint of one candidate solution, in bytes.
///
/// Each canonical-form term is charged 16 bytes (a `(u32, f64)` pair,
/// aligned), and the solution's fixed part — its handle, the boxed
/// fields with both form headers, and the trace `Arc` — roughly 128
/// bytes more. An estimate is all the budget needs — it is compared
/// against user-supplied soft limits, not against an allocator — so it
/// did not follow the solution into its box: keeping it keeps every
/// governor decision, degradation schedule and hierarchy chunk size.
#[must_use]
pub fn solution_footprint(s: &StatSolution) -> usize {
    // A pending lazy-wire transform will add up to the load's term set
    // to the RAT at materialization; charge that growth now so parked
    // or cached pending solutions don't under-report what they are
    // about to cost.
    let pending_rat = if s.wire_pending != 0.0 {
        s.load.term_count()
    } else {
        0
    };
    128 + 16 * (s.load.term_count() + s.rat.term_count() + pending_rat)
}

/// The resource-governing policy object threaded through the DP.
///
/// Construct with [`Governor::strict`] for the legacy abort-on-breach
/// behavior or [`Governor::governed`] for graceful degradation, then pass
/// to the engine. After the run, [`Governor::into_report`] yields the
/// [`Degradation`] report.
#[derive(Debug)]
pub struct Governor {
    budget: Budget,
    clock: Box<dyn Clock>,
    /// Fallback rules, cheapest last; never empty. `active` indexes
    /// into it (a strict governor holds one rule and never advances).
    cascade: Vec<Arc<dyn PruningRule>>,
    active: usize,
    /// `false` ⇒ strict mode (breach = typed error, no degradation).
    governed: bool,
    epsilon: f64,
    max_epsilon: f64,
    panic_mode: bool,
    /// Soft-time pressure is acted on once per escalation, not per node.
    time_steps_taken: u32,
    mem_steps_taken: u32,
    live_bytes: usize,
    /// High-water mark of bytes parked in cut-node frontiers (reported
    /// by the engine walk via `note_chunk_bytes`).
    peak_chunk_bytes: usize,
    events: Vec<DegradationEvent>,
    initial_rule: String,
    poisoned_total: usize,
    /// External cancellation token, polled in `check_time`.
    cancel: Option<CancelToken>,
    /// Per-request deadline on the governor's clock; overrun cancels the
    /// run from within (distinct from `budget.hard_time`, which is a
    /// *resource* wall — the watchdog is a *liveness* wall the service
    /// layer sets uniformly across requests).
    watchdog: Option<Duration>,
    cancelled: bool,
}

impl Governor {
    /// The integrity screen's coefficient bound: each square is at most
    /// 1e200, so a serial variance over any term count a form can hold
    /// (fewer than 1e108) stays finite, and as a sum of squares it is
    /// non-negative.
    const SCREEN: f64 = 1e100;

    /// The legacy strict policy: `rule` stays active for the whole run
    /// and the first breach of `budget`'s hard limits is a typed error.
    #[must_use]
    pub fn strict(budget: Budget, rule: Arc<dyn PruningRule>, base_epsilon: f64) -> Self {
        Self {
            governed: false,
            max_epsilon: base_epsilon,
            ..Self::governed(budget, vec![rule], base_epsilon)
        }
    }

    /// The graceful-degradation policy.
    ///
    /// `cascade` lists the pruning rules in order of decreasing cost,
    /// starting with the rule the run begins under; soft breaches advance
    /// through it before tightening epsilon or truncating.
    ///
    /// # Panics
    ///
    /// Panics if `cascade` is empty — a governed run owns its rule.
    #[must_use]
    pub fn governed(budget: Budget, cascade: Vec<Arc<dyn PruningRule>>, base_epsilon: f64) -> Self {
        assert!(!cascade.is_empty(), "governed cascade must not be empty");
        let initial_rule = cascade[0].name().to_owned();
        Self {
            budget: budget.normalized(),
            clock: Box::new(MonotonicClock::new()),
            cascade,
            active: 0,
            governed: true,
            epsilon: base_epsilon,
            max_epsilon: 1e-2,
            panic_mode: false,
            time_steps_taken: 0,
            mem_steps_taken: 0,
            live_bytes: 0,
            peak_chunk_bytes: 0,
            events: Vec::new(),
            initial_rule,
            poisoned_total: 0,
            cancel: None,
            watchdog: None,
            cancelled: false,
        }
    }

    /// Replaces the wall-clock source (fault injection uses this to skew
    /// time deterministically).
    #[must_use]
    pub fn with_clock(mut self, clock: Box<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Arms cooperative cancellation: `token` may be latched externally
    /// (service shutdown, client disconnect) and `watchdog`, when set, is
    /// a per-run deadline measured on the governor's clock. Either firing
    /// turns the next `check_time` into best-so-far completion (governed)
    /// or [`InsertionError::Cancelled`] (strict).
    #[must_use]
    pub fn with_cancellation(mut self, token: CancelToken, watchdog: Option<Duration>) -> Self {
        self.cancel = Some(token);
        self.watchdog = watchdog;
        self
    }

    /// Whether the run has observed a cancellation.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled
    }

    /// The budget this governor enforces.
    #[must_use]
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// The rule the run is currently pruning with.
    #[must_use]
    pub fn active_rule(&self) -> Arc<dyn PruningRule> {
        Arc::clone(&self.cascade[self.active])
    }

    /// Whether this governor degrades (true) or aborts (false) on breach.
    #[must_use]
    pub fn is_governed(&self) -> bool {
        self.governed
    }

    /// Current epsilon-sparsification level.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Whether panic completion is engaged (keep one candidate per node).
    #[must_use]
    pub fn panicking(&self) -> bool {
        self.panic_mode
    }

    /// Elapsed run time per the governor's clock.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.clock.elapsed()
    }

    fn record(&mut self, trigger: Trigger, action: Action) {
        self.events.push(DegradationEvent {
            at: self.clock.elapsed(),
            trigger,
            action,
        });
    }

    /// Advances the cascade if a cheaper rule remains. Returns the new
    /// rule's name on success.
    fn try_fallback(&mut self, trigger: Trigger) -> bool {
        if self.active + 1 >= self.cascade.len() {
            return false;
        }
        let from = self.cascade[self.active].name();
        self.active += 1;
        let to = self.cascade[self.active].name();
        self.record(trigger, Action::RuleFallback { from, to });
        true
    }

    /// Tightens epsilon if headroom remains.
    fn try_tighten_epsilon(&mut self, trigger: Trigger) -> bool {
        if self.epsilon >= self.max_epsilon {
            return false;
        }
        let from = self.epsilon;
        self.epsilon = (self.epsilon.max(1e-5) * 10.0).min(self.max_epsilon);
        let to = self.epsilon;
        self.record(
            trigger,
            Action::EpsilonTightened {
                from_micros: (from * 1e6) as u64,
                to_micros: (to * 1e6) as u64,
            },
        );
        true
    }

    fn enter_panic(&mut self, trigger: Trigger) {
        if !self.panic_mode {
            self.panic_mode = true;
            self.record(trigger, Action::PanicCompletion);
        }
    }

    /// Wall-clock check. Strict: hard breach is a typed error. Governed:
    /// a soft breach walks the degradation ladder (once per escalation
    /// level), a hard breach engages panic completion. Cancellation
    /// (external token or watchdog overrun) is observed here too: a
    /// governed run enters panic completion marked `cancelled`, a strict
    /// run returns a typed error.
    ///
    /// # Errors
    ///
    /// [`InsertionError::TimeLimitExceeded`] or
    /// [`InsertionError::Cancelled`] in strict mode only.
    pub fn check_time(&mut self) -> Result<(), InsertionError> {
        let elapsed = self.clock.elapsed();
        let deadline_hit = self.watchdog.is_some_and(|d| elapsed > d);
        if deadline_hit || self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            if !self.governed {
                return Err(InsertionError::Cancelled { elapsed });
            }
            if !self.cancelled {
                self.cancelled = true;
                let trigger = Trigger::Cancelled {
                    elapsed,
                    deadline: if deadline_hit { self.watchdog } else { None },
                };
                if self.panic_mode {
                    // Already on the best-so-far path (e.g. a hard-time
                    // breach beat the watchdog); still record the cancel.
                    self.record(trigger, Action::PanicCompletion);
                } else {
                    self.enter_panic(trigger);
                }
            }
            return Ok(());
        }
        if !self.governed {
            if elapsed > self.budget.hard_time {
                return Err(InsertionError::TimeLimitExceeded {
                    elapsed,
                    limit: self.budget.hard_time,
                });
            }
            return Ok(());
        }
        if elapsed > self.budget.hard_time {
            self.enter_panic(Trigger::TimePressure {
                elapsed,
                limit: self.budget.hard_time,
            });
        } else if elapsed > self.budget.soft_time && self.time_steps_taken == 0 {
            self.time_steps_taken += 1;
            let trigger = Trigger::TimePressure {
                elapsed,
                limit: self.budget.soft_time,
            };
            let _ = self.try_fallback(trigger.clone()) || self.try_tighten_epsilon(trigger);
        }
        Ok(())
    }

    /// Offers a node's materialized candidate count (or, before a
    /// cross-product merge, the count *about to be* materialized).
    ///
    /// # Errors
    ///
    /// [`InsertionError::CapacityExceeded`] in strict mode only.
    pub fn admit(&mut self, node: NodeId, solutions: usize) -> Result<Admission, InsertionError> {
        if !self.governed {
            if solutions > self.budget.hard_solutions {
                return Err(InsertionError::CapacityExceeded {
                    node,
                    solutions,
                    limit: self.budget.hard_solutions,
                });
            }
            return Ok(Admission::Ok);
        }
        if self.panic_mode {
            return Ok(if solutions > 1 {
                Admission::Truncate(1)
            } else {
                Admission::Ok
            });
        }
        // Memory pressure feeds the same ladder as solution-count
        // pressure; check the harder constraint of the two.
        let mem_breach = self.live_bytes > self.budget.soft_mem_bytes && self.mem_steps_taken < 2;
        if solutions <= self.budget.soft_solutions && !mem_breach {
            return Ok(Admission::Ok);
        }
        let trigger = if solutions > self.budget.soft_solutions {
            Trigger::SolutionPressure {
                node,
                solutions,
                limit: self.budget.soft_solutions,
            }
        } else {
            self.mem_steps_taken += 1;
            Trigger::MemoryPressure {
                estimated_bytes: self.live_bytes,
                limit_bytes: self.budget.soft_mem_bytes,
            }
        };
        if self.try_fallback(trigger.clone()) {
            return Ok(Admission::Reprune);
        }
        if self.try_tighten_epsilon(trigger.clone()) {
            // Epsilon only helps future forms; give immediate relief too
            // when over the hard cap.
            if solutions > self.budget.hard_solutions {
                self.record(
                    trigger,
                    Action::ListTruncated {
                        from: solutions,
                        to: self.budget.soft_solutions,
                    },
                );
                return Ok(Admission::Truncate(self.budget.soft_solutions.max(1)));
            }
            return Ok(Admission::Ok);
        }
        if solutions > self.budget.hard_solutions || self.live_bytes > self.budget.hard_mem_bytes {
            self.enter_panic(trigger);
            return Ok(Admission::Truncate(1));
        }
        // Ladder exhausted but still under the hard cap: truncate back to
        // the soft cap and keep going.
        self.record(
            trigger,
            Action::ListTruncated {
                from: solutions,
                to: self.budget.soft_solutions,
            },
        );
        Ok(Admission::Truncate(self.budget.soft_solutions.max(1)))
    }

    /// Removes candidates with non-finite load/RAT statistics, recording
    /// a [`Action::PoisonedDropped`] event when any are found.
    ///
    /// A candidate is valid when its means and `wire_pending` are finite
    /// and both forms' variances are finite and non-negative. Each
    /// candidate is first screened in one order-free pass
    /// ([`CanonicalForm::coeffs_within`]): finite means and
    /// `wire_pending`, and every coefficient at most 1e100 in magnitude,
    /// which makes the serial variance finite and non-negative, so the
    /// screen keeps only valid candidates. A candidate that fails it
    /// pays the two serial variances, and the full rule decides: the
    /// survivors and the poisoned counts are those of the full rule
    /// alone.
    ///
    /// [`CanonicalForm::coeffs_within`]: varbuf_stats::CanonicalForm::coeffs_within
    ///
    /// # Errors
    ///
    /// [`InsertionError::PoisonedSolutions`] if *every* candidate at the
    /// node is invalid — there is no valid state to recover to.
    pub fn sanitize(
        &mut self,
        node: NodeId,
        sols: &mut Vec<StatSolution>,
    ) -> Result<(), InsertionError> {
        let before = sols.len();
        sols.retain(Self::is_valid);
        let dropped = before - sols.len();
        if dropped > 0 {
            self.poisoned_total += dropped;
            if sols.is_empty() {
                return Err(InsertionError::PoisonedSolutions { node });
            }
            self.record(
                Trigger::PoisonedSolutions {
                    node,
                    count: dropped,
                },
                Action::PoisonedDropped { count: dropped },
            );
        }
        Ok(())
    }

    /// The validity rule of [`Governor::sanitize`]: whether `s` is
    /// kept. A list whose every candidate passes is left as it is, so
    /// the engine screens a list it shares with the session cache before
    /// taking a copy to sanitize.
    pub(crate) fn is_valid(s: &StatSolution) -> bool {
        if !(s.load.mean().is_finite() && s.rat.mean().is_finite() && s.wire_pending.is_finite()) {
            return false;
        }
        if s.load.coeffs_within(Self::SCREEN) && s.rat.coeffs_within(Self::SCREEN) {
            return true;
        }
        // Each variance is one ordered pass over the form's terms: take
        // it once.
        let (load_var, rat_var) = (s.load.variance(), s.rat.variance());
        load_var.is_finite() && rat_var.is_finite() && load_var >= 0.0 && rat_var >= 0.0
    }

    /// Updates the live-memory estimate after a node's list is stored.
    pub fn note_memory(&mut self, stored: &[StatSolution], freed_estimate: usize) {
        let added: usize = stored.iter().map(solution_footprint).sum();
        self.live_bytes = self.live_bytes.saturating_add(added);
        self.live_bytes = self.live_bytes.saturating_sub(freed_estimate);
    }

    /// Estimated live bytes currently tracked.
    #[must_use]
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    /// Reports the bytes currently parked in cut-node frontiers; the
    /// governor keeps the high-water mark for the report.
    pub fn note_chunk_bytes(&mut self, bytes: usize) {
        self.peak_chunk_bytes = self.peak_chunk_bytes.max(bytes);
    }

    /// High-water mark of parked-frontier bytes observed so far.
    #[must_use]
    pub fn peak_chunk_bytes(&self) -> usize {
        self.peak_chunk_bytes
    }

    /// Total poisoned candidates dropped so far.
    #[must_use]
    pub fn poisoned_total(&self) -> usize {
        self.poisoned_total
    }

    /// Consumes the governor into its degradation report.
    #[must_use]
    pub fn into_report(self) -> Degradation {
        let final_rule = self.cascade[self.active].name().to_owned();
        Degradation {
            events: self.events,
            initial_rule: self.initial_rule,
            final_rule,
            panic_completion: self.panic_mode,
            cancelled: self.cancelled,
            guard: None,
            peak_chunk_bytes: self.peak_chunk_bytes,
        }
    }
}

/// Truncates `sols` (sorted by the rule's load key) to `keep` entries
/// while preserving Pareto spread: the best-RAT candidate always
/// survives, and the rest are sampled evenly across the load range.
pub fn truncate_spread(rule: &dyn PruningRule, sols: &mut Vec<StatSolution>, keep: usize) {
    if sols.len() <= keep || keep == 0 {
        return;
    }
    sols.sort_by(|a, b| rule.load_key(a).total_cmp(&rule.load_key(b)));
    let best_rat_idx = sols
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| rule.rat_key(a).total_cmp(&rule.rat_key(b)))
        .map_or(0, |(i, _)| i);
    let n = sols.len();
    let mut keep_flags = vec![false; n];
    keep_flags[best_rat_idx] = true;
    let mut kept = 1usize;
    let mut slot = 0usize;
    while kept < keep {
        // Even sampling across the load-sorted list.
        let idx = slot * (n - 1) / (keep - 1).max(1);
        slot += 1;
        if slot > n {
            break;
        }
        if !keep_flags[idx] {
            keep_flags[idx] = true;
            kept += 1;
        }
    }
    let mut flags = keep_flags.into_iter();
    sols.retain(|_| flags.next().unwrap_or(false));
}

/// Keeps only the single best candidate by the rule's RAT key — the
/// panic-completion reduction.
pub fn keep_best(rule: &dyn PruningRule, sols: &mut Vec<StatSolution>) {
    if sols.len() <= 1 {
        return;
    }
    let best = sols
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| rule.rat_key(a).total_cmp(&rule.rat_key(b)))
        .map_or(0, |(i, _)| i);
    sols.swap(0, best);
    sols.truncate(1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::{FourParam, TwoParam};
    use varbuf_stats::CanonicalForm;

    fn sol(load: f64, rat: f64) -> StatSolution {
        StatSolution::new(CanonicalForm::constant(load), CanonicalForm::constant(rat))
    }

    fn governed_cascade() -> Vec<Arc<dyn PruningRule>> {
        vec![
            Arc::new(FourParam::default()),
            Arc::new(TwoParam::new(0.9, 0.9)),
            Arc::new(TwoParam::default()),
        ]
    }

    #[test]
    fn strict_governor_errors_on_capacity() {
        let mut g = Governor::strict(
            Budget::strict(10, Duration::MAX),
            Arc::new(TwoParam::default()),
            0.0,
        );
        assert!(matches!(g.admit(NodeId(1), 5), Ok(Admission::Ok)));
        let err = g.admit(NodeId(1), 11).unwrap_err();
        assert!(matches!(err, InsertionError::CapacityExceeded { .. }));
    }

    #[test]
    fn strict_governor_errors_on_time() {
        let mut g = Governor::strict(
            Budget::strict(usize::MAX, Duration::from_nanos(1)),
            Arc::new(TwoParam::default()),
            0.0,
        );
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(
            g.check_time(),
            Err(InsertionError::TimeLimitExceeded { .. })
        ));
    }

    #[test]
    fn governed_walks_the_cascade_then_epsilon_then_truncates() {
        let budget = Budget {
            soft_solutions: 10,
            hard_solutions: 40,
            ..Budget::unlimited()
        };
        let mut g = Governor::governed(budget, governed_cascade(), 0.0);
        assert_eq!(g.active_rule().name(), "4P");
        // First breach: 4P -> 2P(0.9).
        assert_eq!(g.admit(NodeId(0), 11).unwrap(), Admission::Reprune);
        assert_eq!(g.active_rule().name(), "2P");
        // Second breach: 2P(0.9) -> 2P mean dominance.
        assert_eq!(g.admit(NodeId(0), 11).unwrap(), Admission::Reprune);
        // Third: cascade exhausted, epsilon tightens (under hard cap).
        assert_eq!(g.admit(NodeId(0), 11).unwrap(), Admission::Ok);
        assert!(g.epsilon() > 0.0);
        // Keep breaching: epsilon maxes out, then truncation.
        let mut saw_truncate = false;
        for _ in 0..6 {
            if let Admission::Truncate(n) = g.admit(NodeId(0), 12).unwrap() {
                assert_eq!(n, 10);
                saw_truncate = true;
                break;
            }
        }
        assert!(saw_truncate, "ladder must end in truncation");
        // Over the hard cap with the ladder exhausted: panic completion.
        assert_eq!(g.admit(NodeId(0), 41).unwrap(), Admission::Truncate(1));
        assert!(g.panicking());
        let report = g.into_report();
        assert!(report.degraded());
        assert!(report.panic_completion);
        assert_eq!(report.initial_rule, "4P");
        assert_eq!(report.final_rule, "2P");
        assert!(report.rule_fallbacks() >= 2);
        assert!(report.summary().contains("panic completion"));
    }

    #[test]
    fn governed_never_errors_on_time() {
        let budget = Budget {
            soft_time: Duration::from_nanos(1),
            hard_time: Duration::from_nanos(2),
            ..Budget::unlimited()
        };
        let mut g = Governor::governed(budget, governed_cascade(), 0.0);
        std::thread::sleep(Duration::from_millis(1));
        g.check_time().expect("governed time check never errors");
        assert!(g.panicking());
        assert_eq!(g.admit(NodeId(3), 5).unwrap(), Admission::Truncate(1));
    }

    #[test]
    fn sanitize_drops_poison_and_reports() {
        let mut g = Governor::governed(Budget::unlimited(), governed_cascade(), 0.0);
        let mut sols = vec![
            sol(10.0, -50.0),
            sol(f64::NAN, -60.0),
            StatSolution::new(
                CanonicalForm::constant(5.0),
                CanonicalForm::constant(f64::INFINITY),
            ),
        ];
        g.sanitize(NodeId(7), &mut sols).expect("one survivor");
        assert_eq!(sols.len(), 1);
        assert_eq!(g.poisoned_total(), 2);
        let mut all_bad = vec![sol(f64::NAN, f64::NAN)];
        let err = g.sanitize(NodeId(8), &mut all_bad).unwrap_err();
        assert!(matches!(err, InsertionError::PoisonedSolutions { .. }));
    }

    /// The order-free screen changes no decision: over forms carrying
    /// NaN, ±inf, 1e200 (whose square overflows), pairs of 1e154 (whose
    /// squares overflow only as a sum), the 1e100 bound itself, 1e150
    /// (past the screen, finite variance) and ordinary coefficients, in
    /// the sparse tail and in the region window, plus NaN or infinite
    /// means and `wire_pending`, `sanitize` keeps exactly the candidates
    /// the serial-variance rule keeps, in order, and records the same
    /// poisoned counts, events and errors.
    #[test]
    fn sanitize_screen_matches_the_serial_variance_rule() {
        use crate::trace::Trace;
        use varbuf_stats::{Grid, SourceId};
        fn serial_valid(s: &StatSolution) -> bool {
            let (load_var, rat_var) = (s.load.variance(), s.rat.variance());
            s.load.mean().is_finite()
                && s.rat.mean().is_finite()
                && load_var.is_finite()
                && rat_var.is_finite()
                && load_var >= 0.0
                && rat_var >= 0.0
                && s.wire_pending.is_finite()
        }
        let grid = Grid::new(SourceId(1), 4, 4);
        // Global source 0, a 2 × 2 window with one hole, device 100.
        let form = |mean: f64, tail: f64, cells: [f64; 2]| {
            let mut f = CanonicalForm::constant(mean);
            f.push_term(SourceId(0), 0.25);
            f.set_regions(grid, 1, 1, 2, &[cells[0], 0.0, -0.75, cells[1]], 1.0);
            f.push_term(SourceId(100), tail);
            f
        };
        let values = [
            0.5,
            -3.0,
            1e100,
            -1e100,
            1e150,
            1e200,
            -1e200,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let ordinary = || form(2.0, 1.5, [0.5, -0.5]);
        let mut cands: Vec<StatSolution> = Vec::new();
        for &v in &values {
            cands.push(StatSolution::new(form(2.0, v, [0.5, -0.5]), ordinary()));
            cands.push(StatSolution::new(form(2.0, 1.5, [v, -0.5]), ordinary()));
            cands.push(StatSolution::new(ordinary(), form(-40.0, v, [0.5, -0.5])));
            cands.push(StatSolution::new(ordinary(), form(-40.0, 1.5, [0.5, v])));
        }
        cands.push(StatSolution::new(
            form(2.0, 1.5, [1e154, 1e154]),
            ordinary(),
        ));
        cands.push(StatSolution::new(
            ordinary(),
            form(-40.0, 1e154, [1e154, 0.5]),
        ));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            cands.push(StatSolution::new(form(bad, 1.5, [0.5, -0.5]), ordinary()));
            cands.push(StatSolution::new(ordinary(), form(bad, 1.5, [0.5, -0.5])));
            let mut pending = StatSolution::new(ordinary(), ordinary());
            pending.wire_pending = bad;
            cands.push(pending);
        }
        let mut pending = StatSolution::new(ordinary(), ordinary());
        pending.wire_pending = 0.125;
        cands.push(pending);
        for (i, s) in cands.iter_mut().enumerate() {
            s.trace = Trace::buffer(
                NodeId(i as u32),
                varbuf_variation::BufferTypeId(0),
                Trace::empty(),
            );
        }
        let tag = |s: &StatSolution| s.trace.collect()[0].0;
        let kept = cands.iter().filter(|s| serial_valid(s)).count();
        assert!(
            kept > 0 && kept < cands.len(),
            "the cases mix valid and poisoned"
        );
        // Eight nodes dealt the candidates round-robin, so each mixes
        // valid and poisoned ones, then one all-poisoned node.
        let mut g = Governor::governed(Budget::unlimited(), governed_cascade(), 0.0);
        let mut expected_events = Vec::new();
        let (mut expected_total, mut event_total) = (0, 0);
        let mut lists: Vec<Vec<StatSolution>> = (0..8)
            .map(|n| cands.iter().skip(n).step_by(8).cloned().collect())
            .collect();
        lists.push(
            cands
                .iter()
                .filter(|s| !serial_valid(s))
                .take(4)
                .cloned()
                .collect(),
        );
        for (n, list) in lists.into_iter().enumerate() {
            let node = NodeId(n as u32);
            let want: Vec<NodeId> = list.iter().filter(|s| serial_valid(s)).map(tag).collect();
            let dropped = list.len() - want.len();
            let mut got = list;
            let outcome = g.sanitize(node, &mut got);
            expected_total += dropped;
            if want.is_empty() {
                assert!(
                    matches!(outcome, Err(InsertionError::PoisonedSolutions { node: at }) if at == node),
                    "node {n}: every candidate poisoned must be an error"
                );
                continue;
            }
            outcome.expect("a valid candidate survives");
            assert_eq!(got.iter().map(tag).collect::<Vec<_>>(), want, "node {n}");
            if dropped > 0 {
                event_total += dropped;
                expected_events.push((
                    Trigger::PoisonedSolutions {
                        node,
                        count: dropped,
                    },
                    Action::PoisonedDropped { count: dropped },
                ));
            }
        }
        assert_eq!(g.poisoned_total(), expected_total);
        let report = g.into_report();
        // The all-poisoned node errors without an event.
        assert_eq!(report.poisoned_dropped(), event_total);
        assert_eq!(expected_total, event_total + 4);
        let events: Vec<_> = report
            .events
            .into_iter()
            .map(|e| (e.trigger, e.action))
            .collect();
        assert_eq!(events, expected_events);
    }

    #[test]
    fn memory_pressure_degrades() {
        let budget = Budget {
            soft_mem_bytes: 64,
            hard_mem_bytes: 1 << 40,
            ..Budget::unlimited()
        };
        let mut g = Governor::governed(budget, governed_cascade(), 0.0);
        let sols = vec![sol(1.0, -1.0), sol(2.0, -2.0)];
        g.note_memory(&sols, 0);
        assert!(g.live_bytes() > 64);
        assert_eq!(g.admit(NodeId(2), 1).unwrap(), Admission::Reprune);
        let report = g.into_report();
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e.trigger, Trigger::MemoryPressure { .. })));
    }

    #[test]
    fn truncate_spread_keeps_best_rat_and_endpoints() {
        let rule = TwoParam::default();
        let mut sols: Vec<StatSolution> = (0..100)
            .map(|i| sol(f64::from(i), -500.0 + f64::from(i)))
            .collect();
        let best_rat_before = sols
            .iter()
            .map(StatSolution::rat_mean)
            .fold(f64::NEG_INFINITY, f64::max);
        truncate_spread(&rule, &mut sols, 10);
        assert_eq!(sols.len(), 10);
        let best_rat_after = sols
            .iter()
            .map(StatSolution::rat_mean)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(best_rat_before, best_rat_after);
    }

    #[test]
    fn keep_best_selects_max_rat() {
        let rule = TwoParam::default();
        let mut sols = vec![sol(1.0, -100.0), sol(2.0, -50.0), sol(3.0, -75.0)];
        keep_best(&rule, &mut sols);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].rat_mean(), -50.0);
    }

    #[test]
    fn budget_normalization_and_constructors() {
        let b = Budget {
            soft_solutions: 100,
            hard_solutions: 50,
            ..Budget::unlimited()
        }
        .normalized();
        assert_eq!(b.soft_solutions, 50);
        let w = Budget::with_soft(10, Duration::from_secs(1), 1000);
        assert_eq!(w.hard_solutions, 40);
        assert_eq!(w.hard_time, Duration::from_secs(2));
        assert_eq!(w.hard_mem_bytes, 4000);
        let s = Budget::strict(7, Duration::from_secs(3));
        assert_eq!(s.soft_solutions, s.hard_solutions);
        assert_eq!(s.soft_time, s.hard_time);
    }

    #[test]
    fn cancel_token_turns_governed_run_into_best_so_far() {
        let token = CancelToken::new();
        let mut g = Governor::governed(Budget::unlimited(), governed_cascade(), 0.0)
            .with_cancellation(token.clone(), None);
        g.check_time().expect("uncancelled check passes");
        assert!(!g.panicking());
        token.cancel();
        assert!(token.is_cancelled());
        g.check_time().expect("governed cancel never errors");
        assert!(g.panicking());
        assert!(g.is_cancelled());
        let report = g.into_report();
        assert!(report.cancelled);
        assert!(report.degraded());
        assert!(report.summary().contains("cancelled"));
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e.trigger, Trigger::Cancelled { deadline: None, .. })));
    }

    #[test]
    fn watchdog_deadline_cancels_on_the_governor_clock() {
        #[derive(Debug)]
        struct Fixed(Duration);
        impl Clock for Fixed {
            fn elapsed(&self) -> Duration {
                self.0
            }
        }
        let mut g = Governor::governed(Budget::unlimited(), governed_cascade(), 0.0)
            .with_clock(Box::new(Fixed(Duration::from_secs(10))))
            .with_cancellation(CancelToken::new(), Some(Duration::from_secs(5)));
        g.check_time().expect("governed watchdog never errors");
        assert!(g.is_cancelled());
        let report = g.into_report();
        assert!(report.cancelled && report.panic_completion);
        assert!(report.events.iter().any(|e| matches!(
            e.trigger,
            Trigger::Cancelled {
                deadline: Some(_),
                ..
            }
        )));
    }

    #[test]
    fn strict_cancellation_is_a_typed_error() {
        let token = CancelToken::new();
        let mut g = Governor::strict(Budget::unlimited(), Arc::new(TwoParam::default()), 0.0)
            .with_cancellation(token.clone(), None);
        g.check_time().expect("uncancelled strict check passes");
        token.cancel();
        assert!(matches!(
            g.check_time(),
            Err(InsertionError::Cancelled { .. })
        ));
    }

    #[test]
    fn undegraded_report_reads_clean() {
        let g = Governor::governed(Budget::unlimited(), governed_cascade(), 0.0);
        let report = g.into_report();
        assert!(!report.degraded());
        assert!(report.summary().contains("no degradation"));
    }

    #[test]
    fn guard_note_is_not_degradation() {
        let g = Governor::governed(Budget::unlimited(), governed_cascade(), 0.0);
        let mut report = g.into_report();
        report.guard = Some(GuardedFallback {
            from: "4P".to_owned(),
            to: "2P".to_owned(),
            sinks: 120,
            threshold: 12,
        });
        assert!(!report.degraded(), "guard alone must not read as degraded");
        let summary = report.summary();
        assert!(summary.contains("no degradation"));
        assert!(summary.contains("guarded 4P -> 2P"));
    }

    #[test]
    fn chunk_peak_is_high_water_marked() {
        let mut g = Governor::governed(Budget::unlimited(), governed_cascade(), 0.0);
        g.note_chunk_bytes(100);
        g.note_chunk_bytes(5000);
        g.note_chunk_bytes(200);
        assert_eq!(g.peak_chunk_bytes(), 5000);
        let report = g.into_report();
        assert_eq!(report.peak_chunk_bytes, 5000);
    }
}
