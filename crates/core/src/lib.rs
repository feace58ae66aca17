//! Variation-aware buffer insertion.
//!
//! This crate implements the optimization layer of the reproduction:
//!
//! * [`det`] — the classic deterministic van Ginneken / Lillis dynamic
//!   program (`O(B·N²)` with a multi-type library), the paper's **NOM**
//!   baseline;
//! * [`prune`] — the three statistical pruning rules the paper compares:
//!   the proposed **two-parameter (2P)** rule with provably linear merge
//!   and prune under joint normality (Section 2.3), the **four-parameter
//!   (4P)** rule of the DATE 2005 paper it extends (Section 2.2), and the
//!   **one-parameter (1P)** percentile rule of \[8\];
//! * [`dp`] — the variation-aware dynamic program, generic over the
//!   pruning rule, using the statistical key operations of Section 4.2
//!   (canonical-form wire/buffer extension, tightness-probability merge);
//! * [`driver`] — the NOM / D2D / WID optimization entry points used by
//!   the experiments;
//! * [`yield_eval`] — timing-yield analysis of a *fixed* buffered tree
//!   under any variation model: canonical root-RAT form, 95%-yield RAT,
//!   yield at a target, and Monte Carlo cross-validation (Figure 6);
//! * [`governor`] — soft/hard resource budgets and the graceful-
//!   degradation policy (pruning-rule fallback cascade, epsilon
//!   tightening, best-so-far panic completion) behind
//!   [`dp::optimize_governed`];
//! * [`faultinject`] — deterministic clock skew and solution poisoning
//!   for exercising the degradation paths in tests;
//! * [`pool`] — the std-only parallel execution layer: the
//!   [`pool::optimize_batch`] worker pool over independent nets,
//!   bit-identical to running them in a serial loop (each net's DP is
//!   one sequential walk);
//! * [`cache`] — epoch-scoped per-node solution caching (Merkle content
//!   signatures + a per-session solution arena) behind the service's
//!   incremental re-optimization path;
//! * [`hier`] — hierarchical decomposition for full-chip scale: cut-node
//!   partitioning and epsilon-bounded frontier splicing, with parked
//!   frontier bytes charged against the governor's memory budget
//!   (64k-sink clock trees);
//! * [`service`] — the resident optimization service behind
//!   `varbuf serve`: a generational-arena session store, per-request
//!   crash isolation (`catch_unwind` + session poisoning), watchdog
//!   deadlines wired into the governor, and cost-based admission
//!   control with load shedding.
//!
//! # Quick start
//!
//! ```
//! use varbuf_core::driver::{optimize_nominal, Options};
//! use varbuf_rctree::generate::{generate_benchmark, BenchmarkSpec};
//! use varbuf_variation::{BufferLibrary, ProcessModel, SpatialKind};
//!
//! # fn main() -> Result<(), varbuf_core::InsertionError> {
//! let tree = generate_benchmark(&BenchmarkSpec::random("demo", 32, 7));
//! let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Homogeneous);
//! let result = optimize_nominal(&tree, &model, &Options::default())?;
//! assert!(result.assignment.len() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod criticality;
pub mod design;
pub mod det;
pub mod dp;
pub mod driver;
pub mod error;
pub mod faultinject;
pub mod governor;
pub mod hier;
pub mod metrics;
pub mod ops;
pub mod pool;
pub mod prune;
pub mod service;
pub mod skew;
pub mod solution;
pub mod trace;
pub mod yield_eval;

pub use cache::{NodeSigs, SolutionCache};
pub use det::optimize_deterministic;
pub use dp::{optimize_governed, optimize_incremental, GovernedResult};
pub use driver::{optimize_nominal, optimize_statistical, OptimizeResult, Options};
pub use error::{InsertionError, RequestError};
pub use governor::{Budget, Degradation, DegradationEvent, Governor, GuardedFallback};
pub use hier::{optimize_hier, HierOptions, HierReport, HierResult};
pub use pool::{default_jobs, optimize_batch, optimize_batch_forced, BatchRequest};
pub use prune::{FourParam, OneParam, PruningRule, TwoParam};
pub use service::{
    EditOp, LibChoice, OptimizeParams, Request, Response, RuleChoice, Service, ServiceConfig,
    ServiceStats, SessionHandle,
};
pub use solution::StatSolution;
pub use yield_eval::{YieldAnalysis, YieldEvaluator};
