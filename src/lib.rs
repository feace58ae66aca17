//! # varbuf — variation-aware buffer insertion
//!
//! A from-scratch Rust reproduction of the Xiong/He line of work on buffer
//! insertion under process variation (DATE 2005 and its follow-up
//! introducing the linear-complexity two-parameter pruning rule).
//!
//! The workspace is organized as four library crates, re-exported here:
//!
//! * [`stats`] — Gaussian math, first-order canonical forms, statistical
//!   min/max, Monte Carlo, least squares;
//! * [`rctree`] — RC routing trees, Elmore delay, benchmark generators;
//! * [`variation`] — the first-order process-variation model (random /
//!   inter-die / spatially correlated intra-die) and device
//!   characterization;
//! * [`core`] — deterministic van Ginneken plus the variation-aware DP
//!   with the 2P / 4P / 1P pruning rules, drivers and yield analysis.
//!
//! # Quick start
//!
//! ```
//! use varbuf::prelude::*;
//!
//! # fn main() -> Result<(), varbuf::core::InsertionError> {
//! // A synthetic benchmark in the style of the paper's r1.
//! let tree = generate_benchmark(&BenchmarkSpec::random("net", 64, 42));
//! let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous);
//!
//! // Variation-aware insertion with the 2P pruning rule.
//! let wid = optimize_statistical(&tree, &model, VariationMode::WithinDie, &Options::default())?;
//!
//! // Timing yield of the resulting design.
//! let analysis = YieldEvaluator::new(&tree, &model, VariationMode::WithinDie)
//!     .analyze(&wid.assignment);
//! assert!(analysis.rat_at_95_yield < analysis.rat.mean());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use varbuf_core as core;
pub use varbuf_rctree as rctree;
pub use varbuf_stats as stats;
pub use varbuf_variation as variation;

/// One-line imports for the common workflow.
pub mod prelude {
    pub use varbuf_core::criticality::{sink_criticalities, CriticalityReport};
    pub use varbuf_core::design::{Design, DesignNet};
    pub use varbuf_core::dp::{
        fallback_cascade, optimize_with_rule, run, DpOptions, RootSelection, RunControls,
        RunRequest, RunResult, WireSizing,
    };
    pub use varbuf_core::driver::{
        optimize_all_modes, optimize_nominal, optimize_statistical, OptimizeResult, Options,
    };
    pub use varbuf_core::faultinject::{RequestFault, RequestFaults};
    pub use varbuf_core::governor::{Budget, CancelToken, Degradation, DegradationEvent};
    pub use varbuf_core::hier::{optimize_hier, HierOptions, HierReport};
    pub use varbuf_core::pool::{default_jobs, optimize_batch};
    pub use varbuf_core::prune::{FourParam, OneParam, PruningRule, RuleConfigError, TwoParam};
    pub use varbuf_core::service::{
        parse_line, parse_open_spec, Command, OptimizeParams, Request, Response, RuleChoice,
        Service, ServiceConfig, ServiceStats, SessionHandle, SessionStore,
    };
    pub use varbuf_core::skew::{SinkArrivals, SkewAnalysis, SkewAnalyzer};
    pub use varbuf_core::yield_eval::{YieldAnalysis, YieldEvaluator};
    pub use varbuf_core::{InsertionError, RequestError};
    pub use varbuf_rctree::generate::{
        generate_benchmark, generate_htree, BenchmarkSpec, HTreeSpec,
    };
    pub use varbuf_rctree::{NodeId, Point, RoutingTree, WireParams};
    pub use varbuf_stats::{CanonicalForm, SourceId};
    pub use varbuf_variation::{
        BufferLibrary, BufferType, BufferTypeId, ProcessModel, SpatialKind, UnknownBufferType,
        VariationBudgets, VariationMode,
    };
}
