//! Statistical foundations for variation-aware buffer insertion.
//!
//! This crate provides every piece of numerical machinery the `varbuf`
//! workspace needs, implemented from scratch so the workspace has no
//! external math dependencies:
//!
//! * [`gaussian`] — the standard normal PDF `φ`, CDF `Φ`, its inverse
//!   (quantile), the error function, and the closed-form probability
//!   `P(T1 > T2)` for jointly normal variables (eq. (8)–(9) of the paper).
//! * [`canonical`] — sparse **first-order canonical forms**
//!   `v = v0 + Σ aᵢ·Xᵢ` over independent standard normal sources, the
//!   representation used for every statistical solution in the dynamic
//!   program (eqs. (31)–(32)).
//! * [`clark`] — the statistical `min`/`max` of two canonical forms via
//!   tightness probabilities (Clark's approximation, eqs. (38)–(43)).
//! * [`mc`] — a Monte Carlo engine that samples the underlying sources and
//!   evaluates canonical forms, used to validate the first-order model
//!   (Figure 6 of the paper).
//! * [`linfit`] — ordinary least squares for small dense systems, used by
//!   the device characterization flow (Section 3.1 / Figure 3).
//! * [`histogram`] — fixed-bin histograms for PDF comparisons.
//! * [`rng`] — a deterministic SplitMix64 generator backing benchmark
//!   generation, Monte Carlo, and the property-style tests, so that the
//!   whole workspace builds hermetically with no external crates.
//!
//! # Example
//!
//! ```
//! use varbuf_stats::canonical::{CanonicalForm, SourceId};
//!
//! // T1 = 10 + 2·X0, T2 = 8 + 1·X0 + 1·X1
//! let t1 = CanonicalForm::with_terms(10.0, vec![(SourceId(0), 2.0)]);
//! let t2 = CanonicalForm::with_terms(8.0, vec![(SourceId(0), 1.0), (SourceId(1), 1.0)]);
//! let p = t1.prob_greater(&t2);
//! assert!(p > 0.5 && p < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canonical;
pub mod clark;
pub mod gaussian;
pub mod histogram;
pub mod ks;
pub mod linfit;
pub mod mc;
pub mod rng;

pub use canonical::{CanonicalForm, SourceId};
pub use clark::{stat_max, stat_min, MinMaxResult};
pub use gaussian::{norm_cdf, norm_pdf, norm_quantile, prob_at_least_normal, prob_greater_normal};
pub use histogram::Histogram;
pub use ks::{ks_critical, ks_statistic};
pub use mc::{MonteCarlo, SampleVector};
pub use rng::SplitMix64;
