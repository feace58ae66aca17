//! Process-variation modeling for variation-aware buffer insertion.
//!
//! Implements Section 3 of the paper — a first-order variation model with
//! three kinds of sources, all expressed over independent `N(0,1)`
//! variables (`varbuf_stats::CanonicalForm`):
//!
//! * **random device variation** (eq. (19)–(20)): one independent source
//!   per physical device instance;
//! * **intra-die spatially correlated variation** (eq. (21)–(22)): the die
//!   is partitioned into a grid of regions (500 µm in the paper), each
//!   with an independent source; a device is influenced by the nearby
//!   regions with isotropic Gaussian weights tapering off at ~2 mm;
//! * **inter-die variation** (eq. (23)–(24)): a single global source `G`
//!   shared by every device on the die.
//!
//! The paper budgets each category at 5% of the nominal value; the
//! homogeneous spatial model spreads that budget uniformly, while the
//! heterogeneous model ramps it linearly from the south-west corner to the
//! north-east corner (Section 5.1).
//!
//! [`characterize`] provides the "SPICE substitute": a synthetic
//! *nonlinear* device model sampled by Monte Carlo and reduced to the
//! first-order form by least squares, reproducing the paper's Figure 3
//! normality validation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod characterize;
pub mod library;
pub mod model;
pub mod sources;
pub mod spatial;

pub use library::{BufferLibrary, BufferType, BufferTypeId, UnknownBufferType};
pub use model::{DeviceSite, ProcessModel, VariationBudgets, VariationMode};
pub use sources::SourceLayout;
pub use spatial::{SpatialKind, SpatialModel};
