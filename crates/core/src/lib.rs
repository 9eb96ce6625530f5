//! The leakage limit analysis of Meng, Sherwood & Kastner (HPCA 2005).
//!
//! This crate is the paper's primary contribution, rebuilt as a library:
//!
//! * [`envelope`] — the per-interval optimal mode classification of
//!   Theorem 1 and the lower-envelope energy function (Fig. 10),
//! * [`EnergyContext`] — edge-aware interval energy accounting (what
//!   each operating mode costs over each interval, including the
//!   leading/trailing/untouched edge cases and the dead-interval
//!   refinement),
//! * [`policy`] — the management schemes evaluated in the paper:
//!   `OPT-Drowsy`, `OPT-Sleep(θ)`, the non-oracle decay scheme
//!   `Sleep(θ)`, `OPT-Hybrid`, and the prefetch-guided `Prefetch-A` /
//!   `Prefetch-B` schemes of §5, plus a [`PolicyBank`] that evaluates
//!   many schemes over one interval distribution in a single pass,
//! * [`GeneralizedModel`] — the parameterized state-machine model of
//!   Fig. 6 that reports optimal savings for arbitrary circuit
//!   assumptions ("the model is coded … and publicly available" — this
//!   is that artifact, in Rust).
//!
//! # Quickstart
//!
//! ```
//! use leakage_core::{CircuitParams, IntervalEnergyModel, PowerMode};
//! use leakage_core::envelope::optimal_mode;
//! use leakage_energy::TechnologyNode;
//!
//! let model = IntervalEnergyModel::new(CircuitParams::for_node(TechnologyNode::N70));
//! let points = model.inflection_points();
//! // Theorem 1's classification:
//! assert_eq!(optimal_mode(4, &points), PowerMode::Active);
//! assert_eq!(optimal_mode(500, &points), PowerMode::Drowsy);
//! assert_eq!(optimal_mode(5000, &points), PowerMode::Sleep);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accounting;
mod census;
pub mod closed_form;
pub mod envelope;
mod model;
pub mod perf;
pub mod policy;

pub use accounting::{EnergyContext, PolicyEvaluation, RefetchAccounting};
pub use census::{ModeCensus, ModeShare};
pub use closed_form::{ModeLine, OptFamily};
pub use model::{GeneralizedModel, OptimalSavings};
pub use perf::{Stall, StallAccount};
pub use policy::{LeakagePolicy, PolicyBank};

// Re-export the circuit-level vocabulary so downstream users need only
// one import path for the common workflow.
pub use leakage_energy::{
    CircuitParams, Energy, InflectionPoints, IntervalEnergyModel, ModePowers, ModeTimings, Power,
    PowerMode, TechnologyNode, TransitionModel,
};
pub use leakage_intervals::{
    ClassCategory, CompactIntervalDist, Interval, IntervalClass, IntervalKind, IntervalTable,
    WakeHints,
};
