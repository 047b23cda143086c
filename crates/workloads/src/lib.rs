//! Synthetic benchmark suite for the sentinel scheduling reproduction.
//!
//! The paper evaluates on 5 SPEC numeric programs and 12 non-numeric
//! programs (§5.1) whose binaries, inputs, and compiler are unavailable.
//! This crate substitutes deterministic synthetic programs, one per paper
//! benchmark, generated from structural parameters ([`WorkloadSpec`]) that
//! reproduce the properties the paper's results hinge on: branch density,
//! late- vs early-resolving branch conditions, load/store mix, fp mix, and
//! dependence-chain depth. See `DESIGN.md` §2 for the substitution
//! rationale.
//!
//! # Example
//!
//! ```
//! use sentinel_workloads::suite;
//!
//! let workloads = suite::suite();
//! assert_eq!(workloads.len(), 17);
//! assert!(workloads.iter().any(|w| w.name == "grep"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod gen;
pub mod kernels;
pub mod rng;
pub mod spec;
pub mod suite;

pub use fuzz::{fuzz_spec, try_fuzz_spec};
pub use gen::{generate, Workload};
pub use rng::Rng;
pub use spec::{BenchClass, SpecError, WorkloadSpec};
