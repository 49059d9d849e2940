//! Floating-point substrate for the `gossip-reduce` workspace.
//!
//! The push-cancel-flow paper is, at its heart, a paper about what IEEE-754
//! arithmetic does to a theoretically exact distributed algorithm. Measuring
//! errors down to `1e-16` therefore needs tooling that is itself trustworthy
//! well below that level. This crate provides:
//!
//! * [`Dd`] — double-double ("compensated pair") arithmetic with roughly 31
//!   significant decimal digits, used to compute reference aggregates that
//!   experiments compare against;
//! * [`sum`] — compensated (Neumaier) summation kernels used wherever
//!   the harness folds many floating-point values;
//! * [`bits`] — raw bit manipulation of `f64` values, the mechanism behind
//!   the simulator's bit-flip fault injector;
//! * [`stats`] — the order statistics (max / median / quantiles) every
//!   figure in the paper reports;
//! * [`error`] — relative-error metrics against high-precision references.
//!
//! Everything here is `no_std`-friendly in spirit (no allocation in the hot
//! paths) but the crate links `std` for `f64` math intrinsics.

pub mod bits;
pub mod dd;
pub mod error;
pub mod stats;
pub mod sum;

pub use dd::Dd;
pub use error::{max_relative_error, relative_error, RelErr};
pub use stats::Summary;
pub use sum::{neumaier_sum, CompensatedSum};
