//! # gr-campaign — deterministic fault-injection campaigns
//!
//! A campaign runs a corpus of scenarios — seed × scenario template
//! (topology, algorithm, fault plan) — through the gossip-reduction
//! simulator in parallel, checks every run against an **invariant
//! oracle**, and reports violations as compact, replayable fingerprints.
//!
//! Two lanes:
//!
//! * **sanity** — fault-free, fixed seed corpus, tight (f64-rounding)
//!   tolerances. A hard CI gate: any violation is a bug in the
//!   implementation, not an interesting finding.
//! * **stress** — message loss, bit flips, link failures, node crashes
//!   and the chaos fault shape (burst loss plus a partition that heals)
//!   over the fault-tolerant algorithms. Violations here are the
//!   *subject matter* (e.g. PCF in eager-ϕ mode is destroyed by a
//!   NaN-producing bit flip by design — that is the paper's Fig. 5), so
//!   the lane is gated against a committed baseline report rather than
//!   on zero violations.
//!
//! One entry point runs a scenario ([`run_scenario`]) and one runs a
//! corpus ([`run_campaign`]).
//!
//! The invariant set encodes the paper's claims: global mass
//! conservation, pairwise flow antisymmetry (`f_ij = −f_ji`), PCF flow
//! magnitudes staying `O(|aggregate|)`, convergence to the target
//! accuracy, survivor re-convergence after crashes, and post-fault
//! non-divergence. See [`oracle`] for the exact tolerances and the PCF
//! fold-transient caveat.
//!
//! Every violation line ends with a replay command:
//!
//! ```text
//! replay: cargo run -p gr-campaign -- --mode stress --replay <fp>
//! ```
//!
//! which regenerates the (pure-function) corpus, finds the scenario with
//! that fingerprint, re-runs it with tracing enabled and prints the same
//! `(invariant, round, node)` triple plus the netsim trace tail as JSON.

pub mod hash;
pub mod oracle;
pub mod report;
pub mod runner;
pub mod scenario;

pub use oracle::{Invariant, Oracle, Violation};
pub use report::{
    baseline_fingerprints, find_scenario, render_replay, run_campaign, CampaignReport,
};
pub use runner::{run_scenario, ScenarioResult, CHECK_EVERY};
pub use scenario::{
    sanity_corpus, stress_corpus, Lane, Scenario, TopologyKind, DEFAULT_SANITY_SEEDS,
    DEFAULT_STRESS_SEEDS,
};
