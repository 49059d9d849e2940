//! The per-figure experiment harness.
//!
//! One binary per figure of the paper's evaluation (see `DESIGN.md` for
//! the experiment index), built on shared machinery:
//!
//! * [`figures`] — the experiment implementations (callable from binaries,
//!   benches and integration tests alike);
//! * [`output`] — CSV/markdown/JSON emitters writing under `results/`;
//! * [`parallel`] — a small `par_map` over `std::thread::scope` workers
//!   that claim chunks of the input from one atomic cursor, so
//!   independent simulation runs use all cores while each run stays
//!   sequential and deterministic;
//! * [`opts`] — minimal `--key=value` argument parsing (experiments have
//!   few knobs; a CLI framework would be a heavier dependency than the
//!   harness itself).
//!
//! All experiments are deterministic given `--seed`; the defaults
//! reproduce the committed `EXPERIMENTS.md` numbers exactly. Paper-scale
//! sweeps (2¹⁵ nodes, 50 dmGS repetitions) are gated behind `--full=true`
//! because they take tens of minutes on a laptop-class machine.

pub mod figures;
pub mod opts;
pub mod output;
pub mod parallel;

pub use opts::Opts;
pub use output::Table;
