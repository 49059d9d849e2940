//! The experiment harness behind the `figures` binary.
//!
//! One binary, `figures`, runs every figure of the paper's evaluation and
//! the ablations (see `DESIGN.md` for the experiment index), built on
//! shared machinery:
//!
//! * [`figures`] — the experiment implementations, each a function of
//!   the run [`Scale`](figures::Scale) alone;
//! * [`output`] — result tables whose columns are declared once and whose
//!   typed cells render to markdown, CSV and JSON under `results/`;
//! * [`parallel`] — a small `par_map` over `std::thread::scope` workers
//!   that claim chunks of the input from one atomic cursor, so
//!   independent simulation runs use all cores while each run stays
//!   sequential and deterministic;
//! * [`opts`] — minimal `--key=value` argument parsing with a typed
//!   [`ConfigError`] (experiments have few knobs; a CLI framework would
//!   be a heavier dependency than the harness itself).
//!
//! Every experiment is deterministic: its seeds and sizes are constants,
//! and the default scale reproduces the committed `results/` exactly.
//! Paper-scale sweeps (2¹⁵ nodes, 50 dmGS repetitions) are gated behind
//! `--full` because they take tens of minutes on a laptop-class machine.

pub mod figures;
pub mod opts;
pub mod output;
pub mod parallel;

pub use opts::{ConfigError, Opts};
pub use output::Table;
