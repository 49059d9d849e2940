//! `figures`: regenerate the paper's figures and the ablations.
//!
//! ```text
//! figures [--only <entry>[,<entry>]] [--full] [--threads N]
//! ```
//!
//! Runs every entry of [`ENTRIES`] in order, or the `--only` subset. Each
//! table is printed as markdown and written to `results/<table>.csv` and
//! `.json` (`$GR_RESULTS_DIR` overrides the directory). The defaults
//! reproduce the committed `results/` byte for byte at any `--threads`.
//! `--full` runs the paper's sizes: Figs. 3/6 up to 2¹⁵ nodes, Fig. 8 with
//! 50 runs up to 2¹⁰ nodes (tens of minutes).
//!
//! Exit status: 0 on success, 1 when a table could not be saved, 2 on a
//! bad command line.

use gr_experiments::figures::{
    accuracy_sweep, bit_flip_ablation, bus_example, compensated_pf_ablation, dmgs_sweep,
    execution_model_ablation, failure_figure, message_loss_ablation, node_crash_ablation, Scale,
};
use gr_experiments::parallel::default_threads;
use gr_experiments::{output, ConfigError, Opts, Table};
use gr_reduction::{Algorithm, PhiMode};

const BIN: &str = "figures";

/// One runnable entry: the name `--only` selects it by, and what it runs.
type Entry = (&'static str, fn(Scale) -> Vec<Table>);

/// Every figure and ablation, in run order. Figs. 4 and 7 are one
/// experiment (the same seed and link failure under PF and PCF), so one
/// entry writes both series into each of its two tables.
const ENTRIES: [Entry; 10] = [
    ("fig2_bus_example", |_| vec![bus_example()]),
    ("fig3_pf_accuracy", |s| {
        vec![accuracy_sweep(Algorithm::PushFlow, s)]
    }),
    ("fig4_link_failure", |_| {
        vec![failure_figure(75), failure_figure(175)]
    }),
    ("fig6_pcf_accuracy", |s| {
        vec![accuracy_sweep(Algorithm::PushCancelFlow(PhiMode::Eager), s)]
    }),
    ("fig8_dmgs_qr", |s| vec![dmgs_sweep(s)]),
    ("ablation_message_loss", |s| vec![message_loss_ablation(s)]),
    ("ablation_phi_variants", |s| vec![bit_flip_ablation(s)]),
    ("ablation_node_crash", |s| vec![node_crash_ablation(s)]),
    ("ablation_execution_models", |s| {
        vec![execution_model_ablation(s)]
    }),
    ("ablation_compensated_pf", |s| {
        vec![compensated_pf_ablation(s)]
    }),
];

/// The entries a comma-separated `--only` names, in run order; all of
/// them when it is empty.
fn select(only: &str) -> Result<Vec<&'static Entry>, ConfigError> {
    let wanted: Vec<&str> = only.split(',').filter(|w| !w.is_empty()).collect();
    if let Some(w) = wanted.iter().find(|w| ENTRIES.iter().all(|e| e.0 != **w)) {
        let known: Vec<&str> = ENTRIES.iter().map(|e| e.0).collect();
        return Err(ConfigError::invalid(
            "only",
            format!("has no entry {w:?} (known: {})", known.join(", ")),
        ));
    }
    Ok(ENTRIES
        .iter()
        .filter(|e| wanted.is_empty() || wanted.contains(&e.0))
        .collect())
}

fn main() {
    let opts = Opts::from_env();
    let only = opts.string("only", "");
    let scale = Scale {
        full: opts.bool("full", false),
        threads: opts.u64("threads", default_threads() as u64) as usize,
    };
    let entries = opts
        .finish()
        .and_then(|()| select(&only))
        .unwrap_or_else(|e| e.exit(BIN));
    let dir = output::results_dir();
    for (_, run) in entries {
        for t in run(scale) {
            if let Err(err) = t.emit(&dir) {
                eprintln!(
                    "{BIN}: could not save {} in {}: {err}",
                    t.name,
                    dir.display()
                );
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn entry_names_are_unique() {
        let names: BTreeSet<_> = ENTRIES.iter().map(|e| e.0).collect();
        assert_eq!(names.len(), ENTRIES.len());
    }

    #[test]
    fn only_selects_in_run_order() {
        assert_eq!(select("").map(|v| v.len()), Ok(ENTRIES.len()));
        let picked =
            select("fig8_dmgs_qr,fig2_bus_example").map(|v| v.iter().map(|e| e.0).collect());
        assert_eq!(picked, Ok(vec!["fig2_bus_example", "fig8_dmgs_qr"]));
        let e = select("fig2_bus_example,nope")
            .map(|v| v.len())
            .unwrap_err();
        assert!(matches!(&e, ConfigError::Invalid { key, .. } if key == "only"));
        let msg = e.to_string();
        assert!(msg.starts_with("--only has no entry \"nope\""), "{msg}");
        for entry in &ENTRIES {
            assert!(msg.contains(entry.0), "{msg} omits {}", entry.0);
        }
    }
}
