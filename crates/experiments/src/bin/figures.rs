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
    equivalence_check, execution_model_ablation, failure_figure, message_loss_ablation,
    node_crash_ablation, AccuracySweepOpts, DmgsSweepOpts, FailureTrajOpts,
};
use gr_experiments::parallel::default_threads;
use gr_experiments::{output, ConfigError, Opts, Table};
use gr_reduction::{Algorithm, PhiMode};

const BIN: &str = "figures";

/// What the command line sets for every entry.
#[derive(Clone, Copy, Debug)]
struct Scale {
    /// `--full`: the paper's sizes instead of the laptop-scale defaults.
    full: bool,
    /// `--threads`: sweep workers; no output depends on it.
    threads: usize,
}

impl Scale {
    /// Figs. 3/6: `8^1 … 8^4` nodes, or up to `8^5` with `--full`.
    fn accuracy(self) -> AccuracySweepOpts {
        AccuracySweepOpts {
            max_exp: if self.full { 5 } else { 4 },
            threads: self.threads,
            ..Default::default()
        }
    }

    /// Fig. 8: 5 runs on `2^5 … 2^8` nodes, or 50 runs up to `2^10`.
    fn dmgs(self) -> DmgsSweepOpts {
        let (max_exp, runs) = if self.full { (10, 50) } else { (8, 5) };
        DmgsSweepOpts {
            max_exp,
            runs,
            threads: self.threads,
            ..Default::default()
        }
    }
}

/// One runnable entry of the table.
struct Entry {
    /// What `--only` selects it by.
    name: &'static str,
    /// The tables it writes, in the order `run` returns them.
    tables: &'static [&'static str],
    /// Computes the tables, named after `tables`.
    run: fn(&[&str], Scale) -> Vec<Table>,
}

/// Every figure and ablation, in run order. Figs. 4 and 7 are one
/// experiment (the same seed and link failure under PF and PCF), so one
/// entry writes both series into each of its two tables.
const ENTRIES: [Entry; 10] = [
    Entry {
        name: "fig2_bus_example",
        tables: &["fig2_bus_example"],
        run: |t, _| vec![bus_example(t[0], 16, 20_000, 0)],
    },
    Entry {
        name: "fig3_pf_accuracy",
        tables: &["fig3_pf_accuracy"],
        run: |t, s| vec![accuracy_sweep(t[0], Algorithm::PushFlow, &s.accuracy())],
    },
    Entry {
        name: "fig4_link_failure",
        tables: &["fig4_link_failure_at_75", "fig4_link_failure_at_175"],
        run: |t, _| {
            let o = FailureTrajOpts::default();
            let rounds = o.rounds.min(100);
            let dev = equivalence_check(o.cube_dim, rounds, o.seed);
            println!("\nfailure-free PF/PCF max estimate deviation over {rounds} rounds: {dev:e}");
            vec![failure_figure(t[0], &o, 75), failure_figure(t[1], &o, 175)]
        },
    },
    Entry {
        name: "fig6_pcf_accuracy",
        tables: &["fig6_pcf_accuracy"],
        run: |t, s| {
            let pcf = Algorithm::PushCancelFlow(PhiMode::Eager);
            vec![accuracy_sweep(t[0], pcf, &s.accuracy())]
        },
    },
    Entry {
        name: "fig8_dmgs_qr",
        tables: &["fig8_dmgs_qr"],
        run: |t, s| vec![dmgs_sweep(t[0], &s.dmgs())],
    },
    Entry {
        name: "ablation_message_loss",
        tables: &["ablation_message_loss"],
        run: |t, s| vec![message_loss_ablation(t[0], 6, 21, s.threads)],
    },
    Entry {
        name: "ablation_phi_variants",
        tables: &["ablation_phi_variants"],
        run: |t, s| vec![bit_flip_ablation(t[0], 5, 11, s.threads)],
    },
    Entry {
        name: "ablation_node_crash",
        tables: &["ablation_node_crash"],
        run: |t, s| vec![node_crash_ablation(t[0], 6, 31, s.threads)],
    },
    Entry {
        name: "ablation_execution_models",
        tables: &["ablation_execution_models"],
        run: |t, s| vec![execution_model_ablation(t[0], 6, 41, s.threads)],
    },
    Entry {
        name: "ablation_compensated_pf",
        tables: &["ablation_compensated_pf"],
        run: |t, s| vec![compensated_pf_ablation(t[0], 4, 42, s.threads)],
    },
];

/// The entries a comma-separated `--only` names, in run order; all of
/// them when it is empty.
fn select(only: &str) -> Result<Vec<&'static Entry>, ConfigError> {
    let wanted: Vec<&str> = only.split(',').filter(|w| !w.is_empty()).collect();
    if let Some(w) = wanted
        .iter()
        .find(|w| ENTRIES.iter().all(|e| e.name != **w))
    {
        let known: Vec<&str> = ENTRIES.iter().map(|e| e.name).collect();
        return Err(ConfigError::invalid(
            "only",
            format!("has no entry {w:?} (known: {})", known.join(", ")),
        ));
    }
    Ok(ENTRIES
        .iter()
        .filter(|e| wanted.is_empty() || wanted.contains(&e.name))
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
    for e in entries {
        for t in (e.run)(e.tables, scale) {
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
    fn entry_and_table_names_are_unique() {
        let names: BTreeSet<_> = ENTRIES.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), ENTRIES.len());
        let tables: Vec<_> = ENTRIES.iter().flat_map(|e| e.tables).collect();
        assert_eq!(tables.iter().collect::<BTreeSet<_>>().len(), tables.len());
        assert_eq!(tables.len(), 11, "22 files in results/");
    }

    #[test]
    fn only_selects_in_run_order() {
        assert_eq!(select("").map(|v| v.len()), Ok(ENTRIES.len()));
        let picked =
            select("fig8_dmgs_qr,fig2_bus_example").map(|v| v.iter().map(|e| e.name).collect());
        assert_eq!(picked, Ok(vec!["fig2_bus_example", "fig8_dmgs_qr"]));
        let e = select("fig2_bus_example,nope")
            .map(|v| v.len())
            .unwrap_err();
        assert!(matches!(&e, ConfigError::Invalid { key, .. } if key == "only"));
        let msg = e.to_string();
        assert!(msg.starts_with("--only has no entry \"nope\""), "{msg}");
        for entry in &ENTRIES {
            assert!(msg.contains(entry.name), "{msg} omits {}", entry.name);
        }
    }

    /// `--full` sets exactly the paper's sizes; nothing else moves.
    #[test]
    fn full_sets_the_paper_sizes() {
        for (full, acc_exp, dmgs_exp, runs) in [(false, 4, 8, 5), (true, 5, 10, 50)] {
            let s = Scale { full, threads: 3 };
            let a = s.accuracy();
            assert_eq!(
                (a.max_exp, a.plateau, a.seed, a.threads),
                (acc_exp, 4000, 42, 3)
            );
            let d = s.dmgs();
            assert_eq!((d.max_exp, d.runs, d.threads), (dmgs_exp, runs, 3));
            assert_eq!(
                (d.min_exp, d.m, d.max_rounds_per_reduction, d.seed),
                (5, 16, 3000, 1234)
            );
        }
    }
}
