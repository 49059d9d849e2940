//! The campaign CLI.
//!
//! ```text
//! gr-campaign --mode sanity                 # hard CI gate (exit 1 on violation)
//! gr-campaign --mode stress                 # trend lane (always exit 0)
//! gr-campaign --mode stress --seeds 5       # widen the seed corpus to 1..=5
//! gr-campaign --mode stress --replay <fp>   # re-run one fingerprint, dump trace tail
//! gr-campaign --mode sanity --list          # lanes/templates/counts, nothing runs
//! gr-campaign --mode stress --list-full     # per-scenario hash + canonical dump
//! gr-campaign --mode sanity --json out.json # also write the machine-readable report
//! gr-campaign --mode stress --baseline b.json  # exit 1 on violations NOT in b.json
//! gr-campaign --mode stress --sim-threads 4    # partitioned-engine worker threads
//! ```
//!
//! `--threads` fans the *corpus* out across workers (one scenario per
//! worker); `--sim-threads` parallelises *inside* each simulation's
//! partitioned round engine and never changes results.

use gr_campaign::{
    baseline_fingerprints, find_scenario, render_replay, run_campaign, sanity_corpus,
    stress_corpus, CampaignReport, Lane, DEFAULT_SANITY_SEEDS, DEFAULT_STRESS_SEEDS,
};
use gr_experiments::parallel::default_threads;
use gr_experiments::{ConfigError, Opts};

const BIN: &str = "gr-campaign";

fn main() {
    let opts = Opts::from_env();
    let mode = opts.string("mode", "sanity");
    // --seeds N widens the corpus to seeds 1..=N; 0 keeps the lane default.
    let n_seeds = opts.u64("seeds", 0);
    let replay = opts.string("replay", "");
    let tail = opts.u64("tail", 64) as usize;
    let list = opts.bool("list", false);
    let list_full = opts.bool("list-full", false);
    let threads = opts.u64("threads", default_threads() as u64) as usize;
    let sim_threads = opts.u64("sim-threads", 1) as usize;
    let json_path = opts.string("json", "");
    let baseline_path = opts.string("baseline", "");
    opts.finish().unwrap_or_else(|e| e.exit(BIN));
    let lane = match mode.as_str() {
        "sanity" => Lane::Sanity,
        "stress" => Lane::Stress,
        other => ConfigError::invalid("mode", format!("must be sanity or stress, got {other:?}"))
            .exit(BIN),
    };
    let seeds: Vec<u64> = if n_seeds > 0 {
        (1..=n_seeds).collect()
    } else {
        match lane {
            Lane::Sanity => DEFAULT_SANITY_SEEDS.to_vec(),
            Lane::Stress => DEFAULT_STRESS_SEEDS.to_vec(),
        }
    };
    // Read the baseline before anything runs, so a bad path fails at once.
    let baseline = (!baseline_path.is_empty())
        .then(|| load_baseline(&baseline_path).unwrap_or_else(|e| e.exit(BIN)));
    let corpus = match lane {
        Lane::Sanity => sanity_corpus(&seeds),
        Lane::Stress => stress_corpus(&seeds),
    };

    if !replay.is_empty() {
        let sc = find_scenario(&corpus, &replay).unwrap_or_else(|| {
            let reason = format!(
                "{replay:?} is not in the {} corpus ({} scenarios); \
                 pass the same --mode/--seeds the report was generated with",
                lane.label(),
                corpus.len()
            );
            ConfigError::invalid("replay", reason).exit(BIN)
        });
        print!("{}", render_replay(sc, tail));
        return;
    }

    if list_full {
        for sc in &corpus {
            println!("{}  {}", sc.hash(), sc.canonical());
        }
        return;
    }

    // --list: enumerate the corpus — lane, template names, per-template
    // scenario counts — without running anything. (--list-full dumps the
    // per-scenario hash + canonical lines instead.)
    if list {
        println!(
            "{} lane: {} scenarios, seeds {:?}",
            lane.label(),
            corpus.len(),
            seeds
        );
        // Group by template, preserving first-appearance corpus order.
        let mut templates: Vec<(&str, usize)> = Vec::new();
        for sc in &corpus {
            match templates.iter_mut().find(|(t, _)| *t == sc.template) {
                Some((_, n)) => *n += 1,
                None => templates.push((&sc.template, 1)),
            }
        }
        for (template, n) in &templates {
            println!("  {template:<28} {n:>4} scenario(s)");
        }
        println!("{} template(s)", templates.len());
        return;
    }

    let report = run_campaign(lane, &corpus, threads.max(1), sim_threads);
    print!("{}", report.render());
    if !json_path.is_empty() {
        let j = serde_json::to_string_pretty(&report.to_json()).unwrap();
        if let Err(e) = std::fs::write(&json_path, j) {
            eprintln!("{BIN}: writing {json_path:?}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(known) = baseline {
        if !baseline_gate(&report, &known, &baseline_path) {
            std::process::exit(1);
        }
    }
    // The sanity lane is a hard gate; stress violations are findings, not
    // build failures.
    if lane == Lane::Sanity && !report.passed() {
        std::process::exit(1);
    }
}

/// The violation fingerprints of the `--baseline` report at `path`.
fn load_baseline(path: &str) -> Result<Vec<String>, ConfigError> {
    let bad = |reason: String| ConfigError::invalid("baseline", format!("{path:?} {reason}"));
    let raw = std::fs::read_to_string(path).map_err(|e| bad(format!("cannot be read: {e}")))?;
    let parsed = serde_json::from_str(&raw).map_err(|e| bad(format!("is not JSON: {e}")))?;
    baseline_fingerprints(&parsed).map_err(bad)
}

/// `--baseline` turns a trend lane into a regression gate: violations
/// whose fingerprint (scenario hash + invariant) appears in the committed
/// baseline report are known findings and stay non-fatal; any fingerprint
/// *not* in the baseline is a new failure mode. Returns `false` when new
/// fingerprints were found (callers decide the exit).
fn baseline_gate(report: &CampaignReport, known: &[String], baseline_path: &str) -> bool {
    let fresh = report.new_violations(known);
    if fresh.is_empty() {
        println!(
            "baseline: no new violation fingerprints ({} known in {})",
            known.len(),
            baseline_path
        );
        return true;
    }
    println!(
        "baseline: {} NEW violation fingerprint(s) not in {}:",
        fresh.len(),
        baseline_path
    );
    for fp in &fresh {
        let hash = fp.split(':').next().unwrap();
        println!("  {fp}");
        println!(
            "    replay: cargo run -p gr-campaign -- --mode {} --replay {hash}",
            report.lane.label()
        );
    }
    false
}
