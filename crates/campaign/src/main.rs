//! The campaign CLI.
//!
//! ```text
//! gr-campaign --mode sanity                 # hard CI gate (exit 1 on violation)
//! gr-campaign --mode stress                 # trend lane (always exit 0)
//! gr-campaign --mode stress --seeds 5       # widen the seed corpus to 1..=5
//! gr-campaign --mode stress --shard 2/4     # run only the 2nd of 4 corpus shards
//! gr-campaign --mode stress --replay <fp>   # re-run one fingerprint, dump trace tail
//! gr-campaign --mode sanity --list          # lanes/templates/counts, nothing runs
//! gr-campaign --mode stress --list-full     # per-scenario hash + canonical dump
//! gr-campaign --mode sanity --json out.json # also write the machine-readable report
//! gr-campaign --mode stress --baseline b.json  # exit 1 on violations NOT in b.json
//! gr-campaign --mode stress --sim-threads 4    # partitioned-engine worker threads
//! gr-campaign --mode stress --partitions 8     # override engine partition count
//! gr-campaign --mode twin                   # netsim vs real-transport twin gate
//! gr-campaign --mode chaos                  # chaos script: netsim vs real backends
//! gr-campaign --mode chaos --baseline b.json   # gate the netsim leg like stress
//! ```
//!
//! `--threads` fans the *corpus* out across workers (one scenario per
//! worker); `--sim-threads` parallelises *inside* each simulation's
//! partitioned round engine and never changes results. `--partitions`
//! overrides the engine partition count for every single-simulator
//! scenario (multi-tenant batch scenarios run on the batch executor) —
//! that one *does* change results (partition count selects RNG
//! streams), so only compare reports run with the same override.

use gr_campaign::{
    baseline_fingerprints, chaos_script, find_scenario, render_replay, run_campaign_exec,
    sanity_corpus, shard_corpus, stress_corpus, CampaignReport, Exec, Lane, TopologyKind,
    DEFAULT_SANITY_SEEDS, DEFAULT_STRESS_SEEDS,
};
use gr_experiments::parallel::default_threads;
use gr_experiments::Opts;

fn main() {
    let opts = Opts::from_env();
    let mode = opts.string("mode", "sanity");
    // The twin lane is not a fault-plan corpus — it cross-checks the
    // deterministic simulator against the real threaded transport and
    // hard-fails on divergence, so it gets its own early path.
    if mode == "twin" {
        let seed = opts.u64("seed", 42);
        let hc = opts.u64("hc", 6) as u32;
        let eps = opts.f64("eps", 1e-9);
        opts.finish();
        run_twin_lane(hc, seed, eps);
        return;
    }
    // The chaos lane runs one fault script through both injectors —
    // netsim (the `chaos/*` stress templates, baseline-gated) and the
    // real threaded transport (ChaosDelivery + node churn, hard-gated on
    // convergence and the self-consistency audit) — so it too gets its
    // own path.
    if mode == "chaos" {
        let seed = opts.u64("seed", 42);
        let n_seeds = opts.u64("seeds", 0);
        let seeds: Vec<u64> = if n_seeds > 0 {
            (1..=n_seeds).collect()
        } else {
            DEFAULT_STRESS_SEEDS.to_vec()
        };
        let threads = opts.u64("threads", default_threads() as u64) as usize;
        let json_path = opts.string("json", "");
        let baseline_path = opts.string("baseline", "");
        opts.finish();
        run_chaos_lane(&seeds, threads, seed, &json_path, &baseline_path);
        return;
    }
    let lane = match mode.as_str() {
        "sanity" => Lane::Sanity,
        "stress" => Lane::Stress,
        other => panic!("--mode must be sanity, stress, twin or chaos, got {other:?}"),
    };
    // --seeds N widens the corpus to seeds 1..=N; 0 keeps the lane default.
    let n_seeds = opts.u64("seeds", 0);
    let seeds: Vec<u64> = if n_seeds > 0 {
        (1..=n_seeds).collect()
    } else {
        match lane {
            Lane::Sanity => DEFAULT_SANITY_SEEDS.to_vec(),
            Lane::Stress => DEFAULT_STRESS_SEEDS.to_vec(),
        }
    };
    let corpus = match lane {
        Lane::Sanity => sanity_corpus(&seeds),
        Lane::Stress => stress_corpus(&seeds),
    };
    let shard = opts.string("shard", "");
    let replay = opts.string("replay", "");
    let tail = opts.u64("tail", 64) as usize;
    let list = opts.bool("list", false);
    let list_full = opts.bool("list-full", false);
    let threads = opts.u64("threads", default_threads() as u64) as usize;
    let sim_threads = opts.u64("sim-threads", 1) as usize;
    let partitions = opts.u64("partitions", 0) as usize;
    let json_path = opts.string("json", "");
    let baseline_path = opts.string("baseline", "");
    opts.finish();
    let exec = Exec {
        sim_threads,
        partitions: (partitions > 0).then_some(partitions),
    };

    if !replay.is_empty() {
        // Replay resolves against the *full* corpus, so a fingerprint from
        // any shard's report replays without re-deriving its shard.
        let sc = find_scenario(&corpus, &replay).unwrap_or_else(|| {
            panic!(
                "fingerprint {replay:?} not found in the {} corpus ({} scenarios); \
                 pass the same --mode/--seeds the report was generated with",
                lane.label(),
                corpus.len()
            )
        });
        print!("{}", render_replay(sc, tail));
        return;
    }

    // --shard k/n (1-based k) keeps only the k-th round-robin shard of the
    // corpus, for splitting a lane across CI jobs.
    let corpus = if shard.is_empty() {
        corpus
    } else {
        let (k, n) = shard
            .split_once('/')
            .and_then(|(k, n)| {
                Some((
                    k.trim().parse::<usize>().ok()?,
                    n.trim().parse::<usize>().ok()?,
                ))
            })
            .filter(|&(k, n)| k >= 1 && k <= n)
            .unwrap_or_else(|| panic!("--shard must be k/n with 1 <= k <= n, got {shard:?}"));
        shard_corpus(&corpus, k - 1, n)
    };

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

    let report = run_campaign_exec(lane, &corpus, threads.max(1), exec);
    print!("{}", report.render());
    if !json_path.is_empty() {
        let j = serde_json::to_string_pretty(&report.to_json()).unwrap();
        std::fs::write(&json_path, j).unwrap_or_else(|e| panic!("writing {json_path:?}: {e}"));
    }
    if !baseline_path.is_empty() && !baseline_gate(&report, &baseline_path, lane.label()) {
        std::process::exit(1);
    }
    // The sanity lane is a hard gate; stress violations are findings, not
    // build failures.
    if lane == Lane::Sanity && !report.passed() {
        std::process::exit(1);
    }
}

/// `--baseline` turns a trend lane into a regression gate: violations
/// whose fingerprint (scenario hash + invariant) appears in the committed
/// baseline report are known findings and stay non-fatal; any fingerprint
/// *not* in the baseline is a new failure mode. Returns `false` when new
/// fingerprints were found (callers decide the exit).
fn baseline_gate(report: &CampaignReport, baseline_path: &str, replay_mode: &str) -> bool {
    let raw = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("reading baseline {baseline_path:?}: {e}"));
    let parsed: serde_json::Value = serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("parsing baseline {baseline_path:?}: {e}"));
    let known = baseline_fingerprints(&parsed);
    let fresh = report.new_violations(&known);
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
        println!("    replay: cargo run -p gr-campaign -- --mode {replay_mode} --replay {hash}");
    }
    false
}

/// The twin-equivalence lane: run the lossless PCF average on a seeded
/// hypercube under netsim and over the threaded in-memory transport, and
/// require both to land on the reference within `eps`. Exit 1 on
/// divergence — this is a hard CI gate, like the sanity lane.
fn run_twin_lane(hc: u32, seed: u64, eps: f64) {
    let graph = gr_topology::hypercube(hc);
    let n = graph.len();
    let values: Vec<f64> = (0..n).map(|i| 1.5 * i as f64 - 20.0).collect();
    let report = gr_transport::twin_equivalence(&graph, &values, seed, eps, 5_000)
        .unwrap_or_else(|e| panic!("twin lane failed to run: {e}"));
    println!(
        "twin lane: hc{hc} ({n} nodes), seed {seed}, reference {:.6}",
        report.reference
    );
    println!(
        "  netsim    max rel error {:.3e}{}",
        report.netsim_error,
        if report.netsim_error <= eps {
            ""
        } else {
            "  <-- DIVERGED"
        }
    );
    println!(
        "  transport max rel error {:.3e}{}  ({:.1} rounds mean, {} B on wire, {} dropped)",
        report.mem_error,
        if report.mem_error <= eps {
            ""
        } else {
            "  <-- DIVERGED"
        },
        report.mem_result.rounds_mean,
        report.mem_result.bytes_sent_total,
        report.mem_result.dropped_total
    );
    println!("  per-node divergence {:.3e}", report.divergence);
    if report.equivalent() {
        println!("twin lane: PASS (tolerance {eps:.0e})");
    } else {
        println!("twin lane: FAIL (tolerance {eps:.0e})");
        std::process::exit(1);
    }
}

/// The chaos lane: one fault script ([`chaos_script`]), two injectors.
///
/// **Netsim leg** — the `chaos/*` templates of the stress corpus
/// (correlated burst loss + a scripted half/half partition with heal)
/// run under the invariant oracle; with `--baseline` the violations are
/// diffed against the committed stress baseline exactly like the stress
/// lane, so only *new* failure modes fail the build.
///
/// **Transport leg** — the same script wrapped around every endpoint of
/// a real threaded in-memory cluster via `ChaosDelivery`, plus one node
/// kill/restart that only the peers' timeout detectors (and PCF's
/// incarnation fencing) recover from. Hard gate: the cluster must
/// converge and pass the post-quiescence self-consistency audit.
fn run_chaos_lane(seeds: &[u64], threads: usize, seed: u64, json_path: &str, baseline_path: &str) {
    use gr_reduction::{AggregateKind, InitialData, PushCancelFlow};
    use gr_transport::{mem_cluster, run_cluster, ChaosDelivery, ChurnEvent, ClusterOptions};
    use std::time::Duration;

    let corpus: Vec<_> = stress_corpus(seeds)
        .into_iter()
        .filter(|s| s.template.starts_with("chaos/"))
        .collect();
    println!(
        "chaos lane: {} netsim scenario(s) under the shared fault script",
        corpus.len()
    );
    let report = run_campaign_exec(Lane::Stress, &corpus, threads.max(1), Exec::default());
    print!("{}", report.render());
    if !json_path.is_empty() {
        let j = serde_json::to_string_pretty(&report.to_json()).unwrap();
        std::fs::write(json_path, j).unwrap_or_else(|e| panic!("writing {json_path:?}: {e}"));
    }
    // Chaos fingerprints live in the stress corpus, so replay goes
    // through --mode stress.
    let sim_ok = baseline_path.is_empty() || baseline_gate(&report, baseline_path, "stress");

    let topology = TopologyKind::Hypercube(5);
    let script = chaos_script(topology);
    let graph = topology.build();
    let n = graph.len();
    let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let reference = (n - 1) as f64 / 2.0;
    let data = InitialData::with_kind(values, AggregateKind::Average);
    let plan = script.chaos_plan(seed);
    let endpoints: Vec<_> = mem_cluster(n, 64 * n)
        .expect("in-memory cluster")
        .into_iter()
        .enumerate()
        .map(|(i, ep)| ChaosDelivery::new(ep, i as gr_topology::NodeId, &plan))
        .collect();
    let opts = ClusterOptions {
        seed,
        target: 1e-9,
        // Peers keep iterating while the churned node is dark, so the
        // round budget must dwarf (dark time) / (step time).
        max_rounds: 5_000_000,
        wall_limit: Duration::from_secs(15),
        churn: vec![ChurnEvent {
            node: 3,
            at_round: 150,
            down_for: Duration::from_millis(120),
        }],
        detector_window: Some(60),
    };
    let start = std::time::Instant::now();
    let result = run_cluster(
        &graph,
        endpoints,
        |_| PushCancelFlow::new(&graph, &data),
        &[reference],
        &opts,
    )
    .expect("transport leg failed to run");
    let chaos_drops: u64 = result.nodes.iter().map(|r| r.chaos_drops).sum();
    let suspected: u64 = result.nodes.iter().map(|r| r.suspected).sum();
    let transport_ok = result.converged
        && result.self_consistency <= 1e-6
        && result.recovered == result.churn_events;
    println!(
        "chaos lane transport leg: {} nodes, seed {seed}, {:.1} ms wall",
        n,
        start.elapsed().as_secs_f64() * 1e3
    );
    println!(
        "  converged={} max rel error {:.3e}, self-consistency {:.3e}",
        result.converged, result.max_rel_error, result.self_consistency
    );
    println!(
        "  {} chaos drops, {} suspicions, churn {}/{} recovered",
        chaos_drops, suspected, result.recovered, result.churn_events
    );
    if sim_ok && transport_ok {
        println!("chaos lane: PASS");
    } else {
        println!(
            "chaos lane: FAIL ({})",
            if transport_ok {
                "new netsim violation fingerprints"
            } else {
                "transport leg did not converge cleanly"
            }
        );
        std::process::exit(1);
    }
}
