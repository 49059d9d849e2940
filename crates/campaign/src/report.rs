//! Campaign execution over a corpus, and replay-first reporting.
//!
//! Reports are **byte-deterministic**: scenario results come back from
//! [`par_map`] in corpus order regardless of thread interleaving, every
//! float is rendered with a fixed format, and nothing in the report
//! depends on wall-clock time or host identity. Running the same lane
//! twice must produce identical bytes — the determinism suite checks
//! exactly that.
//!
//! A violation is reported as a compact fingerprint — scenario hash +
//! seed + first violated invariant + round — followed by a one-line
//! replay command that re-runs exactly that scenario and dumps the
//! netsim trace tail.

use crate::runner::{run_scenario, ScenarioResult};
use crate::scenario::{Lane, Scenario};
use gr_experiments::parallel::par_map;
use serde::Serialize;
use serde_json::Value;
use std::fmt::Write as _;

/// All results of one campaign lane, in corpus order.
pub struct CampaignReport {
    /// The lane that was run.
    pub lane: Lane,
    /// Per-scenario outcomes, in corpus order.
    pub results: Vec<ScenarioResult>,
}

/// Run every scenario in the corpus on `threads` workers. Results keep
/// corpus order (the parallel map is order-preserving), so the report is
/// independent of scheduling. `threads` is the scenario fan-out — how
/// many corpus entries run at once — while `sim_threads` parallelises
/// *inside* each simulation (see [`run_scenario`]).
pub fn run_campaign(
    lane: Lane,
    corpus: &[Scenario],
    threads: usize,
    sim_threads: usize,
) -> CampaignReport {
    let results = par_map(corpus.to_vec(), threads, move |sc| {
        run_scenario(&sc, sim_threads, None).0
    });
    CampaignReport { lane, results }
}

impl CampaignReport {
    /// Violating results, in corpus order.
    pub fn violations(&self) -> impl Iterator<Item = &ScenarioResult> {
        self.results.iter().filter(|r| r.violation.is_some())
    }

    /// `true` when no invariant was violated anywhere in the corpus.
    pub fn passed(&self) -> bool {
        self.violations().next().is_none()
    }

    /// The deterministic text report.
    pub fn render(&self) -> String {
        let n_viol = self.violations().count();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "gr-campaign {} lane: {} scenarios, {} violation(s)",
            self.lane.label(),
            self.results.len(),
            n_viol
        );
        for r in &self.results {
            let status = if r.violation.is_some() {
                "VIOLATION"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "  {}  {:<20} {:<13} seed={:<3} rounds={:<5} err={:.3e}  {}",
                r.hash, r.template, r.algorithm, r.seed, r.rounds, r.final_err, status
            );
        }
        if n_viol > 0 {
            let _ = writeln!(out, "violations:");
            for r in self.violations() {
                let v = r.violation.as_ref().unwrap();
                let _ = writeln!(
                    out,
                    "  VIOLATION fp={} template={} alg={} seed={} invariant={} round={} node={}",
                    r.hash,
                    r.template,
                    r.algorithm,
                    r.seed,
                    v.invariant.label(),
                    v.round,
                    v.node
                );
                let _ = writeln!(out, "    {}", v.detail);
                let _ = writeln!(
                    out,
                    "    replay: cargo run -p gr-campaign -- --mode {} --replay {}",
                    self.lane.label(),
                    r.hash
                );
            }
        }
        let _ = writeln!(
            out,
            "verdict: {}",
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }

    /// The report as a JSON value (for `--json`).
    pub fn to_json(&self) -> Value {
        let scenarios: Vec<Value> = self.results.iter().map(result_json).collect();
        Value::Object(vec![
            ("lane".to_string(), self.lane.label().to_value()),
            ("scenarios".to_string(), Value::Array(scenarios)),
            (
                "violations".to_string(),
                (self.violations().count() as u64).to_value(),
            ),
            (
                "verdict".to_string(),
                if self.passed() { "PASS" } else { "FAIL" }.to_value(),
            ),
        ])
    }
}

fn result_json(r: &ScenarioResult) -> Value {
    let violation = match &r.violation {
        None => Value::Null,
        Some(v) => Value::Object(vec![
            ("invariant".to_string(), v.invariant.label().to_value()),
            ("round".to_string(), v.round.to_value()),
            ("node".to_string(), (v.node as u64).to_value()),
            ("detail".to_string(), v.detail.to_value()),
        ]),
    };
    // The partition plan: count + source always, the cost-model terms
    // only when the measured auto-partitioner made the choice (model
    // floats are machine-measured, so pinned-baseline scenarios keep
    // `partitions` explicit and this stays byte-deterministic).
    let partitions = match &r.partitions {
        None => Value::Null,
        Some(p) => p.to_value(),
    };
    Value::Object(vec![
        ("hash".to_string(), r.hash.to_value()),
        ("template".to_string(), r.template.to_value()),
        ("algorithm".to_string(), r.algorithm.to_value()),
        ("topology".to_string(), r.topology.to_value()),
        ("seed".to_string(), r.seed.to_value()),
        ("rounds".to_string(), r.rounds.to_value()),
        ("final_err".to_string(), r.final_err.to_value()),
        ("stats".to_string(), r.stats.to_value()),
        ("partitions".to_string(), partitions),
        ("violation".to_string(), violation),
    ])
}

/// A violation fingerprint stable across runs and machines:
/// `scenario-hash:invariant`. The scenario hash pins the full canonical
/// configuration (template, algorithm, seed, fault plan, execution
/// model), so a fingerprint absent from a baseline means a *new* kind of
/// failure, not a known finding that moved by a few rounds.
fn violation_fingerprint(hash: &str, invariant: &str) -> String {
    format!("{hash}:{invariant}")
}

impl CampaignReport {
    /// The fingerprints of every violation in this report, corpus order.
    pub fn violation_fingerprints(&self) -> Vec<String> {
        self.violations()
            .map(|r| {
                violation_fingerprint(&r.hash, r.violation.as_ref().unwrap().invariant.label())
            })
            .collect()
    }

    /// Fingerprints present here but absent from `baseline` — the
    /// regressions a trend lane gates on. Known findings disappearing is
    /// progress, not a failure, so the diff is one-directional.
    pub fn new_violations(&self, baseline: &[String]) -> Vec<String> {
        self.violation_fingerprints()
            .into_iter()
            .filter(|fp| !baseline.iter().any(|b| b == fp))
            .collect()
    }
}

/// Extract violation fingerprints from a previously written `--json`
/// report (the committed stress baseline). A malformed file is an
/// error, never an empty list: a corrupt baseline must fail the gate
/// loudly, not pass it silently.
pub fn baseline_fingerprints(report: &Value) -> Result<Vec<String>, String> {
    let scenarios = report["scenarios"].as_array();
    let fingerprint = |s: &Value| match (s["hash"].as_str(), s["violation"]["invariant"].as_str()) {
        (Some(hash), Some(invariant)) => Ok(violation_fingerprint(hash, invariant)),
        _ => Err(format!("has a violation without hash or invariant: {s}")),
    };
    (scenarios.ok_or("has no scenarios array")?.iter())
        .filter(|s| !s["violation"].is_null())
        .map(fingerprint)
        .collect()
}

/// Find the scenario with the given fingerprint hash in a corpus. The
/// hash is not invertible: replay works by regenerating the (pure,
/// deterministic) corpus and matching.
pub fn find_scenario<'c>(corpus: &'c [Scenario], hash: &str) -> Option<&'c Scenario> {
    corpus.iter().find(|sc| sc.hash() == hash)
}

/// Re-run one fingerprinted scenario with tracing on and render the
/// deterministic replay report: the canonical scenario line, the outcome
/// triple, and the last `tail` netsim events as pretty JSON.
pub fn render_replay(sc: &Scenario, tail: usize) -> String {
    let (r, trace) = run_scenario(sc, 1, Some(tail.max(64)));
    let mut out = String::new();
    let _ = writeln!(out, "replaying fp={}", r.hash);
    let _ = writeln!(out, "  {}", sc.canonical());
    match &r.violation {
        Some(v) => {
            let _ = writeln!(
                out,
                "outcome: VIOLATION invariant={} round={} node={}",
                v.invariant.label(),
                v.round,
                v.node
            );
            let _ = writeln!(out, "  {}", v.detail);
        }
        None => {
            let _ = writeln!(
                out,
                "outcome: ok rounds={} err={:.3e}",
                r.rounds, r.final_err
            );
        }
    }
    let _ = writeln!(
        out,
        "stats: sent={} delivered={} lost_random={} lost_dead={} bit_flips={}",
        r.stats.sent, r.stats.delivered, r.stats.lost_random, r.stats.lost_dead, r.stats.bit_flips
    );
    if let Some(t) = trace {
        let events: Vec<Value> = t.tail(tail).map(|e| e.to_value()).collect();
        let _ = writeln!(
            out,
            "trace tail ({} of {} recorded events):",
            events.len(),
            t.len()
        );
        let arr = Value::Array(events);
        let _ = writeln!(out, "{}", serde_json::to_string_pretty(&arr).unwrap());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::sanity_corpus;

    #[test]
    fn report_renders_and_round_trips_fingerprints() {
        // Tiny deterministic slice: one topology, one seed.
        let corpus: Vec<Scenario> = sanity_corpus(&[1])
            .into_iter()
            .filter(|s| s.template == "complete16")
            .collect();
        let report = run_campaign(Lane::Sanity, &corpus, 2, 1);
        assert!(report.passed(), "{}", report.render());
        let text = report.render();
        assert!(text.contains("verdict: PASS"));
        // Every printed hash must resolve back to its scenario.
        for r in &report.results {
            let sc = find_scenario(&corpus, &r.hash).expect("fingerprint resolves");
            assert_eq!(sc.hash(), r.hash);
        }
    }

    #[test]
    fn baseline_diff_flags_only_new_fingerprints() {
        use crate::oracle::{Invariant, Violation};
        let result = |hash: &str, violation: Option<Violation>| ScenarioResult {
            hash: hash.to_string(),
            template: "t".to_string(),
            algorithm: "PCF",
            topology: "ring(4)".to_string(),
            seed: 1,
            rounds: 10,
            final_err: 0.0,
            stats: Default::default(),
            partitions: None,
            violation,
        };
        let viol = |inv: Invariant| {
            Some(Violation {
                invariant: inv,
                round: 5,
                node: 0,
                detail: "d".to_string(),
            })
        };
        let report = CampaignReport {
            lane: Lane::Stress,
            results: vec![
                result("aaaa", viol(Invariant::MassConservation)),
                result("bbbb", None),
                result("cccc", viol(Invariant::FlowMagnitude)),
            ],
        };
        let fps = report.violation_fingerprints();
        assert_eq!(fps.len(), 2);
        assert_eq!(fps[0], "aaaa:MassConservation");

        // The baseline round-trips through the --json report format.
        let known = baseline_fingerprints(&report.to_json()).unwrap();
        assert_eq!(known, fps);
        assert!(report.new_violations(&known).is_empty());

        // A baseline missing one finding flags exactly that one; extra
        // baseline entries (fixed findings) flag nothing.
        assert_eq!(report.new_violations(&fps[..1]), vec![fps[1].clone()]);
        let mut extra = known.clone();
        extra.push("dddd:Convergence".to_string());
        assert!(report.new_violations(&extra).is_empty());
    }

    /// A malformed baseline is an error the CLI reports, not a panic.
    #[test]
    fn malformed_baseline_is_an_error() {
        let no_invariant = r#"{"scenarios": [{"hash": "aaaa", "violation": {"round": 5}}]}"#;
        for bad in [r#"{"lane": "stress"}"#, no_invariant] {
            let parsed = serde_json::from_str(bad).unwrap();
            assert!(baseline_fingerprints(&parsed).is_err(), "{bad}");
        }
    }

    #[test]
    fn json_report_has_stable_shape() {
        let corpus: Vec<Scenario> = sanity_corpus(&[1])
            .into_iter()
            .filter(|s| s.template == "complete16" && s.algorithm.label() == "PF")
            .collect();
        let report = run_campaign(Lane::Sanity, &corpus, 1, 1);
        let j = serde_json::to_string(&report.to_json()).unwrap();
        assert!(j.contains("\"verdict\":\"PASS\""));
        assert!(j.contains("\"lane\":\"sanity\""));
        assert!(j.contains("\"stats\""));
    }
}
