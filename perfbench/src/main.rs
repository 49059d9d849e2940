//! Time-to-accuracy benchmark for gossip-reduce.
//!
//! ```text
//! perfbench --workload <dmgs-qr|scale-faults|batch-tenants|mem-drivers>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` cycles through the workload's seeded units for `--seconds`
//! and reports end-to-end metrics. Every repeat of a unit must reproduce
//! its first counts exactly. `--trace 1` runs one untraced pass, then the
//! same units behind the timing wrappers, checks that both passes' counts
//! agree, and reports per-layer metrics. The last stdout line is one JSON
//! object; any wrong output exits nonzero. See `README.md` beside this
//! crate for the workloads, the metrics and the layer map.

mod alloc;
mod batch_tenants;
mod dmgs_qr;
mod mem_drivers;
mod pace;
mod scale_faults;
mod stats;
mod trace;
mod workload;

use stats::{median, median_u64, ratio, tail};
use std::time::Instant;
use trace::Span;
use workload::{Counts, Layer, Solve, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn workload(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "dmgs-qr" => Box::new(dmgs_qr::DmgsQr::new(seed)),
        "scale-faults" => Box::new(scale_faults::ScaleFaults::new(seed)),
        "batch-tenants" => Box::new(batch_tenants::BatchTenants::new(seed)),
        "mem-drivers" => Box::new(mem_drivers::MemDrivers::new(seed)),
        _ => return Err(format!("unknown workload {name}")),
    })
}

/// Timings of every solve of a pass.
#[derive(Default)]
struct Timings {
    setup_s: Vec<f64>,
    solve_s: Vec<f64>,
    samples_s: Vec<f64>,
}

impl Timings {
    fn push(&mut self, s: &Solve, scale: f64) {
        self.setup_s.push(s.setup_s * scale);
        self.solve_s.push(s.solve_s * scale);
        self.samples_s.extend(s.samples_s.iter().map(|x| x * scale));
    }
}

/// What a pass over units collected.
#[derive(Default)]
struct Pass {
    /// Counts of each distinct unit, in unit order.
    counts: Vec<Counts>,
    /// Timings as measured.
    wall: Timings,
    /// Timings scaled to the reference speed (see `pace`).
    paced: Timings,
    reductions: u64,
    solves: u64,
    allocs: u64,
    layer: Layer,
}

impl Pass {
    /// Add solve `s` of unit `i`; `scale` converts its wall seconds to
    /// seconds at the reference speed.
    fn record(&mut self, i: usize, s: Solve, scale: f64) -> Result<(), String> {
        if let Some(first) = self.counts.get(i) {
            if *first != s.counts {
                return Err(format!(
                    "unit {i} is not deterministic: {first:?} then {:?}",
                    s.counts
                ));
            }
        } else {
            for (k, v) in &s.layer {
                workload::add(&mut self.layer, k, *v);
            }
            self.counts.push(s.counts.clone());
        }
        self.wall.push(&s, 1.0);
        self.paced.push(&s, scale);
        self.reductions += s.reductions;
        self.solves += 1;
        self.allocs += s.allocs;
        Ok(())
    }

    /// Totals over the distinct units' counts.
    fn summary(&self) -> Summary {
        let rounds: Vec<u64> = self
            .counts
            .iter()
            .flat_map(|c| c.rounds.iter().copied())
            .collect();
        Summary {
            units: rounds.len() as u64,
            rounds,
            messages: self.counts.iter().map(|c| c.messages).sum(),
            bytes: self.counts.iter().map(|c| c.bytes).sum(),
            worst_err: self
                .counts
                .iter()
                .map(Counts::worst_err)
                .fold(0.0, f64::max),
            failed: self.counts.iter().map(|c| c.failed).sum(),
        }
    }
}

/// A pass's counts, over its distinct end-to-end units.
struct Summary {
    units: u64,
    rounds: Vec<u64>,
    messages: u64,
    bytes: u64,
    worst_err: f64,
    failed: u64,
}

/// Solve units `0..units` in order, cycling, until `seconds` have passed
/// and at least `min_solves` solves are done.
/// The reference kernel runs between solves; each solve is scaled by the
/// mean of the kernel times right before and right after it.
fn pass(
    w: &mut dyn Workload,
    pace: &mut pace::Pace,
    seconds: f64,
    min_solves: usize,
    traced: bool,
) -> Result<Pass, String> {
    let start = Instant::now();
    let mut p = Pass::default();
    let mut n = 0usize;
    let mut before = pace.sample();
    loop {
        let i = n % w.units();
        let s = w.solve(i, traced)?;
        let after = pace.sample();
        p.record(i, s, pace::NOMINAL_S / (0.5 * (before + after)))?;
        before = after;
        n += 1;
        if n >= min_solves && start.elapsed().as_secs_f64() >= seconds {
            return Ok(p);
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// End-to-end metrics of pass `p`; `heap_base` is the live heap before
/// the first solve.
fn end_to_end(p: &Pass, heap_base: usize) -> Vec<Metric> {
    let sum = p.summary();
    let units = sum.units as f64;
    let t = &p.paced;
    let (tail_s, q) = tail(&t.samples_s);
    eprintln!(
        "time_to_accuracy: {} samples, tail = p{q}; counts over {} distinct units; \
         as measured: p50 {:.6} s, tail {:.6} s; achieved_rel_err {:e}",
        t.samples_s.len(),
        sum.units,
        median(&p.wall.samples_s),
        tail(&p.wall.samples_s).0,
        sum.worst_err,
    );
    vec![
        m("time_to_accuracy_p50_s", median(&t.samples_s), "s"),
        m("time_to_accuracy_tail_s", tail_s, "s"),
        m(
            "reductions_per_s",
            p.reductions as f64 / t.solve_s.iter().sum::<f64>(),
            "1/s",
        ),
        m("rounds_to_accuracy_p50", median_u64(&sum.rounds), "rounds"),
        m(
            "messages_per_reduction",
            sum.messages as f64 / units,
            "messages",
        ),
        m("bytes_per_reduction", sum.bytes as f64 / units, "bytes"),
        m("achieved_digits", -sum.worst_err.log10(), "digits"),
        m(
            "peak_heap_mb",
            alloc::peak_bytes().saturating_sub(heap_base) as f64 / (1 << 20) as f64,
            "MB",
        ),
        m("setup_s", median(&t.setup_s), "s"),
    ]
}

fn per_layer(untraced: &Pass, traced: &Pass, t: &trace::Totals, extras: &Layer) -> Vec<Metric> {
    let solves = traced.solves as f64;
    let per_solve = |key: &str| traced.layer.get(key).copied().unwrap_or(0.0) / solves;
    let layer = |key: &str| traced.layer.get(key).copied().unwrap_or(0.0);
    let extra = |key: &str| extras.get(key).copied().unwrap_or(0.0);
    let hooks = t.ns(Span::ProtoSend) + t.ns(Span::ProtoRecv) + t.ns(Span::ProtoOther);
    let engine_self = if t.calls(Span::SimStep) > 0 {
        t.ns(Span::SimStep).saturating_sub(hooks) as f64 / 1e9 / solves
    } else {
        0.0
    };
    let round_ns = ratio(
        untraced.wall.solve_s.iter().sum::<f64>() * 1e9,
        untraced.layer.get("netsim.rounds").copied().unwrap_or(0.0),
    );
    let split = |dim| {
        let (ns, calls) = dmgs_qr::split_keys(dim);
        ratio(layer(ns), layer(calls))
    };
    // Both at the reference speed, as the passes ran at different times.
    let solve_untraced: f64 = untraced.paced.solve_s.iter().sum();
    let solve_traced: f64 = traced.paced.solve_s.iter().sum();
    vec![
        m("topology.build_s", t.secs(Span::TopoBuild) / solves, "s"),
        m(
            "netsim.construct_s",
            t.secs(Span::SimConstruct) / solves,
            "s",
        ),
        m("netsim.step_s", t.secs(Span::SimStep) / solves, "s"),
        m("netsim.engine_self_s", engine_self, "s"),
        m("netsim.round_ns", round_ns, "ns"),
        m("netsim.sent", per_solve("netsim.sent"), "messages"),
        m(
            "netsim.delivered",
            per_solve("netsim.delivered"),
            "messages",
        ),
        m("netsim.lost", per_solve("netsim.lost"), "messages"),
        m(
            "netsim.delivery_ratio",
            ratio(layer("netsim.delivered"), layer("netsim.sent")),
            "ratio",
        ),
        m("netsim.suspected", per_solve("netsim.suspected"), "count"),
        m(
            "netsim.rehabilitated",
            per_solve("netsim.rehabilitated"),
            "count",
        ),
        m(
            "netsim.probes_sent",
            per_solve("netsim.probes_sent"),
            "messages",
        ),
        m(
            "netsim.partition_model_ratio",
            extra("netsim.partition_model_ratio"),
            "ratio",
        ),
        m("netsim.speedup_2t", extra("netsim.speedup_2t"), "ratio"),
        m("reduction.send_ns", t.ns_per_call(Span::ProtoSend), "ns"),
        m("reduction.recv_ns", t.ns_per_call(Span::ProtoRecv), "ns"),
        m("reduction.recv_ns.dim1", split(1), "ns"),
        m("reduction.recv_ns.dim3", split(3), "ns"),
        m("reduction.recv_ns.dim16", split(16), "ns"),
        m("runner.measure_s", t.secs(Span::Measure) / solves, "s"),
        m(
            "dmgs.rounds_per_reduction",
            ratio(layer("dmgs.rounds"), layer("dmgs.reductions")),
            "rounds",
        ),
        m("dmgs.capped_reductions", layer("dmgs.capped"), "count"),
        m("dmgs.verify_s", t.secs(Span::DmgsVerify) / solves, "s"),
        m(
            "batch.step_round_s",
            ratio(t.secs(Span::BatchStep), t.calls(Span::BatchStep) as f64),
            "s",
        ),
        m(
            "batch.tenant_round_ns",
            ratio(t.ns(Span::BatchStep) as f64, layer("batch.tenant_rounds")),
            "ns",
        ),
        m(
            "batch.useful_round_frac",
            ratio(layer("batch.useful_rounds"), layer("batch.tenant_rounds")),
            "ratio",
        ),
        m("batch.poll_s", t.secs(Span::BatchPoll) / solves, "s"),
        m("batch.speedup_2t", extra("batch.speedup_2t"), "ratio"),
        m("drive.step_ns", t.ns_per_call(Span::DriverStep), "ns"),
        m("drive.suspected", per_solve("drive.suspected"), "count"),
        m(
            "drive.rehabilitated",
            per_solve("drive.rehabilitated"),
            "count",
        ),
        m(
            "transport.send_ns",
            t.ns_per_call(Span::TransportSend),
            "ns",
        ),
        m(
            "transport.recv_ns",
            t.ns_per_call(Span::TransportRecv),
            "ns",
        ),
        m(
            "transport.recv_hit_ratio",
            ratio(
                t.calls(Span::TransportRecvHit) as f64,
                t.calls(Span::TransportRecv) as f64,
            ),
            "ratio",
        ),
        m(
            "transport.bytes_sent",
            per_solve("transport.bytes_sent"),
            "bytes",
        ),
        m(
            "transport.dropped",
            per_solve("transport.dropped"),
            "messages",
        ),
        m("chaos.drops", per_solve("chaos.drops"), "messages"),
        m("chaos.dups", per_solve("chaos.dups"), "messages"),
        m("wire.encode_ns", t.ns_per_call(Span::WireEncode), "ns"),
        m("wire.decode_ns", t.ns_per_call(Span::WireDecode), "ns"),
        m(
            "wire.frame_bytes",
            ratio(t.frame_bytes() as f64, t.calls(Span::WireEncode) as f64),
            "bytes",
        ),
        m(
            "alloc.per_unit",
            untraced.allocs as f64 / untraced.solves as f64,
            "count",
        ),
        m(
            "trace.overhead_frac",
            solve_traced / solve_untraced - 1.0,
            "ratio",
        ),
    ]
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() {
                format!("{}", x.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_metrics(metrics: &[Metric]) {
    for x in metrics {
        println!(
            "{:<32} {:>16} {}",
            x.name,
            format!("{:.6e}", x.value),
            x.unit
        );
    }
}

/// Run the workload; returns the counts the verdict rests on and the
/// metrics to report.
fn run(args: &Args) -> Result<(Summary, Vec<Metric>), String> {
    let mut w = workload(&args.workload, args.seed)?;
    let mut pace = pace::Pace::new();
    let heap_base = alloc::live_bytes();
    if !args.trace {
        let min_solves = w.min_solves();
        let p = pass(w.as_mut(), &mut pace, args.seconds, min_solves, false)?;
        let metrics = end_to_end(&p, heap_base);
        println!("workload {} seed {} (untraced)", args.workload, args.seed);
        print_metrics(&metrics);
        let sum = p.summary();
        println!("failed_frac {}", sum.failed as f64 / sum.units as f64);
        return Ok((sum, metrics));
    }
    let units = w.units();
    let untraced = pass(w.as_mut(), &mut pace, 0.0, units, false)?;
    let before = trace::totals();
    trace::set_enabled(true);
    let traced = pass(w.as_mut(), &mut pace, 0.0, units, true);
    trace::set_enabled(false);
    let traced = traced?;
    let spans = trace::totals().since(&before);
    if untraced.counts != traced.counts {
        return Err("traced run's counts differ from the untraced run's".into());
    }
    let mut extras = Layer::new();
    w.extras(&mut extras)?;
    println!(
        "workload {} seed {} (traced; untraced end-to-end first)",
        args.workload, args.seed
    );
    print_metrics(&end_to_end(&untraced, heap_base));
    let metrics = per_layer(&untraced, &traced, &spans, &extras);
    print_metrics(&metrics);
    Ok((traced.summary(), metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((sum, metrics)) => {
            let correct = sum.failed == 0;
            println!("{}", json(correct, sum.units, sum.failed, &metrics));
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
