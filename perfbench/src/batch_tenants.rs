//! `batch-tenants`: 500 hypercube-6 PCF tenants in one `BatchSim`, with
//! streaming updates to a fixed share of them.

use crate::trace::{span, Span, Timed};
use crate::workload::{add, pcf_frame_bytes, unit_rng, within, Counts, Layer, Solve, Workload};
use gr_batch::{BatchHost, BatchOptions, BatchSim, TenantProtocol, TenantSpec};
use gr_netsim::FaultPlan;
use gr_numerics::{relative_error, Dd};
use gr_reduction::PushCancelFlow;
use gr_topology::hypercube;
use rand::RngExt;
use std::time::Instant;

const TENANTS: usize = 500;
const DIM: u32 = 6;
const LOSS: f64 = 0.02;
const CHECK_EVERY: u64 = 8;
const TARGET: f64 = 1e-9;
const CAP: u64 = 3000;
/// Every `UPDATE_STRIDE`-th tenant gets one `push_update` at round
/// `UPDATE_ROUND`, so writes run beside the snapshot reads.
const UPDATE_STRIDE: usize = 5;
const UPDATE_ROUND: u64 = 40;
const UNITS: usize = 3;
const TAG: u64 = 0x4241_5443;

pub struct BatchTenants {
    seed: u64,
    frame_bytes: u64,
}

/// One batch's seeded inputs.
struct Inputs {
    specs: Vec<TenantSpec>,
    /// `(tenant, local node, new value)` applied at `UPDATE_ROUND`.
    updates: Vec<(usize, u32, f64)>,
}

impl BatchTenants {
    pub fn new(seed: u64) -> Self {
        BatchTenants {
            seed,
            frame_bytes: pcf_frame_bytes(0.0f64),
        }
    }

    fn inputs(&self, i: usize) -> Inputs {
        let mut rng = unit_rng(self.seed, TAG, i);
        let n = 1usize << DIM;
        let specs = (0..TENANTS)
            .map(|_| TenantSpec {
                graph: span(Span::TopoBuild, || hypercube(DIM)),
                seed: rng.random(),
                plan: FaultPlan::with_loss(LOSS),
                values: (0..n).map(|_| 1.0 + rng.random::<f64>()).collect(),
                max_rounds: CAP,
            })
            .collect();
        let updates = (0..TENANTS)
            .step_by(UPDATE_STRIDE)
            .map(|t| (t, rng.random_range(0..n) as u32, 1.0 + rng.random::<f64>()))
            .collect();
        Inputs { specs, updates }
    }

    fn solve_with(&self, i: usize, threads: usize, traced: bool) -> Result<Solve, String> {
        let t0 = Instant::now();
        let inputs = self.inputs(i);
        let host = span(Span::TopoBuild, || BatchHost::assemble(&inputs.specs))
            .map_err(|e| format!("batch-tenants: {e}"))?;
        let data = host.union_data(&inputs.specs);
        let opts = BatchOptions {
            threads,
            check_every: CHECK_EVERY,
            target_accuracy: Some(TARGET),
            ..BatchOptions::default()
        };
        let pcf = || PushCancelFlow::new(host.graph(), &data);
        if traced {
            let sim = span(Span::SimConstruct, || {
                BatchSim::new(&host, Timed(pcf()), &inputs.specs, opts)
            });
            self.run(sim, &inputs, t0)
        } else {
            let sim = span(Span::SimConstruct, || {
                BatchSim::new(&host, pcf(), &inputs.specs, opts)
            });
            self.run(sim, &inputs, t0)
        }
    }

    /// Step the batch until every tenant has reached accuracy after its
    /// update; `t0` marks the start of set-up.
    fn run<P: TenantProtocol>(
        &self,
        sim: Result<BatchSim<'_, P>, gr_batch::BatchConfigError>,
        inputs: &Inputs,
        t0: Instant,
    ) -> Result<Solve, String> {
        let mut sim = sim.map_err(|e| format!("batch-tenants: {e}"))?;
        let setup_s = t0.elapsed().as_secs_f64();
        let board = sim.snapshots();
        // The oracle's reference: each tenant's exact input mean, before
        // and after its update.
        let mut values: Vec<Vec<f64>> = inputs.specs.iter().map(|s| s.values.clone()).collect();
        let before: Vec<Dd> = values.iter().map(|v| mean(v)).collect();
        for &(t, node, value) in &inputs.updates {
            values[t][node as usize] = value;
        }
        let after: Vec<Dd> = values.iter().map(|v| mean(v)).collect();
        let mut reached: Vec<Option<Reached>> = vec![None; TENANTS];
        let (mut tenant_rounds, mut useful_rounds) = (0u64, 0u64);
        let mut active = vec![true; TENANTS];

        let a1 = crate::alloc::calls();
        let t1 = Instant::now();
        loop {
            if sim.round() == UPDATE_ROUND {
                for &(t, node, value) in &inputs.updates {
                    sim.push_update(t, node, value);
                }
            }
            for (t, a) in active.iter_mut().enumerate() {
                *a = !sim.tenant_done(t);
            }
            span(Span::BatchStep, || sim.step_round());
            let now = t1.elapsed().as_secs_f64();
            let reference = if sim.round() > UPDATE_ROUND {
                &after
            } else {
                &before
            };
            span(Span::BatchPoll, || {
                for (t, slot) in reached.iter_mut().enumerate() {
                    if !active[t] {
                        continue;
                    }
                    tenant_rounds += 1;
                    if slot.is_none() {
                        useful_rounds += 1;
                    }
                    let snap = board.get(t);
                    if !snap.converged {
                        *slot = None;
                    } else if slot.is_none() {
                        *slot = Some(Reached {
                            round: snap.round,
                            time_s: now,
                            sent: sim.tenant_stats(t).sent,
                            err: tenant_error(&sim, t, reference[t]),
                        });
                    }
                }
            });
            let settled = sim.round() > UPDATE_ROUND && reached.iter().all(Option::is_some);
            if settled || sim.all_done() {
                break;
            }
        }
        let solve_s = t1.elapsed().as_secs_f64();
        let allocs = crate::alloc::calls() - a1;

        // Oracle check: every node of every tenant, at the end, against
        // the exact mean of its updated inputs.
        let failed = (0..TENANTS)
            .filter(|&t| reached[t].is_none() || !within(tenant_error(&sim, t, after[t]), TARGET))
            .count() as u64;
        let reached: Vec<Reached> = reached
            .into_iter()
            .map(|r| {
                r.unwrap_or(Reached {
                    round: CAP,
                    time_s: solve_s,
                    sent: 0,
                    err: f64::INFINITY,
                })
            })
            .collect();
        let messages: u64 = reached.iter().map(|r| r.sent).sum();
        let worst = reached.iter().map(|r| r.err).fold(0.0, f64::max);
        let mut layer = Layer::new();
        add(&mut layer, "batch.tenant_rounds", tenant_rounds as f64);
        add(&mut layer, "batch.useful_rounds", useful_rounds as f64);
        Ok(Solve {
            setup_s,
            solve_s,
            allocs,
            samples_s: reached.iter().map(|r| r.time_s).collect(),
            reductions: TENANTS as u64,
            counts: Counts {
                rounds: reached.iter().map(|r| r.round).collect(),
                messages,
                bytes: messages * self.frame_bytes,
                worst_err_bits: worst.to_bits(),
                failed,
            },
            layer,
        })
    }
}

/// When a tenant was last reported converged: its round, the seconds into
/// the solve, its messages so far and its oracle error at that moment.
#[derive(Clone, Copy)]
struct Reached {
    round: u64,
    time_s: f64,
    sent: u64,
    err: f64,
}

fn mean(values: &[f64]) -> Dd {
    values.iter().fold(Dd::ZERO, |acc, &x| acc + x) / values.len() as f64
}

/// Worst relative error of tenant `t`'s nodes against `reference`.
fn tenant_error<P: TenantProtocol>(sim: &BatchSim<'_, P>, t: usize, reference: Dd) -> f64 {
    (0..1u32 << DIM)
        .map(|node| relative_error(sim.tenant_estimate(t, node), reference))
        .fold(
            0.0f64,
            |a, e| if e.is_nan() { f64::INFINITY } else { a.max(e) },
        )
}

impl Workload for BatchTenants {
    fn units(&self) -> usize {
        UNITS
    }

    fn solve(&mut self, i: usize, traced: bool) -> Result<Solve, String> {
        self.solve_with(i, 1, traced)
    }

    fn extras(&mut self, layer: &mut Layer) -> Result<(), String> {
        let one = self.solve_with(0, 1, false)?;
        let two = self.solve_with(0, 2, false)?;
        if one.counts != two.counts {
            return Err("batch-tenants: 2-thread run differs from the 1-thread run".into());
        }
        add(layer, "batch.speedup_2t", one.solve_s / two.solve_s);
        Ok(())
    }
}
