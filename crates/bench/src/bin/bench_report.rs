//! `bench-report` — the machine-readable performance baseline.
//!
//! Times the simulator's hot kernels (one synchronous round of PF / PCF /
//! FU on hypercubes of dimension 6/8/10, fault-free and under a stress
//! plan, the `Vec<f64>` vector-payload grid on hc8, a full PCF round over
//! a million-node torus through the partitioned engine, the wire codec on
//! the scalar and dim-16 PCF frames, and the flow-bank component kernels
//! in their AVX2 and baseline builds) on a pinned
//! workload and emits `BENCH_6.json` in a stable schema. Each kernel
//! also reports its steady-state heap-allocation rate (a counting shim
//! around the system allocator, armed only during a counted block), so
//! the allocation-free claim is part of the committed baseline. The
//! report also records the measured-cost auto-partitioner's decision for
//! the million-node scale topology next to the pinned partition count
//! the kernel actually runs with. CI runs the report against the
//! committed baseline and fails on any time regression beyond 25% *or*
//! any kernel whose baseline allocation rate was zero turning
//! allocating; refreshing the baseline is a deliberate
//! `bench-report --out BENCH_6.json` + commit. The report is written
//! only where `--out` names a file; without it the run just prints.
//!
//! ```text
//! bench-report --out cur.json                    # time every kernel, write cur.json
//! bench-report --out cur.json --baseline BENCH_6.json   # ... and gate on it
//! bench-report --blocks 8                        # quicker, noisier; print only
//! bench-report --only torus1000x1000 --sim-threads 4   # scale kernel on 4 workers
//! bench-report --simd-ab                         # interleaved AVX2 vs baseline gate
//! ```
//!
//! `--simd-ab` runs only the flow-bank A/B harness: for every bank
//! kernel × dimension it interleaves timing blocks of the AVX2 build
//! (`simd` rows) and the baseline build of the same source (`scalar`
//! rows) pairwise and reports the median of the per-pair
//! baseline/AVX2 ratios — interleaving makes each pair share its slice
//! of scheduler noise, so the median ratio is stable where two
//! independent min-estimates are not. The run fails unless the PCF fold
//! kernel (`fold2`) reaches 1.3× at a vector dimension, making the AVX2
//! win a gated property rather than a claim.
//! On hardware without AVX2 the harness skips (exit 0) — only the
//! baseline build runs there, so there is nothing to compare.
//!
//! `--sim-threads` sets the partitioned engine's worker-thread count for
//! the scale kernel. Thread count never changes simulation results (the
//! partition count does, and it is pinned per kernel), so reports taken
//! at different `--sim-threads` values are comparable — only the
//! wall-clock column moves.
//!
//! Methodology: per kernel, warm the simulator past its fault window so
//! measurement sees the steady state, then time `--blocks` blocks of a
//! dimension-pinned round count and keep the fastest block (a
//! min-estimator: robust against scheduler noise, which only ever slows
//! a block down). Allocations are counted over one further block after
//! the timed ones.

use gr_batch::{BatchHost, BatchOptions, BatchSim, TenantSpec};
use gr_experiments::{ConfigError, Opts};
use gr_netsim::{FaultPlan, LinkFailure, NodeCrash, Protocol, SimOptions, Simulator};
use gr_reduction::{
    kernels, with_protocol, AggregateKind, Algorithm, InitialData, Mass, Payload, PcfMsg, PhiMode,
    PushCancelFlow, WireMsg,
};
use gr_topology::{hypercube, torus2d, Graph};
use serde_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Forwards to [`System`], counting `alloc`/`realloc` calls while armed.
/// Armed only during the allocation-count block, so the timed blocks pay
/// a single relaxed load per allocation — noise well below the tolerance.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Master seed for every kernel's workload, schedule and fault streams.
const SEED: u64 = 1;

/// One measured kernel.
struct Kernel {
    name: String,
    ns_per_round: f64,
    allocs_per_round: f64,
}

/// The stress plan: probabilistic loss + bit flips, two link failures and
/// one crash with a detection lag — all scheduled inside the warmup
/// window, so timed blocks see the post-fault steady state.
fn stress_plan() -> FaultPlan {
    FaultPlan {
        msg_loss_prob: 0.05,
        bit_flip_prob: 1e-3,
        link_failures: vec![
            LinkFailure {
                a: 0,
                b: 1,
                at_round: 8,
                detect_delay: 4,
            },
            LinkFailure {
                a: 2,
                b: 3,
                at_round: 16,
                detect_delay: 4,
            },
        ],
        node_crashes: vec![NodeCrash {
            node: 5,
            at_round: 24,
            detect_delay: 4,
        }],
        ..FaultPlan::none()
    }
}

/// Rounds per timed block, pinned per hypercube dimension so every block
/// lands in the low-millisecond range.
fn rounds_per_block(dim: u32) -> u64 {
    match dim {
        6 => 256,
        8 => 64,
        _ => 16,
    }
}

/// Time `sim.step()` over `blocks` blocks (fastest block's ns/round),
/// then count heap allocations over one further block.
fn time_steps<P: Protocol>(
    sim: &mut Simulator<'_, P>,
    rounds: u64,
    blocks: usize,
    warmup: u64,
) -> (f64, f64) {
    sim.run(warmup);
    let mut best = f64::INFINITY;
    for _ in 0..blocks {
        let start = Instant::now();
        sim.run(rounds);
        let ns = start.elapsed().as_nanos() as f64 / rounds as f64;
        if ns < best {
            best = ns;
        }
    }
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    sim.run(rounds);
    COUNTING.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst) as f64 / rounds as f64;
    (best, allocs)
}

/// Time a closure over `ops`-iteration blocks (fastest block's ns/op),
/// then count heap allocations over one further block — the operation
/// analogue of [`time_steps`], for the codec kernels.
fn time_ops<R>(ops: u64, blocks: usize, mut f: impl FnMut() -> R) -> (f64, f64) {
    for _ in 0..ops {
        std::hint::black_box(f());
    }
    let mut best = f64::INFINITY;
    for _ in 0..blocks {
        let start = Instant::now();
        for _ in 0..ops {
            std::hint::black_box(f());
        }
        let ns = start.elapsed().as_nanos() as f64 / ops as f64;
        if ns < best {
            best = ns;
        }
    }
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..ops {
        std::hint::black_box(f());
    }
    COUNTING.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst) as f64 / ops as f64;
    (best, allocs)
}

/// A wire-codec fixture message: a PCF message whose masses carry
/// `value(x)` for four fixed scalars `x`, with `r` and `inc` small
/// enough for one-byte varints, as in the frames PCF sends in practice.
fn pcf_msg<P: Payload>(value: impl Fn(f64) -> P) -> PcfMsg<P> {
    PcfMsg {
        f1: Mass::new(value(1.5), 0.25),
        f2: Mass::new(value(-2.0), 0.5),
        c: 2,
        r: 7,
        folded: Mass::new(value(0.0), 0.0),
        base: Mass::new(value(3.0), 1.0),
        inc: 1,
    }
}

/// Encode and decode kernels of `msg`'s frame, named
/// `wire_codec/{encode,decode,decode_fresh}/{label}` and filtered by
/// `only`. The encode path reuses one buffer; `decode` decodes into one
/// warm message, as a `NodeDriver` receive on either transport backend
/// does, and `decode_fresh` builds a new message, as a receive without a
/// spare does.
fn codec_kernels<M: WireMsg>(
    msg: &M,
    label: &str,
    only: &str,
    blocks: usize,
) -> Vec<(String, (f64, f64))> {
    const CODEC_OPS: u64 = 200_000;
    let mut frame = Vec::new();
    msg.encode_frame(&mut frame);
    let mut out = Vec::new();
    let name = format!("wire_codec/encode/{label}");
    if only.is_empty() || name.contains(only) {
        let mut buf = frame.clone();
        let m = time_ops(CODEC_OPS, blocks, || {
            buf.clear();
            msg.encode_frame(&mut buf);
            buf.len()
        });
        out.push((name, m));
    }
    let name = format!("wire_codec/decode/{label}");
    if only.is_empty() || name.contains(only) {
        let mut warm = M::decode_frame(&frame).unwrap();
        let m = time_ops(CODEC_OPS, blocks, || {
            warm.decode_frame_into(&frame).unwrap();
            std::hint::black_box(&mut warm);
        });
        out.push((name, m));
    }
    let name = format!("wire_codec/decode_fresh/{label}");
    if only.is_empty() || name.contains(only) {
        let m = time_ops(CODEC_OPS, blocks, || M::decode_frame(&frame).unwrap());
        out.push((name, m));
    }
    out
}

fn measure<P: Payload>(
    graph: &Graph,
    data: &InitialData<P>,
    alg: Algorithm,
    plan: FaultPlan,
    blocks: usize,
) -> (f64, f64) {
    let dim = graph.len().trailing_zeros();
    let rounds = rounds_per_block(dim);
    let warmup = rounds.max(64);
    with_protocol!(alg, graph, data, |proto| {
        time_steps(
            &mut Simulator::new(graph, proto, plan, SEED),
            rounds,
            blocks,
            warmup,
        )
    })
}

/// The algorithms of the `sim_step` grid, named by their lowercase labels
/// (`pf`, `pcf`, `fu`).
const SIM_STEP_ALGORITHMS: [Algorithm; 3] = [
    Algorithm::PushFlow,
    Algorithm::PushCancelFlow(PhiMode::Eager),
    Algorithm::FlowUpdating,
];

/// Deterministic non-trivial fill for the bank-kernel operands
/// (splitmix64-derived doubles in ~[-1, 1]).
fn bank_fill(len: usize, mut seed: u64) -> Vec<f64> {
    (0..len)
        .map(|_| {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
        .collect()
}

/// One flow-bank bench entry: the `kernel/path` label plus a closure
/// running one operation.
type BankOp = (&'static str, Box<dyn FnMut() -> f64>);

/// The flow-bank kernel grid: each entry is `(kernel, dim, path)` plus a
/// closure running one operation. `simd` uses the forced AVX2 entry
/// points (the baseline build on targets without AVX2) and `scalar` the
/// baseline build, so the pair is measurable at every dimension,
/// including the short ones dispatch never sends to AVX2.
fn bank_kernel_ops(dim: usize) -> Vec<BankOp> {
    let src = bank_fill(dim, 1);
    let f1 = bank_fill(dim, 2);
    let f2 = bank_fill(dim, 3);
    let mut entries: Vec<BankOp> = Vec::new();
    {
        let (mut dst, src) = (bank_fill(dim, 4), src.clone());
        entries.push((
            "add/simd",
            Box::new(move || {
                kernels::simd::add(&mut dst, &src);
                dst[0]
            }),
        ));
    }
    {
        let (mut dst, src) = (bank_fill(dim, 4), src.clone());
        entries.push((
            "add/scalar",
            Box::new(move || {
                kernels::scalar::add(&mut dst, &src);
                dst[0]
            }),
        ));
    }
    {
        let mut dst = bank_fill(dim, 5);
        entries.push((
            "scale/simd",
            Box::new(move || {
                kernels::simd::scale(&mut dst, 0.999_999);
                dst[0]
            }),
        ));
    }
    {
        let mut dst = bank_fill(dim, 5);
        entries.push((
            "scale/scalar",
            Box::new(move || {
                kernels::scalar::scale(&mut dst, 0.999_999);
                dst[0]
            }),
        ));
    }
    {
        let (mut p, mut b) = (bank_fill(dim, 6), bank_fill(dim, 7));
        let (f1, f2) = (f1.clone(), f2.clone());
        entries.push((
            "fold2/simd",
            Box::new(move || {
                kernels::simd::fold2(&mut p, &mut b, &f1, &f2);
                p[0]
            }),
        ));
    }
    {
        let (mut p, mut b) = (bank_fill(dim, 6), bank_fill(dim, 7));
        entries.push((
            "fold2/scalar",
            Box::new(move || {
                kernels::scalar::fold2(&mut p, &mut b, &f1, &f2);
                p[0]
            }),
        ));
    }
    entries
}

/// Payload dimensions for the bank-kernel grid: all-remainder (3),
/// whole 4-lane blocks (16), and the heap-spilled vector point (64).
const BANK_DIMS: [usize; 3] = [3, 16, 64];

fn run_all(
    blocks: usize,
    only: &str,
    sim_threads: usize,
    batch_tenants: usize,
) -> (Vec<Kernel>, Value) {
    let mut kernels = Vec::new();
    let mut partition_decision = Value::Null;
    let push = |kernels: &mut Vec<Kernel>, name: String, (ns, allocs): (f64, f64)| {
        println!("  {name}: {ns:.1} ns/round, {allocs:.2} allocs/round");
        kernels.push(Kernel {
            name,
            ns_per_round: ns,
            allocs_per_round: allocs,
        });
    };
    for dim in [6u32, 8, 10] {
        let graph = hypercube(dim);
        let data = InitialData::uniform_random(graph.len(), AggregateKind::Average, SEED);
        for alg in SIM_STEP_ALGORITHMS {
            for (plan_name, plan) in [("clean", FaultPlan::none()), ("stress", stress_plan())] {
                let name = format!(
                    "sim_step/{}/hc{dim}/{plan_name}",
                    alg.label().to_lowercase()
                );
                if !only.is_empty() && !name.contains(only) {
                    continue;
                }
                let m = measure(&graph, &data, alg, plan, blocks);
                push(&mut kernels, name, m);
            }
        }
    }
    // Vector-payload grid: fault-free hc8 over `Vec<f64>`, the payload
    // dmGS ships. These are the kernels the allocation-free vector fast
    // path (recycled wire buffers) is accountable to.
    {
        let graph = hypercube(8);
        for vdim in [4usize, 16, 64] {
            let (_, data) = gr_bench::vector_fixture(8, vdim, SEED);
            for alg in SIM_STEP_ALGORITHMS {
                let name = format!("sim_step/{}/hc8/vec{vdim}", alg.label().to_lowercase());
                if !only.is_empty() && !name.contains(only) {
                    continue;
                }
                let m = measure(&graph, &data, alg, FaultPlan::none(), blocks);
                push(&mut kernels, name, m);
            }
        }
    }
    // dmGS's narrowest column batch: PCF on fault-free hc8 over dim-1
    // `Vec<f64>` masses.
    {
        let name = "sim_step/pcf/hc8/heapvec1".to_string();
        if only.is_empty() || name.contains(only) {
            let graph = hypercube(8);
            let (_, data) = gr_bench::vector_fixture(8, 1, SEED);
            let alg = Algorithm::PushCancelFlow(PhiMode::Eager);
            let m = measure(&graph, &data, alg, FaultPlan::none(), blocks);
            push(&mut kernels, name, m);
        }
    }
    // Scale kernel: one full PCF round over a million-node torus through
    // the partitioned round engine (16 partitions, matching the
    // campaign's scale1m stress template). The partition count is pinned
    // — it selects the RNG streams and is part of what the baseline
    // asserts — while `--sim-threads` only spreads those partitions
    // across workers. Two rounds per block keeps a block in the
    // hundreds-of-milliseconds range, so the block count is capped
    // rather than inherited from the hypercube grid. The allocation
    // count is the acceptance criterion that matters here: a steady-state
    // round over 4M arcs must not touch the heap.
    {
        let name = "sim_step/pcf/torus1000x1000/part16".to_string();
        if only.is_empty() || name.contains(only) {
            let graph = torus2d(1000, 1000);
            let data = InitialData::uniform_random(graph.len(), AggregateKind::Average, SEED);
            // What the measured-cost auto-partitioner would pick for this
            // topology on this machine, recorded next to the pinned count
            // the kernel actually runs with (pinning keeps the RNG
            // streams — and thus the baseline — machine-independent).
            let auto_plan = SimOptions {
                threads: sim_threads,
                ..SimOptions::default()
            }
            .partition_plan(graph.len(), graph.arc_count());
            println!(
                "  partition decision for torus1000x1000: pinned 16, auto-measured {} ({})",
                auto_plan.partitions,
                auto_plan.source.as_str()
            );
            partition_decision = Value::Object(vec![
                ("kernel".to_string(), Value::String(name.clone())),
                (
                    "pinned_partitions".to_string(),
                    serde_json::to_value(16u64).unwrap(),
                ),
                ("auto".to_string(), serde_json::to_value(auto_plan).unwrap()),
            ]);
            let options = SimOptions {
                partitions: 16,
                threads: sim_threads,
                ..SimOptions::default()
            };
            let mut sim = Simulator::with_options(
                &graph,
                PushCancelFlow::new(&graph, &data),
                FaultPlan::none(),
                SEED,
                options,
            );
            let m = time_steps(&mut sim, 2, blocks.min(8), 4);
            push(&mut kernels, name, m);
        }
    }
    // Wire-codec kernels: per-message encode/decode cost of the scalar
    // PCF frame and of dmGS's dim-16 `Vec<f64>` frame — the per-message
    // overhead every real transport pays twice. Reported in ns per
    // operation (the schema's "round" is the codec op here). Every codec
    // kernel but the dim-16 fresh decode, which allocates its four
    // payloads, is accountable to zero steady-state allocations.
    let codec = codec_kernels(&pcf_msg(|x| x), "pcf-scalar", only, blocks)
        .into_iter()
        .chain(codec_kernels(
            &pcf_msg(|x| vec![x; 16]),
            "pcf-dim16",
            only,
            blocks,
        ));
    for (name, m) in codec {
        push(&mut kernels, name, m);
    }
    // Flow-bank component kernels: the componentwise inner loops every
    // PF/PCF bank operation reduces to, in their forced-AVX2 and baseline
    // builds side by side. `fold2` is the PCF hardened fold — the kernel
    // the ≥1.3× AVX2 acceptance gate (`--simd-ab`) is anchored to. Pure
    // slice arithmetic, so every entry is accountable to zero
    // allocations.
    {
        const BANK_OPS: u64 = 1_000_000;
        for dim in BANK_DIMS {
            for (kname, mut op) in bank_kernel_ops(dim) {
                let name = format!("bank_kernels/{kname}/dim{dim}");
                if !only.is_empty() && !name.contains(only) {
                    continue;
                }
                let m = time_ops(BANK_OPS, blocks, &mut op);
                push(&mut kernels, name, m);
            }
        }
    }
    // Multi-tenant batch kernel: `--batch-tenants` (default 10k)
    // independent hc6 PCF reductions through one `BatchSim` — the
    // shared-arena executor's aggregate throughput. Reported per
    // *tenant-round* so the figure is comparable across tenant counts;
    // construction (union graph, slab arenas) happens outside the timed
    // blocks, and a steady-state batch round must not touch the heap.
    // `--sim-threads` maps to the batch worker count; per-tenant results
    // are identical for every value (pinned by gr-batch's tests), so
    // only the wall-clock column moves.
    {
        let name = format!("batch_round/pcf/hc6/t{batch_tenants}");
        if only.is_empty() || name.contains(only) {
            let graph = hypercube(6);
            let n = graph.len();
            let specs: Vec<TenantSpec> = (0..batch_tenants)
                .map(|t| {
                    let values = (0..n).map(|i| (t * n + i) as f64).collect();
                    TenantSpec::clean(graph.clone(), SEED.wrapping_add(t as u64), values, u64::MAX)
                })
                .collect();
            let host = BatchHost::assemble(&specs).expect("valid batch");
            let data = host.union_data(&specs);
            let pcf = PushCancelFlow::new(host.graph(), &data);
            let opts = BatchOptions {
                threads: sim_threads,
                ..BatchOptions::default()
            };
            let mut sim = BatchSim::new(&host, pcf, &specs, opts).expect("valid options");
            let rounds = 2u64;
            sim.run(4);
            let mut best = f64::INFINITY;
            for _ in 0..blocks.min(8) {
                let start = Instant::now();
                sim.run(rounds);
                let ns = start.elapsed().as_nanos() as f64 / (rounds * batch_tenants as u64) as f64;
                if ns < best {
                    best = ns;
                }
            }
            ALLOCS.store(0, Ordering::SeqCst);
            COUNTING.store(true, Ordering::SeqCst);
            sim.run(rounds);
            COUNTING.store(false, Ordering::SeqCst);
            let allocs =
                ALLOCS.load(Ordering::SeqCst) as f64 / (rounds * batch_tenants as u64) as f64;
            println!(
                "  {name}: aggregate {:.0} tenant-rounds/sec across {batch_tenants} tenants",
                1e9 / best
            );
            push(&mut kernels, name, (best, allocs));
        }
    }
    (kernels, partition_decision)
}

/// Interleaved AVX2-vs-baseline A/B harness over the flow-bank kernel
/// grid. Each rep times one AVX2 block then one baseline block back to
/// back and records the pair's baseline/AVX2 ratio; the reported figure is
/// the median ratio, so a scheduler hiccup perturbs one pair instead of
/// biasing a whole side. Returns `(kernel, dim, median_ratio)` rows.
fn run_simd_ab(ops: u64, reps: usize) -> Vec<(String, usize, f64)> {
    let mut rows = Vec::new();
    for dim in BANK_DIMS {
        let mut entries = bank_kernel_ops(dim);
        // Entries come in simd/scalar pairs, in that order.
        while !entries.is_empty() {
            let (simd_name, mut simd_op) = entries.remove(0);
            let (_, mut scalar_op) = entries.remove(0);
            let kernel = simd_name.trim_end_matches("/simd").to_string();
            let time_block = |op: &mut Box<dyn FnMut() -> f64>| {
                let start = Instant::now();
                for _ in 0..ops {
                    std::hint::black_box(op());
                }
                start.elapsed().as_nanos() as f64 / ops as f64
            };
            // Warm both paths before the first measured pair.
            time_block(&mut simd_op);
            time_block(&mut scalar_op);
            let mut ratios: Vec<f64> = (0..reps)
                .map(|_| {
                    let simd_ns = time_block(&mut simd_op);
                    let scalar_ns = time_block(&mut scalar_op);
                    scalar_ns / simd_ns
                })
                .collect();
            ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let median = ratios[ratios.len() / 2];
            println!("  bank_kernels/{kernel}/dim{dim}: median baseline/avx2 ratio {median:.2}x");
            rows.push((kernel, dim, median));
        }
    }
    rows
}

fn report_json(kernels: &[Kernel], blocks: usize, partition_decision: Value) -> Value {
    let entries: Vec<Value> = kernels
        .iter()
        .map(|k| {
            Value::Object(vec![
                ("name".to_string(), Value::String(k.name.clone())),
                (
                    "ns_per_round".to_string(),
                    serde_json::to_value(k.ns_per_round).unwrap(),
                ),
                (
                    "allocs_per_round".to_string(),
                    serde_json::to_value(k.allocs_per_round).unwrap(),
                ),
            ])
        })
        .collect();
    Value::Object(vec![
        (
            "schema".to_string(),
            Value::String("gr-bench-report/v3".to_string()),
        ),
        ("seed".to_string(), serde_json::to_value(SEED).unwrap()),
        (
            "blocks".to_string(),
            serde_json::to_value(blocks as u64).unwrap(),
        ),
        ("simd_path".to_string(), {
            Value::String(kernels::active_path().to_string())
        }),
        ("partition_decision".to_string(), partition_decision),
        ("kernels".to_string(), Value::Array(entries)),
    ])
}

/// A baseline kernel row: `(name, ns_per_round, allocs_per_round)`.
type BaseKernel = (String, f64, Option<f64>);

/// Read the `--baseline` report at `path`.
fn load_baseline(path: &str) -> Result<Vec<BaseKernel>, ConfigError> {
    let bad = |reason: String| ConfigError::invalid("baseline", format!("{path:?} {reason}"));
    let text = std::fs::read_to_string(path).map_err(|e| bad(format!("cannot be read: {e}")))?;
    let baseline = serde_json::from_str(&text).map_err(|e| bad(format!("is not JSON: {e}")))?;
    let rows = baseline["kernels"].as_array();
    let rows = rows.ok_or_else(|| bad("has no kernels array".to_string()))?;
    rows.iter()
        .map(|b| match (b["name"].as_str(), b["ns_per_round"].as_f64()) {
            (Some(name), Some(ns)) => Ok((name.to_string(), ns, b["allocs_per_round"].as_f64())),
            _ => Err(bad(format!("lacks a kernel name or ns_per_round: {b}"))),
        })
        .collect()
}

/// Compare against a committed baseline; returns the regression lines.
fn compare(kernels: &[Kernel], baseline: &[BaseKernel]) -> Vec<String> {
    let mut regressions = Vec::new();
    for (name, base_ns, base_allocs) in baseline {
        let base_ns = *base_ns;
        match kernels.iter().find(|k| &k.name == name) {
            None => regressions.push(format!("tracked kernel {name} disappeared")),
            Some(k) => {
                let ratio = k.ns_per_round / base_ns;
                let mut verdict = if ratio > 1.0 + TOLERANCE {
                    regressions.push(format!(
                        "{name}: {base_ns:.1} -> {:.1} ns/round ({:+.1}%)",
                        k.ns_per_round,
                        (ratio - 1.0) * 100.0
                    ));
                    "REGRESSION"
                } else {
                    "ok"
                };
                // An allocation-free kernel turning allocating is a
                // regression regardless of time: the zero is a property
                // the baseline asserts, not a measurement with noise.
                if let Some(base_allocs) = base_allocs {
                    if *base_allocs == 0.0 && k.allocs_per_round > 0.0 {
                        regressions.push(format!(
                            "{name}: allocation-free kernel now allocates ({:.2} allocs/round)",
                            k.allocs_per_round
                        ));
                        verdict = "ALLOC REGRESSION";
                    }
                }
                println!(
                    "  {name}: baseline {base_ns:.1} current {:.1} ns/round ({:+.1}%) \
                     [{:.2} allocs/round] {verdict}",
                    k.ns_per_round,
                    (ratio - 1.0) * 100.0,
                    k.allocs_per_round,
                );
            }
        }
    }
    regressions
}

const BIN: &str = "bench-report";
/// The largest slowdown against `--baseline` that passes: 25%.
const TOLERANCE: f64 = 0.25;
/// The `--simd-ab` gate: the AVX2 `fold2` must beat the baseline build
/// by this ratio at a vector dimension.
const SIMD_MIN_RATIO: f64 = 1.3;

fn main() {
    let opts = Opts::from_env();
    let out = opts.string("out", "");
    let baseline_path = opts.string("baseline", "");
    let blocks = opts.u64("blocks", 24) as usize;
    let only = opts.string("only", "");
    let sim_threads = opts.u64("sim-threads", 1) as usize;
    let batch_tenants = opts.u64("batch-tenants", 10_000) as usize;
    let simd_ab = opts.bool("simd-ab", false);
    opts.finish().unwrap_or_else(|e| e.exit(BIN));
    for (bad, key, reason) in [
        (blocks < 1, "blocks", "must be at least 1"),
        (sim_threads < 1, "sim-threads", "must be at least 1"),
        (batch_tenants < 1, "batch-tenants", "must be at least 1"),
    ] {
        if bad {
            ConfigError::invalid(key, reason).exit(BIN);
        }
    }
    // Read the baseline before any kernel is timed, so a bad path fails
    // at once.
    let baseline = (!baseline_path.is_empty())
        .then(|| load_baseline(&baseline_path).unwrap_or_else(|e| e.exit(BIN)));

    if simd_ab {
        if !kernels::simd_supported() {
            println!("simd-ab: no AVX2 build on this target, nothing to gate (skipping)");
            return;
        }
        println!(
            "simd-ab: interleaved AVX2/baseline A/B over the flow-bank grid \
             ({blocks} pairs/kernel, gate {SIMD_MIN_RATIO:.2}x on fold2 vector dims)"
        );
        let rows = run_simd_ab(1_000_000, blocks);
        // The gate: the PCF hardened fold must show the AVX2 win at a
        // vector payload dimension (dim > LANES, i.e. 16 or 64 here).
        let best_fold2 = rows
            .iter()
            .filter(|(k, dim, _)| k == "fold2" && *dim > gr_reduction::kernels::LANES)
            .map(|&(_, _, r)| r)
            .fold(0.0f64, f64::max);
        if best_fold2 < SIMD_MIN_RATIO {
            eprintln!(
                "simd-ab FAILED: best fold2 vector-dim median ratio {best_fold2:.2}x \
                 is below the {SIMD_MIN_RATIO:.2}x gate"
            );
            std::process::exit(1);
        }
        println!(
            "simd-ab: PASS — fold2 vector-dim median ratio {best_fold2:.2}x \
             >= {SIMD_MIN_RATIO:.2}x"
        );
        return;
    }

    println!("bench-report: timing kernels (filter: {only:?}, sim threads: {sim_threads})");
    let (kernels, partition_decision) = run_all(blocks, &only, sim_threads, batch_tenants);
    if kernels.is_empty() {
        ConfigError::invalid("only", format!("{only:?} matched no kernel")).exit(BIN);
    }

    if !out.is_empty() {
        let json = serde_json::to_string_pretty(&report_json(&kernels, blocks, partition_decision))
            .unwrap();
        if let Err(e) = std::fs::write(&out, json + "\n") {
            eprintln!("{BIN}: writing {out:?}: {e}");
            std::process::exit(1);
        }
        println!("wrote {out}");
    }

    if let Some(baseline) = baseline {
        println!(
            "comparing against {baseline_path} (tolerance {:.0}%):",
            TOLERANCE * 100.0
        );
        let regressions = compare(&kernels, &baseline);
        if !regressions.is_empty() {
            eprintln!("performance regressions beyond {:.0}%:", TOLERANCE * 100.0);
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
        println!("no kernel regressed beyond {:.0}%", TOLERANCE * 100.0);
    }
}
