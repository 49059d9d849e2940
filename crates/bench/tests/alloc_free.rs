//! Proof that the steady-state round loop is allocation-free: on the
//! single-partition simulator, for scalar payloads, for vector payloads
//! at the inline cap and for the heap `Vec<f64>` payloads dmGS ships,
//! and on the batch executor; that a four-partition simulator running
//! the timeout detector allocates only to grow buffers to new high-water
//! marks; and that reading a node's estimate or mass allocates nothing.
//!
//! A counting shim around the system allocator is installed as the global
//! allocator for this binary; each test warms a PCF run past
//! the transient — delivery buckets and send lists at capacity, believed
//! lists built, the protocol converged into its fold steady state — then
//! counts heap traffic across 1000 further rounds. The count must be
//! exactly zero: one stray `Vec` in the per-message path would show up
//! here as thousands of allocations.
//!
//! Counting is thread-local: libtest's main thread waits out the tests on
//! an mpmc event channel whose waker registration allocates lazily, and
//! on a loaded single-core host that re-park can be preempted into the
//! counting window; the tests themselves run on parallel threads. Only
//! the measuring thread's allocations may count.

use gr_batch::{BatchHost, BatchOptions, BatchSim, TenantSpec};
use gr_bench::vector_fixture;
use gr_netsim::{DetectorModel, FaultPlan, SimOptions, Simulator};
use gr_reduction::{
    with_protocol, AggregateKind, Algorithm, InitialData, InlineVec, PhiMode, PushCancelFlow,
    ReductionProtocol, INLINE_CAP,
};
use gr_topology::hypercube;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`], counting `alloc`/`realloc` calls made by a
/// thread inside [`count_allocs`].
struct CountingAlloc;

thread_local! {
    /// `Some(count)` while the thread is counting.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Count one allocation if the current thread is counting. `try_with`
/// (not `with`) so allocations during TLS teardown never panic inside the
/// allocator.
fn note_alloc() {
    let _ = ALLOCS.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap allocations the current thread makes while running `f`.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|c| c.set(Some(0)));
    f();
    ALLOCS.with(|c| c.take()).expect("counting was armed")
}

#[test]
fn steady_state_rounds_do_not_allocate() {
    let g = hypercube(6);
    let data = InitialData::uniform_random(g.len(), AggregateKind::Average, 1);
    let mut sim = Simulator::new(&g, PushCancelFlow::new(&g, &data), FaultPlan::none(), 1);

    // Warm-up: grow the delivery buckets to their steady-state capacity
    // and let the PCF fold handshake settle into its periodic regime.
    sim.run(64);

    let n = count_allocs(|| sim.run(1000));
    assert_eq!(n, 0, "steady-state hot loop performed {n} heap allocations");
    // The rounds actually ran.
    assert_eq!(sim.stats().rounds, 1064);
}

/// The vector fast path at its widest inline payload: `InlineVec` masses
/// of dim `INLINE_CAP`, flows in the SoA banks and wire buffers recycled
/// through `Protocol::reclaim` leave nothing to allocate per round.
#[test]
fn steady_state_vector_rounds_do_not_allocate() {
    let (g, data) = vector_fixture::<InlineVec>(6, INLINE_CAP, 1);
    let mut sim = Simulator::new(&g, PushCancelFlow::new(&g, &data), FaultPlan::none(), 1);
    // Warm-up: grow the delivery buckets and the wire-buffer pool to
    // steady-state capacity.
    sim.run(64);

    let n = count_allocs(|| sim.run(1000));
    assert_eq!(
        n, 0,
        "steady-state vector hot loop performed {n} heap allocations"
    );
    assert_eq!(sim.stats().rounds, 1064);
}

/// The payload dmGS ships: heap `Vec<f64>` masses at dim 16 on hc8,
/// PCF-Eager under 2% loss. Every wire buffer, lost or delivered, goes
/// back to the protocol's pool through `Protocol::reclaim`, so once the
/// pool holds a round's worth of messages nothing allocates.
#[test]
fn steady_state_heap_vector_rounds_do_not_allocate() {
    let (g, data) = vector_fixture::<Vec<f64>>(8, 16, 1);
    let pcf = PushCancelFlow::with_mode(&g, &data, PhiMode::Eager);
    let mut sim = Simulator::new(&g, pcf, FaultPlan::with_loss(0.02), 1);
    sim.run(64);

    let n = count_allocs(|| sim.run(1000));
    assert_eq!(
        n, 0,
        "steady-state heap-vector hot loop performed {n} heap allocations"
    );
    assert_eq!(sim.stats().rounds, 1064);
    assert!(sim.stats().lost_random > 0, "the loss model never fired");
}

/// The oracle side writes each node's `e_i` straight into the caller's
/// slice: over `Vec<f64>` payloads, where any scratch payload would be a
/// heap allocation, reading every estimate and mass allocates nothing.
#[test]
fn oracle_reads_over_heap_vectors_do_not_allocate() {
    let (g, data) = vector_fixture::<Vec<f64>>(4, 16, 3);
    for alg in Algorithm::all() {
        with_protocol!(alg, &g, &data, |proto| {
            let mut sim = Simulator::new(&g, proto, FaultPlan::none(), 3);
            sim.run(32);
            let proto = sim.protocol();
            let mut buf = vec![0.0; 16];
            let mut weight = 0.0;
            let n = count_allocs(|| {
                for i in 0..g.len() as u32 {
                    proto.write_estimate(i, &mut buf);
                    weight += proto.write_mass(i, &mut buf);
                }
            });
            assert_eq!(n, 0, "{}: oracle reads made {n} allocations", alg.label());
            assert!(weight > 0.0, "{}: no mass read", alg.label());
        });
    }
}

/// With four partitions the round is allocation-free only amortised.
/// Three buffers fill to a high-water mark that keeps rising, ever more
/// rarely, long after the transient: each cross-partition mailbox lane
/// (a binomial message count per round), each timing-wheel slot (a random
/// entry count), and each partition's PCF message pool (its size is a
/// zero-drift random walk, since a partition gets back as many buffers as
/// its nodes receive, not as many as they send). Past round 6000 this
/// run allocates 0–3 times per 1000 rounds (about 170 in rounds
/// 2000–3000), so after an 8000-round warm-up it pins fewer than 20:
/// an allocation every 50 rounds fails it, a per-round or per-message
/// one by far more.
#[test]
fn partitioned_timeout_rounds_allocate_less_than_once_per_round() {
    let g = hypercube(6);
    let data = InitialData::uniform_random(g.len(), AggregateKind::Average, 2);
    // A window no fault-free silence reaches (a degree-6 arc stays silent
    // for 200 rounds with probability (5/6)^200): the detector runs every
    // round, with its arrival bookkeeping and wheel scan, and never fires.
    let opts = SimOptions {
        partitions: 4,
        detector: DetectorModel::Timeout { window: 200 },
        ..SimOptions::default()
    };
    let pcf = PushCancelFlow::new(&g, &data);
    let mut sim = Simulator::with_options(&g, pcf, FaultPlan::none(), 2, opts);
    sim.run(8000);

    let n = count_allocs(|| sim.run(1000));
    assert!(
        n < 20,
        "partitioned rounds performed {n} heap allocations in 1000 rounds"
    );
    assert_eq!(sim.stats().rounds, 9000);
    assert_eq!(sim.stats().suspected, 0);
}

#[test]
fn batch_rounds_do_not_allocate() {
    let specs: Vec<TenantSpec> = (0..8)
        .map(|t| {
            let g = hypercube(4);
            let values = (0..g.len()).map(|i| (i + t) as f64).collect();
            TenantSpec::clean(g, 10 + t as u64, values, 2000)
        })
        .collect();
    let host = BatchHost::assemble(&specs).expect("valid batch");
    let data = host.union_data(&specs);
    let pcf = PushCancelFlow::new(host.graph(), &data);
    // Convergence checks and snapshot publishing are part of the round.
    let opts = BatchOptions {
        check_every: 8,
        target_accuracy: Some(1e-9),
        ..BatchOptions::default()
    };
    let mut sim = BatchSim::new(&host, pcf, &specs, opts).expect("valid options");
    sim.run(64);

    let n = count_allocs(|| sim.run(1000));
    assert_eq!(n, 0, "batch round performed {n} heap allocations");
    assert_eq!(sim.tenant_stats(0).rounds, 1064);
}
