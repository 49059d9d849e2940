//! Allocation pins for the real-transport wire path.
//!
//! A counting shim around the system allocator is installed as the global
//! allocator for this binary. Decoding a scalar PCF frame, or a dim-16
//! `Vec<f64>` PCF frame into a warm message, must not allocate at all,
//! and warm `NodeDriver` traffic over `mem_cluster` (encode, channel
//! send, receive, decode into the driver's spare message, process) must
//! cost at most one allocation per frame: the exact-size frame the
//! sender ships.
//!
//! Counting is per thread: the tests of this binary run in parallel, and
//! libtest's main thread may allocate while a test measures. Only the
//! measuring thread's own allocations count.

use gr_reduction::{
    AggregateKind, InitialData, Mass, NodeDriver, Payload, PcfMsg, PushCancelFlow, WireMsg,
};
use gr_topology::hypercube;
use gr_transport::{mem_cluster, ChaosDelivery, ChaosPlan, WireInstrumented};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`], counting `alloc`/`realloc` calls made by the
/// current thread while it is armed.
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation if this thread is armed. `try_with` (not `with`)
/// so allocations during TLS teardown never panic inside the allocator.
fn note_alloc() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
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

/// Heap allocations `f` makes on this thread.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (ALLOCS.with(Cell::get), out)
}

fn pcf<P: Payload>(value: impl Fn(f64) -> P) -> PcfMsg<P> {
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

fn frame<M: WireMsg>(m: &M) -> Vec<u8> {
    let mut out = Vec::new();
    m.encode_frame(&mut out);
    out
}

#[test]
fn decode_is_allocation_free() {
    let scalar = pcf(|x| x);
    let bytes = frame(&scalar);
    let (n, back) = allocs_in(|| PcfMsg::<f64>::decode_frame(&bytes));
    assert_eq!(n, 0, "scalar PCF decode made {n} allocations");
    assert_eq!(back.unwrap(), scalar);

    let vector = pcf(|x| vec![x; 16]);
    let bytes = frame(&vector);
    let mut warm = pcf(|x| vec![-x; 16]);
    let (n, back) = allocs_in(|| warm.decode_frame_into(&bytes));
    assert_eq!(
        n, 0,
        "dim-16 Vec<f64> PCF decode into a warm message made {n} allocations"
    );
    back.unwrap();
    assert_eq!(warm, vector);
}

/// Allocations and frames sent over `sweeps` round-robin sweeps of 16
/// PCF drivers on hypercube-4 over `mem_cluster` endpoints, each behind a
/// fault-free `ChaosDelivery` (so its forwarding is pinned too), after
/// 200 warm-up sweeps. Each step drains however many frames arrived since
/// the node's last step (none, one or several) and then sends one: the
/// real driver pattern, not a strict send/receive alternation.
fn driver_allocs<P: Payload>(dim: usize, sweeps: usize) -> (u64, u64) {
    let graph = hypercube(4);
    let n = graph.len();
    let values = (0..n)
        .map(|i| P::from_components(&vec![i as f64; dim]))
        .collect();
    let data = InitialData::with_kind(values, AggregateKind::Average);
    let plan = ChaosPlan::none(0);
    let mut eps: Vec<_> = mem_cluster::<PcfMsg<P>>(n, 4 * n)
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(i, ep)| ChaosDelivery::new(ep, i as u32, &plan))
        .collect();
    let mut drivers: Vec<_> = (0..n as u32)
        .map(|i| NodeDriver::new(i, PushCancelFlow::new(&graph, &data), &graph, 7))
        .collect();
    let mut sweep = |rounds: usize| {
        for _ in 0..rounds {
            for (d, ep) in drivers.iter_mut().zip(&mut eps) {
                d.step(ep).unwrap();
            }
        }
        let sent: u64 = eps.iter().map(|ep| ep.wire_stats().sent).sum();
        let delivered: u64 = eps.iter().map(|ep| ep.wire_stats().delivered).sum();
        assert!(sent - delivered <= n as u64, "frames lost or stranded");
        sent
    };
    let before = sweep(200);
    let (allocs, after) = allocs_in(|| sweep(sweeps));
    (allocs, after - before)
}

#[test]
fn warm_driver_traffic_allocates_once_per_frame() {
    for (label, (allocs, frames)) in [
        ("scalar", driver_allocs::<f64>(1, 1000)),
        ("dim-16", driver_allocs::<Vec<f64>>(16, 1000)),
    ] {
        assert_eq!(frames, 16_000, "{label}: one frame per driver step");
        assert!(
            allocs <= frames,
            "{frames} warm {label} frames of driver traffic made {allocs} allocations \
             (more than one per frame)"
        );
    }
}
