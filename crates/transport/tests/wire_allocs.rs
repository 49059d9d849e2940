//! Allocation pins for the real-transport wire path.
//!
//! A counting shim around the system allocator is installed as the global
//! allocator for this binary. Decoding a scalar or inline-vector PCF frame
//! must not allocate at all, and a warm mem-backend round trip (encode,
//! channel send, receive, decode) must cost at most one allocation per
//! frame: the exact-size frame the sender ships.
//!
//! Counting is per thread: the tests of this binary run in parallel, and
//! libtest's main thread may allocate while a test measures. Only the
//! measuring thread's own allocations count.

use gr_netsim::Delivery;
use gr_reduction::{InlineVec, Mass, Payload, PcfMsg, WireMsg};
use gr_transport::{mem_cluster, MemDelivery};
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

    let inline = pcf(|x| InlineVec::from_components(&[x; 16]));
    let bytes = frame(&inline);
    let (n, back) = allocs_in(|| PcfMsg::<InlineVec>::decode_frame(&bytes));
    assert_eq!(n, 0, "dim-16 InlineVec PCF decode made {n} allocations");
    assert_eq!(back.unwrap(), inline);
}

#[test]
fn warm_mem_round_trip_allocates_once_per_frame() {
    const FRAMES: u64 = 1000;
    let mut eps = mem_cluster::<PcfMsg<f64>>(2, 4).unwrap();
    let msg = pcf(|x| x);
    let round_trip = |eps: &mut Vec<MemDelivery<PcfMsg<f64>>>| {
        eps[0].send(0, 1, msg.clone()).unwrap();
        let (src, got) = eps[1]
            .try_recv(1)
            .unwrap()
            .expect("frame crossed the fabric");
        assert_eq!(src, 0);
        got
    };
    // Warm-up: the sender's encode buffer reaches frame size.
    assert_eq!(round_trip(&mut eps), msg);

    let (n, ()) = allocs_in(|| {
        for _ in 0..FRAMES {
            round_trip(&mut eps);
        }
    });
    assert!(
        n <= FRAMES,
        "{FRAMES} warm round trips made {n} allocations (more than one per frame)"
    );
    assert_eq!(eps[1].wire_stats().delivered, FRAMES + 1);
}
