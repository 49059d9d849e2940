//! Span recording for the traced run, from the benchmark's own files.
//!
//! Nothing here reaches into the library: the benchmark times its calls
//! into each layer's public API. [`span`] times a closure when tracing is
//! on and is a plain call when it is off. [`Timed`] wraps a protocol and
//! times every hook the round engines call; [`Framed`] wraps its message
//! type so the wire codec's `encode_frame`/`decode_frame` are timed where
//! a transport calls them; [`TimedDelivery`] wraps a transport endpoint.
//!
//! Spans aggregate into per-thread totals (nanoseconds and call count per
//! [`Span`]). Per-message hooks are counted on every call but timed on
//! every `SAMPLE_EVERY`-th one ([`sampled`]), which keeps the clock reads
//! from dominating calls that take about a hundred nanoseconds. Every
//! traced run steps on one thread, so the totals are the whole run's;
//! keeping them per thread also keeps [`Timed`] sound under the
//! `PARALLEL_SAFE` contract it forwards.

use gr_batch::TenantProtocol;
use gr_netsim::{Corrupt, Delivery, Protocol};
use gr_reduction::wire::Reader;
use gr_reduction::{ReductionProtocol, WireError, WireMsg};
use gr_topology::NodeId;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// A layer boundary the benchmark times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// Topology construction (`gr_topology` builders).
    TopoBuild,
    /// Protocol plus `Simulator` construction.
    SimConstruct,
    /// `Simulator::step` / `Simulator::run`.
    SimStep,
    /// Protocol send hooks (`on_send`, `part_send`, `reply`, `part_reply`).
    ProtoSend,
    /// Protocol receive hooks (`on_receive`, `part_receive`).
    ProtoRecv,
    /// Protocol failure, restart and buffer-return hooks.
    ProtoOther,
    /// `Measurer::mass_reference` / `Measurer::measure_error`.
    Measure,
    /// One `gr_dmgs::dmgs` call.
    Dmgs,
    /// The benchmark's check of a factorization.
    DmgsVerify,
    /// `BatchSim::step_round`.
    BatchStep,
    /// Reading every tenant's `SnapshotBoard` entry after a round.
    BatchPoll,
    /// `NodeDriver::step`.
    DriverStep,
    /// `Delivery::send` on a transport endpoint.
    TransportSend,
    /// `Delivery::try_recv` on a transport endpoint.
    TransportRecv,
    /// `try_recv` calls that returned a message (count only).
    TransportRecvHit,
    /// `WireMsg::encode_frame` (the count holds calls, see [`Totals::frame_bytes`]).
    WireEncode,
    /// `WireMsg::decode_frame`.
    WireDecode,
}

const SPANS: usize = Span::WireDecode as usize + 1;

/// Aggregated span totals: nanoseconds and calls per [`Span`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    ns: [u64; SPANS],
    calls: [u64; SPANS],
    frame_bytes: u64,
}

impl Totals {
    /// Total seconds spent in `s`.
    pub fn secs(&self, s: Span) -> f64 {
        self.ns[s as usize] as f64 / 1e9
    }

    /// Total nanoseconds spent in `s`.
    pub fn ns(&self, s: Span) -> u64 {
        self.ns[s as usize]
    }

    /// Calls recorded for `s`.
    pub fn calls(&self, s: Span) -> u64 {
        self.calls[s as usize]
    }

    /// Mean nanoseconds per call of `s` (0 when never called).
    pub fn ns_per_call(&self, s: Span) -> f64 {
        match self.calls(s) {
            0 => 0.0,
            c => self.ns(s) as f64 / c as f64,
        }
    }

    /// Encoded frame bytes produced under [`Span::WireEncode`].
    pub fn frame_bytes(&self) -> u64 {
        self.frame_bytes
    }

    /// `self − earlier`, span by span.
    pub fn since(&self, earlier: &Totals) -> Totals {
        let mut d = *self;
        for i in 0..SPANS {
            d.ns[i] -= earlier.ns[i];
            d.calls[i] -= earlier.calls[i];
        }
        d.frame_bytes -= earlier.frame_bytes;
        d
    }
}

static ON: AtomicBool = AtomicBool::new(false);

/// Nanoseconds one clock-read pair adds to a timed interval, measured
/// when tracing is turned on and taken off every recorded duration.
static CLOCK_NS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static NS: [Cell<u64>; SPANS] = const { [const { Cell::new(0) }; SPANS] };
    static CALLS: [Cell<u64>; SPANS] = const { [const { Cell::new(0) }; SPANS] };
    static FRAME_BYTES: Cell<u64> = const { Cell::new(0) };
    static TICK: Cell<u64> = const { Cell::new(0) };
}

/// Turn span recording on or off (off by default).
pub fn set_enabled(on: bool) {
    if on {
        CLOCK_NS.store(clock_cost_ns(), Ordering::Relaxed);
    }
    ON.store(on, Ordering::Relaxed);
}

/// Median time between two back-to-back clock reads.
fn clock_cost_ns() -> u64 {
    let mut d: Vec<u64> = (0..1001)
        .map(|_| Instant::now().elapsed().as_nanos() as u64)
        .collect();
    d.sort_unstable();
    d[d.len() / 2]
}

/// Whether spans are being recorded.
#[inline]
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// This thread's span totals so far.
pub fn totals() -> Totals {
    let mut t = Totals::default();
    NS.with(|ns| t.ns = std::array::from_fn(|i| ns[i].get()));
    CALLS.with(|c| t.calls = std::array::from_fn(|i| c[i].get()));
    t.frame_bytes = FRAME_BYTES.with(Cell::get);
    t
}

#[inline]
fn add(s: Span, ns: u64) {
    NS.with(|t| t[s as usize].set(t[s as usize].get() + ns));
    CALLS.with(|t| t[s as usize].set(t[s as usize].get() + 1));
}

/// Nanoseconds since `t`, less the clock's own cost.
#[inline]
fn since(t: Instant) -> u64 {
    (t.elapsed().as_nanos() as u64).saturating_sub(CLOCK_NS.load(Ordering::Relaxed))
}

/// Count one event of `s` without timing it.
#[inline]
pub fn count(s: Span) {
    if enabled() {
        add(s, 0);
    }
}

fn add_frame_bytes(bytes: usize) {
    FRAME_BYTES.with(|b| b.set(b.get() + bytes as u64));
}

/// Run `f`, recording its duration under `s` when tracing is on.
#[inline]
pub fn span<T>(s: Span, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let t = Instant::now();
    let out = f();
    add(s, since(t));
    out
}

/// Prime, so the sampled calls do not line up with power-of-two node
/// counts or round structure.
const SAMPLE_EVERY: u64 = 17;

/// [`span`] for per-message calls: counts every call, times every
/// `SAMPLE_EVERY`-th and weights its duration by `SAMPLE_EVERY`.
#[inline]
pub fn sampled<T>(s: Span, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let tick = TICK.with(|t| {
        t.set(t.get() + 1);
        t.get()
    });
    if !tick.is_multiple_of(SAMPLE_EVERY) {
        add(s, 0);
        return f();
    }
    let t = Instant::now();
    let out = f();
    add(s, since(t) * SAMPLE_EVERY);
    out
}

/// A protocol whose every hook is timed. Forwards all hooks, the `part_*`
/// variants and `PARALLEL_SAFE` included, so each engine takes the same
/// path, and draws the same random numbers, as with the bare protocol.
pub struct Timed<P>(pub P);

/// A protocol message whose wire codec is timed.
#[derive(Clone, Debug, PartialEq)]
pub struct Framed<M>(pub M);

impl<M: Corrupt> Corrupt for Framed<M> {
    fn corruptible_bits(&self) -> u32 {
        self.0.corruptible_bits()
    }
    fn flip_bit(&mut self, bit: u32) {
        self.0.flip_bit(bit)
    }
}

impl<M: WireMsg> WireMsg for Framed<M> {
    const KIND: u8 = M::KIND;

    fn encode_body(&self, out: &mut Vec<u8>) {
        self.0.encode_body(out)
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError> {
        M::decode_body(r).map(Framed)
    }

    fn encode_frame(&self, out: &mut Vec<u8>) {
        let before = out.len();
        sampled(Span::WireEncode, || self.0.encode_frame(out));
        if enabled() {
            add_frame_bytes(out.len() - before);
        }
    }

    fn decode_frame(bytes: &[u8]) -> Result<Self, WireError> {
        sampled(Span::WireDecode, || M::decode_frame(bytes)).map(Framed)
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = Framed<P::Msg>;

    const PARALLEL_SAFE: bool = P::PARALLEL_SAFE;

    fn on_send(&mut self, node: NodeId, target: NodeId) -> Self::Msg {
        Framed(sampled(Span::ProtoSend, || self.0.on_send(node, target)))
    }

    fn on_receive(&mut self, node: NodeId, from: NodeId, msg: &mut Self::Msg) {
        sampled(Span::ProtoRecv, || {
            self.0.on_receive(node, from, &mut msg.0)
        })
    }

    #[inline]
    fn prewarm(&self, node: NodeId, from: NodeId) {
        self.0.prewarm(node, from)
    }

    fn on_link_failed(&mut self, node: NodeId, neighbor: NodeId) {
        sampled(Span::ProtoOther, || self.0.on_link_failed(node, neighbor))
    }

    fn on_suspect(&mut self, node: NodeId, neighbor: NodeId) {
        sampled(Span::ProtoOther, || self.0.on_suspect(node, neighbor))
    }

    fn on_rehabilitate(&mut self, node: NodeId, neighbor: NodeId) {
        sampled(Span::ProtoOther, || self.0.on_rehabilitate(node, neighbor))
    }

    fn on_restart(&mut self, node: NodeId) {
        sampled(Span::ProtoOther, || self.0.on_restart(node))
    }

    fn on_neighbor_restarted(&mut self, node: NodeId, restarted: NodeId) {
        sampled(Span::ProtoOther, || {
            self.0.on_neighbor_restarted(node, restarted)
        })
    }

    fn reply(&mut self, node: NodeId, from: NodeId) -> Option<Self::Msg> {
        sampled(Span::ProtoSend, || self.0.reply(node, from)).map(Framed)
    }

    fn reclaim(&mut self, msg: Self::Msg) {
        sampled(Span::ProtoOther, || self.0.reclaim(msg.0))
    }

    fn set_partitions(&mut self, partitions: usize) {
        self.0.set_partitions(partitions)
    }

    fn part_send(&mut self, part: usize, node: NodeId, target: NodeId) -> Self::Msg {
        Framed(sampled(Span::ProtoSend, || {
            self.0.part_send(part, node, target)
        }))
    }

    fn part_receive(&mut self, part: usize, node: NodeId, from: NodeId, msg: &mut Self::Msg) {
        sampled(Span::ProtoRecv, || {
            self.0.part_receive(part, node, from, &mut msg.0)
        })
    }

    fn part_reply(&mut self, part: usize, node: NodeId, from: NodeId) -> Option<Self::Msg> {
        sampled(Span::ProtoSend, || self.0.part_reply(part, node, from)).map(Framed)
    }

    fn part_reclaim(&mut self, part: usize, msg: Self::Msg) {
        sampled(Span::ProtoOther, || self.0.part_reclaim(part, msg.0))
    }
}

impl<P: ReductionProtocol> ReductionProtocol for Timed<P> {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn write_estimate(&self, node: NodeId, out: &mut [f64]) {
        self.0.write_estimate(node, out)
    }
    fn write_mass(&self, node: NodeId, values: &mut [f64]) -> f64 {
        self.0.write_mass(node, values)
    }
    fn write_flow(&self, i: NodeId, j: NodeId, values: &mut [f64]) -> Option<f64> {
        self.0.write_flow(i, j, values)
    }
    fn max_flow(&self) -> Option<f64> {
        self.0.max_flow()
    }
}

impl<P: TenantProtocol> TenantProtocol for Timed<P> {
    fn estimate(&self, node: NodeId) -> f64 {
        self.0.estimate(node)
    }
    fn update_local_value(&mut self, node: NodeId, value: f64) {
        self.0.update_local_value(node, value)
    }
}

/// A transport endpoint whose `send`/`try_recv` calls are timed.
pub struct TimedDelivery<D>(pub D);

impl<M, D: Delivery<M>> Delivery<M> for TimedDelivery<D> {
    type Error = D::Error;

    fn send(&mut self, src: NodeId, dst: NodeId, msg: M) -> Result<(), Self::Error> {
        sampled(Span::TransportSend, || self.0.send(src, dst, msg))
    }

    fn try_recv(&mut self, node: NodeId) -> Result<Option<(NodeId, M)>, Self::Error> {
        let got = sampled(Span::TransportRecv, || self.0.try_recv(node));
        if matches!(got, Ok(Some(_))) {
            count(Span::TransportRecvHit);
        }
        got
    }
}
