//! Property test: the wire decoder is total and canonical on damaged
//! frames.
//!
//! Real frames (`Mass`, `PcfMsg`, `FuMsg` over `f64`, `InlineVec` and
//! `Vec<f64>` payloads, NaN bit patterns included) are damaged the ways a
//! network or a hostile peer damages them: truncated, spliced from two
//! frames, with the version, kind or a body-length byte overwritten, with a
//! payload's `dim` field overwritten, or replaced by garbage. Every result
//! is then decoded as each of the nine message types. Decoding must never
//! panic or abort, and any frame it accepts must re-encode to exactly the
//! bytes it was decoded from.

use gr_reduction::flow_updating::FuMsg;
use gr_reduction::{InlineVec, Mass, Payload, PcfMsg, WireMsg, FRAME_HEADER, INLINE_CAP};
use proptest::prelude::*;
use rand::prelude::*;

/// The fields of one message, independent of its payload type.
#[derive(Clone, Debug)]
struct Source {
    /// 0 = `Mass`, 1 = `PcfMsg`, 2 = `FuMsg`.
    msg: u8,
    /// 0 = `f64`, 1 = `InlineVec`, 2 = `Vec<f64>`.
    pay: u8,
    /// Payload dimension (forced to 1 for `f64`).
    dim: usize,
    /// Raw bits for every f64 on the wire, consumed in field order.
    bits: Vec<u64>,
    c: u8,
    r: u64,
    inc: u64,
}

/// Bit patterns worth over-sampling: NaNs with payloads, infinities,
/// signed zero.
const SPECIAL_BITS: [u64; 4] = [
    0x7ff8_0000_0000_1234,
    0xfff0_0000_0000_0001,
    0x7ff0_0000_0000_0000,
    0x8000_0000_0000_0000,
];

fn source(rng: &mut StdRng) -> Source {
    let msg = rng.random_range(0..3);
    let pay = rng.random_range(0..3);
    let dim = if pay == 0 {
        1
    } else {
        rng.random_range(0..=INLINE_CAP + 8)
    };
    let bits = (0..4 * (INLINE_CAP + 9))
        .map(|_| {
            if rng.random_bool(0.2) {
                SPECIAL_BITS[rng.random_range(0..SPECIAL_BITS.len())]
            } else {
                rng.random()
            }
        })
        .collect();
    Source {
        msg,
        pay,
        dim,
        bits,
        c: rng.random_range(0..=u8::MAX),
        r: rng.random(),
        inc: rng.random(),
    }
}

/// Encode `src` with payload type `P`; returns the frame and the byte
/// offsets of its payload `dim` fields.
fn encode_as<P: Payload>(src: &Source) -> (Vec<u8>, Vec<usize>) {
    let mut bits = src.bits.iter().map(|&b| f64::from_bits(b));
    let mut payload = || -> P {
        let comps: Vec<f64> = (&mut bits).take(src.dim).collect();
        P::from_components(&comps)
    };
    let mut frame = Vec::new();
    let payload_bytes = 4 + 8 * src.dim;
    let offsets = match src.msg {
        0 => {
            let value = payload();
            Mass::new(value, f64::from_bits(src.bits[src.dim])).encode_frame(&mut frame);
            vec![FRAME_HEADER]
        }
        1 => {
            let mut mass = |k: usize| {
                let value = payload();
                Mass::new(value, f64::from_bits(src.bits[4 * src.dim + k]))
            };
            PcfMsg {
                f1: mass(0),
                f2: mass(1),
                folded: mass(2),
                base: mass(3),
                c: src.c,
                r: src.r,
                inc: src.inc,
            }
            .encode_frame(&mut frame);
            (0..4)
                .map(|k| FRAME_HEADER + k * (payload_bytes + 8))
                .collect()
        }
        _ => {
            let flow = payload();
            let estimate = payload();
            FuMsg { flow, estimate }.encode_frame(&mut frame);
            (0..2).map(|k| FRAME_HEADER + k * payload_bytes).collect()
        }
    };
    (frame, offsets)
}

fn encode(src: &Source) -> (Vec<u8>, Vec<usize>) {
    match src.pay {
        0 => encode_as::<f64>(src),
        1 => encode_as::<InlineVec>(src),
        _ => encode_as::<Vec<f64>>(src),
    }
}

/// Decode `bytes` as `M`; an accepted frame must re-encode to `bytes`.
fn check<M: WireMsg>(bytes: &[u8]) -> Result<bool, TestCaseError> {
    let Ok(m) = M::decode_frame(bytes) else {
        return Ok(false);
    };
    let mut again = Vec::new();
    m.encode_frame(&mut again);
    prop_assert_eq!(
        again.as_slice(),
        bytes,
        "accepted frame re-encodes differently"
    );
    Ok(true)
}

/// [`check`] under all nine message/payload types; the number that
/// accepted `bytes`.
fn check_all(bytes: &[u8]) -> Result<usize, TestCaseError> {
    let accepted = [
        check::<Mass<f64>>(bytes)?,
        check::<Mass<InlineVec>>(bytes)?,
        check::<Mass<Vec<f64>>>(bytes)?,
        check::<PcfMsg<f64>>(bytes)?,
        check::<PcfMsg<InlineVec>>(bytes)?,
        check::<PcfMsg<Vec<f64>>>(bytes)?,
        check::<FuMsg<f64>>(bytes)?,
        check::<FuMsg<InlineVec>>(bytes)?,
        check::<FuMsg<Vec<f64>>>(bytes)?,
    ];
    Ok(accepted.iter().filter(|&&a| a).count())
}

#[derive(Clone, Debug)]
enum Mutation {
    /// Keep only the first `n` bytes (`n` taken modulo the length).
    Truncate(usize),
    /// The head of this frame up to `a`, then the tail of a second frame
    /// from `b` (both taken modulo the lengths).
    Splice(Source, usize, usize),
    /// Overwrite header byte `at` (0 = version, 1 = kind, 2..6 = body
    /// length) with `v`.
    Header(usize, u8),
    /// Overwrite payload dim field `which` (modulo their count) with `v`.
    Dim(usize, u32),
    /// Replace the whole frame with arbitrary bytes.
    Garbage(Vec<u8>),
}

fn mutation(rng: &mut StdRng) -> Mutation {
    match rng.random_range(0..5) {
        0 => Mutation::Truncate(rng.random()),
        1 => Mutation::Splice(source(rng), rng.random(), rng.random()),
        2 => Mutation::Header(
            rng.random_range(0..FRAME_HEADER),
            rng.random_range(0..=u8::MAX),
        ),
        3 => {
            let cap = INLINE_CAP as u32;
            let v = match rng.random_range(0..8) {
                0 => 0,
                1 => 1,
                2 => 2,
                3 => cap,
                4 => cap + 1,
                5 => u32::MAX,
                6 => rng.random(),
                _ => rng.random_range(0..64),
            };
            Mutation::Dim(rng.random(), v)
        }
        _ => {
            let len = rng.random_range(0..160);
            Mutation::Garbage((0..len).map(|_| rng.random_range(0..=u8::MAX)).collect())
        }
    }
}

fn apply(frame: &[u8], dims: &[usize], m: &Mutation) -> Vec<u8> {
    let mut out = frame.to_vec();
    match m {
        Mutation::Truncate(n) => out.truncate(n % frame.len()),
        Mutation::Splice(other, a, b) => {
            let (tail, _) = encode(other);
            out.truncate(a % (frame.len() + 1));
            out.extend_from_slice(&tail[b % (tail.len() + 1)..]);
        }
        Mutation::Header(at, v) => out[*at] = *v,
        Mutation::Dim(which, v) => {
            let at = dims[which % dims.len()];
            out[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
        Mutation::Garbage(bytes) => out = bytes.clone(),
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn damaged_frames_never_panic_and_accepts_are_canonical(
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let src = source(&mut rng);
        let m = mutation(&mut rng);
        let (frame, dims) = encode(&src);
        // The undamaged frame decodes (at least as its own type).
        prop_assert!(check_all(&frame)? >= 1);
        let damaged = apply(&frame, &dims, &m);
        check_all(&damaged)?;
    }
}
