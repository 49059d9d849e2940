//! Property test: the wire decoder is total and canonical on damaged
//! frames.
//!
//! Real frames (`Mass`, `PcfMsg`, `FuMsg` over `f64` and `Vec<f64>`
//! payloads, NaN bit patterns included) are damaged the ways a
//! network or a hostile peer damages them: truncated, spliced from two
//! frames, with the version, kind or a body-length byte overwritten, with a
//! payload's `dim` field overwritten, with a varint field (`dim`, PCF's `r`
//! or `inc`) rewritten as an overlong, 11-byte or past-`u64` run, or
//! replaced by garbage. Every result is then decoded as each of the six
//! message types, both fresh and into warm messages (the decodes of the
//! undamaged frame and of a second random frame, whose dimension may
//! differ). Decoding must never panic or abort, every decode must return
//! the same result, and any frame they accept must re-encode to exactly
//! the bytes it was decoded from.

use gr_reduction::flow_updating::FuMsg;
use gr_reduction::{Mass, Payload, PcfMsg, WireMsg, FRAME_HEADER};
use proptest::prelude::*;
use rand::prelude::*;
use std::ops::Range;

/// Largest payload dimension a source frame draws.
const MAX_DIM: usize = 24;

/// The fields of one message, independent of its payload type.
#[derive(Clone, Debug)]
struct Source {
    /// 0 = `Mass`, 1 = `PcfMsg`, 2 = `FuMsg`.
    msg: u8,
    /// 0 = `f64`, 1 = `Vec<f64>`.
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
    let pay = rng.random_range(0..2);
    let dim = if pay == 0 {
        1
    } else {
        rng.random_range(0..=MAX_DIM)
    };
    let bits = (0..4 * (MAX_DIM + 1))
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

/// The LEB128 encoding of `v`.
fn leb128(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// Encode `src` with payload type `P`; returns the frame and the byte
/// ranges of its varint fields, the body's one `dim` first.
fn encode_as<P: Payload>(src: &Source) -> (Vec<u8>, Vec<Range<usize>>) {
    let mut bits = src.bits.iter().map(|&b| f64::from_bits(b));
    let mut payload = || -> P {
        let comps: Vec<f64> = (&mut bits).take(src.dim).collect();
        P::from_components(&comps)
    };
    let mut frame = Vec::new();
    let dim = FRAME_HEADER..FRAME_HEADER + leb128(src.dim as u64).len();
    let fields = match src.msg {
        0 => {
            let value = payload();
            Mass::new(value, f64::from_bits(src.bits[src.dim])).encode_frame(&mut frame);
            vec![dim]
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
            let inc = frame.len() - leb128(src.inc).len()..frame.len();
            let r = inc.start - leb128(src.r).len()..inc.start;
            vec![dim, r, inc]
        }
        _ => {
            let flow = payload();
            let estimate = payload();
            FuMsg { flow, estimate }.encode_frame(&mut frame);
            vec![dim]
        }
    };
    (frame, fields)
}

fn encode(src: &Source) -> (Vec<u8>, Vec<Range<usize>>) {
    match src.pay {
        0 => encode_as::<f64>(src),
        _ => encode_as::<Vec<f64>>(src),
    }
}

/// Decode `bytes` as `M`, fresh and into a warm message decoded from
/// each of `warm` that is an `M` frame: the decodes must agree, and an
/// accepted frame must re-encode to `bytes`.
fn check<M: WireMsg>(bytes: &[u8], warm: &[&[u8]]) -> Result<bool, TestCaseError> {
    let fresh = M::decode_frame(bytes);
    for mut into in warm.iter().filter_map(|w| M::decode_frame(w).ok()) {
        let res = into.decode_frame_into(bytes);
        prop_assert_eq!(res.err(), fresh.as_ref().err().copied());
        if res.is_ok() {
            let mut again = Vec::new();
            into.encode_frame(&mut again);
            prop_assert_eq!(
                again.as_slice(),
                bytes,
                "warm decode re-encodes differently"
            );
        }
    }
    let Ok(m) = fresh else {
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

/// [`check`] under all six message/payload types; the number that
/// accepted `bytes`.
fn check_all(bytes: &[u8], warm: &[&[u8]]) -> Result<usize, TestCaseError> {
    let accepted = [
        check::<Mass<f64>>(bytes, warm)?,
        check::<Mass<Vec<f64>>>(bytes, warm)?,
        check::<PcfMsg<f64>>(bytes, warm)?,
        check::<PcfMsg<Vec<f64>>>(bytes, warm)?,
        check::<FuMsg<f64>>(bytes, warm)?,
        check::<FuMsg<Vec<f64>>>(bytes, warm)?,
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
    /// Rewrite the body's payload dim field as `v`.
    Dim(u32),
    /// Replace varint field `which` (modulo their count) with these bytes.
    Varint(usize, Vec<u8>),
    /// Replace the whole frame with arbitrary bytes.
    Garbage(Vec<u8>),
}

/// A damaged varint: an overlong form of a small value, an 11-byte
/// run, a ten-byte run past `u64`, or the largest legal value.
fn varint_damage(rng: &mut StdRng) -> Vec<u8> {
    match rng.random_range(0..4) {
        0 => {
            let mut v = vec![rng.random_range(0x80..=u8::MAX); rng.random_range(1..10)];
            v.push(0x00);
            v
        }
        1 => {
            let mut v: Vec<u8> = (0..10).map(|_| rng.random_range(0x80..=u8::MAX)).collect();
            v.push(rng.random_range(0..0x80));
            v
        }
        2 => {
            let mut v = vec![0xff; 9];
            v.push(rng.random_range(0x02..0x80));
            v
        }
        _ => {
            let mut v = vec![0xff; 9];
            v.push(0x01);
            v
        }
    }
}

fn mutation(rng: &mut StdRng) -> Mutation {
    match rng.random_range(0..6) {
        0 => Mutation::Truncate(rng.random()),
        1 => Mutation::Splice(source(rng), rng.random(), rng.random()),
        2 => Mutation::Header(
            rng.random_range(0..FRAME_HEADER),
            rng.random_range(0..=u8::MAX),
        ),
        3 => {
            let max = MAX_DIM as u32;
            let v = match rng.random_range(0..8) {
                0 => 0,
                1 => 1,
                2 => 2,
                3 => max,
                4 => max + 1,
                5 => u32::MAX,
                6 => rng.random(),
                _ => rng.random_range(0..64),
            };
            Mutation::Dim(v)
        }
        4 => Mutation::Varint(rng.random(), varint_damage(rng)),
        _ => {
            let len = rng.random_range(0..160);
            Mutation::Garbage((0..len).map(|_| rng.random_range(0..=u8::MAX)).collect())
        }
    }
}

/// `frame` with the bytes in `at` replaced by `with`, the header's body
/// length patched so the decoder reads on into the damage.
fn rewrite(frame: &[u8], at: &Range<usize>, with: &[u8]) -> Vec<u8> {
    let mut out = frame.to_vec();
    out.splice(at.clone(), with.iter().copied());
    let body = (out.len() - FRAME_HEADER) as u32;
    out[2..FRAME_HEADER].copy_from_slice(&body.to_le_bytes());
    out
}

fn apply(frame: &[u8], fields: &[Range<usize>], m: &Mutation) -> Vec<u8> {
    let mut out = frame.to_vec();
    match m {
        Mutation::Truncate(n) => out.truncate(n % frame.len()),
        Mutation::Splice(other, a, b) => {
            let (tail, _) = encode(other);
            out.truncate(a % (frame.len() + 1));
            out.extend_from_slice(&tail[b % (tail.len() + 1)..]);
        }
        Mutation::Header(at, v) => out[*at] = *v,
        Mutation::Dim(v) => out = rewrite(frame, &fields[0], &leb128(u64::from(*v))),
        Mutation::Varint(which, bytes) => {
            out = rewrite(frame, &fields[which % fields.len()], bytes);
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
        let (frame, fields) = encode(&src);
        // The undamaged frame decodes (at least as its own type).
        let (other, _) = encode(&source(&mut rng));
        prop_assert!(check_all(&frame, &[&frame, &other])? >= 1);
        let damaged = apply(&frame, &fields, &m);
        check_all(&damaged, &[&frame, &other])?;
    }
}
