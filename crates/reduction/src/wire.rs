//! Binary wire format for the protocol messages.
//!
//! The real transports in `gr-transport` move *bytes*, not Rust values;
//! this module fixes the mapping. The format is bincode-style — fixed
//! little-endian `f64`s, LEB128 varints for the dimension and counters,
//! no self-description — so encoding is a `memcpy`-shaped walk over the
//! message fields and a frame is byte-identical for identical field bits
//! (which is what makes the pinned wire goldens and the twin-equivalence
//! harness possible).
//!
//! ## Frame layout
//!
//! ```text
//! [version: u8] [kind: u8] [body_len: u32 LE] [body: body_len bytes]
//! ```
//!
//! * `version` is [`WIRE_VERSION`]; a decoder rejects any other value
//!   with [`WireError::Version`] — the guard that lets the schema evolve
//!   without old peers misparsing new frames.
//! * `kind` identifies the message type ([`WireMsg::KIND`]); it fences a
//!   PCF endpoint from, say, a flow-updating frame arriving on the same
//!   port.
//! * `body_len` must account for exactly the remaining bytes: datagram
//!   transports deliver one frame per packet and any disagreement means
//!   truncation or garbage.
//!
//! ## Bodies
//!
//! Every payload in a message has the same dimension `d`, so a body
//! states it once, as its first field; `[w]` is a mass's `f64` weight
//! and `[payload]` is `d × f64 LE`:
//!
//! ```text
//! Mass   (kind 1): [d] [payload][w]
//! PcfMsg (kind 2): [d] [f1 payload][w] [f2 payload][w] [folded payload][w]
//!                      [base payload][w] [c: u8] [r] [inc]
//! FuMsg  (kind 3): [d] [flow payload] [estimate payload]
//! ```
//!
//! `d`, `r` and `inc` are unsigned LEB128 varints: seven bits per byte,
//! least significant group first, high bit set on every byte but the
//! last. A frame's size therefore depends on `d` and, for PCF, on the
//! magnitude of `r` and `inc` — never on the `f64` values. A scalar PCF
//! frame with `r, inc < 128` is 74 bytes; at dimension `d < 128` it is
//! `42 + 32d`. Decoding accepts only the shortest encoding of each
//! varint, at most 10 bytes and within the field's range (`u64` for the
//! counters, `u32` for `d`), so every frame a decoder accepts re-encodes
//! to exactly its own bytes.
//!
//! Scalar (`f64`) payloads use `d == 1`, so a scalar run and a dim-1
//! vector run produce identical frames.

use crate::flow_updating::FuMsg;
use crate::payload::{Mass, Payload};
use crate::push_cancel_flow::PcfMsg;

/// Current wire-format version, the first byte of every frame.
pub const WIRE_VERSION: u8 = 2;

/// Bytes of frame header before the body (`version + kind + body_len`).
pub const FRAME_HEADER: usize = 6;

/// Longest LEB128 encoding of a `u64`: ⌈64 / 7⌉ bytes.
const MAX_VARINT: usize = 10;

/// A frame that could not be decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The version byte does not match [`WIRE_VERSION`] — the peer runs
    /// an incompatible build.
    Version {
        /// Version byte found on the wire.
        got: u8,
    },
    /// The kind byte does not match the expected message type.
    Kind {
        /// Kind byte found on the wire.
        got: u8,
        /// Kind this decoder accepts.
        want: u8,
    },
    /// The frame ended before the declared structure was complete.
    Truncated {
        /// Bytes the decoder needed next.
        need: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The declared body length disagrees with the bytes on the wire.
    Length {
        /// Body length declared in the header.
        declared: usize,
        /// Body bytes actually present.
        actual: usize,
    },
    /// The body decoded cleanly but left unread bytes behind.
    Trailing {
        /// Bytes left over after the body structure ended.
        extra: usize,
    },
    /// A payload declares a dimension its type cannot hold (a scalar
    /// payload has exactly one component).
    Dim {
        /// Dimension declared on the wire.
        got: usize,
    },
    /// A varint is not the shortest encoding of a value in its field's
    /// range: overlong (a redundant zero group), longer than 10 bytes,
    /// past `u64`, or a dimension past `u32`.
    Varint {
        /// Body offset of the varint's first byte.
        at: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Version { got } => {
                write!(f, "wire version {got} not supported (want {WIRE_VERSION})")
            }
            WireError::Kind { got, want } => {
                write!(f, "message kind {got} where kind {want} was expected")
            }
            WireError::Truncated { need, have } => {
                write!(f, "frame truncated: needed {need} more bytes, had {have}")
            }
            WireError::Length { declared, actual } => {
                write!(
                    f,
                    "body length mismatch: header says {declared}, got {actual}"
                )
            }
            WireError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after message body")
            }
            WireError::Dim { got } => {
                write!(f, "payload dimension {got} does not fit the payload type")
            }
            WireError::Varint { at } => {
                write!(
                    f,
                    "non-canonical or out-of-range varint at body offset {at}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Cursor over a frame body.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let have = self.bytes.len() - self.pos;
        if have < n {
            return Err(WireError::Truncated { need: n, have });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Next `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Next little-endian `f64` (bit-exact, NaN payloads included).
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Next unsigned LEB128 varint. Only the shortest encoding of a
    /// `u64` is accepted; anything else is [`WireError::Varint`].
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let at = self.pos;
        let mut v = 0u64;
        for shift in (0..7 * MAX_VARINT as u32).step_by(7) {
            let b = self.u8()?;
            // The tenth byte carries bit 63 only, and ends the varint.
            if shift == 63 && b > 1 {
                return Err(WireError::Varint { at });
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                // A zero final group after the first byte is overlong.
                if b == 0 && shift > 0 {
                    return Err(WireError::Varint { at });
                }
                return Ok(v);
            }
        }
        unreachable!("the tenth byte either ends the varint or is rejected")
    }

    /// Next payload dimension: a varint no larger than `u32::MAX`.
    fn dim(&mut self) -> Result<usize, WireError> {
        let at = self.pos;
        let d = self.varint()?;
        u32::try_from(d)
            .map(|d| d as usize)
            .map_err(|_| WireError::Varint { at })
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

#[inline]
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Append `v` as an unsigned LEB128 varint (1 to [`MAX_VARINT`] bytes).
#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Append the one dimension a body declares for all of its payloads.
///
/// # Panics
/// If the payloads disagree on their dimension — a message whose fields
/// have different shapes is a programming error, and the wire cannot
/// express it.
fn put_dim<P: Payload>(out: &mut Vec<u8>, kind: &str, payloads: &[&P]) {
    let d = payloads[0].dim();
    assert!(
        payloads.iter().all(|p| p.dim() == d),
        "{kind} payloads disagree on dimension: {:?}",
        payloads.iter().map(|p| p.dim()).collect::<Vec<_>>()
    );
    put_varint(out, d as u64);
}

#[inline]
fn put_payload<P: Payload>(out: &mut Vec<u8>, p: &P) {
    for &c in p.components() {
        put_f64(out, c);
    }
}

/// Decode one `dim`-component payload straight from the frame bytes: no
/// scratch buffer, so a scalar or inline payload decodes without
/// touching the allocator (a `Vec<f64>` payload allocates only its own
/// storage). The components are taken from the bytes present before the
/// payload is built, so a hostile `dim` is a typed error, never a huge
/// allocation.
fn get_payload<P: Payload>(r: &mut Reader<'_>, dim: usize) -> Result<P, WireError> {
    let bytes = r.take(dim.saturating_mul(8))?;
    if !P::admits_dim(dim) {
        return Err(WireError::Dim { got: dim });
    }
    let mut p = P::zeros(dim);
    for (c, b) in p.components_mut().iter_mut().zip(bytes.chunks_exact(8)) {
        *c = f64::from_bits(u64::from_le_bytes(b.try_into().unwrap()));
    }
    Ok(p)
}

fn put_mass<P: Payload>(out: &mut Vec<u8>, m: &Mass<P>) {
    put_payload(out, &m.value);
    put_f64(out, m.weight);
}

fn get_mass<P: Payload>(r: &mut Reader<'_>, dim: usize) -> Result<Mass<P>, WireError> {
    let value = get_payload(r, dim)?;
    let weight = r.f64()?;
    Ok(Mass { value, weight })
}

/// A message type with a fixed binary wire representation.
///
/// Implementors provide the body codec; the framing (version byte, kind
/// byte, length prefix, trailing-byte check) is shared through the
/// provided [`encode_frame`](WireMsg::encode_frame) /
/// [`decode_frame`](WireMsg::decode_frame) pair, so every backend frames
/// identically and version/kind policing cannot be forgotten.
pub trait WireMsg: Sized {
    /// Frame kind byte — distinct per message type.
    const KIND: u8;

    /// Append the body (no header) to `out`.
    fn encode_body(&self, out: &mut Vec<u8>);

    /// Decode a body produced by [`encode_body`](WireMsg::encode_body).
    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Append a complete frame (header + body) to `out`.
    fn encode_frame(&self, out: &mut Vec<u8>) {
        out.push(WIRE_VERSION);
        out.push(Self::KIND);
        let len_at = out.len();
        put_u32(out, 0); // patched below
        let body_start = out.len();
        self.encode_body(out);
        let body_len = (out.len() - body_start) as u32;
        out[len_at..len_at + 4].copy_from_slice(&body_len.to_le_bytes());
    }

    /// Decode one complete frame (as produced by
    /// [`encode_frame`](WireMsg::encode_frame) — exactly one frame per
    /// slice, the datagram discipline).
    fn decode_frame(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() < FRAME_HEADER {
            return Err(WireError::Truncated {
                need: FRAME_HEADER,
                have: bytes.len(),
            });
        }
        let version = bytes[0];
        if version != WIRE_VERSION {
            return Err(WireError::Version { got: version });
        }
        let kind = bytes[1];
        if kind != Self::KIND {
            return Err(WireError::Kind {
                got: kind,
                want: Self::KIND,
            });
        }
        let declared = u32::from_le_bytes(bytes[2..6].try_into().unwrap()) as usize;
        let body = &bytes[FRAME_HEADER..];
        if declared != body.len() {
            return Err(WireError::Length {
                declared,
                actual: body.len(),
            });
        }
        let mut r = Reader::new(body);
        let msg = Self::decode_body(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::Trailing {
                extra: r.remaining(),
            });
        }
        Ok(msg)
    }
}

/// Push-sum / push-flow wire message: one mass.
impl<P: Payload> WireMsg for Mass<P> {
    const KIND: u8 = 1;

    fn encode_body(&self, out: &mut Vec<u8>) {
        put_varint(out, self.value.dim() as u64);
        put_mass(out, self);
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let dim = r.dim()?;
        get_mass(r, dim)
    }
}

/// PCF wire message: both flow slots, control variables, fold ledger.
impl<P: Payload> WireMsg for PcfMsg<P> {
    const KIND: u8 = 2;

    fn encode_body(&self, out: &mut Vec<u8>) {
        let masses = [&self.f1, &self.f2, &self.folded, &self.base];
        put_dim(out, "PcfMsg", &masses.map(|m| &m.value));
        for m in masses {
            put_mass(out, m);
        }
        out.push(self.c);
        put_varint(out, self.r);
        put_varint(out, self.inc);
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let dim = r.dim()?;
        let f1 = get_mass(r, dim)?;
        let f2 = get_mass(r, dim)?;
        let folded = get_mass(r, dim)?;
        let base = get_mass(r, dim)?;
        let c = r.u8()?;
        let rr = r.varint()?;
        let inc = r.varint()?;
        Ok(PcfMsg {
            f1,
            f2,
            c,
            r: rr,
            folded,
            base,
            inc,
        })
    }
}

/// Flow-updating wire message: absolute flow plus the sender's estimate.
impl<P: Payload> WireMsg for FuMsg<P> {
    const KIND: u8 = 3;

    fn encode_body(&self, out: &mut Vec<u8>) {
        put_dim(out, "FuMsg", &[&self.flow, &self.estimate]);
        put_payload(out, &self.flow);
        put_payload(out, &self.estimate);
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let dim = r.dim()?;
        let flow = get_payload(r, dim)?;
        let estimate = get_payload(r, dim)?;
        Ok(FuMsg { flow, estimate })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::InlineVec;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn frame<M: WireMsg>(m: &M) -> Vec<u8> {
        let mut out = Vec::new();
        m.encode_frame(&mut out);
        out
    }

    fn pcf_scalar() -> PcfMsg<f64> {
        PcfMsg {
            f1: Mass::new(1.5, 0.25),
            f2: Mass::new(-2.0, 0.5),
            c: 2,
            r: 7,
            folded: Mass::new(0.0, 0.0),
            base: Mass::new(3.0, 1.0),
            inc: 1,
        }
    }

    /// The pinned golden: this exact PCF message must produce these exact
    /// framing bytes, forever (or with a [`WIRE_VERSION`] bump). The twin
    /// harness and every backend stand on this byte-level determinism.
    #[test]
    fn pcf_scalar_frame_golden() {
        let bytes = frame(&pcf_scalar());
        let expected = concat!(
            "0202",             // version 2, kind 2 (PCF)
            "44000000",         // body length 68
            "01",               // dim 1
            "000000000000f83f", // f1 value 1.5
            "000000000000d03f", // f1 weight 0.25
            "00000000000000c0", // f2 value -2.0
            "000000000000e03f", // f2 weight 0.5
            "0000000000000000", // folded value 0.0
            "0000000000000000", // folded weight 0.0
            "0000000000000840", // base value 3.0
            "000000000000f03f", // base weight 1.0
            "02",               // c
            "07",               // r 7
            "01",               // inc 1
        );
        assert_eq!(hex(&bytes), expected);
        assert_eq!(bytes.len(), 74);
    }

    #[test]
    fn mass_scalar_frame_golden() {
        let bytes = frame(&Mass::new(4.25, 1.0));
        let expected = concat!(
            "0201",             // version 2, kind 1 (Mass)
            "11000000",         // body length 17
            "01",               // dim 1
            "0000000000001140", // value 4.25
            "000000000000f03f", // weight 1.0
        );
        assert_eq!(hex(&bytes), expected);
        assert_eq!(bytes.len(), 23);
    }

    /// A dim-3 PCF frame: one dim for all four masses, `-0.0` kept, and
    /// a two-byte `r` varint.
    #[test]
    fn pcf_dim3_frame_golden() {
        let m = PcfMsg {
            f1: Mass::new(vec![1.0, -0.5, 2.0], 0.5),
            f2: Mass::new(vec![-0.0, 0.25, 3.0], 1.0),
            c: 1,
            r: 300,
            folded: Mass::new(vec![0.0; 3], 0.0),
            base: Mass::new(vec![4.0, -2.0, 1.5], 0.25),
            inc: 1,
        };
        let bytes = frame(&m);
        let expected = concat!(
            "0202",             // version 2, kind 2 (PCF)
            "85000000",         // body length 133
            "03",               // dim 3
            "000000000000f03f", // f1 value[0] 1.0
            "000000000000e0bf", // f1 value[1] -0.5
            "0000000000000040", // f1 value[2] 2.0
            "000000000000e03f", // f1 weight 0.5
            "0000000000000080", // f2 value[0] -0.0
            "000000000000d03f", // f2 value[1] 0.25
            "0000000000000840", // f2 value[2] 3.0
            "000000000000f03f", // f2 weight 1.0
            "0000000000000000", // folded value[0] 0.0
            "0000000000000000", // folded value[1] 0.0
            "0000000000000000", // folded value[2] 0.0
            "0000000000000000", // folded weight 0.0
            "0000000000001040", // base value[0] 4.0
            "00000000000000c0", // base value[1] -2.0
            "000000000000f83f", // base value[2] 1.5
            "000000000000d03f", // base weight 0.25
            "01",               // c
            "ac02",             // r 300 = 0x2c | 2 << 7
            "01",               // inc 1
        );
        assert_eq!(hex(&bytes), expected);
        assert_eq!(bytes.len(), 42 + 32 * 3 + 1);
        let back = PcfMsg::<Vec<f64>>::decode_frame(&bytes).unwrap();
        assert_eq!(back.f2.value[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(back, m);
    }

    /// The version-1 golden (a `u32` dim per mass, fixed `u64` counters)
    /// is refused by its version byte, before any field is read.
    #[test]
    fn v1_frame_is_a_version_error() {
        let v1 = concat!(
            "0102",
            "61000000",
            "01000000",
            "000000000000f83f",
            "000000000000d03f",
            "01000000",
            "00000000000000c0",
            "000000000000e03f",
            "01000000",
            "0000000000000000",
            "0000000000000000",
            "01000000",
            "0000000000000840",
            "000000000000f03f",
            "02",
            "0700000000000000",
            "0100000000000000",
        );
        let bytes: Vec<u8> = (0..v1.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&v1[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(bytes.len(), 103);
        assert_eq!(
            PcfMsg::<f64>::decode_frame(&bytes),
            Err(WireError::Version { got: 1 })
        );
    }

    #[test]
    #[should_panic(expected = "PcfMsg payloads disagree on dimension: [2, 1, 1, 1]")]
    fn pcf_with_mismatched_dims_is_not_encodable() {
        let m = PcfMsg {
            f1: Mass::new(vec![1.0, 2.0], 1.0),
            f2: Mass::new(vec![1.0], 1.0),
            c: 1,
            r: 0,
            folded: Mass::new(vec![0.0], 0.0),
            base: Mass::new(vec![0.0], 0.0),
            inc: 0,
        };
        frame(&m);
    }

    /// Decode `bytes` as one varint-only body.
    fn read_varint(bytes: &[u8]) -> Result<u64, WireError> {
        Reader::new(bytes).varint()
    }

    #[test]
    fn varints_roundtrip_at_every_length() {
        for v in [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            1 << 63,
            u64::MAX,
        ] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let len = (64 - v.leading_zeros()).max(1).div_ceil(7) as usize;
            assert_eq!(out.len(), len, "{v}");
            let mut r = Reader::new(&out);
            assert_eq!(r.varint(), Ok(v));
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn non_canonical_varints_rejected() {
        let bad = WireError::Varint { at: 0 };
        // Overlong: a redundant zero group.
        assert_eq!(read_varint(&[0x80, 0x00]), Err(bad));
        assert_eq!(read_varint(&[0x81, 0x80, 0x00]), Err(bad));
        // Eleven bytes: the tenth still has its continuation bit.
        let mut run = vec![0x80; 10];
        run.push(0x00);
        assert_eq!(read_varint(&run), Err(bad));
        // Ten bytes whose last carries more than bit 63.
        let mut past = vec![0xff; 9];
        past.push(0x02);
        assert_eq!(read_varint(&past), Err(bad));
        past[9] = 0x01;
        assert_eq!(read_varint(&past), Ok(u64::MAX));
        // Runs off the end of the body.
        assert_eq!(
            read_varint(&[0x80]),
            Err(WireError::Truncated { need: 1, have: 0 })
        );
        assert!(bad.to_string().contains("offset 0"));
    }

    #[test]
    fn pcf_roundtrips_all_payload_types() {
        let m = pcf_scalar();
        assert_eq!(PcfMsg::<f64>::decode_frame(&frame(&m)).unwrap(), m);

        // Vector payloads, both sides of the inline cap.
        for dim in [3usize, 24] {
            let v = |k: f64| -> Vec<f64> { (0..dim).map(|i| k * i as f64 - 0.5).collect() };
            let m = PcfMsg {
                f1: Mass::new(InlineVec::from_components(&v(1.0)), 0.1),
                f2: Mass::new(InlineVec::from_components(&v(-2.0)), 0.2),
                c: 1,
                r: 9,
                folded: Mass::new(InlineVec::zeros(dim), 0.0),
                base: Mass::new(InlineVec::from_components(&v(0.25)), -0.75),
                inc: 3,
            };
            let bytes = frame(&m);
            assert_eq!(PcfMsg::<InlineVec>::decode_frame(&bytes).unwrap(), m);
            // An `InlineVec` frame is byte-identical to the `Vec<f64>`
            // frame of the same components (the wire does not know about
            // inline storage).
            let mv = PcfMsg {
                f1: Mass::new(v(1.0), 0.1),
                f2: Mass::new(v(-2.0), 0.2),
                c: 1,
                r: 9,
                folded: Mass::new(vec![0.0; dim], 0.0),
                base: Mass::new(v(0.25), -0.75),
                inc: 3,
            };
            assert_eq!(frame(&mv), bytes);
        }
    }

    #[test]
    fn mass_and_fu_roundtrip() {
        let m: Mass<f64> = Mass::new(4.25, 1.0);
        assert_eq!(Mass::<f64>::decode_frame(&frame(&m)).unwrap(), m);
        let fu: FuMsg<Vec<f64>> = FuMsg {
            flow: vec![1.0, -2.0, 3.5],
            estimate: vec![0.5, 0.5, 0.5],
        };
        assert_eq!(FuMsg::<Vec<f64>>::decode_frame(&frame(&fu)).unwrap(), fu);
    }

    #[test]
    fn nan_bits_survive_the_wire() {
        // Corrupted in-flight payloads must decode to the same bits — the
        // fault pipeline's bit flips are part of the modelled behaviour.
        let quiet = f64::from_bits(0x7ff8_0000_0000_1234);
        let m: Mass<f64> = Mass::new(quiet, f64::NEG_INFINITY);
        let back = Mass::<f64>::decode_frame(&frame(&m)).unwrap();
        assert_eq!(back.value.to_bits(), quiet.to_bits());
        assert_eq!(back.weight, f64::NEG_INFINITY);
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut bytes = frame(&pcf_scalar());
        bytes[0] = WIRE_VERSION + 1;
        assert_eq!(
            PcfMsg::<f64>::decode_frame(&bytes),
            Err(WireError::Version {
                got: WIRE_VERSION + 1
            })
        );
        let e = WireError::Version { got: 9 };
        assert!(e.to_string().contains("version 9"));
    }

    #[test]
    fn kind_mismatch_rejected() {
        let bytes = frame(&pcf_scalar());
        assert_eq!(
            Mass::<f64>::decode_frame(&bytes),
            Err(WireError::Kind { got: 2, want: 1 })
        );
    }

    #[test]
    fn truncation_and_length_mismatch_rejected() {
        let bytes = frame(&pcf_scalar());
        // Chopped mid-body: header disagrees with the bytes present.
        assert!(matches!(
            PcfMsg::<f64>::decode_frame(&bytes[..bytes.len() - 3]),
            Err(WireError::Length { .. })
        ));
        // Chopped mid-header.
        assert!(matches!(
            PcfMsg::<f64>::decode_frame(&bytes[..4]),
            Err(WireError::Truncated { .. })
        ));
        // Declared length too small: body decode runs out of bytes.
        let mut short = bytes.clone();
        short[2..6].copy_from_slice(&10u32.to_le_bytes());
        short.truncate(FRAME_HEADER + 10);
        assert!(matches!(
            PcfMsg::<f64>::decode_frame(&short),
            Err(WireError::Truncated { .. })
        ));
        // Trailing garbage behind a self-consistent header+body.
        let mut long = bytes.clone();
        long.push(0xAB);
        let declared = (long.len() - FRAME_HEADER) as u32;
        long[2..6].copy_from_slice(&declared.to_le_bytes());
        assert_eq!(
            PcfMsg::<f64>::decode_frame(&long),
            Err(WireError::Trailing { extra: 1 })
        );
    }

    /// An 11-byte PCF frame whose dim varint declares `u32::MAX`
    /// components with none present: a typed error, not an attempt to
    /// allocate 32 GiB for the components. One more bit is past the
    /// dim's `u32` range.
    #[test]
    fn hostile_dim_is_truncation_not_allocation() {
        let mut bytes = vec![WIRE_VERSION, 2, 5, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f];
        let want = WireError::Truncated {
            need: u32::MAX as usize * 8,
            have: 0,
        };
        assert_eq!(PcfMsg::<f64>::decode_frame(&bytes).unwrap_err(), want);
        assert_eq!(PcfMsg::<InlineVec>::decode_frame(&bytes).unwrap_err(), want);
        assert_eq!(PcfMsg::<Vec<f64>>::decode_frame(&bytes).unwrap_err(), want);
        bytes[6..].copy_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x10]);
        let want = WireError::Varint { at: 0 };
        assert_eq!(PcfMsg::<Vec<f64>>::decode_frame(&bytes).unwrap_err(), want);
    }

    #[test]
    fn scalar_payload_rejects_other_dims() {
        // A dim-2 mass frame is well formed for vector payloads but not
        // for a scalar one.
        let bytes = frame(&Mass::new(vec![1.0, 2.0], 1.0));
        assert_eq!(
            Mass::<f64>::decode_frame(&bytes),
            Err(WireError::Dim { got: 2 })
        );
        assert_eq!(
            Mass::<InlineVec>::decode_frame(&bytes).unwrap(),
            Mass::new(InlineVec::from_components(&[1.0, 2.0]), 1.0)
        );
        assert!(WireError::Dim { got: 2 }
            .to_string()
            .contains("dimension 2"));
    }
}
