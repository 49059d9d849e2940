//! Data payloads flowing through the reduction protocols.
//!
//! The push-sum family aggregates a pair `(value, weight)`: the estimate at
//! a node is `value/weight`. The *value* may be a scalar or a short vector
//! (vector payloads let `gr-dmgs` batch all the dot products of one
//! orthogonalization step into a single reduction); the *weight* is always
//! a scalar. [`Mass`] bundles the two — it is simultaneously the unit of
//! initial data, the flow-variable type of PF/PCF, and the wire payload.

use crate::kernels;
use gr_netsim::Corrupt;
use std::fmt;

/// The value component of a mass: scalar `f64` or a fixed-dimension vector.
///
/// An implementation provides only storage: [`Payload::zeros`],
/// [`Payload::from_components`] and the two component views. Every
/// arithmetic method is provided here, once, over those views and the
/// dispatching [`kernels`], so `f64` and `Vec<f64>` run exactly the
/// same componentwise loops (a scalar is a one-component slice, below
/// the kernels' vector width). Like the
/// kernels, the one-line wrappers are `#[inline(always)]`, so a scalar
/// operation stays a single instruction in the protocols' hot loops.
///
/// [`Default`] is the payload with the fewest components its type holds
/// (no components for `Vec<f64>`, the scalar zero): the placeholder a
/// wire decoder overwrites, so it allocates nothing.
///
/// All arithmetic is plain IEEE-754 — deliberately so: the numerical
/// weaknesses of push-flow that the paper analyses *are* plain-f64
/// artefacts, and compensated tricks here would mask the phenomenon under
/// study.
pub trait Payload: Clone + Default + PartialEq + fmt::Debug + Corrupt + Send + 'static {
    /// A zero value of dimension `dim`.
    fn zeros(dim: usize) -> Self;

    /// Read-only view of the scalar components.
    fn components(&self) -> &[f64];

    /// Mutable view of the scalar components.
    ///
    /// The slice aliases the payload's storage, so componentwise kernels
    /// (the structure-of-arrays flow banks) can update a payload in place
    /// without routing every operation through a `Self`-typed temporary.
    fn components_mut(&mut self) -> &mut [f64];

    /// Build a payload from scalar components.
    ///
    /// # Panics
    /// Implementations panic if the slice length does not fit the type
    /// (scalar payloads require exactly one component).
    fn from_components(comps: &[f64]) -> Self;

    /// Whether a payload of this type can have `dim` components: `true`
    /// for vector payloads, `dim == 1` for a scalar. Decoders check it
    /// before building a payload from untrusted bytes, where
    /// [`Payload::zeros`] / [`Payload::from_components`] would panic.
    fn admits_dim(_dim: usize) -> bool {
        true
    }

    /// Number of scalar components.
    #[inline(always)]
    fn dim(&self) -> usize {
        self.components().len()
    }

    /// `self += rhs` componentwise.
    #[inline(always)]
    fn add_assign(&mut self, rhs: &Self) {
        kernels::add(self.components_mut(), rhs.components());
    }

    /// `self -= rhs` componentwise.
    #[inline(always)]
    fn sub_assign(&mut self, rhs: &Self) {
        kernels::sub(self.components_mut(), rhs.components());
    }

    /// `self = -self` (a sign-bit flip per component, exact for every bit
    /// pattern including NaN).
    #[inline(always)]
    fn negate(&mut self) {
        kernels::neg(self.components_mut());
    }

    /// `self *= s`.
    #[inline(always)]
    fn scale(&mut self, s: f64) {
        kernels::scale(self.components_mut(), s);
    }

    /// Set every component to exactly `+0.0` (keeping the allocation of
    /// vector payloads). Unlike `scale(0.0)` this also clears non-finite
    /// components, so it is the right primitive for zeroing a possibly
    /// corrupted flow.
    #[inline(always)]
    fn set_zero(&mut self) {
        self.components_mut().fill(0.0);
    }

    /// IEEE semantic equality of every component (`0.0 == -0.0`, NaN never
    /// equal). This is the conservation test `f_{j,i} = −f_{i,j}` of the
    /// PCF pseudocode: it holds exactly when the last exchange on the edge
    /// completed, because receivers produce their flow by negating the
    /// sender's bits.
    #[inline(always)]
    fn eq_components(&self, rhs: &Self) -> bool {
        let (a, b) = (self.components(), rhs.components());
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
    }

    /// `true` iff `self == -rhs` componentwise (without allocating).
    #[inline(always)]
    fn is_neg_of(&self, rhs: &Self) -> bool {
        kernels::is_neg(self.components(), rhs.components())
    }

    /// Overwrite `self` with `comps`, reusing the existing storage
    /// whenever the dimension already matches (it always does on the
    /// steady-state paths — payload dimensions are fixed per run). This is
    /// the no-alloc counterpart of [`Payload::from_components`] used when
    /// refilling recycled wire buffers.
    #[inline(always)]
    fn copy_from_components(&mut self, comps: &[f64]) {
        if self.dim() == comps.len() {
            self.components_mut().copy_from_slice(comps);
        } else {
            *self = Self::from_components(comps);
        }
    }
}

impl Payload for f64 {
    #[inline]
    fn zeros(dim: usize) -> Self {
        assert_eq!(dim, 1, "scalar payload has dimension 1, asked for {dim}");
        0.0
    }
    #[inline]
    fn components(&self) -> &[f64] {
        std::slice::from_ref(self)
    }
    #[inline]
    fn components_mut(&mut self) -> &mut [f64] {
        std::slice::from_mut(self)
    }
    #[inline]
    fn from_components(comps: &[f64]) -> Self {
        assert_eq!(comps.len(), 1, "scalar payload has one component");
        comps[0]
    }
    #[inline]
    fn admits_dim(dim: usize) -> bool {
        dim == 1
    }
}

impl Payload for Vec<f64> {
    fn zeros(dim: usize) -> Self {
        vec![0.0; dim]
    }
    #[inline]
    fn components(&self) -> &[f64] {
        self
    }
    #[inline]
    fn components_mut(&mut self) -> &mut [f64] {
        self
    }
    fn from_components(comps: &[f64]) -> Self {
        comps.to_vec()
    }
}

/// The former small-vector payload, now plain `Vec<f64>`, which runs the
/// same kernels faster, ships smaller messages and decodes in place
/// ([`WireMsg::decode_frame_into`](crate::WireMsg::decode_frame_into)).
/// Kept only because `perfbench` still names it.
#[deprecated(note = "use `Vec<f64>`")]
pub type InlineVec = Vec<f64>;

/// A `(value, weight)` pair — the paper's `(x_i, w_i)` tuples.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Mass<P> {
    /// Aggregated data.
    pub value: P,
    /// Aggregation weight.
    pub weight: f64,
}

impl<P: Payload> Mass<P> {
    /// A new mass.
    pub fn new(value: P, weight: f64) -> Self {
        Mass { value, weight }
    }

    /// The zero mass of dimension `dim`.
    pub fn zero(dim: usize) -> Self {
        Mass {
            value: P::zeros(dim),
            weight: 0.0,
        }
    }

    /// Dimension of the value component.
    pub fn dim(&self) -> usize {
        self.value.dim()
    }

    /// `self += rhs`.
    #[inline]
    pub fn add_assign(&mut self, rhs: &Self) {
        self.value.add_assign(&rhs.value);
        self.weight += rhs.weight;
    }

    /// `self -= rhs`.
    #[inline]
    pub fn sub_assign(&mut self, rhs: &Self) {
        self.value.sub_assign(&rhs.value);
        self.weight -= rhs.weight;
    }

    /// `self = -self`.
    #[inline]
    pub fn negate(&mut self) {
        self.value.negate();
        self.weight = -self.weight;
    }

    /// A negated copy.
    #[inline]
    pub fn negated(&self) -> Self {
        let mut m = self.clone();
        m.negate();
        m
    }

    /// `self *= s` (value and weight).
    #[inline]
    pub fn scale(&mut self, s: f64) {
        self.value.scale(s);
        self.weight *= s;
    }

    /// Set to zero in place (keeps the allocation of vector payloads).
    #[inline]
    pub fn clear(&mut self) {
        self.value.set_zero();
        self.weight = 0.0;
    }

    /// Overwrite `self` with `src` without allocating (dimension
    /// permitting) — the recycled-wire-buffer counterpart of `clone_from`.
    #[inline]
    pub fn copy_from(&mut self, src: &Self) {
        self.value.copy_from_components(src.value.components());
        self.weight = src.weight;
    }

    /// Conservation test: `self == -rhs` on every component and the weight.
    #[inline]
    pub fn is_neg_of(&self, rhs: &Self) -> bool {
        self.weight == -rhs.weight && self.value.is_neg_of(&rhs.value)
    }

    /// `true` iff value and weight are all exactly zero.
    // `always`: PCF's receive handler calls this once per receipt, and a
    // plain `#[inline]` left it an out-of-line call there.
    #[inline(always)]
    pub fn is_zero(&self) -> bool {
        self.weight == 0.0 && self.value.components().iter().all(|&c| c == 0.0)
    }

    /// The estimate this mass encodes, written componentwise into `out`:
    /// `out[k] = value[k] / weight`.
    #[inline]
    pub fn write_estimate(&self, out: &mut [f64]) {
        let comps = self.value.components();
        debug_assert_eq!(out.len(), comps.len());
        for (o, &c) in out.iter_mut().zip(comps) {
            *o = c / self.weight;
        }
    }
}

/// `values[k] /= weight`: turns the value components of a mass, written
/// in place by a protocol's `write_live`, into the estimate it encodes —
/// the same division, bit for bit, as [`Mass::write_estimate`].
#[inline]
pub(crate) fn divide_by_weight(values: &mut [f64], weight: f64) {
    for v in values {
        *v /= weight;
    }
}

impl<P: Payload> Corrupt for Mass<P> {
    fn corruptible_bits(&self) -> u32 {
        self.value.corruptible_bits() + 64
    }
    fn flip_bit(&mut self, bit: u32) {
        let vb = self.value.corruptible_bits();
        if bit < vb {
            self.value.flip_bit(bit);
        } else {
            self.weight.flip_bit(bit - vb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_payload_ops() {
        let mut x = 2.0f64;
        x.add_assign(&3.0);
        assert_eq!(x, 5.0);
        x.negate();
        assert_eq!(x, -5.0);
        x.scale(2.0);
        assert_eq!(x, -10.0);
        assert!(x.is_neg_of(&10.0));
        assert_eq!(x.components(), &[-10.0]);
        assert_eq!(f64::zeros(1), 0.0);
    }

    /// Operands for the table test: signed zeros, infinities, a
    /// subnormal, a signalling NaN with a non-canonical payload, and
    /// ordinary values of both signs and extreme exponents.
    const TABLE: [f64; 12] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE / 8.0, // subnormal
        -5e-324,
        f64::from_bits(0x7ff0_0000_0000_0001),
        1.5,
        -3.25,
        1e300,
        -7.0,
        0.1,
    ];

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every provided method of `P` against a per-component reference
    /// loop, compared on `to_bits()`, at each of `dims`.
    fn check_provided_arithmetic<P: Payload>(dims: &[usize]) {
        use std::hint::black_box;
        for &dim in dims {
            for shift in 0..TABLE.len() {
                let a: Vec<f64> = (0..dim).map(|k| TABLE[(k + shift) % TABLE.len()]).collect();
                let b: Vec<f64> = (0..dim)
                    .map(|k| TABLE[(3 * k + 5 + shift) % TABLE.len()])
                    .collect();
                let (pa, pb) = (P::from_components(&a), P::from_components(&b));
                assert_eq!(pa.dim(), dim);
                let (ra, rb) = (black_box(&a), black_box(&b));

                let mut x = pa.clone();
                x.add_assign(&pb);
                let want: Vec<f64> = ra.iter().zip(rb).map(|(p, q)| p + q).collect();
                assert_eq!(bits(x.components()), bits(&want), "add dim {dim}");

                let mut x = pa.clone();
                x.sub_assign(&pb);
                let want: Vec<f64> = ra.iter().zip(rb).map(|(p, q)| p - q).collect();
                assert_eq!(bits(x.components()), bits(&want), "sub dim {dim}");

                let mut x = pa.clone();
                x.negate();
                let want: Vec<u64> = a.iter().map(|p| p.to_bits() ^ (1 << 63)).collect();
                assert_eq!(bits(x.components()), want, "negate dim {dim}");

                for s in [2.0, -0.5, 0.0, -0.0, f64::INFINITY, TABLE[6]] {
                    let mut x = pa.clone();
                    x.scale(s);
                    let s = black_box(s);
                    let want: Vec<f64> = ra.iter().map(|p| p * s).collect();
                    assert_eq!(bits(x.components()), bits(&want), "scale {s} dim {dim}");
                }

                let mut x = pa.clone();
                x.set_zero();
                assert_eq!(bits(x.components()), vec![0; dim], "set_zero dim {dim}");

                // IEEE semantics: 0 == −0, NaN never equal.
                let eq = |p: &[f64], q: &[f64]| p.iter().zip(q).all(|(u, v)| u == v);
                assert_eq!(pa.eq_components(&pb), eq(&a, &b), "eq dim {dim}");
                assert_eq!(pa.eq_components(&pa), eq(&a, &a), "eq self dim {dim}");
                let mut neg = pa.clone();
                neg.negate();
                let is_neg = |p: &[f64], q: &[f64]| p.iter().zip(q).all(|(u, v)| *u == -*v);
                assert_eq!(pa.is_neg_of(&neg), is_neg(&a, neg.components()));
                assert_eq!(pa.is_neg_of(&pb), is_neg(&a, &b), "is_neg dim {dim}");
                assert_eq!(pa.is_neg_of(&neg), !a.iter().any(|v| v.is_nan()));

                let mut x = P::zeros(dim);
                x.copy_from_components(&b);
                assert_eq!(bits(x.components()), bits(&b), "copy dim {dim}");
            }
        }
        // Signed zeros compare equal and are each other's negation.
        let (z, nz) = (P::from_components(&[0.0]), P::from_components(&[-0.0]));
        assert!(z.eq_components(&nz) && z.is_neg_of(&nz) && z.is_neg_of(&z));
    }

    #[test]
    fn provided_arithmetic_matches_reference_bits() {
        check_provided_arithmetic::<f64>(&[1]);
        check_provided_arithmetic::<Vec<f64>>(&[1, 3, 4, 7, 16, 24]);
        // A dimension change goes through `from_components`.
        let mut v = vec![1.0; 3];
        v.copy_from_components(&[2.0, -0.0]);
        assert_eq!(bits(&v), bits(&[2.0, -0.0]));
    }

    #[test]
    #[should_panic(expected = "dimension 1")]
    fn scalar_payload_wrong_dim() {
        let _ = f64::zeros(3);
    }

    #[test]
    fn vector_payload_ops() {
        let mut v = vec![1.0, -2.0];
        v.add_assign(&vec![1.0, 1.0]);
        assert_eq!(v, vec![2.0, -1.0]);
        v.scale(-1.0);
        assert!(v.is_neg_of(&vec![2.0, -1.0]));
        assert_eq!(Vec::<f64>::zeros(3), vec![0.0; 3]);
    }

    #[test]
    fn signed_zero_is_semantically_equal() {
        // Conservation must hold between 0.0 and -0.0 (bit patterns differ).
        assert!(0.0f64.is_neg_of(&-0.0));
        assert!(0.0f64.is_neg_of(&0.0));
        assert!(Mass::new(0.0, 0.0).is_neg_of(&Mass::new(-0.0, -0.0)));
    }

    #[test]
    fn nan_is_never_conserved() {
        let m = Mass::new(f64::NAN, 0.0);
        assert!(!m.is_neg_of(&m.negated()));
    }

    #[test]
    fn mass_arithmetic() {
        let mut m = Mass::new(4.0, 1.0);
        m.add_assign(&Mass::new(1.0, 0.5));
        assert_eq!(m, Mass::new(5.0, 1.5));
        m.sub_assign(&Mass::new(5.0, 0.5));
        assert_eq!(m, Mass::new(0.0, 1.0));
        m.scale(0.5);
        assert_eq!(m.weight, 0.5);
    }

    #[test]
    fn mass_clear_handles_nonfinite() {
        let mut m = Mass::new(f64::INFINITY, 3.0);
        m.clear();
        assert!(m.is_zero());
        let mut v = Mass::new(vec![f64::NAN, 1.0], 2.0);
        v.clear();
        assert!(v.is_zero());
    }

    #[test]
    fn mass_estimate() {
        let m = Mass::new(vec![6.0, 9.0], 3.0);
        let mut out = [0.0; 2];
        m.write_estimate(&mut out);
        assert_eq!(out, [2.0, 3.0]);
    }

    #[test]
    fn mass_corruption_reaches_weight() {
        let mut m = Mass::new(1.0f64, 1.0);
        assert_eq!(m.corruptible_bits(), 128);
        m.flip_bit(64 + 63); // sign bit of weight
        assert_eq!(m.weight, -1.0);
        assert_eq!(m.value, 1.0);
    }

    #[test]
    fn mass_copy_from_matches_clone() {
        let src = Mass::new(vec![1.5, -2.5], 0.75);
        let mut dst = Mass::zero(2);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn conservation_after_negation_roundtrip() {
        let m = Mass::new(vec![1.25, -7.5, 0.0], 2.5);
        assert!(m.is_neg_of(&m.negated()));
        assert!(m.negated().is_neg_of(&m));
        assert!(!m.is_neg_of(&m));
    }
}
