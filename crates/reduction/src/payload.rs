//! Data payloads flowing through the reduction protocols.
//!
//! The push-sum family aggregates a pair `(value, weight)`: the estimate at
//! a node is `value/weight`. The *value* may be a scalar or a short vector
//! (vector payloads let `gr-dmgs` batch all the dot products of one
//! orthogonalization step into a single reduction); the *weight* is always
//! a scalar. [`Mass`] bundles the two — it is simultaneously the unit of
//! initial data, the flow-variable type of PF/PCF, and the wire payload.

use gr_netsim::Corrupt;
use std::fmt;

/// The value component of a mass: scalar `f64` or a fixed-dimension vector.
///
/// All arithmetic is plain IEEE-754 — deliberately so: the numerical
/// weaknesses of push-flow that the paper analyses *are* plain-f64
/// artefacts, and compensated tricks here would mask the phenomenon under
/// study.
pub trait Payload: Clone + PartialEq + fmt::Debug + Corrupt + Send + 'static {
    /// A zero value of dimension `dim`.
    fn zeros(dim: usize) -> Self;

    /// Number of scalar components.
    fn dim(&self) -> usize;

    /// `self += rhs` componentwise.
    fn add_assign(&mut self, rhs: &Self);

    /// `self -= rhs` componentwise.
    fn sub_assign(&mut self, rhs: &Self);

    /// `self = -self`.
    fn negate(&mut self);

    /// `self *= s`.
    fn scale(&mut self, s: f64);

    /// Set every component to exactly `+0.0` (keeping the allocation of
    /// vector payloads). Unlike `scale(0.0)` this also clears non-finite
    /// components, so it is the right primitive for zeroing a possibly
    /// corrupted flow.
    fn set_zero(&mut self);

    /// IEEE semantic equality of every component (`0.0 == -0.0`, NaN never
    /// equal). This is the conservation test `f_{j,i} = −f_{i,j}` of the
    /// PCF pseudocode: it holds exactly when the last exchange on the edge
    /// completed, because receivers produce their flow by negating the
    /// sender's bits.
    fn eq_components(&self, rhs: &Self) -> bool;

    /// `true` iff `self == -rhs` componentwise (without allocating).
    fn is_neg_of(&self, rhs: &Self) -> bool;

    /// Read-only view of the scalar components.
    fn components(&self) -> &[f64];

    /// Whether a payload of this type can have `dim` components: `true`
    /// for vector payloads, `dim == 1` for a scalar. Decoders check it
    /// before building a payload from untrusted bytes, where
    /// [`Payload::zeros`] / [`Payload::from_components`] would panic.
    fn admits_dim(_dim: usize) -> bool {
        true
    }

    /// Build a payload from scalar components.
    ///
    /// # Panics
    /// Implementations panic if the slice length does not fit the type
    /// (scalar payloads require exactly one component).
    fn from_components(comps: &[f64]) -> Self;

    /// Mutable view of the scalar components.
    ///
    /// The slice aliases the payload's storage, so componentwise kernels
    /// (the structure-of-arrays flow banks) can update a payload in place
    /// without routing every operation through a `Self`-typed temporary.
    fn components_mut(&mut self) -> &mut [f64];

    /// Overwrite `self` with `comps`, reusing the existing allocation
    /// whenever the dimension already matches (it always does on the
    /// steady-state paths — payload dimensions are fixed per run). This is
    /// the no-alloc counterpart of [`Payload::from_components`] used when
    /// refilling recycled wire buffers.
    fn copy_from_components(&mut self, comps: &[f64]);
}

impl Payload for f64 {
    #[inline]
    fn zeros(dim: usize) -> Self {
        assert_eq!(dim, 1, "scalar payload has dimension 1, asked for {dim}");
        0.0
    }
    #[inline]
    fn dim(&self) -> usize {
        1
    }
    #[inline]
    fn add_assign(&mut self, rhs: &Self) {
        *self += *rhs;
    }
    #[inline]
    fn sub_assign(&mut self, rhs: &Self) {
        *self -= *rhs;
    }
    #[inline]
    fn negate(&mut self) {
        *self = -*self;
    }
    #[inline]
    fn scale(&mut self, s: f64) {
        *self *= s;
    }
    #[inline]
    fn set_zero(&mut self) {
        *self = 0.0;
    }
    #[inline]
    fn eq_components(&self, rhs: &Self) -> bool {
        *self == *rhs
    }
    #[inline]
    fn is_neg_of(&self, rhs: &Self) -> bool {
        *self == -*rhs
    }
    #[inline]
    fn components(&self) -> &[f64] {
        std::slice::from_ref(self)
    }
    #[inline]
    fn admits_dim(dim: usize) -> bool {
        dim == 1
    }
    #[inline]
    fn from_components(comps: &[f64]) -> Self {
        assert_eq!(comps.len(), 1, "scalar payload has one component");
        comps[0]
    }
    #[inline]
    fn components_mut(&mut self) -> &mut [f64] {
        std::slice::from_mut(self)
    }
    #[inline]
    fn copy_from_components(&mut self, comps: &[f64]) {
        assert_eq!(comps.len(), 1, "scalar payload has one component");
        *self = comps[0];
    }
}

impl Payload for Vec<f64> {
    fn zeros(dim: usize) -> Self {
        vec![0.0; dim]
    }
    fn dim(&self) -> usize {
        self.len()
    }
    fn add_assign(&mut self, rhs: &Self) {
        debug_assert_eq!(self.len(), rhs.len());
        crate::kernels::add(self, rhs);
    }
    fn sub_assign(&mut self, rhs: &Self) {
        debug_assert_eq!(self.len(), rhs.len());
        crate::kernels::sub(self, rhs);
    }
    fn negate(&mut self) {
        crate::kernels::neg(self);
    }
    fn scale(&mut self, s: f64) {
        crate::kernels::scale(self, s);
    }
    fn set_zero(&mut self) {
        self.fill(0.0);
    }
    fn eq_components(&self, rhs: &Self) -> bool {
        self.len() == rhs.len() && self.iter().zip(rhs).all(|(a, b)| a == b)
    }
    fn is_neg_of(&self, rhs: &Self) -> bool {
        crate::kernels::is_neg(self, rhs)
    }
    fn components(&self) -> &[f64] {
        self
    }
    fn from_components(comps: &[f64]) -> Self {
        comps.to_vec()
    }
    fn components_mut(&mut self) -> &mut [f64] {
        self
    }
    fn copy_from_components(&mut self, comps: &[f64]) {
        if self.len() == comps.len() {
            self.copy_from_slice(comps);
        } else {
            self.clear();
            self.extend_from_slice(comps);
        }
    }
}

/// Largest dimension an [`InlineVec`] stores inline (in the payload
/// itself, without a heap allocation). Chosen to cover the dot-product
/// batches `gr-dmgs` actually ships (a panel of ≤16 columns) while keeping
/// the inline footprint at two cache lines.
pub const INLINE_CAP: usize = 16;

/// The storage of an [`InlineVec`]: components live in the fixed inline
/// buffer up to [`INLINE_CAP`], on the heap above it. The representation is
/// decided once (by the construction dimension) and never migrates —
/// payload dimensions are fixed per run.
#[derive(Clone, Debug)]
enum Repr {
    Inline { len: u8, buf: [f64; INLINE_CAP] },
    Heap(Vec<f64>),
}

/// A small-vector payload: bit-identical arithmetic to `Vec<f64>`, but
/// dimensions up to [`INLINE_CAP`] are stored inline so cloning a mass or
/// refilling a wire buffer never touches the allocator.
///
/// Every operation routes through [`InlineVec::as_slice`] /
/// [`InlineVec::as_mut_slice`] and reuses the exact componentwise loops of
/// the `Vec<f64>` impl, so a run over `InlineVec` payloads replays the
/// `Vec<f64>` run bit for bit (pinned by the `payload_equiv` proptest).
#[derive(Debug)]
pub struct InlineVec(Repr);

impl InlineVec {
    /// Read-only view of the components.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Mutable view of the components.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        match &mut self.0 {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// `true` iff the components are stored inline (no heap allocation).
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

impl Clone for InlineVec {
    #[inline]
    fn clone(&self) -> Self {
        InlineVec(self.0.clone())
    }
    #[inline]
    fn clone_from(&mut self, source: &Self) {
        // Reuse an existing heap buffer instead of reallocating (the
        // derived `clone_from` would drop and clone). Inline reprs are a
        // plain copy either way.
        match (&mut self.0, &source.0) {
            (Repr::Heap(dst), Repr::Heap(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
    }
}

impl PartialEq for InlineVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<f64>> for InlineVec {
    fn from(v: Vec<f64>) -> Self {
        InlineVec::from_components(&v)
    }
}

impl Corrupt for InlineVec {
    fn corruptible_bits(&self) -> u32 {
        // Same layout as `Vec<f64>`: 64 sequential bits per component.
        self.as_slice().len() as u32 * 64
    }
    fn flip_bit(&mut self, bit: u32) {
        let comps = self.as_mut_slice();
        let idx = (bit / 64) as usize;
        assert!(idx < comps.len(), "bit index out of range for InlineVec");
        comps[idx].flip_bit(bit % 64);
    }
}

impl Payload for InlineVec {
    fn zeros(dim: usize) -> Self {
        if dim <= INLINE_CAP {
            InlineVec(Repr::Inline {
                len: dim as u8,
                buf: [0.0; INLINE_CAP],
            })
        } else {
            InlineVec(Repr::Heap(vec![0.0; dim]))
        }
    }
    fn dim(&self) -> usize {
        self.as_slice().len()
    }
    fn add_assign(&mut self, rhs: &Self) {
        let (a, b) = (self.as_mut_slice(), rhs.as_slice());
        debug_assert_eq!(a.len(), b.len());
        crate::kernels::add(a, b);
    }
    fn sub_assign(&mut self, rhs: &Self) {
        let (a, b) = (self.as_mut_slice(), rhs.as_slice());
        debug_assert_eq!(a.len(), b.len());
        crate::kernels::sub(a, b);
    }
    fn negate(&mut self) {
        crate::kernels::neg(self.as_mut_slice());
    }
    fn scale(&mut self, s: f64) {
        crate::kernels::scale(self.as_mut_slice(), s);
    }
    fn set_zero(&mut self) {
        self.as_mut_slice().fill(0.0);
    }
    fn eq_components(&self, rhs: &Self) -> bool {
        let (a, b) = (self.as_slice(), rhs.as_slice());
        a.len() == b.len() && a.iter().zip(b).all(|(a, b)| a == b)
    }
    fn is_neg_of(&self, rhs: &Self) -> bool {
        crate::kernels::is_neg(self.as_slice(), rhs.as_slice())
    }
    fn components(&self) -> &[f64] {
        self.as_slice()
    }
    fn from_components(comps: &[f64]) -> Self {
        let mut v = Self::zeros(comps.len());
        v.as_mut_slice().copy_from_slice(comps);
        v
    }
    fn components_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }
    fn copy_from_components(&mut self, comps: &[f64]) {
        if self.as_slice().len() == comps.len() {
            self.as_mut_slice().copy_from_slice(comps);
        } else {
            *self = Self::from_components(comps);
        }
    }
}

/// A `(value, weight)` pair — the paper's `(x_i, w_i)` tuples.
#[derive(Clone, Debug, PartialEq)]
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
    #[inline]
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
    fn inline_vec_matches_vec_ops_both_sides_of_cap() {
        for dim in [1, 4, INLINE_CAP, INLINE_CAP + 8, 64] {
            let comps: Vec<f64> = (0..dim).map(|k| 0.5 * k as f64 - 3.0).collect();
            let rhs: Vec<f64> = (0..dim).map(|k| 1.0 / (k as f64 + 1.0)).collect();
            let mut iv = InlineVec::from_components(&comps);
            assert_eq!(iv.is_inline(), dim <= INLINE_CAP);
            assert_eq!(iv.dim(), dim);
            let mut v = comps.clone();
            iv.add_assign(&InlineVec::from_components(&rhs));
            v.add_assign(&rhs);
            assert_eq!(iv.components(), v.as_slice());
            iv.scale(-0.75);
            v.scale(-0.75);
            assert_eq!(iv.components(), v.as_slice());
            iv.sub_assign(&InlineVec::from_components(&rhs));
            v.sub_assign(&rhs);
            assert_eq!(iv.components(), v.as_slice());
            let neg = {
                let mut n = iv.clone();
                n.negate();
                n
            };
            assert!(iv.is_neg_of(&neg));
            assert!(iv.eq_components(&iv.clone()));
            iv.set_zero();
            assert!(iv.components().iter().all(|&c| c == 0.0));
        }
    }

    #[test]
    fn inline_vec_corruption_matches_vec_layout() {
        for dim in [3, INLINE_CAP + 2] {
            let comps: Vec<f64> = (0..dim).map(|k| k as f64 + 1.0).collect();
            let mut iv = InlineVec::from_components(&comps);
            let mut v = comps.clone();
            assert_eq!(iv.corruptible_bits(), v.corruptible_bits());
            for bit in [0, 63, 64 * (dim as u32 - 1) + 17] {
                iv.flip_bit(bit);
                v.flip_bit(bit);
            }
            assert_eq!(iv.components(), v.as_slice());
        }
    }

    #[test]
    fn inline_vec_copy_from_components_reuses_storage() {
        let mut iv = InlineVec::zeros(4);
        iv.copy_from_components(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(iv.components(), &[1.0, 2.0, 3.0, 4.0]);
        assert!(iv.is_inline());
        let mut big = InlineVec::zeros(INLINE_CAP + 4);
        assert!(!big.is_inline());
        let vals: Vec<f64> = (0..INLINE_CAP + 4).map(|k| k as f64).collect();
        big.copy_from_components(&vals);
        assert_eq!(big.components(), vals.as_slice());
    }

    #[test]
    fn mass_copy_from_matches_clone() {
        let src = Mass::new(InlineVec::from_components(&[1.5, -2.5]), 0.75);
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
