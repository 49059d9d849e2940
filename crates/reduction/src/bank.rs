//! Structure-of-arrays flow storage for the flow-based protocols.
//!
//! PF and PCF keep one (PF) or four (PCF) vector-valued flow variables per
//! directed arc. Storing them as `Vec<Mass<P>>` means every variable is its
//! own heap object: vector payloads scatter across the allocator and every
//! componentwise update walks a pointer. A [`FlowBank`] instead packs *all*
//! value components of *all* arcs into one contiguous, 64-byte-aligned
//! `f64` slab, indexed by the same CSR arc index
//! ([`gr_topology::Graph::arc`]) as the rest of the per-arc state:
//!
//! ```text
//! offset(arc, field) = (arc * fields + field) * dim
//! ```
//!
//! Arc-major order keeps every field of one arc on the same (or adjacent)
//! cache line — a message receipt touches all fields of exactly one arc.
//! Weights and per-arc control words stay in small arrays-of-structs next
//! to the bank; only the `dim`-sized value vectors move here.
//!
//! The componentwise kernels the protocols run over bank slices live in
//! [`crate::kernels`] — one plain-loop source, compiled for the target's
//! baseline ISA and again for AVX2 — and are re-exported here under their
//! historical `bank::` names. Each one performs *exactly* the
//! per-component IEEE-754 operations (in the same order) as the
//! `Mass`-level code it replaced, so runs are bit-identical to the
//! array-of-structs implementation — pinned by the golden-schedule
//! hashes, the `payload_equiv` proptest, and the `kernel_equiv`
//! AVX2-vs-baseline sweep.

/// One 64-byte cache line of components. The slab is a `Vec<Line>` so the
/// allocation is 64-byte aligned without any unstable allocator API; it is
/// viewed as a flat `[f64]` for all arithmetic.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct Line([f64; 8]);

const LINE_F64S: usize = 8;

/// A contiguous, 64-byte-aligned slab of per-arc vector flow components.
#[derive(Clone)]
pub(crate) struct FlowBank {
    lines: Vec<Line>,
    /// Total live `f64` count: `arcs * fields * dim` (the slab may carry up
    /// to 7 trailing padding slots to fill the last line).
    len: usize,
    fields: usize,
    dim: usize,
}

impl FlowBank {
    /// An all-zero bank for `arcs` arcs with `fields` vector variables of
    /// dimension `dim` each.
    pub fn new(arcs: usize, fields: usize, dim: usize) -> Self {
        let len = arcs * fields * dim;
        FlowBank {
            lines: vec![Line([0.0; LINE_F64S]); len.div_ceil(LINE_F64S)],
            len,
            fields,
            dim,
        }
    }

    #[inline]
    fn offset(&self, arc: usize, field: usize) -> usize {
        debug_assert!(field < self.fields);
        (arc * self.fields + field) * self.dim
    }

    #[inline]
    fn flat(&self) -> &[f64] {
        // SAFETY: the Vec<Line> owns `lines.len() * 8 >= len` initialized,
        // properly aligned f64s; Line is repr(C) over [f64; 8].
        unsafe { std::slice::from_raw_parts(self.lines.as_ptr().cast::<f64>(), self.len) }
    }

    #[inline]
    fn flat_mut(&mut self) -> &mut [f64] {
        // SAFETY: as in `flat`, and the borrow is exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.lines.as_mut_ptr().cast::<f64>(), self.len) }
    }

    /// The components of one field of one arc.
    #[inline]
    pub fn slice(&self, arc: usize, field: usize) -> &[f64] {
        let o = self.offset(arc, field);
        &self.flat()[o..o + self.dim]
    }

    /// Mutable components of one field of one arc.
    #[inline]
    pub fn slice_mut(&mut self, arc: usize, field: usize) -> &mut [f64] {
        let o = self.offset(arc, field);
        let dim = self.dim;
        &mut self.flat_mut()[o..o + dim]
    }

    /// Borrow one field read-only and another mutably on the same arc.
    #[inline]
    pub fn src_dst(&mut self, arc: usize, src: usize, dst: usize) -> (&[f64], &mut [f64]) {
        assert_ne!(src, dst, "src and dst fields must differ");
        let (os, od) = (self.offset(arc, src), self.offset(arc, dst));
        let dim = self.dim;
        let ptr = self.flat_mut().as_mut_ptr();
        // SAFETY: both ranges lie inside the slab (offset + dim <= len) and
        // are disjoint because src != dst implies |os - od| >= dim.
        unsafe {
            (
                std::slice::from_raw_parts(ptr.add(os), dim),
                std::slice::from_raw_parts_mut(ptr.add(od), dim),
            )
        }
    }

    /// Borrow two fields read-only and a third mutably on the same arc.
    #[inline]
    pub fn two_src_dst(
        &mut self,
        arc: usize,
        src_a: usize,
        src_b: usize,
        dst: usize,
    ) -> (&[f64], &[f64], &mut [f64]) {
        assert!(src_a != dst && src_b != dst, "dst must differ from sources");
        let (oa, ob, od) = (
            self.offset(arc, src_a),
            self.offset(arc, src_b),
            self.offset(arc, dst),
        );
        let dim = self.dim;
        let ptr = self.flat_mut().as_mut_ptr();
        // SAFETY: all ranges lie inside the slab; dst is disjoint from both
        // sources (asserted), and the sources are only read (aliasing two
        // shared borrows is fine, including src_a == src_b).
        unsafe {
            (
                std::slice::from_raw_parts(ptr.add(oa), dim),
                std::slice::from_raw_parts(ptr.add(ob), dim),
                std::slice::from_raw_parts_mut(ptr.add(od), dim),
            )
        }
    }

    /// Copy one field of an arc onto another field of the same arc.
    #[inline]
    pub fn copy_field(&mut self, arc: usize, src: usize, dst: usize) {
        let (os, od) = (self.offset(arc, src), self.offset(arc, dst));
        let dim = self.dim;
        self.flat_mut().copy_within(os..os + dim, od);
    }

    /// Zero one field of one arc (exact `+0.0`, clearing non-finite
    /// components — the slice analogue of `Mass::clear` on the value).
    #[inline]
    pub fn fill_zero(&mut self, arc: usize, field: usize) {
        self.slice_mut(arc, field).fill(0.0);
    }

    /// Every field of arcs `arc0 .. arc0 + narcs` as one contiguous slice
    /// (arc-major layout makes a node's arc range a single run). This is
    /// the input the fused estimate kernels ([`sub_rows`],
    /// [`sub_leading2_rows`]) stream over — one bounds check for the whole
    /// neighborhood instead of one `slice()` per arc per field.
    #[inline]
    pub fn arc_rows(&self, arc0: usize, narcs: usize) -> &[f64] {
        let o = arc0 * self.fields * self.dim;
        &self.flat()[o..o + narcs * self.fields * self.dim]
    }
}

#[cfg(test)]
pub(crate) use crate::kernels::sub;
pub(crate) use crate::kernels::{
    add, add_sum, fold1, fold2, is_neg, store_neg, sub_leading2_rows, sub_rows, sub_sum,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_is_cache_line_aligned_and_indexed_arc_major() {
        let mut bank = FlowBank::new(3, 4, 5);
        assert_eq!(bank.flat().as_ptr() as usize % 64, 0);
        bank.slice_mut(2, 3)[4] = 7.0;
        // offset = (2*4 + 3) * 5 + 4 = 59
        assert_eq!(bank.flat()[59], 7.0);
        assert_eq!(bank.slice(2, 3), &[0.0, 0.0, 0.0, 0.0, 7.0]);
    }

    #[test]
    fn split_borrows_are_disjoint() {
        let mut bank = FlowBank::new(2, 4, 3);
        bank.slice_mut(1, 0).copy_from_slice(&[1.0, 2.0, 3.0]);
        bank.slice_mut(1, 1).copy_from_slice(&[10.0, 20.0, 30.0]);
        {
            let (f0, f1, base) = bank.two_src_dst(1, 0, 1, 3);
            for ((b, x), y) in base.iter_mut().zip(f0).zip(f1) {
                *b = *x + *y;
            }
        }
        assert_eq!(bank.slice(1, 3), &[11.0, 22.0, 33.0]);
        {
            let (src, dst) = bank.src_dst(1, 3, 2);
            dst.copy_from_slice(src);
        }
        assert_eq!(bank.slice(1, 2), &[11.0, 22.0, 33.0]);
        bank.copy_field(1, 0, 2);
        assert_eq!(bank.slice(1, 2), &[1.0, 2.0, 3.0]);
        bank.fill_zero(1, 0);
        assert_eq!(bank.slice(1, 0), &[0.0; 3]);
        // untouched neighbors
        assert_eq!(bank.slice(0, 0), &[0.0; 3]);
        assert_eq!(bank.slice(1, 1), &[10.0, 20.0, 30.0]);
    }

    #[test]
    fn kernels_match_reference_semantics() {
        let mut d = vec![1.0, -2.0, 0.5];
        add(&mut d, &[1.0, 1.0, 1.0]);
        assert_eq!(d, vec![2.0, -1.0, 1.5]);
        sub(&mut d, &[0.5, 0.5, 0.5]);
        assert_eq!(d, vec![1.5, -1.5, 1.0]);
        store_neg(&mut d, &[3.0, -4.0, 0.0]);
        assert_eq!(d, vec![-3.0, 4.0, -0.0]);
        sub_sum(&mut d, &[1.0, 1.0, 1.0], &[2.0, 2.0, 2.0]);
        assert_eq!(d, vec![-6.0, 1.0, -3.0]);
        assert!(is_neg(&[0.0, 1.0], &[-0.0, -1.0]));
        assert!(!is_neg(&[f64::NAN], &[f64::NAN]));
        assert!(!is_neg(&[1.0], &[1.0, 2.0]));
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn src_dst_rejects_aliasing() {
        let mut bank = FlowBank::new(1, 2, 2);
        let _ = bank.src_dst(0, 1, 1);
    }

    #[test]
    fn fused_row_kernels_match_per_slot_loops() {
        // Single-field bank: sub_rows over a 3-arc range must equal three
        // per-slot subs, bitwise.
        let mut bank = FlowBank::new(4, 1, 2);
        for arc in 0..4 {
            let v = (arc as f64 + 1.0) * 0.1;
            bank.slice_mut(arc, 0).copy_from_slice(&[v, -v]);
        }
        let mut fused = [1.0, 2.0];
        sub_rows(&mut fused, bank.arc_rows(1, 3));
        let mut slow = [1.0, 2.0];
        for arc in 1..4 {
            sub(&mut slow, bank.slice(arc, 0));
        }
        assert_eq!(fused, slow);

        // Multi-field bank: sub_leading2_rows must subtract exactly fields
        // 0 and 1 of each arc, in slot order.
        let mut bank = FlowBank::new(3, 4, 2);
        for arc in 0..3 {
            for field in 0..4 {
                let v = (arc * 4 + field) as f64;
                bank.slice_mut(arc, field).copy_from_slice(&[v, v + 0.5]);
            }
        }
        let mut fused = [100.0, 200.0];
        sub_leading2_rows(&mut fused, bank.arc_rows(0, 3), 4);
        let mut slow = [100.0, 200.0];
        for arc in 0..3 {
            sub(&mut slow, bank.slice(arc, 0));
            sub(&mut slow, bank.slice(arc, 1));
        }
        assert_eq!(fused, slow);
    }
}
