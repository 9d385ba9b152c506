//! Borrowed strided matrix views — faer-style `MatRef`/`MatMut`.
//!
//! A view is `(data, offset, rows, cols, row_stride, col_stride)`: element
//! `(r, c)` lives at `data[offset + r*row_stride + c*col_stride]`. Because
//! the geometry is pure metadata, **transpose and row/column slicing are
//! O(1)** — they swap or shrink strides instead of materialising a fresh
//! buffer the way [`Tensor::transpose`] / [`Tensor::gather_rows`] do. The
//! packed GEMM ([`crate::gemm::gemm_views`]) reads operands directly
//! through a view, so `A·Bᵀ` / `Aᵀ·B` and sliced products never copy.
//!
//! Aliasing rules (documented in DESIGN.md §10): `MatRef` is a shared
//! borrow and freely copyable; `MatMut` is a unique borrow — two `MatMut`s
//! over the same tensor cannot coexist, and kernels that take a `MatMut`
//! destination plus `MatRef` sources rely on the borrow checker having
//! already proven them disjoint. Strides are unsigned, so a view can
//! overlap itself only through `slice_*`/`t()` chains that the type system
//! keeps read-only.
//!
//! Every transpose/slice bumps the `tensor.view.copies_avoided` counter:
//! each call stands where a materialised copy used to be (or would have
//! been), which is what the steady-state zero-allocation tests assert.

use crate::gemm;
use crate::pool;
use crate::tensor::Tensor;

/// Validate that every addressable element of the view lies inside `len`.
/// Overflow-checked so adversarial geometry cannot wrap around.
fn check_span(len: usize, off: usize, rows: usize, cols: usize, rs: usize, cs: usize) {
    if rows == 0 || cols == 0 {
        assert!(off <= len, "view offset {off} out of bounds (len {len})");
        return;
    }
    let last = (rows - 1)
        .checked_mul(rs)
        .and_then(|r| (cols - 1).checked_mul(cs).map(|c| (r, c)))
        .and_then(|(r, c)| r.checked_add(c))
        .and_then(|rc| rc.checked_add(off))
        .expect("view extent overflows usize");
    assert!(
        last < len,
        "view {rows}x{cols} (rs {rs}, cs {cs}, off {off}) exceeds buffer len {len}"
    );
}

fn copy_avoided() {
    soup_obs::counter!("tensor.view.copies_avoided").inc();
}

/// Shared borrowed view of an `f32` matrix (faer's `MatRef`).
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    data: &'a [f32],
    off: usize,
    rows: usize,
    cols: usize,
    rs: usize,
    cs: usize,
}

impl<'a> MatRef<'a> {
    /// View a row-major `(rows, cols)` buffer.
    pub fn from_row_major(data: &'a [f32], rows: usize, cols: usize) -> Self {
        Self::from_strided(data, 0, rows, cols, cols, 1)
    }

    /// General strided constructor; panics if any addressable element
    /// would fall outside `data`.
    pub fn from_strided(
        data: &'a [f32],
        off: usize,
        rows: usize,
        cols: usize,
        row_stride: usize,
        col_stride: usize,
    ) -> Self {
        check_span(data.len(), off, rows, cols, row_stride, col_stride);
        Self {
            data,
            off,
            rows,
            cols,
            rs: row_stride,
            cs: col_stride,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn row_stride(&self) -> usize {
        self.rs
    }

    pub fn col_stride(&self) -> usize {
        self.cs
    }

    /// Element `(r, c)`; bounds-checked against the view's logical shape.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "view index out of bounds");
        self.data[self.off + r * self.rs + c * self.cs]
    }

    /// Flat index of `(r, c)` into the underlying buffer (unchecked
    /// against the logical shape — packing loops validate once upfront).
    #[inline(always)]
    pub(crate) fn index(&self, r: usize, c: usize) -> usize {
        self.off + r * self.rs + c * self.cs
    }

    #[inline(always)]
    pub(crate) fn raw(&self) -> &'a [f32] {
        self.data
    }

    /// O(1) transpose: swaps shape and strides. Counted as an avoided
    /// copy (the owned equivalent materialises `rows*cols` floats).
    pub fn t(self) -> Self {
        copy_avoided();
        self.transposed()
    }

    /// [`Self::t`] without the counter bump — for internal driver
    /// plumbing that never materialised a transpose to begin with.
    pub(crate) fn transposed(self) -> Self {
        Self {
            data: self.data,
            off: self.off,
            rows: self.cols,
            cols: self.rows,
            rs: self.cs,
            cs: self.rs,
        }
    }

    /// O(1) contiguous row-range slice `[start, end)`.
    pub fn slice_rows(self, start: usize, end: usize) -> Self {
        assert!(
            start <= end && end <= self.rows,
            "slice_rows {start}..{end} out of range for {} rows",
            self.rows
        );
        copy_avoided();
        Self {
            data: self.data,
            off: self.off + start * self.rs,
            rows: end - start,
            cols: self.cols,
            rs: self.rs,
            cs: self.cs,
        }
    }

    /// O(1) contiguous column-range slice `[start, end)`.
    pub fn slice_cols(self, start: usize, end: usize) -> Self {
        assert!(
            start <= end && end <= self.cols,
            "slice_cols {start}..{end} out of range for {} cols",
            self.cols
        );
        copy_avoided();
        Self {
            data: self.data,
            off: self.off + start * self.cs,
            rows: self.rows,
            cols: end - start,
            rs: self.rs,
            cs: self.cs,
        }
    }

    /// Whether the view is a dense row-major block (unit column stride,
    /// row stride equal to the width).
    pub fn is_contiguous(&self) -> bool {
        self.cs == 1 && self.rs == self.cols
    }

    /// The backing slice when the view is dense row-major.
    pub fn as_slice(&self) -> Option<&'a [f32]> {
        self.is_contiguous()
            .then(|| &self.data[self.off..self.off + self.rows * self.cols])
    }

    /// Row `r` as a contiguous slice, when the column stride is 1.
    pub fn row(&self, r: usize) -> Option<&'a [f32]> {
        assert!(r < self.rows, "row {r} out of range");
        (self.cs == 1).then(|| {
            let base = self.off + r * self.rs;
            &self.data[base..base + self.cols]
        })
    }

    /// Materialise the view into an owned tensor (pool-backed; see
    /// [`pool::take_copy_strided`]). The only way a view turns back into
    /// memory traffic — hot paths should stay on the view.
    pub fn to_tensor(&self) -> Tensor {
        let out = pool::take_copy_strided(self);
        Tensor::from_vec(self.rows, self.cols, out)
    }

    /// View-fed matrix product `self × other`, sharing the blocked GEMM's
    /// microkernel with [`Tensor::matmul`]: strides are absorbed by the
    /// packing gather, so transposed/sliced operands are never copied.
    /// Bitwise-identical to materialising both views and multiplying.
    pub fn matmul(&self, other: &MatRef<'_>) -> Tensor {
        let (m, k) = (self.rows, self.cols);
        let (k2, n) = (other.rows, other.cols);
        assert_eq!(k, k2, "view matmul inner dims {k} vs {k2}");
        crate::tensor::record_matmul_metrics(m, k, n);
        if m * n * k < gemm::SMALL_GEMM_MACS {
            return matmul_naive_views(self, other);
        }
        let mut out = pool::take_zeroed(m * n);
        gemm::gemm_views(*self, *other, &mut out);
        Tensor::from_vec(m, n, out)
    }
}

impl std::fmt::Debug for MatRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MatRef({}x{}, rs {}, cs {}, off {})",
            self.rows, self.cols, self.rs, self.cs, self.off
        )
    }
}

/// The one small-product GEMM kernel, behind [`Tensor::matmul`],
/// `matmul_nt`, `matmul_tn` and [`MatRef::matmul`] below
/// [`gemm::SMALL_GEMM_MACS`], and the naive baseline of the `kernels`
/// bench. Each output element accumulates `a[r, kk] · b[kk, j]` in `kk`
/// order from `+0.0`, whatever the strides, so owned and view products
/// agree bitwise.
#[doc(hidden)]
pub fn matmul_naive_views(a: &MatRef<'_>, b: &MatRef<'_>) -> Tensor {
    let (m, k) = (a.rows, a.cols);
    let n = b.cols;
    let mut out = pool::take_zeroed(m * n);
    for (r, out_row) in out.chunks_mut(n).enumerate() {
        for kk in 0..k {
            let av = a.data[a.index(r, kk)];
            match b.row(kk) {
                // Unit column stride: a contiguous saxpy that vectorises.
                Some(b_row) => {
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
                None => {
                    for (j, o) in out_row.iter_mut().enumerate() {
                        *o += av * b.data[b.index(kk, j)];
                    }
                }
            }
        }
    }
    Tensor::from_vec(m, n, out)
}

/// Unique borrowed view of an `f32` matrix (faer's `MatMut`). The `&mut`
/// borrow guarantees no other view aliases the destination while it lives.
pub struct MatMut<'a> {
    data: &'a mut [f32],
    off: usize,
    rows: usize,
    cols: usize,
    rs: usize,
    cs: usize,
}

impl<'a> MatMut<'a> {
    /// View a row-major `(rows, cols)` buffer mutably.
    pub fn from_row_major(data: &'a mut [f32], rows: usize, cols: usize) -> Self {
        check_span(data.len(), 0, rows, cols, cols, 1);
        Self {
            data,
            off: 0,
            rows,
            cols,
            rs: cols,
            cs: 1,
        }
    }

    /// General strided constructor; panics on out-of-bounds geometry.
    pub fn from_strided(
        data: &'a mut [f32],
        off: usize,
        rows: usize,
        cols: usize,
        row_stride: usize,
        col_stride: usize,
    ) -> Self {
        check_span(data.len(), off, rows, cols, row_stride, col_stride);
        Self {
            data,
            off,
            rows,
            cols,
            rs: row_stride,
            cs: col_stride,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn row_stride(&self) -> usize {
        self.rs
    }

    pub fn col_stride(&self) -> usize {
        self.cs
    }

    /// Reborrow as a shared view.
    pub fn rb(&self) -> MatRef<'_> {
        MatRef {
            data: self.data,
            off: self.off,
            rows: self.rows,
            cols: self.cols,
            rs: self.rs,
            cs: self.cs,
        }
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "view index out of bounds");
        self.data[self.off + r * self.rs + c * self.cs]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "view index out of bounds");
        self.data[self.off + r * self.rs + c * self.cs] = v;
    }

    /// O(1) transpose of the mutable view.
    pub fn t(self) -> Self {
        copy_avoided();
        Self {
            data: self.data,
            off: self.off,
            rows: self.cols,
            cols: self.rows,
            rs: self.cs,
            cs: self.rs,
        }
    }

    /// O(1) contiguous row-range slice `[start, end)`.
    pub fn slice_rows(self, start: usize, end: usize) -> Self {
        assert!(
            start <= end && end <= self.rows,
            "slice_rows {start}..{end} out of range for {} rows",
            self.rows
        );
        copy_avoided();
        Self {
            off: self.off + start * self.rs,
            rows: end - start,
            ..self
        }
    }

    /// Row `r` as a contiguous mutable slice, when the column stride is 1.
    pub fn row_mut(&mut self, r: usize) -> Option<&mut [f32]> {
        assert!(r < self.rows, "row {r} out of range");
        (self.cs == 1).then(|| {
            let base = self.off + r * self.rs;
            &mut self.data[base..base + self.cols]
        })
    }

    /// The backing slice when the view is dense row-major.
    pub fn as_slice_mut(&mut self) -> Option<&mut [f32]> {
        (self.cs == 1 && self.rs == self.cols)
            .then(|| &mut self.data[self.off..self.off + self.rows * self.cols])
    }

    /// Copy `src` into this view (shapes must match).
    pub fn copy_from(&mut self, src: &MatRef<'_>) {
        assert_eq!(self.rows, src.rows, "copy_from row mismatch");
        assert_eq!(self.cols, src.cols, "copy_from col mismatch");
        for r in 0..self.rows {
            match (self.cs == 1, src.row(r)) {
                (true, Some(srow)) => {
                    let base = self.off + r * self.rs;
                    self.data[base..base + self.cols].copy_from_slice(srow);
                }
                _ => {
                    for c in 0..self.cols {
                        self.data[self.off + r * self.rs + c * self.cs] = src.get(r, c);
                    }
                }
            }
        }
    }

    pub fn fill(&mut self, v: f32) {
        for r in 0..self.rows {
            for c in 0..self.cols {
                self.data[self.off + r * self.rs + c * self.cs] = v;
            }
        }
    }
}

impl std::fmt::Debug for MatMut<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MatMut({}x{}, rs {}, cs {}, off {})",
            self.rows, self.cols, self.rs, self.cs, self.off
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = SplitMix64::new(seed);
        Tensor::randn(rows, cols, 1.0, &mut rng)
    }

    #[test]
    fn view_indexes_like_tensor() {
        let t = tensor(5, 7, 1);
        let v = t.view();
        for r in 0..5 {
            for c in 0..7 {
                assert_eq!(v.get(r, c), t.get(r, c));
            }
        }
        assert!(v.is_contiguous());
        assert_eq!(v.as_slice().unwrap(), t.data());
    }

    #[test]
    fn transpose_is_metadata_only() {
        let t = tensor(4, 6, 2);
        let v = t.view().t();
        assert_eq!(v.rows(), 6);
        assert_eq!(v.cols(), 4);
        for r in 0..6 {
            for c in 0..4 {
                assert_eq!(v.get(r, c), t.get(c, r));
            }
        }
        // Double transpose round-trips.
        let vv = v.t();
        assert_eq!(vv.to_tensor(), t);
    }

    #[test]
    fn slices_match_materialised_equivalents() {
        let t = tensor(8, 5, 3);
        let rows = t.view().slice_rows(2, 6);
        assert_eq!(rows.to_tensor(), t.gather_rows(&[2, 3, 4, 5]));
        let cols = t.view().slice_cols(1, 4);
        assert_eq!(cols.rows(), 8);
        assert_eq!(cols.cols(), 3);
        for r in 0..8 {
            for c in 0..3 {
                assert_eq!(cols.get(r, c), t.get(r, c + 1));
            }
        }
        // Chained: transpose of a slice of a transpose.
        let chain = t.view().t().slice_rows(1, 3).t();
        assert_eq!(chain.to_tensor(), t.view().slice_cols(1, 3).to_tensor());
    }

    #[test]
    fn view_matmul_matches_owned_bitwise_small_and_large() {
        // Small (naive path) and large (blocked path) products.
        for &(m, k, n) in &[(5usize, 4usize, 3usize), (70, 65, 40)] {
            let a = tensor(m, k, 10 + m as u64);
            let b = tensor(n, k, 20 + n as u64); // logical bᵀ operand
            let owned = a.matmul(&b.transpose());
            let viewed = a.view().matmul(&b.view().t());
            assert_eq!(owned, viewed, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn copies_avoided_counter_advances() {
        let t = tensor(6, 6, 4);
        let before = soup_obs::counter!("tensor.view.copies_avoided").get();
        let _ = t.view().t().slice_rows(0, 3).slice_cols(1, 2);
        let after = soup_obs::counter!("tensor.view.copies_avoided").get();
        assert_eq!(after - before, 3);
    }

    #[test]
    fn mat_mut_writes_through() {
        let mut t = tensor(3, 4, 5);
        let expect = t.get(2, 1);
        {
            let mut m = t.view_mut();
            assert_eq!(m.get(2, 1), expect);
            m.set(0, 0, 42.0);
            let mut mt = m.t();
            mt.set(3, 1, 7.0); // (3,1) transposed == (1,3)
        }
        assert_eq!(t.get(0, 0), 42.0);
        assert_eq!(t.get(1, 3), 7.0);
    }

    #[test]
    fn mat_mut_copy_from_strided_source() {
        let src = tensor(4, 3, 6);
        let mut dst = Tensor::zeros(3, 4);
        dst.view_mut().copy_from(&src.view().t());
        assert_eq!(dst, src.transpose());
    }

    #[test]
    #[should_panic(expected = "exceeds buffer len")]
    fn out_of_bounds_geometry_panics() {
        let data = vec![0.0f32; 10];
        let _ = MatRef::from_strided(&data, 0, 3, 4, 4, 1);
    }
}
