//! Dense row-major f32 matrices with the handful of BLAS-like kernels the
//! LSTM training and inference loops need.
//!
//! The GEMM is a cache-blocked, panel-packed kernel: B is packed into
//! 8-column strips and A into 2-row panels per k-block, and a 2x8
//! register-tiled micro-kernel does the multiply-adds in a shape the
//! compiler auto-vectorizes. Three cheaper paths short-circuit the packed
//! kernel where it would lose:
//!
//! * a **GEMV** path for `[1,k] @ [k,n]` — the shape every batch=1 online
//!   scoring step hits — with a zero-skipping variant for the one-hot
//!   (ΔT, phrase) input rows of phases 2/3;
//! * a **sparse-row axpy** path when A is mostly zeros (one-hot training
//!   batches), which does `nnz` row updates instead of `m*k`;
//! * the plain `ikj` loop for matrices too small to amortise packing.
//!
//! Output-row parallelism via rayon kicks in above [`PAR_FLOP_THRESHOLD`]
//! exactly as before. The innermost loops (dense GEMV sweep, the 2x8
//! micro-kernel, and the contiguous dot) dispatch through [`crate::simd`]:
//! the scalar backend reproduces the historical loops bit-for-bit, while
//! the AVX2/NEON backends use explicit FMA lanes (which reassociate sums
//! within the f64-oracle tolerances the proptests enforce).

use crate::simd;
use rayon::prelude::*;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Minimum number of scalar multiply-adds before a GEMM goes parallel.
/// Below this, rayon's fork/join overhead dominates.
const PAR_FLOP_THRESHOLD: usize = 1 << 17;

/// Below this many multiply-adds the straightforward unpacked loop beats
/// the packed kernel (packing overhead dominates; measured crossover is
/// around the 64³ shape on the baseline x86-64 target).
const PACK_FLOP_THRESHOLD: usize = 1 << 19;

/// Micro-tile rows (register-blocked rows of A per kernel call). Kept at 2
/// deliberately: the 2x8 f32 accumulator needs only 4 SSE registers, so
/// the whole tile stays register-resident on the baseline x86-64 target —
/// a 4x8 tile measurably spills and runs ~2x slower.
pub(crate) const MR: usize = 2;

/// Micro-tile columns; 8-wide so the inner loop maps onto full-width SIMD.
pub(crate) const NR: usize = 8;

/// k-dimension cache block: an `MR x KC` A-panel plus an `NR x KC` B-panel
/// stay L1-resident while the micro-kernel streams over them.
const KC: usize = 256;

// ---------------------------------------------------------------------------
// Free-function kernels (operate on raw slices so `Mat` borrows stay simple)
// ---------------------------------------------------------------------------

/// `out[0..n] += a (row vector, len k) @ B[:, lo..lo+n]` where `b` has row
/// stride `bcols`. Dedicated batch=1 path: no packing, no tiling.
fn gemv_acc(a: &[f32], b: &[f32], bcols: usize, lo: usize, n: usize, out: &mut [f32]) {
    let k = a.len();
    debug_assert!(out.len() >= n);
    let out = &mut out[..n];
    // One-hot-ish rows (the vectorized (ΔT, phrase) inputs of phases 2/3
    // have ~2 non-zeros) pay for a quick scan: the zero-skipping axpy form
    // then does `nnz` row updates instead of `k`.
    let nnz = a.iter().filter(|&&x| x != 0.0).count();
    if nnz * 4 <= k {
        for (kk, &av) in a.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[kk * bcols + lo..kk * bcols + lo + n];
            for (o, &bv) in out.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
        return;
    }
    // Dense row: SIMD-dispatched sweep (4-way k unrolling in the scalar
    // backend, 8-wide FMA lanes under AVX2/NEON).
    simd::gemv_dense_acc(a, b, bcols, lo, n, out);
}

/// Split `R` distinct rows of a row-major buffer into simultaneous `&mut`
/// slices (the fused multi-row GEMV writes them in one pass). Distinctness
/// is asserted — aliasing rows would be UB.
fn disjoint_rows_mut<const R: usize>(
    data: &mut [f32],
    n: usize,
    rows: [usize; R],
) -> [&mut [f32]; R] {
    for i in 0..R {
        assert!((rows[i] + 1) * n <= data.len(), "row out of bounds");
        for j in i + 1..R {
            assert_ne!(rows[i], rows[j], "wave rows must be distinct");
        }
    }
    let p = data.as_mut_ptr();
    // SAFETY: row indices are distinct (asserted above) and in bounds, so
    // the produced slices are non-overlapping views into `data`.
    rows.map(|r| unsafe { std::slice::from_raw_parts_mut(p.add(r * n), n) })
}

/// Contiguous dot product (used by the `A @ Bᵀ` small-shape kernel, where
/// both operands are contiguous rows). Dispatches through [`crate::simd`];
/// the scalar backend is the historical 8-accumulator unrolled loop.
#[inline]
fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    simd::dot(a, b)
}

/// Pack one `kb x n` slab of B (columns `lo..lo+n`, rows `k0..k0+kb`) into
/// NR-wide strips: strip `s` holds rows k-contiguously as
/// `packed[s*KC*NR + kk*NR + j]`, tail strips zero-padded to NR.
fn pack_b(b: &[f32], bcols: usize, lo: usize, n: usize, k0: usize, kb: usize, packed: &mut [f32]) {
    let nstrips = n.div_ceil(NR);
    for s in 0..nstrips {
        let j0 = s * NR;
        let nb = NR.min(n - j0);
        let dst_base = s * KC * NR;
        for kk in 0..kb {
            let src = (k0 + kk) * bcols + lo + j0;
            let dst = dst_base + kk * NR;
            packed[dst..dst + nb].copy_from_slice(&b[src..src + nb]);
            for j in nb..NR {
                packed[dst + j] = 0.0;
            }
        }
    }
}

/// Pack an `mb x kb` block of A (rows `i0..i0+mb`, cols `k0..k0+kb`) into
/// an MR-row panel: `packed[kk*MR + r]`, tail rows zero-padded.
fn pack_a(a: &[f32], k: usize, i0: usize, mb: usize, k0: usize, kb: usize, packed: &mut [f32]) {
    for kk in 0..kb {
        for r in 0..MR {
            packed[kk * MR + r] = if r < mb {
                a[(i0 + r) * k + k0 + kk]
            } else {
                0.0
            };
        }
    }
}

/// The register-tiled micro-kernel: `rows[0..mb][j0..j0+nb] += pa @ pb`
/// where `pa` is an MR-row packed A panel and `pb` an NR-col packed B
/// strip, both `kb` deep. Dispatches through [`crate::simd`]; the MRxNR
/// accumulator lives in registers (2 × `__m256` under AVX2), padded lanes
/// compute on zeros and are simply not written back.
#[inline]
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
fn microkernel(
    pa: &[f32],
    pb: &[f32],
    kb: usize,
    rows: &mut [f32],
    ldc: usize,
    j0: usize,
    mb: usize,
    nb: usize,
) {
    simd::microkernel_acc(pa, pb, kb, rows, ldc, j0, mb, nb)
}

/// Sparse/small fallback: zero-skipping `ikj` accumulation of
/// `out += A[m,k] @ B[:, lo..lo+n]`, optionally row-parallel.
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
fn gemm_axpy_acc(
    a: &[f32],
    k: usize,
    b: &[f32],
    bcols: usize,
    lo: usize,
    n: usize,
    out: &mut [f32],
    par: bool,
) {
    let body = |i: usize, orow: &mut [f32]| {
        let arow = &a[i * k..(i + 1) * k];
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[kk * bcols + lo..kk * bcols + lo + n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    };
    if par {
        out.par_chunks_mut(n)
            .enumerate()
            .for_each(|(i, row)| body(i, row));
    } else {
        for (i, row) in out.chunks_mut(n).enumerate() {
            body(i, row);
        }
    }
}

/// Cache-blocked panel-packed GEMM:
/// `out[m,n] += A[m,k] @ B[:, lo..lo+n]`, row-parallel when `par`.
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
fn gemm_packed_acc(
    a: &[f32],
    k: usize,
    b: &[f32],
    bcols: usize,
    lo: usize,
    n: usize,
    out: &mut [f32],
    par: bool,
) {
    let nstrips = n.div_ceil(NR);
    let mut packed_b = vec![0.0f32; KC * nstrips * NR];
    let mut k0 = 0;
    while k0 < k {
        let kb = KC.min(k - k0);
        pack_b(b, bcols, lo, n, k0, kb, &mut packed_b);
        let pb = &packed_b[..];
        // Each task owns an MR-row group of `out`; the A panel is packed
        // on-stack per task so worker threads never share mutable state.
        let body = |rb: usize, rows: &mut [f32]| {
            let i0 = rb * MR;
            let mb = rows.len() / n;
            let mut pa = [0.0f32; MR * KC];
            pack_a(a, k, i0, mb, k0, kb, &mut pa);
            for s in 0..nstrips {
                let j0 = s * NR;
                let nb = NR.min(n - j0);
                microkernel(&pa, &pb[s * KC * NR..], kb, rows, n, j0, mb, nb);
            }
        };
        if par {
            out.par_chunks_mut(MR * n)
                .enumerate()
                .for_each(|(rb, rows)| body(rb, rows));
        } else {
            for (rb, rows) in out.chunks_mut(MR * n).enumerate() {
                body(rb, rows);
            }
        }
        k0 += kb;
    }
}

/// Pack one `kb`-deep slab of Bᵀ into NR-wide strips for the `A @ Bᵀ`
/// kernel: B is `[n,k]` row-major, and strip `s` holds output columns
/// (= B rows) `s*NR..s*NR+NR` k-contiguously as `packed[s*KC*NR + kk*NR +
/// j] = B[s*NR+j, k0+kk]`, tail strips zero-padded. Paying this transpose
/// once per k-block is what lets `matmul_t` reuse the same register-tiled
/// micro-kernel as `matmul` instead of re-walking B rows per output panel.
fn pack_bt(b: &[f32], k: usize, n: usize, k0: usize, kb: usize, packed: &mut [f32]) {
    let nstrips = n.div_ceil(NR);
    for s in 0..nstrips {
        let j0 = s * NR;
        let nb = NR.min(n - j0);
        let dst_base = s * KC * NR;
        for j in 0..nb {
            let src = (j0 + j) * k + k0;
            for kk in 0..kb {
                packed[dst_base + kk * NR + j] = b[src + kk];
            }
        }
        for j in nb..NR {
            for kk in 0..kb {
                packed[dst_base + kk * NR + j] = 0.0;
            }
        }
    }
}

/// Cache-blocked panel-packed `out[m,n] += A[m,k] @ Bᵀ` where B is `[n,k]`
/// row-major. Identical task structure to [`gemm_packed_acc`]; only the B
/// packing differs (transpose-pack via [`pack_bt`]).
fn gemm_t_packed_acc(a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32], par: bool) {
    let nstrips = n.div_ceil(NR);
    let mut packed_b = vec![0.0f32; KC * nstrips * NR];
    let mut k0 = 0;
    while k0 < k {
        let kb = KC.min(k - k0);
        pack_bt(b, k, n, k0, kb, &mut packed_b);
        let pb = &packed_b[..];
        let body = |rb: usize, rows: &mut [f32]| {
            let i0 = rb * MR;
            let mb = rows.len() / n;
            let mut pa = [0.0f32; MR * KC];
            pack_a(a, k, i0, mb, k0, kb, &mut pa);
            for s in 0..nstrips {
                let j0 = s * NR;
                let nb = NR.min(n - j0);
                microkernel(&pa, &pb[s * KC * NR..], kb, rows, n, j0, mb, nb);
            }
        };
        if par {
            out.par_chunks_mut(MR * n)
                .enumerate()
                .for_each(|(rb, rows)| body(rb, rows));
        } else {
            for (rb, rows) in out.chunks_mut(MR * n).enumerate() {
                body(rb, rows);
            }
        }
        k0 += kb;
    }
}

/// Dispatching entry point: `out[m,n] += A[m,k] @ B[:, lo..lo+n]`.
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
fn gemm_acc(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    bcols: usize,
    lo: usize,
    n: usize,
    out: &mut [f32],
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if m == 1 {
        return gemv_acc(a, b, bcols, lo, n, out);
    }
    if n == 1 {
        // k×1 GEMV: one (strided) dot product per output row.
        for (i, o) in out.iter_mut().enumerate() {
            let arow = &a[i * k..(i + 1) * k];
            let mut acc = 0.0f32;
            for (kk, &av) in arow.iter().enumerate() {
                acc += av * b[kk * bcols + lo];
            }
            *o += acc;
        }
        return;
    }
    let work = m * k * n;
    let par = work >= PAR_FLOP_THRESHOLD;
    if work < PACK_FLOP_THRESHOLD {
        return gemm_axpy_acc(a, k, b, bcols, lo, n, out, false);
    }
    // One-hot training batches (phase-2/3 vectorized inputs) are ~2
    // non-zeros per row; the O(mk) scan is negligible next to the GEMM.
    let nnz = a.iter().filter(|&&x| x != 0.0).count();
    if nnz * 8 <= m * k {
        return gemm_axpy_acc(a, k, b, bcols, lo, n, out, par);
    }
    gemm_packed_acc(a, k, b, bcols, lo, n, out, par)
}

/// Row-major 2-D matrix of f32.
///
/// ```
/// use desh_nn::Mat;
/// let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let eye = Mat::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
/// assert_eq!(a.matmul(&eye), a);
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mat({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Mat {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Build from a flat row-major vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Self { rows, cols, data }
    }

    /// Build by calling `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// (rows, cols).
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reset all elements to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Reshape in place to `(rows, cols)`, reusing the allocation and
    /// zeroing the contents. Grows the backing vector only when the new
    /// shape needs more elements than ever seen before.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        let len = rows * cols;
        self.data.clear();
        self.data.resize(len, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Overwrite with a copy of `src` (shape included), reusing this
    /// matrix's allocation.
    pub fn copy_from(&mut self, src: &Mat) {
        self.data.clear();
        self.data.extend_from_slice(&src.data);
        self.rows = src.rows;
        self.cols = src.cols;
    }

    /// `self = self + other`, elementwise.
    pub fn add_assign(&mut self, other: &Mat) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self = self + alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Mat) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// `self = self * alpha`.
    pub fn scale(&mut self, alpha: f32) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise product into a new matrix.
    pub fn hadamard(&self, other: &Mat) -> Mat {
        assert_eq!(self.shape(), other.shape());
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a * b)
                .collect(),
        }
    }

    /// Add a 1-row bias to every row.
    pub fn add_row_broadcast(&mut self, bias: &Mat) {
        assert_eq!(bias.rows, 1);
        assert_eq!(bias.cols, self.cols);
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (x, b) in row.iter_mut().zip(&bias.data) {
                *x += b;
            }
        }
    }

    /// Column sums as a 1-row matrix (bias gradient).
    pub fn col_sums(&self) -> Mat {
        let mut out = Mat::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Sum of squares of all elements.
    pub fn sq_norm(&self) -> f64 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum()
    }

    /// `C = A @ B` where A is `self` [m,k], B is [k,n].
    pub fn matmul(&self, b: &Mat) -> Mat {
        assert_eq!(
            self.cols,
            b.rows,
            "matmul shape mismatch {:?} x {:?}",
            self.shape(),
            b.shape()
        );
        let mut out = Mat::zeros(self.rows, b.cols);
        gemm_acc(
            &self.data,
            self.rows,
            self.cols,
            &b.data,
            b.cols,
            0,
            b.cols,
            &mut out.data,
        );
        out
    }

    /// `out = A @ B`, overwriting `out` in place (shape-checked; resized
    /// only when the shape changes). The zero-allocation inference paths
    /// use this to keep gate pre-activations in reusable scratch buffers.
    pub fn matmul_into(&self, b: &Mat, out: &mut Mat) {
        assert_eq!(self.cols, b.rows, "matmul_into shape mismatch");
        if out.shape() != (self.rows, b.cols) {
            out.reset(self.rows, b.cols);
        } else {
            out.clear();
        }
        gemm_acc(
            &self.data,
            self.rows,
            self.cols,
            &b.data,
            b.cols,
            0,
            b.cols,
            &mut out.data,
        );
    }

    /// `out += A @ B`, accumulating in place.
    pub fn matmul_acc(&self, b: &Mat, out: &mut Mat) {
        assert_eq!(self.cols, b.rows, "matmul_acc shape mismatch");
        assert_eq!(out.shape(), (self.rows, b.cols), "matmul_acc output shape");
        gemm_acc(
            &self.data,
            self.rows,
            self.cols,
            &b.data,
            b.cols,
            0,
            b.cols,
            &mut out.data,
        );
    }

    /// `out.row(r) = self.row(r) @ B` through the exact batch=1 GEMV
    /// kernel a one-row [`Mat::matmul_into`] dispatches to. The fleet
    /// batching path steps many independent streams held as rows of one
    /// matrix; routing each row through the single-row kernel keeps every
    /// row bit-identical to the stream's sequential batch=1 history —
    /// the packed multi-row micro-kernel has a different accumulation
    /// order and would break bit-exact capsule replay.
    pub fn matmul_row_into(&self, r: usize, b: &Mat, out: &mut Mat) {
        assert_eq!(self.cols, b.rows, "matmul_row shape mismatch");
        assert_eq!(out.shape(), (self.rows, b.cols), "matmul_row output shape");
        let row = &self.data[r * self.cols..(r + 1) * self.cols];
        let orow = &mut out.data[r * b.cols..(r + 1) * b.cols];
        orow.iter_mut().for_each(|x| *x = 0.0);
        gemv_acc(row, &b.data, b.cols, 0, b.cols, orow);
    }

    /// `out.row(r) += self.row(r) @ B` (accumulating twin of
    /// [`Mat::matmul_row_into`], bit-identical to a one-row
    /// [`Mat::matmul_acc`]).
    pub fn matmul_row_acc(&self, r: usize, b: &Mat, out: &mut Mat) {
        assert_eq!(self.cols, b.rows, "matmul_row shape mismatch");
        assert_eq!(out.shape(), (self.rows, b.cols), "matmul_row output shape");
        let row = &self.data[r * self.cols..(r + 1) * self.cols];
        let orow = &mut out.data[r * b.cols..(r + 1) * b.cols];
        gemv_acc(row, &b.data, b.cols, 0, b.cols, orow);
    }

    /// `out.row(r) = self.row(r) @ B` for every `r` in `rows` — the wave
    /// form of [`Mat::matmul_row_into`]. Each row is dispatched exactly as
    /// the single-row kernel would dispatch it (zero-skipping axpy for
    /// near-one-hot rows, dense sweep otherwise), and dense rows are
    /// grouped four and two at a time into fused kernels that share one
    /// sweep of `B` while folding every output element in the identical
    /// k-ascending order. Every row's result is therefore bit-for-bit
    /// what a per-row loop produces, while the weight traffic for an
    /// R-row wave drops toward 1/R — the fleet batching win. Rows must be
    /// distinct (independent stream slots; the wave cut rule upstream
    /// guarantees it, and the fused groups assert it).
    pub fn matmul_rows_into(&self, rows: &[usize], b: &Mat, out: &mut Mat) {
        self.matmul_rows_impl(rows, b, out, true);
    }

    /// `out.row(r) += self.row(r) @ B` for every `r` in `rows`
    /// (accumulating twin of [`Mat::matmul_rows_into`], bit-identical
    /// per row to [`Mat::matmul_row_acc`]).
    pub fn matmul_rows_acc(&self, rows: &[usize], b: &Mat, out: &mut Mat) {
        self.matmul_rows_impl(rows, b, out, false);
    }

    fn matmul_rows_impl(&self, rows: &[usize], b: &Mat, out: &mut Mat, zero_first: bool) {
        assert_eq!(self.cols, b.rows, "matmul_rows shape mismatch");
        assert_eq!(out.shape(), (self.rows, b.cols), "matmul_rows output shape");
        let k = self.cols;
        let n = b.cols;
        // Dense rows wait in `pend` until a fused group fills; sparse rows
        // are cheap enough that sharing B sweeps buys nothing, so they run
        // immediately through the same axpy form `gemv_acc` picks.
        let mut pend = [0usize; 4];
        let mut np = 0;
        for &r in rows {
            let orow = &mut out.data[r * n..(r + 1) * n];
            if zero_first {
                orow.iter_mut().for_each(|x| *x = 0.0);
            }
            let arow = &self.data[r * k..(r + 1) * k];
            let nnz = arow.iter().filter(|&&x| x != 0.0).count();
            if nnz * 4 <= k {
                for (kk, &av) in arow.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &b.data[kk * n..kk * n + n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            } else {
                pend[np] = r;
                np += 1;
                if np == 4 {
                    self.flush_dense4([pend[0], pend[1], pend[2], pend[3]], b, out);
                    np = 0;
                }
            }
        }
        match np {
            0 => {}
            1 => self.flush_dense1(pend[0], b, out),
            2 => self.flush_dense2([pend[0], pend[1]], b, out),
            3 => {
                self.flush_dense2([pend[0], pend[1]], b, out);
                self.flush_dense1(pend[2], b, out);
            }
            _ => unreachable!(),
        }
    }

    fn flush_dense1(&self, r: usize, b: &Mat, out: &mut Mat) {
        let n = b.cols;
        let arow = &self.data[r * self.cols..(r + 1) * self.cols];
        let orow = &mut out.data[r * n..(r + 1) * n];
        simd::gemv_dense_acc(arow, &b.data, n, 0, n, orow);
    }

    fn flush_dense2(&self, rows: [usize; 2], b: &Mat, out: &mut Mat) {
        let k = self.cols;
        let n = b.cols;
        let [o0, o1] = disjoint_rows_mut(&mut out.data, n, rows);
        simd::gemv_dense_acc2(
            [
                &self.data[rows[0] * k..(rows[0] + 1) * k],
                &self.data[rows[1] * k..(rows[1] + 1) * k],
            ],
            &b.data,
            n,
            0,
            n,
            [o0, o1],
        );
    }

    fn flush_dense4(&self, rows: [usize; 4], b: &Mat, out: &mut Mat) {
        let k = self.cols;
        let n = b.cols;
        let [o0, o1, o2, o3] = disjoint_rows_mut(&mut out.data, n, rows);
        simd::gemv_dense_acc4(
            [
                &self.data[rows[0] * k..(rows[0] + 1) * k],
                &self.data[rows[1] * k..(rows[1] + 1) * k],
                &self.data[rows[2] * k..(rows[2] + 1) * k],
                &self.data[rows[3] * k..(rows[3] + 1) * k],
            ],
            &b.data,
            n,
            0,
            n,
            [o0, o1, o2, o3],
        );
    }

    /// `self.row(r) += bias.row(0)` — the per-row form of
    /// [`Mat::add_row_broadcast`], element order identical.
    pub fn add_bias_row(&mut self, r: usize, bias: &Mat) {
        assert_eq!(bias.rows, 1);
        assert_eq!(bias.cols, self.cols);
        let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
        for (x, b) in row.iter_mut().zip(&bias.data) {
            *x += b;
        }
    }

    /// `out = A @ B[:, lo..hi]` without materialising the column slice
    /// (the GRU candidate gate multiplies by one third of its fused weight
    /// matrix every step).
    pub fn matmul_cols_into(&self, b: &Mat, lo: usize, hi: usize, out: &mut Mat) {
        assert_eq!(self.cols, b.rows, "matmul_cols shape mismatch");
        assert!(lo <= hi && hi <= b.cols, "column range out of bounds");
        let n = hi - lo;
        if out.shape() != (self.rows, n) {
            out.reset(self.rows, n);
        } else {
            out.clear();
        }
        gemm_acc(
            &self.data,
            self.rows,
            self.cols,
            &b.data,
            b.cols,
            lo,
            n,
            &mut out.data,
        );
    }

    /// `C = Aᵀ @ B` where A is `self` [k,m], B is [k,n]: zeros plus
    /// [`Mat::t_matmul_acc`].
    pub fn t_matmul(&self, b: &Mat) -> Mat {
        let mut out = Mat::zeros(self.cols, b.cols);
        self.t_matmul_acc(b, &mut out);
        out
    }

    /// `out += Aᵀ @ B` where A is `self` [k,m], B is [k,n] and `out` is
    /// [m,n]: the weight-gradient kernel (`dW += xᵀ dy`), with no
    /// transpose and no temporary. Zero entries of A are skipped (one-hot
    /// inputs make this sparse during training). The result is bitwise
    /// `out += t` where `t` is the k-ascending, zero-skipping sum, under
    /// every kernel backend; see `simd::t_matmul_acc`.
    pub fn t_matmul_acc(&self, b: &Mat, out: &mut Mat) {
        assert_eq!(self.rows, b.rows, "t_matmul_acc shape mismatch");
        assert_eq!(
            out.shape(),
            (self.cols, b.cols),
            "t_matmul_acc output shape"
        );
        simd::t_matmul_acc(
            &self.data,
            &b.data,
            self.rows,
            self.cols,
            b.cols,
            &mut out.data,
        );
    }

    /// `C = A @ Bᵀ` where A is `self` [m,k], B is [n,k]. Used for input
    /// gradients (`dx = dy Wᵀ`). Large shapes transpose-pack B once per
    /// k-block ([`pack_bt`]) and reuse the same register-tiled micro-kernel
    /// as [`Mat::matmul`]; small shapes keep the contiguous-row dot kernel,
    /// where packing overhead would dominate.
    pub fn matmul_t(&self, b: &Mat) -> Mat {
        let mut out = Mat::zeros(0, 0);
        self.matmul_t_into(b, &mut out);
        out
    }

    /// `out = A @ Bᵀ`, overwriting `out` in place (resized only when the
    /// shape changes): [`Mat::matmul_t`] into a reusable buffer.
    pub fn matmul_t_into(&self, b: &Mat, out: &mut Mat) {
        assert_eq!(self.cols, b.cols, "matmul_t shape mismatch");
        let (m, k, n) = (self.rows, self.cols, b.rows);
        let work = m * k * n;
        let par = work >= PAR_FLOP_THRESHOLD;
        if work >= PACK_FLOP_THRESHOLD {
            if out.shape() != (m, n) {
                out.reset(m, n);
            } else {
                out.clear();
            }
            gemm_t_packed_acc(&self.data, k, &b.data, n, &mut out.data, par);
            return;
        }
        if out.shape() != (m, n) {
            out.reset(m, n);
        }
        let body = |r: usize, out_row: &mut [f32]| {
            let a_row = &self.data[r * k..(r + 1) * k];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &b.data[j * k..(j + 1) * k];
                *o = dot_unrolled(a_row, b_row);
            }
        };
        if par {
            out.data
                .par_chunks_mut(n)
                .enumerate()
                .for_each(|(r, row)| body(r, row));
        } else {
            for (r, row) in out.data.chunks_mut(n).enumerate() {
                body(r, row);
            }
        }
    }

    /// Explicit transpose (rarely needed; gradients use the fused kernels).
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Horizontal slice of columns `[lo, hi)` as a new matrix.
    pub fn col_slice(&self, lo: usize, hi: usize) -> Mat {
        assert!(lo <= hi && hi <= self.cols);
        let w = hi - lo;
        let mut out = Mat::zeros(self.rows, w);
        for r in 0..self.rows {
            out.data[r * w..(r + 1) * w]
                .copy_from_slice(&self.data[r * self.cols + lo..r * self.cols + hi]);
        }
        out
    }

    /// Stack matrices with identical column counts vertically.
    pub fn vstack(mats: &[&Mat]) -> Mat {
        assert!(!mats.is_empty());
        let cols = mats[0].cols;
        assert!(mats.iter().all(|m| m.cols == cols));
        let rows = mats.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in mats {
            data.extend_from_slice(&m.data);
        }
        Mat { rows, cols, data }
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Mat, b: &Mat) -> Mat {
        let mut out = Mat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a[(i, k)] * b[(k, j)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    fn approx_eq(a: &Mat, b: &Mat, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    fn test_mat(rows: usize, cols: usize, seed: u64) -> Mat {
        let mut r = desh_util::Xoshiro256pp::seed_from_u64(seed);
        Mat::from_fn(rows, cols, |_, _| r.f32() * 2.0 - 1.0)
    }

    #[test]
    fn matmul_matches_naive() {
        for (m, k, n) in [(1, 1, 1), (2, 3, 4), (7, 5, 9), (16, 16, 16)] {
            let a = test_mat(m, k, 1);
            let b = test_mat(k, n, 2);
            approx_eq(&a.matmul(&b), &naive_matmul(&a, &b), 1e-5);
        }
    }

    #[test]
    fn matmul_packed_path_matches_naive() {
        // Big enough for packing, small enough to stay serial; includes
        // non-multiple-of-tile edges in every dimension.
        for (m, k, n) in [(33, 20, 29), (5, 300, 17), (40, 40, 40)] {
            let a = test_mat(m, k, 3);
            let b = test_mat(k, n, 4);
            approx_eq(&a.matmul(&b), &naive_matmul(&a, &b), 1e-4);
        }
    }

    #[test]
    fn matmul_large_parallel_path() {
        let a = test_mat(80, 70, 3);
        let b = test_mat(70, 90, 4);
        approx_eq(&a.matmul(&b), &naive_matmul(&a, &b), 1e-4);
    }

    #[test]
    fn matmul_gemv_paths_match_naive() {
        // 1×k (row GEMV — the online scoring shape) and k×1 (column GEMV).
        for k in [1usize, 3, 8, 65, 300] {
            let a = test_mat(1, k, 5);
            let b = test_mat(k, 37, 6);
            approx_eq(&a.matmul(&b), &naive_matmul(&a, &b), 1e-4);
            let c = test_mat(9, k, 7);
            let d = test_mat(k, 1, 8);
            approx_eq(&c.matmul(&d), &naive_matmul(&c, &d), 1e-4);
        }
    }

    #[test]
    fn matmul_sparse_one_hot_rows() {
        // One-hot A rows exercise the zero-skipping paths exactly like the
        // phase-2/3 vectorized inputs.
        let mut a = Mat::zeros(16, 120);
        for r in 0..16 {
            a[(r, (r * 7) % 120)] = 1.0;
            a[(r, 0)] = 0.25;
        }
        let b = test_mat(120, 64, 9);
        approx_eq(&a.matmul(&b), &naive_matmul(&a, &b), 1e-5);
        let one_row = Mat::from_vec(1, 120, a.row(3).to_vec());
        approx_eq(&one_row.matmul(&b), &naive_matmul(&one_row, &b), 1e-5);
    }

    #[test]
    fn matmul_into_and_acc_reuse_buffers() {
        let a = test_mat(6, 11, 10);
        let b = test_mat(11, 9, 11);
        let c = test_mat(6, 14, 12);
        let d = test_mat(14, 9, 13);
        let mut out = Mat::full(3, 3, 42.0); // wrong shape: must be resized
        a.matmul_into(&b, &mut out);
        approx_eq(&out, &naive_matmul(&a, &b), 1e-5);
        c.matmul_acc(&d, &mut out);
        let mut expect = naive_matmul(&a, &b);
        expect.add_assign(&naive_matmul(&c, &d));
        approx_eq(&out, &expect, 1e-5);
        // Overwrite again: stale contents must not leak through.
        a.matmul_into(&b, &mut out);
        approx_eq(&out, &naive_matmul(&a, &b), 1e-5);
    }

    #[test]
    fn row_matmul_bit_identical_to_single_row_matmul() {
        // The fleet batching path depends on matmul_row_into/_acc producing
        // exactly the bits a 1-row matmul_into/_acc would — for both the
        // dense GEMV sweep and the zero-skipping one-hot branch.
        let k = 120;
        let n = 64;
        let mut a = test_mat(6, k, 20);
        // Rows 0 and 3 one-hot-sparse to hit the zero-skip branch.
        for &r in &[0usize, 3] {
            for v in a.row_mut(r) {
                *v = 0.0;
            }
            a[(r, (r * 13) % k)] = 1.0;
            a[(r, 2)] = 0.5;
        }
        let b = test_mat(k, n, 21);
        let h = test_mat(6, 40, 22);
        let w = test_mat(40, n, 23);
        let bias = test_mat(1, n, 24);

        let mut out = Mat::full(6, n, f32::NAN);
        for r in 0..6 {
            a.matmul_row_into(r, &b, &mut out);
            h.matmul_row_acc(r, &w, &mut out);
            out.add_bias_row(r, &bias);
        }
        for r in 0..6 {
            let a1 = Mat::from_vec(1, k, a.row(r).to_vec());
            let h1 = Mat::from_vec(1, 40, h.row(r).to_vec());
            let mut e = Mat::zeros(1, n);
            a1.matmul_into(&b, &mut e);
            h1.matmul_acc(&w, &mut e);
            e.add_row_broadcast(&bias);
            assert_eq!(
                out.row(r).iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                e.row(0).iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "row {r} diverged from the 1-row kernel"
            );
        }
    }

    /// The fused wave forms must be bit-identical per row to the per-row
    /// loop they replace, across every grouping the dispatcher can form:
    /// sparse rows interleaved with dense, waves from 1 to 9 rows (quads,
    /// a pair, singles), and both the fused n%64==0 shape and the
    /// fallback shapes.
    #[test]
    fn wave_matmul_bit_identical_to_per_row_loop() {
        for &(k, n) in &[(64usize, 256usize), (40, 64), (33, 50)] {
            let mut a = test_mat(9, k, 30);
            for &r in &[1usize, 4] {
                for v in a.row_mut(r) {
                    *v = 0.0;
                }
                a[(r, (r * 7) % k)] = 1.0;
                a[(r, 1)] = 0.25;
            }
            let b = test_mat(k, n, 31);
            let h = test_mat(9, 48, 32);
            let w = test_mat(48, n, 33);
            for wave in 1..=9usize {
                let rows: Vec<usize> = (0..wave).collect();
                let mut want = Mat::full(9, n, f32::NAN);
                for &r in &rows {
                    a.matmul_row_into(r, &b, &mut want);
                    h.matmul_row_acc(r, &w, &mut want);
                }
                let mut got = Mat::full(9, n, f32::NAN);
                a.matmul_rows_into(&rows, &b, &mut got);
                h.matmul_rows_acc(&rows, &w, &mut got);
                for &r in &rows {
                    assert_eq!(
                        want.row(r).iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        got.row(r).iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "wave {wave} row {r} diverged at {k}x{n}"
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_cols_into_matches_explicit_slice() {
        let a = test_mat(4, 10, 14);
        let b = test_mat(10, 24, 15);
        let mut out = Mat::zeros(0, 0);
        a.matmul_cols_into(&b, 8, 16, &mut out);
        approx_eq(&out, &naive_matmul(&a, &b.col_slice(8, 16)), 1e-5);
        // Batch=1 GEMV flavour of the same.
        let v = test_mat(1, 10, 16);
        v.matmul_cols_into(&b, 8, 16, &mut out);
        approx_eq(&out, &naive_matmul(&v, &b.col_slice(8, 16)), 1e-5);
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let a = test_mat(6, 4, 5);
        let b = test_mat(6, 7, 6);
        approx_eq(&a.t_matmul(&b), &naive_matmul(&a.transpose(), &b), 1e-5);
    }

    #[test]
    fn matmul_t_equals_explicit_transpose() {
        let a = test_mat(5, 8, 7);
        let b = test_mat(9, 8, 8);
        approx_eq(&a.matmul_t(&b), &naive_matmul(&a, &b.transpose()), 1e-5);
        // Also exercise the parallel path.
        let a = test_mat(64, 64, 9);
        let b = test_mat(64, 64, 10);
        approx_eq(&a.matmul_t(&b), &naive_matmul(&a, &b.transpose()), 1e-4);
        // And the transpose-packed path (work >= PACK_FLOP_THRESHOLD),
        // with ragged dimensions so strip/panel tails are covered.
        let a = test_mat(130, 70, 11);
        let b = test_mat(85, 70, 12);
        assert!(a.rows() * a.cols() * b.rows() >= PACK_FLOP_THRESHOLD);
        approx_eq(&a.matmul_t(&b), &naive_matmul(&a, &b.transpose()), 1e-4);
    }

    #[test]
    fn identity_is_neutral() {
        let a = test_mat(4, 4, 11);
        let eye = Mat::from_fn(4, 4, |r, c| if r == c { 1.0 } else { 0.0 });
        approx_eq(&a.matmul(&eye), &a, 0.0);
        approx_eq(&eye.matmul(&a), &a, 0.0);
    }

    #[test]
    fn reset_reuses_allocation_and_zeroes() {
        let mut m = Mat::full(4, 4, 7.0);
        m.reset(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn broadcast_and_col_sums() {
        let mut a = Mat::zeros(3, 2);
        let bias = Mat::from_vec(1, 2, vec![1.0, -2.0]);
        a.add_row_broadcast(&bias);
        assert_eq!(a.row(2), &[1.0, -2.0]);
        let sums = a.col_sums();
        assert_eq!(sums.data(), &[3.0, -6.0]);
    }

    #[test]
    fn col_slice_extracts_gates() {
        let m = Mat::from_fn(2, 8, |r, c| (r * 8 + c) as f32);
        let s = m.col_slice(2, 4);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.row(0), &[2.0, 3.0]);
        assert_eq!(s.row(1), &[10.0, 11.0]);
    }

    #[test]
    fn vstack_concatenates() {
        let a = Mat::full(2, 3, 1.0);
        let b = Mat::full(1, 3, 2.0);
        let v = Mat::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (3, 3));
        assert_eq!(v.row(2), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn axpy_scale_hadamard() {
        let mut a = Mat::full(2, 2, 1.0);
        let b = Mat::full(2, 2, 3.0);
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[7.0; 4]);
        a.scale(0.5);
        assert_eq!(a.data(), &[3.5; 4]);
        let h = a.hadamard(&b);
        assert_eq!(h.data(), &[10.5; 4]);
    }

    #[test]
    fn sq_norm_accumulates_in_f64() {
        let a = Mat::full(10, 10, 2.0);
        assert_eq!(a.sq_norm(), 400.0);
    }

    #[test]
    #[should_panic]
    fn matmul_shape_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(4, 2);
        let _ = a.matmul(&b);
    }
}
