//! Row-major dense matrices and the compute kernels over them.

use std::fmt;
use std::sync::Arc;

/// A dense, row-major, `f64` matrix.
///
/// This is the workhorse value type of the execution engine: every chunk
/// of every physical layout (tiles, strips, single-tuple matrices)
/// ultimately stores its dense payload as a `DenseMatrix`.
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DenseMatrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            writeln!(f)?;
            for r in 0..self.rows {
                write!(f, "  [")?;
                for c in 0..self.cols {
                    if c > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{:.4}", self.get(r, c))?;
                }
                writeln!(f, "]")?;
            }
        }
        Ok(())
    }
}

/// GEMM micro-tile edge: block size used by the cache-blocked
/// reference multiply.
const GEMM_BLOCK: usize = 64;

/// Register microkernel tile: `MR × NR` accumulators stay in vector
/// registers across the k loop. With AVX-512 in the target the tile is
/// 6×16, held by the [`zmm`] kernel as twelve eight-wide `zmm`
/// accumulators beside the two-vector B row and the A broadcast.
/// Without it the tile is 6×8, whose twelve four-wide accumulators
/// leave room in AVX2's sixteen registers; a 6×16 tile there would
/// spill every k step. The tile decides only which elements one kernel
/// call computes, never the order an element's terms are summed in, so
/// both widths give the same bits.
const MR: usize = 6;
const NR: usize = if cfg!(target_feature = "avx512f") {
    16
} else {
    8
};

/// k-dimension block depth: panels are consumed in `KC`-deep slices so
/// one A slice (`MR·KC` doubles, 12 KB) plus one B slice (`NR·KC`
/// doubles, 16 KB at `NR` = 8, 32 KB at 16) stay L1-resident while the
/// microkernel streams them.
const KC: usize = 256;

/// Row-block height (a multiple of `MR`): the packed `MC×KC` A block
/// (~192 KB) a `KC`-slice works over stays L2-resident while every B
/// panel slice sweeps across it. Without this blocking each row panel
/// re-streams the whole packed B from memory, which saturates bandwidth
/// long before the FMA units — at 1024³ that is ~1.4 GB of B traffic
/// versus ~100 MB blocked.
const MC: usize = 96;

/// With the `parallel` feature, products at least this large
/// (`2·m·k·n` flops, ≈ a 200³ GEMM) fan out over `MC`-row blocks on the
/// shared pool; smaller ones stay on the calling thread, which also
/// keeps chunk-granular products serial inside already-parallel
/// executor batches.
#[cfg(feature = "parallel")]
const PAR_MIN_FLOPS: u64 = 16_000_000;

/// Fused multiply-add when the build target has hardware FMA (see
/// `.cargo/config.toml`), plain multiply-add otherwise — without the
/// `fma` target feature `f64::mul_add` lowers to a libm call that is
/// far slower than the multiply it fuses.
#[inline(always)]
fn fmadd(acc: f64, a: f64, b: f64) -> f64 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// Packs `b` (row-major `k × n`) into column panels of width `NR`:
/// panel `p` covers columns `p*NR..p*NR+NR` and stores element
/// `(kk, c)` at `p*k*NR + kk*NR + c`. Columns past `n` are zero, so
/// the microkernel can always read full panels.
fn pack_b_panels(b: &[f64], k: usize, n: usize) -> Vec<f64> {
    let np = n.div_ceil(NR);
    let mut packed = vec![0.0; np * k * NR];
    for p in 0..np {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        let panel = &mut packed[p * k * NR..(p + 1) * k * NR];
        for kk in 0..k {
            let brow = &b[kk * n + j0..kk * n + j0 + w];
            panel[kk * NR..kk * NR + w].copy_from_slice(brow);
        }
    }
    packed
}

/// Packs every `MR`-row panel of `a` (row-major `m × k`) into
/// k-major order: panel `ip` covers rows `ip*MR..ip*MR+MR` and stores
/// element `(kk, r)` at `ip*k*MR + kk*MR + r`. Rows past `m` are
/// zero-padded so the microkernel can always read full panels.
fn pack_a_panels(a: &[f64], m: usize, k: usize) -> Vec<f64> {
    let mp = m.div_ceil(MR);
    let mut packed = vec![0.0; mp * k * MR];
    for ip in 0..mp {
        let i0 = ip * MR;
        let h = MR.min(m - i0);
        let panel = &mut packed[ip * k * MR..(ip + 1) * k * MR];
        for r in 0..h {
            let arow = &a[(i0 + r) * k..(i0 + r + 1) * k];
            for (kk, v) in arow.iter().enumerate() {
                panel[kk * MR + r] = *v;
            }
        }
    }
    packed
}

/// Register-blocked `MR×NR` microkernel: multiplies a `kc`-deep slice
/// of one packed A row panel with the matching slice of one packed B
/// column panel into `acc`, which holds the partial sums of earlier
/// slices (zeros for the first).
///
/// With `FUSED` each update is one fused multiply-add — the packed
/// kernel. Without it each update is a rounded multiply then a rounded
/// add, skipped where the A element is zero: exactly the arithmetic of
/// [`DenseMatrix::matmul_reference`], for products of packed operands
/// too small for the packed kernel.
///
/// On an AVX-512 target the fused kernel is [`zmm::fused`], written
/// with `std::arch` intrinsics: LLVM prefers 256-bit vectors on such
/// CPUs, so the portable loop below would leave half of each FMA unit
/// idle. Elsewhere, and for the unfused arithmetic, the portable loop
/// runs on a local copy of `acc`, written back once. Updated through
/// the `&mut` instead, every accumulator stays in memory and is stored
/// on each k step, one store per multiply-add, which bounds the loop
/// by stores rather than by the FMA units. `inline(never)` is
/// deliberate: compiled standalone, the copy lives in registers and
/// LLVM's SLP vectorizer turns the updates into broadcast-FMA
/// instructions; inlined into the panel loop it degrades to scalar
/// FMAs. The call overhead is amortized over the `kc` loop.
#[inline(never)]
fn microkernel<const FUSED: bool>(
    acc: &mut [[f64; NR]; MR],
    apack: &[f64],
    bpanel: &[f64],
    kc: usize,
) {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    if FUSED {
        return zmm::fused(acc, apack, bpanel, kc);
    }
    let mut c = *acc;
    for (a, b) in apack.chunks_exact(MR).zip(bpanel.chunks_exact(NR)).take(kc) {
        for r in 0..MR {
            let ar = a[r];
            if FUSED {
                for j in 0..NR {
                    c[r][j] = fmadd(c[r][j], ar, b[j]);
                }
            } else if ar != 0.0 {
                for j in 0..NR {
                    c[r][j] += ar * b[j];
                }
            }
        }
    }
    *acc = c;
}

/// The fused 6×16 microkernel on 512-bit registers, the crate's only
/// `unsafe` code: `std::arch` offers no safe load of a vector from a
/// slice.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[allow(unsafe_code)]
mod zmm {
    use std::arch::x86_64::{
        __m512d, _mm512_fmadd_pd, _mm512_loadu_pd, _mm512_set1_pd, _mm512_storeu_pd,
    };

    use super::{MR, NR};

    const _: () = assert!(MR == 6 && NR == 16, "the zmm kernel holds a 6×16 tile");

    /// [`super::microkernel`]'s fused arithmetic with the tile in twelve
    /// `zmm` accumulators, two per row. Each k step loads the B row as
    /// two vectors, broadcasts each A element and issues
    /// `_mm512_fmadd_pd(a, b, c)` — `a·b + c` rounded once, the
    /// operation `f64::mul_add` performs — in ascending k, so every
    /// element gets the bits of the portable kernel.
    #[inline(always)]
    pub(super) fn fused(acc: &mut [[f64; NR]; MR], apack: &[f64], bpanel: &[f64], kc: usize) {
        assert!(
            apack.len() / MR >= kc && bpanel.len() / NR >= kc,
            "packed slices shorter than kc = {kc} steps"
        );
        let (ap, bp) = (apack.as_ptr(), bpanel.as_ptr());
        let mut c: [[__m512d; 2]; MR] = acc.map(|row| {
            // SAFETY: each row of `acc` is `NR` = 16 contiguous f64s, so
            // both eight-wide unaligned loads, at 0 and 8, are in bounds.
            unsafe {
                [
                    _mm512_loadu_pd(row.as_ptr()),
                    _mm512_loadu_pd(row[8..].as_ptr()),
                ]
            }
        });
        for kk in 0..kc {
            // SAFETY: kk < kc and the assert above gives
            // `bpanel.len() >= kc·NR`, so the two eight-wide loads at
            // `kk·NR` and `kk·NR + 8` read inside `bpanel`, and
            // `apack.len() >= kc·MR` puts every `kk·MR + r`, r < MR,
            // inside `apack`. The assert divides rather than multiplies,
            // so no overflow can weaken it.
            unsafe {
                let b0 = _mm512_loadu_pd(bp.add(kk * NR));
                let b1 = _mm512_loadu_pd(bp.add(kk * NR + 8));
                for (r, row) in c.iter_mut().enumerate() {
                    let a = _mm512_set1_pd(*ap.add(kk * MR + r));
                    row[0] = _mm512_fmadd_pd(a, b0, row[0]);
                    row[1] = _mm512_fmadd_pd(a, b1, row[1]);
                }
            }
        }
        for (row, v) in acc.iter_mut().zip(c) {
            // SAFETY: as for the loads, both eight-wide stores land inside
            // the row's sixteen f64s.
            unsafe {
                _mm512_storeu_pd(row.as_mut_ptr(), v[0]);
                _mm512_storeu_pd(row[8..].as_mut_ptr(), v[1]);
            }
        }
    }
}

/// Computes output rows `i0..i0+mblk` (an `MC` block, `i0` a multiple
/// of `MC`) into `out_rows` (row-major, width `n`, local row 0 =
/// global row `i0`). Loop order is `pc → jr → ir`: one `KC`-deep B
/// panel slice (L1) is reused across every row panel of the block
/// while the block's packed A slice stays L2-resident.
///
/// Partial sums for `pc > 0` round-trip through `out_rows`, which is
/// exact for `f64`; every output element still accumulates its `k`
/// terms in plain ascending order with the same update, so the result
/// is bit-identical however the blocks are swept, however wide the
/// register tile and however many threads sweep them.
///
/// With `ADD` the product is added into `out_rows` instead: each
/// register tile, computed from 0.0, is summed onto the elements it
/// covers with one rounding each — the bits of the product followed by
/// [`DenseMatrix::add_assign`]. That needs the whole product in one
/// slice, so `ADD` requires `0 < k <= KC`.
fn gemm_mc_block<const FUSED: bool, const ADD: bool>(
    apack: &[f64],
    bpack: &[f64],
    i0: usize,
    mblk: usize,
    k: usize,
    n: usize,
    out_rows: &mut [f64],
) {
    let np = n.div_ceil(NR);
    for (pc, kb) in (0..k).step_by(KC).enumerate() {
        let kcur = KC.min(k - kb);
        for p in 0..np {
            let j0 = p * NR;
            let w = NR.min(n - j0);
            let bslice = &bpack[p * k * NR + kb * NR..];
            for ir in (0..mblk).step_by(MR) {
                let h = MR.min(mblk - ir);
                let aslice = &apack[(i0 + ir) / MR * (k * MR) + kb * MR..];
                let mut acc = [[0.0f64; NR]; MR];
                if pc > 0 {
                    for r in 0..h {
                        let row = &out_rows[(ir + r) * n + j0..(ir + r) * n + j0 + w];
                        acc[r][..w].copy_from_slice(row);
                    }
                }
                microkernel::<FUSED>(&mut acc, aslice, bslice, kcur);
                for r in 0..h {
                    let row = &mut out_rows[(ir + r) * n + j0..(ir + r) * n + j0 + w];
                    if ADD {
                        for (o, v) in row.iter_mut().zip(&acc[r]) {
                            *o += v;
                        }
                    } else {
                        row.copy_from_slice(&acc[r][..w]);
                    }
                }
            }
        }
    }
}

/// Sweeps `MC`-row blocks of an `m × k` by `k × n` product of packed
/// panels into `out` (row-major `m × n`; every element is overwritten,
/// or with `ADD` summed onto as [`gemm_mc_block`] says), fanning out
/// over the shared pool for large products when the `parallel` feature
/// is on.
fn gemm_panels<const FUSED: bool, const ADD: bool>(
    apack: &Arc<Vec<f64>>,
    bpack: &Arc<Vec<f64>>,
    (m, k, n): (usize, usize, usize),
    out: &mut [f64],
) {
    debug_assert!(
        !ADD || (1..=KC).contains(&k),
        "an added product is one KC slice"
    );
    if k == 0 {
        out.fill(0.0);
        return;
    }
    #[cfg(feature = "parallel")]
    {
        let flops = 2u64
            .saturating_mul(m as u64)
            .saturating_mul(k as u64)
            .saturating_mul(n as u64);
        let pool = matopt_pool::Pool::global();
        if pool.parallelism() > 1 && flops >= PAR_MIN_FLOPS {
            let apack = Arc::clone(apack);
            let bpack = Arc::clone(bpack);
            let results = pool.map(m.div_ceil(MC), move |blk| {
                let i0 = blk * MC;
                let mblk = MC.min(m - i0);
                let mut rows = vec![0.0; mblk * n];
                gemm_mc_block::<FUSED, false>(&apack, &bpack, i0, mblk, k, n, &mut rows);
                rows
            });
            for (blk, rows) in results.into_iter().enumerate() {
                let i0 = blk * MC;
                let dst = &mut out[i0 * n..i0 * n + rows.len()];
                if ADD {
                    for (o, v) in dst.iter_mut().zip(&rows) {
                        *o += v;
                    }
                } else {
                    dst.copy_from_slice(&rows);
                }
            }
            return;
        }
    }
    for i0 in (0..m).step_by(MC) {
        let mblk = MC.min(m - i0);
        gemm_mc_block::<FUSED, ADD>(
            apack,
            bpack,
            i0,
            mblk,
            k,
            n,
            &mut out[i0 * n..(i0 + mblk) * n],
        );
    }
}

/// `true` when a product of this shape is worth routing through the
/// packed kernel: m ≥ 6, n ≥ 8, k ≥ 6 and at least 36 864 multiply-adds
/// (about a 33³ product); below that the packing overhead outweighs the
/// microkernel and [`DenseMatrix::matmul`] uses the blocked reference
/// kernel. The bounds are the 6×8 tile's and stay literal whatever the
/// tile is: the predicate picks each product's arithmetic (fused or
/// not), so moving it would move output bits.
fn worth_packing(m: usize, k: usize, n: usize) -> bool {
    m >= 6 && n >= 8 && k >= 6 && m.saturating_mul(k).saturating_mul(n) >= 36_864
}

/// Which side of a product a [`PackedOperand`] was packed for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Side {
    Lhs,
    Rhs,
}

/// One GEMM operand copied into the panel layout the packed kernel
/// streams, so a matrix that takes part in several products — a tile
/// in a tile join, a broadcast matrix against every strip — is packed
/// once instead of once per product.
///
/// An operand is packed for one side of a product
/// ([`PackedOperand::lhs`] or [`PackedOperand::rhs`]). Its products are
/// bit-identical to [`DenseMatrix::matmul`] on the unpacked matrices:
/// shapes worth packing run the fused packed kernel, the rest the
/// reference kernel's rounded multiply-then-add, both over the panels.
///
/// ```
/// use matopt_kernels::{DenseMatrix, PackedOperand};
/// let a = DenseMatrix::from_fn(40, 30, |r, c| (r + c) as f64);
/// let b = DenseMatrix::from_fn(30, 50, |r, c| (r * c) as f64);
/// let pa = PackedOperand::lhs(&a);
/// assert_eq!(pa.matmul(&PackedOperand::rhs(&b)), a.matmul(&b));
/// ```
pub struct PackedOperand {
    rows: usize,
    cols: usize,
    side: Side,
    panels: Arc<Vec<f64>>,
}

impl PackedOperand {
    /// Packs `a` as the left operand of products `a × b`.
    pub fn lhs(a: &DenseMatrix) -> Self {
        PackedOperand {
            rows: a.rows,
            cols: a.cols,
            side: Side::Lhs,
            panels: Arc::new(pack_a_panels(&a.data, a.rows, a.cols)),
        }
    }

    /// Packs `b` as the right operand of products `a × b`.
    pub fn rhs(b: &DenseMatrix) -> Self {
        PackedOperand {
            rows: b.rows,
            cols: b.cols,
            side: Side::Rhs,
            panels: Arc::new(pack_b_panels(&b.data, b.rows, b.cols)),
        }
    }

    /// The product `self × rhs`, bit-identical to
    /// [`DenseMatrix::matmul`] on the unpacked matrices.
    ///
    /// # Panics
    /// Panics when `self` is not a left operand, `rhs` not a right one,
    /// or the inner dimensions disagree.
    pub fn matmul(&self, rhs: &PackedOperand) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols);
        let shape = self.check_product(rhs, &out);
        if worth_packing(shape.0, shape.1, shape.2) {
            gemm_panels::<true, false>(&self.panels, &rhs.panels, shape, &mut out.data);
        } else {
            gemm_panels::<false, false>(&self.panels, &rhs.panels, shape, &mut out.data);
        }
        out
    }

    /// `out += self × rhs`, with the bits of [`PackedOperand::matmul`]
    /// followed by [`DenseMatrix::add_assign`]. A product that passes
    /// the size gate with `k <= KC` (256) adds each register tile into
    /// `out` as it leaves the kernel, with no product matrix and no
    /// second pass over `out`; any other product takes exactly that
    /// pair.
    ///
    /// ```
    /// use matopt_kernels::{DenseMatrix, PackedOperand};
    /// let a = DenseMatrix::from_fn(40, 30, |r, c| (r + c) as f64);
    /// let b = DenseMatrix::from_fn(30, 50, |r, c| (r * c) as f64);
    /// let (pa, pb) = (PackedOperand::lhs(&a), PackedOperand::rhs(&b));
    /// let mut sum = pa.matmul(&pb);
    /// pa.matmul_add_into(&pb, &mut sum);
    /// assert_eq!(sum, a.matmul(&b).scale(2.0));
    /// ```
    ///
    /// # Panics
    /// As [`PackedOperand::matmul`], and when `out` is not
    /// `self.rows() × rhs.cols()`.
    pub fn matmul_add_into(&self, rhs: &PackedOperand, out: &mut DenseMatrix) {
        let shape = self.check_product(rhs, out);
        if shape.1 <= KC && worth_packing(shape.0, shape.1, shape.2) {
            gemm_panels::<true, true>(&self.panels, &rhs.panels, shape, &mut out.data);
        } else {
            out.add_assign(&self.matmul(rhs));
        }
    }

    /// Asserts `self × rhs → out` is well formed; returns `(m, k, n)`.
    fn check_product(&self, rhs: &PackedOperand, out: &DenseMatrix) -> (usize, usize, usize) {
        assert!(
            self.side == Side::Lhs && rhs.side == Side::Rhs,
            "packed operands multiply as lhs × rhs, got {:?} × {:?}",
            self.side,
            rhs.side
        );
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, rhs.cols),
            "product output shape mismatch"
        );
        (self.rows, self.cols, rhs.cols)
    }
}

impl DenseMatrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix of the given order.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "dense payload length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        DenseMatrix { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        DenseMatrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the row-major backing storage.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the row-major backing storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reads the entry at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Writes the entry at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The fraction of entries that are non-zero (1.0 = fully dense).
    pub fn measured_sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let nnz = self.data.iter().filter(|v| **v != 0.0).count();
        nnz as f64 / self.data.len() as f64
    }

    /// Matrix multiply `self × rhs`.
    ///
    /// Products worth packing (m ≥ 6, n ≥ 8, k ≥ 6 and at least ~33³
    /// multiply-adds) go through the
    /// packed, register-blocked microkernel
    /// ([`DenseMatrix::matmul_packed`]); small or degenerate shapes
    /// fall back to the cache-blocked reference kernel
    /// ([`DenseMatrix::matmul_reference`]).
    ///
    /// ```
    /// use matopt_kernels::DenseMatrix;
    /// let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
    /// let i = DenseMatrix::identity(2);
    /// assert!(a.matmul(&i).approx_eq(&a, 0.0));
    /// ```
    ///
    /// # Panics
    /// Panics when the inner dimensions disagree.
    pub fn matmul(&self, rhs: &DenseMatrix) -> DenseMatrix {
        if worth_packing(self.rows, self.cols, rhs.cols) {
            self.matmul_packed(rhs)
        } else {
            self.matmul_reference(rhs)
        }
    }

    /// The historical cache-blocked i-k-j GEMM: no packing, no fused
    /// multiply-add. Kept as the correctness oracle and the baseline
    /// the packed kernel's speedup is measured against.
    ///
    /// # Panics
    /// Panics when the inner dimensions disagree.
    pub fn matmul_reference(&self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols);
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        // Blocked i-k-j traversal: the inner j-loop streams a row of rhs
        // and a row of out, which is optimal for row-major storage.
        // (Indexed loops are intentional here: the blocking structure is
        // clearer than nested iterator adapters.)
        #[allow(clippy::needless_range_loop)]
        for ib in (0..m).step_by(GEMM_BLOCK) {
            let imax = (ib + GEMM_BLOCK).min(m);
            for kb in (0..k).step_by(GEMM_BLOCK) {
                let kmax = (kb + GEMM_BLOCK).min(k);
                for jb in (0..n).step_by(GEMM_BLOCK) {
                    let jmax = (jb + GEMM_BLOCK).min(n);
                    for i in ib..imax {
                        let arow = &self.data[i * k..(i + 1) * k];
                        let orow = &mut out.data[i * n..(i + 1) * n];
                        for kk in kb..kmax {
                            let aik = arow[kk];
                            if aik == 0.0 {
                                continue;
                            }
                            let brow = &rhs.data[kk * n..(kk + 1) * n];
                            for j in jb..jmax {
                                orow[j] += aik * brow[j];
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Packed GEMM: copies B into `NR`-wide column panels and A into
    /// k-major `MR`-row panels, then drives the register-blocked
    /// fused-multiply-add microkernel (6×16 with AVX-512, 6×8 without)
    /// over cache-blocked (`MC×KC` = 96×256) sweeps, whatever the
    /// shape. With the `parallel` feature enabled, row blocks fan out
    /// over the shared work-stealing pool for large products; results
    /// are bit-identical to the serial packed path because every output
    /// element accumulates its `k` terms in the same ascending order
    /// regardless of thread count.
    ///
    /// # Panics
    /// Panics when the inner dimensions disagree.
    pub fn matmul_packed(&self, rhs: &DenseMatrix) -> DenseMatrix {
        let (a, b) = (PackedOperand::lhs(self), PackedOperand::rhs(rhs));
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols);
        let shape = a.check_product(&b, &out);
        gemm_panels::<true, false>(&a.panels, &b.panels, shape, &mut out.data);
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        // Block the traversal so both source and destination stay cache
        // resident for large matrices.
        const B: usize = 32;
        for rb in (0..self.rows).step_by(B) {
            for cb in (0..self.cols).step_by(B) {
                for r in rb..(rb + B).min(self.rows) {
                    for c in cb..(cb + B).min(self.cols) {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Elementwise binary combination with another matrix of equal shape.
    ///
    /// # Panics
    /// Panics when shapes differ.
    pub fn zip_with(&self, rhs: &DenseMatrix, f: impl Fn(f64, f64) -> f64) -> DenseMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "elementwise shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| f(*a, *b))
            .collect();
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise sum.
    pub fn add(&self, rhs: &DenseMatrix) -> DenseMatrix {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// In-place elementwise sum: `self += rhs`. Avoids the fresh
    /// allocation [`DenseMatrix::add`] pays, which matters when a
    /// tile-product accumulator is folded over many partials.
    ///
    /// # Panics
    /// Panics when shapes differ.
    pub fn add_assign(&mut self, rhs: &DenseMatrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "elementwise shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += *b;
        }
    }

    /// Elementwise difference.
    pub fn sub(&self, rhs: &DenseMatrix) -> DenseMatrix {
        self.zip_with(rhs, |a, b| a - b)
    }

    /// Hadamard (elementwise) product.
    pub fn hadamard(&self, rhs: &DenseMatrix) -> DenseMatrix {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| f(*v)).collect(),
        }
    }

    /// Multiply every entry by a scalar.
    pub fn scale(&self, alpha: f64) -> DenseMatrix {
        self.map(|v| v * alpha)
    }

    /// Elementwise negation.
    pub fn neg(&self) -> DenseMatrix {
        self.map(|v| -v)
    }

    /// Rectified linear unit: `max(v, 0)` elementwise.
    pub fn relu(&self) -> DenseMatrix {
        self.map(|v| if v > 0.0 { v } else { 0.0 })
    }

    /// Derivative of relu: `1` where the entry is positive, else `0`.
    pub fn relu_grad(&self) -> DenseMatrix {
        self.map(|v| if v > 0.0 { 1.0 } else { 0.0 })
    }

    /// Logistic sigmoid elementwise.
    pub fn sigmoid(&self) -> DenseMatrix {
        self.map(|v| 1.0 / (1.0 + (-v).exp()))
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> DenseMatrix {
        self.map(|v| v.exp())
    }

    /// Numerically-stable row-wise softmax.
    ///
    /// Each row is shifted by its maximum before exponentiation so very
    /// large activations do not overflow.
    pub fn softmax_rows(&self) -> DenseMatrix {
        let mut out = self.clone();
        for r in 0..self.rows {
            let row = &mut out.data[r * self.cols..(r + 1) * self.cols];
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
        out
    }

    /// Column vector containing the sum of each row (an `rows × 1` matrix).
    pub fn row_sums(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, 1);
        for r in 0..self.rows {
            out.data[r] = self.row(r).iter().sum();
        }
        out
    }

    /// Row vector containing the sum of each column (a `1 × cols` matrix).
    pub fn col_sums(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(1, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for (c, v) in row.iter().enumerate() {
                out.data[c] += *v;
            }
        }
        out
    }

    /// Adds a `1 × cols` row vector to every row (bias addition).
    ///
    /// # Panics
    /// Panics when `bias` is not `1 × self.cols()`.
    pub fn add_row_broadcast(&self, bias: &DenseMatrix) -> DenseMatrix {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        let mut out = self.clone();
        for r in 0..self.rows {
            let row = &mut out.data[r * self.cols..(r + 1) * self.cols];
            for (v, b) in row.iter_mut().zip(bias.data.iter()) {
                *v += *b;
            }
        }
        out
    }

    /// Copies the rectangular block starting at `(r0, c0)` of shape
    /// `nr × nc`, clamping at the matrix boundary (edge blocks of a tiling
    /// may therefore be smaller than requested).
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> DenseMatrix {
        let r1 = (r0 + nr).min(self.rows);
        let c1 = (c0 + nc).min(self.cols);
        assert!(r0 <= r1 && c0 <= c1, "block origin out of range");
        let mut out = DenseMatrix::zeros(r1 - r0, c1 - c0);
        for (i, r) in (r0..r1).enumerate() {
            let src = &self.data[r * self.cols + c0..r * self.cols + c1];
            out.data[i * out.cols..(i + 1) * out.cols].copy_from_slice(src);
        }
        out
    }

    /// Writes `block` into this matrix with its top-left corner at
    /// `(r0, c0)`.
    ///
    /// # Panics
    /// Panics when the block does not fit.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &DenseMatrix) {
        assert!(
            r0 + block.rows <= self.rows && c0 + block.cols <= self.cols,
            "block does not fit at ({r0},{c0})"
        );
        for r in 0..block.rows {
            let dst_off = (r0 + r) * self.cols + c0;
            self.data[dst_off..dst_off + block.cols].copy_from_slice(block.row(r));
        }
    }

    /// Reassembles a matrix of shape `rows × cols` from blocks keyed by
    /// their tile coordinates, where tile `(i, j)` has its top-left corner
    /// at `(i * tile_rows, j * tile_cols)`.
    pub fn from_blocks(
        rows: usize,
        cols: usize,
        tile_rows: usize,
        tile_cols: usize,
        blocks: impl IntoIterator<Item = ((usize, usize), DenseMatrix)>,
    ) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(rows, cols);
        for ((ti, tj), b) in blocks {
            out.set_block(ti * tile_rows, tj * tile_cols, &b);
        }
        out
    }

    /// Frobenius norm of the difference with `rhs`, used by tests to
    /// compare plans executed under different layouts.
    pub fn frobenius_distance(&self, rhs: &DenseMatrix) -> f64 {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        self.data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// `true` when every entry matches `rhs` within `tol` (relative for
    /// large magnitudes, absolute near zero).
    pub fn approx_eq(&self, rhs: &DenseMatrix, tol: f64) -> bool {
        if (self.rows, self.cols) != (rhs.rows, rhs.cols) {
            return false;
        }
        self.data
            .iter()
            .zip(rhs.data.iter())
            .all(|(a, b)| crate::approx_eq(*a, *b, tol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    #[test]
    fn matmul_small_known_values() {
        let a = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = DenseMatrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_matches_naive_on_non_block_multiple_dims() {
        let a = DenseMatrix::from_fn(67, 129, |r, c| ((r * 31 + c * 7) % 13) as f64 - 6.0);
        let b = DenseMatrix::from_fn(129, 71, |r, c| ((r * 17 + c * 3) % 11) as f64 - 5.0);
        let fast = a.matmul(&b);
        let slow = naive_matmul(&a, &b);
        assert!(fast.approx_eq(&slow, 1e-12));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = DenseMatrix::from_fn(5, 5, |r, c| (r * 5 + c) as f64);
        let i = DenseMatrix::identity(5);
        assert!(a.matmul(&i).approx_eq(&a, 0.0));
        assert!(i.matmul(&a).approx_eq(&a, 0.0));
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_dimension_mismatch_panics() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn packed_matches_reference_on_odd_shapes() {
        // Shapes chosen to exercise every panel-edge case: dimensions
        // that are not multiples of MR/NR, thin edges barely over the
        // register tile, and a square block. Packed uses FMA while the
        // reference kernel rounds each multiply and add separately, so
        // the comparison is approximate.
        for (m, k, n) in [
            (67, 129, 71),
            (4, 257, 4),
            (5, 4, 9),
            (64, 64, 64),
            (33, 7, 130),
        ] {
            let a = DenseMatrix::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 13) as f64 - 6.0);
            let b = DenseMatrix::from_fn(k, n, |r, c| ((r * 17 + c * 3) % 11) as f64 - 5.0);
            let packed = a.matmul_packed(&b);
            let reference = a.matmul_reference(&b);
            assert!(
                packed.approx_eq(&reference, 1e-12),
                "packed vs reference mismatch at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn matmul_dispatch_follows_the_size_gate() {
        // Thin or tiny products are the reference kernel, everything
        // else the packed one — bit for bit, so the gate is observable
        // — and either way the result agrees with the naive oracle.
        for (m, k, n, packed) in [
            (4, 40, 40, false),
            (40, 40, 5, false),
            (16, 16, 16, false),
            (40, 40, 40, true),
            // n in 8..16: narrower than a 6×16 tile, still packed when
            // the gate says so — the gate does not follow the tile.
            (40, 200, 8, true),
            (40, 40, 12, false),
            (96, 40, 12, true),
            (6, 512, 15, true),
            (5, 512, 15, false),
            (40, 100, 7, false),
            (100, 6, 64, true),
            (100, 5, 100, false),
        ] {
            assert_eq!(worth_packing(m, k, n), packed, "{m}x{k}x{n}");
            let a = DenseMatrix::from_fn(m, k, |r, c| ((r * 5 + c) % 7) as f64 / 3.0 - 1.0);
            let b = DenseMatrix::from_fn(k, n, |r, c| ((r * 3 + c * 11) % 5) as f64 / 7.0 - 0.3);
            let gated = if packed {
                a.matmul_packed(&b)
            } else {
                a.matmul_reference(&b)
            };
            assert_eq!(a.matmul(&b).data(), gated.data(), "{m}x{k}x{n}");
            assert!(gated.approx_eq(&naive_matmul(&a, &b), 1e-12));
        }
    }

    #[test]
    fn packed_handles_degenerate_and_zero_dims() {
        let a = DenseMatrix::zeros(0, 5);
        let b = DenseMatrix::zeros(5, 4);
        let c = a.matmul_packed(&b);
        assert_eq!((c.rows(), c.cols()), (0, 4));
        let a = DenseMatrix::from_fn(6, 5, |r, c| (r + c) as f64);
        let b = DenseMatrix::zeros(5, 0);
        let c = a.matmul_packed(&b);
        assert_eq!((c.rows(), c.cols()), (6, 0));
    }

    #[test]
    fn add_assign_matches_add() {
        let a = DenseMatrix::from_fn(9, 7, |r, c| (r * 7 + c) as f64);
        let b = DenseMatrix::from_fn(9, 7, |r, c| ((r + c) % 3) as f64 - 1.0);
        let mut acc = a.clone();
        acc.add_assign(&b);
        assert!(acc.approx_eq(&a.add(&b), 0.0));
    }

    #[test]
    fn transpose_involution() {
        let a = DenseMatrix::from_fn(33, 65, |r, c| (r * 65 + c) as f64);
        assert!(a.transpose().transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn transpose_swaps_entries() {
        let a = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 1), a.get(1, 2));
    }

    #[test]
    fn elementwise_ops() {
        let a = DenseMatrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]);
        let b = DenseMatrix::from_vec(1, 3, vec![4.0, 5.0, -6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 3.0, -3.0]);
        assert_eq!(a.sub(&b).data(), &[-3.0, -7.0, 9.0]);
        assert_eq!(a.hadamard(&b).data(), &[4.0, -10.0, -18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, -4.0, 6.0]);
        assert_eq!(a.neg().data(), &[-1.0, 2.0, -3.0]);
    }

    #[test]
    fn relu_and_grad() {
        let a = DenseMatrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -3.0]);
        assert_eq!(a.relu().data(), &[0.0, 0.0, 2.0, 0.0]);
        assert_eq!(a.relu_grad().data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn sigmoid_midpoint_and_saturation() {
        let a = DenseMatrix::from_vec(1, 3, vec![0.0, 100.0, -100.0]);
        let s = a.sigmoid();
        assert!(crate::approx_eq(s.get(0, 0), 0.5, 1e-12));
        assert!(s.get(0, 1) > 0.999_999);
        assert!(s.get(0, 2) < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_are_stable() {
        let a = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f64 = s.row(r).iter().sum();
            assert!(crate::approx_eq(sum, 1.0, 1e-12), "row {r} sums to {sum}");
        }
        // The huge-activation row must not produce NaNs.
        assert!(s.data().iter().all(|v| v.is_finite()));
        assert!(crate::approx_eq(s.get(1, 0), 1.0 / 3.0, 1e-12));
    }

    #[test]
    fn row_and_col_sums() {
        let a = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.row_sums().data(), &[6.0, 15.0]);
        assert_eq!(a.col_sums().data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn bias_broadcast() {
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = DenseMatrix::from_vec(1, 2, vec![10.0, 20.0]);
        assert_eq!(a.add_row_broadcast(&b).data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn block_extraction_and_reassembly_round_trip() {
        let a = DenseMatrix::from_fn(10, 14, |r, c| (r * 14 + c) as f64);
        let (tr, tc) = (4, 5);
        let mut blocks = Vec::new();
        for ti in 0..10usize.div_ceil(tr) {
            for tj in 0..14usize.div_ceil(tc) {
                blocks.push(((ti, tj), a.block(ti * tr, tj * tc, tr, tc)));
            }
        }
        // Edge blocks are clamped.
        assert_eq!(blocks.last().unwrap().1.cols(), 14 - 2 * tc);
        let re = DenseMatrix::from_blocks(10, 14, tr, tc, blocks);
        assert!(re.approx_eq(&a, 0.0));
    }

    #[test]
    fn measured_sparsity() {
        let a = DenseMatrix::from_vec(1, 4, vec![0.0, 1.0, 0.0, 2.0]);
        assert_eq!(a.measured_sparsity(), 0.5);
        assert_eq!(DenseMatrix::zeros(2, 2).measured_sparsity(), 0.0);
    }

    #[test]
    fn exp_matches_scalar_exp() {
        let a = DenseMatrix::from_vec(1, 2, vec![0.0, 1.0]);
        let e = a.exp();
        assert!(crate::approx_eq(e.get(0, 0), 1.0, 1e-15));
        assert!(crate::approx_eq(e.get(0, 1), std::f64::consts::E, 1e-15));
    }
}
