//! Sparse matrix formats: compressed sparse row (CSR) and coordinate
//! (COO) triples.
//!
//! These back the paper's sparse physical implementations: the relational
//! `(rowIndex, colIndex, value)` triple layout maps to [`CooMatrix`] and
//! the CSR single/blocked layouts map to [`CsrMatrix`].

use crate::DenseMatrix;

/// A compressed-sparse-row matrix over `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array of length `rows + 1`.
    indptr: Vec<usize>,
    /// Column index of every stored entry, row by row.
    indices: Vec<usize>,
    /// Stored values aligned with `indices`.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw parts.
    ///
    /// # Panics
    /// Panics when the arrays are inconsistent (wrong `indptr` length,
    /// non-monotone pointers, misaligned values, out-of-range columns).
    pub fn from_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr length must be rows + 1");
        assert_eq!(indices.len(), values.len(), "indices/values misaligned");
        assert_eq!(*indptr.last().unwrap(), indices.len());
        assert!(
            indptr.windows(2).all(|w| w[0] <= w[1]),
            "indptr must be monotone"
        );
        assert!(
            indices.iter().all(|c| *c < cols),
            "column index out of range"
        );
        CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// An empty (all-zero) sparse matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Converts a dense matrix, dropping exact zeros.
    ///
    /// ```
    /// use matopt_kernels::{CsrMatrix, DenseMatrix};
    /// let d = DenseMatrix::from_vec(2, 2, vec![0.0, 3.0, 0.0, 0.0]);
    /// let s = CsrMatrix::from_dense(&d);
    /// assert_eq!(s.nnz(), 1);
    /// assert!(s.to_dense().approx_eq(&d, 0.0));
    /// ```
    pub fn from_dense(m: &DenseMatrix) -> Self {
        let mut indptr = Vec::with_capacity(m.rows() + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for r in 0..m.rows() {
            for (c, v) in m.row(r).iter().enumerate() {
                if *v != 0.0 {
                    indices.push(c);
                    values.push(*v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: m.rows(),
            cols: m.cols(),
            indptr,
            indices,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries stored (0.0 for an empty matrix shape).
    pub fn measured_sparsity(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            0.0
        } else {
            self.nnz() as f64 / total as f64
        }
    }

    /// Iterates over `(row, col, value)` of stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let lo = self.indptr[r];
            let hi = self.indptr[r + 1];
            self.indices[lo..hi]
                .iter()
                .zip(self.values[lo..hi].iter())
                .map(move |(c, v)| (r, *c, *v))
        })
    }

    /// Expands to dense.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            out.set(r, c, v);
        }
        out
    }

    /// Sparse × dense multiply producing a dense matrix.
    ///
    /// This is the kernel behind the engine's sparse matmul
    /// implementations: with a one-hot-style sparse input batch the FLOP
    /// count is proportional to `nnz × rhs.cols()` rather than
    /// `rows × cols × rhs.cols()`. The sweep is row-major: each output
    /// row is finished before the next starts, and every output element
    /// accumulates its terms in ascending stored-entry order.
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch.
    pub fn matmul_dense(&self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            self.cols,
            rhs.rows(),
            "spmm dimension mismatch: {}x{} × {}x{}",
            self.rows,
            self.cols,
            rhs.rows(),
            rhs.cols()
        );
        let n = rhs.cols();
        let mut out = DenseMatrix::zeros(self.rows, n);
        for r in 0..self.rows {
            let lo = self.indptr[r];
            let hi = self.indptr[r + 1];
            let orow = &mut out.data_mut()[r * n..(r + 1) * n];
            for idx in lo..hi {
                let k = self.indices[idx];
                let v = self.values[idx];
                let brow = rhs.row(k);
                for (o, b) in orow.iter_mut().zip(brow.iter()) {
                    *o += v * *b;
                }
            }
        }
        out
    }

    /// Transpose (returns the CSR of the transposed matrix; internally a
    /// CSR→CSC re-bucketing pass).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for c in &self.indices {
            counts[c + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let indptr = counts.clone();
        let mut cursor = counts;
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for (r, c, v) in self.iter() {
            let pos = cursor[c];
            indices[pos] = r;
            values[pos] = v;
            cursor[c] += 1;
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
        }
    }

    /// Elementwise map over the *stored* entries (correct for functions
    /// with `f(0) = 0`, e.g. relu, negation, scaling).
    pub fn map_stored(&self, f: impl Fn(f64) -> f64) -> CsrMatrix {
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            values: self.values.iter().map(|v| f(*v)).collect(),
        }
    }

    /// Hadamard product with a dense matrix, producing a sparse result
    /// with the same pattern as `self`.
    ///
    /// # Panics
    /// Panics on a shape mismatch.
    pub fn hadamard_dense(&self, rhs: &DenseMatrix) -> CsrMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows(), rhs.cols()));
        let mut out = self.clone();
        let mut idx = 0usize;
        for r in 0..self.rows {
            let lo = self.indptr[r];
            let hi = self.indptr[r + 1];
            for i in lo..hi {
                out.values[idx] = self.values[i] * rhs.get(r, self.indices[i]);
                idx += 1;
            }
        }
        out
    }

    /// Extracts the rectangular block at `(r0, c0)` of shape `nr × nc`
    /// (clamped at the boundary) as a CSR matrix.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> CsrMatrix {
        let r1 = (r0 + nr).min(self.rows);
        let c1 = (c0 + nc).min(self.cols);
        let mut indptr = Vec::with_capacity(r1 - r0 + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for r in r0..r1 {
            let lo = self.indptr[r];
            let hi = self.indptr[r + 1];
            for i in lo..hi {
                let c = self.indices[i];
                if c >= c0 && c < c1 {
                    indices.push(c - c0);
                    values.push(self.values[i]);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: r1 - r0,
            cols: c1 - c0,
            indptr,
            indices,
            values,
        }
    }
}

/// A coordinate-format (`(row, col, value)` triples) sparse matrix — the
/// relational triple layout from the paper's introduction.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// Builds a COO matrix from triples.
    ///
    /// # Panics
    /// Panics when an index is out of range.
    pub fn from_triples(rows: usize, cols: usize, entries: Vec<(usize, usize, f64)>) -> Self {
        assert!(
            entries.iter().all(|(r, c, _)| *r < rows && *c < cols),
            "triple index out of range"
        );
        CooMatrix {
            rows,
            cols,
            entries,
        }
    }

    /// Converts a dense matrix, dropping exact zeros.
    pub fn from_dense(m: &DenseMatrix) -> Self {
        let mut entries = Vec::new();
        for r in 0..m.rows() {
            for (c, v) in m.row(r).iter().enumerate() {
                if *v != 0.0 {
                    entries.push((r, c, *v));
                }
            }
        }
        CooMatrix {
            rows: m.rows(),
            cols: m.cols(),
            entries,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored triples.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Borrow the triples.
    pub fn entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Expands to dense, summing duplicate coordinates (relational
    /// semantics: a COO relation is a multiset of triples).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for (r, c, v) in &self.entries {
            let cur = out.get(*r, *c);
            out.set(*r, *c, cur + *v);
        }
        out
    }

    /// Converts to CSR (duplicates summed).
    pub fn to_csr(&self) -> CsrMatrix {
        CsrMatrix::from_dense(&self.to_dense())
    }

    /// Transpose: swap the row and column of every triple.
    pub fn transpose(&self) -> CooMatrix {
        CooMatrix {
            rows: self.cols,
            cols: self.rows,
            entries: self.entries.iter().map(|(r, c, v)| (*c, *r, *v)).collect(),
        }
    }

    /// Adds a dense matrix, producing a dense result.
    ///
    /// # Panics
    /// Panics on a shape mismatch.
    pub fn add_dense(&self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows(), rhs.cols()));
        let mut out = rhs.clone();
        for (r, c, v) in &self.entries {
            let cur = out.get(*r, *c);
            out.set(*r, *c, cur + *v);
        }
        out
    }

    /// Row sums as an `rows × 1` dense vector.
    pub fn row_sums(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, 1);
        for (r, _, v) in &self.entries {
            let cur = out.get(*r, 0);
            out.set(*r, 0, cur + *v);
        }
        out
    }

    /// Column sums as a `1 × cols` dense vector.
    pub fn col_sums(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(1, self.cols);
        for (_, c, v) in &self.entries {
            let cur = out.get(0, *c);
            out.set(0, *c, cur + *v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dense() -> DenseMatrix {
        DenseMatrix::from_vec(
            3,
            4,
            vec![
                1.0, 0.0, 2.0, 0.0, //
                0.0, 0.0, 0.0, 3.0, //
                4.0, 5.0, 0.0, 0.0,
            ],
        )
    }

    #[test]
    fn csr_round_trip() {
        let d = sample_dense();
        let s = CsrMatrix::from_dense(&d);
        assert_eq!(s.nnz(), 5);
        assert!(s.to_dense().approx_eq(&d, 0.0));
    }

    #[test]
    fn coo_round_trip() {
        let d = sample_dense();
        let s = CooMatrix::from_dense(&d);
        assert_eq!(s.nnz(), 5);
        assert!(s.to_dense().approx_eq(&d, 0.0));
        assert!(s.to_csr().to_dense().approx_eq(&d, 0.0));
    }

    #[test]
    fn csr_spmm_matches_dense_matmul() {
        let d = sample_dense();
        let s = CsrMatrix::from_dense(&d);
        let rhs = DenseMatrix::from_fn(4, 3, |r, c| (r + 2 * c) as f64 - 1.5);
        assert!(s.matmul_dense(&rhs).approx_eq(&d.matmul(&rhs), 1e-12));
    }

    #[test]
    fn csr_transpose_matches_dense_transpose() {
        let d = sample_dense();
        let s = CsrMatrix::from_dense(&d);
        assert!(s.transpose().to_dense().approx_eq(&d.transpose(), 0.0));
    }

    #[test]
    fn coo_transpose_swaps_indices() {
        let d = sample_dense();
        let s = CooMatrix::from_dense(&d);
        assert!(s.transpose().to_dense().approx_eq(&d.transpose(), 0.0));
    }

    #[test]
    fn csr_map_stored_scales_values() {
        let s = CsrMatrix::from_dense(&sample_dense());
        let doubled = s.map_stored(|v| v * 2.0);
        assert!(doubled
            .to_dense()
            .approx_eq(&sample_dense().scale(2.0), 0.0));
    }

    #[test]
    fn csr_hadamard_dense_keeps_pattern() {
        let d = sample_dense();
        let s = CsrMatrix::from_dense(&d);
        let other = DenseMatrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64);
        let h = s.hadamard_dense(&other);
        assert_eq!(h.nnz(), s.nnz());
        assert!(h.to_dense().approx_eq(&d.hadamard(&other), 0.0));
    }

    #[test]
    fn coo_add_dense() {
        let d = sample_dense();
        let s = CooMatrix::from_dense(&d);
        let other = DenseMatrix::from_fn(3, 4, |_, _| 1.0);
        assert!(s.add_dense(&other).approx_eq(&d.add(&other), 0.0));
    }

    #[test]
    fn coo_duplicate_triples_sum() {
        let s = CooMatrix::from_triples(2, 2, vec![(0, 0, 1.0), (0, 0, 2.0), (1, 1, 4.0)]);
        let d = s.to_dense();
        assert_eq!(d.get(0, 0), 3.0);
        assert_eq!(d.get(1, 1), 4.0);
    }

    #[test]
    fn coo_row_col_sums() {
        let d = sample_dense();
        let s = CooMatrix::from_dense(&d);
        assert!(s.row_sums().approx_eq(&d.row_sums(), 0.0));
        assert!(s.col_sums().approx_eq(&d.col_sums(), 0.0));
    }

    #[test]
    fn csr_block_matches_dense_block() {
        let d = sample_dense();
        let s = CsrMatrix::from_dense(&d);
        let blk = s.block(1, 1, 2, 2);
        assert!(blk.to_dense().approx_eq(&d.block(1, 1, 2, 2), 0.0));
        // clamped edge block
        let edge = s.block(2, 3, 5, 5);
        assert_eq!((edge.rows(), edge.cols()), (1, 1));
        assert_eq!(edge.to_dense().get(0, 0), 0.0);
    }

    #[test]
    fn csr_sparsity_measurement() {
        let s = CsrMatrix::from_dense(&sample_dense());
        assert!(crate::approx_eq(s.measured_sparsity(), 5.0 / 12.0, 1e-15));
        assert_eq!(CsrMatrix::zeros(3, 3).measured_sparsity(), 0.0);
    }

    #[test]
    #[should_panic(expected = "spmm dimension mismatch")]
    fn csr_spmm_shape_mismatch_panics() {
        let s = CsrMatrix::zeros(2, 3);
        let _ = s.matmul_dense(&DenseMatrix::zeros(2, 2));
    }

    #[test]
    #[should_panic(expected = "triple index out of range")]
    fn coo_rejects_out_of_range() {
        let _ = CooMatrix::from_triples(2, 2, vec![(2, 0, 1.0)]);
    }
}
