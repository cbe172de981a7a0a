//! Physical matrix implementations — the set `P` of the paper (§3) —
//! and the format catalog the optimizer searches over.

use crate::types::{MatrixType, DENSE_ENTRY_BYTES, SPARSE_ENTRY_BYTES, TRIPLE_ENTRY_BYTES};
use crate::Cluster;

/// A physical matrix implementation: how a matrix is laid out as a
/// relation of tuples in the distributed engine.
///
/// Mirrors the storage specifications of §3 — "single tuple",
/// "tile-based with 500 by 500 tiles", "row strips with rows of height
/// 50" — plus the sparse layouts of §7/§9 (relational triples, CSR).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhysFormat {
    /// The whole (dense) matrix stored in one tuple.
    SingleTuple,
    /// Horizontal strips of `height` rows; relation keyed by `tileRow`.
    RowStrip {
        /// Strip height in rows.
        height: u64,
    },
    /// Vertical strips of `width` columns; relation keyed by `tileCol`.
    ColStrip {
        /// Strip width in columns.
        width: u64,
    },
    /// Square `side × side` dense tiles; relation keyed by
    /// `(tileRow, tileCol)`.
    Tile {
        /// Tile edge length.
        side: u64,
    },
    /// Relational `(rowIndex, colIndex, value)` triples.
    Coo,
    /// The whole matrix as one compressed-sparse-row payload in one
    /// tuple.
    CsrSingle,
    /// Square CSR blocks; relation keyed by `(tileRow, tileCol)`.
    CsrTile {
        /// Tile edge length.
        side: u64,
    },
}

impl PhysFormat {
    /// `true` for the dense chunked layouts (strips and tiles).
    pub fn is_chunked_dense(&self) -> bool {
        matches!(
            self,
            PhysFormat::RowStrip { .. } | PhysFormat::ColStrip { .. } | PhysFormat::Tile { .. }
        )
    }

    /// `true` for any dense layout (single tuple, strips, tiles).
    pub fn is_dense(&self) -> bool {
        self.is_chunked_dense() || matches!(self, PhysFormat::SingleTuple)
    }

    /// `true` for the sparse layouts.
    pub fn is_sparse(&self) -> bool {
        !self.is_dense()
    }

    /// The edge of one chunk: a tile's side, a strip's height or width;
    /// `None` for the one-tuple and COO layouts.
    pub fn chunk_edge(&self) -> Option<u64> {
        match *self {
            PhysFormat::RowStrip { height: e }
            | PhysFormat::ColStrip { width: e }
            | PhysFormat::Tile { side: e }
            | PhysFormat::CsrTile { side: e } => Some(e),
            PhysFormat::SingleTuple | PhysFormat::Coo | PhysFormat::CsrSingle => None,
        }
    }

    /// Number of tuples a matrix of type `m` occupies in this layout.
    ///
    /// For chunked layouts this is the chunk-grid size (ragged edge
    /// chunks count); for COO it is the estimated non-zero count, since
    /// every triple is its own tuple.
    pub fn num_tuples(&self, m: &MatrixType) -> f64 {
        match self {
            PhysFormat::SingleTuple | PhysFormat::CsrSingle => 1.0,
            PhysFormat::RowStrip { height } => div_ceil(m.rows, *height) as f64,
            PhysFormat::ColStrip { width } => div_ceil(m.cols, *width) as f64,
            PhysFormat::Tile { side } | PhysFormat::CsrTile { side } => {
                (div_ceil(m.rows, *side) * div_ceil(m.cols, *side)) as f64
            }
            PhysFormat::Coo => m.nnz().max(1.0),
        }
    }

    /// Total bytes a matrix of type `m` occupies in this layout.
    pub fn total_bytes(&self, m: &MatrixType) -> f64 {
        match self {
            PhysFormat::SingleTuple
            | PhysFormat::RowStrip { .. }
            | PhysFormat::ColStrip { .. }
            | PhysFormat::Tile { .. } => m.entries() * DENSE_ENTRY_BYTES,
            PhysFormat::CsrSingle | PhysFormat::CsrTile { .. } => m.nnz() * SPARSE_ENTRY_BYTES,
            PhysFormat::Coo => m.nnz() * TRIPLE_ENTRY_BYTES,
        }
    }

    /// Bytes of the largest single tuple of a matrix of type `m` in this
    /// layout.
    pub fn max_tuple_bytes(&self, m: &MatrixType) -> f64 {
        match self {
            PhysFormat::SingleTuple => m.entries() * DENSE_ENTRY_BYTES,
            PhysFormat::RowStrip { height } => {
                (*height).min(m.rows) as f64 * m.cols as f64 * DENSE_ENTRY_BYTES
            }
            PhysFormat::ColStrip { width } => {
                m.rows as f64 * (*width).min(m.cols) as f64 * DENSE_ENTRY_BYTES
            }
            PhysFormat::Tile { side } => {
                let s = *side as f64;
                (s * s * DENSE_ENTRY_BYTES).min(m.entries() * DENSE_ENTRY_BYTES)
            }
            PhysFormat::Coo => TRIPLE_ENTRY_BYTES,
            PhysFormat::CsrSingle => m.nnz() * SPARSE_ENTRY_BYTES,
            PhysFormat::CsrTile { side } => {
                let s = *side as f64;
                // Sparse tiles store roughly a proportional share of nnz.
                (s * s * m.sparsity * SPARSE_ENTRY_BYTES).min(m.nnz() * SPARSE_ENTRY_BYTES)
            }
        }
    }

    /// Whether this layout can physically implement a matrix of type `m`
    /// on the given cluster — the paper's matrix-type specification
    /// function `p.f(m)` (§3).
    ///
    /// Rules:
    /// * every tuple must fit in the engine's `max_tuple_bytes`;
    /// * chunked layouts must produce more than one chunk (otherwise
    ///   they degenerate to `SingleTuple` and are excluded to keep the
    ///   search space free of duplicates);
    /// * sparse layouts require the matrix to actually be sparse
    ///   (estimated sparsity below [`SPARSE_FORMAT_THRESHOLD`]).
    pub fn feasible(&self, m: &MatrixType, cluster: &Cluster) -> bool {
        if m.rows == 0 || m.cols == 0 {
            return false;
        }
        if self.max_tuple_bytes(m) > cluster.max_tuple_bytes {
            return false;
        }
        match self {
            PhysFormat::SingleTuple => true,
            PhysFormat::RowStrip { height } => *height >= 1 && *height < m.rows,
            PhysFormat::ColStrip { width } => *width >= 1 && *width < m.cols,
            PhysFormat::Tile { side } => *side >= 1 && (*side < m.rows || *side < m.cols),
            PhysFormat::Coo | PhysFormat::CsrSingle => m.sparsity < SPARSE_FORMAT_THRESHOLD,
            PhysFormat::CsrTile { side } => {
                m.sparsity < SPARSE_FORMAT_THRESHOLD
                    && *side >= 1
                    && (*side < m.rows || *side < m.cols)
            }
        }
    }
}

/// Matrices denser than this are never stored in a sparse layout.
pub const SPARSE_FORMAT_THRESHOLD: f64 = 0.5;

impl std::fmt::Display for PhysFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhysFormat::SingleTuple => write!(f, "single"),
            PhysFormat::RowStrip { height } => write!(f, "rowstrip({height})"),
            PhysFormat::ColStrip { width } => write!(f, "colstrip({width})"),
            PhysFormat::Tile { side } => write!(f, "tile({side})"),
            PhysFormat::Coo => write!(f, "coo"),
            PhysFormat::CsrSingle => write!(f, "csr-single"),
            PhysFormat::CsrTile { side } => write!(f, "csr-tile({side})"),
        }
    }
}

fn div_ceil(a: u64, b: u64) -> u64 {
    a.div_ceil(b.max(1))
}

/// The finite set of physical implementations the optimizer searches
/// over.
///
/// The paper's prototype exposes 19 physical matrix implementations
/// ([`FormatCatalog::paper_default`]) and §8.4 additionally evaluates two
/// restricted catalogs — single + strips + blocks (16 formats,
/// [`FormatCatalog::single_strip_block`]) and single + blocks (10,
/// [`FormatCatalog::single_block`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatCatalog {
    formats: Vec<PhysFormat>,
}

/// Square tile edges offered by the default catalog.
pub const DEFAULT_TILE_SIDES: [u64; 9] = [100, 250, 500, 1000, 2500, 5000, 10000, 20000, 40000];
/// Strip sizes (row heights and column widths) offered by the default
/// catalog.
pub const DEFAULT_STRIP_SIZES: [u64; 3] = [100, 1000, 10000];

impl FormatCatalog {
    /// Builds a catalog from an explicit format list.
    pub fn new(formats: Vec<PhysFormat>) -> Self {
        FormatCatalog { formats }
    }

    /// The full 19-format catalog of the paper's prototype.
    pub fn paper_default() -> Self {
        let mut formats = vec![PhysFormat::SingleTuple];
        formats.extend(
            DEFAULT_TILE_SIDES
                .iter()
                .map(|s| PhysFormat::Tile { side: *s }),
        );
        formats.extend(
            DEFAULT_STRIP_SIZES
                .iter()
                .map(|h| PhysFormat::RowStrip { height: *h }),
        );
        formats.extend(
            DEFAULT_STRIP_SIZES
                .iter()
                .map(|w| PhysFormat::ColStrip { width: *w }),
        );
        formats.push(PhysFormat::Coo);
        formats.push(PhysFormat::CsrSingle);
        formats.push(PhysFormat::CsrTile { side: 1000 });
        FormatCatalog { formats }
    }

    /// The 16-format "single/strip/block" catalog of §8.4.
    pub fn single_strip_block() -> Self {
        let mut c = Self::paper_default();
        c.formats.retain(|f| f.is_dense());
        c
    }

    /// The 10-format "single/block" catalog of §8.4.
    pub fn single_block() -> Self {
        let mut c = Self::paper_default();
        c.formats
            .retain(|f| matches!(f, PhysFormat::SingleTuple | PhysFormat::Tile { .. }));
        c
    }

    /// Restricts the catalog to dense layouts — the "no sparsity"
    /// configuration of Figure 12.
    pub fn dense_only(&self) -> Self {
        let mut c = self.clone();
        c.formats.retain(|f| f.is_dense());
        c
    }

    /// All formats in the catalog, feasible or not.
    pub fn formats(&self) -> &[PhysFormat] {
        &self.formats
    }

    /// Number of formats in the catalog.
    pub fn len(&self) -> usize {
        self.formats.len()
    }

    /// `true` when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.formats.is_empty()
    }

    /// The feasible candidate formats for a matrix of type `m` on
    /// `cluster` — the domain the dynamic programs iterate `ρ` over.
    ///
    /// ```
    /// use matopt_core::{Cluster, FormatCatalog, MatrixType, PhysFormat};
    /// let catalog = FormatCatalog::paper_default();
    /// let cluster = Cluster::simsql_like(10);
    /// // An 80 GB dense matrix cannot live in one tuple...
    /// let big = MatrixType::dense(100_000, 100_000);
    /// let candidates = catalog.candidates(&big, &cluster);
    /// assert!(!candidates.contains(&PhysFormat::SingleTuple));
    /// // ...but 1000x1000 tiles work fine.
    /// assert!(candidates.contains(&PhysFormat::Tile { side: 1000 }));
    /// ```
    pub fn candidates(&self, m: &MatrixType, cluster: &Cluster) -> Vec<PhysFormat> {
        self.formats
            .iter()
            .filter(|f| f.feasible(m, cluster))
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_catalog_counts_match_section_8_4() {
        assert_eq!(FormatCatalog::paper_default().len(), 19);
        assert_eq!(FormatCatalog::single_strip_block().len(), 16);
        assert_eq!(FormatCatalog::single_block().len(), 10);
    }

    #[test]
    fn forty_gb_matrix_cannot_be_single_tuple() {
        // The paper's example: a 1e5 × 1e5 dense matrix is 80 GB and must
        // not be storable in one tuple.
        let m = MatrixType::dense(100_000, 100_000);
        let c = Cluster::simsql_like(10);
        assert!(!PhysFormat::SingleTuple.feasible(&m, &c));
        assert!(PhysFormat::Tile { side: 1000 }.feasible(&m, &c));
    }

    #[test]
    fn chunked_formats_require_more_than_one_chunk() {
        let m = MatrixType::dense(50, 50);
        let c = Cluster::simsql_like(10);
        assert!(!PhysFormat::Tile { side: 100 }.feasible(&m, &c));
        assert!(!PhysFormat::RowStrip { height: 100 }.feasible(&m, &c));
        assert!(PhysFormat::SingleTuple.feasible(&m, &c));
    }

    #[test]
    fn sparse_formats_require_sparse_matrices() {
        let dense = MatrixType::dense(10_000, 10_000);
        let sparse = MatrixType::sparse(10_000, 10_000, 1e-4);
        let c = Cluster::simsql_like(10);
        assert!(!PhysFormat::Coo.feasible(&dense, &c));
        assert!(PhysFormat::Coo.feasible(&sparse, &c));
        assert!(PhysFormat::CsrSingle.feasible(&sparse, &c));
        assert!(PhysFormat::CsrTile { side: 1000 }.feasible(&sparse, &c));
    }

    #[test]
    fn tuple_counts() {
        let m = MatrixType::dense(20_000, 20_000);
        assert_eq!(PhysFormat::SingleTuple.num_tuples(&m), 1.0);
        assert_eq!(PhysFormat::Tile { side: 1000 }.num_tuples(&m), 400.0);
        assert_eq!(PhysFormat::RowStrip { height: 1000 }.num_tuples(&m), 20.0);
        assert_eq!(PhysFormat::ColStrip { width: 100 }.num_tuples(&m), 200.0);
        // ragged tiling rounds up
        let r = MatrixType::dense(1500, 2500);
        assert_eq!(PhysFormat::Tile { side: 1000 }.num_tuples(&r), 6.0);
    }

    #[test]
    fn byte_accounting() {
        let m = MatrixType::sparse(1000, 1000, 0.01);
        assert_eq!(PhysFormat::Tile { side: 100 }.total_bytes(&m), 8e6);
        assert_eq!(PhysFormat::CsrSingle.total_bytes(&m), 16.0 * 1e4);
        assert_eq!(PhysFormat::Coo.total_bytes(&m), 24.0 * 1e4);
    }

    #[test]
    fn candidates_filter_by_feasibility() {
        let cat = FormatCatalog::paper_default();
        let cl = Cluster::simsql_like(10);
        // A dense 10K square matrix: no sparse formats, no over-size or
        // degenerate chunkings.
        let m = MatrixType::dense(10_000, 10_000);
        let cands = cat.candidates(&m, &cl);
        assert!(cands.contains(&PhysFormat::SingleTuple));
        assert!(cands.contains(&PhysFormat::Tile { side: 1000 }));
        assert!(!cands.contains(&PhysFormat::Coo));
        assert!(!cands.contains(&PhysFormat::Tile { side: 10000 })); // degenerate: 1 chunk
        assert!(cands.contains(&PhysFormat::Tile { side: 5000 }));
    }

    #[test]
    fn vector_candidates_exclude_row_strips() {
        let cat = FormatCatalog::paper_default();
        let cl = Cluster::simsql_like(10);
        let v = MatrixType::dense(1, 50_000);
        let cands = cat.candidates(&v, &cl);
        assert!(cands
            .iter()
            .all(|f| !matches!(f, PhysFormat::RowStrip { .. })));
        assert!(cands.contains(&PhysFormat::ColStrip { width: 1000 }));
    }

    #[test]
    fn dense_only_strips_sparse_formats() {
        let cat = FormatCatalog::paper_default().dense_only();
        assert_eq!(cat.len(), 16);
        assert!(cat.formats().iter().all(|f| f.is_dense()));
    }
}
