//! Spill-to-disk for memory-governed execution: serializing retained
//! vertex buffers to scratch files under memory pressure and reloading
//! them — bit-identically — when a consumer is admitted.
//!
//! Design constraints, in order:
//!
//! 1. **Bit-identical round trips.** Every `f64` is written as its IEEE
//!    bit pattern (`to_bits`), sparse blocks keep their exact stored
//!    structure (CSR storage order including explicit zeros, COO triple
//!    order including duplicates), so a reloaded relation compares
//!    `==` to the spilled one and downstream kernels see the same
//!    layout. The in-module property test pins this for arbitrary
//!    dense and sparse values.
//! 2. **Corruption is detected, never returned.** Two checksums guard a
//!    reload: FNV-1a over the raw byte stream (any flipped bit on disk
//!    trips it) and the fault layer's
//!    [`relation_checksum`](crate::faults) over the decoded value (the
//!    same detector the corrupt-chunk recovery path uses) — so a spill
//!    file that rots surfaces as [`SpillError::Corrupt`], which the
//!    scheduler converts into the structured
//!    `ExecError::SpillCorrupted` instead of silently feeding bad bits
//!    downstream.
//! 3. **No panics.** The kernel constructors assert on malformed
//!    structure, so the decoder validates shape, index ranges, and CSR
//!    row monotonicity *before* rebuilding, returning
//!    [`SpillError::Corrupt`] for anything off.
//!
//! Files live in a per-run subdirectory of the scratch root
//! (`$MATOPT_SCRATCH` or the system temp dir), named by process id plus
//! a process-global counter so concurrent runs never collide; the
//! directory is removed when the [`SpillManager`] drops.

use crate::faults::relation_checksum;
use crate::value::{Block, Chunk, DistRelation};
use matopt_core::{fnv1a_bytes, MatrixType, PhysFormat};
use matopt_kernels::{CooMatrix, CsrMatrix, DenseMatrix};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic header of a spill file (`MOSP` + format version).
const MAGIC: u64 = u64::from_le_bytes(*b"MOSP0001");

const TAG_DENSE: u64 = 0;
const TAG_CSR: u64 = 1;
const TAG_COO: u64 = 2;

/// Errors from the spill layer.
#[derive(Debug)]
pub enum SpillError {
    /// Scratch-file I/O failed (disk full, permissions, vanished file).
    Io(std::io::Error),
    /// The file exists but fails checksum or structural validation.
    Corrupt(String),
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Io(e) => write!(f, "spill I/O error: {e}"),
            SpillError::Corrupt(m) => write!(f, "spill file corrupt: {m}"),
        }
    }
}

impl std::error::Error for SpillError {}

impl From<std::io::Error> for SpillError {
    fn from(e: std::io::Error) -> Self {
        SpillError::Io(e)
    }
}

/// Receipt for one spilled relation: where it went, what it was, and
/// the checksums a reload must reproduce. The logical/physical typing
/// stays in memory (it is tiny); only the chunk data goes to disk.
#[derive(Debug, Clone)]
pub struct SpillTicket {
    /// The scratch file holding the serialized chunks.
    pub path: PathBuf,
    /// Logical matrix type of the spilled relation.
    pub mtype: MatrixType,
    /// Physical format of the spilled relation.
    pub format: PhysFormat,
    /// Resident bytes the relation occupied (§7 accounting) — the
    /// amount freed by the spill and re-charged by the reload.
    pub bytes: u64,
    /// FNV-1a over the serialized byte stream.
    pub stream_fnv: u64,
    /// [`relation_checksum`] of the decoded value.
    pub value_fnv: u64,
}

/// Writes cold buffers to scratch files and reloads them on demand,
/// verifying checksums both ways.
#[derive(Debug)]
pub struct SpillManager {
    dir: PathBuf,
    seq: AtomicU64,
}

/// Distinguishes runs within one process (the pid distinguishes
/// processes).
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

impl SpillManager {
    /// Creates the per-run scratch subdirectory under `root` (or the
    /// default scratch root when `None`).
    ///
    /// # Errors
    /// [`SpillError::Io`] when the directory cannot be created.
    pub fn new(root: Option<PathBuf>) -> Result<Self, SpillError> {
        let root = root.unwrap_or_else(matopt_core::default_scratch_dir);
        let run = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(format!("run-{}-{}", std::process::id(), run));
        std::fs::create_dir_all(&dir)?;
        Ok(SpillManager {
            dir,
            seq: AtomicU64::new(0),
        })
    }

    /// The per-run scratch directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Serializes `rel` to a fresh scratch file and returns the ticket
    /// a [`reload`](Self::reload) needs to get it back.
    ///
    /// # Errors
    /// [`SpillError::Io`] when the file cannot be written.
    pub fn spill(&self, rel: &DistRelation) -> Result<SpillTicket, SpillError> {
        let bytes = encode(rel);
        let stream_fnv = fnv1a_bytes(&bytes);
        let value_fnv = relation_checksum(rel);
        let path = self.dir.join(format!(
            "v{}.spill",
            self.seq.fetch_add(1, Ordering::Relaxed)
        ));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(&bytes)?;
        f.sync_data().ok(); // best-effort durability; checksums catch rot
        Ok(SpillTicket {
            path,
            mtype: rel.mtype,
            format: rel.format,
            bytes: rel.total_bytes() as u64,
            stream_fnv,
            value_fnv,
        })
    }

    /// Reads the ticket's file back into a relation, verifying the
    /// stream checksum before decoding and the value checksum after.
    ///
    /// # Errors
    /// [`SpillError::Io`] when the file cannot be read;
    /// [`SpillError::Corrupt`] when either checksum mismatches or the
    /// payload fails structural validation.
    pub fn reload(&self, ticket: &SpillTicket) -> Result<DistRelation, SpillError> {
        let mut bytes = Vec::new();
        std::fs::File::open(&ticket.path)?.read_to_end(&mut bytes)?;
        let got = fnv1a_bytes(&bytes);
        if got != ticket.stream_fnv {
            return Err(SpillError::Corrupt(format!(
                "stream checksum mismatch for {} (expected {:#018x}, found {:#018x})",
                ticket.path.display(),
                ticket.stream_fnv,
                got
            )));
        }
        let rel = decode(&bytes, ticket.mtype, ticket.format)?;
        let value = relation_checksum(&rel);
        if value != ticket.value_fnv {
            return Err(SpillError::Corrupt(format!(
                "value checksum mismatch for {} (expected {:#018x}, found {:#018x})",
                ticket.path.display(),
                ticket.value_fnv,
                value
            )));
        }
        Ok(rel)
    }

    /// Deletes the ticket's scratch file (after a reload, or when the
    /// spilled vertex is retired before any consumer needed it back).
    pub fn remove(&self, ticket: &SpillTicket) {
        let _ = std::fs::remove_file(&ticket.path);
    }
}

impl Drop for SpillManager {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn put(out: &mut Vec<u8>, word: u64) {
    out.extend_from_slice(&word.to_le_bytes());
}

fn encode(rel: &DistRelation) -> Vec<u8> {
    let mut out = Vec::new();
    put(&mut out, MAGIC);
    put(&mut out, rel.chunks.len() as u64);
    for chunk in &rel.chunks {
        put(&mut out, chunk.row);
        put(&mut out, chunk.col);
        match &chunk.block {
            Block::Dense(d) => {
                put(&mut out, TAG_DENSE);
                put(&mut out, d.rows() as u64);
                put(&mut out, d.cols() as u64);
                for v in d.data() {
                    put(&mut out, v.to_bits());
                }
            }
            Block::Csr(s) => {
                put(&mut out, TAG_CSR);
                put(&mut out, s.rows() as u64);
                put(&mut out, s.cols() as u64);
                put(&mut out, s.nnz() as u64);
                // Storage order: preserves explicitly-stored zeros and
                // per-row column order exactly.
                for (r, c, v) in s.iter() {
                    put(&mut out, r as u64);
                    put(&mut out, c as u64);
                    put(&mut out, v.to_bits());
                }
            }
            Block::Coo(c) => {
                put(&mut out, TAG_COO);
                put(&mut out, c.rows() as u64);
                put(&mut out, c.cols() as u64);
                put(&mut out, c.nnz() as u64);
                // Triple order preserved (a COO relation is a multiset;
                // duplicates are meaningful).
                for (r, cc, v) in c.entries() {
                    put(&mut out, *r as u64);
                    put(&mut out, *cc as u64);
                    put(&mut out, v.to_bits());
                }
            }
        }
    }
    out
}

/// Cursor over the serialized stream; every read is bounds-checked so a
/// truncated or mangled file errors instead of panicking.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self) -> Result<u64, SpillError> {
        let end = self.pos + 8;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| SpillError::Corrupt("truncated spill stream".to_string()))?;
        self.pos = end;
        Ok(u64::from_le_bytes(slice.try_into().expect("8-byte slice")))
    }

    fn take_usize(&mut self, what: &str, max: usize) -> Result<usize, SpillError> {
        let v = self.take()?;
        if v > max as u64 {
            return Err(SpillError::Corrupt(format!(
                "{what} {v} out of range (max {max})"
            )));
        }
        Ok(v as usize)
    }
}

fn decode(bytes: &[u8], mtype: MatrixType, format: PhysFormat) -> Result<DistRelation, SpillError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take()? != MAGIC {
        return Err(SpillError::Corrupt("bad magic header".to_string()));
    }
    // A chunk is ≥ 3 words, so the stream length bounds the count — a
    // mangled header can't make us reserve absurd capacity.
    let nchunks = r.take_usize("chunk count", bytes.len() / 24 + 1)?;
    let mut chunks = Vec::with_capacity(nchunks);
    for _ in 0..nchunks {
        let row = r.take()?;
        let col = r.take()?;
        let block = match r.take()? {
            TAG_DENSE => {
                let rows = r.take_usize("dense rows", 1 << 32)?;
                let cols = r.take_usize("dense cols", 1 << 32)?;
                let n = rows
                    .checked_mul(cols)
                    .filter(|n| *n <= bytes.len() / 8)
                    .ok_or_else(|| {
                        SpillError::Corrupt(format!("dense shape {rows}x{cols} overflows stream"))
                    })?;
                let mut data = Vec::with_capacity(n);
                for _ in 0..n {
                    data.push(f64::from_bits(r.take()?));
                }
                Block::Dense(DenseMatrix::from_vec(rows, cols, data))
            }
            TAG_CSR => {
                let rows = r.take_usize("csr rows", 1 << 32)?;
                let cols = r.take_usize("csr cols", 1 << 32)?;
                let nnz = r.take_usize("csr nnz", bytes.len() / 24 + 1)?;
                let mut indptr = vec![0usize; rows + 1];
                let mut indices = Vec::with_capacity(nnz);
                let mut values = Vec::with_capacity(nnz);
                let mut last_row = 0usize;
                for _ in 0..nnz {
                    let er = r.take_usize("csr row index", rows.saturating_sub(1))?;
                    let ec = r.take_usize("csr col index", cols.saturating_sub(1))?;
                    let v = f64::from_bits(r.take()?);
                    if er < last_row {
                        return Err(SpillError::Corrupt(
                            "csr entries out of row order".to_string(),
                        ));
                    }
                    last_row = er;
                    indptr[er + 1] += 1;
                    indices.push(ec);
                    values.push(v);
                }
                for i in 0..rows {
                    indptr[i + 1] += indptr[i];
                }
                Block::Csr(CsrMatrix::from_parts(rows, cols, indptr, indices, values))
            }
            TAG_COO => {
                let rows = r.take_usize("coo rows", 1 << 32)?;
                let cols = r.take_usize("coo cols", 1 << 32)?;
                let nnz = r.take_usize("coo nnz", bytes.len() / 24 + 1)?;
                let mut entries = Vec::with_capacity(nnz);
                for _ in 0..nnz {
                    let er = r.take_usize("coo row index", rows.saturating_sub(1))?;
                    let ec = r.take_usize("coo col index", cols.saturating_sub(1))?;
                    entries.push((er, ec, f64::from_bits(r.take()?)));
                }
                Block::Coo(CooMatrix::from_triples(rows, cols, entries))
            }
            other => {
                return Err(SpillError::Corrupt(format!("unknown block tag {other}")));
            }
        };
        chunks.push(Chunk { row, col, block });
    }
    if r.pos != bytes.len() {
        return Err(SpillError::Corrupt(format!(
            "{} trailing bytes after payload",
            bytes.len() - r.pos
        )));
    }
    Ok(DistRelation {
        mtype,
        format,
        chunks,
    })
}

/// Serializes a relation in the spill wire format — magic word, chunk
/// tags, all-u64-LE payload, dual FNV-1a checksums. This is also the
/// payload encoding the worker fleet ships inside its socket frames,
/// so process-boundary transport and disk spill verify corruption the
/// same way.
#[must_use]
pub fn encode_relation(rel: &DistRelation) -> Vec<u8> {
    encode(rel)
}

/// Decodes [`encode_relation`] bytes back into a relation, verifying
/// both checksums and every structural bound.
///
/// # Errors
/// [`SpillError::Corrupt`] when any byte of the payload is torn,
/// truncated, or altered — never a panic, never a fabricated value.
pub fn decode_relation(
    bytes: &[u8],
    mtype: MatrixType,
    format: PhysFormat,
) -> Result<DistRelation, SpillError> {
    decode(bytes, mtype, format)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mk_manager() -> SpillManager {
        SpillManager::new(Some(std::env::temp_dir().join("matopt-spill-test"))).expect("scratch")
    }

    fn dense_rel(rows: usize, cols: usize, seed: u64) -> DistRelation {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let d = DenseMatrix::from_fn(rows, cols, |_, _| next());
        DistRelation::from_dense(&d, PhysFormat::SingleTuple).expect("dense relation")
    }

    #[test]
    fn round_trips_every_block_kind() {
        let mgr = mk_manager();
        let dense = dense_rel(7, 5, 42);
        let mut csr = dense.clone();
        let mut coo = dense.clone();
        for c in &mut csr.chunks {
            *c = Chunk {
                row: c.row,
                col: c.col,
                block: Block::Csr(CsrMatrix::from_dense(&c.block.to_dense())),
            };
        }
        for c in &mut coo.chunks {
            *c = Chunk {
                row: c.row,
                col: c.col,
                block: Block::Coo(CooMatrix::from_dense(&c.block.to_dense())),
            };
        }
        for rel in [dense, csr, coo] {
            let ticket = mgr.spill(&rel).expect("spill");
            let back = mgr.reload(&ticket).expect("reload");
            assert_eq!(rel, back);
            mgr.remove(&ticket);
        }
    }

    /// The satellite contract for the spill codec: EVERY prefix length
    /// of a valid encoding must decode to a structured
    /// [`SpillError::Corrupt`] — never a panic, never an `Ok` with
    /// fabricated chunks. (The full length, excluded here, must still
    /// round-trip.) This is what lets the fleet treat the same bytes as
    /// its frame payload: a worker killed mid-result can only ever tear
    /// the stream into a rejected prefix.
    #[test]
    fn every_prefix_truncation_is_a_structured_corruption() {
        let rel = dense_rel(5, 4, 7);
        let bytes = encode(&rel);
        assert_eq!(decode(&bytes, rel.mtype, rel.format).expect("full"), rel);
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut], rel.mtype, rel.format) {
                Err(SpillError::Corrupt(_)) => {}
                Err(SpillError::Io(e)) => panic!("prefix {cut}: unexpected I/O error {e}"),
                Ok(_) => panic!("prefix {cut} of {} decoded to a value", bytes.len()),
            }
        }
    }

    #[test]
    fn preserves_coo_duplicates_and_order() {
        let mgr = mk_manager();
        let coo = CooMatrix::from_triples(3, 3, vec![(2, 1, 1.5), (0, 0, -2.0), (2, 1, 0.25)]);
        let rel = DistRelation {
            mtype: MatrixType::dense(3, 3),
            format: PhysFormat::Coo,
            chunks: vec![Chunk {
                row: 0,
                col: 0,
                block: Block::Coo(coo),
            }],
        };
        let ticket = mgr.spill(&rel).expect("spill");
        let back = mgr.reload(&ticket).expect("reload");
        assert_eq!(rel, back);
    }

    #[test]
    fn flipped_byte_is_detected_not_returned() {
        let mgr = mk_manager();
        let rel = dense_rel(4, 4, 7);
        let ticket = mgr.spill(&rel).expect("spill");
        let mut bytes = std::fs::read(&ticket.path).expect("read spill file");
        // Flip one payload byte past the header.
        let idx = bytes.len() - 3;
        bytes[idx] ^= 0x40;
        std::fs::write(&ticket.path, &bytes).expect("rewrite");
        match mgr.reload(&ticket) {
            Err(SpillError::Corrupt(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("corruption must be detected, got {other:?}"),
        }
    }

    #[test]
    fn truncated_file_is_corrupt_not_panic() {
        let mgr = mk_manager();
        let rel = dense_rel(4, 4, 9);
        let ticket = mgr.spill(&rel).expect("spill");
        let bytes = std::fs::read(&ticket.path).expect("read");
        std::fs::write(&ticket.path, &bytes[..bytes.len() / 2]).expect("truncate");
        assert!(matches!(mgr.reload(&ticket), Err(SpillError::Corrupt(_))));
    }

    proptest! {
        #[test]
        fn prop_round_trip_is_bit_identical(
            rows in 1usize..12,
            cols in 1usize..12,
            seed in 0u64..u64::MAX,
            kind in 0u8..3,
        ) {
            let mgr = mk_manager();
            let mut rel = dense_rel(rows, cols, seed);
            // Sparsify roughly half the entries so CSR/COO have real
            // structure, then re-wrap in the requested block kind.
            for c in &mut rel.chunks {
                let mut d = c.block.to_dense();
                for (i, v) in d.data_mut().iter_mut().enumerate() {
                    if i % 2 == 0 {
                        *v = 0.0;
                    }
                }
                c.block = match kind {
                    0 => Block::Dense(d),
                    1 => Block::Csr(CsrMatrix::from_dense(&d)),
                    _ => Block::Coo(CooMatrix::from_dense(&d)),
                };
            }
            let ticket = mgr.spill(&rel).expect("spill");
            let back = mgr.reload(&ticket).expect("reload");
            prop_assert_eq!(rel, back);
            mgr.remove(&ticket);
        }

        #[test]
        fn prop_any_flipped_byte_is_detected(
            seed in 0u64..u64::MAX,
            victim in 0usize..usize::MAX,
            mask in 1u8..=255,
        ) {
            let mgr = mk_manager();
            let rel = dense_rel(3, 3, seed);
            let ticket = mgr.spill(&rel).expect("spill");
            let mut bytes = std::fs::read(&ticket.path).expect("read");
            let idx = victim % bytes.len();
            bytes[idx] ^= mask;
            std::fs::write(&ticket.path, &bytes).expect("rewrite");
            prop_assert!(matches!(mgr.reload(&ticket), Err(SpillError::Corrupt(_))));
        }
    }
}
