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
//!    reload, in this order: the *stream* checksum over the file's raw
//!    bytes, verified before a byte is decoded (any flipped bit on disk
//!    trips it), and the fault layer's
//!    [`relation_checksum`](crate::faults) over the decoded value,
//!    verified after (the same detector the corrupt-chunk recovery path
//!    uses) — so a spill file that rots surfaces as
//!    [`SpillError::Corrupt`], which the scheduler converts into the
//!    structured `ExecError::SpillCorrupted` instead of silently
//!    feeding bad bits downstream. Both are
//!    [`BulkChecksum`](matopt_core::BulkChecksum), not FNV-1a: their
//!    values live in a [`SpillTicket`] for the length of one run and
//!    never reach disk, so nothing pins them to a byte-serial fold that
//!    costs more per buffer than the disk does. The *byte layout*
//!    (`MOSP0001`, all-u64-LE) is pinned — training checkpoints embed
//!    [`encode_relation`] bytes, inside a [`push_relation`] record.
//! 3. **No panics.** The kernel constructors assert on malformed
//!    structure, so the decoder validates shape, index ranges, and CSR
//!    row monotonicity *before* rebuilding, returning
//!    [`SpillError::Corrupt`] for anything off.
//! 4. **One pass per direction.** A spill sizes its output once, then
//!    encodes, stream-sums and value-sums chunk by chunk while the
//!    chunk is in cache, and hands the kernel one `write`; a reload
//!    reads the file into a buffer sized from its length, sums it, and
//!    value-sums each chunk as the decoder produces it.
//! 5. **Nothing is flushed.** A spill file has no reader once its
//!    process is gone (per-run directory, removed on drop), and a
//!    reload in the same process reads through the page cache whether
//!    or not the bytes reached the device, so an `fsync` per buffer
//!    makes nothing recoverable — it only puts the device's latency on
//!    the admission path. What protects a reload is constraint 2.
//!
//! Files live in a per-run subdirectory of the scratch root
//! (`$MATOPT_SCRATCH` or the system temp dir), named by process id plus
//! a process-global counter so concurrent runs never collide; the
//! directory is created by the run's first spill (a governed run that
//! fits its budget touches no disk) and removed when the
//! [`SpillManager`] drops. `spill` and `reload` take `&self` and share
//! nothing but the file-name counter, so tickets are independent: the
//! scheduler reloads the buffers a run ends with on scratch in
//! parallel on the pool.

use crate::faults::chunk_checksum;
use crate::value::{Block, Chunk, DistRelation};
use matopt_core::{
    bulk_checksum, format_words, push_mtype, BulkChecksum, MatrixType, PhysFormat, WordReader,
};
use matopt_kernels::{CooMatrix, CsrMatrix, DenseMatrix};
use std::io::Write;
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
    /// [`BulkChecksum`] of the serialized byte stream.
    pub stream_sum: u64,
    /// [`relation_checksum`](crate::faults) of the value.
    pub value_sum: u64,
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
    /// Names the per-run scratch subdirectory under `root` (or the
    /// default scratch root when `None`); the first
    /// [`spill`](Self::spill) creates it.
    ///
    /// # Errors
    /// None today — directory errors surface from the first spill.
    pub fn new(root: Option<PathBuf>) -> Result<Self, SpillError> {
        let root = root.unwrap_or_else(matopt_core::default_scratch_dir);
        let run = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
        Ok(SpillManager {
            dir: root.join(format!("run-{}-{}", std::process::id(), run)),
            seq: AtomicU64::new(0),
        })
    }

    /// The per-run scratch directory (absent until the first spill).
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
        let mut out: Vec<[u8; 8]> = Vec::with_capacity(encoded_words(rel));
        head(&mut out, rel);
        let (mut stream, mut value) = (BulkChecksum::new(), BulkChecksum::new());
        let mut summed = 0;
        for chunk in &rel.chunks {
            encode_chunk(&mut out, chunk);
            stream.le_words(&out[summed..]);
            summed = out.len();
            chunk_checksum(&mut value, chunk);
        }
        stream.le_words(&out[summed..]);
        let path = self.dir.join(format!(
            "v{}.spill",
            self.seq.fetch_add(1, Ordering::Relaxed)
        ));
        let mut f = match std::fs::File::create(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                std::fs::create_dir_all(&self.dir)?;
                std::fs::File::create(&path)?
            }
            created => created?,
        };
        f.write_all(out.as_flattened())?;
        Ok(SpillTicket {
            path,
            mtype: rel.mtype,
            format: rel.format,
            bytes: rel.total_bytes() as u64,
            stream_sum: stream.finish(),
            value_sum: value.finish(),
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
        let mismatch = |what: &str, want: u64, got: u64| {
            SpillError::Corrupt(format!(
                "{what} checksum mismatch for {} (expected {want:#018x}, found {got:#018x})",
                ticket.path.display()
            ))
        };
        let bytes = std::fs::read(&ticket.path)?;
        let stream = bulk_checksum(&bytes);
        if stream != ticket.stream_sum {
            return Err(mismatch("stream", ticket.stream_sum, stream));
        }
        let mut value = BulkChecksum::new();
        let rel = decode_each(byte_words(&bytes)?, ticket.mtype, ticket.format, |chunk| {
            chunk_checksum(&mut value, chunk);
        })?;
        let value = value.finish();
        if value != ticket.value_sum {
            return Err(mismatch("value", ticket.value_sum, value));
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

/// One stream word as the codec writes and reads it: a `u64` inside a
/// word body (a [`push_relation`] record), or its little-endian bytes
/// in a byte stream (a spill file, [`encode_relation`]), where a
/// `Vec<[u8; 8]>` flattens to the bytes for free. One encoder and one
/// decoder serve both, so neither medium pays a conversion pass.
trait LeWord: Copy {
    fn of(word: u64) -> Self;
    fn get(self) -> u64;
}

impl LeWord for u64 {
    #[inline(always)]
    fn of(word: u64) -> Self {
        word
    }
    #[inline(always)]
    fn get(self) -> u64 {
        self
    }
}

impl LeWord for [u8; 8] {
    #[inline(always)]
    fn of(word: u64) -> Self {
        word.to_le_bytes()
    }
    #[inline(always)]
    fn get(self) -> u64 {
        u64::from_le_bytes(self)
    }
}

fn put<W: LeWord>(out: &mut Vec<W>, word: u64) {
    out.push(W::of(word));
}

/// Words in the whole of `rel`'s encoding, so every output is sized once.
fn encoded_words(rel: &DistRelation) -> usize {
    2 + rel
        .chunks
        .iter()
        .map(|chunk| match &chunk.block {
            Block::Dense(d) => 5 + d.data().len(),
            Block::Csr(s) => 6 + 3 * s.nnz(),
            Block::Coo(c) => 6 + 3 * c.nnz(),
        })
        .sum::<usize>()
}

/// The stream header: magic, chunk count.
fn head<W: LeWord>(out: &mut Vec<W>, rel: &DistRelation) {
    put(out, MAGIC);
    put(out, rel.chunks.len() as u64);
}

/// The whole stream: header, then every chunk.
fn encode_into<W: LeWord>(out: &mut Vec<W>, rel: &DistRelation) {
    head(out, rel);
    for chunk in &rel.chunks {
        encode_chunk(out, chunk);
    }
}

fn encode_chunk<W: LeWord>(out: &mut Vec<W>, chunk: &Chunk) {
    put(out, chunk.row);
    put(out, chunk.col);
    match &chunk.block {
        Block::Dense(d) => {
            put(out, TAG_DENSE);
            put(out, d.rows() as u64);
            put(out, d.cols() as u64);
            out.extend(d.data().iter().map(|v| W::of(v.to_bits())));
        }
        Block::Csr(s) => {
            put(out, TAG_CSR);
            put(out, s.rows() as u64);
            put(out, s.cols() as u64);
            put(out, s.nnz() as u64);
            // Storage order: preserves explicitly-stored zeros and
            // per-row column order exactly.
            for (r, c, v) in s.iter() {
                put(out, r as u64);
                put(out, c as u64);
                put(out, v.to_bits());
            }
        }
        Block::Coo(c) => {
            put(out, TAG_COO);
            put(out, c.rows() as u64);
            put(out, c.cols() as u64);
            put(out, c.nnz() as u64);
            // Triple order preserved (a COO relation is a multiset;
            // duplicates are meaningful).
            for (r, cc, v) in c.entries() {
                put(out, *r as u64);
                put(out, *cc as u64);
                put(out, v.to_bits());
            }
        }
    }
}

/// Cursor over the serialized stream; every read is bounds-checked so a
/// truncated or mangled file errors instead of panicking.
struct Reader<'a, W> {
    words: &'a [W],
    pos: usize,
}

impl<'a, W: LeWord> Reader<'a, W> {
    /// The next `n` words.
    fn take_words(&mut self, n: usize) -> Result<&'a [W], SpillError> {
        let slice = self
            .pos
            .checked_add(n)
            .and_then(|end| self.words.get(self.pos..end))
            .ok_or_else(|| SpillError::Corrupt("truncated spill stream".to_string()))?;
        self.pos += n;
        Ok(slice)
    }

    fn take(&mut self) -> Result<u64, SpillError> {
        Ok(self.take_words(1)?[0].get())
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

/// Decodes the stream, handing each chunk to `each` as it is rebuilt
/// (a reload value-sums it there, while it is still in cache).
fn decode_each<W: LeWord>(
    words: &[W],
    mtype: MatrixType,
    format: PhysFormat,
    mut each: impl FnMut(&Chunk),
) -> Result<DistRelation, SpillError> {
    let mut r = Reader { words, pos: 0 };
    if r.take()? != MAGIC {
        return Err(SpillError::Corrupt("bad magic header".to_string()));
    }
    // A chunk (and a sparse entry) is ≥ 3 words, so the stream length
    // bounds the counts — a mangled header can't make us reserve absurd
    // capacity.
    let bound = words.len() / 3 + 1;
    let nchunks = r.take_usize("chunk count", bound)?;
    let mut chunks = Vec::with_capacity(nchunks);
    for _ in 0..nchunks {
        let row = r.take()?;
        let col = r.take()?;
        let block = match r.take()? {
            TAG_DENSE => {
                let rows = r.take_usize("dense rows", 1 << 32)?;
                let cols = r.take_usize("dense cols", 1 << 32)?;
                let n = rows.checked_mul(cols).ok_or_else(|| {
                    SpillError::Corrupt(format!("dense shape {rows}x{cols} overflows stream"))
                })?;
                let data = r
                    .take_words(n)?
                    .iter()
                    .map(|w| f64::from_bits(w.get()))
                    .collect();
                Block::Dense(DenseMatrix::from_vec(rows, cols, data))
            }
            TAG_CSR => {
                let rows = r.take_usize("csr rows", 1 << 32)?;
                let cols = r.take_usize("csr cols", 1 << 32)?;
                let nnz = r.take_usize("csr nnz", bound)?;
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
                let nnz = r.take_usize("coo nnz", bound)?;
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
        let chunk = Chunk { row, col, block };
        each(&chunk);
        chunks.push(chunk);
    }
    if r.pos != words.len() {
        return Err(SpillError::Corrupt(format!(
            "{} trailing bytes after payload",
            (words.len() - r.pos) * 8
        )));
    }
    Ok(DistRelation {
        mtype,
        format,
        chunks,
    })
}

/// A byte stream as its words; a stream that is not whole words is
/// corrupt (every encoding is).
fn byte_words(bytes: &[u8]) -> Result<&[[u8; 8]], SpillError> {
    match bytes.as_chunks::<8>() {
        (words, []) => Ok(words),
        (_, tail) => Err(SpillError::Corrupt(format!(
            "stream of {} bytes ends in a partial word of {}",
            bytes.len(),
            tail.len()
        ))),
    }
}

/// Serializes a relation in the spill stream format — magic word,
/// chunk tags, all-u64-LE payload — with no checksum of its own: the
/// caller wraps the bytes in whatever integrity check its medium needs
/// (the stream sum of a [`SpillTicket`], the sum of the frame a
/// [`push_relation`] record travels or is persisted in).
#[must_use]
pub fn encode_relation(rel: &DistRelation) -> Vec<u8> {
    let mut out: Vec<[u8; 8]> = Vec::with_capacity(encoded_words(rel));
    encode_into(&mut out, rel);
    out.into_flattened()
}

/// Decodes [`encode_relation`] bytes back into a relation, validating
/// every structural bound.
///
/// # Errors
/// [`SpillError::Corrupt`] when the payload is torn, truncated, or
/// structurally invalid — never a panic.
pub fn decode_relation(
    bytes: &[u8],
    mtype: MatrixType,
    format: PhysFormat,
) -> Result<DistRelation, SpillError> {
    decode_each(byte_words(bytes)?, mtype, format, |_| {})
}

/// Words of a relation record before its stream: type (3), format (2),
/// stream length in bytes (1).
const RECORD_HEAD_WORDS: usize = 6;

/// Words [`push_relation`] appends for `rel`, so a body carrying
/// several relations can be sized once.
#[must_use]
pub fn relation_record_words(rel: &DistRelation) -> usize {
    RECORD_HEAD_WORDS + encoded_words(rel)
}

/// Appends a typed relation to a word body — the one *relation
/// record*: its [`MatrixType`], its [`PhysFormat`] as
/// [`matopt_core::format_words`], then the [`encode_relation`] stream as
/// a length-prefixed byte string
/// ([`push_bytes`](matopt_core::push_bytes)'s layout). A worker task, a
/// worker result and a checkpointed parameter all carry a relation this
/// way. The stream is whole words, so it is encoded straight into the
/// body, never held as bytes.
pub fn push_relation(words: &mut Vec<u64>, rel: &DistRelation) {
    let stream = encoded_words(rel);
    words.reserve(RECORD_HEAD_WORDS + stream);
    push_mtype(words, rel.mtype);
    words.extend_from_slice(&format_words(rel.format));
    words.push(8 * stream as u64);
    encode_into(words, rel);
}

/// Takes a relation record written by [`push_relation`], decoding the
/// stream straight from the body's words.
///
/// # Errors
/// A message naming `what` and the malformed field.
pub fn take_relation(r: &mut WordReader<'_>, what: &str) -> Result<DistRelation, String> {
    let mtype = r.take_mtype(what)?;
    let format = r.take_format(what)?;
    let len = r.take_count(what, usize::MAX / 16)?;
    if len % 8 != 0 {
        return Err(format!(
            "{what}: relation stream of {len} bytes is not whole words"
        ));
    }
    let words = r.take_slice(len / 8, what)?;
    decode_each(words, mtype, format, |_| {}).map_err(|e| format!("{what}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use super::{decode_relation as decode, encode_relation as encode};
    use crate::faults::relation_checksum;
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

    /// Dense, CSR and COO wrappings of the same noisy 7x5 values.
    fn every_block_kind() -> [DistRelation; 3] {
        let dense = dense_rel(7, 5, 42);
        let rewrap = |f: &dyn Fn(&DenseMatrix) -> Block| {
            let mut rel = dense.clone();
            for c in &mut rel.chunks {
                c.block = f(&c.block.to_dense());
            }
            rel
        };
        let csr = rewrap(&|d| Block::Csr(CsrMatrix::from_dense(d)));
        let coo = rewrap(&|d| Block::Coo(CooMatrix::from_dense(d)));
        [dense, csr, coo]
    }

    #[test]
    fn round_trips_every_block_kind() {
        let mgr = mk_manager();
        for rel in every_block_kind() {
            let ticket = mgr.spill(&rel).expect("spill");
            assert_eq!(ticket.value_sum, relation_checksum(&rel));
            let back = mgr.reload(&ticket).expect("reload");
            assert_eq!(rel, back);
            assert_eq!(relation_checksum(&back), relation_checksum(&rel));
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

    /// The stream layout is pinned (`MOSP0001`): training checkpoints
    /// embed these bytes under a persisted frame's FNV-1a. The reference
    /// here is the encoder as it was before the single-pass rewrite —
    /// one `put` per word into a growing `Vec<u8>`.
    #[test]
    fn encoding_is_byte_identical_to_the_word_by_word_encoder() {
        fn put(out: &mut Vec<u8>, word: u64) {
            out.extend_from_slice(&word.to_le_bytes());
        }
        fn reference(rel: &DistRelation) -> Vec<u8> {
            let mut out = Vec::new();
            put(&mut out, u64::from_le_bytes(*b"MOSP0001"));
            put(&mut out, rel.chunks.len() as u64);
            for chunk in &rel.chunks {
                put(&mut out, chunk.row);
                put(&mut out, chunk.col);
                let triples: Vec<(usize, usize, f64)> = match &chunk.block {
                    Block::Dense(d) => {
                        put(&mut out, 0);
                        put(&mut out, d.rows() as u64);
                        put(&mut out, d.cols() as u64);
                        for v in d.data() {
                            put(&mut out, v.to_bits());
                        }
                        continue;
                    }
                    Block::Csr(s) => {
                        put(&mut out, 1);
                        s.iter().collect()
                    }
                    Block::Coo(c) => {
                        put(&mut out, 2);
                        c.entries().to_vec()
                    }
                };
                put(&mut out, chunk.block.rows() as u64);
                put(&mut out, chunk.block.cols() as u64);
                put(&mut out, triples.len() as u64);
                for (r, c, v) in triples {
                    put(&mut out, r as u64);
                    put(&mut out, c as u64);
                    put(&mut out, v.to_bits());
                }
            }
            out
        }
        let tiled = DistRelation::from_dense(
            &dense_rel(9, 6, 3).chunks[0].block.to_dense(),
            PhysFormat::Tile { side: 4 },
        )
        .expect("tiled relation");
        let empty = DistRelation {
            chunks: Vec::new(),
            ..tiled.clone()
        };
        for rel in every_block_kind().into_iter().chain([tiled, empty]) {
            let bytes = encode_relation(&rel);
            assert_eq!(bytes, reference(&rel));
            assert_eq!(bytes.capacity(), bytes.len(), "sized once, exactly");
            assert_eq!(decode_relation(&bytes, rel.mtype, rel.format).unwrap(), rel);
        }
    }

    /// The relation record is encoded straight into the body's words,
    /// yet stays the layout it always was: type, format, then the
    /// stream as a `push_bytes` byte string — and it reads back.
    #[test]
    fn relation_records_keep_the_byte_string_layout() {
        let tiled = DistRelation::from_dense(
            &dense_rel(9, 6, 5).chunks[0].block.to_dense(),
            PhysFormat::Tile { side: 4 },
        )
        .expect("tiled relation");
        for rel in every_block_kind().into_iter().chain([tiled]) {
            let mut want = vec![7];
            push_mtype(&mut want, rel.mtype);
            want.extend_from_slice(&format_words(rel.format));
            matopt_core::push_bytes(&mut want, &encode_relation(&rel));
            let mut got = vec![7];
            push_relation(&mut got, &rel);
            assert_eq!(got, want);
            assert_eq!(got.len(), 1 + relation_record_words(&rel));
            let mut r = WordReader::new(&got[1..]);
            assert_eq!(take_relation(&mut r, "rel").unwrap(), rel);
            r.finish().unwrap();
            for cut in 1..got.len() {
                assert!(take_relation(&mut WordReader::new(&got[1..cut]), "rel").is_err());
            }
        }
    }

    #[test]
    fn scratch_directory_appears_with_the_first_spill() {
        let mgr = mk_manager();
        assert!(!mgr.dir().exists(), "no spill yet, no directory");
        let ticket = mgr.spill(&dense_rel(2, 2, 1)).expect("spill");
        assert!(ticket.path.starts_with(mgr.dir()) && ticket.path.exists());
        let dir = mgr.dir().to_path_buf();
        drop(mgr);
        assert!(!dir.exists(), "removed on drop");
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
