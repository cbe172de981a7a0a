//! Spill-to-disk for memory-governed execution: serializing retained
//! vertex buffers into a scratch store under memory pressure and
//! reloading them — bit-identically — when a consumer is admitted.
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
//!    reload: the *stream* checksum over the extent's raw bytes and the
//!    fault layer's [`relation_checksum`](crate::faults) over the
//!    decoded value (the same detector the corrupt-chunk recovery path
//!    uses). A reload returns a value only when both match, so an
//!    extent that rots surfaces as [`SpillError::Corrupt`], which the
//!    scheduler converts into the structured `ExecError::SpillCorrupted`
//!    instead of silently feeding bad bits downstream. Both are
//!    [`BulkChecksum`](matopt_core::BulkChecksum), not FNV-1a: their
//!    values live in a [`SpillTicket`] for the length of one run and
//!    never reach disk, so nothing pins them to a byte-serial fold that
//!    costs more per buffer than the disk does. The *byte layout*
//!    (`MOSP0001`, all-u64-LE) is pinned — training checkpoints embed
//!    [`encode_relation`] bytes, inside a [`push_relation`] record.
//! 3. **No panics, no unbounded reservations.** The kernel constructors
//!    assert on malformed structure, so the decoder validates shape,
//!    index ranges, and CSR row monotonicity *before* rebuilding,
//!    returning [`SpillError::Corrupt`] for anything off. Since a
//!    reload decodes before its stream sum is known, nothing it
//!    reserves may come from an unchecked count: every count is bounded
//!    by the words left in the extent, and a block's rows by the
//!    ticket's matrix type.
//! 4. **One pass per direction, a piece at a time.** A spill encodes,
//!    stream-sums and value-sums chunk by chunk into a fixed-size piece
//!    buffer owned by the call and writes each full piece at its offset
//!    with positioned I/O; a reload reads its extent a piece at a time
//!    into a buffer of the same size, stream-sums each piece as it
//!    arrives and decodes from it while it is in cache, value-summing
//!    each chunk as the decoder rebuilds it. Neither side builds a
//!    whole-relation byte image, and nothing is kept between calls.
//! 5. **Nothing is flushed.** An extent has no reader once its process
//!    is gone, and a reload in the same process reads through the page
//!    cache whether or not the bytes reached the device, so an `fsync`
//!    per buffer makes nothing recoverable — it only puts the device's
//!    latency on the admission path. What protects a reload is
//!    constraint 2.
//!
//! # The scratch store
//!
//! Every spill into a scratch directory (`ExecOptions::scratch_dir`,
//! else `$MATOPT_SCRATCH` or the system temp dir) goes to that
//! directory's one *store*: a file opened by the first spill into the
//! directory, unlinked as soon as it is created, and kept open for the
//! life of the process — so nothing it holds outlives the process, no
//! run creates a directory or a file, and a governed run that fits its
//! budget touches neither disk nor store. A spill takes an *extent*, a
//! page-aligned byte range, from the store's mutex-guarded first-fit
//! free list; the extent goes back when its ticket is
//! [`remove`](SpillManager::remove)d (after a reload, or when its
//! vertex retires unread) and, for whatever a run still holds, when its
//! [`SpillManager`] drops (a run that fails mid-walk). Free extents
//! coalesce and the file grows only when none fits, so its length is
//! the high-water mark of bytes concurrently on scratch in that
//! directory, and a spill writes into page-cache pages an earlier spill
//! already faulted in. That reuse is why the store outlives a run: a
//! file per run (or per buffer) pays its creation, fresh pages and
//! removal on every run, which cost more than the bytes.
//!
//! `spill`, `reload` and `remove` take `&self`; only taking and giving
//! back an extent locks, and I/O is positioned, so the scheduler
//! reloads the buffers a run ends with in parallel on the pool, and
//! concurrent runs ([`crate::SharedGovernor`]) spill into one store on
//! disjoint extents.

use crate::faults::chunk_checksum;
use crate::value::{Block, Chunk, DistRelation};
use matopt_core::{format_words, push_mtype, BulkChecksum, MatrixType, PhysFormat, WordReader};
use matopt_kernels::{CooMatrix, CsrMatrix, DenseMatrix};
use std::fs::File;
use std::io::ErrorKind;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Magic header of a spill stream (`MOSP` + format version).
const MAGIC: u64 = u64::from_le_bytes(*b"MOSP0001");

const TAG_DENSE: u64 = 0;
const TAG_CSR: u64 = 1;
const TAG_COO: u64 = 2;

/// Words per piece a spill encodes into and a reload reads into: 128
/// KiB on the calling thread's stack, so a piece is neither an
/// allocation nor a fresh page, and stays in L2 while it is summed and
/// written or decoded.
const PIECE_WORDS: usize = 1 << 14;

/// Extents start on page boundaries, so two never share a page.
const PAGE: u64 = 4096;

/// Errors from the spill layer.
#[derive(Debug)]
pub enum SpillError {
    /// Scratch I/O failed (disk full, permissions, released extent).
    Io(std::io::Error),
    /// The extent fails checksum or structural validation.
    Corrupt(String),
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Io(e) => write!(f, "spill I/O error: {e}"),
            SpillError::Corrupt(m) => write!(f, "spill extent corrupt: {m}"),
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
/// stays in memory (it is tiny); only the chunk data goes to scratch.
#[derive(Debug, Clone)]
pub struct SpillTicket {
    /// Byte offset of the relation's extent in its scratch store.
    pub offset: u64,
    /// Bytes of the serialized stream the extent holds.
    pub len: u64,
    /// Logical matrix type of the spilled relation.
    pub mtype: MatrixType,
    /// Physical format of the spilled relation.
    pub format: PhysFormat,
    /// Resident bytes the relation occupied (§7 accounting) — the
    /// amount freed by the spill and re-charged by the reload.
    pub bytes: u64,
    /// [`BulkChecksum`] of the serialized byte stream.
    pub stream_sum: u64,
    /// The fault layer's `relation_checksum` of the value.
    pub value_sum: u64,
}

/// One run's handle on its scratch directory's store: spills cold
/// buffers into extents and reloads them on demand, verifying checksums
/// both ways, and gives back on drop every extent its tickets still
/// hold.
#[derive(Debug)]
pub struct SpillManager {
    dir: PathBuf,
    /// Resolved by the first spill.
    store: OnceLock<Arc<Store>>,
    /// `(offset, len)` of every extent this manager's tickets hold.
    held: Mutex<Vec<(u64, u64)>>,
}

impl SpillManager {
    /// A handle on the store of `root` (or of the default scratch root
    /// when `None`); the first [`spill`](Self::spill) opens it.
    ///
    /// # Errors
    /// None today — store errors surface from the first spill.
    pub fn new(root: Option<PathBuf>) -> Result<Self, SpillError> {
        Ok(SpillManager {
            dir: root.unwrap_or_else(matopt_core::default_scratch_dir),
            store: OnceLock::new(),
            held: Mutex::new(Vec::new()),
        })
    }

    fn store(&self) -> Result<&Store, SpillError> {
        if let Some(store) = self.store.get() {
            return Ok(store);
        }
        let store = store_in(&self.dir)?;
        Ok(self.store.get_or_init(|| store))
    }

    /// Serializes `rel` into a fresh extent of the store and returns
    /// the ticket a [`reload`](Self::reload) needs to get it back.
    ///
    /// # Errors
    /// [`SpillError::Io`] when the store cannot be opened or written.
    pub fn spill(&self, rel: &DistRelation) -> Result<SpillTicket, SpillError> {
        let store = self.store()?;
        let words = encoded_words(rel);
        let len = 8 * words as u64;
        let offset = store.take(len);
        let mut piece = [[0; 8]; PIECE_WORDS];
        let mut out = PieceWriter {
            file: &store.file,
            at: offset,
            piece: &mut piece[..words.min(PIECE_WORDS)],
            filled: 0,
            stream: BulkChecksum::new(),
            failed: None,
        };
        let mut value = BulkChecksum::new();
        head(&mut out, rel);
        for chunk in &rel.chunks {
            encode_chunk(&mut out, chunk);
            chunk_checksum(&mut value, chunk);
        }
        let stream_sum = out.finish().inspect_err(|_| store.give(offset, len))?;
        self.held.lock().expect("spill extents").push((offset, len));
        Ok(SpillTicket {
            offset,
            len,
            mtype: rel.mtype,
            format: rel.format,
            bytes: rel.total_bytes() as u64,
            stream_sum,
            value_sum: value.finish(),
        })
    }

    /// Reads the ticket's extent back into a relation, summing the
    /// stream as it is decoded and each chunk as it is rebuilt, and
    /// returns it only when both checksums match.
    ///
    /// # Errors
    /// [`SpillError::Io`] when the extent cannot be read or was already
    /// given back; [`SpillError::Corrupt`] when it ends early, either
    /// checksum mismatches, or the payload fails structural validation.
    pub fn reload(&self, ticket: &SpillTicket) -> Result<DistRelation, SpillError> {
        let extent = (ticket.offset, ticket.len);
        let store = (self.store.get())
            .filter(|_| self.held.lock().expect("spill extents").contains(&extent))
            .ok_or_else(|| {
                SpillError::Io(std::io::Error::new(
                    ErrorKind::NotFound,
                    format!("no extent held at {}+{}", ticket.offset, ticket.len),
                ))
            })?;
        let mismatch = |what: &str, want: u64, got: u64| {
            SpillError::Corrupt(format!(
                "{what} checksum mismatch for the extent at {}+{} (expected {want:#018x}, found {got:#018x})",
                ticket.offset, ticket.len
            ))
        };
        let mut piece = [[0; 8]; PIECE_WORDS];
        let mut src = ExtentReader::new(&store.file, ticket.offset, ticket.len, &mut piece)?;
        let mut value = BulkChecksum::new();
        let max_rows = ticket.mtype.rows.min(MAX_DIM as u64) as usize;
        let rel = decode_each(&mut src, ticket.mtype, ticket.format, max_rows, |chunk| {
            chunk_checksum(&mut value, chunk);
        })?;
        let stream = src.stream.finish();
        if stream != ticket.stream_sum {
            return Err(mismatch("stream", ticket.stream_sum, stream));
        }
        let value = value.finish();
        if value != ticket.value_sum {
            return Err(mismatch("value", ticket.value_sum, value));
        }
        Ok(rel)
    }

    /// Gives the ticket's extent back to the store (after a reload, or
    /// when the spilled vertex is retired before any consumer needed it
    /// back). Removing a ticket twice gives it back once.
    pub fn remove(&self, ticket: &SpillTicket) {
        let mut held = self.held.lock().expect("spill extents");
        if let Some(i) = held.iter().position(|&e| e == (ticket.offset, ticket.len)) {
            held.swap_remove(i);
            if let Some(store) = self.store.get() {
                store.give(ticket.offset, ticket.len);
            }
        }
    }
}

impl Drop for SpillManager {
    fn drop(&mut self) {
        let held = self.held.get_mut().unwrap_or_else(PoisonError::into_inner);
        let held = std::mem::take(held);
        if let Some(store) = self.store.get() {
            for (offset, len) in held {
                store.give(offset, len);
            }
        }
    }
}

/// A scratch directory's store: an unlinked file and its free extents.
#[derive(Debug)]
struct Store {
    file: File,
    extents: Mutex<Extents>,
}

/// The store's first-fit allocator over page-aligned extents.
#[derive(Debug, Default)]
struct Extents {
    /// End of the highest extent ever taken: the file's length, up to
    /// the last extent's page padding.
    end: u64,
    /// Free `(offset, len)` ranges below `end`, in offset order, never
    /// adjacent (a give merges neighbours).
    free: Vec<(u64, u64)>,
}

/// `len` bytes rounded up to whole pages.
fn pages(len: u64) -> u64 {
    len.div_ceil(PAGE).max(1) * PAGE
}

impl Extents {
    /// The offset of a free range of `len` bytes: the first free range
    /// that fits, else the end of the file (absorbing a free range that
    /// reaches it).
    fn take(&mut self, len: u64) -> u64 {
        let len = pages(len);
        if let Some(i) = self.free.iter().position(|&(_, l)| l >= len) {
            let (at, l) = self.free[i];
            if l == len {
                self.free.remove(i);
            } else {
                self.free[i] = (at + len, l - len);
            }
            return at;
        }
        let at = match self.free.last() {
            Some(&(at, l)) if at + l == self.end => {
                self.free.pop();
                at
            }
            _ => self.end,
        };
        self.end = at + len;
        at
    }

    /// Returns the extent taken for `len` bytes at `at`.
    fn give(&mut self, at: u64, len: u64) {
        let len = pages(len);
        let mut i = self.free.partition_point(|&(o, _)| o < at);
        self.free.insert(i, (at, len));
        if i > 0 && self.free[i - 1].0 + self.free[i - 1].1 == at {
            self.free[i - 1].1 += len;
            self.free.remove(i);
            i -= 1;
        }
        if i + 1 < self.free.len() && self.free[i].0 + self.free[i].1 == self.free[i + 1].0 {
            self.free[i].1 += self.free[i + 1].1;
            self.free.remove(i + 1);
        }
    }
}

impl Store {
    /// Creates the store file in `dir` and unlinks it at once: the open
    /// handle is all that keeps it, so it goes with the process.
    fn create(dir: &Path, seq: usize) -> std::io::Result<Store> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!(".matopt-spill-{}-{seq}", std::process::id()));
        let open = || {
            File::options()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)
        };
        let file = match open() {
            // Left by an earlier process with this pid that died
            // between creating and unlinking it.
            Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                std::fs::remove_file(&path)?;
                open()?
            }
            opened => opened?,
        };
        std::fs::remove_file(&path)?;
        Ok(Store {
            file,
            extents: Mutex::new(Extents::default()),
        })
    }

    // Every update leaves the free list valid, so a panic elsewhere
    // while the lock was held poisons nothing that matters (and a drop
    // gives extents back through here).
    fn extents(&self) -> MutexGuard<'_, Extents> {
        self.extents.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn take(&self, len: u64) -> u64 {
        self.extents().take(len)
    }

    fn give(&self, at: u64, len: u64) {
        self.extents().give(at, len);
    }
}

/// The store of `dir`, opened by the first call for that directory and
/// kept for the life of the process.
fn store_in(dir: &Path) -> std::io::Result<Arc<Store>> {
    static STORES: Mutex<Vec<(PathBuf, Arc<Store>)>> = Mutex::new(Vec::new());
    let mut stores = STORES.lock().expect("spill stores");
    if let Some((_, store)) = stores.iter().find(|(d, _)| d == dir) {
        return Ok(Arc::clone(store));
    }
    let store = Arc::new(Store::create(dir, stores.len())?);
    stores.push((dir.to_path_buf(), Arc::clone(&store)));
    Ok(store)
}

/// Where the encoder puts stream words: a word body, a byte image, or
/// an extent a piece at a time. One encoder serves all three, so no
/// medium pays a conversion pass.
trait WordSink {
    fn put(&mut self, word: u64);
    fn put_f64s(&mut self, values: &[f64]);
}

/// One stream word as it sits in memory: a `u64` inside a word body (a
/// [`push_relation`] record), or its little-endian bytes in a byte
/// stream ([`encode_relation`], a piece of an extent), where a
/// `Vec<[u8; 8]>` flattens to the bytes for free.
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

impl<W: LeWord> WordSink for Vec<W> {
    fn put(&mut self, word: u64) {
        self.push(W::of(word));
    }
    fn put_f64s(&mut self, values: &[f64]) {
        self.extend(values.iter().map(|v| W::of(v.to_bits())));
    }
}

/// A spill's output: words gather in a piece that is stream-summed and
/// written at its offset whenever it fills.
struct PieceWriter<'a> {
    file: &'a File,
    /// Store offset of `piece[0]`.
    at: u64,
    piece: &'a mut [[u8; 8]],
    /// Words of `piece` holding output.
    filled: usize,
    stream: BulkChecksum,
    /// The first write error; later pieces are no longer written.
    failed: Option<std::io::Error>,
}

impl PieceWriter<'_> {
    fn flush(&mut self) {
        let piece = &self.piece[..self.filled];
        self.stream.le_words(piece);
        if self.failed.is_none() {
            self.failed = self.file.write_all_at(piece.as_flattened(), self.at).err();
        }
        self.at += 8 * self.filled as u64;
        self.filled = 0;
    }

    /// Writes the last piece; the stream sum, or the first write error.
    fn finish(mut self) -> std::io::Result<u64> {
        if self.filled > 0 {
            self.flush();
        }
        match self.failed {
            Some(e) => Err(e),
            None => Ok(self.stream.finish()),
        }
    }
}

impl WordSink for PieceWriter<'_> {
    fn put(&mut self, word: u64) {
        self.piece[self.filled] = word.to_le_bytes();
        self.filled += 1;
        if self.filled == self.piece.len() {
            self.flush();
        }
    }

    fn put_f64s(&mut self, mut values: &[f64]) {
        while !values.is_empty() {
            let room = &mut self.piece[self.filled..];
            let (now, rest) = values.split_at(room.len().min(values.len()));
            for (word, v) in room.iter_mut().zip(now) {
                *word = v.to_bits().to_le_bytes();
            }
            self.filled += now.len();
            values = rest;
            if self.filled == self.piece.len() {
                self.flush();
            }
        }
    }
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
fn head(out: &mut impl WordSink, rel: &DistRelation) {
    out.put(MAGIC);
    out.put(rel.chunks.len() as u64);
}

/// The whole stream: header, then every chunk.
fn encode_into(out: &mut impl WordSink, rel: &DistRelation) {
    head(out, rel);
    for chunk in &rel.chunks {
        encode_chunk(out, chunk);
    }
}

fn encode_chunk(out: &mut impl WordSink, chunk: &Chunk) {
    out.put(chunk.row);
    out.put(chunk.col);
    match &chunk.block {
        Block::Dense(d) => {
            out.put(TAG_DENSE);
            out.put(d.rows() as u64);
            out.put(d.cols() as u64);
            out.put_f64s(d.data());
        }
        Block::Csr(s) => {
            out.put(TAG_CSR);
            out.put(s.rows() as u64);
            out.put(s.cols() as u64);
            out.put(s.nnz() as u64);
            // Storage order: preserves explicitly-stored zeros and
            // per-row column order exactly.
            for (r, c, v) in s.iter() {
                out.put(r as u64);
                out.put(c as u64);
                out.put(v.to_bits());
            }
        }
        Block::Coo(c) => {
            out.put(TAG_COO);
            out.put(c.rows() as u64);
            out.put(c.cols() as u64);
            out.put(c.nnz() as u64);
            // Triple order preserved (a COO relation is a multiset;
            // duplicates are meaningful).
            for (r, cc, v) in c.entries() {
                out.put(*r as u64);
                out.put(*cc as u64);
                out.put(v.to_bits());
            }
        }
    }
}

/// Largest block dimension any stream may declare.
const MAX_DIM: usize = 1 << 32;

fn truncated() -> SpillError {
    SpillError::Corrupt("truncated spill stream".to_string())
}

/// Where the decoder takes stream words from: a slice in memory, or an
/// extent read a piece at a time. Every take is bounds-checked, so a
/// truncated or mangled stream errors instead of panicking.
trait Words {
    /// Words not yet taken.
    fn left(&self) -> usize;

    fn take(&mut self) -> Result<u64, SpillError>;

    /// The next `n` words as `f64` bit patterns.
    fn take_f64s(&mut self, n: usize) -> Result<Vec<f64>, SpillError>;

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

/// Cursor over a serialized stream in memory.
struct Reader<'a, W> {
    words: &'a [W],
    pos: usize,
}

impl<W: LeWord> Words for Reader<'_, W> {
    fn left(&self) -> usize {
        self.words.len() - self.pos
    }

    fn take(&mut self) -> Result<u64, SpillError> {
        let w = self.words.get(self.pos).ok_or_else(truncated)?;
        self.pos += 1;
        Ok(w.get())
    }

    fn take_f64s(&mut self, n: usize) -> Result<Vec<f64>, SpillError> {
        let slice = (self.pos.checked_add(n))
            .and_then(|end| self.words.get(self.pos..end))
            .ok_or_else(truncated)?;
        self.pos += n;
        Ok(slice.iter().map(|w| f64::from_bits(w.get())).collect())
    }
}

/// Cursor over an extent, read a piece at a time; each piece is
/// stream-summed as it arrives.
struct ExtentReader<'a> {
    file: &'a File,
    /// Store offset of the next piece.
    next: u64,
    /// Words of the extent not yet read.
    unread: usize,
    piece: &'a mut [[u8; 8]],
    /// Words of `piece` read from the extent.
    filled: usize,
    /// Next word of `piece` to take.
    pos: usize,
    stream: BulkChecksum,
}

impl<'a> ExtentReader<'a> {
    fn new(
        file: &'a File,
        offset: u64,
        len: u64,
        piece: &'a mut [[u8; 8]],
    ) -> Result<Self, SpillError> {
        if !len.is_multiple_of(8) {
            return Err(SpillError::Corrupt(format!(
                "extent of {len} bytes ends in a partial word"
            )));
        }
        let unread = usize::try_from(len / 8).map_err(|_| truncated())?;
        Ok(ExtentReader {
            file,
            next: offset,
            unread,
            piece,
            filled: 0,
            pos: 0,
            stream: BulkChecksum::new(),
        })
    }

    /// Reads the next piece; past the extent's end is a truncation, and
    /// so is a store that ends inside it.
    fn refill(&mut self) -> Result<(), SpillError> {
        let n = self.unread.min(self.piece.len());
        if n == 0 {
            return Err(truncated());
        }
        let piece = &mut self.piece[..n];
        (self.file.read_exact_at(piece.as_flattened_mut(), self.next)).map_err(|e| {
            match e.kind() {
                ErrorKind::UnexpectedEof => SpillError::Corrupt(format!(
                    "the store ends inside the extent's piece at {}",
                    self.next
                )),
                _ => SpillError::Io(e),
            }
        })?;
        self.stream.le_words(piece);
        self.next += 8 * n as u64;
        self.unread -= n;
        self.filled = n;
        self.pos = 0;
        Ok(())
    }
}

impl Words for ExtentReader<'_> {
    fn left(&self) -> usize {
        self.filled - self.pos + self.unread
    }

    fn take(&mut self) -> Result<u64, SpillError> {
        if self.pos == self.filled {
            self.refill()?;
        }
        self.pos += 1;
        Ok(u64::from_le_bytes(self.piece[self.pos - 1]))
    }

    fn take_f64s(&mut self, mut n: usize) -> Result<Vec<f64>, SpillError> {
        if n > self.left() {
            return Err(truncated());
        }
        let mut out = Vec::with_capacity(n);
        while n > 0 {
            if self.pos == self.filled {
                self.refill()?;
            }
            let k = n.min(self.filled - self.pos);
            let words = &self.piece[self.pos..self.pos + k];
            out.extend(words.iter().map(|w| f64::from_bits(u64::from_le_bytes(*w))));
            self.pos += k;
            n -= k;
        }
        Ok(out)
    }
}

/// Decodes the stream, handing each chunk to `each` as it is rebuilt
/// (a reload value-sums it there, while it is still in cache). No block
/// may have more than `max_rows` rows.
fn decode_each(
    r: &mut impl Words,
    mtype: MatrixType,
    format: PhysFormat,
    max_rows: usize,
    mut each: impl FnMut(&Chunk),
) -> Result<DistRelation, SpillError> {
    // A chunk (and a sparse entry) is ≥ 3 words, so the stream length
    // bounds the counts — a mangled header can't make us reserve absurd
    // capacity.
    let bound = r.left() / 3 + 1;
    if r.take()? != MAGIC {
        return Err(SpillError::Corrupt("bad magic header".to_string()));
    }
    let nchunks = r.take_usize("chunk count", bound)?;
    let mut chunks = Vec::with_capacity(nchunks);
    for _ in 0..nchunks {
        let row = r.take()?;
        let col = r.take()?;
        let block = match r.take()? {
            TAG_DENSE => {
                let rows = r.take_usize("dense rows", max_rows)?;
                let cols = r.take_usize("dense cols", MAX_DIM)?;
                let n = rows.checked_mul(cols).ok_or_else(|| {
                    SpillError::Corrupt(format!("dense shape {rows}x{cols} overflows stream"))
                })?;
                Block::Dense(DenseMatrix::from_vec(rows, cols, r.take_f64s(n)?))
            }
            TAG_CSR => {
                let rows = r.take_usize("csr rows", max_rows)?;
                let cols = r.take_usize("csr cols", MAX_DIM)?;
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
                let rows = r.take_usize("coo rows", max_rows)?;
                let cols = r.take_usize("coo cols", MAX_DIM)?;
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
    if r.left() != 0 {
        return Err(SpillError::Corrupt(format!(
            "{} trailing bytes after payload",
            r.left() * 8
        )));
    }
    Ok(DistRelation {
        mtype,
        format,
        chunks,
    })
}

/// Decodes a stream held in memory.
fn decode_words<W: LeWord>(
    words: &[W],
    mtype: MatrixType,
    format: PhysFormat,
) -> Result<DistRelation, SpillError> {
    decode_each(
        &mut Reader { words, pos: 0 },
        mtype,
        format,
        MAX_DIM,
        |_| {},
    )
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
    decode_words(byte_words(bytes)?, mtype, format)
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
    decode_words(words, mtype, format).map_err(|e| format!("{what}: {e}"))
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

    /// A scratch directory no other test spills into, so damaging its
    /// store cannot reach another test's extents.
    fn own_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("matopt-spill-test-{name}"))
    }

    fn own_manager(name: &str) -> SpillManager {
        SpillManager::new(Some(own_dir(name))).expect("scratch")
    }

    fn store_of(mgr: &SpillManager) -> &Store {
        mgr.store.get().expect("the manager has spilled")
    }

    /// The bytes of a ticket's extent, read straight from its store.
    fn extent(mgr: &SpillManager, t: &SpillTicket) -> Vec<u8> {
        let mut bytes = vec![0; t.len as usize];
        let file = &store_of(mgr).file;
        file.read_exact_at(&mut bytes, t.offset)
            .expect("read extent");
        bytes
    }

    fn overwrite(mgr: &SpillManager, at: u64, bytes: &[u8]) {
        let file = &store_of(mgr).file;
        file.write_all_at(bytes, at).expect("write store");
    }

    fn assert_corrupt(mgr: &SpillManager, t: &SpillTicket, what: &str) -> String {
        match mgr.reload(t) {
            Err(SpillError::Corrupt(msg)) => msg,
            other => panic!("{what}: corruption must be detected, got {other:?}"),
        }
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

    /// Every bit of an extent, flipped on its own, is a structured
    /// [`SpillError::Corrupt`] — one the stream sum names when the flip
    /// lands in a value — and the restored extent reloads.
    #[test]
    fn flipped_byte_is_detected_not_returned() {
        let mgr = own_manager("flip");
        for rel in every_block_kind() {
            let ticket = mgr.spill(&rel).expect("spill");
            let bytes = extent(&mgr, &ticket);
            for (i, &byte) in bytes.iter().enumerate() {
                let at = ticket.offset + i as u64;
                for bit in 0..8 {
                    overwrite(&mgr, at, &[byte ^ 1 << bit]);
                    let msg = assert_corrupt(&mgr, &ticket, &format!("byte {i} bit {bit}"));
                    if i == bytes.len() - 3 {
                        assert!(msg.contains("checksum"), "{msg}");
                    }
                }
                overwrite(&mgr, at, &[byte]);
            }
            assert_eq!(mgr.reload(&ticket).expect("restored"), rel);
            mgr.remove(&ticket);
        }
    }

    /// A store that ends anywhere inside an extent — its every prefix —
    /// is a short read, hence [`SpillError::Corrupt`], never a value.
    #[test]
    fn every_truncation_of_an_extent_is_corrupt() {
        let mgr = own_manager("truncate");
        for rel in every_block_kind() {
            let ticket = mgr.spill(&rel).expect("spill");
            let bytes = extent(&mgr, &ticket);
            let file = &store_of(&mgr).file;
            for cut in 0..ticket.len {
                file.set_len(ticket.offset + cut).expect("truncate store");
                assert_corrupt(&mgr, &ticket, &format!("cut at {cut}"));
            }
            overwrite(&mgr, ticket.offset, &bytes);
            assert_eq!(mgr.reload(&ticket).expect("restored"), rel);
            mgr.remove(&ticket);
        }
    }

    /// A removed ticket's extent may already hold another relation: its
    /// reload is refused, and a second remove gives nothing back twice.
    #[test]
    fn a_removed_ticket_is_refused() {
        let mgr = mk_manager();
        let ticket = mgr.spill(&dense_rel(3, 3, 5)).expect("spill");
        mgr.remove(&ticket);
        mgr.remove(&ticket);
        assert!(matches!(mgr.reload(&ticket), Err(SpillError::Io(_))));
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

    /// The store is unlinked at birth: no spill leaves a run directory
    /// or a file behind, during a run or after it.
    #[test]
    fn a_spill_leaves_nothing_in_its_directory() {
        let dir = own_dir("empty");
        let mgr = SpillManager::new(Some(dir.clone())).expect("scratch");
        assert!(mgr.store.get().is_none(), "no spill yet, no store");
        let rel = dense_rel(6, 4, 1);
        let ticket = mgr.spill(&rel).expect("spill");
        let entries = || std::fs::read_dir(&dir).expect("scratch exists").count();
        assert_eq!(entries(), 0, "nothing named in the directory");
        assert_eq!(mgr.reload(&ticket).expect("reload"), rel);
        drop(mgr);
        assert_eq!(entries(), 0);
    }

    /// A run's spills go back to its directory's store when it is done,
    /// so the next run with the same spills takes the same extents and
    /// the store stays at one run's high-water mark.
    #[test]
    fn sequential_runs_keep_the_store_at_one_runs_high_water_mark() {
        let one_run = || {
            let mgr = own_manager("reuse");
            let rels = [
                dense_rel(40, 30, 1),
                dense_rel(20, 10, 2),
                dense_rel(9, 9, 3),
            ];
            let mut tickets: Vec<SpillTicket> =
                rels.iter().map(|r| mgr.spill(r).expect("spill")).collect();
            // A hole in the middle, refilled by a smaller spill.
            assert_eq!(mgr.reload(&tickets[1]).expect("reload"), rels[1]);
            mgr.remove(&tickets[1]);
            tickets[1] = mgr.spill(&rels[2]).expect("spill into the hole");
            for (t, r) in tickets.iter().zip([&rels[0], &rels[2], &rels[2]]) {
                assert_eq!(&mgr.reload(t).expect("reload"), r);
            }
            mgr.remove(&tickets[0]);
            let store = store_of(&mgr);
            let len = store.file.metadata().expect("store metadata").len();
            let offsets: Vec<u64> = tickets.iter().map(|t| t.offset).collect();
            let end = store.extents.lock().unwrap().end;
            // The rest go back on drop.
            (offsets, len, end)
        };
        let first = one_run();
        assert!(first.1 > 0);
        assert!(first.0[1] < first.0[2], "the hole was reused");
        for _ in 0..3 {
            assert_eq!(one_run(), first);
        }
        let store = store_in(&own_dir("reuse")).expect("store");
        let extents = store.extents.lock().unwrap();
        assert_eq!(extents.free, vec![(0, extents.end)], "one free extent");
    }

    /// Threads spilling into one store concurrently get their own
    /// values back bit for bit, and when they are done the free list
    /// has coalesced back into one extent.
    #[test]
    fn concurrent_spills_reload_bit_identical_and_coalesce() {
        let dir = own_dir("threads");
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    for i in 0..25u64 {
                        let mgr = SpillManager::new(Some(dir.clone())).expect("scratch");
                        let seed = 100 * t + i;
                        let rels: Vec<DistRelation> = (0..3)
                            .map(|k| {
                                dense_rel(1 + (seed as usize * 7 + k) % 40, 9, seed + k as u64)
                            })
                            .collect();
                        let tickets: Vec<SpillTicket> =
                            rels.iter().map(|r| mgr.spill(r).expect("spill")).collect();
                        for (k, (ticket, rel)) in tickets.iter().zip(&rels).enumerate().rev() {
                            assert_eq!(&mgr.reload(ticket).expect("reload"), rel);
                            // Every other run leaves one extent to its drop.
                            if k > 0 || i % 2 == 0 {
                                mgr.remove(ticket);
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("spilling thread");
        }
        let store = store_in(&dir).expect("store");
        let extents = store.extents.lock().unwrap();
        assert!(extents.end > 0);
        assert_eq!(extents.free, vec![(0, extents.end)], "one free extent");
    }

    #[test]
    fn the_free_list_is_first_fit_and_coalesces() {
        let mut e = Extents::default();
        let (a, b, c) = (e.take(1), e.take(PAGE + 1), e.take(PAGE));
        assert_eq!((a, b, c, e.end), (0, PAGE, 3 * PAGE, 4 * PAGE));
        e.give(b, PAGE + 1);
        assert_eq!(e.take(PAGE), PAGE, "first fit");
        assert_eq!(e.free, vec![(2 * PAGE, PAGE)]);
        e.give(c, PAGE);
        assert_eq!(e.free, vec![(2 * PAGE, 2 * PAGE)], "merged with its left");
        assert_eq!(e.take(3 * PAGE), 2 * PAGE, "a free tail grows in place");
        assert_eq!(e.end, 5 * PAGE);
        for (at, len) in [(0, 1), (2 * PAGE, 3 * PAGE), (PAGE, PAGE)] {
            e.give(at, len);
        }
        assert_eq!(e.free, vec![(0, 5 * PAGE)], "merged both ways");
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
            let mgr = own_manager("prop-flip");
            let rel = dense_rel(3, 3, seed);
            let ticket = mgr.spill(&rel).expect("spill");
            let idx = victim % ticket.len as usize;
            let byte = extent(&mgr, &ticket)[idx];
            overwrite(&mgr, ticket.offset + idx as u64, &[byte ^ mask]);
            prop_assert!(matches!(mgr.reload(&ticket), Err(SpillError::Corrupt(_))));
        }
    }
}
