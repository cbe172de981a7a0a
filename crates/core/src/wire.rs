//! Checksummed all-u64-little-endian frames: the one record layout of
//! every socket message *and* every checksummed file.
//!
//! A frame is `[magic, tag, len, sum, body]`: a magic word naming the
//! kind of stream, an application tag, the body length in words, a
//! checksum over the body bytes, then the body as little-endian u64
//! words. A [`Framing`] names one kind — its magic and its checksum, by
//! purpose: [`Framing::WIRE`] (`MWIR0002`, [`BulkChecksum`]) for the
//! coordinator ↔ worker socket, whose frames are bulk, process-lifetime
//! payloads between two halves of one build; [`Framing::persisted`]
//! (FNV-1a, pinned by reference vectors) for files that outlive a build
//! — the plan cache, the throughput curve, training checkpoints. Each of
//! those formats is a sequence of frames and owns only its body grammar,
//! which it reads through the one bounds-checked [`WordReader`] and
//! writes to disk through the one [`write_atomic`].
//!
//! Bodies are words in memory and bytes only on the stream, and they
//! cross between the two through one small fixed buffer per call: the
//! writer sums the body's words, then streams header and body through
//! the buffer; the reader fills the buffer from the stream and turns it
//! straight into body words, summing each piece while it is in cache. A
//! megabyte body is never held as a second, byte-shaped copy.
//!
//! The reader frames a *stream* (a socket, or a file's bytes), so it
//! distinguishes three terminal conditions:
//!
//! * [`WireError::Eof`] — the stream ended cleanly *between* frames
//!   (the peer closed after a complete frame; a file ended after its
//!   last record);
//! * [`WireError::Corrupt`] — the stream ended inside a frame (a torn
//!   frame from a killed peer), the magic was wrong, the declared
//!   length was absurd, or the checksum did not match. A torn frame is
//!   **never** partially decoded: the body either verifies in full or
//!   is rejected whole.
//! * [`WireError::Io`] — the OS reported a real I/O error.
//!
//! Workers killed with `SIGKILL` mid-write are the design case: the
//! coordinator sees either `Eof` (killed between frames) or `Corrupt`
//! (killed mid-frame), and treats both as worker death — it must never
//! see a fabricated value.
//!
//! The tag word is outside the checksum (the `MWIR0002` bytes are
//! pinned), so a body grammar that must reject every damaged byte
//! checks the tag of each frame it reads against the one it expects.

use crate::canon::{fnv1a_extend, FNV64_OFFSET};
use crate::{format_from_words, BulkChecksum, MatrixType, PhysFormat};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic word opening every socket frame (`b"MWIR0002"` little-endian).
/// `MWIR0001` frames carried an FNV-1a body checksum; a stale daemon
/// fails on the magic, not the sum.
pub const WIRE_MAGIC: u64 = u64::from_le_bytes(*b"MWIR0002");

/// Largest body accepted, in words (64 MiB of payload). A torn or
/// hostile length word fails fast instead of provoking a huge
/// allocation.
pub const WIRE_MAX_BODY_WORDS: u64 = 8 * 1024 * 1024;

/// Header size in bytes: magic, tag, length, checksum.
const HEADER_BYTES: usize = 32;

/// Words per pass of the streamed writer and reader: 16 KiB, a cache-
/// resident piece of any body.
const STREAM_WORDS: usize = 2048;

/// What went wrong reading a frame stream.
#[derive(Debug)]
pub enum WireError {
    /// The stream ended cleanly on a frame boundary.
    Eof,
    /// The stream's bytes are not a valid frame: torn mid-frame, bad
    /// magic, absurd length, or checksum mismatch.
    Corrupt(String),
    /// The underlying transport failed.
    Io(io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Eof => write!(f, "stream ended on a frame boundary"),
            WireError::Corrupt(m) => write!(f, "corrupt frame: {m}"),
            WireError::Io(e) => write!(f, "frame transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// One kind of frame stream: the magic word that opens each of its
/// frames and the checksum taken over each body's bytes.
#[derive(Debug, Clone, Copy)]
pub struct Framing {
    magic: u64,
    sum: SumKind,
}

/// Which checksum a [`Framing`] takes over its bodies.
#[derive(Debug, Clone, Copy)]
enum SumKind {
    /// [`BulkChecksum`]: word-parallel, value free to change.
    Bulk,
    /// [`crate::fnv1a_bytes`]: pinned by reference vectors.
    Fnv1a,
}

/// A body checksum in progress, fed one piece of words at a time. Over
/// the little-endian bytes of the same words it equals the one-shot
/// [`crate::bulk_checksum`] / [`crate::fnv1a_bytes`]. One lives on the
/// stack per frame, so the size gap between variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum BodySum {
    Bulk(BulkChecksum),
    Fnv1a(u64),
}

impl BodySum {
    fn words(&mut self, words: &[u64]) {
        match self {
            BodySum::Bulk(sum) => sum.u64s(words),
            BodySum::Fnv1a(h) => *h = fnv1a_extend(*h, words),
        }
    }

    fn finish(self) -> u64 {
        match self {
            BodySum::Bulk(sum) => sum.finish(),
            BodySum::Fnv1a(h) => h,
        }
    }
}

/// Writes `words` little-endian into the front of `buf`.
fn put_le(buf: &mut [[u8; 8]], words: &[u64]) {
    for (slot, w) in buf.iter_mut().zip(words) {
        *slot = w.to_le_bytes();
    }
}

impl Framing {
    /// The coordinator ↔ worker socket: [`WIRE_MAGIC`] and
    /// [`BulkChecksum`], whose value is free to change between builds.
    pub const WIRE: Framing = Framing {
        magic: WIRE_MAGIC,
        sum: SumKind::Bulk,
    };

    /// A persisted file kind under its own 8-byte magic, summed with
    /// [`crate::fnv1a_bytes`] — files outlive the build that wrote them,
    /// so their checksum is the one pinned by reference vectors.
    #[must_use]
    pub const fn persisted(magic: &[u8; 8]) -> Framing {
        Framing {
            magic: u64::from_le_bytes(*magic),
            sum: SumKind::Fnv1a,
        }
    }

    fn body_sum(&self) -> BodySum {
        match self.sum {
            SumKind::Bulk => BodySum::Bulk(BulkChecksum::new()),
            SumKind::Fnv1a => BodySum::Fnv1a(FNV64_OFFSET),
        }
    }

    /// Writes one frame to `w` without flushing: one pass sums the body
    /// words, a second streams header and body through a fixed
    /// `STREAM_WORDS` buffer.
    ///
    /// # Errors
    /// Propagates the transport's I/O errors.
    pub fn write<W: Write>(&self, w: &mut W, tag: u64, body: &[u64]) -> io::Result<()> {
        let mut sum = self.body_sum();
        sum.words(body);
        let header = [self.magic, tag, body.len() as u64, sum.finish()];
        let mut buf = [[0u8; 8]; STREAM_WORDS];
        let (first, rest) = body.split_at(body.len().min(STREAM_WORDS - header.len()));
        put_le(&mut buf, &header);
        put_le(&mut buf[header.len()..], first);
        w.write_all(buf[..header.len() + first.len()].as_flattened())?;
        for words in rest.chunks(STREAM_WORDS) {
            put_le(&mut buf, words);
            w.write_all(buf[..words.len()].as_flattened())?;
        }
        Ok(())
    }

    /// Encodes one frame — header plus body — as bytes.
    #[must_use]
    pub fn frame_bytes(&self, tag: u64, body: &[u64]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES + body.len() * 8);
        self.write(&mut out, tag, body)
            .expect("writing to a Vec cannot fail");
        out
    }
}

/// Encodes one socket frame ([`Framing::WIRE`]) as bytes, ready to
/// write to any transport.
#[must_use]
pub fn frame_bytes(tag: u64, body: &[u64]) -> Vec<u8> {
    Framing::WIRE.frame_bytes(tag, body)
}

/// Writes one socket frame to `w` and flushes it.
///
/// # Errors
/// Propagates the transport's I/O errors.
pub fn write_frame<W: Write>(w: &mut W, tag: u64, body: &[u64]) -> io::Result<()> {
    Framing::WIRE.write(w, tag, body)?;
    w.flush()
}

/// One decoded frame: its tag word and body words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Application-level frame kind.
    pub tag: u64,
    /// Checksummed payload words.
    pub body: Vec<u64>,
}

/// Reads `buf.len()` bytes from `r`, distinguishing a clean EOF before
/// any byte (`Ok(false)`) from a torn read (`Corrupt`) and a transport
/// failure (`Io`). Interrupted reads are retried.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<bool, WireError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(false);
                }
                return Err(WireError::Corrupt(format!(
                    "stream truncated mid-frame: wanted {} bytes, got {got}",
                    buf.len()
                )));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads whole frames off any byte stream — a socket, a `File`, a
/// file's bytes as `&[u8]` — verifying each one.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    framing: Framing,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a socket byte stream ([`Framing::WIRE`]).
    pub fn new(inner: R) -> Self {
        FrameReader::with_framing(Framing::WIRE, inner)
    }

    /// Wraps a byte stream of `framing`'s kind.
    pub fn with_framing(framing: Framing, inner: R) -> Self {
        FrameReader { inner, framing }
    }

    /// Returns the underlying stream.
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// Reads and verifies the next frame.
    ///
    /// # Errors
    /// [`WireError::Eof`] on a clean end-of-stream, otherwise
    /// [`WireError::Corrupt`] / [`WireError::Io`] as documented on the
    /// module.
    pub fn read_frame(&mut self) -> Result<Frame, WireError> {
        self.read_record()?.map_err(WireError::Corrupt)
    }

    /// [`FrameReader::read_frame`] for a file of independent records:
    /// a frame whose body fails its checksum — the one kind of damage
    /// that leaves the next frame's boundary known — comes back as the
    /// inner `Err`, with the stream positioned on the frame after it,
    /// so the caller can count it and read on.
    ///
    /// # Errors
    /// As [`FrameReader::read_frame`], minus the checksum mismatch;
    /// after any outer `Err` the boundary is lost and reading must stop.
    pub fn read_record(&mut self) -> Result<Result<Frame, String>, WireError> {
        let mut header = [0u8; HEADER_BYTES];
        if !read_exact_or_eof(&mut self.inner, &mut header)? {
            return Err(WireError::Eof);
        }
        let word =
            |i: usize| u64::from_le_bytes(header[i * 8..(i + 1) * 8].try_into().expect("8 bytes"));
        let (magic, tag, len, want_sum) = (word(0), word(1), word(2), word(3));
        let want_magic = self.framing.magic;
        if magic != want_magic {
            return Err(WireError::Corrupt(format!(
                "bad magic {magic:#018x} (expected {want_magic:#018x})"
            )));
        }
        if len > WIRE_MAX_BODY_WORDS {
            return Err(WireError::Corrupt(format!(
                "frame body of {len} words exceeds the {WIRE_MAX_BODY_WORDS}-word cap"
            )));
        }
        // The cap keeps `len` far inside `usize`.
        let len = len as usize;
        let mut body = Vec::with_capacity(len);
        let mut sum = self.framing.body_sum();
        let mut buf = [[0u8; 8]; STREAM_WORDS];
        while body.len() < len {
            let piece = &mut buf[..(len - body.len()).min(STREAM_WORDS)];
            if !read_exact_or_eof(&mut self.inner, piece.as_flattened_mut())? {
                return Err(WireError::Corrupt(format!(
                    "stream truncated mid-frame: {} of {len} body words missing",
                    len - body.len()
                )));
            }
            let start = body.len();
            body.extend(piece.iter().map(|w| u64::from_le_bytes(*w)));
            sum.words(&body[start..]);
        }
        let got_sum = sum.finish();
        Ok(if got_sum == want_sum {
            Ok(Frame { tag, body })
        } else {
            Err(format!(
                "body checksum mismatch: stored {want_sum:#018x}, computed {got_sum:#018x}"
            ))
        })
    }
}

/// The whole words of a little-endian byte stream.
#[cfg(test)]
fn le_words(bytes: &[u8]) -> Vec<u64> {
    let (words, _) = bytes.as_chunks::<8>();
    words.iter().map(|w| u64::from_le_bytes(*w)).collect()
}

/// Bounds-checked reader over a frame body, mirroring the spill
/// reader's contract: every overrun is a structured error.
#[derive(Debug)]
pub struct WordReader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> WordReader<'a> {
    /// Wraps a body.
    #[must_use]
    pub fn new(words: &'a [u64]) -> Self {
        WordReader { words, pos: 0 }
    }

    /// Takes the next word, or errors naming `what` was missing.
    #[inline]
    pub fn take(&mut self, what: &str) -> Result<u64, String> {
        let w = self
            .words
            .get(self.pos)
            .copied()
            .ok_or_else(|| format!("body truncated reading {what}"))?;
        self.pos += 1;
        Ok(w)
    }

    /// Takes `n` words as a slice.
    pub fn take_slice(&mut self, n: usize, what: &str) -> Result<&'a [u64], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.words.len())
            .ok_or_else(|| format!("body truncated reading {what}"))?;
        let s = &self.words[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Takes a `count ≤ max` word, guarding allocations against torn
    /// length fields.
    pub fn take_count(&mut self, what: &str, max: usize) -> Result<usize, String> {
        let v = self.take(what)?;
        let v = usize::try_from(v).map_err(|_| format!("{what} {v} out of range"))?;
        if v > max {
            return Err(format!("{what} {v} exceeds bound {max}"));
        }
        Ok(v)
    }

    /// Takes a byte string written by [`push_bytes`].
    pub fn take_bytes(&mut self, what: &str) -> Result<Vec<u8>, String> {
        let len = self.take_count(what, usize::MAX / 16)?;
        let words = self.take_slice(len.div_ceil(8), what)?;
        let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        bytes.truncate(len);
        Ok(bytes)
    }

    /// Takes a matrix type written by [`push_mtype`].
    pub fn take_mtype(&mut self, what: &str) -> Result<MatrixType, String> {
        let rows = self.take(what)?;
        let cols = self.take(what)?;
        let sparsity = f64::from_bits(self.take(what)?);
        if !(0.0..=1.0).contains(&sparsity) {
            return Err(format!("{what}: sparsity {sparsity} outside [0, 1]"));
        }
        Ok(MatrixType {
            rows,
            cols,
            sparsity,
        })
    }

    /// Takes the two [`crate::format_words`] of a physical format.
    pub fn take_format(&mut self, what: &str) -> Result<PhysFormat, String> {
        let w0 = self.take(what)?;
        let w1 = self.take(what)?;
        format_from_words([w0, w1])
            .ok_or_else(|| format!("{what}: unknown format words [{w0}, {w1}]"))
    }

    /// Asserts the body was fully consumed.
    pub fn finish(&self) -> Result<(), String> {
        if self.pos == self.words.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing words after message body",
                self.words.len() - self.pos
            ))
        }
    }
}

/// Appends a byte string to a word body as its length, then its bytes
/// as zero-padded little-endian words.
pub fn push_bytes(words: &mut Vec<u64>, bytes: &[u8]) {
    words.push(bytes.len() as u64);
    let (whole, tail) = bytes.as_chunks::<8>();
    words.extend(whole.iter().map(|w| u64::from_le_bytes(*w)));
    if !tail.is_empty() {
        let mut buf = [0u8; 8];
        buf[..tail.len()].copy_from_slice(tail);
        words.push(u64::from_le_bytes(buf));
    }
}

/// Appends a matrix type to a word body: rows, cols, sparsity bits.
pub fn push_mtype(words: &mut Vec<u64>, m: MatrixType) {
    words.extend_from_slice(&[m.rows, m.cols, m.sparsity.to_bits()]);
}

/// Replaces `<dir>/<file_name>` with `bytes` atomically: the bytes go
/// to a temp file named by pid and a process-global sequence number
/// (so no two writers — not even two threads of one process — share a
/// temp path), which is then renamed over the target. A writer that
/// dies mid-write leaves the previous file intact plus a
/// `<file_name>.tmp.*` file the next writer sweeps; a failed write
/// removes its own. Nothing is fsynced: what a power loss leaves is
/// for the format's checksums to reject.
///
/// The sweep assumes no rival is mid-write, which writers that share a
/// directory arrange with a lock (the plan cache's). Without one the
/// race stays benign: one complete file wins, and a writer whose temp
/// file a rival swept reports `NotFound`.
///
/// # Errors
/// Propagates filesystem errors; `dir` must exist.
pub fn write_atomic(dir: &Path, file_name: &str, bytes: &[u8]) -> io::Result<()> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp_prefix = format!("{file_name}.tmp.");
    for entry in std::fs::read_dir(dir)?.flatten() {
        if entry
            .file_name()
            .to_str()
            .is_some_and(|name| name.starts_with(&tmp_prefix))
        {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    let tmp = dir.join(format!(
        "{tmp_prefix}{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let written =
        std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, dir.join(file_name)));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame {
                tag: 1,
                body: vec![0xDEAD_BEEF, 42, u64::MAX, 0],
            },
            Frame {
                tag: 2,
                body: vec![],
            },
            Frame {
                tag: 3,
                body: (0..17).map(|i| i * i).collect(),
            },
        ]
    }

    fn stream_of(frames: &[Frame]) -> Vec<u8> {
        let mut s = Vec::new();
        for f in frames {
            s.extend_from_slice(&frame_bytes(f.tag, &f.body));
        }
        s
    }

    #[test]
    fn round_trips_a_stream() {
        let frames = sample_frames();
        let bytes = stream_of(&frames);
        let mut r = FrameReader::new(&bytes[..]);
        for f in &frames {
            assert_eq!(&r.read_frame().unwrap(), f);
        }
        assert!(matches!(r.read_frame(), Err(WireError::Eof)));
    }

    /// The satellite-4 contract at the wire layer: EVERY prefix length
    /// of a valid frame stream decodes to a prefix of the original
    /// frames and then fails with a structured error — `Eof` exactly on
    /// frame boundaries, `Corrupt` everywhere else. No panic, no
    /// fabricated frame.
    #[test]
    fn every_prefix_truncation_is_structured() {
        let frames = sample_frames();
        let bytes = stream_of(&frames);
        // Byte offsets at which a frame ends (clean-EOF points).
        let mut boundaries = vec![0usize];
        let mut off = 0;
        for f in &frames {
            off += frame_bytes(f.tag, &f.body).len();
            boundaries.push(off);
        }
        for cut in 0..bytes.len() {
            let mut r = FrameReader::new(&bytes[..cut]);
            let mut decoded = Vec::new();
            let err = loop {
                match r.read_frame() {
                    Ok(f) => decoded.push(f),
                    Err(e) => break e,
                }
            };
            assert!(
                decoded.iter().zip(frames.iter()).all(|(a, b)| a == b),
                "cut {cut}: decoded frames are not a prefix of the originals"
            );
            if boundaries.contains(&cut) {
                assert!(
                    matches!(err, WireError::Eof),
                    "cut {cut} is a frame boundary but reader said: {err}"
                );
            } else {
                assert!(
                    matches!(err, WireError::Corrupt(_)),
                    "cut {cut} is mid-frame but reader said: {err}"
                );
            }
        }
    }

    /// The one exhaustive corruption loop of the one framing, under
    /// each descriptor: every single-byte flip and every proper prefix
    /// of a frame is an error — except a flip in the tag word, which
    /// the sum does not cover and which surfaces as a different tag
    /// over the untouched body, for the body grammar to refuse.
    #[test]
    fn every_flip_and_prefix_of_a_frame_is_rejected_under_each_framing() {
        let frame = &sample_frames()[2];
        for framing in [Framing::WIRE, Framing::persisted(b"MTST0001")] {
            let clean = framing.frame_bytes(frame.tag, &frame.body);
            let read = |bytes: &[u8]| FrameReader::with_framing(framing, bytes).read_frame();
            assert_eq!(&read(&clean).unwrap(), frame);
            for cut in 0..clean.len() {
                assert!(read(&clean[..cut]).is_err(), "prefix {cut} decoded");
            }
            for i in 0..clean.len() {
                for mask in [0x01u8, 0x40, 0xff] {
                    let mut dirty = clean.clone();
                    dirty[i] ^= mask;
                    match read(&dirty) {
                        Err(WireError::Corrupt(_)) => {}
                        Ok(got) if (8..16).contains(&i) => {
                            assert_ne!(got.tag, frame.tag);
                            assert_eq!(got.body, frame.body);
                        }
                        other => panic!("flip {mask:#04x} at byte {i}: {other:?}"),
                    }
                }
            }
        }
        // A frame of one kind is not a frame of another.
        let wire = frame_bytes(frame.tag, &frame.body);
        assert!(
            FrameReader::with_framing(Framing::persisted(b"MTST0001"), &wire[..])
                .read_frame()
                .is_err()
        );
    }

    /// `MWIR0002` bytes are pinned: header words, then the body, with
    /// the sum the parent build's `BulkChecksum::u64s` produced.
    #[test]
    fn wire_frame_bytes_are_golden() {
        let body = [0xDEAD_BEEF, 42, u64::MAX, 0];
        let bytes = frame_bytes(1, &body);
        let words = le_words(&bytes);
        assert_eq!(words[..4], [WIRE_MAGIC, 1, 4, 0xd990_3bee_9a81_6b61]);
        assert_eq!(words[4..], body);
        assert_eq!(bytes.len(), words.len() * 8);
    }

    /// The frame as one byte vector summed over its bytes — the encoder
    /// before bodies were streamed.
    fn whole_frame(magic: u64, sum: fn(&[u8]) -> u64, tag: u64, body: &[u64]) -> Vec<u8> {
        let body_bytes: Vec<u8> = body.iter().flat_map(|w| w.to_le_bytes()).collect();
        let header = [magic, tag, body.len() as u64, sum(&body_bytes)];
        let mut out: Vec<u8> = header.iter().flat_map(|w| w.to_le_bytes()).collect();
        out.extend_from_slice(&body_bytes);
        out
    }

    fn noisy_words(n: usize) -> Vec<u64> {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                s
            })
            .collect()
    }

    /// Streaming through the fixed buffer changes no byte: at every body
    /// length around a buffer edge (the first pass also carries the
    /// header, so edges sit at both `STREAM_WORDS` and `STREAM_WORDS - 4`)
    /// and for a 2 MiB body — a 512² relation — under each framing.
    #[test]
    fn streamed_frames_equal_the_whole_frame_encoding() {
        let edge = STREAM_WORDS;
        let lens = [0, 1, edge - 5, edge - 4, edge - 3, edge - 1, edge, edge + 1];
        let big = noisy_words(512 * 512);
        for framing in [Framing::WIRE, Framing::persisted(b"MTST0001")] {
            let sum: fn(&[u8]) -> u64 = match framing.sum {
                SumKind::Bulk => crate::bulk_checksum,
                SumKind::Fnv1a => crate::fnv1a_bytes,
            };
            for body in lens.iter().map(|&n| &big[..n]).chain([&big[..]]) {
                let want = whole_frame(framing.magic, sum, 3, body);
                let mut got = Vec::new();
                framing.write(&mut got, 3, body).unwrap();
                assert!(got == want, "{} words", body.len());
                assert_eq!(framing.frame_bytes(3, body), want);
                let back = FrameReader::with_framing(framing, &want[..]).read_frame();
                assert_eq!(back.unwrap().body, body);
            }
        }
        let mut flushed = Vec::new();
        write_frame(&mut flushed, 5, &big[..edge + 1]).unwrap();
        assert_eq!(flushed, frame_bytes(5, &big[..edge + 1]));
    }

    /// A frame whose body spans three reader buffers: a cut at every
    /// buffer boundary (and one word either side) is `Corrupt`, and so
    /// is every byte flip outside the tag word.
    #[test]
    fn a_frame_across_several_buffers_rejects_every_cut_and_flip() {
        let body = noisy_words(2 * STREAM_WORDS + 3);
        let clean = frame_bytes(8, &body);
        let read = |bytes: &[u8]| FrameReader::new(bytes).read_frame();
        assert_eq!(read(&clean).unwrap().body, body);
        for k in 0..=3 {
            let edge = HEADER_BYTES + k * STREAM_WORDS * 8;
            for cut in [edge.saturating_sub(8), edge, edge + 8] {
                if (1..clean.len()).contains(&cut) {
                    assert!(
                        matches!(read(&clean[..cut]), Err(WireError::Corrupt(_))),
                        "cut at byte {cut}"
                    );
                }
            }
        }
        let mut dirty = clean.clone();
        for i in (0..clean.len()).filter(|i| !(8..16).contains(i)) {
            dirty[i] ^= 0x01;
            assert!(
                matches!(read(&dirty), Err(WireError::Corrupt(_))),
                "flip at byte {i}"
            );
            dirty[i] = clean[i];
        }
    }

    #[test]
    fn flipped_body_bit_is_a_checksum_error() {
        let frames = sample_frames();
        let mut bytes = stream_of(&frames);
        let last = bytes.len() - 1; // inside frame 3's body
        bytes[last] ^= 0x40;
        let mut r = FrameReader::new(&bytes[..]);
        assert!(r.read_frame().is_ok());
        assert!(r.read_frame().is_ok());
        match r.read_frame() {
            Err(WireError::Corrupt(m)) => assert!(m.contains("checksum"), "{m}"),
            other => panic!("expected checksum corruption, got {other:?}"),
        }
    }

    /// A file of independent records survives one bad body: the damaged
    /// frame is the inner error and the frames after it still read.
    #[test]
    fn a_record_reader_skips_a_failed_sum_and_keeps_the_boundary() {
        let frames = sample_frames();
        let mut bytes = stream_of(&frames);
        bytes[HEADER_BYTES + 3] ^= 0x40; // inside frame 1's body
        let mut r = FrameReader::new(&bytes[..]);
        assert!(r.read_record().unwrap().unwrap_err().contains("checksum"));
        assert_eq!(r.read_record().unwrap().unwrap(), frames[1]);
        assert_eq!(r.read_record().unwrap().unwrap(), frames[2]);
        assert!(matches!(r.read_record(), Err(WireError::Eof)));
    }

    #[test]
    fn absurd_length_fails_fast() {
        let mut bytes = frame_bytes(9, &[1, 2, 3]);
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut r = FrameReader::new(&bytes[..]);
        match r.read_frame() {
            Err(WireError::Corrupt(m)) => assert!(m.contains("cap"), "{m}"),
            other => panic!("expected length-cap corruption, got {other:?}"),
        }
    }

    #[test]
    fn wrong_magic_is_corrupt() {
        let mut bytes = frame_bytes(9, &[1]);
        bytes[0] ^= 0xFF;
        let mut r = FrameReader::new(&bytes[..]);
        assert!(matches!(r.read_frame(), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn byte_strings_round_trip_at_every_padding() {
        for len in 0..20usize {
            let bytes: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37) | 1).collect();
            let mut words = vec![7];
            push_bytes(&mut words, &bytes);
            assert_eq!(words.len(), 2 + len.div_ceil(8));
            let mut r = WordReader::new(&words);
            assert_eq!(r.take("lead").unwrap(), 7);
            assert_eq!(r.take_bytes("bytes").unwrap(), bytes);
            r.finish().unwrap();
            assert!(WordReader::new(&words[1..words.len() - 1])
                .take_bytes("bytes")
                .is_err());
        }
    }

    #[test]
    fn write_atomic_replaces_the_file_and_sweeps_debris() {
        let dir = std::env::temp_dir().join(format!("matopt-wire-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(write_atomic(&dir, "f.bin", b"x").is_err(), "dir must exist");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("f.bin.tmp.1.crashed"), b"torn").unwrap();
        std::fs::write(dir.join("g.bin.tmp.1.0"), b"someone else's").unwrap();
        write_atomic(&dir, "f.bin", b"one").unwrap();
        write_atomic(&dir, "f.bin", b"two").unwrap();
        assert_eq!(std::fs::read(dir.join("f.bin")).unwrap(), b"two");
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["f.bin", "g.bin.tmp.1.0"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
