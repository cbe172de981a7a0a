//! Checksummed all-u64-little-endian frame layer for inter-process
//! transport.
//!
//! Same idiom as the engine's spill files and the serve plan cache
//! (`plans.mcache`): a magic word, a body length, a stream checksum
//! over the body, then the body as little-endian u64 words. Frames are
//! bulk, process-lifetime payloads (whole relations cross here, and
//! coordinator and daemon are one build), so the checksum is
//! [`BulkChecksum`], not the FNV-1a of the persisted formats. The
//! difference from a file is that this layer frames a *stream* (a
//! socket between the coordinator and a worker process), so the reader
//! must distinguish three terminal conditions:
//!
//! * [`WireError::Eof`] — the stream ended cleanly *between* frames
//!   (the peer closed after a complete frame);
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

use crate::{bulk_checksum, BulkChecksum};
use std::io::{self, Read, Write};

/// Magic word opening every frame (`b"MWIR0002"` little-endian).
/// `MWIR0001` frames carried an FNV-1a body checksum; a stale daemon
/// fails on the magic, not the sum.
pub const WIRE_MAGIC: u64 = u64::from_le_bytes(*b"MWIR0002");

/// Largest body accepted, in words (64 MiB of payload). A torn or
/// hostile length word fails fast instead of provoking a huge
/// allocation.
pub const WIRE_MAX_BODY_WORDS: u64 = 8 * 1024 * 1024;

/// Header size in bytes: magic, tag, length, checksum.
const HEADER_BYTES: usize = 32;

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

/// Encodes one frame — header plus body — as bytes, ready to write to
/// any transport.
#[must_use]
pub fn frame_bytes(tag: u64, body: &[u64]) -> Vec<u8> {
    let mut sum = BulkChecksum::new();
    sum.u64s(body);
    let mut out = Vec::with_capacity(HEADER_BYTES + body.len() * 8);
    for word in [WIRE_MAGIC, tag, body.len() as u64, sum.finish()] {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.extend(body.iter().flat_map(|w| w.to_le_bytes()));
    out
}

/// Writes one frame to `w` and flushes it.
///
/// # Errors
/// Propagates the transport's I/O errors.
pub fn write_frame<W: Write>(w: &mut W, tag: u64, body: &[u64]) -> io::Result<()> {
    w.write_all(&frame_bytes(tag, body))?;
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

/// Reads whole frames off any byte stream, verifying each one.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> Self {
        FrameReader { inner }
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
        let mut header = [0u8; HEADER_BYTES];
        if !read_exact_or_eof(&mut self.inner, &mut header)? {
            return Err(WireError::Eof);
        }
        let word = |i: usize| u64::from_le_bytes(header[i * 8..(i + 1) * 8].try_into().unwrap());
        let magic = word(0);
        if magic != WIRE_MAGIC {
            return Err(WireError::Corrupt(format!(
                "bad magic {magic:#018x} (expected {WIRE_MAGIC:#018x})"
            )));
        }
        let tag = word(1);
        let len = word(2);
        let want_sum = word(3);
        if len > WIRE_MAX_BODY_WORDS {
            return Err(WireError::Corrupt(format!(
                "frame body of {len} words exceeds the {WIRE_MAX_BODY_WORDS}-word cap"
            )));
        }
        let mut body_bytes = vec![0u8; (len as usize) * 8];
        if !read_exact_or_eof(&mut self.inner, &mut body_bytes)? && len > 0 {
            return Err(WireError::Corrupt(format!(
                "stream truncated mid-frame: body of {len} words missing"
            )));
        }
        let got_sum = bulk_checksum(&body_bytes);
        if got_sum != want_sum {
            return Err(WireError::Corrupt(format!(
                "body checksum mismatch: stored {want_sum:#018x}, computed {got_sum:#018x}"
            )));
        }
        let body = body_bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(Frame { tag, body })
    }
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
}
