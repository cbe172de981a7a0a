//! Coordinator ↔ worker message protocol.
//!
//! Every message is one checksummed [`matopt_core::Frame`] (the
//! all-u64-LE wire idiom shared with spill files and the plan cache).
//! Relation payloads reuse the engine's spill codec byte-for-byte
//! ([`matopt_engine::encode_relation`]), so a relation torn in flight
//! is rejected by exactly the machinery that rejects a torn spill
//! file. Decoding never panics: every malformed body is a `String`
//! error the fleet treats as worker death.

use matopt_core::{
    format_from_words, format_words, op_from_words, op_to_words, MatrixType, Op, PhysFormat,
};
use matopt_engine::DistRelation;

/// Worker → coordinator, once per connection: who is connecting.
pub const TAG_HELLO: u64 = 1;
/// Coordinator → worker: one vertex's work.
pub const TAG_TASK: u64 = 2;
/// Worker → coordinator: a task's output relation.
pub const TAG_RESULT: u64 = 3;
/// Worker → coordinator: a task failed (kernel error); body names it.
pub const TAG_TASK_ERR: u64 = 4;
/// Worker → coordinator on the heartbeat channel: still alive.
pub const TAG_BEAT: u64 = 5;
/// Coordinator → worker: exit cleanly.
pub const TAG_SHUTDOWN: u64 = 6;
/// Coordinator → worker: chaos hook (mute heartbeats = simulated hang).
pub const TAG_CHAOS: u64 = 7;

/// Hello `channel` value for the task connection.
pub const CHANNEL_TASK: u64 = 0;
/// Hello `channel` value for the heartbeat connection.
pub const CHANNEL_BEAT: u64 = 1;

/// The per-connection handshake body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Fleet index of the worker.
    pub worker: u32,
    /// [`CHANNEL_TASK`] or [`CHANNEL_BEAT`].
    pub channel: u64,
    /// Spawn generation (increments on every restart), so a stale
    /// connection from a killed predecessor can never be mistaken for
    /// the replacement's.
    pub generation: u64,
    /// The worker's OS pid.
    pub pid: u32,
}

/// Encodes a [`Hello`] body.
#[must_use]
pub fn encode_hello(h: Hello) -> Vec<u64> {
    vec![
        u64::from(h.worker),
        h.channel,
        h.generation,
        u64::from(h.pid),
    ]
}

/// Decodes a [`Hello`] body.
///
/// # Errors
/// A message naming the malformed field.
pub fn decode_hello(body: &[u64]) -> Result<Hello, String> {
    let mut r = WordReader::new(body);
    let worker = u32::try_from(r.take("hello worker id")?)
        .map_err(|_| "hello worker id out of range".to_string())?;
    let channel = r.take("hello channel")?;
    if channel != CHANNEL_TASK && channel != CHANNEL_BEAT {
        return Err(format!("unknown hello channel {channel}"));
    }
    let generation = r.take("hello generation")?;
    let pid =
        u32::try_from(r.take("hello pid")?).map_err(|_| "hello pid out of range".to_string())?;
    r.finish()?;
    Ok(Hello {
        worker,
        channel,
        generation,
        pid,
    })
}

/// One input of a dispatched task.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskInput {
    /// The relation travels with the task.
    Inline {
        /// The producing vertex (the worker caches the value under it).
        vertex: u64,
        /// The relation, in the format the implementation expects.
        rel: DistRelation,
    },
    /// The worker already holds the value in its vertex cache — the
    /// coordinator's affinity optimization. A worker that lost its
    /// cache (it is a fresh restart) reports a task error and the
    /// coordinator re-ships inline.
    Cached {
        /// The producing vertex.
        vertex: u64,
    },
}

/// One vertex's work, as shipped to a worker.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Coordinator-assigned sequence number; echoed in the response.
    pub seq: u64,
    /// The vertex being computed (also the cache key for the output).
    pub vertex: u64,
    /// The vertex's graph label, for error messages.
    pub label: String,
    /// The chosen implementation, as its id in
    /// [`matopt_core::ImplRegistry::paper_default`] (both sides hold
    /// the same registry; only the strategy matters for execution).
    pub impl_id: u16,
    /// The operator.
    pub op: Op,
    /// Output matrix type.
    pub out_type: MatrixType,
    /// Output physical format.
    pub out_format: PhysFormat,
    /// Chaos hook: milliseconds the worker stalls *mid-result-frame*
    /// (after flushing the first half), so a seeded kill lands while
    /// the result stream is torn in half. `0` in production.
    pub stall_ms: u64,
    /// The task's inputs, in argument order.
    pub inputs: Vec<TaskInput>,
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

/// Appends a byte string as `len` + zero-padded LE words.
fn push_bytes(words: &mut Vec<u64>, bytes: &[u8]) {
    words.push(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        words.push(u64::from_le_bytes(buf));
    }
}

/// Reads a byte string written by [`push_bytes`].
fn take_bytes(r: &mut WordReader<'_>, what: &str) -> Result<Vec<u8>, String> {
    let len = r.take_count(what, usize::MAX / 16)?;
    let nwords = len.div_ceil(8);
    let words = r.take_slice(nwords, what)?;
    let mut bytes = Vec::with_capacity(len);
    for (i, w) in words.iter().enumerate() {
        let buf = w.to_le_bytes();
        let take = (len - i * 8).min(8);
        bytes.extend_from_slice(&buf[..take]);
    }
    Ok(bytes)
}

fn push_mtype(words: &mut Vec<u64>, m: MatrixType) {
    words.push(m.rows);
    words.push(m.cols);
    words.push(m.sparsity.to_bits());
}

fn take_mtype(r: &mut WordReader<'_>, what: &str) -> Result<MatrixType, String> {
    let rows = r.take(what)?;
    let cols = r.take(what)?;
    let sparsity = f64::from_bits(r.take(what)?);
    if !(0.0..=1.0).contains(&sparsity) {
        return Err(format!("{what}: sparsity {sparsity} outside [0, 1]"));
    }
    Ok(MatrixType {
        rows,
        cols,
        sparsity,
    })
}

fn take_format(r: &mut WordReader<'_>, what: &str) -> Result<PhysFormat, String> {
    let w0 = r.take(what)?;
    let w1 = r.take(what)?;
    format_from_words([w0, w1]).ok_or_else(|| format!("{what}: unknown format words [{w0}, {w1}]"))
}

fn push_relation(words: &mut Vec<u64>, rel: &DistRelation) {
    push_mtype(words, rel.mtype);
    words.extend_from_slice(&format_words(rel.format));
    push_bytes(words, &matopt_engine::encode_relation(rel));
}

fn take_relation(r: &mut WordReader<'_>, what: &str) -> Result<DistRelation, String> {
    let mtype = take_mtype(r, what)?;
    let format = take_format(r, what)?;
    let bytes = take_bytes(r, what)?;
    matopt_engine::decode_relation(&bytes, mtype, format).map_err(|e| format!("{what}: {e}"))
}

/// Encodes a task body.
#[must_use]
pub fn encode_task(t: &TaskSpec) -> Vec<u64> {
    let mut w = vec![t.seq, t.vertex, u64::from(t.impl_id)];
    w.extend_from_slice(&op_to_words(t.op));
    push_mtype(&mut w, t.out_type);
    w.extend_from_slice(&format_words(t.out_format));
    w.push(t.stall_ms);
    push_bytes(&mut w, t.label.as_bytes());
    w.push(t.inputs.len() as u64);
    for input in &t.inputs {
        match input {
            TaskInput::Inline { vertex, rel } => {
                w.push(0);
                w.push(*vertex);
                push_relation(&mut w, rel);
            }
            TaskInput::Cached { vertex } => {
                w.push(1);
                w.push(*vertex);
            }
        }
    }
    w
}

/// Decodes a task body.
///
/// # Errors
/// A message naming the malformed field; the worker exits on any.
pub fn decode_task(body: &[u64]) -> Result<TaskSpec, String> {
    let mut r = WordReader::new(body);
    let seq = r.take("task seq")?;
    let vertex = r.take("task vertex")?;
    let impl_id = u16::try_from(r.take("task impl id")?)
        .map_err(|_| "task impl id out of range".to_string())?;
    let op0 = r.take("task op")?;
    let op1 = r.take("task op payload")?;
    let op =
        op_from_words([op0, op1]).ok_or_else(|| format!("task op words [{op0}, {op1}] unknown"))?;
    let out_type = take_mtype(&mut r, "task output type")?;
    let out_format = take_format(&mut r, "task output format")?;
    let stall_ms = r.take("task stall")?;
    let label = String::from_utf8(take_bytes(&mut r, "task label")?)
        .map_err(|_| "task label is not UTF-8".to_string())?;
    let n_inputs = r.take_count("task input count", 64)?;
    let mut inputs = Vec::with_capacity(n_inputs);
    for i in 0..n_inputs {
        let what = format!("task input {i}");
        let mode = r.take(&what)?;
        let vertex = r.take(&what)?;
        inputs.push(match mode {
            0 => TaskInput::Inline {
                vertex,
                rel: take_relation(&mut r, &what)?,
            },
            1 => TaskInput::Cached { vertex },
            other => return Err(format!("{what}: unknown input mode {other}")),
        });
    }
    r.finish()?;
    Ok(TaskSpec {
        seq,
        vertex,
        label,
        impl_id,
        op,
        out_type,
        out_format,
        stall_ms,
        inputs,
    })
}

/// Encodes a successful result body: the echoed `seq` plus the output
/// relation.
#[must_use]
pub fn encode_result(seq: u64, rel: &DistRelation) -> Vec<u64> {
    let mut w = vec![seq];
    push_relation(&mut w, rel);
    w
}

/// Decodes a result body into `(seq, relation)`.
///
/// # Errors
/// A message naming the malformed field.
pub fn decode_result(body: &[u64]) -> Result<(u64, DistRelation), String> {
    let mut r = WordReader::new(body);
    let seq = r.take("result seq")?;
    let rel = take_relation(&mut r, "result relation")?;
    r.finish()?;
    Ok((seq, rel))
}

/// Encodes a task-error body: the echoed `seq` plus a UTF-8 message.
#[must_use]
pub fn encode_task_err(seq: u64, msg: &str) -> Vec<u64> {
    let mut w = vec![seq];
    push_bytes(&mut w, msg.as_bytes());
    w
}

/// Decodes a task-error body into `(seq, message)`.
///
/// # Errors
/// A message naming the malformed field.
pub fn decode_task_err(body: &[u64]) -> Result<(u64, String), String> {
    let mut r = WordReader::new(body);
    let seq = r.take("error seq")?;
    let msg = String::from_utf8(take_bytes(&mut r, "error message")?)
        .map_err(|_| "error message is not UTF-8".to_string())?;
    r.finish()?;
    Ok((seq, msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use matopt_kernels::DenseMatrix;

    fn sample_rel(seed: u64) -> DistRelation {
        let d = DenseMatrix::from_fn(6, 4, |i, j| (i * 7 + j) as f64 + seed as f64 * 0.5);
        DistRelation::from_dense(&d, PhysFormat::Tile { side: 4 }).expect("relation")
    }

    fn sample_task() -> TaskSpec {
        TaskSpec {
            seq: 41,
            vertex: 7,
            label: "dW1".to_string(),
            impl_id: 3,
            op: Op::ScalarMul(2.25),
            out_type: MatrixType {
                rows: 6,
                cols: 4,
                sparsity: 1.0,
            },
            out_format: PhysFormat::Tile { side: 4 },
            stall_ms: 0,
            inputs: vec![
                TaskInput::Inline {
                    vertex: 3,
                    rel: sample_rel(1),
                },
                TaskInput::Cached { vertex: 5 },
            ],
        }
    }

    #[test]
    fn hello_round_trips() {
        let h = Hello {
            worker: 2,
            channel: CHANNEL_BEAT,
            generation: 9,
            pid: 4242,
        };
        assert_eq!(decode_hello(&encode_hello(h)).unwrap(), h);
        assert!(decode_hello(&[1]).unwrap_err().contains("hello channel"));
        assert!(decode_hello(&[1, 7, 0, 0]).unwrap_err().contains("channel"));
    }

    #[test]
    fn task_round_trips() {
        let t = sample_task();
        assert_eq!(decode_task(&encode_task(&t)).unwrap(), t);
    }

    #[test]
    fn result_and_error_round_trip() {
        let rel = sample_rel(2);
        let (seq, back) = decode_result(&encode_result(99, &rel)).unwrap();
        assert_eq!(seq, 99);
        assert_eq!(back, rel);
        let (seq, msg) = decode_task_err(&encode_task_err(7, "kernel näh")).unwrap();
        assert_eq!((seq, msg.as_str()), (7, "kernel näh"));
    }

    /// Satellite-4 at the message layer: every prefix truncation of a
    /// task body is a structured decode error, never a panic or an
    /// accidental value.
    #[test]
    fn every_task_prefix_truncation_errors() {
        let body = encode_task(&sample_task());
        for cut in 0..body.len() {
            assert!(
                decode_task(&body[..cut]).is_err(),
                "prefix {cut} of {} decoded",
                body.len()
            );
        }
        let result = encode_result(1, &sample_rel(3));
        for cut in 0..result.len() {
            assert!(
                decode_result(&result[..cut]).is_err(),
                "result prefix {cut}"
            );
        }
    }

    /// Structural corruption below the frame checksum (which covers
    /// arbitrary bit flips — see the core wire tests) is still caught
    /// by the body codec's own validation.
    #[test]
    fn corrupted_structure_is_rejected() {
        let mut body = encode_task(&sample_task());
        let n = body.len();
        body[n - 2] = 7; // the trailing Cached input's mode word
        let err = decode_task(&body).unwrap_err();
        assert!(err.contains("unknown input mode 7"), "{err}");
    }
}
