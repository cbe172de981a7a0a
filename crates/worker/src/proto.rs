//! Coordinator ↔ worker message protocol.
//!
//! Every message is one checksummed [`matopt_core::Frame`], its body
//! read through the one [`WordReader`]. Relations travel as the
//! engine's relation record ([`matopt_engine::push_relation`], the
//! spill codec's bytes inside), so a relation torn in flight is
//! rejected by exactly the machinery that rejects a torn spill extent or
//! checkpoint. Decoding never panics: every malformed body is a
//! `String` error the fleet treats as worker death.

use matopt_core::{
    format_words, op_from_words, op_to_words, push_bytes, push_mtype, MatrixType, Op, PhysFormat,
};
use matopt_engine::{push_relation, relation_record_words, take_relation, DistRelation};

pub use matopt_core::WordReader;

/// Worker → coordinator, once per connection: who is connecting.
pub const TAG_HELLO: u64 = 1;
/// Coordinator → worker: one vertex's work.
pub const TAG_TASK: u64 = 2;
/// Worker → coordinator: a task's output relation.
pub const TAG_RESULT: u64 = 3;
/// Worker → coordinator: the task ran and failed (a kernel error or
/// panic); body as [`encode_task_err`], naming it. The worker lives on.
pub const TAG_TASK_ERR: u64 = 4;
/// Worker → coordinator on the heartbeat channel: still alive.
pub const TAG_BEAT: u64 = 5;
/// Coordinator → worker: exit cleanly.
pub const TAG_SHUTDOWN: u64 = 6;
/// Coordinator → worker: chaos hook (mute heartbeats = simulated hang).
pub const TAG_CHAOS: u64 = 7;
/// Coordinator → worker: drop these cached values; the body is their
/// ids, one word each.
pub const TAG_EVICT: u64 = 8;
/// Worker → coordinator: a [`TaskInput::Cached`] id is not in the cache,
/// so the task did not run; body as [`encode_task_err`].
pub const TAG_TASK_MISS: u64 = 9;

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

/// An inline input's id when no later task can be handed the same
/// value (a transformed edge's copy): the worker runs on it without
/// caching it. Value ids start above it.
pub const UNCACHED: u64 = 0;

/// One input of a dispatched task.
///
/// `vertex` is the *value id* the coordinator gave this relation — fleet
/// unique, never reused — not a graph vertex: one producer's output
/// reaches its consumers as several values (one per physical format),
/// and runs sharing a fleet share no values.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskInput {
    /// The relation travels with the task.
    Inline {
        /// The value id (the worker caches the relation under it).
        vertex: u64,
        /// The relation, in the format the implementation expects.
        rel: DistRelation,
    },
    /// The worker already holds the value in its cache — the
    /// coordinator's affinity optimization. A worker that does not
    /// answers [`TAG_TASK_MISS`] and the coordinator re-ships inline.
    Cached {
        /// The value id.
        vertex: u64,
    },
}

/// One vertex's work, as shipped to a worker.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Coordinator-assigned sequence number; echoed in the response.
    pub seq: u64,
    /// The value id the worker caches the output under (see
    /// [`TaskInput`]).
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

/// Encodes a task body.
#[must_use]
pub fn encode_task(t: &TaskSpec) -> Vec<u64> {
    let inputs: Vec<InputRef<'_>> = t
        .inputs
        .iter()
        .map(|input| match input {
            TaskInput::Inline { vertex, rel } => InputRef::Inline {
                vertex: *vertex,
                rel,
            },
            TaskInput::Cached { vertex } => InputRef::Cached { vertex: *vertex },
        })
        .collect();
    let head = TaskHead {
        seq: t.seq,
        vertex: t.vertex,
        label: &t.label,
        impl_id: t.impl_id,
        op: t.op,
        out_type: t.out_type,
        out_format: t.out_format,
        stall_ms: t.stall_ms,
    };
    encode_task_from(&head, &inputs)
}

/// A [`TaskSpec`] without its inputs, borrowed: what the fleet encodes
/// a dispatch from.
pub(crate) struct TaskHead<'a> {
    pub seq: u64,
    pub vertex: u64,
    pub label: &'a str,
    pub impl_id: u16,
    pub op: Op,
    pub out_type: MatrixType,
    pub out_format: PhysFormat,
    pub stall_ms: u64,
}

/// A [`TaskInput`] whose relation is borrowed from the run that owns it.
#[derive(Clone, Copy)]
pub(crate) enum InputRef<'a> {
    Inline { vertex: u64, rel: &'a DistRelation },
    Cached { vertex: u64 },
}

/// The one task encoder: a body sized once, each inline relation
/// encoded straight from the caller's value into it.
pub(crate) fn encode_task_from(t: &TaskHead<'_>, inputs: &[InputRef<'_>]) -> Vec<u64> {
    let head_words = 11 + 1 + t.label.len().div_ceil(8) + 1;
    let input_words: usize = inputs
        .iter()
        .map(|input| match input {
            InputRef::Inline { rel, .. } => 2 + relation_record_words(rel),
            InputRef::Cached { .. } => 2,
        })
        .sum();
    let mut w = Vec::with_capacity(head_words + input_words);
    w.extend_from_slice(&[t.seq, t.vertex, u64::from(t.impl_id)]);
    w.extend_from_slice(&op_to_words(t.op));
    push_mtype(&mut w, t.out_type);
    w.extend_from_slice(&format_words(t.out_format));
    w.push(t.stall_ms);
    push_bytes(&mut w, t.label.as_bytes());
    w.push(inputs.len() as u64);
    for input in inputs {
        match *input {
            InputRef::Inline { vertex, rel } => {
                w.extend_from_slice(&[0, vertex]);
                push_relation(&mut w, rel);
            }
            InputRef::Cached { vertex } => w.extend_from_slice(&[1, vertex]),
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
    let out_type = r.take_mtype("task output type")?;
    let out_format = r.take_format("task output format")?;
    let stall_ms = r.take("task stall")?;
    let label = String::from_utf8(r.take_bytes("task label")?)
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
    let mut w = Vec::with_capacity(1 + relation_record_words(rel));
    w.push(seq);
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
    let msg = String::from_utf8(r.take_bytes("error message")?)
        .map_err(|_| "error message is not UTF-8".to_string())?;
    r.finish()?;
    Ok((seq, msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use matopt_core::fnv1a_64;
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

    /// Message bodies are pinned word for word: these are the hashes of
    /// the bodies the fleet shipped before the relation record moved
    /// into the engine.
    #[test]
    fn task_and_result_bodies_are_golden() {
        let task = encode_task(&sample_task());
        assert_eq!((task.len(), fnv1a_64(&task)), (60, 0x6945_ced4_595d_6452));
        let result = encode_result(99, &sample_rel(2));
        assert_eq!(
            (result.len(), fnv1a_64(&result)),
            (43, 0x23b6_983c_6d18_4908)
        );
    }

    /// Every body is allocated once, at its final size: a relation is
    /// encoded straight into it, never grown into it.
    #[test]
    fn bodies_are_sized_once() {
        let task = encode_task(&sample_task());
        assert_eq!(task.capacity(), task.len());
        let result = encode_result(99, &sample_rel(2));
        assert_eq!(result.capacity(), result.len());
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
