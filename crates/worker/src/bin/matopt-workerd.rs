//! The worker daemon: dials back to the fleet coordinator, heartbeats,
//! and executes one vertex implementation per task frame.
//!
//! Configuration is via environment (set by the fleet when forking):
//! `MATOPT_WORKER_ADDR` (coordinator loopback address),
//! `MATOPT_WORKER_ID`, `MATOPT_WORKER_GEN`, `MATOPT_WORKER_BEAT_MS`.
//!
//! The daemon is deliberately crash-friendly: any protocol anomaly is
//! an `exit(1)` — the supervisor treats the torn stream as death and
//! handles recovery. Holding corrupted state alive would be worse. A
//! failing kernel is not a protocol anomaly: its error or panic goes
//! back as `TAG_TASK_ERR` and the daemon serves the next task. So does
//! a task whose output format its implementation's type rule does not
//! give for the inputs (`execute_impl` refuses it before running).
//!
//! Each relation costs one decode in and one encode out: inline inputs
//! move from the decoded task into the value cache and the kernel reads
//! them there; the result is sent, then moved into the cache.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use matopt_core::{frame_bytes, write_frame, FrameReader, ImplId, ImplRegistry, WireError};
use matopt_engine::{execute_impl, DistRelation};
use matopt_worker::proto::{
    decode_task, encode_hello, encode_result, encode_task_err, Hello, TaskInput, TaskSpec,
    CHANNEL_BEAT, CHANNEL_TASK, TAG_BEAT, TAG_CHAOS, TAG_EVICT, TAG_HELLO, TAG_RESULT,
    TAG_SHUTDOWN, TAG_TASK, TAG_TASK_ERR, TAG_TASK_MISS, UNCACHED,
};

fn env_u64(name: &str) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("matopt-workerd: missing or malformed {name}");
            std::process::exit(2);
        })
}

fn main() {
    let addr = std::env::var("MATOPT_WORKER_ADDR").unwrap_or_else(|_| {
        eprintln!(
            "matopt-workerd: MATOPT_WORKER_ADDR not set (this binary is forked by the fleet)"
        );
        std::process::exit(2);
    });
    let worker = env_u64("MATOPT_WORKER_ID") as u32;
    let generation = env_u64("MATOPT_WORKER_GEN");
    let beat_ms = env_u64("MATOPT_WORKER_BEAT_MS").max(1);
    let pid = std::process::id();

    matopt_worker::install_termination_handler();

    let dial = |channel: u64| -> TcpStream {
        let stream = TcpStream::connect(&addr).unwrap_or_else(|e| {
            eprintln!("matopt-workerd: dial {addr}: {e}");
            std::process::exit(1);
        });
        stream.set_nodelay(true).ok();
        let hello = Hello {
            worker,
            channel,
            generation,
            pid,
        };
        let mut w = BufWriter::new(stream.try_clone().unwrap_or_else(|e| {
            eprintln!("matopt-workerd: clone stream: {e}");
            std::process::exit(1);
        }));
        if let Err(e) = write_frame(&mut w, TAG_HELLO, &encode_hello(hello)) {
            eprintln!("matopt-workerd: hello: {e}");
            std::process::exit(1);
        }
        stream
    };

    let task_stream = dial(CHANNEL_TASK);
    let beat_stream = dial(CHANNEL_BEAT);

    // Heartbeat thread: one TAG_BEAT per interval until muted (chaos)
    // or the socket dies.
    let muted = Arc::new(AtomicBool::new(false));
    {
        let muted = Arc::clone(&muted);
        std::thread::spawn(move || {
            let mut w = BufWriter::new(beat_stream);
            loop {
                if !muted.load(Ordering::Relaxed)
                    && write_frame(&mut w, TAG_BEAT, &[generation]).is_err()
                {
                    return; // coordinator is gone; main loop sees EOF too
                }
                std::thread::sleep(Duration::from_millis(beat_ms));
            }
        });
    }

    let registry = ImplRegistry::paper_default();
    // Values by the coordinator's id; it evicts what its runs dropped.
    let mut cache: HashMap<u64, Arc<DistRelation>> = HashMap::new();
    let mut reader = FrameReader::new(BufReader::new(task_stream.try_clone().unwrap_or_else(
        |e| {
            eprintln!("matopt-workerd: clone task stream: {e}");
            std::process::exit(1);
        },
    )));
    let mut writer = BufWriter::new(task_stream);
    let reply = |writer: &mut BufWriter<TcpStream>, tag: u64, body: &[u64]| {
        if write_frame(writer, tag, body).is_err() {
            std::process::exit(1);
        }
    };

    loop {
        if matopt_worker::termination_requested() {
            std::process::exit(0);
        }
        let frame = match reader.read_frame() {
            Ok(f) => f,
            Err(WireError::Eof) => std::process::exit(0), // clean coordinator exit
            Err(e) => {
                eprintln!("matopt-workerd: task stream: {e}");
                std::process::exit(1);
            }
        };
        match frame.tag {
            TAG_SHUTDOWN => std::process::exit(0),
            TAG_CHAOS => muted.store(true, Ordering::Relaxed),
            TAG_EVICT => {
                for id in &frame.body {
                    cache.remove(id);
                }
            }
            TAG_TASK => {
                let task = match decode_task(&frame.body) {
                    Ok(t) => t,
                    Err(m) => {
                        eprintln!("matopt-workerd: bad task: {m}");
                        std::process::exit(1);
                    }
                };
                drop(frame);
                let (seq, out_id, stall_ms) = (task.seq, task.vertex, task.stall_ms);
                match run_task(&registry, &mut cache, task) {
                    Ok(rel) => {
                        send_result(&mut writer, seq, stall_ms, &rel);
                        cache.insert(out_id, Arc::new(rel));
                    }
                    Err(Failure::Miss(msg)) => {
                        reply(&mut writer, TAG_TASK_MISS, &encode_task_err(seq, &msg));
                    }
                    Err(Failure::Kernel(msg)) => {
                        reply(&mut writer, TAG_TASK_ERR, &encode_task_err(seq, &msg));
                    }
                }
            }
            other => {
                eprintln!("matopt-workerd: unexpected tag {other}");
                std::process::exit(1);
            }
        }
    }
}

/// Why a task produced no value.
enum Failure {
    /// A `Cached` input is not held; the coordinator re-ships inline.
    Miss(String),
    /// The task cannot run or its kernel failed (panics included); the
    /// coordinator reports it as the vertex's error.
    Kernel(String),
}

/// Executes one task against the worker's value cache. Inline inputs
/// move into the cache under their ids (but [`UNCACHED`] ones) — all of
/// them, before any `Cached` id is resolved, since the coordinator
/// counts them as held once sent — and the kernel runs on the shared
/// values. A kernel panic is caught here: it is the vertex's failure,
/// not the worker's death.
fn run_task(
    registry: &ImplRegistry,
    cache: &mut HashMap<u64, Arc<DistRelation>>,
    task: TaskSpec,
) -> Result<DistRelation, Failure> {
    let mut resolved: Vec<Arc<DistRelation>> = Vec::with_capacity(task.inputs.len());
    let mut missing = Vec::new();
    for input in task.inputs {
        match input {
            TaskInput::Inline { vertex, rel } => {
                let rel = Arc::new(rel);
                if vertex != UNCACHED {
                    cache.insert(vertex, Arc::clone(&rel));
                }
                resolved.push(rel);
            }
            TaskInput::Cached { vertex } => match cache.get(&vertex) {
                Some(rel) => resolved.push(Arc::clone(rel)),
                None => missing.push(vertex),
            },
        }
    }
    if !missing.is_empty() {
        return Err(Failure::Miss(format!("cache miss for values {missing:?}")));
    }
    if usize::from(task.impl_id) >= registry.len() {
        return Err(Failure::Kernel(format!(
            "impl id {} out of registry range",
            task.impl_id
        )));
    }
    let strategy = registry.get(ImplId(task.impl_id)).strategy;
    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
        execute_impl(
            strategy,
            &task.op,
            &resolved,
            task.out_type,
            task.out_format,
        )
    }));
    match run {
        Ok(Ok(rel)) => Ok(rel),
        Ok(Err(e)) => Err(Failure::Kernel(format!("execute: {e}"))),
        Err(panic) => Err(Failure::Kernel(format!(
            "kernel panicked: {}",
            panic_message(panic.as_ref())
        ))),
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Writes the result frame; when the task carries a chaos `stall_ms`,
/// the frame is split mid-byte-stream — first half flushed, stall,
/// second half — so a SIGKILL during the stall leaves a deterministic
/// torn frame on the coordinator's reader.
fn send_result(writer: &mut BufWriter<TcpStream>, seq: u64, stall_ms: u64, rel: &DistRelation) {
    let body = encode_result(seq, rel);
    if stall_ms == 0 {
        if write_frame(writer, TAG_RESULT, &body).is_err() {
            std::process::exit(1);
        }
        return;
    }
    let bytes = frame_bytes(TAG_RESULT, &body);
    let mid = bytes.len() / 2;
    if writer.write_all(&bytes[..mid]).is_err() || writer.flush().is_err() {
        std::process::exit(1);
    }
    std::thread::sleep(Duration::from_millis(stall_ms));
    if writer.write_all(&bytes[mid..]).is_err() || writer.flush().is_err() {
        std::process::exit(1);
    }
}
