//! The supervised worker fleet: process spawning, heartbeat liveness,
//! bounded jittered restart, and lineage redispatch.
//!
//! A [`WorkerFleet`] forks `N` copies of the `matopt-workerd` binary,
//! each connected back over two loopback TCP streams (task + heartbeat)
//! speaking the checksummed wire protocol of [`crate::proto`]. It
//! implements [`RemoteVertexExec`], so plugging it into
//! `ExecOptions::remote` moves every vertex implementation across a
//! real process boundary while the scheduler, format transforms, and
//! recovery waves stay coordinator-side.
//!
//! Failure model: a worker is *dead* the moment its task stream tears
//! (EOF, checksum mismatch, absurd frame) or its heartbeat goes silent
//! past the miss threshold. Death triggers a SIGKILL (idempotent), a
//! restart governed by a [`BackoffPolicy`], and redispatch of the
//! in-flight vertex — first to a surviving worker, then to restarted
//! ones. A worker that exhausts its restart budget with no survivors
//! yields [`ExecError::WorkerLost`]: structured, never a hang, never a
//! panic.

use std::collections::{HashMap, HashSet};
use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use matopt_core::{
    mix_jitter, write_frame, BackoffPolicy, FrameReader, ImplRegistry, MatrixType, NodeId, Op,
    PhysFormat, Strategy, WireError,
};
use matopt_engine::{DistRelation, ExecError, RemoteVertexExec};
use matopt_obs::{MetricsRegistry, Subsystem};

use crate::proto::{
    decode_hello, decode_result, decode_task_err, encode_task, Hello, TaskInput, TaskSpec,
    CHANNEL_BEAT, CHANNEL_TASK, TAG_BEAT, TAG_CHAOS, TAG_HELLO, TAG_RESULT, TAG_SHUTDOWN, TAG_TASK,
    TAG_TASK_ERR,
};

/// Backstop read timeout on the task stream: a worker that beats but
/// never answers is torn down after this long (heartbeat silence
/// normally fires far earlier).
const TASK_READ_BACKSTOP: Duration = Duration::from_secs(60);

/// Configuration of a [`WorkerFleet`].
#[derive(Clone)]
pub struct FleetConfig {
    /// Number of worker processes.
    pub workers: u32,
    /// Heartbeat cadence expected from workers.
    pub heartbeat_interval: Duration,
    /// Consecutive missed heartbeats before a worker is declared dead.
    pub heartbeat_misses: u32,
    /// Restart budget and backoff shape, per worker slot.
    pub restart: BackoffPolicy,
    /// Path to the `matopt-workerd` binary.
    pub worker_bin: std::path::PathBuf,
    /// Metrics sink (fleet liveness gauge + event counters).
    pub obs: Option<Arc<MetricsRegistry>>,
    /// Invoked on every declared worker death (serve wires this to the
    /// front door's breaker).
    pub on_death: Option<Arc<dyn Fn(u32) + Send + Sync>>,
    /// Seed for restart-backoff jitter.
    pub seed: u64,
}

impl std::fmt::Debug for FleetConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetConfig")
            .field("workers", &self.workers)
            .field("heartbeat_interval", &self.heartbeat_interval)
            .field("heartbeat_misses", &self.heartbeat_misses)
            .field("restart", &self.restart)
            .field("worker_bin", &self.worker_bin)
            .finish_non_exhaustive()
    }
}

impl FleetConfig {
    /// A config with production-shaped defaults for `workers`
    /// processes, resolving the daemon via [`default_worker_bin`].
    ///
    /// # Errors
    /// [`FleetError::Spawn`] when no worker binary can be located.
    pub fn standard(workers: u32) -> Result<Self, FleetError> {
        Ok(FleetConfig {
            workers,
            heartbeat_interval: Duration::from_millis(25),
            heartbeat_misses: 8,
            restart: BackoffPolicy {
                base_ms: 10,
                cap_ms: 200,
                max_attempts: 5,
            },
            worker_bin: default_worker_bin()?,
            obs: None,
            on_death: None,
            seed: 0x5eed_f1ee_7000_0001,
        })
    }
}

/// Locates the worker daemon binary: the `MATOPT_WORKERD` environment
/// override, else a `matopt-workerd` sibling of the current executable.
///
/// # Errors
/// [`FleetError::Spawn`] when neither resolves to an existing file.
pub fn default_worker_bin() -> Result<std::path::PathBuf, FleetError> {
    if let Ok(p) = std::env::var("MATOPT_WORKERD") {
        let p = std::path::PathBuf::from(p);
        if p.is_file() {
            return Ok(p);
        }
        return Err(FleetError::Spawn(format!(
            "MATOPT_WORKERD={} is not a file",
            p.display()
        )));
    }
    let exe = std::env::current_exe()
        .map_err(|e| FleetError::Spawn(format!("cannot locate current executable: {e}")))?;
    let sibling = exe.with_file_name("matopt-workerd");
    if sibling.is_file() {
        return Ok(sibling);
    }
    Err(FleetError::Spawn(format!(
        "no matopt-workerd next to {} (set MATOPT_WORKERD)",
        exe.display()
    )))
}

/// Fleet-level failures (spawn/handshake plumbing, not task outcomes).
#[derive(Debug)]
pub enum FleetError {
    /// The worker process could not be spawned or located.
    Spawn(String),
    /// The control sockets could not be set up.
    Net(std::io::Error),
    /// A worker connected but its handshake was malformed or late.
    Handshake(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Spawn(m) => write!(f, "worker spawn failed: {m}"),
            FleetError::Net(e) => write!(f, "fleet socket setup failed: {e}"),
            FleetError::Handshake(m) => write!(f, "worker handshake failed: {m}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// Why a dispatch attempt to one specific worker returned no value.
#[derive(Debug)]
enum AttemptError {
    /// The stream tore or the worker vanished — the worker is dead.
    Dead(String),
    /// The worker is alive but reported it cannot run the task (a
    /// cache miss after restart, or a kernel error).
    Refused(String),
}

/// Counters describing fleet activity since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Worker processes spawned (including restarts).
    pub spawns: u64,
    /// Deaths declared (stream tears + heartbeat silences).
    pub deaths: u64,
    /// Deaths declared specifically by heartbeat silence.
    pub heartbeat_deaths: u64,
    /// Successful restarts after a death.
    pub restarts: u64,
    /// Tasks redispatched to a surviving worker after a death.
    pub redispatches: u64,
    /// Tasks completed remotely.
    pub tasks_ok: u64,
}

#[derive(Debug, Default)]
struct StatsInner {
    spawns: AtomicU64,
    deaths: AtomicU64,
    heartbeat_deaths: AtomicU64,
    restarts: AtomicU64,
    redispatches: AtomicU64,
    tasks_ok: AtomicU64,
}

/// Per-slot state shared *outside* the slot mutex, so the heartbeat
/// monitor can tear a hung worker's stream even while a dispatcher
/// holds the slot lock blocked on a read.
struct SlotShared {
    last_beat: AtomicU64,
    /// A clone of the live task stream; `Shutdown::Both` on it unblocks
    /// any reader. Locked only momentarily at spawn/tear time.
    stream: Mutex<Option<TcpStream>>,
    alive: AtomicBool,
}

/// One worker slot: the current child process plus its task connection
/// and the coordinator's model of its vertex cache.
struct WorkerSlot {
    child: Option<Child>,
    conn: Option<TaskConn>,
    /// Vertices whose output this generation of the worker holds.
    holds: HashSet<u64>,
    generation: u64,
    restarts_used: u32,
    /// Chaos: SIGKILL this worker right after it receives dispatch
    /// number `n` (counted from slot construction).
    kill_at_dispatch: Option<u64>,
    dispatches: u64,
}

struct TaskConn {
    writer: BufWriter<TcpStream>,
    reader: FrameReader<BufReader<TcpStream>>,
}

/// A supervised fleet of worker processes implementing
/// [`RemoteVertexExec`].
pub struct WorkerFleet {
    cfg: FleetConfig,
    listener: TcpListener,
    addr: String,
    slots: Vec<Mutex<WorkerSlot>>,
    shared: Vec<Arc<SlotShared>>,
    /// Serializes handshakes on the shared listener.
    spawn_lock: Mutex<()>,
    stats: StatsInner,
    seq: AtomicU64,
    shutting_down: AtomicBool,
    /// Chaos: per-vertex mid-result-frame stall milliseconds.
    stalls: Mutex<HashMap<u32, u64>>,
    strategy_to_impl: HashMap<Strategy, u16>,
    monitor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerFleet")
            .field("workers", &self.cfg.workers)
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

fn now_ms() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

impl WorkerFleet {
    /// Spawns the fleet: binds a loopback listener, forks
    /// `cfg.workers` daemons, and completes both handshakes per worker.
    ///
    /// # Errors
    /// [`FleetError`] when sockets, spawning, or a handshake fail.
    pub fn spawn(cfg: FleetConfig) -> Result<Arc<Self>, FleetError> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(FleetError::Net)?;
        listener.set_nonblocking(true).map_err(FleetError::Net)?;
        let addr = listener.local_addr().map_err(FleetError::Net)?.to_string();
        let strategy_to_impl: HashMap<Strategy, u16> = ImplRegistry::paper_default()
            .all()
            .iter()
            .map(|d| (d.strategy, d.id.0))
            .collect();
        let slots = (0..cfg.workers)
            .map(|_| {
                Mutex::new(WorkerSlot {
                    child: None,
                    conn: None,
                    holds: HashSet::new(),
                    generation: 0,
                    restarts_used: 0,
                    kill_at_dispatch: None,
                    dispatches: 0,
                })
            })
            .collect();
        let shared = (0..cfg.workers)
            .map(|_| {
                Arc::new(SlotShared {
                    last_beat: AtomicU64::new(now_ms()),
                    stream: Mutex::new(None),
                    alive: AtomicBool::new(false),
                })
            })
            .collect();
        let fleet = Arc::new(WorkerFleet {
            cfg,
            listener,
            addr,
            slots,
            shared,
            spawn_lock: Mutex::new(()),
            stats: StatsInner::default(),
            seq: AtomicU64::new(1),
            shutting_down: AtomicBool::new(false),
            stalls: Mutex::new(HashMap::new()),
            strategy_to_impl,
            monitor: Mutex::new(None),
        });
        for w in 0..fleet.cfg.workers {
            let mut slot = fleet.slots[w as usize].lock().expect("slot");
            fleet.spawn_into(w, &mut slot)?;
        }
        let handle = {
            let fleet = Arc::clone(&fleet);
            std::thread::Builder::new()
                .name("fleet-monitor".into())
                .spawn(move || fleet.monitor_loop())
                .map_err(FleetError::Net)?
        };
        *fleet.monitor.lock().expect("monitor") = Some(handle);
        Ok(fleet)
    }

    /// The loopback address workers dial back to.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Snapshot of the activity counters.
    #[must_use]
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            spawns: self.stats.spawns.load(Ordering::Relaxed),
            deaths: self.stats.deaths.load(Ordering::Relaxed),
            heartbeat_deaths: self.stats.heartbeat_deaths.load(Ordering::Relaxed),
            restarts: self.stats.restarts.load(Ordering::Relaxed),
            redispatches: self.stats.redispatches.load(Ordering::Relaxed),
            tasks_ok: self.stats.tasks_ok.load(Ordering::Relaxed),
        }
    }

    /// Number of workers currently believed alive.
    #[must_use]
    pub fn alive(&self) -> u32 {
        self.shared
            .iter()
            .filter(|s| s.alive.load(Ordering::Relaxed))
            .count() as u32
    }

    fn record(&self, name: &str) {
        if let Some(obs) = &self.cfg.obs {
            obs.observe(Subsystem::Fleet, name, 1);
        }
    }

    fn publish_alive_gauge(&self) {
        if let Some(obs) = &self.cfg.obs {
            obs.set_gauge(Subsystem::Fleet, "workers_alive", f64::from(self.alive()));
        }
    }

    /// Forks one worker into `slot`, completing the two handshakes.
    fn spawn_into(&self, worker: u32, slot: &mut WorkerSlot) -> Result<(), FleetError> {
        let _guard = self.spawn_lock.lock().expect("spawn lock");
        slot.generation += 1;
        let generation = slot.generation;
        let child = Command::new(&self.cfg.worker_bin)
            .env("MATOPT_WORKER_ADDR", &self.addr)
            .env("MATOPT_WORKER_ID", worker.to_string())
            .env("MATOPT_WORKER_GEN", generation.to_string())
            .env(
                "MATOPT_WORKER_BEAT_MS",
                self.cfg.heartbeat_interval.as_millis().to_string(),
            )
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| FleetError::Spawn(format!("{}: {e}", self.cfg.worker_bin.display())))?;
        // Accept exactly two connections for this (worker, generation);
        // stray dials from killed predecessors are dropped by the
        // generation check.
        let mut task_conn = None;
        let mut beat_conn = None;
        let deadline = Instant::now() + Duration::from_secs(10);
        while task_conn.is_none() || beat_conn.is_none() {
            if Instant::now() > deadline {
                return Err(FleetError::Handshake(format!(
                    "worker {worker} gen {generation} did not dial back within 10s"
                )));
            }
            let stream = match self.listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                }
                Err(e) => return Err(FleetError::Net(e)),
            };
            stream.set_nodelay(true).ok();
            let hello = match read_hello(&stream) {
                Ok(h) => h,
                Err(_) => continue, // torn or stray connection
            };
            if hello.worker != worker || hello.generation != generation {
                continue;
            }
            match hello.channel {
                CHANNEL_TASK => {
                    stream
                        .set_read_timeout(Some(TASK_READ_BACKSTOP))
                        .map_err(FleetError::Net)?;
                    let read_half = stream.try_clone().map_err(FleetError::Net)?;
                    let tear_half = stream.try_clone().map_err(FleetError::Net)?;
                    *self.shared[worker as usize]
                        .stream
                        .lock()
                        .expect("shared stream") = Some(tear_half);
                    task_conn = Some(TaskConn {
                        writer: BufWriter::new(stream),
                        reader: FrameReader::new(BufReader::new(read_half)),
                    });
                }
                CHANNEL_BEAT => beat_conn = Some(stream),
                _ => continue,
            }
        }
        slot.child = Some(child);
        slot.conn = task_conn;
        slot.holds.clear();
        let shared = &self.shared[worker as usize];
        shared.last_beat.store(now_ms(), Ordering::Relaxed);
        shared.alive.store(true, Ordering::Relaxed);
        self.stats.spawns.fetch_add(1, Ordering::Relaxed);
        self.record("worker_spawned");
        self.publish_alive_gauge();
        // One beat-reader thread per generation; it exits with its socket.
        let beat_shared = Arc::clone(shared);
        let beat = beat_conn.expect("beat conn present");
        std::thread::Builder::new()
            .name(format!("beat-r{worker}g{generation}"))
            .spawn(move || {
                let mut reader = FrameReader::new(BufReader::new(beat));
                while let Ok(frame) = reader.read_frame() {
                    if frame.tag == TAG_BEAT {
                        beat_shared.last_beat.store(now_ms(), Ordering::Relaxed);
                    }
                }
            })
            .map_err(FleetError::Net)?;
        Ok(())
    }

    /// Heartbeat supervisor: declares a worker dead after
    /// `heartbeat_misses` silent intervals. The stream shutdown tears
    /// any dispatcher blocked on that worker, which then runs the
    /// death/restart path itself; idle slots are reaped directly.
    fn monitor_loop(&self) {
        let interval = self.cfg.heartbeat_interval;
        let budget_ms = interval.as_millis() as u64 * u64::from(self.cfg.heartbeat_misses.max(1));
        while !self.shutting_down.load(Ordering::Relaxed) {
            std::thread::sleep(interval);
            for w in 0..self.slots.len() {
                let shared = &self.shared[w];
                if !shared.alive.load(Ordering::Relaxed) {
                    continue;
                }
                let silent = now_ms().saturating_sub(shared.last_beat.load(Ordering::Relaxed));
                if silent <= budget_ms {
                    continue;
                }
                self.stats.heartbeat_deaths.fetch_add(1, Ordering::Relaxed);
                self.record("heartbeat_dead");
                // Tear the task stream without the slot lock …
                if let Some(stream) = shared.stream.lock().expect("shared stream").as_ref() {
                    stream.shutdown(Shutdown::Both).ok();
                }
                shared.alive.store(false, Ordering::Relaxed);
                // … and reap directly if no dispatcher is in flight.
                if let Ok(mut slot) = self.slots[w].try_lock() {
                    if slot.child.is_some() {
                        self.declare_dead(w as u32, &mut slot);
                    }
                }
            }
        }
    }

    /// Marks the slot dead: kills the child (idempotent — SIGKILL on a
    /// zombie is a no-op), reaps it, drops the connection, forgets the
    /// worker's cache so lineage is genuinely re-shipped.
    fn declare_dead(&self, worker: u32, slot: &mut WorkerSlot) {
        if let Some(child) = &mut slot.child {
            child.kill().ok();
            child.wait().ok();
        }
        slot.child = None;
        slot.conn = None;
        slot.holds.clear();
        let shared = &self.shared[worker as usize];
        shared.alive.store(false, Ordering::Relaxed);
        *shared.stream.lock().expect("shared stream") = None;
        self.stats.deaths.fetch_add(1, Ordering::Relaxed);
        self.record("worker_dead");
        self.publish_alive_gauge();
        if let Some(cb) = &self.cfg.on_death {
            cb(worker);
        }
    }

    /// Restarts a dead slot under the backoff policy. Returns `false`
    /// once the slot's restart budget is exhausted.
    fn try_restart(&self, worker: u32, slot: &mut WorkerSlot) -> bool {
        if self.shutting_down.load(Ordering::Relaxed) {
            return false;
        }
        let attempt = slot.restarts_used + 1;
        if self.cfg.restart.exhausted(attempt) {
            return false;
        }
        let jitter = mix_jitter(
            self.cfg.seed ^ u64::from(worker),
            attempt ^ (slot.generation << 8) as u32,
        );
        let delay = self.cfg.restart.delay_ms(attempt, jitter);
        std::thread::sleep(Duration::from_millis(delay));
        slot.restarts_used = attempt;
        match self.spawn_into(worker, slot) {
            Ok(()) => {
                self.stats.restarts.fetch_add(1, Ordering::Relaxed);
                self.record("worker_restarted");
                true
            }
            Err(_) => false,
        }
    }

    /// Chaos hook: SIGKILL worker `worker` immediately after it receives
    /// its `nth` further task dispatch (0 = the very next one) — after
    /// the task is written, so the kill lands mid-execution or, with a
    /// stalled vertex, mid-result-stream.
    pub fn kill_worker_at_dispatch(&self, worker: u32, nth: u64) {
        if let Some(slot) = self.slots.get(worker as usize) {
            let mut s = slot.lock().expect("slot");
            s.kill_at_dispatch = Some(s.dispatches + nth);
        }
    }

    /// Chaos hook: mute worker `worker`'s heartbeats — a simulated hang
    /// the monitor must notice.
    pub fn mute_heartbeats(&self, worker: u32) {
        if let Some(slot) = self.slots.get(worker as usize) {
            let mut s = slot.lock().expect("slot");
            if let Some(conn) = &mut s.conn {
                let _ = write_frame(&mut conn.writer, TAG_CHAOS, &[1]);
            }
        }
    }

    /// Chaos hook: make workers stall mid-result-frame for `ms`
    /// milliseconds whenever they compute `vertex`.
    pub fn stall_vertex(&self, vertex: u32, ms: u64) {
        self.stalls.lock().expect("stalls").insert(vertex, ms);
    }

    fn stall_for(&self, vertex: NodeId) -> u64 {
        self.stalls
            .lock()
            .expect("stalls")
            .get(&vertex.0)
            .copied()
            .unwrap_or(0)
    }

    /// Sends one task to one worker and waits for its reply.
    fn attempt_on(
        &self,
        slot: &mut WorkerSlot,
        task: &TaskSpec,
    ) -> Result<DistRelation, AttemptError> {
        let kill_now = match slot.kill_at_dispatch {
            Some(at) if slot.dispatches >= at => {
                slot.kill_at_dispatch = None;
                true
            }
            _ => false,
        };
        let conn = slot
            .conn
            .as_mut()
            .ok_or_else(|| AttemptError::Dead("worker not running".into()))?;
        let body = encode_task(task);
        write_frame(&mut conn.writer, TAG_TASK, &body)
            .map_err(|e| AttemptError::Dead(format!("task write: {e}")))?;
        slot.dispatches += 1;
        if kill_now {
            // Let the worker reach (or get midway through) the result
            // stream, then SIGKILL it for real. Mid-stream schedules
            // set `stall_ms`, so the half-written frame is
            // deterministically on the wire when the kill lands.
            std::thread::sleep(Duration::from_millis(task.stall_ms / 2 + 5));
            if let Some(child) = &mut slot.child {
                child.kill().ok();
            }
        }
        loop {
            let frame = match conn.reader.read_frame() {
                Ok(f) => f,
                Err(WireError::Eof) => return Err(AttemptError::Dead("result stream EOF".into())),
                Err(WireError::Corrupt(m)) => {
                    self.record("torn_frame");
                    return Err(AttemptError::Dead(format!("torn result frame: {m}")));
                }
                Err(WireError::Io(e)) => {
                    return Err(AttemptError::Dead(format!("result stream: {e}")))
                }
            };
            match frame.tag {
                TAG_RESULT => {
                    let (seq, rel) = decode_result(&frame.body)
                        .map_err(|m| AttemptError::Dead(format!("bad result body: {m}")))?;
                    if seq != task.seq {
                        continue; // stale reply from a pre-redispatch task
                    }
                    slot.holds.insert(task.vertex);
                    for input in &task.inputs {
                        let (TaskInput::Inline { vertex, .. } | TaskInput::Cached { vertex }) =
                            input;
                        slot.holds.insert(*vertex);
                    }
                    return Ok(rel);
                }
                TAG_TASK_ERR => {
                    let (seq, msg) = decode_task_err(&frame.body)
                        .map_err(|m| AttemptError::Dead(format!("bad error body: {m}")))?;
                    if seq != task.seq {
                        continue;
                    }
                    return Err(AttemptError::Refused(msg));
                }
                other => {
                    return Err(AttemptError::Dead(format!(
                        "unexpected frame tag {other} on task channel"
                    )))
                }
            }
        }
    }

    /// Builds the task for `vertex`, marking inputs the target worker
    /// already holds as [`TaskInput::Cached`].
    #[allow(clippy::too_many_arguments)]
    fn build_task(
        &self,
        slot: &WorkerSlot,
        vertex: NodeId,
        label: &str,
        impl_id: u16,
        op: &Op,
        inputs: &[Arc<DistRelation>],
        input_vertices: &[NodeId],
        out_type: MatrixType,
        out_format: PhysFormat,
        force_inline: bool,
        stall_ms: u64,
    ) -> TaskSpec {
        let task_inputs = inputs
            .iter()
            .zip(input_vertices)
            .map(|(rel, v)| {
                let v = u64::from(v.0);
                if !force_inline && slot.holds.contains(&v) {
                    TaskInput::Cached { vertex: v }
                } else {
                    TaskInput::Inline {
                        vertex: v,
                        rel: (**rel).clone(),
                    }
                }
            })
            .collect();
        TaskSpec {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            vertex: u64::from(vertex.0),
            label: label.to_string(),
            impl_id,
            op: *op,
            out_type,
            out_format,
            stall_ms,
            inputs: task_inputs,
        }
    }

    /// Prefers the worker holding the most inputs; ties (including the
    /// no-cache cold start) rotate with the dispatch sequence so load
    /// spreads across the fleet instead of funnelling into slot 0.
    fn pick_affine_worker(&self, input_vertices: &[NodeId]) -> usize {
        let n = self.slots.len().max(1);
        let rot = self.seq.load(Ordering::Relaxed) as usize % n;
        let mut best = rot;
        let mut best_score = -1i64;
        for k in 0..n {
            let w = (rot + k) % n;
            if !self.shared[w].alive.load(Ordering::Relaxed) {
                continue;
            }
            let Ok(s) = self.slots[w].try_lock() else {
                continue;
            };
            let score = input_vertices
                .iter()
                .filter(|v| s.holds.contains(&u64::from(v.0)))
                .count() as i64;
            if score > best_score {
                best_score = score;
                best = w;
            }
        }
        best
    }

    /// Shuts the fleet down: stops the monitor, asks every worker to
    /// exit, and reaps stragglers with SIGKILL.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::Relaxed);
        for (w, slot) in self.slots.iter().enumerate() {
            let mut s = slot.lock().expect("slot");
            if let Some(conn) = &mut s.conn {
                let _ = write_frame(&mut conn.writer, TAG_SHUTDOWN, &[]);
            }
            s.conn = None;
            if let Some(child) = &mut s.child {
                let deadline = Instant::now() + Duration::from_millis(500);
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() > deadline => {
                            child.kill().ok();
                            child.wait().ok();
                            break;
                        }
                        Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                        Err(_) => break,
                    }
                }
            }
            s.child = None;
            self.shared[w].alive.store(false, Ordering::Relaxed);
            *self.shared[w].stream.lock().expect("shared stream") = None;
        }
        if let Some(handle) = self.monitor.lock().expect("monitor").take() {
            handle.join().ok();
        }
        self.publish_alive_gauge();
    }
}

impl Drop for WorkerFleet {
    fn drop(&mut self) {
        self.shutting_down.store(true, Ordering::Relaxed);
        for slot in &self.slots {
            if let Ok(mut s) = slot.lock() {
                if let Some(child) = &mut s.child {
                    child.kill().ok();
                    child.wait().ok();
                }
            }
        }
    }
}

/// Opt-in supervisor logging (`MATOPT_FLEET_LOG=1`): one line per
/// declared death or refusal, with the transport-level reason.
fn fleet_log(worker: u32, reason: &str) {
    if std::env::var_os("MATOPT_FLEET_LOG").is_some() {
        eprintln!("fleet: worker {worker}: {reason}");
    }
}

fn read_hello(stream: &TcpStream) -> Result<Hello, String> {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    let clone = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = FrameReader::new(BufReader::new(clone));
    let frame = reader.read_frame().map_err(|e| e.to_string())?;
    stream.set_read_timeout(None).map_err(|e| e.to_string())?;
    if frame.tag != TAG_HELLO {
        return Err(format!("expected hello, got tag {}", frame.tag));
    }
    decode_hello(&frame.body)
}

impl RemoteVertexExec for WorkerFleet {
    fn execute_remote(
        &self,
        vertex: NodeId,
        label: &str,
        strategy: Strategy,
        op: &Op,
        inputs: &[Arc<DistRelation>],
        input_vertices: &[NodeId],
        out_type: MatrixType,
        out_format: PhysFormat,
    ) -> Result<DistRelation, ExecError> {
        let impl_id = *self.strategy_to_impl.get(&strategy).ok_or_else(|| {
            ExecError::Internal(format!(
                "strategy {strategy:?} has no id in the paper-default registry"
            ))
        })?;
        let stall_ms = self.stall_for(vertex);
        let n = self.slots.len();
        let start = self.pick_affine_worker(input_vertices);
        let mut last_worker = start as u32;
        // Walk every slot starting at the affine one. Within a slot,
        // restart-and-retry until its budget is spent, then move on —
        // but prefer surviving workers over waiting out a restart.
        for hop in 0..n {
            let w = (start + hop) % n;
            let mut slot = self.slots[w].lock().expect("slot");
            last_worker = w as u32;
            loop {
                if self.shutting_down.load(Ordering::Relaxed) {
                    break;
                }
                if slot.conn.is_none() && !self.try_restart(w as u32, &mut slot) {
                    break; // budget spent here; try the next slot
                }
                // A fresh generation holds nothing: ship fully inline.
                let force_inline = slot.holds.is_empty();
                let task = self.build_task(
                    &slot,
                    vertex,
                    label,
                    impl_id,
                    op,
                    inputs,
                    input_vertices,
                    out_type,
                    out_format,
                    force_inline,
                    stall_ms,
                );
                match self.attempt_on(&mut slot, &task) {
                    Ok(rel) => {
                        self.stats.tasks_ok.fetch_add(1, Ordering::Relaxed);
                        return Ok(rel);
                    }
                    Err(AttemptError::Dead(reason)) => {
                        fleet_log(w as u32, &reason);
                        self.declare_dead(w as u32, &mut slot);
                        if hop + 1 < n {
                            // Survivors remain: lineage redispatch.
                            self.stats.redispatches.fetch_add(1, Ordering::Relaxed);
                            self.record("redispatch");
                            break;
                        }
                        continue; // last slot standing: restart it here
                    }
                    Err(AttemptError::Refused(reason)) => {
                        fleet_log(w as u32, &reason);
                        // Alive but refused (cache miss after an unseen
                        // restart, kernel failure): re-ship fully inline
                        // once; a second refusal kills the slot.
                        let retry = self.build_task(
                            &slot,
                            vertex,
                            label,
                            impl_id,
                            op,
                            inputs,
                            input_vertices,
                            out_type,
                            out_format,
                            true,
                            stall_ms,
                        );
                        match self.attempt_on(&mut slot, &retry) {
                            Ok(rel) => {
                                self.stats.tasks_ok.fetch_add(1, Ordering::Relaxed);
                                return Ok(rel);
                            }
                            Err(_) => {
                                self.declare_dead(w as u32, &mut slot);
                                break;
                            }
                        }
                    }
                }
            }
        }
        Err(ExecError::WorkerLost {
            worker: last_worker,
            vertex,
            label: label.to_string(),
        })
    }
}
