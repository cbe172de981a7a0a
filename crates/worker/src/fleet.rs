//! The supervised worker fleet: process spawning, heartbeat liveness,
//! bounded jittered restart, lineage redispatch, and the table of what
//! each worker holds.
//!
//! A [`WorkerFleet`] forks `N` copies of the `matopt-workerd` binary,
//! each connected back over two loopback TCP streams (task + heartbeat)
//! speaking the checksummed wire protocol of [`crate::proto`]. It
//! implements [`RemoteVertexExec`], so plugging it into
//! `ExecOptions::remote` moves every vertex implementation across a
//! real process boundary while the scheduler, format transforms, and
//! recovery waves stay coordinator-side.
//!
//! Values, not vertices: a worker caches every relation it is sent or
//! produces, under an id the coordinator assigns, and per worker the
//! coordinator keeps a table of those relations by `Arc` identity. An
//! input travels as [`TaskInput::Cached`](crate::proto::TaskInput) only when the
//! `Arc` the run hands over *is* one the worker holds — an identity
//! edge passes its producer's `Arc` through, a transformed edge is a
//! new one, and no two runs share one — so a producer read in two
//! formats, or a fleet reused across runs, can never be served the
//! wrong value. A value the runs have dropped is evicted from the
//! worker with the next frame sent to it.
//!
//! Nothing waits by sleeping: [`WorkerFleet::spawn`] forks every worker
//! before taking any dial, and takes dials from an acceptor thread
//! through a channel; the monitor parks between heartbeat checks and
//! [`WorkerFleet::shutdown`] unparks it; shutdown asks every worker to
//! exit before reaping any, and reaps each when its task stream closes.
//!
//! Failure model: a worker is *dead* the moment its task stream tears
//! (EOF, checksum mismatch, absurd frame) or its heartbeat goes silent
//! past the miss threshold. Death triggers a SIGKILL (idempotent), a
//! restart governed by a [`BackoffPolicy`], and redispatch of the
//! in-flight vertex — first to a surviving worker, then to restarted
//! ones, always shipping every input inline. A worker that exhausts its
//! restart budget with no survivors yields [`ExecError::WorkerLost`]:
//! structured, never a hang, never a panic. A kernel that fails on a
//! worker is the vertex's error ([`ExecError::KernelPanic`]), not the
//! worker's death.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Read};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use matopt_core::{
    mix_jitter, write_frame, BackoffPolicy, FrameReader, Framing, ImplRegistry, MatrixType, NodeId,
    Op, PhysFormat, Strategy, WireError,
};
use matopt_engine::{DistRelation, ExecError, RemoteVertexExec};
use matopt_obs::{MetricsRegistry, Subsystem};

use crate::proto::{
    decode_hello, decode_result, decode_task_err, encode_task_from, Hello, InputRef, TaskHead,
    CHANNEL_BEAT, TAG_BEAT, TAG_CHAOS, TAG_EVICT, TAG_HELLO, TAG_RESULT, TAG_SHUTDOWN, TAG_TASK,
    TAG_TASK_ERR, TAG_TASK_MISS, UNCACHED,
};

/// Backstop read timeout on the task stream: a worker that beats but
/// never answers is torn down after this long (heartbeat silence
/// normally fires far earlier).
const TASK_READ_BACKSTOP: Duration = Duration::from_secs(60);

/// How long a worker asked to shut down may take to exit before it is
/// killed.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(500);

/// How long a forked worker may take to dial back both channels.
const DIAL_DEADLINE: Duration = Duration::from_secs(10);

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
    /// The worker lacks a value its table says it holds; re-ship inline.
    Missed(String),
    /// The task ran and failed on a live worker: the vertex's error.
    Failed(String),
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
    /// Distinct values the workers' caches hold right now, each counted
    /// once however many workers hold it: inputs shipped and outputs
    /// returned, less those evicted. A value every run has dropped
    /// leaves a worker with the next frame sent to it, so a long-lived
    /// fleet holds at most about one run's values, not every run's.
    pub held_values: u64,
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

/// The coordinator's mirror of one worker's value cache: every value
/// shipped to or returned by the worker's current generation, keyed by
/// the address of its `Arc` allocation, with the id the worker files it
/// under. An entry's `Weak` pins that allocation, so while the entry
/// exists no other value can be allocated at its address: a live `Arc`
/// found here *is* the entry's value.
#[derive(Default)]
struct ValueTable {
    held: HashMap<usize, (u64, Weak<DistRelation>)>,
}

fn value_addr(rel: &Arc<DistRelation>) -> usize {
    Arc::as_ptr(rel) as usize
}

impl ValueTable {
    /// The id the worker holds `rel` under, if it holds that very value.
    fn id_of(&self, rel: &Arc<DistRelation>) -> Option<u64> {
        let (id, value) = self.held.get(&value_addr(rel))?;
        (value.strong_count() > 0 && std::ptr::eq(value.as_ptr(), Arc::as_ptr(rel))).then_some(*id)
    }

    /// Records that the worker holds `rel` under `id`; `true` when the
    /// value is new to this worker.
    fn insert(&mut self, id: u64, rel: &Arc<DistRelation>) -> bool {
        self.held
            .insert(value_addr(rel), (id, Arc::downgrade(rel)))
            .is_none()
    }

    /// Forgets every value no run holds any more and returns their
    /// addresses and ids, for the worker to drop as well.
    fn take_dead(&mut self) -> Vec<(usize, u64)> {
        let mut dead = Vec::new();
        self.held.retain(|addr, (id, value)| {
            let live = value.strong_count() > 0;
            if !live {
                dead.push((*addr, *id));
            }
            live
        });
        dead
    }
}

/// One worker slot: the current child process plus its task connection
/// and the coordinator's model of its cache.
struct WorkerSlot {
    child: Option<Child>,
    conn: Option<TaskConn>,
    /// What this generation of the worker holds.
    values: ValueTable,
    generation: u64,
    restarts_used: u32,
}

struct TaskConn {
    writer: BufWriter<TcpStream>,
    reader: FrameReader<BufReader<TcpStream>>,
}

/// A supervised fleet of worker processes implementing
/// [`RemoteVertexExec`].
pub struct WorkerFleet {
    cfg: FleetConfig,
    addr: String,
    slots: Vec<Mutex<WorkerSlot>>,
    shared: Vec<Arc<SlotShared>>,
    /// Connections the acceptor took on the loopback listener; holding
    /// the lock serializes handshakes.
    dials: Mutex<Receiver<TcpStream>>,
    acceptor: Mutex<Option<JoinHandle<()>>>,
    stats: StatsInner,
    seq: AtomicU64,
    /// Source of value ids: fleet unique, never reused.
    next_value: AtomicU64,
    /// How many workers hold each value, by allocation address (which
    /// some table's `Weak` pins while the count is non-zero).
    holders: Mutex<HashMap<usize, u32>>,
    /// Also read by the acceptor thread.
    shutting_down: Arc<AtomicBool>,
    /// Chaos: per-vertex mid-result-frame stall milliseconds.
    stalls: Mutex<HashMap<u32, u64>>,
    /// Chaos: dispatch sequence numbers whose receiver is SIGKILLed.
    armed_kills: Mutex<Vec<u64>>,
    strategy_to_impl: HashMap<Strategy, u16>,
    monitor: Mutex<Option<JoinHandle<()>>>,
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

/// Hands every connection made to `listener` to the fleet until the
/// fleet shuts down (it dials once more to wake this accept).
fn accept_loop(listener: &TcpListener, stop: &AtomicBool, dials: &Sender<TcpStream>) {
    loop {
        match listener.accept() {
            // SeqCst: pairs with the stores that precede the waking dial.
            Ok(_) if stop.load(Ordering::SeqCst) => return,
            Ok((stream, _)) => {
                if dials.send(stream).is_err() {
                    return;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::Interrupted | std::io::ErrorKind::ConnectionAborted
                ) => {}
            // The listener is broken: pending handshakes see the
            // channel close and fail instead of waiting out their
            // deadline.
            Err(_) => return,
        }
    }
}

impl WorkerFleet {
    /// Spawns the fleet: binds a loopback listener, forks
    /// `cfg.workers` daemons, and completes both handshakes per worker.
    /// Every worker is forked before any dial is taken, so their
    /// start-ups overlap.
    ///
    /// # Errors
    /// [`FleetError`] when sockets, spawning, or a handshake fail.
    pub fn spawn(cfg: FleetConfig) -> Result<Arc<Self>, FleetError> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(FleetError::Net)?;
        let addr = listener.local_addr().map_err(FleetError::Net)?.to_string();
        let shutting_down = Arc::new(AtomicBool::new(false));
        let (dial_tx, dial_rx) = mpsc::channel();
        let acceptor = {
            let stop = Arc::clone(&shutting_down);
            std::thread::Builder::new()
                .name("fleet-accept".into())
                .spawn(move || accept_loop(&listener, &stop, &dial_tx))
                .map_err(FleetError::Net)?
        };
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
                    values: ValueTable::default(),
                    generation: 0,
                    restarts_used: 0,
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
            addr,
            slots,
            shared,
            dials: Mutex::new(dial_rx),
            acceptor: Mutex::new(Some(acceptor)),
            stats: StatsInner::default(),
            seq: AtomicU64::new(1),
            next_value: AtomicU64::new(1),
            holders: Mutex::new(HashMap::new()),
            shutting_down,
            stalls: Mutex::new(HashMap::new()),
            armed_kills: Mutex::new(Vec::new()),
            strategy_to_impl,
            monitor: Mutex::new(None),
        });
        {
            let mut guards: Vec<MutexGuard<'_, WorkerSlot>> = fleet
                .slots
                .iter()
                .map(|s| s.lock().expect("slot"))
                .collect();
            let dials = fleet.dials.lock().expect("dials");
            let mut pending: Vec<(u32, &mut WorkerSlot)> = guards
                .iter_mut()
                .enumerate()
                .map(|(w, slot)| (w as u32, &mut **slot))
                .collect();
            for (w, slot) in &mut pending {
                fleet.fork(*w, slot)?;
            }
            fleet.handshake(&dials, &mut pending)?;
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
            held_values: self.holders.lock().expect("holders").len() as u64,
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

    /// Records that the worker in `slot` holds `rel` under `id`.
    fn remember(&self, slot: &mut ValueTable, id: u64, rel: &Arc<DistRelation>) {
        if slot.insert(id, rel) {
            *self
                .holders
                .lock()
                .expect("holders")
                .entry(value_addr(rel))
                .or_insert(0) += 1;
        }
    }

    /// Counts each value at `addrs` as held by one worker fewer.
    fn release(&self, addrs: impl IntoIterator<Item = usize>) {
        let mut holders = self.holders.lock().expect("holders");
        for addr in addrs {
            if let Some(n) = holders.get_mut(&addr) {
                *n -= 1;
                if *n == 0 {
                    holders.remove(&addr);
                }
            }
        }
    }

    /// Forgets everything `slot`'s worker holds: its process is gone.
    fn forget_values(&self, slot: &mut WorkerSlot) {
        self.release(slot.values.held.drain().map(|(addr, _)| addr));
    }

    fn fresh_value_id(&self) -> u64 {
        self.next_value.fetch_add(1, Ordering::Relaxed)
    }

    /// Forks the next generation of `worker` into `slot` (reaping any
    /// predecessor that never finished its handshake).
    fn fork(&self, worker: u32, slot: &mut WorkerSlot) -> Result<(), FleetError> {
        if let Some(mut old) = slot.child.take() {
            old.kill().ok();
            old.wait().ok();
        }
        slot.generation += 1;
        let child = Command::new(&self.cfg.worker_bin)
            .env("MATOPT_WORKER_ADDR", &self.addr)
            .env("MATOPT_WORKER_ID", worker.to_string())
            .env("MATOPT_WORKER_GEN", slot.generation.to_string())
            .env(
                "MATOPT_WORKER_BEAT_MS",
                self.cfg.heartbeat_interval.as_millis().to_string(),
            )
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| FleetError::Spawn(format!("{}: {e}", self.cfg.worker_bin.display())))?;
        slot.child = Some(child);
        Ok(())
    }

    /// Takes dials until every forked worker in `pending` has connected
    /// both channels, then installs them. Stray dials — killed
    /// predecessors, torn hellos — are dropped by the generation check.
    fn handshake(
        &self,
        dials: &Receiver<TcpStream>,
        pending: &mut [(u32, &mut WorkerSlot)],
    ) -> Result<(), FleetError> {
        let mut conns: Vec<[Option<TcpStream>; 2]> = pending.iter().map(|_| [None, None]).collect();
        let deadline = Instant::now() + DIAL_DEADLINE;
        while let Some(late) = conns.iter().position(|c| c.iter().any(Option::is_none)) {
            let stream =
                match dials.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                    Ok(stream) => stream,
                    Err(RecvTimeoutError::Timeout) => {
                        let (worker, slot) = &pending[late];
                        return Err(FleetError::Handshake(format!(
                            "worker {worker} gen {} did not dial back within {}s",
                            slot.generation,
                            DIAL_DEADLINE.as_secs()
                        )));
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(FleetError::Handshake(
                            "the fleet's listener stopped accepting".into(),
                        ))
                    }
                };
            stream.set_nodelay(true).ok();
            let Ok(hello) = read_hello(&stream) else {
                continue;
            };
            let Some(i) = pending
                .iter()
                .position(|(w, slot)| *w == hello.worker && slot.generation == hello.generation)
            else {
                continue;
            };
            let channel = usize::from(hello.channel == CHANNEL_BEAT);
            conns[i][channel] = Some(stream);
        }
        for ((worker, slot), [task, beat]) in pending.iter_mut().zip(conns) {
            let (Some(task), Some(beat)) = (task, beat) else {
                unreachable!("the loop above ends with every channel connected");
            };
            self.install(*worker, slot, task, beat)?;
        }
        Ok(())
    }

    /// Makes a handshaken worker live: its task connection, an empty
    /// value table, and a heartbeat reader for this generation.
    fn install(
        &self,
        worker: u32,
        slot: &mut WorkerSlot,
        task: TcpStream,
        beat: TcpStream,
    ) -> Result<(), FleetError> {
        task.set_read_timeout(Some(TASK_READ_BACKSTOP))
            .map_err(FleetError::Net)?;
        let read_half = task.try_clone().map_err(FleetError::Net)?;
        let tear_half = task.try_clone().map_err(FleetError::Net)?;
        let shared = &self.shared[worker as usize];
        *shared.stream.lock().expect("shared stream") = Some(tear_half);
        slot.conn = Some(TaskConn {
            writer: BufWriter::new(task),
            reader: FrameReader::new(BufReader::new(read_half)),
        });
        self.forget_values(slot);
        shared.last_beat.store(now_ms(), Ordering::Relaxed);
        shared.alive.store(true, Ordering::Relaxed);
        self.stats.spawns.fetch_add(1, Ordering::Relaxed);
        self.record("worker_spawned");
        self.publish_alive_gauge();
        // One beat-reader thread per generation; it exits with its socket.
        let beat_shared = Arc::clone(shared);
        let generation = slot.generation;
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
    /// death/restart path itself; idle slots are reaped directly. Parks
    /// between checks; [`WorkerFleet::shutdown`] unparks it.
    fn monitor_loop(&self) {
        let interval = self.cfg.heartbeat_interval;
        let budget_ms = interval.as_millis() as u64 * u64::from(self.cfg.heartbeat_misses.max(1));
        loop {
            std::thread::park_timeout(interval);
            if self.shutting_down.load(Ordering::Relaxed) {
                return;
            }
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
    /// worker's values so lineage is genuinely re-shipped.
    fn declare_dead(&self, worker: u32, slot: &mut WorkerSlot) {
        if let Some(child) = &mut slot.child {
            child.kill().ok();
            child.wait().ok();
        }
        slot.child = None;
        slot.conn = None;
        self.forget_values(slot);
        let shared = &self.shared[worker as usize];
        shared.alive.store(false, Ordering::Relaxed);
        *shared.stream.lock().expect("shared stream") = None;
        self.stats.deaths.fetch_add(1, Ordering::Relaxed);
        self.record("worker_dead");
        self.publish_alive_gauge();
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
        let dials = self.dials.lock().expect("dials");
        let respawned = self
            .fork(worker, slot)
            .and_then(|()| self.handshake(&dials, &mut [(worker, &mut *slot)]));
        match respawned {
            Ok(()) => {
                self.stats.restarts.fetch_add(1, Ordering::Relaxed);
                self.record("worker_restarted");
                true
            }
            Err(_) => false,
        }
    }

    /// Chaos hook: SIGKILL whichever worker receives the fleet's `nth`
    /// further task dispatch (0 = the very next one) — after the task is
    /// written, so the kill lands mid-execution or, with a stalled
    /// vertex, mid-result-stream. The victim is picked by the dispatch,
    /// not named up front: the dispatcher keeps a chain of vertices on
    /// the worker holding their inputs, so a kill armed on a fixed
    /// worker might never fire.
    pub fn kill_at_dispatch(&self, nth: u64) {
        let at = self.seq.load(Ordering::Relaxed) + nth;
        self.armed_kills.lock().expect("armed kills").push(at);
    }

    /// Whether dispatch `seq` was armed to kill its receiver (disarming it).
    fn take_armed_kill(&self, seq: u64) -> bool {
        let mut armed = self.armed_kills.lock().expect("armed kills");
        match armed.iter().position(|&at| at <= seq) {
            Some(i) => {
                armed.swap_remove(i);
                true
            }
            None => false,
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

    /// Sends one task to one worker and waits for its reply. Values the
    /// runs dropped are evicted in the same write; each input goes as
    /// `Cached` when the worker holds that very value (unless
    /// `force_inline`), else inline, encoded straight from the run's
    /// `Arc` into the task body.
    fn attempt_on(
        &self,
        slot: &mut WorkerSlot,
        head: &TaskHead<'_>,
        inputs: &[Arc<DistRelation>],
        force_inline: bool,
    ) -> Result<Arc<DistRelation>, AttemptError> {
        let conn = slot
            .conn
            .as_mut()
            .ok_or_else(|| AttemptError::Dead("worker not running".into()))?;
        let dead = slot.values.take_dead();
        if !dead.is_empty() {
            self.release(dead.iter().map(|&(addr, _)| addr));
            let dead: Vec<u64> = dead.into_iter().map(|(_, id)| id).collect();
            Framing::WIRE
                .write(&mut conn.writer, TAG_EVICT, &dead)
                .map_err(|e| AttemptError::Dead(format!("evict write: {e}")))?;
        }
        let mut refs = Vec::with_capacity(inputs.len());
        for rel in inputs {
            refs.push(match slot.values.id_of(rel) {
                Some(id) if !force_inline => InputRef::Cached { vertex: id },
                // Only this call holds it (a transformed edge's copy), so
                // no later dispatch can hand it over again: not cached.
                None if Arc::strong_count(rel) == 1 => InputRef::Inline {
                    vertex: UNCACHED,
                    rel,
                },
                held => {
                    // Re-shipped under the id it is held by, so the
                    // worker overwrites instead of orphaning an entry.
                    let id = held.unwrap_or_else(|| self.fresh_value_id());
                    self.remember(&mut slot.values, id, rel);
                    InputRef::Inline { vertex: id, rel }
                }
            });
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let kill_now = self.take_armed_kill(seq);
        let out_id = self.fresh_value_id();
        let head = TaskHead {
            seq,
            vertex: out_id,
            ..*head
        };
        let body = encode_task_from(&head, &refs);
        drop(refs);
        write_frame(&mut conn.writer, TAG_TASK, &body)
            .map_err(|e| AttemptError::Dead(format!("task write: {e}")))?;
        drop(body);
        if kill_now {
            // Let the worker reach (or get midway through) the result
            // stream, then SIGKILL it for real. Mid-stream schedules
            // set `stall_ms`, so the half-written frame is
            // deterministically on the wire when the kill lands.
            std::thread::sleep(Duration::from_millis(head.stall_ms / 2 + 5));
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
            let reply =
                match frame.tag {
                    TAG_RESULT => decode_result(&frame.body).map(|(seq, rel)| (seq, Ok(rel))),
                    TAG_TASK_ERR => decode_task_err(&frame.body)
                        .map(|(seq, m)| (seq, Err(AttemptError::Failed(m)))),
                    TAG_TASK_MISS => decode_task_err(&frame.body)
                        .map(|(seq, m)| (seq, Err(AttemptError::Missed(m)))),
                    other => Err(format!("unexpected frame tag {other} on task channel")),
                };
            match reply.map_err(|m| AttemptError::Dead(format!("bad reply: {m}")))? {
                (got, _) if got != seq => continue, // stale reply from a pre-redispatch task
                (_, Ok(rel)) => {
                    let rel = Arc::new(rel);
                    self.remember(&mut slot.values, out_id, &rel);
                    return Ok(rel);
                }
                (_, Err(e)) => return Err(e),
            }
        }
    }

    /// Prefers the worker holding the most inputs; ties (including the
    /// no-cache cold start) rotate with the dispatch sequence so load
    /// spreads across the fleet instead of funnelling into slot 0.
    fn pick_affine_worker(&self, inputs: &[Arc<DistRelation>]) -> usize {
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
            let score = inputs
                .iter()
                .filter(|rel| s.values.id_of(rel).is_some())
                .count() as i64;
            if score > best_score {
                best_score = score;
                best = w;
            }
        }
        best
    }

    /// Shuts the fleet down: stops the monitor, asks every worker to
    /// exit, then reaps each one as its task stream closes — killing any
    /// that has not exited within `SHUTDOWN_GRACE`.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        if let Some(monitor) = self.monitor.lock().expect("monitor").take() {
            monitor.thread().unpark();
            monitor.join().ok();
        }
        let mut slots: Vec<MutexGuard<'_, WorkerSlot>> =
            self.slots.iter().map(|s| s.lock().expect("slot")).collect();
        for slot in &mut slots {
            if let Some(conn) = &mut slot.conn {
                let _ = write_frame(&mut conn.writer, TAG_SHUTDOWN, &[]);
            }
        }
        for (w, slot) in slots.iter_mut().enumerate() {
            let exited = slot
                .conn
                .take()
                .is_some_and(|conn| closes_within(conn, SHUTDOWN_GRACE));
            if let Some(mut child) = slot.child.take() {
                if !exited {
                    child.kill().ok();
                }
                child.wait().ok();
            }
            self.forget_values(slot);
            self.shared[w].alive.store(false, Ordering::Relaxed);
            *self.shared[w].stream.lock().expect("shared stream") = None;
        }
        drop(slots);
        self.stop_acceptor();
        self.publish_alive_gauge();
    }

    /// Stops the acceptor thread, which `shutting_down` already tells
    /// to: one more dial wakes its blocking accept.
    ///
    /// Called from `Drop` too, so a poisoned lock is skipped, not a panic.
    fn stop_acceptor(&self) {
        let acceptor = self.acceptor.lock().ok().and_then(|mut a| a.take());
        if let Some(acceptor) = acceptor {
            if TcpStream::connect(&self.addr).is_ok() {
                acceptor.join().ok();
            }
        }
    }
}

impl Drop for WorkerFleet {
    fn drop(&mut self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        for slot in &self.slots {
            if let Ok(mut s) = slot.lock() {
                if let Some(child) = &mut s.child {
                    child.kill().ok();
                    child.wait().ok();
                }
            }
        }
        self.stop_acceptor();
    }
}

/// Waits up to `grace` for a worker asked to exit to close its task
/// stream, which it does by exiting; `false` if it did not.
fn closes_within(conn: TaskConn, grace: Duration) -> bool {
    let deadline = Instant::now() + grace;
    let mut stream = conn.reader.into_inner();
    let mut sink = [0u8; 512];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.get_ref().set_read_timeout(Some(left)).is_err() {
            return false;
        }
        match stream.read(&mut sink) {
            Ok(0) => return true,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
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
        _input_vertices: &[NodeId],
        out_type: MatrixType,
        out_format: PhysFormat,
    ) -> Result<Arc<DistRelation>, ExecError> {
        let impl_id = *self.strategy_to_impl.get(&strategy).ok_or_else(|| {
            ExecError::Internal(format!(
                "strategy {strategy:?} has no id in the paper-default registry"
            ))
        })?;
        // `seq` and the output's value id are stamped per attempt.
        let head = TaskHead {
            seq: 0,
            vertex: 0,
            label,
            impl_id,
            op: *op,
            out_type,
            out_format,
            stall_ms: self.stall_for(vertex),
        };
        let n = self.slots.len();
        let start = self.pick_affine_worker(inputs);
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
                // A redispatch ships every input inline.
                let mut result = self.attempt_on(&mut slot, &head, inputs, hop > 0);
                if let Err(AttemptError::Missed(reason)) = &result {
                    // The worker lacks a value its table lists: re-ship
                    // everything inline once; a second miss is death.
                    fleet_log(w as u32, reason);
                    result = self.attempt_on(&mut slot, &head, inputs, true);
                }
                match result {
                    Ok(rel) => {
                        self.stats.tasks_ok.fetch_add(1, Ordering::Relaxed);
                        return Ok(rel);
                    }
                    Err(AttemptError::Failed(detail)) => {
                        fleet_log(w as u32, &detail);
                        return Err(ExecError::KernelPanic {
                            vertex: Some(vertex),
                            label: Some(label.to_string()),
                            detail: format!("on worker {w}: {detail}"),
                        });
                    }
                    Err(AttemptError::Dead(reason) | AttemptError::Missed(reason)) => {
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
