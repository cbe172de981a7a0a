//! On-disk plan-cache persistence: `matopt plan --cache-dir <path>`
//! survives process restarts by spilling the cache snapshot to
//! `<dir>/plans.mcache` and warming from it on the next start.
//!
//! The file is a sequence of [`matopt_core::Framing`] frames under the
//! `MPLN0002` magic, one per entry; this module owns only an entry's
//! body grammar. The frame's FNV-1a catches disk rot and truncation;
//! on top of it the loader re-encodes each decoded entry and demands
//! the frame body back word for word (catches encoder/decoder
//! asymmetry). A corrupt entry is *skipped and counted*, never decoded
//! into a wrong plan — a damaged cache file degrades to cache misses,
//! not to serving garbage.
//!
//! Saves and loads on one directory serialize on a lock file
//! ([`LOCK_FILE`], stolen when its holder crashes), and every write
//! goes through [`matopt_core::write_atomic`], so concurrent
//! `persist_to_dir` / `warm_from_dir` calls — including from threads of
//! a single process — can never interleave partial writes.

use crate::{Fingerprint, PlanService};
use matopt_core::{
    format_words, write_atomic, Annotation, FrameReader, Framing, ImplId, Transform, VertexChoice,
    WireError, WordReader, ALL_TRANSFORM_KINDS,
};
use matopt_opt::Optimized;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `plans.mcache` frames. `MPLN0001` files laid their entries out under
/// a count word with two stored sums each; one warms empty, `corrupt = 1`.
const FRAMING: Framing = Framing::persisted(b"MPLN0002");

/// Tag of the one frame kind a cache file holds.
const TAG_ENTRY: u64 = 1;

/// File name inside the cache directory.
pub const CACHE_FILE: &str = "plans.mcache";

/// Lock file serializing writers (and readers) of one cache directory.
pub const LOCK_FILE: &str = "plans.mcache.lock";

/// A lock file older than this belongs to a crashed process and is
/// stolen.
const LOCK_STALE_AFTER: Duration = Duration::from_secs(30);

/// How long an acquire spins before giving up.
const LOCK_DEADLINE: Duration = Duration::from_secs(60);

/// What a warm/load pass found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Entries decoded and verified.
    pub loaded: usize,
    /// Entries (or whole files) rejected by the checksums or bounds
    /// checks.
    pub corrupt: usize,
}

// ---------------------------------------------------------------------
// Entry body grammar
// ---------------------------------------------------------------------

/// The body of one entry, as words.
fn encode_entry(fp: Fingerprint, plan: &Optimized) -> Vec<u64> {
    let mut w = vec![
        (fp.0 >> 64) as u64,
        fp.0 as u64,
        plan.cost.to_bits(),
        plan.opt_seconds.to_bits(),
        plan.beam_truncated as u64,
        u64::from(plan.timed_out),
        plan.annotation.choices.len() as u64,
    ];
    for choice in &plan.annotation.choices {
        match choice {
            None => w.push(0),
            Some(c) => {
                w.push(1);
                w.push(c.impl_id.0 as u64);
                w.extend_from_slice(&format_words(c.output_format));
                w.push(c.input_transforms.len() as u64);
                for t in &c.input_transforms {
                    let kind = ALL_TRANSFORM_KINDS
                        .iter()
                        .position(|k| *k == t.kind)
                        .expect("every TransformKind is in ALL_TRANSFORM_KINDS");
                    w.push(kind as u64);
                    w.extend_from_slice(&format_words(t.to));
                }
            }
        }
    }
    w
}

/// Serializes `entries` to the cache-file byte format.
fn encode_file(entries: &[(Fingerprint, Arc<Optimized>)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (fp, plan) in entries {
        bytes.extend_from_slice(&FRAMING.frame_bytes(TAG_ENTRY, &encode_entry(*fp, plan)));
    }
    bytes
}

/// Graphs and fan-ins far beyond anything the workspace builds; a
/// length field past these is corruption, not a big plan.
const MAX_CHOICES: usize = 1 << 20;
const MAX_TRANSFORMS: usize = 1 << 10;

fn decode_entry(body: &[u64]) -> Result<(Fingerprint, Optimized), String> {
    let mut r = WordReader::new(body);
    let fp = Fingerprint(
        (u128::from(r.take("fingerprint")?) << 64) | u128::from(r.take("fingerprint")?),
    );
    let cost = f64::from_bits(r.take("cost")?);
    let opt_seconds = f64::from_bits(r.take("optimizer seconds")?);
    let beam_truncated = r.take_count("beam-truncated count", usize::MAX)?;
    let timed_out = match r.take("timed-out flag")? {
        0 => false,
        1 => true,
        other => return Err(format!("timed-out flag {other}")),
    };
    let n_choices = r.take_count("choice count", MAX_CHOICES)?;
    let mut choices = Vec::with_capacity(n_choices);
    for _ in 0..n_choices {
        match r.take("choice presence")? {
            0 => choices.push(None),
            1 => {
                let impl_id =
                    ImplId(u16::try_from(r.take("impl id")?).map_err(|_| "impl id out of range")?);
                let output_format = r.take_format("output format")?;
                let n_transforms = r.take_count("transform count", MAX_TRANSFORMS)?;
                let mut input_transforms = Vec::with_capacity(n_transforms);
                for _ in 0..n_transforms {
                    let kind = r.take_count("transform kind", ALL_TRANSFORM_KINDS.len() - 1)?;
                    let to = r.take_format("transform target")?;
                    input_transforms.push(Transform {
                        kind: ALL_TRANSFORM_KINDS[kind],
                        to,
                    });
                }
                choices.push(Some(VertexChoice {
                    impl_id,
                    input_transforms,
                    output_format,
                }));
            }
            other => return Err(format!("choice presence {other}")),
        }
    }
    r.finish()?;
    Ok((
        fp,
        Optimized {
            annotation: Annotation { choices },
            cost,
            beam_truncated,
            timed_out,
            opt_seconds,
        },
    ))
}

/// Decodes a cache file, skipping (and counting) corrupt entries: a
/// frame whose sum or body fails is one lost entry; a lost frame
/// boundary (torn header, foreign magic, truncation) ends the file.
fn decode_file(bytes: &[u8]) -> (Vec<(Fingerprint, Optimized)>, usize) {
    let mut frames = FrameReader::with_framing(FRAMING, bytes);
    let mut out = Vec::new();
    let mut corrupt = 0usize;
    loop {
        let frame = match frames.read_record() {
            Ok(Ok(frame)) => frame,
            Ok(Err(_)) => {
                corrupt += 1;
                continue;
            }
            Err(WireError::Eof) => break,
            Err(_) => {
                corrupt += 1;
                break;
            }
        };
        // The value check: decode, re-encode, and demand the round trip
        // reproduce the stored body.
        match decode_entry(&frame.body) {
            Ok((fp, plan)) if frame.tag == TAG_ENTRY && encode_entry(fp, &plan) == frame.body => {
                out.push((fp, plan));
            }
            _ => corrupt += 1,
        }
    }
    (out, corrupt)
}

// ---------------------------------------------------------------------
// Files + service wiring
// ---------------------------------------------------------------------

/// An exclusive lock on one cache directory, held via a `create_new`'d
/// lock file. Concurrent `save_cache`/`load_cache` calls — from any
/// thread of any process sharing the directory — serialize on it, so
/// two writers can never interleave their temp files or rename over
/// each other mid-write. Dropping the guard releases the lock; a lock
/// left behind by a crashed process goes stale after
/// [`LOCK_STALE_AFTER`] and is stolen.
#[derive(Debug)]
struct DirLock {
    path: PathBuf,
}

impl DirLock {
    fn acquire(dir: &Path) -> io::Result<DirLock> {
        DirLock::acquire_with(dir, LOCK_STALE_AFTER, LOCK_DEADLINE)
    }

    fn acquire_with(dir: &Path, stale_after: Duration, deadline: Duration) -> io::Result<DirLock> {
        let path = dir.join(LOCK_FILE);
        let started = Instant::now();
        // Contention waits use the shared jittered-backoff helper
        // (same policy family as executor retries and fleet restarts):
        // 1 ms doubling to a 16 ms cap, with pid-salted jitter so two
        // processes contending for the lock don't wake in lockstep.
        let backoff = matopt_core::BackoffPolicy {
            base_ms: 1,
            cap_ms: 16,
            max_attempts: u32::MAX,
        };
        let salt = u64::from(std::process::id());
        let mut attempt = 0u32;
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(_) => return Ok(DirLock { path }),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    // Steal locks whose holder evidently died.
                    let stale = std::fs::metadata(&path)
                        .ok()
                        .and_then(|m| m.modified().ok())
                        .and_then(|m| m.elapsed().ok())
                        .is_some_and(|age| age > stale_after);
                    if stale {
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                    if started.elapsed() > deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("cache lock {} held too long", path.display()),
                        ));
                    }
                    attempt = attempt.saturating_add(1);
                    let ms = backoff.delay_ms(attempt, matopt_core::mix_jitter(salt, attempt));
                    std::thread::sleep(Duration::from_millis(ms));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Writes `entries` to `<dir>/plans.mcache` atomically
/// ([`write_atomic`]), creating `dir` if needed. Writers serialize on
/// the directory's lock file, so concurrent persists — even from
/// threads of one process — cannot interleave; one complete snapshot
/// wins. A crash mid-write leaves the previous cache file intact plus
/// debris the next locked writer sweeps (safe under the lock: any live
/// writer would be holding it instead).
///
/// # Errors
/// Propagates filesystem errors; [`io::ErrorKind::TimedOut`] when the
/// directory lock cannot be acquired.
pub fn save_cache(dir: &Path, entries: &[(Fingerprint, Arc<Optimized>)]) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let _lock = DirLock::acquire(dir)?;
    write_atomic(dir, CACHE_FILE, &encode_file(entries))
}

/// Reads `<dir>/plans.mcache` under the directory lock. A missing file
/// is an empty cache; a damaged file yields whatever entries survive
/// the frame checksum and the value check.
///
/// # Errors
/// Propagates filesystem errors other than "not found".
pub fn load_cache(dir: &Path) -> io::Result<(Vec<(Fingerprint, Optimized)>, LoadReport)> {
    // Serialize with writers (a reader between a writer's temp write
    // and rename would otherwise see the old file while the new one is
    // moments away — harmless, but the lock makes every load a clean
    // before-or-after of every save).
    let _lock = match DirLock::acquire(dir) {
        Ok(lock) => Some(lock),
        // No directory yet means no cache file either.
        Err(e) if e.kind() == io::ErrorKind::NotFound => None,
        Err(e) => return Err(e),
    };
    let bytes = match std::fs::read(dir.join(CACHE_FILE)) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok((Vec::new(), LoadReport::default()))
        }
        Err(e) => return Err(e),
    };
    let (entries, corrupt) = decode_file(&bytes);
    let report = LoadReport {
        loaded: entries.len(),
        corrupt,
    };
    Ok((entries, report))
}

impl PlanService {
    /// Warms the cache from `<dir>/plans.mcache`. Entries enter at the
    /// *current* epoch — a cluster or model change after warming
    /// invalidates them like any live entry. Corrupt entries become
    /// misses and a `cache_corrupt` obs record, never a served plan.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn warm_from_dir(&self, dir: &Path) -> io::Result<LoadReport> {
        let (entries, report) = load_cache(dir)?;
        let epoch = self.cache().epoch();
        for (fp, plan) in entries {
            self.cache().insert(fp, Arc::new(plan), epoch);
        }
        if report.corrupt > 0 {
            self.obs()
                .record(matopt_obs::Subsystem::Serve, "cache_corrupt", || {
                    vec![
                        ("dir", dir.display().to_string().into()),
                        ("corrupt", report.corrupt.into()),
                        ("loaded", report.loaded.into()),
                    ]
                });
        }
        Ok(report)
    }

    /// Persists every live current-epoch entry to `<dir>/plans.mcache`.
    /// Returns how many entries were written.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn persist_to_dir(&self, dir: &Path) -> io::Result<usize> {
        let snapshot = self.cache().snapshot();
        save_cache(dir, &snapshot)?;
        Ok(snapshot.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matopt_core::{PhysFormat, TransformKind};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn sample() -> (Fingerprint, Arc<Optimized>) {
        let choices = vec![
            None,
            Some(VertexChoice {
                impl_id: ImplId(7),
                input_transforms: vec![
                    Transform::identity(PhysFormat::Tile { side: 500 }),
                    Transform {
                        kind: TransformKind::RowStripToTile,
                        to: PhysFormat::Tile { side: 500 },
                    },
                ],
                output_format: PhysFormat::Tile { side: 500 },
            }),
        ];
        (
            Fingerprint(0xdead_beef_0123_4567_89ab_cdef_0000_0001),
            Arc::new(Optimized {
                annotation: Annotation { choices },
                cost: 12.5,
                beam_truncated: 3,
                timed_out: false,
                opt_seconds: 0.042,
            }),
        )
    }

    #[test]
    fn entry_round_trips() {
        let (fp, plan) = sample();
        let (got_fp, got) = decode_entry(&encode_entry(fp, &plan)).expect("decodes");
        assert_eq!(got_fp, fp);
        assert_eq!(got.cost, plan.cost);
        assert_eq!(got.opt_seconds, plan.opt_seconds);
        assert_eq!(got.beam_truncated, plan.beam_truncated);
        assert_eq!(got.annotation.choices.len(), 2);
        let c = got.annotation.choices[1].as_ref().expect("choice");
        assert_eq!(c.impl_id, ImplId(7));
        assert_eq!(c.input_transforms.len(), 2);
        assert_eq!(c.input_transforms[1].kind, TransformKind::RowStripToTile);
    }

    #[test]
    fn file_round_trips() {
        let (fp, plan) = sample();
        let bytes = encode_file(&[(fp, Arc::clone(&plan)), (Fingerprint(2), plan)]);
        let (entries, corrupt) = decode_file(&bytes);
        assert_eq!(corrupt, 0);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, fp);
        assert_eq!(entries[1].0, Fingerprint(2));
    }

    #[test]
    fn every_single_byte_flip_is_caught_or_harmless() {
        let (fp, plan) = sample();
        let clean_entry = encode_entry(fp, &plan);
        let clean = encode_file(&[(fp, plan)]);
        for i in 0..clean.len() {
            let mut dirty = clean.clone();
            dirty[i] ^= 0x40;
            let (entries, _corrupt) = decode_file(&dirty);
            // The safety property: a flip may *lose* entries (they
            // become misses), but any entry that survives decoding must
            // be byte-identical to what was written — never a plan the
            // flip altered.
            for (got_fp, got) in &entries {
                assert_eq!(
                    encode_entry(*got_fp, got),
                    clean_entry,
                    "flip at byte {i} surfaced an altered plan"
                );
            }
        }
    }

    #[test]
    fn truncation_is_corrupt_not_panic() {
        let (fp, plan) = sample();
        let clean = encode_file(&[(fp, plan)]);
        for end in 0..clean.len() {
            let (entries, corrupt) = decode_file(&clean[..end]);
            assert!(entries.is_empty());
            assert!(corrupt >= 1 || end < 16, "truncated at {end} not flagged");
        }
    }

    /// A parent-build cache file — `[MPLN0001, count, (len, stream
    /// sum, value sum, body)…]` — warms empty and is counted once.
    #[test]
    fn a_retired_magic_file_warms_empty_and_counts_one_corrupt() {
        let (fp, plan) = sample();
        let body = encode_entry(fp, &plan);
        let mut words = vec![u64::from_le_bytes(*b"MPLN0001"), 1, body.len() as u64, 0, 0];
        words.extend_from_slice(&body);
        let old: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let (entries, corrupt) = decode_file(&old);
        assert!(entries.is_empty());
        assert_eq!(corrupt, 1);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "matopt-persist-unit-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn dir_lock_excludes_a_second_acquire_until_dropped() {
        let dir = temp_dir("lock");
        let lock = DirLock::acquire(&dir).expect("first acquire");
        let err = DirLock::acquire_with(&dir, Duration::from_secs(60), Duration::from_millis(30))
            .expect_err("second acquire must time out while held");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        drop(lock);
        DirLock::acquire(&dir).expect("free after drop");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_from_a_crashed_process_is_stolen() {
        let dir = temp_dir("stale");
        // A crashed writer: lock file exists, holder is gone.
        std::fs::write(dir.join(LOCK_FILE), b"crashed").expect("leave stale lock");
        std::thread::sleep(Duration::from_millis(30));
        DirLock::acquire_with(&dir, Duration::from_millis(10), Duration::from_millis(500))
            .expect("stale lock must be stolen");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_mid_persist_leaves_old_cache_loadable_and_sweeps_debris() {
        let dir = temp_dir("crash");
        let (fp, plan) = sample();
        save_cache(&dir, &[(fp, Arc::clone(&plan))]).expect("initial save");

        // Simulate a writer that died at every possible point of its
        // temp write: a partial temp file of every prefix length, left
        // behind without ever renaming.
        let encoded = encode_file(&[(Fingerprint(99), Arc::clone(&plan))]);
        for end in 0..encoded.len() {
            let tmp = dir.join(format!(
                "{CACHE_FILE}.tmp.{}.crash{end}",
                std::process::id()
            ));
            std::fs::write(&tmp, &encoded[..end]).expect("partial tmp");
            // The cache file never saw the crashed write: loads still
            // serve the previous snapshot, byte-exact.
            let (entries, report) = load_cache(&dir).expect("load");
            assert_eq!(report.corrupt, 0, "crash at {end} corrupted the cache");
            assert_eq!(entries.len(), 1);
            assert_eq!(entries[0].0, fp);
        }

        // The next locked writer sweeps every piece of debris.
        save_cache(&dir, &[(Fingerprint(7), plan)]).expect("post-crash save");
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .expect("read dir")
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&format!("{CACHE_FILE}.tmp.")))
            .collect();
        assert!(leftovers.is_empty(), "debris survived: {leftovers:?}");
        let (entries, _) = load_cache(&dir).expect("load");
        assert_eq!(entries[0].0, Fingerprint(7));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_saves_and_loads_never_interleave() {
        let dir = temp_dir("concurrent");
        let (_, plan) = sample();
        // Each writer persists a snapshot whose entries all share one
        // marker fingerprint range; a torn write would surface as a
        // load mixing ranges or tripping the checksums.
        let writers = 4;
        let per_writer = 8;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let dir = dir.clone();
                let plan = Arc::clone(&plan);
                scope.spawn(move || {
                    for round in 0..per_writer {
                        let base = (w as u128 + 1) << 64;
                        let entries: Vec<_> = (0..16)
                            .map(|k| (Fingerprint(base | k as u128), Arc::clone(&plan)))
                            .collect();
                        save_cache(&dir, &entries)
                            .unwrap_or_else(|e| panic!("writer {w} round {round} failed: {e}"));
                    }
                });
            }
            for _ in 0..2 {
                let dir = dir.clone();
                scope.spawn(move || {
                    for _ in 0..16 {
                        let (entries, report) = load_cache(&dir).expect("load");
                        assert_eq!(report.corrupt, 0, "reader saw a torn write");
                        let ranges: std::collections::HashSet<u128> =
                            entries.iter().map(|(fp, _)| fp.0 >> 64).collect();
                        assert!(
                            ranges.len() <= 1,
                            "load mixed two writers' snapshots: {ranges:?}"
                        );
                    }
                });
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
