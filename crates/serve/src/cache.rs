//! The sharded concurrent plan cache: fingerprint → `Arc<Optimized>`
//! with cost-aware eviction and epoch-based invalidation.
//!
//! **Eviction weight.** Every entry remembers the wall-clock seconds
//! its optimizer run took ([`Optimized::opt_seconds`]) — the seconds a
//! future hit *saves*. When a shard exceeds its entry or byte cap, the
//! entry with the lowest `opt_seconds / (1 + age)` is dropped, where
//! `age` is measured on a cache-wide logical clock that ticks once per
//! lookup or insert. An expensive plan must go unused for
//! proportionally longer than a cheap one before it becomes the
//! victim.
//!
//! **Epochs.** Invalidation never walks the shards. The cache keeps a
//! global epoch counter; every entry is stamped with the epoch it was
//! planned under, and a lookup that finds an entry from an older epoch
//! discards it as stale. Calibration updates, cluster reconfiguration
//! ([`matopt_core::Cluster::degraded`]), and any other event that
//! changes what the optimizer would produce simply bump the epoch.
//! [`PlanCache::poison`] removes one fingerprint alone: a warmed entry
//! that fails validation against its graph.

use crate::Fingerprint;
use matopt_opt::Optimized;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Maximum cached plans (across all shards).
const MAX_ENTRIES: usize = 1024;
/// Maximum estimated bytes of cached annotations (across all shards).
const MAX_BYTES: u64 = 64 << 20;
/// Number of independently locked shards.
const SHARDS: usize = 16;

/// Monotonic counters describing cache behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that returned a live entry.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries evicted by the entry/byte caps.
    pub evicted: u64,
    /// Entries discarded because their epoch was stale.
    pub stale_evicted: u64,
    /// Entries removed by [`PlanCache::poison`].
    pub poisoned: u64,
}

struct Entry {
    plan: Arc<Optimized>,
    bytes: u64,
    epoch: u64,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<Fingerprint, Entry>,
    bytes: u64,
}

/// The sharded fingerprint → plan cache.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    max_entries: usize,
    max_bytes: u64,
    epoch: AtomicU64,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evicted: AtomicU64,
    stale_evicted: AtomicU64,
    poisoned: AtomicU64,
}

/// Estimated resident bytes of a cached plan: the annotation dominates
/// (per-vertex impl choice + per-edge transforms); the fixed fields are
/// noise. An estimate is fine — the byte cap bounds memory order, not
/// an allocator ledger.
pub fn plan_bytes(plan: &Optimized) -> u64 {
    let choices = plan.annotation.choices.len() as u64;
    let transforms: u64 = plan
        .annotation
        .choices
        .iter()
        .flatten()
        .map(|c| c.input_transforms.len() as u64)
        .sum();
    96 + choices * 56 + transforms * 24
}

impl Default for PlanCache {
    /// An empty cache of 1024 entries and 64 MiB over 16 shards.
    fn default() -> Self {
        Self::sized(MAX_ENTRIES, MAX_BYTES, SHARDS)
    }
}

impl PlanCache {
    fn sized(max_entries: usize, max_bytes: u64, shards: usize) -> Self {
        PlanCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            max_entries,
            max_bytes,
            epoch: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            stale_evicted: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
        }
    }

    /// The current invalidation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Starts a new epoch: every entry planned before this call becomes
    /// stale and will be discarded on its next lookup. Returns the new
    /// epoch.
    pub fn bump_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    fn shard(&self, fp: Fingerprint) -> &Mutex<Shard> {
        &self.shards[fp.shard(self.shards.len())]
    }

    /// Looks up a fingerprint, refreshing its recency on a hit. A
    /// stale-epoch entry is removed and reported as a miss.
    pub fn get(&self, fp: Fingerprint) -> Option<Arc<Optimized>> {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        let epoch = self.epoch();
        let mut shard = self.shard(fp).lock().expect("cache shard lock");
        match shard.map.get_mut(&fp) {
            Some(entry) if entry.epoch == epoch => {
                entry.last_used = now;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.plan))
            }
            Some(_) => {
                let entry = shard.map.remove(&fp).expect("entry present");
                shard.bytes -= entry.bytes;
                self.stale_evicted.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a plan stamped with the epoch it was *planned under* —
    /// pass the epoch observed before the optimizer ran, so an
    /// invalidation racing the optimization leaves the entry already
    /// stale instead of serving a pre-invalidation plan. Returns how
    /// many victims the caps evicted.
    pub fn insert(&self, fp: Fingerprint, plan: Arc<Optimized>, epoch: u64) -> usize {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        let bytes = plan_bytes(&plan);
        let per_shard_entries = self.max_entries.div_ceil(self.shards.len()).max(1);
        let per_shard_bytes = (self.max_bytes / self.shards.len() as u64).max(bytes);
        let mut shard = self.shard(fp).lock().expect("cache shard lock");
        if let Some(old) = shard.map.insert(
            fp,
            Entry {
                plan,
                bytes,
                epoch,
                last_used: now,
            },
        ) {
            shard.bytes -= old.bytes;
        }
        shard.bytes += bytes;

        let mut evicted = 0usize;
        while shard.map.len() > per_shard_entries || shard.bytes > per_shard_bytes {
            // Victim: lowest optimizer-seconds-saved × recency. Stale
            // epochs go first — a stale entry saves nothing.
            let victim = shard
                .map
                .iter()
                .filter(|(k, _)| **k != fp || shard.map.len() == 1)
                .min_by(|(_, a), (_, b)| {
                    let current = self.epoch();
                    weight(a, now, current)
                        .partial_cmp(&weight(b, now, current))
                        .expect("weights are finite")
                })
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            let entry = shard.map.remove(&victim).expect("victim present");
            shard.bytes -= entry.bytes;
            evicted += 1;
            if victim == fp {
                break; // the new entry itself was the cheapest: stop
            }
        }
        self.evicted.fetch_add(evicted as u64, Ordering::Relaxed);
        evicted
    }

    /// Removes one fingerprint (a warmed entry that failed validation).
    /// Returns whether an entry was present.
    pub fn poison(&self, fp: Fingerprint) -> bool {
        let mut shard = self.shard(fp).lock().expect("cache shard lock");
        if let Some(entry) = shard.map.remove(&fp) {
            shard.bytes -= entry.bytes;
            self.poisoned.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Live entries across all shards.
    pub fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").map.len())
            .sum()
    }

    /// Estimated cached bytes across all shards.
    pub fn bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").bytes)
            .sum()
    }

    /// Counter snapshot.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            stale_evicted: self.stale_evicted.load(Ordering::Relaxed),
            poisoned: self.poisoned.load(Ordering::Relaxed),
        }
    }

    /// Every live current-epoch entry, for persistence.
    pub fn snapshot(&self) -> Vec<(Fingerprint, Arc<Optimized>)> {
        let epoch = self.epoch();
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard lock");
            for (fp, entry) in &shard.map {
                if entry.epoch == epoch {
                    out.push((*fp, Arc::clone(&entry.plan)));
                }
            }
        }
        out.sort_by_key(|(fp, _)| *fp);
        out
    }
}

/// The eviction weight: optimizer seconds a hit saves, decayed by
/// logical-clock age. Stale-epoch entries weigh nothing.
fn weight(entry: &Entry, now: u64, epoch: u64) -> f64 {
    if entry.epoch != epoch {
        return -1.0;
    }
    let age = now.saturating_sub(entry.last_used) as f64;
    entry.plan.opt_seconds.max(0.0) / (1.0 + age)
}

#[cfg(test)]
mod tests {
    use super::*;
    use matopt_core::Annotation;

    fn plan(opt_seconds: f64) -> Arc<Optimized> {
        Arc::new(Optimized {
            annotation: Annotation::default(),
            cost: 1.0,
            beam_truncated: 0,
            timed_out: false,
            opt_seconds,
        })
    }

    fn fp(n: u128) -> Fingerprint {
        Fingerprint(n)
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = PlanCache::default();
        assert!(cache.get(fp(1)).is_none());
        cache.insert(fp(1), plan(0.1), cache.epoch());
        assert!(cache.get(fp(1)).is_some());
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (1, 1));
    }

    #[test]
    fn epoch_bump_invalidates_lazily() {
        let cache = PlanCache::default();
        cache.insert(fp(7), plan(0.1), cache.epoch());
        cache.bump_epoch();
        assert!(cache.get(fp(7)).is_none(), "stale epoch must miss");
        assert_eq!(cache.counters().stale_evicted, 1);
        assert_eq!(cache.entries(), 0, "stale entry is dropped, not kept");
    }

    #[test]
    fn entry_planned_before_invalidation_is_already_stale() {
        let cache = PlanCache::default();
        let planned_under = cache.epoch();
        cache.bump_epoch(); // cluster changed while the optimizer ran
        cache.insert(fp(3), plan(0.1), planned_under);
        assert!(cache.get(fp(3)).is_none());
    }

    #[test]
    fn poison_removes_one_entry() {
        let cache = PlanCache::default();
        cache.insert(fp(1), plan(0.1), cache.epoch());
        cache.insert(fp(2), plan(0.1), cache.epoch());
        assert!(cache.poison(fp(1)));
        assert!(!cache.poison(fp(1)));
        assert!(cache.get(fp(1)).is_none());
        assert!(cache.get(fp(2)).is_some());
        assert_eq!(cache.counters().poisoned, 1);
    }

    #[test]
    fn eviction_prefers_cheap_and_cold_plans() {
        // Single shard, 3 entries max: the cheap, old plan loses to the
        // expensive, old plan.
        let cache = PlanCache::sized(3, u64::MAX, 1);
        let e = cache.epoch();
        cache.insert(fp(1), plan(10.0), e); // expensive, oldest
        cache.insert(fp(2), plan(0.001), e); // cheap
        cache.insert(fp(3), plan(5.0), e);
        cache.insert(fp(4), plan(5.0), e); // forces one eviction
        assert_eq!(cache.entries(), 3);
        assert!(cache.get(fp(2)).is_none(), "cheap plan is the victim");
        assert!(cache.get(fp(1)).is_some(), "expensive plan survives");
        assert_eq!(cache.counters().evicted, 1);
    }

    #[test]
    fn recency_can_outweigh_cost() {
        let cache = PlanCache::sized(2, u64::MAX, 1);
        let e = cache.epoch();
        cache.insert(fp(1), plan(1.0), e);
        cache.insert(fp(2), plan(0.9), e);
        // Touch the cheaper plan many times; age the expensive one.
        for _ in 0..2048 {
            cache.get(fp(2));
        }
        cache.insert(fp(3), plan(0.5), e);
        assert!(
            cache.get(fp(2)).is_some(),
            "hot entry survives despite lower optimizer cost"
        );
        assert!(cache.get(fp(1)).is_none(), "cold entry is the victim");
    }

    #[test]
    fn byte_cap_evicts() {
        let p = plan(1.0);
        let sz = plan_bytes(&p);
        let cache = PlanCache::sized(usize::MAX, sz * 2, 1);
        let e = cache.epoch();
        cache.insert(fp(1), Arc::clone(&p), e);
        cache.insert(fp(2), Arc::clone(&p), e);
        cache.insert(fp(3), Arc::clone(&p), e);
        assert!(cache.bytes() <= sz * 2);
        assert_eq!(cache.entries(), 2);
    }

    #[test]
    fn snapshot_lists_only_live_entries() {
        let cache = PlanCache::default();
        cache.insert(fp(1), plan(0.1), cache.epoch());
        cache.bump_epoch();
        cache.insert(fp(2), plan(0.1), cache.epoch());
        let snap = cache.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, fp(2));
    }
}
