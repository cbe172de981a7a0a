//! Jittered bounded exponential backoff, shared by every retry loop in
//! the workspace.
//!
//! Three call sites used to hand-roll the same arithmetic with subtly
//! different caps: the fault-tolerant executor's per-vertex retry
//! (`matopt-engine`), the plan-cache directory lock's stale-steal spin
//! (`matopt-serve`), and — new in the fleet work — the worker-process
//! restart supervisor (`matopt-worker`). They all delegate here now, so
//! the bound proved by the property test (`max_total_ms` dominates any
//! realizable sleep sequence, for *any* jitter source) holds for each
//! of them.
//!
//! The policy is deliberately free of clocks and PRNGs: callers supply
//! the attempt number and a jitter word, the policy returns a delay in
//! milliseconds. That keeps it usable both from seeded chaos harnesses
//! (jitter from a seeded [`SplitMix64`]) and from production paths
//! (jitter from [`mix_jitter`] over the pid).

/// Bounded exponential backoff with additive jitter.
///
/// Delay for 1-based attempt `a` is
/// `min(base_ms * 2^(a-1), cap_ms) + jitter mod base_ms`, so the
/// jitter never exceeds one base delay and the total wait across all
/// permitted attempts is bounded by [`BackoffPolicy::max_total_ms`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// First delay, in milliseconds; doubles per attempt.
    pub base_ms: u64,
    /// Per-attempt delay ceiling, in milliseconds (before jitter).
    pub cap_ms: u64,
    /// Attempts allowed before the caller must give up
    /// ([`BackoffPolicy::exhausted`]).
    pub max_attempts: u32,
}

impl BackoffPolicy {
    /// Delay in milliseconds for 1-based `attempt`, mixing in the
    /// caller-supplied jitter word (any source: seeded PRNG, pid hash).
    ///
    /// Attempt numbers beyond 16 doublings saturate at the cap rather
    /// than overflowing the shift.
    #[must_use]
    pub fn delay_ms(&self, attempt: u32, jitter_word: u64) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
            .min(self.cap_ms);
        let jitter = jitter_word % self.base_ms.max(1);
        exp.saturating_add(jitter)
    }

    /// Whether the 1-based `attempt` exceeds the policy's budget.
    #[must_use]
    pub fn exhausted(&self, attempt: u32) -> bool {
        attempt > self.max_attempts
    }

    /// Upper bound on the total milliseconds slept across every
    /// permitted attempt, for any jitter sequence: each attempt sleeps
    /// at most `cap_ms + (base_ms - 1)`.
    #[must_use]
    pub fn max_total_ms(&self) -> u64 {
        let per_attempt = self.cap_ms.saturating_add(self.base_ms.saturating_sub(1));
        per_attempt.saturating_mul(u64::from(self.max_attempts))
    }
}

/// The SplitMix64 increment (2^64 / φ).
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 output finalizer: an avalanche of one word.
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64 (Steele et al.): a tiny, dependency-free PRNG whose fixed
/// algorithm reproduces a seed's stream on every platform. The fault
/// injector's schedules, loss sets and backoff jitter, and the fleet
/// chaos harness's schedules all draw from it.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream starting from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next word of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        finalize(self.state)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// Deterministic jitter word for call sites without a seeded PRNG: the
/// SplitMix64 finalizer over `(salt, attempt)`. Same salt and attempt
/// always yield the same word, so retry schedules stay reproducible
/// under test.
#[must_use]
pub fn mix_jitter(salt: u64, attempt: u32) -> u64 {
    finalize(salt ^ u64::from(attempt).wrapping_mul(GOLDEN))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn doubles_then_caps() {
        let p = BackoffPolicy {
            base_ms: 1,
            cap_ms: 8,
            max_attempts: 6,
        };
        // base 1 → jitter is always 0, so the sequence is exact.
        let delays: Vec<u64> = (1..=6).map(|a| p.delay_ms(a, u64::MAX)).collect();
        assert_eq!(delays, vec![1, 2, 4, 8, 8, 8]);
    }

    #[test]
    fn huge_attempt_numbers_saturate() {
        let p = BackoffPolicy {
            base_ms: 3,
            cap_ms: 50,
            max_attempts: u32::MAX,
        };
        assert_eq!(p.delay_ms(u32::MAX, 0), 50);
        assert!(p.delay_ms(u32::MAX, u64::MAX) <= 52);
    }

    #[test]
    fn exhaustion_is_strictly_after_budget() {
        let p = BackoffPolicy {
            base_ms: 1,
            cap_ms: 8,
            max_attempts: 3,
        };
        assert!(!p.exhausted(3));
        assert!(p.exhausted(4));
    }

    #[test]
    fn mix_jitter_is_deterministic_and_spread() {
        assert_eq!(mix_jitter(7, 1), mix_jitter(7, 1));
        assert_ne!(mix_jitter(7, 1), mix_jitter(7, 2));
        assert_ne!(mix_jitter(7, 1), mix_jitter(8, 1));
    }

    #[test]
    fn splitmix_is_deterministic_and_uniformish() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        let mean: f64 = (0..1000).map(|_| c.next_f64()).sum::<f64>() / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    /// The streams every seeded schedule and jitter word derive from,
    /// pinned to the values the engine's and the worker's private
    /// copies produced before they were merged here.
    #[test]
    fn splitmix_and_jitter_words_are_pinned() {
        let stream = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(
            stream(0),
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f,
                0xf88b_b8a8_724c_81ec,
                0x1b39_896a_51a8_749b,
                0x53cb_9f0c_747e_a2ea,
                0x2c82_9abe_1f45_32e1,
                0xc584_133a_c916_ab3c,
            ]
        );
        assert_eq!(
            stream(42),
            [
                0xbdd7_3226_2feb_6e95,
                0x28ef_e333_b266_f103,
                0x4752_6757_130f_9f52,
                0x581c_e1ff_0e4a_e394,
                0x09bc_585a_2448_23f2,
                0xde44_31fa_3c80_db06,
                0x37e9_671c_4537_6d5d,
                0xccf6_35ee_9e9e_2fa4,
            ]
        );
        let jitter = [
            ((0, 0), 0),
            ((0, 1), 0xe220_a839_7b1d_cdaf),
            ((7, 1), 0xf75f_04cb_b5a1_a1dd),
            ((7, 2), 0xb346_6f8a_7b81_a989),
            ((8, 1), 0x9e56_51b0_ef95_3636),
            ((u64::MAX, 3), 0x8f33_8340_13b3_1f7c),
            ((0x1234_5678, 16), 0xaf9e_3d1e_2d09_7fee),
        ];
        for ((salt, attempt), want) in jitter {
            assert_eq!(
                mix_jitter(salt, attempt),
                want,
                "mix_jitter({salt:#x}, {attempt})"
            );
        }
    }

    proptest! {
        /// The satellite-3 bound: for any policy and ANY jitter
        /// sequence, the sum of realizable delays over the permitted
        /// attempts never exceeds `max_total_ms`.
        #[test]
        fn total_wait_is_bounded(
            base in 0u64..1000,
            cap in 0u64..100_000,
            attempts in 0u32..64,
            jitters in proptest::collection::vec(0u64..=u64::MAX, 0..64),
        ) {
            let p = BackoffPolicy { base_ms: base, cap_ms: cap, max_attempts: attempts };
            let total: u64 = (1..=attempts)
                .map(|a| {
                    let j = jitters.get(a as usize % jitters.len().max(1)).copied().unwrap_or(0);
                    p.delay_ms(a, j)
                })
                .fold(0u64, u64::saturating_add);
            prop_assert!(total <= p.max_total_ms(),
                "total {total} exceeds bound {}", p.max_total_ms());
        }

        /// Delays are monotone in the attempt number up to the cap,
        /// holding the jitter word fixed.
        #[test]
        fn monotone_until_cap(base in 1u64..100, cap in 1u64..10_000, j in 0u64..=u64::MAX) {
            let p = BackoffPolicy { base_ms: base, cap_ms: cap, max_attempts: 20 };
            for a in 1..20u32 {
                prop_assert!(p.delay_ms(a, j) <= p.delay_ms(a + 1, j).max(p.cap_ms + base));
            }
        }
    }
}
