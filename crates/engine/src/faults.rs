//! Deterministic, seeded fault injection.
//!
//! A [`FaultInjector`] owns a schedule of [`FaultEvent`]s keyed by
//! *compute-step index* — the 0-based position of a compute vertex in
//! the plan's topological order (sources don't count, so `crash@3`
//! always lands on a real operator). Schedules come from three places:
//! an explicit event list, the CLI spec grammar ([`parse_fault_spec`]),
//! or a seeded random generator ([`FaultInjector::random`]) used by the
//! chaos harness. All randomness — schedule generation, crash loss
//! sets, backoff jitter — flows from one [`SplitMix64`] state, so a
//! seed fully reproduces a chaos run. An injector always fires what it
//! holds; a run that wants no faults calls
//! [`crate::execute_plan_with`] instead.

use crate::value::{Block, Chunk, DistRelation};
use matopt_core::{BulkChecksum, SplitMix64};
use matopt_kernels::CooMatrix;

/// One kind of injected failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A worker dies while this vertex runs: its in-flight output is
    /// lost, and so are the previously materialized intermediates the
    /// active policy does not keep (all under `restart`, none under
    /// `checkpoint`, a seeded random subset under `lineage`).
    WorkerCrash,
    /// This vertex runs `slowdown`× slower than estimated.
    Straggler {
        /// Multiplicative slowdown factor (≥ 1).
        slowdown: f64,
    },
    /// The vertex's kernel fails transiently this many times before
    /// succeeding; each failure costs one retry with backoff.
    TransientKernelError {
        /// Consecutive failures before the kernel succeeds.
        failures: u32,
    },
    /// One output chunk is silently corrupted; the checksum pass detects
    /// it and the vertex is recomputed.
    CorruptedChunk {
        /// Index hint of the chunk to corrupt (taken modulo the actual
        /// chunk count at runtime).
        chunk: usize,
    },
    /// Resource-style failures (the paper's "too much intermediate
    /// data") repeat at this vertex; after enough repeats the executor
    /// degrades the cluster and re-plans the remaining suffix.
    ResourceExhaustion {
        /// How many times the vertex fails for resources.
        repeats: u32,
    },
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::WorkerCrash => write!(f, "worker crash"),
            FaultKind::Straggler { slowdown } => write!(f, "straggler x{slowdown:.1}"),
            FaultKind::TransientKernelError { failures } => {
                write!(f, "transient kernel error x{failures}")
            }
            FaultKind::CorruptedChunk { chunk } => write!(f, "corrupted chunk #{chunk}"),
            FaultKind::ResourceExhaustion { repeats } => {
                write!(f, "resource exhaustion x{repeats}")
            }
        }
    }
}

/// A fault scheduled at a compute step.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// 0-based index of the compute vertex (topological order,
    /// sources excluded) the fault fires at.
    pub step: usize,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A deterministic fault schedule plus the PRNG that recovery draws
/// jitter and loss sets from.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    events: Vec<Option<FaultEvent>>,
    rng: SplitMix64,
}

impl FaultInjector {
    /// An injector firing exactly `events` (none for an empty list),
    /// with recovery randomness seeded by `seed`.
    pub fn from_schedule(seed: u64, events: Vec<FaultEvent>) -> Self {
        FaultInjector {
            events: events.into_iter().map(Some).collect(),
            rng: SplitMix64::new(seed),
        }
    }

    /// A seeded random schedule of `n_faults` faults over `n_steps`
    /// compute steps, as the chaos harness uses.
    ///
    /// Draws crashes, stragglers, transient errors, and corruptions —
    /// but *not* [`FaultKind::ResourceExhaustion`], because degradation
    /// re-plans the suffix with different implementations whose
    /// floating-point rounding differs; chaos asserts bit-exact sink
    /// equality, so degradation is tested separately.
    pub fn random(seed: u64, n_steps: usize, n_faults: usize, max_transient: u32) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut events = Vec::with_capacity(n_faults);
        for _ in 0..n_faults {
            let step = rng.below(n_steps.max(1) as u64) as usize;
            let kind = match rng.below(4) {
                0 => FaultKind::WorkerCrash,
                1 => FaultKind::Straggler {
                    slowdown: 2.0 + rng.next_f64() * 6.0,
                },
                2 => FaultKind::TransientKernelError {
                    failures: 1 + rng.below(max_transient.max(1) as u64) as u32,
                },
                _ => FaultKind::CorruptedChunk {
                    chunk: rng.below(64) as usize,
                },
            };
            events.push(Some(FaultEvent { step, kind }));
        }
        FaultInjector { events, rng }
    }

    /// The scheduled-but-not-yet-fired events, for display.
    pub fn pending(&self) -> Vec<FaultEvent> {
        self.events.iter().flatten().cloned().collect()
    }

    /// Consumes and returns every fault scheduled at compute step
    /// `step`. Each event fires at most once.
    pub fn take(&mut self, step: usize) -> Vec<FaultKind> {
        let mut fired = Vec::new();
        for slot in &mut self.events {
            if slot.as_ref().is_some_and(|e| e.step == step) {
                fired.push(slot.take().expect("checked").kind);
            }
        }
        fired
    }

    /// The injector's PRNG, shared by loss-set draws and backoff jitter.
    pub(crate) fn rng(&mut self) -> &mut SplitMix64 {
        &mut self.rng
    }
}

/// Parses the CLI fault-spec grammar into an injector.
///
/// Comma-separated terms; `S` is a compute-step index (0-based, in
/// topological order over compute vertices, `n_steps` of them):
///
/// * `crash@S` — worker crash at step `S`;
/// * `slow@SxF` — straggler at `S`, slowdown factor `F`;
/// * `flaky@SxN` — `N` transient kernel failures at `S`;
/// * `corrupt@S` or `corrupt@S:C` — corrupt chunk `C` (default 0) of
///   step `S`'s output;
/// * `oom@SxN` — `N` resource-exhaustion failures at `S`;
/// * `random:N` — `N` seeded random faults (chaos-style).
///
/// # Errors
/// A human-readable message naming the offending term.
pub fn parse_fault_spec(spec: &str, seed: u64, n_steps: usize) -> Result<FaultInjector, String> {
    let mut events = Vec::new();
    let mut randoms = 0usize;
    for term in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        if let Some(n) = term.strip_prefix("random:") {
            randoms += n
                .parse::<usize>()
                .map_err(|_| format!("bad fault count {n:?} in {term:?}"))?;
            continue;
        }
        let (name, rest) = term
            .split_once('@')
            .ok_or_else(|| format!("bad fault term {term:?} (expected kind@step)"))?;
        let parse_step = |s: &str| -> Result<usize, String> {
            let step = s
                .parse::<usize>()
                .map_err(|_| format!("bad step {s:?} in {term:?}"))?;
            if step >= n_steps {
                return Err(format!(
                    "step {step} out of range in {term:?} (plan has {n_steps} compute steps)"
                ));
            }
            Ok(step)
        };
        let event = match name {
            "crash" => FaultEvent {
                step: parse_step(rest)?,
                kind: FaultKind::WorkerCrash,
            },
            "slow" => {
                let (s, f) = rest
                    .split_once('x')
                    .ok_or_else(|| format!("bad straggler term {term:?} (expected slow@SxF)"))?;
                let step = parse_step(s)?;
                let slowdown = f
                    .parse::<f64>()
                    .map_err(|_| format!("bad slowdown {f:?} in {term:?}"))?;
                // `parse::<f64>` accepts "NaN"/"inf", and `NaN < 1.0`
                // is false — check finiteness explicitly so neither
                // slips through as a legal factor.
                if !slowdown.is_finite() || slowdown < 1.0 {
                    return Err(format!(
                        "slowdown {f:?} must be a finite factor >= 1 in {term:?}"
                    ));
                }
                FaultEvent {
                    step,
                    kind: FaultKind::Straggler { slowdown },
                }
            }
            "flaky" => {
                let (s, n) = rest
                    .split_once('x')
                    .ok_or_else(|| format!("bad flaky term {term:?} (expected flaky@SxN)"))?;
                FaultEvent {
                    step: parse_step(s)?,
                    kind: FaultKind::TransientKernelError {
                        failures: n
                            .parse::<u32>()
                            .map_err(|_| format!("bad failure count {n:?} in {term:?}"))?,
                    },
                }
            }
            "corrupt" => {
                let (s, c) = match rest.split_once(':') {
                    Some((s, c)) => (
                        s,
                        c.parse::<usize>()
                            .map_err(|_| format!("bad chunk index {c:?} in {term:?}"))?,
                    ),
                    None => (rest, 0),
                };
                FaultEvent {
                    step: parse_step(s)?,
                    kind: FaultKind::CorruptedChunk { chunk: c },
                }
            }
            "oom" => {
                let (s, n) = rest
                    .split_once('x')
                    .ok_or_else(|| format!("bad oom term {term:?} (expected oom@SxN)"))?;
                FaultEvent {
                    step: parse_step(s)?,
                    kind: FaultKind::ResourceExhaustion {
                        repeats: n
                            .parse::<u32>()
                            .map_err(|_| format!("bad repeat count {n:?} in {term:?}"))?,
                    },
                }
            }
            other => {
                return Err(format!(
                    "unknown fault kind {other:?} (expected crash|slow|flaky|corrupt|oom|random)"
                ))
            }
        };
        events.push(event);
    }
    if randoms > 0 {
        let random = FaultInjector::random(seed, n_steps, randoms, 3);
        events.extend(random.pending());
    }
    Ok(FaultInjector::from_schedule(seed, events))
}

/// Folds one chunk — coordinates, block shape, and the stored entries
/// in storage order (explicit CSR zeros and COO duplicates included) —
/// into `sum`. The spill layer calls this chunk by chunk inside its own
/// encode and decode walks; [`relation_checksum`] is the whole-relation
/// form.
pub(crate) fn chunk_checksum(sum: &mut BulkChecksum, chunk: &Chunk) {
    let (rows, cols) = (chunk.block.rows() as u64, chunk.block.cols() as u64);
    sum.u64s(&[chunk.row, chunk.col, rows, cols]);
    match &chunk.block {
        Block::Dense(d) => sum.f64s(d.data()),
        Block::Csr(s) => {
            for (r, c, v) in s.iter() {
                sum.u64s(&[r as u64, c as u64, v.to_bits()]);
            }
        }
        Block::Coo(c) => {
            for &(r, cc, v) in c.entries() {
                sum.u64s(&[r as u64, cc as u64, v.to_bits()]);
            }
        }
    }
}

/// The value checksum the corruption detector compares before and
/// after "transport", and the spill layer before and after disk:
/// [`BulkChecksum`] over every chunk (see [`chunk_checksum`]). Values
/// live in locals and `SpillTicket`s only, never on disk.
pub(crate) fn relation_checksum(rel: &DistRelation) -> u64 {
    let mut sum = BulkChecksum::new();
    for chunk in &rel.chunks {
        chunk_checksum(&mut sum, chunk);
    }
    sum.finish()
}

/// Flips one value in the selected chunk (index modulo the chunk
/// count), preserving the block's physical format so downstream kernels
/// still see the layout they expect.
pub(crate) fn corrupt_chunk(rel: &mut DistRelation, chunk_hint: usize) {
    if rel.chunks.is_empty() {
        return;
    }
    let i = chunk_hint % rel.chunks.len();
    let Chunk { block, .. } = &mut rel.chunks[i];
    const FLIP: f64 = 1.0e9;
    *block = match block {
        Block::Dense(d) => {
            let mut d2 = d.clone();
            if d2.rows() > 0 && d2.cols() > 0 {
                let cur = d2.get(0, 0);
                d2.set(0, 0, cur + FLIP);
            }
            Block::Dense(d2)
        }
        Block::Csr(s) => Block::Csr(s.map_stored(|v| v + FLIP)),
        Block::Coo(c) => Block::Coo(CooMatrix::from_triples(
            c.rows(),
            c.cols(),
            c.entries()
                .iter()
                .map(|(r, cc, v)| (*r, *cc, v + FLIP))
                .collect(),
        )),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use matopt_core::PhysFormat;
    use matopt_kernels::DenseMatrix;

    #[test]
    fn events_fire_exactly_once() {
        let mut inj = FaultInjector::from_schedule(
            1,
            vec![
                FaultEvent {
                    step: 2,
                    kind: FaultKind::WorkerCrash,
                },
                FaultEvent {
                    step: 2,
                    kind: FaultKind::Straggler { slowdown: 3.0 },
                },
            ],
        );
        assert!(inj.take(0).is_empty());
        assert_eq!(inj.take(2).len(), 2);
        assert!(inj.take(2).is_empty());
        assert!(inj.pending().is_empty());
    }

    #[test]
    fn random_schedules_reproduce_from_the_seed_and_skip_degradation() {
        let a = FaultInjector::random(7, 10, 20, 3);
        let b = FaultInjector::random(7, 10, 20, 3);
        assert_eq!(a.pending(), b.pending());
        assert!(a
            .pending()
            .iter()
            .all(|e| !matches!(e.kind, FaultKind::ResourceExhaustion { .. })));
        assert!(a.pending().iter().all(|e| e.step < 10));
        let c = FaultInjector::random(8, 10, 20, 3);
        assert_ne!(a.pending(), c.pending());
    }

    /// The schedule a seed draws, pinned to the stream of the engine's
    /// own SplitMix64 before it moved to `matopt-core`.
    #[test]
    fn random_schedule_of_seed_7_is_pinned() {
        let got: Vec<String> = FaultInjector::random(7, 10, 20, 3)
            .pending()
            .iter()
            .map(|e| format!("{}:{:?}", e.step, e.kind))
            .collect();
        let want = [
            "7:WorkerCrash",
            "6:CorruptedChunk { chunk: 26 }",
            "5:TransientKernelError { failures: 1 }",
            "5:Straggler { slowdown: 2.621359684070071 }",
            "6:TransientKernelError { failures: 2 }",
            "0:WorkerCrash",
            "7:CorruptedChunk { chunk: 53 }",
            "0:CorruptedChunk { chunk: 13 }",
            "3:CorruptedChunk { chunk: 48 }",
            "5:TransientKernelError { failures: 1 }",
            "5:Straggler { slowdown: 7.826814696026855 }",
            "0:WorkerCrash",
            "8:Straggler { slowdown: 5.640624789931762 }",
            "8:Straggler { slowdown: 3.2628327253569935 }",
            "1:Straggler { slowdown: 7.518984675596585 }",
            "8:WorkerCrash",
            "2:TransientKernelError { failures: 1 }",
            "0:TransientKernelError { failures: 3 }",
            "6:TransientKernelError { failures: 3 }",
            "2:CorruptedChunk { chunk: 19 }",
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn spec_grammar_round_trips() {
        let inj = parse_fault_spec("crash@3, slow@1x4.5, flaky@0x2, corrupt@2:5, oom@4x2", 9, 6)
            .expect("parses");
        let pending = inj.pending();
        assert_eq!(pending.len(), 5);
        assert_eq!(pending[0].kind, FaultKind::WorkerCrash);
        assert_eq!(pending[1].kind, FaultKind::Straggler { slowdown: 4.5 });
        assert_eq!(
            pending[2].kind,
            FaultKind::TransientKernelError { failures: 2 }
        );
        assert_eq!(pending[3].kind, FaultKind::CorruptedChunk { chunk: 5 });
        assert_eq!(
            pending[4].kind,
            FaultKind::ResourceExhaustion { repeats: 2 }
        );

        let r = parse_fault_spec("random:4", 11, 6).expect("parses");
        assert_eq!(r.pending().len(), 4);

        assert!(parse_fault_spec("crash@9", 0, 6).is_err());
        assert!(parse_fault_spec("meteor@1", 0, 6).is_err());
        assert!(parse_fault_spec("slow@1x0.5", 0, 6).is_err());
    }

    #[test]
    fn malformed_specs_error_naming_the_offending_token() {
        // (spec, substring the error must contain) — every row is a
        // descriptive parse error, never a panic or a silent default.
        let table: &[(&str, &str)] = &[
            ("slow@x", "bad step \"\" in \"slow@x\""),
            ("slow@1", "bad straggler term \"slow@1\""),
            ("slow@ax2", "bad step \"a\" in \"slow@ax2\""),
            ("slow@1x", "bad slowdown \"\" in \"slow@1x\""),
            ("slow@1xfast", "bad slowdown \"fast\" in \"slow@1xfast\""),
            ("slow@1x-3", "slowdown \"-3\" must be a finite factor >= 1"),
            (
                "slow@1x0.5",
                "slowdown \"0.5\" must be a finite factor >= 1",
            ),
            (
                "slow@1xNaN",
                "slowdown \"NaN\" must be a finite factor >= 1",
            ),
            (
                "slow@1xinf",
                "slowdown \"inf\" must be a finite factor >= 1",
            ),
            ("corrupt@3:", "bad chunk index \"\" in \"corrupt@3:\""),
            ("corrupt@3:x", "bad chunk index \"x\" in \"corrupt@3:x\""),
            ("flaky@1x-2", "bad failure count \"-2\" in \"flaky@1x-2\""),
            ("flaky@1", "bad flaky term \"flaky@1\""),
            ("oom@1x1.5", "bad repeat count \"1.5\" in \"oom@1x1.5\""),
            ("oom@1", "bad oom term \"oom@1\""),
            ("crash@", "bad step \"\" in \"crash@\""),
            ("crash@-1", "bad step \"-1\" in \"crash@-1\""),
            ("crash@9", "step 9 out of range"),
            ("random:x", "bad fault count \"x\" in \"random:x\""),
            ("random:-1", "bad fault count \"-1\" in \"random:-1\""),
            ("meteor@1", "unknown fault kind \"meteor\""),
            ("kill@1", "unknown fault kind \"kill\""),
            ("crash", "bad fault term \"crash\" (expected kind@step)"),
        ];
        for (spec, want) in table {
            let err = parse_fault_spec(spec, 0, 6).expect_err(spec);
            assert!(
                err.contains(want),
                "spec {spec:?}: error {err:?} does not name the token ({want:?})"
            );
        }
    }

    #[test]
    fn checksums_catch_corruption() {
        let d = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut rel = DistRelation::from_dense(&d, PhysFormat::Tile { side: 1 }).unwrap();
        let before = relation_checksum(&rel);
        assert_eq!(before, relation_checksum(&rel), "checksum is stable");
        corrupt_chunk(&mut rel, 2);
        assert_ne!(before, relation_checksum(&rel));
    }
}
