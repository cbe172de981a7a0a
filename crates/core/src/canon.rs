//! Canonical topological labeling of compute graphs.
//!
//! [`ComputeGraph`] vertex ids are construction order, so two graphs
//! built by different code paths (or by [`crate::ComputeGraph::add_op`]
//! calls in a different order) describe the *same* computation while
//! comparing unequal vertex-by-vertex. A plan cache keyed on the raw
//! vertex list would miss on every such relabeling. This module
//! computes an isomorphism-stable canonical form:
//!
//! 1. every vertex gets a six-word **structural token** — kind, op (or
//!    source format), payload bits, rows, cols, and a caller-supplied
//!    statistics token (the hook used by `matopt-serve` to bucket
//!    sparsity to the cost model's sensitivity);
//! 2. tokens are refined Weisfeiler–Lehman style: each round rehashes a
//!    vertex from its own label, its inputs' labels (in argument
//!    order), and the value-sorted multiset of `(consumer label,
//!    argument position)` pairs, until the label partition stops
//!    splitting. Labels look both down (inputs) and up (consumers), so
//!    structurally different vertices separate even when their subtrees
//!    agree;
//! 3. vertices are placed greedily in Kahn order, always taking the
//!    ready vertex with the smallest id-free key `(token, canonical
//!    input positions, refined label)`. Ties mean the candidates are
//!    interchangeable under every refinement we computed, so either
//!    placement yields the same canonical **encoding**: a word stream
//!    that fully describes the graph up to vertex renaming.
//!
//! Equal encodings therefore come from isomorphic graphs (no false
//! cache hits short of a 128-bit hash collision); a relabeled copy of
//! a graph always produces the identical encoding unless WL refinement
//! fails to separate genuinely distinct orbits — which for these
//! DAG-shaped, shape-annotated graphs does not occur, and would only
//! cost a spurious cache miss, never a wrong plan.
//!
//! Display names ([`crate::graph::Node::name`]) are deliberately
//! excluded: they annotate reports, not semantics.

use crate::graph::{ComputeGraph, NodeId, NodeKind};
use crate::ops::Op;
use crate::types::MatrixType;
use crate::PhysFormat;

/// 64-bit FNV-1a offset basis.
pub(crate) const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;
/// 128-bit FNV-1a offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV-1a prime (2^88 + 2^8 + 0x3b).
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// 64-bit FNV-1a over a word stream (each word fed little-endian).
pub fn fnv1a_64(words: &[u64]) -> u64 {
    fnv1a_extend(FNV64_OFFSET, words)
}

/// Continues a 64-bit FNV-1a state `h` over more words, so a stream can
/// be summed piece by piece; from [`FNV64_OFFSET`] it is [`fnv1a_64`].
pub(crate) fn fnv1a_extend(mut h: u64, words: &[u64]) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV64_PRIME);
        }
    }
    h
}

/// 64-bit FNV-1a over raw bytes: the stream checksum of every format
/// that is *persisted or an identity* — plan-cache records, training
/// checkpoints, fingerprints. Those records are kilobytes, their files
/// outlive a build, and FNV-1a cannot be made faster without changing
/// its value; bulk payloads that live only as long as the process
/// (spill extents, wire frames) use [`BulkChecksum`] instead. Over the
/// little-endian bytes of a word stream it equals [`fnv1a_64`] of the
/// words.
#[must_use]
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV64_OFFSET;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// Independent lanes of [`BulkChecksum`]: word `i` of the stream goes
/// to lane `i % LANES`, so the multiplies of consecutive words overlap
/// instead of waiting on each other. Sixteen scalar lanes keep a
/// 64-bit multiplier busy every cycle; thirty-two are four AVX-512
/// vectors in flight, which is what hides that unit's longer multiply.
const LANES: usize = 32;

/// One lane step: a bijection of the state for a fixed word and of the
/// word for a fixed state (xor, odd multiply and xor-shift are each
/// invertible). The `x >> 32` fold is what carries high input bits into
/// low state bits; without it a top-bit flip stays a top-bit-only
/// difference for ever and a second one in the same lane cancels it.
#[inline(always)]
const fn mix(h: u64, w: u64) -> u64 {
    let x = (h ^ w).wrapping_mul(FNV64_PRIME);
    x ^ (x >> 32)
}

/// Distinct starting states, so equal words in different lanes do not
/// leave equal lane states behind.
const LANE_SEEDS: [u64; LANES] = {
    let mut seeds = [0; LANES];
    let mut i = 0;
    while i < LANES {
        seeds[i] = mix(FNV64_OFFSET, i as u64);
        i += 1;
    }
    seeds
};

/// Word-parallel checksum for **bulk, process-lifetime payloads**:
/// spill extents, wire frames and the fault layer's value checksum.
/// On-disk formats and identities keep FNV-1a ([`fnv1a_bytes`],
/// [`fnv1a_64`], [`fnv1a_128`]) — do not unify the two: FNV-1a's value
/// is pinned by files that outlive a build and it costs a multiply per
/// *byte*, which on a megabyte buffer is more than writing it to disk;
/// this one's value is free to change between builds and it costs a
/// multiply per *word*, with `LANES` of them in flight.
///
/// Not a cryptographic hash. What it guarantees, because every step is
/// a bijection (see `mix`) and the lanes, tail and length are folded
/// with the same step: **any change confined to one 8-byte word changes
/// the result** — with certainty, not with probability 1 − 2⁻⁶⁴ — so a
/// flipped byte anywhere in a buffer is always detected.
///
/// The streaming form eats words (or `f64` bit patterns) so a value can
/// be summed without first being turned into bytes; [`bulk_checksum`]
/// is the one-shot form over bytes and agrees with it on the
/// little-endian bytes of the same words.
#[derive(Debug, Clone)]
pub struct BulkChecksum {
    lanes: [u64; LANES],
    /// Words eaten so far; `words % LANES` is the next word's lane.
    words: u64,
}

impl Default for BulkChecksum {
    fn default() -> Self {
        Self::new()
    }
}

impl BulkChecksum {
    /// An empty checksum.
    #[must_use]
    pub fn new() -> Self {
        BulkChecksum {
            lanes: LANE_SEEDS,
            words: 0,
        }
    }

    /// Eats one word.
    #[inline]
    pub fn word(&mut self, w: u64) {
        let lane = &mut self.lanes[self.words as usize % LANES];
        *lane = mix(*lane, w);
        self.words += 1;
    }

    /// Eats a slice of words.
    pub fn u64s(&mut self, words: &[u64]) {
        self.slice(words, |w| w);
    }

    /// Eats the bit patterns of a slice of `f64`s.
    pub fn f64s(&mut self, values: &[f64]) {
        self.slice(values, f64::to_bits);
    }

    /// Eats words held as little-endian byte arrays (an encoded stream).
    pub fn le_words(&mut self, words: &[[u8; 8]]) {
        self.slice(words, u64::from_le_bytes);
    }

    /// The lane-parallel walk over a typed slice: single steps up to
    /// the next lane-0 boundary, every lane at once over the middle,
    /// single steps for the last few.
    #[inline(always)]
    fn slice<T: Copy>(&mut self, items: &[T], word: impl Fn(T) -> u64) {
        let head = ((LANES - self.words as usize % LANES) % LANES).min(items.len());
        let (head, rest) = items.split_at(head);
        for &w in head {
            self.word(word(w));
        }
        let mut blocks = rest.chunks_exact(LANES);
        let mut lanes = self.lanes;
        for block in &mut blocks {
            for (lane, &w) in lanes.iter_mut().zip(block) {
                *lane = mix(*lane, word(w));
            }
        }
        self.lanes = lanes;
        self.words += (rest.len() - blocks.remainder().len()) as u64;
        for &w in blocks.remainder() {
            self.word(word(w));
        }
    }

    /// Folds the lanes and the length into the result.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.finish_with_tail(&[])
    }

    /// [`finish`](Self::finish) for a stream that ends in fewer than
    /// eight loose bytes: they are zero-padded to a word, and the byte
    /// length tells padding from payload.
    fn finish_with_tail(self, tail: &[u8]) -> u64 {
        debug_assert!(tail.len() < 8);
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        let mut h = FNV64_OFFSET;
        for lane in self.lanes {
            h = mix(h, lane);
        }
        h = mix(h, u64::from_le_bytes(last));
        mix(h, self.words * 8 + tail.len() as u64)
    }
}

/// [`BulkChecksum`] of a byte buffer in one call.
#[must_use]
pub fn bulk_checksum(bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    let mut sum = BulkChecksum::new();
    sum.le_words(words);
    sum.finish_with_tail(tail)
}

/// 128-bit FNV-1a over a word stream (each word fed little-endian).
pub fn fnv1a_128(words: &[u64]) -> u128 {
    let mut h = FNV128_OFFSET;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u128;
            h = h.wrapping_mul(FNV128_PRIME);
        }
    }
    h
}

/// Encodes a physical format as two id-free words `(tag, parameter)`.
pub fn format_words(format: PhysFormat) -> [u64; 2] {
    match format {
        PhysFormat::SingleTuple => [0, 0],
        PhysFormat::RowStrip { height } => [1, height],
        PhysFormat::ColStrip { width } => [2, width],
        PhysFormat::Tile { side } => [3, side],
        PhysFormat::Coo => [4, 0],
        PhysFormat::CsrSingle => [5, 0],
        PhysFormat::CsrTile { side } => [6, side],
    }
}

/// Decodes [`format_words`] back into a format; `None` for words no
/// format encodes to (a torn or hostile wire payload).
pub fn format_from_words(words: [u64; 2]) -> Option<PhysFormat> {
    Some(match words {
        [0, 0] => PhysFormat::SingleTuple,
        [1, height] if height > 0 => PhysFormat::RowStrip { height },
        [2, width] if width > 0 => PhysFormat::ColStrip { width },
        [3, side] if side > 0 => PhysFormat::Tile { side },
        [4, 0] => PhysFormat::Coo,
        [5, 0] => PhysFormat::CsrSingle,
        [6, side] if side > 0 => PhysFormat::CsrTile { side },
        _ => return None,
    })
}

/// Encodes an op as two words `(kind tag, payload bits)`.
fn op_words(op: Op) -> [u64; 2] {
    let payload = match op {
        Op::ScalarMul(alpha) => alpha.to_bits(),
        _ => 0,
    };
    [op.kind() as u64, payload]
}

/// Public alias of the canonical-form op encoding, for wire transport:
/// `(kind tag, payload bits)`.
pub fn op_to_words(op: Op) -> [u64; 2] {
    op_words(op)
}

/// Decodes [`op_to_words`] back into an op; `None` for an unknown kind
/// tag or a payload that is not finite where one is required.
pub fn op_from_words(words: [u64; 2]) -> Option<Op> {
    use crate::ops::OpKind;
    let kind = *crate::ops::ALL_OP_KINDS.get(usize::try_from(words[0]).ok()?)?;
    Some(match kind {
        OpKind::MatMul => Op::MatMul,
        OpKind::Add => Op::Add,
        OpKind::Sub => Op::Sub,
        OpKind::Hadamard => Op::Hadamard,
        OpKind::ScalarMul => {
            let alpha = f64::from_bits(words[1]);
            if !alpha.is_finite() {
                return None;
            }
            Op::ScalarMul(alpha)
        }
        OpKind::Transpose => Op::Transpose,
        OpKind::Relu => Op::Relu,
        OpKind::ReluGrad => Op::ReluGrad,
        OpKind::Softmax => Op::Softmax,
        OpKind::Sigmoid => Op::Sigmoid,
        OpKind::Exp => Op::Exp,
        OpKind::Neg => Op::Neg,
        OpKind::RowSums => Op::RowSums,
        OpKind::ColSums => Op::ColSums,
        OpKind::Inverse => Op::Inverse,
        OpKind::BroadcastAddRow => Op::BroadcastAddRow,
        OpKind::SumAll => Op::SumAll,
        OpKind::FrobeniusNorm => Op::FrobeniusNorm,
    })
}

/// The six-word structural token of one vertex, excluding anything that
/// depends on vertex ids or display names.
fn token(kind: &NodeKind, mtype: &MatrixType, stat: u64) -> [u64; 6] {
    match kind {
        NodeKind::Source { format } => {
            let [tag, param] = format_words(*format);
            [0, tag, param, mtype.rows, mtype.cols, stat]
        }
        NodeKind::Compute { op } => {
            let [tag, payload] = op_words(*op);
            [1, tag, payload, mtype.rows, mtype.cols, stat]
        }
    }
}

/// The canonical form of a compute graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalForm {
    /// Canonical position → original vertex id (a topological order).
    pub order: Vec<NodeId>,
    /// The canonical word encoding: for each vertex in canonical order,
    /// its structural token followed by its input count and the
    /// canonical positions of its inputs in argument order. Two graphs
    /// with equal encodings are isomorphic (the encoding is a full,
    /// id-free description of the graph).
    pub words: Vec<u64>,
    /// 128-bit FNV-1a hash of [`CanonicalForm::words`].
    pub hash: u128,
}

impl CanonicalForm {
    /// The hash as 32 lowercase hex digits.
    pub fn hash_hex(&self) -> String {
        format!("{:032x}", self.hash)
    }
}

/// Canonical form with exact statistics: the stat token is the raw bit
/// pattern of each vertex's sparsity. Callers that want drift-stable
/// fingerprints should use [`canonical_form_with`] and bucket instead.
pub fn canonical_form(graph: &ComputeGraph) -> CanonicalForm {
    canonical_form_with(graph, &|m| m.sparsity.to_bits())
}

/// Canonical form with a caller-supplied statistics token per vertex.
///
/// The token feeds the structural label of every vertex, so two graphs
/// are canonically equal iff they are isomorphic *and* agree on every
/// vertex's token — pass a bucketing function to make the form stable
/// under small statistics drift.
pub fn canonical_form_with(
    graph: &ComputeGraph,
    stat_token: &dyn Fn(&MatrixType) -> u64,
) -> CanonicalForm {
    let n = graph.len();
    let tokens: Vec<[u64; 6]> = graph
        .iter()
        .map(|(_, node)| token(&node.kind, &node.mtype, stat_token(&node.mtype)))
        .collect();

    // Weisfeiler–Lehman refinement over 64-bit labels. Refinement only
    // ever splits label classes, so a round that does not increase the
    // number of distinct labels has reached the stable partition.
    let mut labels: Vec<u64> = tokens.iter().map(|t| fnv1a_64(t)).collect();
    let mut distinct = count_distinct(&labels);
    for _ in 0..n {
        if distinct == n {
            break;
        }
        // (consumer label, argument position) pairs per producer.
        let mut uses: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
        for (cid, cnode) in graph.iter() {
            for (pos, input) in cnode.inputs.iter().enumerate() {
                uses[input.index()].push((labels[cid.index()], pos as u64));
            }
        }
        let mut next = Vec::with_capacity(n);
        for (id, node) in graph.iter() {
            let v = id.index();
            let mut words = Vec::with_capacity(2 + node.inputs.len() + 2 * uses[v].len());
            words.push(labels[v]);
            words.push(node.inputs.len() as u64);
            for input in &node.inputs {
                words.push(labels[input.index()]);
            }
            // The consumer multiset is sorted by value so the label
            // never depends on consumer construction order.
            uses[v].sort_unstable();
            for (label, pos) in &uses[v] {
                words.push(*label);
                words.push(*pos);
            }
            next.push(fnv1a_64(&words));
        }
        let next_distinct = count_distinct(&next);
        if next_distinct == distinct {
            break;
        }
        labels = next;
        distinct = next_distinct;
    }

    // Greedy canonical Kahn placement. A vertex's key is fixed the
    // moment it becomes ready (all inputs placed), and contains no
    // original vertex ids, so the placement is relabeling-invariant.
    let mut indegree: Vec<usize> = graph.iter().map(|(_, node)| node.inputs.len()).collect();
    let consumers = graph.consumers();
    let mut ready: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
    let mut position: Vec<u64> = vec![u64::MAX; n];
    let mut order = Vec::with_capacity(n);
    let mut words = Vec::with_capacity(n * 8);
    while let Some(slot) = pick_min(graph, &tokens, &labels, &position, &ready) {
        let v = ready.swap_remove(slot);
        position[v] = order.len() as u64;
        let id = NodeId(v as u32);
        let node = graph.node(id);
        words.extend_from_slice(&tokens[v]);
        words.push(node.inputs.len() as u64);
        for input in &node.inputs {
            words.push(position[input.index()]);
        }
        order.push(id);
        for consumer in &consumers[v] {
            let c = consumer.index();
            indegree[c] -= 1;
            if indegree[c] == 0 {
                ready.push(c);
            }
        }
    }
    debug_assert_eq!(order.len(), n, "compute graphs are acyclic");

    let hash = fnv1a_128(&words);
    CanonicalForm { order, words, hash }
}

/// Index into `ready` of the vertex with the smallest id-free key
/// `(token, canonical input positions, refined label)`.
fn pick_min(
    graph: &ComputeGraph,
    tokens: &[[u64; 6]],
    labels: &[u64],
    position: &[u64],
    ready: &[usize],
) -> Option<usize> {
    type TieKey = ([u64; 6], Vec<u64>, u64);
    let mut best: Option<(usize, TieKey)> = None;
    for (slot, &v) in ready.iter().enumerate() {
        let inputs: Vec<u64> = graph
            .node(NodeId(v as u32))
            .inputs
            .iter()
            .map(|i| position[i.index()])
            .collect();
        let key = (tokens[v], inputs, labels[v]);
        if best.as_ref().is_none_or(|(_, k)| key < *k) {
            best = Some((slot, key));
        }
    }
    best.map(|(slot, _)| slot)
}

fn count_distinct(labels: &[u64]) -> usize {
    let mut sorted = labels.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComputeGraph, MatrixType, Op, PhysFormat};

    fn m(rows: u64, cols: u64) -> MatrixType {
        MatrixType::dense(rows, cols)
    }

    #[test]
    fn fnv1a_bytes_matches_the_published_vectors() {
        // FNV-1a-64 test vectors from the reference suite: every
        // plan-cache record and checkpoint checksums with this fold, so
        // these pin the on-disk bytes.
        assert_eq!(fnv1a_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_bytes(b"foobar"), 0x8594_4171_f739_67e8);
        let words = [0x0123_4567_89ab_cdefu64, 42];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(fnv1a_bytes(&bytes), fnv1a_64(&words));
    }

    /// A message with no structure a checksum could lean on.
    fn noise(len: usize) -> Vec<u8> {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 56) as u8
            })
            .collect()
    }

    fn le_words(bytes: &[u8]) -> Vec<u64> {
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn bulk_checksum_detects_every_single_bit_flip() {
        // One full block of lanes, then 100 bytes of loose words and tail.
        let msg = noise(8 * LANES + 100);
        let want = bulk_checksum(&msg);
        for bit in 0..8 * msg.len() {
            let mut flipped = msg.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(bulk_checksum(&flipped), want, "bit {bit} went unnoticed");
        }
    }

    #[test]
    fn top_bit_flips_in_one_lane_do_not_cancel() {
        // Word-wise FNV without the fold: a flipped bit 63 survives the
        // odd multiply as a bit-63-only difference, so the same flip in
        // the lane's next word cancels it.
        let plain = |words: &[u64]| {
            words
                .iter()
                .fold(FNV64_OFFSET, |h, w| (h ^ w).wrapping_mul(FNV64_PRIME))
        };
        let words = le_words(&noise(8 * 3 * LANES));
        for lane in 0..LANES {
            let mut twice = words.clone();
            twice[lane] ^= 1 << 63;
            twice[lane + LANES] ^= 1 << 63;
            let in_lane =
                |ws: &[u64]| -> Vec<u64> { ws.iter().skip(lane).step_by(LANES).copied().collect() };
            assert_eq!(plain(&in_lane(&twice)), plain(&in_lane(&words)));
            let (mut a, mut b) = (BulkChecksum::new(), BulkChecksum::new());
            a.u64s(&words);
            b.u64s(&twice);
            assert_ne!(a.finish(), b.finish(), "lane {lane}");
        }
    }

    #[test]
    fn appending_zero_bytes_changes_the_bulk_checksum() {
        for len in 0..40 {
            let msg = noise(len);
            let mut sums = vec![bulk_checksum(&msg)];
            let mut padded = msg;
            for _ in 0..2 * 8 * LANES {
                padded.push(0);
                sums.push(bulk_checksum(&padded));
            }
            let distinct = count_distinct(&sums);
            assert_eq!(distinct, sums.len(), "len {len}: zero padding collided");
        }
    }

    #[test]
    fn one_shot_and_streaming_forms_agree_at_every_length() {
        // Two blocks of lanes and a word: every lane and tail boundary.
        let max = 2 * 8 * LANES + 8;
        let msg = noise(max);
        for len in 0..=max {
            let bytes = &msg[..len];
            let words = le_words(bytes);
            // The plain form: one word at a time, loose bytes at the end.
            let mut plain = BulkChecksum::new();
            for w in &words {
                plain.word(*w);
            }
            let want = plain.finish_with_tail(&bytes[words.len() * 8..]);
            assert_eq!(bulk_checksum(bytes), want, "one-shot, length {len}");
            if len % 8 != 0 {
                continue;
            }
            // Every way of cutting the same words into slices, through
            // every typed entry point.
            let floats: Vec<f64> = words.iter().map(|w| f64::from_bits(*w)).collect();
            let arrays: Vec<[u8; 8]> = words.iter().map(|w| w.to_le_bytes()).collect();
            for cut in 0..=words.len() {
                let (mut a, mut b, mut c) = (
                    BulkChecksum::new(),
                    BulkChecksum::new(),
                    BulkChecksum::new(),
                );
                a.u64s(&words[..cut]);
                a.u64s(&words[cut..]);
                b.f64s(&floats[..cut]);
                b.f64s(&floats[cut..]);
                c.le_words(&arrays[..cut]);
                c.le_words(&arrays[cut..]);
                for (form, got) in [("u64s", a), ("f64s", b), ("le_words", c)] {
                    assert_eq!(got.finish(), want, "{form}, length {len}, cut {cut}");
                }
            }
        }
    }

    /// `relu(A×B) + relu(A×B)`-shaped diamond, built source-first.
    fn diamond_forward() -> ComputeGraph {
        let mut g = ComputeGraph::new();
        let a = g.add_source(m(8, 4), PhysFormat::SingleTuple);
        let b = g.add_source(m(4, 8), PhysFormat::SingleTuple);
        let mm = g.add_op(Op::MatMul, &[a, b]).unwrap();
        let r = g.add_op(Op::Relu, &[mm]).unwrap();
        let e = g.add_op(Op::Exp, &[mm]).unwrap();
        g.add_op(Op::Add, &[r, e]).unwrap();
        g
    }

    /// The same graph with sources interleaved differently and the two
    /// middle branches created in the opposite order.
    fn diamond_relabeled() -> ComputeGraph {
        let mut g = ComputeGraph::new();
        let b = g.add_source_named(m(4, 8), PhysFormat::SingleTuple, Some("rhs"));
        let a = g.add_source_named(m(8, 4), PhysFormat::SingleTuple, Some("lhs"));
        let mm = g.add_op(Op::MatMul, &[a, b]).unwrap();
        let e = g.add_op(Op::Exp, &[mm]).unwrap();
        let r = g.add_op(Op::Relu, &[mm]).unwrap();
        g.add_op(Op::Add, &[r, e]).unwrap();
        g
    }

    #[test]
    fn relabeled_graph_hashes_equal() {
        let a = canonical_form(&diamond_forward());
        let b = canonical_form(&diamond_relabeled());
        assert_eq!(a.words, b.words);
        assert_eq!(a.hash, b.hash);
    }

    #[test]
    fn order_is_a_topological_permutation() {
        let g = diamond_forward();
        let form = canonical_form(&g);
        let mut seen = vec![false; g.len()];
        let mut placed = vec![false; g.len()];
        for id in &form.order {
            assert!(!seen[id.index()], "duplicate {id}");
            seen[id.index()] = true;
            for input in &g.node(*id).inputs {
                assert!(placed[input.index()], "{id} placed before input {input}");
            }
            placed[id.index()] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn names_do_not_affect_the_hash() {
        let plain = canonical_form(&diamond_forward());
        let mut named = diamond_forward();
        named.rename(crate::NodeId(3), "hidden");
        assert_eq!(plain.hash, canonical_form(&named).hash);
    }

    #[test]
    fn structure_changes_the_hash() {
        let base = canonical_form(&diamond_forward()).hash;

        // Different op on one branch.
        let mut g = ComputeGraph::new();
        let a = g.add_source(m(8, 4), PhysFormat::SingleTuple);
        let b = g.add_source(m(4, 8), PhysFormat::SingleTuple);
        let mm = g.add_op(Op::MatMul, &[a, b]).unwrap();
        let r = g.add_op(Op::Relu, &[mm]).unwrap();
        let e = g.add_op(Op::Neg, &[mm]).unwrap();
        g.add_op(Op::Add, &[r, e]).unwrap();
        assert_ne!(base, canonical_form(&g).hash);

        // Different shape.
        let mut g = ComputeGraph::new();
        let a = g.add_source(m(16, 4), PhysFormat::SingleTuple);
        let b = g.add_source(m(4, 8), PhysFormat::SingleTuple);
        let mm = g.add_op(Op::MatMul, &[a, b]).unwrap();
        let r = g.add_op(Op::Relu, &[mm]).unwrap();
        let e = g.add_op(Op::Exp, &[mm]).unwrap();
        g.add_op(Op::Add, &[r, e]).unwrap();
        assert_ne!(base, canonical_form(&g).hash);

        // Different source format.
        let mut g = ComputeGraph::new();
        let a = g.add_source(m(8, 4), PhysFormat::Tile { side: 4 });
        let b = g.add_source(m(4, 8), PhysFormat::SingleTuple);
        let mm = g.add_op(Op::MatMul, &[a, b]).unwrap();
        let r = g.add_op(Op::Relu, &[mm]).unwrap();
        let e = g.add_op(Op::Exp, &[mm]).unwrap();
        g.add_op(Op::Add, &[r, e]).unwrap();
        assert_ne!(base, canonical_form(&g).hash);
    }

    #[test]
    fn scalar_payload_changes_the_hash() {
        let build = |alpha: f64| {
            let mut g = ComputeGraph::new();
            let a = g.add_source(m(4, 4), PhysFormat::SingleTuple);
            g.add_op(Op::ScalarMul(alpha), &[a]).unwrap();
            g
        };
        assert_ne!(
            canonical_form(&build(0.5)).hash,
            canonical_form(&build(0.25)).hash
        );
        assert_eq!(
            canonical_form(&build(0.5)).hash,
            canonical_form(&build(0.5)).hash
        );
    }

    #[test]
    fn argument_order_is_preserved() {
        // A − B is not B − A even though the vertex multiset matches.
        let build = |swap: bool| {
            let mut g = ComputeGraph::new();
            let a = g.add_source(m(4, 4), PhysFormat::SingleTuple);
            let b = g.add_source(m(4, 4), PhysFormat::Coo);
            let (x, y) = if swap { (b, a) } else { (a, b) };
            g.add_op(Op::Sub, &[x, y]).unwrap();
            g
        };
        assert_ne!(
            canonical_form(&build(false)).hash,
            canonical_form(&build(true)).hash
        );
    }

    #[test]
    fn symmetric_twins_are_stable_under_relabeling() {
        // Two interchangeable relu branches off the same source: any
        // placement of the twins must produce the same encoding.
        let build = |flip: bool| {
            let mut g = ComputeGraph::new();
            let a = g.add_source(m(8, 8), PhysFormat::SingleTuple);
            let (r1, r2) = if flip {
                let x = g.add_op(Op::Relu, &[a]).unwrap();
                let y = g.add_op(Op::Relu, &[a]).unwrap();
                (y, x)
            } else {
                let x = g.add_op(Op::Relu, &[a]).unwrap();
                let y = g.add_op(Op::Relu, &[a]).unwrap();
                (x, y)
            };
            g.add_op(Op::Hadamard, &[r1, r2]).unwrap();
            g
        };
        assert_eq!(
            canonical_form(&build(false)).words,
            canonical_form(&build(true)).words
        );
    }

    #[test]
    fn asymmetric_consumers_separate_equal_subtrees() {
        // Both relu branches have identical *down* structure; only the
        // consumer side (argument position of a Sub) distinguishes
        // them. The downward WL pass must keep the two graphs equal
        // under relabeling while argument order stays significant.
        let build = |branch_order: bool| {
            let mut g = ComputeGraph::new();
            let a = g.add_source(m(8, 8), PhysFormat::SingleTuple);
            let (r1, r2) = if branch_order {
                let x = g.add_op(Op::Relu, &[a]).unwrap();
                let y = g.add_op(Op::Relu, &[a]).unwrap();
                (x, y)
            } else {
                let y = g.add_op(Op::Relu, &[a]).unwrap();
                let x = g.add_op(Op::Relu, &[a]).unwrap();
                (x, y)
            };
            let s = g.add_op(Op::Sub, &[r1, r2]).unwrap();
            g.add_op(Op::Exp, &[r2]).unwrap();
            g.add_op(Op::Neg, &[s]).unwrap();
            g
        };
        assert_eq!(
            canonical_form(&build(true)).words,
            canonical_form(&build(false)).words
        );
    }

    #[test]
    fn stat_token_hook_buckets_sparsity() {
        let build = |s: f64| {
            let mut g = ComputeGraph::new();
            let a = g.add_source(MatrixType::sparse(64, 64, s), PhysFormat::Coo);
            g.add_op(Op::Neg, &[a]).unwrap();
            g
        };
        let bucket = |m: &MatrixType| if m.sparsity < 0.05 { 0 } else { 1 };
        // Exact stats differ...
        assert_ne!(
            canonical_form(&build(0.01)).hash,
            canonical_form(&build(0.02)).hash
        );
        // ...but the bucketed forms agree within a bucket and split
        // across the boundary.
        assert_eq!(
            canonical_form_with(&build(0.01), &bucket).hash,
            canonical_form_with(&build(0.02), &bucket).hash
        );
        assert_ne!(
            canonical_form_with(&build(0.01), &bucket).hash,
            canonical_form_with(&build(0.10), &bucket).hash
        );
    }

    #[test]
    fn hash_hex_is_stable_width() {
        let form = canonical_form(&diamond_forward());
        let hex = form.hash_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(u128::from_str_radix(&hex, 16).unwrap(), form.hash);
    }

    #[test]
    fn format_and_op_words_round_trip() {
        use crate::format::{DEFAULT_STRIP_SIZES, DEFAULT_TILE_SIDES};
        use crate::ops::OpKind;
        let mut formats = vec![
            PhysFormat::SingleTuple,
            PhysFormat::Coo,
            PhysFormat::CsrSingle,
        ];
        for s in DEFAULT_STRIP_SIZES {
            formats.push(PhysFormat::RowStrip { height: s });
            formats.push(PhysFormat::ColStrip { width: s });
        }
        for s in DEFAULT_TILE_SIDES {
            formats.push(PhysFormat::Tile { side: s });
            formats.push(PhysFormat::CsrTile { side: s });
        }
        for f in formats {
            assert_eq!(format_from_words(format_words(f)), Some(f));
        }
        assert_eq!(format_from_words([9, 0]), None);
        assert_eq!(format_from_words([1, 0]), None); // zero-height strip
        for kind in crate::ops::ALL_OP_KINDS {
            let op = op_from_words([kind as u64, 2.5f64.to_bits()]).expect("decodes");
            assert_eq!(op.kind(), kind);
            assert_eq!(op_from_words(op_to_words(op)), Some(op));
        }
        assert_eq!(op_from_words([99, 0]), None);
        assert_eq!(
            op_from_words([OpKind::ScalarMul as u64, f64::NAN.to_bits()]),
            None
        );
    }
}
