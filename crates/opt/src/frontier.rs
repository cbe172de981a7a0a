//! Algorithm 4: the frontier-based dynamic program for general DAGs
//! (§6).
//!
//! The frontier cuts the graph into an optimized and an unoptimized
//! portion. Vertices along the frontier that share an ancestor cannot
//! be optimized independently (they must share the sub-computation), so
//! the algorithm maintains *joint* cost tables `F(V, p)` over
//! equivalence classes `V` of frontier vertices, keyed by one physical
//! format per vertex in the class (§6.1). Moving a vertex across the
//! frontier merges the classes of its producers, applies the
//! Equation (2) recurrence, and marginalizes out vertices with no
//! remaining consumers.
//!
//! ## Implementation notes
//!
//! The naive recurrence enumerates `entries × implementations ×
//! format-combinations` per vertex and keys every joint state by a
//! vector of formats. The refinements below change how the minimum is
//! evaluated, never which states compete for it:
//!
//! * **Arrival maps** — for a fixed vector of producer formats, the
//!   best `(transformations, implementation)` choice per output format
//!   is independent of the rest of the joint key, so it is computed
//!   once per distinct producer-format vector and reused across all
//!   joint entries sharing it. Every edge cost an option may need is
//!   computed once per step into a dense table indexed by (arriving
//!   format, pinned format); a choice records only the option and the
//!   producer formats, and the transformations are rebuilt for the
//!   chosen plan alone.
//! * **Interned, flat tables** — every format seen in a run gets a
//!   small id; a joint table is three parallel vectors (keys with a
//!   stride of the class size, costs, back-traces) in a fixed entry
//!   order. There is no per-entry heap object and nothing on the
//!   per-candidate path is hashed; grouping numbers its packed codes
//!   through a word-at-a-time multiplicative hasher, not SipHash.
//! * **Project, then enumerate** — a merged entry influences the step
//!   only through the positions that stay on the frontier or that the
//!   moved vertex reads. Each merged table is therefore grouped by its
//!   retained formats (packed into `u64` codes and numbered through an
//!   integer-keyed map: one lookup per *entry*), keeping the cheapest
//!   entry per distinct vector of read formats within a group, and the
//!   candidates of a group fold into one dense row indexed by output
//!   format (one compare per *candidate*). A candidate costs
//!   `(Σ picked costs, in merged-table order) + arrival cost`; IEEE
//!   addition is monotone, so taking the minimum over
//!   projection-equivalent entries before the additions yields the
//!   same bits as taking it after.
//! * **One flat inner loop** — the outer merged tables' share of a
//!   candidate's cost and arrival slot is summed once per combination
//!   of their rows, and the innermost loop scans the last table's rows
//!   of the group linearly. A step that merges one table (most steps)
//!   pays no mixed-radix bookkeeping per row.
//! * **Beam cap by selection** — joint tables grow as `|P|^c` in the
//!   class size `c` (§6.3). [`frontier_dp`] is exact;
//!   [`frontier_dp_beam`] keeps only the `beam` cheapest joint states
//!   per table, which is exact whenever tables stay under the cap and a
//!   principled approximation beyond it (deep back-propagation graphs
//!   like the paper's 57-vertex FFNN legitimately exceed exact
//!   tractability — the test-suite checks beam plans against brute
//!   force on small DAGs). The selection runs over one `u128` per
//!   candidate, a key of its cost bits that orders like
//!   [`f64::total_cmp`] above its index, so `select_nth_unstable`
//!   needs no comparator and ties go to the earlier candidate; a
//!   keep-mask scan, not a sort, restores generation order.
//! * **Traces for survivors only** — a candidate carries its cost, the
//!   entry it picked from each merged table and an index into a per-run
//!   arena of choices filled once per arrival-map slot; back-traces are
//!   written after the beam, at most `beam` per vertex.
//! * **Step buffers** — candidates, arrival maps, grouped tables,
//!   selection keys and the other per-step scratch belong to the run
//!   and are cleared, not reallocated, between steps: one paper-scale
//!   plan makes a few thousand allocations.
//! * **Tie rule** — candidates are generated in a fixed order (groups
//!   of the first merged table outermost, entries in table order,
//!   output formats in option order) and tables keep that order, so
//!   every tie — equal costs for one joint state, equal costs at the
//!   beam boundary, equal minima at the end — goes to the candidate
//!   generated earliest. Two runs on one graph return the same
//!   annotation, cost bits and truncation count.

use crate::common::{
    transform_cost, vertex_options, OptContext, OptError, Optimized, VertexOption,
};
use matopt_core::{Annotation, ComputeGraph, NodeId, NodeKind, PhysFormat, VertexChoice};
use matopt_obs::Subsystem;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A physical format interned for one run; joint-table keys are vectors
/// of these.
type Fid = u16;

/// Checked narrowing for the `u32` indices the tables and arenas store.
/// A loop over `0..n` checks `n` once and narrows its indices with `as`.
fn ix(n: usize) -> Result<u32, OptError> {
    u32::try_from(n).map_err(|_| OptError::TooLarge {
        what: "table entries or arena slots",
        limit: 1 << 32,
    })
}

/// A word-at-a-time multiplicative hasher for the packed format codes
/// [`group_by`] numbers: each word is folded in with one rotate, xor and
/// multiply, and the finished value is rotated so that its best-mixed
/// bits land where a table takes its bucket index. The codes are built
/// from format ids the run hands out in order, so SipHash's flooding
/// resistance would buy nothing there. Formats themselves come from the
/// caller's graph and keep the default hasher.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The run's `PhysFormat → Fid` dictionary.
#[derive(Default)]
struct Interner {
    ids: HashMap<PhysFormat, Fid>,
    formats: Vec<PhysFormat>,
}

impl Interner {
    fn intern(&mut self, format: PhysFormat) -> Result<Fid, OptError> {
        match self.ids.entry(format) {
            Entry::Occupied(id) => Ok(*id.get()),
            Entry::Vacant(slot) => {
                let id = Fid::try_from(self.formats.len()).map_err(|_| OptError::TooLarge {
                    what: "distinct physical formats",
                    limit: 1 << Fid::BITS,
                })?;
                self.formats.push(format);
                Ok(*slot.insert(id))
            }
        }
    }

    fn format(&self, id: Fid) -> PhysFormat {
        self.formats[usize::from(id)]
    }
}

/// One way to produce an output format of a vertex from a fixed vector
/// of producer formats: the vertex's `option`-th option, applied to the
/// formats at `formats_at` in the run's producer-format arena (one per
/// input). Only the chosen plan's transformations are ever built.
struct Choice {
    vertex: NodeId,
    option: u32,
    out: Fid,
    formats_at: u32,
}

/// How an entry was produced, for plan reconstruction: the choice made
/// for the moved vertex ([`SOURCE`] for a source vertex, which has
/// nothing to annotate), and where, in the run's parent arena, the
/// traces of the entries it picked from the merged tables start. They
/// end where the next trace's start.
struct TraceStep {
    choice: u32,
    parents_at: u32,
}

/// The [`TraceStep::choice`] of a source vertex.
const SOURCE: u32 = u32::MAX;

/// A joint cost table `F(V, p)` for one equivalence class along the
/// frontier: entry `e` is `keys[e * c..(e + 1) * c]` (one format per
/// class member, `c = verts.len()`), `costs[e]`, `traces[e]`. Keys are
/// distinct, and there are at most `u32::MAX` entries.
struct ClassTable {
    verts: Vec<NodeId>,
    keys: Vec<Fid>,
    costs: Vec<f64>,
    traces: Vec<u32>,
}

impl ClassTable {
    fn len(&self) -> usize {
        self.costs.len()
    }

    fn key(&self, entry: usize) -> &[Fid] {
        let c = self.verts.len();
        &self.keys[entry * c..(entry + 1) * c]
    }
}

/// The buffers [`Side::fill`] works in, kept across steps.
#[derive(Default)]
struct GroupScratch {
    group_of: Vec<u32>,
    codes: Vec<u64>,
    ids: HashMap<u64, u32, BuildHasherDefault<WordHasher>>,
    start: Vec<usize>,
    next: Vec<usize>,
    by_group: Vec<u32>,
    row_of_slot: Vec<usize>,
}

/// Groups `table`'s entries by the projection of their keys onto
/// `positions`: a dense group id per entry into `s.group_of`, ids in
/// first-appearance order. Returns the number of groups.
///
/// A projection is packed into one `u64` code, `fid_bits` bits per
/// format, and codes are numbered through one integer-keyed map. When a
/// projection has more positions than a word holds, the packed prefix
/// is numbered first and its dense id starts the next word; ids are
/// injective on prefixes, so the final numbering is the same.
fn group_by(table: &ClassTable, positions: &[usize], fid_bits: u32, s: &mut GroupScratch) -> usize {
    let n = table.len();
    s.group_of.clear();
    if positions.is_empty() {
        // Nothing is retained: the table is one group.
        s.group_of.resize(n, 0);
        return 1;
    }
    if positions.len() == table.verts.len() {
        // Keys are distinct: every entry is a group of its own.
        s.group_of.extend(0..n as u32);
        return n;
    }
    s.codes.clear();
    s.codes.resize(n, 0);
    let mut rest = positions;
    let mut prefix_bits = 0;
    loop {
        let take = ((u64::BITS - prefix_bits) / fid_bits).min(rest.len() as u32);
        let (word, tail) = rest.split_at(take as usize);
        for (e, code) in s.codes.iter_mut().enumerate() {
            let key = table.key(e);
            for p in word {
                *code = *code << fid_bits | u64::from(key[*p]);
            }
        }
        s.ids.clear();
        s.group_of.clear();
        for code in &s.codes {
            let next = s.ids.len() as u32;
            s.group_of.push(*s.ids.entry(*code).or_insert(next));
        }
        if tail.is_empty() {
            return s.ids.len();
        }
        for (code, g) in s.codes.iter_mut().zip(&s.group_of) {
            *code = u64::from(*g);
        }
        prefix_bits = bits_for(s.ids.len());
        rest = tail;
    }
}

/// The number of bits that hold every number below `n`.
fn bits_for(n: usize) -> u32 {
    (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1)
}

/// One merged table as the step sees it: rows grouped by the formats of
/// the positions that stay on the frontier, and within a group the
/// cheapest entry per distinct vector of formats the moved vertex
/// reads. Group `g` is rows `group_start[g]..group_start[g + 1]`.
#[derive(Default)]
struct Side {
    group_start: Vec<u32>,
    entry: Vec<u32>,
    cost: Vec<f64>,
    /// The row's share of the arrival-slot index: which formats the
    /// moved vertex reads from it.
    slot: Vec<u32>,
}

impl Side {
    /// Refills the side from `table`; `slot_of[e]` is entry `e`'s share
    /// of the arrival-slot index, a number below `slots`, and every
    /// format id in the table fits in `fid_bits` bits.
    fn fill(
        &mut self,
        table: &ClassTable,
        retained: &[usize],
        (slot_of, slots): (&[u32], usize),
        fid_bits: u32,
        scratch: &mut GroupScratch,
    ) {
        let n = table.len();
        let groups = group_by(table, retained, fid_bits, scratch);
        self.group_start.clear();
        self.entry.clear();
        self.cost.clear();
        self.slot.clear();
        if groups == n {
            // One entry per group, already in group order.
            self.group_start.extend(0..=n as u32);
            self.entry.extend(0..n as u32);
            self.cost.extend_from_slice(&table.costs);
            self.slot.extend_from_slice(slot_of);
            return;
        }

        // Stable counting sort of the entries by group.
        let start = &mut scratch.start;
        start.clear();
        start.resize(groups + 1, 0);
        for g in &scratch.group_of {
            start[*g as usize + 1] += 1;
        }
        for g in 0..groups {
            start[g + 1] += start[g];
        }
        let by_group = &mut scratch.by_group;
        by_group.clear();
        by_group.resize(n, 0);
        scratch.next.clone_from(start);
        for (e, g) in scratch.group_of.iter().enumerate() {
            by_group[scratch.next[*g as usize]] = e as u32;
            scratch.next[*g as usize] += 1;
        }

        // The row holding each slot share, valid when it lies in the
        // group being filled. Entries that agree on their retained and
        // read formats differ only in positions nothing looks at any
        // more: the first strictly cheapest one stands for all of them.
        let row_of_slot = &mut scratch.row_of_slot;
        row_of_slot.clear();
        row_of_slot.resize(slots, usize::MAX);
        for g in 0..groups {
            let group_first = self.entry.len();
            self.group_start.push(group_first as u32);
            for &e in &by_group[start[g]..start[g + 1]] {
                let slot = slot_of[e as usize];
                let cost = table.costs[e as usize];
                let row = row_of_slot[slot as usize];
                if (group_first..self.entry.len()).contains(&row) {
                    if cost < self.cost[row] {
                        self.cost[row] = cost;
                        self.entry[row] = e;
                    }
                } else {
                    row_of_slot[slot as usize] = self.entry.len();
                    self.entry.push(e);
                    self.cost.push(cost);
                    self.slot.push(slot);
                }
            }
        }
        self.group_start.push(self.entry.len() as u32);
    }

    fn groups(&self) -> usize {
        self.group_start.len() - 1
    }

    fn group(&self, g: usize) -> std::ops::Range<usize> {
        self.group_start[g] as usize..self.group_start[g + 1] as usize
    }
}

/// The cheapest way to reach one output format (`out` indexes the
/// step's distinct output formats) from a fixed producer-format vector.
struct Arrival {
    cost: f64,
    out: u32,
    choice: u32,
}

/// One arrival map per vector of producer formats: slot `s` is
/// `list[start[s]..start[s + 1]]`, in output-format order.
#[derive(Default)]
struct ArrivalMaps {
    start: Vec<u32>,
    list: Vec<Arrival>,
}

impl ArrivalMaps {
    fn slot(&self, s: usize) -> &[Arrival] {
        &self.list[self.start[s] as usize..self.start[s + 1] as usize]
    }
}

/// The distinct joint states a step generates, in generation order:
/// candidate `c` has `cost[c]`, `choice[c]` and picked entry
/// `parents[c * m + t]` of merged table `t` (`m` tables).
#[derive(Default)]
struct Candidates {
    cost: Vec<f64>,
    choice: Vec<u32>,
    parents: Vec<u32>,
}

/// Mixed-radix counters over the merged tables, the last table's
/// fastest: the joint group, and the row picked from each outer table
/// within it.
#[derive(Default)]
struct Odometer {
    group: Vec<usize>,
    pick: Vec<usize>,
}

/// Equation (2): the cross product of one row per merged table, with the
/// (implementation × format) inner minimization factored into the
/// arrival maps. All candidates of one joint group share their retained
/// formats, so they compete in a dense row with one cell per output
/// format (`outs` of them). The row is the next `outs` entries of
/// `cands`; once the group is done, its filled cells are the group's
/// distinct joint states and stay, in output-format order.
///
/// The last table's rows are the innermost loop, a linear scan: the
/// outer tables' share of the cost and of the slot index is summed once
/// per combination of their rows. A step that merges one table has no
/// outer tables, so it walks each group's rows and nothing else.
fn enumerate(
    sides: &[Side],
    maps: &ArrivalMaps,
    outs: usize,
    at: &mut Odometer,
    cands: &mut Candidates,
) {
    let m = sides.len();
    let (last, outer) = sides
        .split_last()
        .expect("a compute vertex reads at least one table");
    cands.cost.clear();
    cands.choice.clear();
    cands.parents.clear();
    at.group.clear();
    at.group.resize(m, 0);
    at.pick.clear();
    at.pick.resize(outer.len(), 0);
    'groups: loop {
        let first = cands.cost.len();
        cands.cost.resize(first + outs, f64::INFINITY);
        cands.choice.resize(first + outs, 0);
        cands.parents.resize((first + outs) * m, 0);
        let row_cost = &mut cands.cost[first..];
        let row_choice = &mut cands.choice[first..];
        let row_parents = &mut cands.parents[first * m..];
        for (t, side) in outer.iter().enumerate() {
            at.pick[t] = side.group(at.group[t]).start;
        }
        let rows = last.group(at.group[m - 1]);
        'outer_rows: loop {
            // Summed in merged-table order, the last table's cost added
            // last: the same additions as one sum over all tables.
            let mut base = 0.0;
            let mut slot = 0;
            for (t, side) in outer.iter().enumerate() {
                base += side.cost[at.pick[t]];
                slot += side.slot[at.pick[t]] as usize;
            }
            for r in rows.clone() {
                let base = base + last.cost[r];
                for a in maps.slot(slot + last.slot[r] as usize) {
                    let cost = base + a.cost;
                    let out = a.out as usize;
                    if cost < row_cost[out] {
                        row_cost[out] = cost;
                        row_choice[out] = a.choice;
                        let parents = &mut row_parents[out * m..(out + 1) * m];
                        for (t, side) in outer.iter().enumerate() {
                            parents[t] = side.entry[at.pick[t]];
                        }
                        parents[m - 1] = last.entry[r];
                    }
                }
            }
            for t in (0..outer.len()).rev() {
                at.pick[t] += 1;
                if at.pick[t] < outer[t].group(at.group[t]).end {
                    continue 'outer_rows;
                }
                at.pick[t] = outer[t].group(at.group[t]).start;
            }
            break;
        }
        // Close the gaps the unreached output formats left.
        let mut kept = first;
        for cell in first..first + outs {
            if cands.cost[cell] < f64::INFINITY {
                if kept < cell {
                    cands.cost[kept] = cands.cost[cell];
                    cands.choice[kept] = cands.choice[cell];
                    cands
                        .parents
                        .copy_within(cell * m..(cell + 1) * m, kept * m);
                }
                kept += 1;
            }
        }
        cands.cost.truncate(kept);
        cands.choice.truncate(kept);
        cands.parents.truncate(kept * m);
        for t in (0..m).rev() {
            at.group[t] += 1;
            if at.group[t] < sides[t].groups() {
                continue 'groups;
            }
            at.group[t] = 0;
        }
        return;
    }
}

/// An unsigned key that orders like [`f64::total_cmp`]: a negative
/// value has every bit flipped, a non-negative one only its sign bit.
fn total_order_key(cost: f64) -> u64 {
    let bits = cost.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The buffers [`cheapest`] works in, kept across steps.
#[derive(Default)]
struct Selection {
    keys: Vec<u128>,
    keep: Vec<bool>,
    survivors: Vec<u32>,
}

/// The beam: into `sel.survivors`, the indices of the `beam` cheapest
/// of `costs` (all of them when there are no more than that), ties to
/// the lower index, in ascending index order. `costs` has at most
/// `u32::MAX` entries.
fn cheapest(costs: &[f64], beam: usize, sel: &mut Selection) {
    let n = costs.len();
    sel.survivors.clear();
    if n <= beam {
        sel.survivors.extend(0..n as u32);
        return;
    }
    // One integer per candidate: cost order first, then index order.
    sel.keys.clear();
    sel.keys.extend(
        costs
            .iter()
            .zip(0u32..)
            .map(|(c, i)| u128::from(total_order_key(*c)) << 32 | u128::from(i)),
    );
    sel.keys.select_nth_unstable(beam - 1);
    sel.keep.clear();
    sel.keep.resize(n, false);
    for key in &sel.keys[..beam] {
        sel.keep[*key as u32 as usize] = true;
    }
    sel.survivors.extend(
        sel.keep
            .iter()
            .zip(0u32..)
            .filter_map(|(keep, i)| keep.then_some(i)),
    );
}

/// What a step knows about the vertex it moves before it looks at any
/// table entry.
struct Moved {
    vertex: NodeId,
    options: Vec<VertexOption>,
    /// The distinct output formats of `options`, in option order.
    outs: Vec<Fid>,
    /// Per option, the index of its output format in `outs`.
    out_of: Vec<usize>,
    /// Per input `j`, the number of distinct formats the options pin it
    /// to; option `o` pins it to the `pin_of[o * arity + j]`-th.
    pins: Vec<usize>,
    pin_of: Vec<usize>,
    /// `edges[j][f * pins[j] + p]`: the cost of moving input `j` from
    /// its `f`-th arriving format to its `p`-th pinned one, `None` when
    /// no transformation does it.
    edges: Vec<Vec<Option<f64>>>,
}

impl Moved {
    /// The vertex's options, their output formats interned into
    /// `formats`, and the cost of every edge they may need from the
    /// arriving formats `froms`.
    fn new(
        graph: &ComputeGraph,
        v: NodeId,
        octx: &OptContext<'_>,
        formats: &mut Interner,
        froms: &[Vec<Fid>],
    ) -> Result<Moved, OptError> {
        // Offer every format the producers can actually emit.
        let extra: Vec<Vec<PhysFormat>> = froms
            .iter()
            .map(|list| list.iter().map(|f| formats.format(*f)).collect())
            .collect();
        let options = vertex_options(graph, v, octx.catalog, octx.plan, octx.model, &extra);
        if options.is_empty() {
            return Err(OptError::NoFeasiblePlan(v));
        }
        let mut outs: Vec<Fid> = Vec::new();
        let mut out_of = Vec::with_capacity(options.len());
        let mut pinned: Vec<Vec<PhysFormat>> = vec![Vec::new(); froms.len()];
        let mut pin_of = Vec::with_capacity(options.len() * froms.len());
        for o in &options {
            let f = formats.intern(o.out_format)?;
            out_of.push(position_or_push(&mut outs, f));
            for (to, list) in o.pin.iter().zip(&mut pinned) {
                pin_of.push(position_or_push(list, *to));
            }
        }
        let inputs = &graph.node(v).inputs;
        let edges = (froms.iter().zip(&pinned).zip(inputs))
            .map(|((from, to), u)| {
                let mtype = graph.node(*u).mtype;
                let cost = |f: &Fid, t: &PhysFormat| {
                    transform_cost(&mtype, formats.format(*f), *t, octx.plan, octx.model)
                        .map(|(_, c)| c)
                };
                from.iter()
                    .flat_map(|f| to.iter().map(move |t| cost(f, t)))
                    .collect()
            })
            .collect();
        Ok(Moved {
            vertex: v,
            options,
            outs,
            out_of,
            pins: pinned.iter().map(Vec::len).collect(),
            pin_of,
            edges,
        })
    }
}

/// The index of `x` in `list`, appended first when absent.
fn position_or_push<T: PartialEq>(list: &mut Vec<T>, x: T) -> usize {
    list.iter().position(|y| *y == x).unwrap_or_else(|| {
        list.push(x);
        list.len() - 1
    })
}

/// The per-step buffers of a run. A step clears and refills them; none
/// is reallocated once it has grown to the run's largest step.
#[derive(Default)]
struct StepBuffers {
    /// Per input, the index of every format in that input's list of
    /// distinct arriving formats (`u32::MAX` when absent), one row of
    /// the run's format count per input.
    from_ix: Vec<u32>,
    slot_of: Vec<u32>,
    /// The slot being filled: per input, its index into that input's
    /// arriving formats.
    from_pick: Vec<usize>,
    best: Vec<(f64, usize)>,
    maps: ArrivalMaps,
    groups: GroupScratch,
    sides: Vec<Side>,
    odometer: Odometer,
    cands: Candidates,
    selection: Selection,
}

/// Runs Algorithm 4 exactly (no beam cap).
///
/// ```
/// use matopt_core::*;
/// use matopt_cost::CostModel;
/// use matopt_opt::{frontier_dp, OptContext};
///
/// let mut g = ComputeGraph::new();
/// let a = g.add_source(MatrixType::dense(100, 10_000), PhysFormat::RowStrip { height: 10 });
/// let b = g.add_source(MatrixType::dense(10_000, 100), PhysFormat::ColStrip { width: 10 });
/// let ab = g.add_op(Op::MatMul, &[a, b]).unwrap();
///
/// let registry = ImplRegistry::paper_default();
/// let catalog = FormatCatalog::paper_default();
/// let ctx = PlanContext::new(&registry, Cluster::simsql_like(5));
/// let model = CostModel::analytical();
/// let plan = frontier_dp(&g, &OptContext::new(&ctx, &catalog, &model)).unwrap();
/// assert!(plan.annotation.choice(ab).is_some());
/// assert!(validate(&g, &plan.annotation, &ctx).is_ok());
/// ```
///
/// # Errors
/// [`OptError::NoFeasiblePlan`] when some vertex admits no type-correct
/// implementation on this cluster.
pub fn frontier_dp(graph: &ComputeGraph, octx: &OptContext<'_>) -> Result<Optimized, OptError> {
    frontier_dp_inner(graph, octx, usize::MAX)
}

/// Runs Algorithm 4 with joint tables capped at `beam` entries
/// (cheapest kept). Exact whenever no table exceeds the cap; the
/// returned [`Optimized::beam_truncated`] counts the joint states
/// dropped by the cap (0 ⇒ the search was exact), so callers can report
/// `"exact"` vs `"beamed"` via [`Optimized::exactness`].
///
/// # Errors
/// [`OptError::NoFeasiblePlan`] when some vertex admits no type-correct
/// implementation on this cluster.
pub fn frontier_dp_beam(
    graph: &ComputeGraph,
    octx: &OptContext<'_>,
    beam: usize,
) -> Result<Optimized, OptError> {
    frontier_dp_inner(graph, octx, beam.max(1))
}

/// The state of one run: the frontier, the arenas back-traces point
/// into, and the buffers every step reuses.
struct Search<'a, 'b> {
    graph: &'a ComputeGraph,
    octx: &'a OptContext<'b>,
    beam: usize,
    consumers: Vec<Vec<NodeId>>,
    visited: Vec<bool>,
    /// Live tables; `None` marks consumed (merged) slots.
    front: Vec<Option<ClassTable>>,
    /// Where each frontier vertex currently lives.
    table_of: Vec<usize>,
    formats: Interner,
    /// Per vertex, its options; a choice names one by index.
    options: Vec<Vec<VertexOption>>,
    /// The producer-format vectors choices apply their option to.
    producer_formats: Vec<Fid>,
    choices: Vec<Choice>,
    traces: Vec<TraceStep>,
    trace_parents: Vec<u32>,
    buffers: StepBuffers,
}

fn frontier_dp_inner(
    graph: &ComputeGraph,
    octx: &OptContext<'_>,
    beam: usize,
) -> Result<Optimized, OptError> {
    let started = std::time::Instant::now();
    let _phase = octx.obs.span_with(Subsystem::Optimizer, "frontier_dp", || {
        vec![
            ("vertices", graph.len().into()),
            ("compute_vertices", graph.compute_count().into()),
            ("exact", (beam == usize::MAX).into()),
        ]
    });
    let mut search = Search {
        graph,
        octx,
        beam,
        consumers: graph.consumers(),
        visited: vec![false; graph.len()],
        front: Vec::new(),
        table_of: vec![usize::MAX; graph.len()],
        formats: Interner::default(),
        options: vec![Vec::new(); graph.len()],
        producer_formats: Vec::new(),
        choices: Vec::new(),
        traces: Vec::new(),
        trace_parents: Vec::new(),
        buffers: StepBuffers::default(),
    };
    let mut beam_truncated = 0usize;

    for (id, node) in graph.iter() {
        match &node.kind {
            NodeKind::Source { format } => {
                // Lines 2–7: sources are already optimized.
                search.visited[id.index()] = true;
                search.traces.push(TraceStep {
                    choice: SOURCE,
                    parents_at: ix(search.trace_parents.len())?,
                });
                search.table_of[id.index()] = search.front.len();
                let table = ClassTable {
                    verts: vec![id],
                    keys: vec![search.formats.intern(*format)?],
                    costs: vec![0.0],
                    traces: vec![ix(search.traces.len() - 1)?],
                };
                search.front.push(Some(table));
            }
            NodeKind::Compute { .. } => beam_truncated += search.process_vertex(id)?,
        }
    }

    // Every vertex is optimized; sum the minima of the surviving tables
    // and walk the traces back into an annotation.
    let mut annotation = Annotation::empty(graph);
    let mut total = 0.0;
    for table in search.front.iter().flatten() {
        let best = (0..table.len())
            .min_by(|a, b| table.costs[*a].total_cmp(&table.costs[*b]))
            .expect("non-empty table");
        total += table.costs[best];
        let mut stack = vec![table.traces[best]];
        while let Some(t) = stack.pop() {
            let t = t as usize;
            let step = &search.traces[t];
            if step.choice == SOURCE {
                continue;
            }
            let parents_end = search
                .traces
                .get(t + 1)
                .map_or(search.trace_parents.len(), |next| next.parents_at as usize);
            let parents = step.parents_at as usize..parents_end;
            let choice = &search.choices[step.choice as usize];
            let option = &search.options[choice.vertex.index()][choice.option as usize];
            let from = &search.producer_formats[choice.formats_at as usize..];
            let inputs = &graph.node(choice.vertex).inputs;
            let input_transforms = (option.pin.iter().zip(from).zip(inputs))
                .map(|((to, f), u)| {
                    let (mtype, f) = (graph.node(*u).mtype, search.formats.format(*f));
                    transform_cost(&mtype, f, *to, octx.plan, octx.model)
                        .expect("the chosen option's edges exist")
                        .0
                })
                .collect();
            annotation.set(
                choice.vertex,
                VertexChoice {
                    impl_id: option.impl_id,
                    input_transforms,
                    output_format: search.formats.format(choice.out),
                },
            );
            stack.extend(&search.trace_parents[parents]);
        }
    }
    Ok(Optimized {
        annotation,
        cost: total,
        beam_truncated,
        timed_out: false,
        opt_seconds: started.elapsed().as_secs_f64(),
    })
}

impl Search<'_, '_> {
    /// Moves `v` from the unoptimized to the optimized portion (lines
    /// 8–17 of Algorithm 4), merging the parent classes and applying
    /// the Equation (2) recurrence. Returns the number of joint states
    /// the beam cap dropped at this step (0 when the step was exact).
    fn process_vertex(&mut self, v: NodeId) -> Result<usize, OptError> {
        let mut buffers = std::mem::take(&mut self.buffers);
        let truncated = self.step(v, &mut buffers);
        self.buffers = buffers;
        truncated
    }

    /// [`Search::process_vertex`], working in `b`.
    fn step(&mut self, v: NodeId, b: &mut StepBuffers) -> Result<usize, OptError> {
        let graph = self.graph;
        let octx = self.octx;
        let node = graph.node(v);
        self.visited[v.index()] = true;

        // Line 10: the classes V_F_1, V_F_2, ... containing producers
        // of v.
        let mut merged_idx: Vec<usize> = Vec::new();
        for input in &node.inputs {
            let ti = self.table_of[input.index()];
            debug_assert_ne!(ti, usize::MAX, "producer on the frontier");
            if !merged_idx.contains(&ti) {
                merged_idx.push(ti);
            }
        }
        let merged: Vec<ClassTable> = merged_idx
            .iter()
            .map(|i| self.front[*i].take().expect("live table"))
            .collect();
        let m = merged.len();
        let _step = octx
            .obs
            .span_with(Subsystem::Optimizer, "frontier_step", || {
                let label = node.name.clone().unwrap_or_else(|| v.to_string());
                vec![
                    ("vertex", v.index().into()),
                    ("label", label.into()),
                    ("merged_tables", m.into()),
                    (
                        "merged_entries",
                        merged.iter().map(ClassTable::len).sum::<usize>().into(),
                    ),
                ]
            });

        // Line 13: per merged table, the positions that keep a role on
        // the frontier (some consumer still unvisited). `v` itself is
        // always retained; it is dropped by a later merge once its
        // consumers are optimized.
        let retained: Vec<Vec<usize>> = merged
            .iter()
            .map(|t| {
                let live = |u: &NodeId| {
                    self.consumers[u.index()]
                        .iter()
                        .any(|c| !self.visited[c.index()])
                };
                (0..t.verts.len()).filter(|p| live(&t.verts[*p])).collect()
            })
            .collect();
        // Where each input sits: (merged table, position in its keys).
        let input_at: Vec<(usize, usize)> = node
            .inputs
            .iter()
            .map(|u| {
                merged
                    .iter()
                    .enumerate()
                    .find_map(|(t, table)| Some((t, table.verts.iter().position(|x| x == u)?)))
                    .expect("input must be in a merged table")
            })
            .collect();
        // The distinct formats each input can arrive in, in table
        // order, and the index of every format in that list.
        let nf = self.formats.formats.len();
        b.from_ix.clear();
        b.from_ix.resize(input_at.len() * nf, u32::MAX);
        let mut froms: Vec<Vec<Fid>> = Vec::with_capacity(input_at.len());
        for (j, (t, pos)) in input_at.iter().enumerate() {
            let index = &mut b.from_ix[j * nf..(j + 1) * nf];
            let mut list: Vec<Fid> = Vec::new();
            for e in 0..merged[*t].len() {
                let f = merged[*t].key(e)[*pos];
                if index[usize::from(f)] == u32::MAX {
                    index[usize::from(f)] = list.len() as u32;
                    list.push(f);
                }
            }
            froms.push(list);
        }

        let moved = Moved::new(graph, v, octx, &mut self.formats, &froms)?;

        // One arrival map per vector of producer formats: the vector
        // `(froms[0][i_0], froms[1][i_1], ...)` is slot
        // `Σ i_j * slot_stride[j]` (the last input's index fastest).
        let slots = froms
            .iter()
            .try_fold(1usize, |n, list| n.checked_mul(list.len()))
            .unwrap_or(usize::MAX);
        ix(slots)?;
        let slot_stride: Vec<usize> = (0..froms.len())
            .map(|j| froms[j + 1..].iter().map(Vec::len).product())
            .collect();
        b.maps.start.clear();
        b.maps.list.clear();
        for slot in 0..slots {
            b.from_pick.clear();
            b.from_pick
                .extend((0..froms.len()).map(|j| slot / slot_stride[j] % froms[j].len()));
            b.maps.start.push(ix(b.maps.list.len())?);
            let formats_at = ix(self.producer_formats.len())?;
            self.producer_formats
                .extend(b.from_pick.iter().zip(&froms).map(|(i, list)| list[*i]));
            self.push_arrivals(
                &moved,
                (&b.from_pick, formats_at),
                &mut b.best,
                &mut b.maps.list,
            )?;
        }
        b.maps.start.push(ix(b.maps.list.len())?);

        // Each merged table grouped by its retained formats; a row's
        // share of the slot index covers the inputs that table holds.
        if b.sides.len() < m {
            b.sides.resize_with(m, Side::default);
        }
        for (t, table) in merged.iter().enumerate() {
            // (position in this table's keys, input index).
            let held: Vec<(usize, usize)> = (0..input_at.len())
                .filter(|j| input_at[*j].0 == t)
                .map(|j| (input_at[j].1, j))
                .collect();
            b.slot_of.clear();
            for e in 0..table.len() {
                let key = table.key(e);
                let share: usize = held
                    .iter()
                    .map(|(pos, j)| {
                        b.from_ix[j * nf + usize::from(key[*pos])] as usize * slot_stride[*j]
                    })
                    .sum();
                // Below `slots`, which fits in u32.
                b.slot_of.push(share as u32);
            }
            let (slot_of, side) = (&b.slot_of, &mut b.sides[t]);
            side.fill(
                table,
                &retained[t],
                (slot_of, slots),
                bits_for(nf),
                &mut b.groups,
            );
        }

        enumerate(
            &b.sides[..m],
            &b.maps,
            moved.outs.len(),
            &mut b.odometer,
            &mut b.cands,
        );
        let cands = &b.cands;
        let states = cands.cost.len();
        if states == 0 {
            return Err(OptError::NoFeasiblePlan(v));
        }
        ix(states)?;
        // Beam: keep only the cheapest joint states when over the cap,
        // ties to the earliest generated, survivors back in generation
        // order.
        cheapest(&cands.cost, self.beam, &mut b.selection);
        let survivors = &b.selection.survivors;
        let truncated = states - survivors.len();
        if truncated > 0 {
            octx.obs
                .counter(Subsystem::Optimizer, "beam_truncated", truncated as f64);
        }

        let mut verts: Vec<NodeId> = Vec::new();
        for (t, table) in merged.iter().enumerate() {
            verts.extend(retained[t].iter().map(|p| table.verts[*p]));
        }
        verts.push(v);
        let mut table = ClassTable {
            keys: Vec::with_capacity(survivors.len() * verts.len()),
            costs: Vec::with_capacity(survivors.len()),
            traces: Vec::with_capacity(survivors.len()),
            verts,
        };
        // The arena positions the loop below narrows stay in range.
        ix(self.trace_parents.len() + survivors.len() * m)?;
        ix(self.traces.len() + survivors.len())?;
        for &c in survivors {
            let c = c as usize;
            let parents = &cands.parents[c * m..(c + 1) * m];
            for (t, e) in parents.iter().enumerate() {
                let key = merged[t].key(*e as usize);
                table.keys.extend(retained[t].iter().map(|p| key[*p]));
            }
            table.keys.push(self.choices[cands.choice[c] as usize].out);
            table.costs.push(cands.cost[c]);
            let parents_at = self.trace_parents.len() as u32;
            self.trace_parents.extend(
                parents
                    .iter()
                    .zip(&merged)
                    .map(|(e, t)| t.traces[*e as usize]),
            );
            self.traces.push(TraceStep {
                choice: cands.choice[c],
                parents_at,
            });
            table.traces.push((self.traces.len() - 1) as u32);
        }

        // The post-step class size is the `c` of the §6.3 `|P|^c` bound;
        // together with the table size it explains where the optimizer's
        // time goes (cf. `trace::frontier_classes`).
        octx.obs.record(Subsystem::Optimizer, "joint_table", || {
            vec![
                ("vertex", v.index().into()),
                ("class_size", table.verts.len().into()),
                ("entries", table.len().into()),
                ("truncated", truncated.into()),
            ]
        });
        let new_idx = self.front.len();
        for u in &table.verts {
            self.table_of[u.index()] = new_idx;
        }
        self.front.push(Some(table));
        self.options[v.index()] = moved.options;
        Ok(truncated)
    }

    /// For the producer-format vector whose input `j` arrives in its
    /// `from[j]`-th format (stored at `formats_at`), appends the
    /// cheapest `(transformations + implementation)` choice per
    /// achievable output format to `arrivals`, in `moved.outs` order,
    /// and its reconstruction data to the run's choice arena. `best` is
    /// scratch.
    fn push_arrivals(
        &mut self,
        moved: &Moved,
        (from, formats_at): (&[usize], u32),
        best: &mut Vec<(f64, usize)>,
        arrivals: &mut Vec<Arrival>,
    ) -> Result<(), OptError> {
        let arity = from.len();
        // Per output format: the cheapest option so far, first wins.
        best.clear();
        best.resize(moved.outs.len(), (f64::INFINITY, usize::MAX));
        'options: for (oi, opt) in moved.options.iter().enumerate() {
            let mut tcost = 0.0;
            let pin_of = &moved.pin_of[oi * arity..(oi + 1) * arity];
            for (j, p) in pin_of.iter().enumerate() {
                match moved.edges[j][from[j] * moved.pins[j] + p] {
                    Some(c) => tcost += c,
                    None => continue 'options,
                }
            }
            let total = opt.impl_cost + tcost;
            let slot = &mut best[moved.out_of[oi]];
            if total < slot.0 {
                *slot = (total, oi);
            }
        }
        for (out, &(cost, oi)) in best.iter().enumerate() {
            if oi == usize::MAX {
                continue;
            }
            arrivals.push(Arrival {
                cost,
                // Below the run's format count, which fits in u16.
                out: out as u32,
                choice: ix(self.choices.len())?,
            });
            self.choices.push(Choice {
                vertex: moved.vertex,
                // Options number fewer than arrival-map entries.
                option: oi as u32,
                out: moved.outs[out],
                formats_at,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small deterministic stream for the tests below.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn the_selection_key_orders_like_total_cmp() {
        let values = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.5,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    /// The beam as a sort: every index ranked by cost, then index.
    fn cheapest_by_sort(costs: &[f64], beam: usize) -> Vec<u32> {
        let mut ranked: Vec<u32> = (0..costs.len() as u32).collect();
        ranked.sort_by(|a, b| {
            costs[*a as usize]
                .total_cmp(&costs[*b as usize])
                .then(a.cmp(b))
        });
        ranked.truncate(beam);
        ranked.sort_unstable();
        ranked
    }

    #[test]
    fn selection_keeps_the_sorted_beam_ties_to_the_earliest() {
        let mut state = 0x9e37_79b9_7f4a_7c15;
        let mut sel = Selection::default();
        for round in 0..200 {
            let n = 1 + (xorshift(&mut state) % 300) as usize;
            // Few distinct values, so ties straddle the beam boundary.
            let distinct = 1 + round % 7;
            let costs: Vec<f64> = (0..n)
                .map(|_| (xorshift(&mut state) % distinct) as f64 * 0.5 - 1.0)
                .collect();
            for beam in [1, 2, 5, n / 2 + 1, n, n + 3] {
                cheapest(&costs, beam, &mut sel);
                assert_eq!(
                    sel.survivors,
                    cheapest_by_sort(&costs, beam),
                    "{costs:?} beam {beam}"
                );
            }
        }
    }

    #[test]
    fn grouping_numbers_projections_by_first_appearance_across_words() {
        let mut state = 0x2545_f491_4f6c_dd1d;
        let mut scratch = GroupScratch::default();
        for width in [1, 3, 4, 5, 9, 17] {
            let c = width + 2;
            let n = 500;
            let keys: Vec<Fid> = (0..n * c)
                .map(|_| (xorshift(&mut state) % 3) as Fid * 20_000)
                .collect();
            let table = ClassTable {
                verts: (0..c as u32).map(NodeId).collect(),
                keys,
                costs: vec![0.0; n],
                traces: vec![0; n],
            };
            let positions: Vec<usize> = (1..=width).rev().collect();
            // 16 bits per format: four formats fill a word, so wider
            // projections go through the prefix numbering.
            let groups = group_by(&table, &positions, 16, &mut scratch);
            let mut seen: Vec<Vec<Fid>> = Vec::new();
            let expected: Vec<u32> = (0..n)
                .map(|e| {
                    let proj: Vec<Fid> = positions.iter().map(|p| table.key(e)[*p]).collect();
                    position_or_push(&mut seen, proj) as u32
                })
                .collect();
            assert_eq!(scratch.group_of, expected, "width {width}");
            assert_eq!(groups, seen.len());
        }
    }
}
