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
//!   joint entries sharing it.
//! * **Interned, flat tables** — every format seen in a run gets a
//!   small id; a joint table is three parallel vectors (keys with a
//!   stride of the class size, costs, back-traces) in a fixed entry
//!   order. There is no per-entry heap object and nothing on the
//!   per-candidate path is hashed.
//! * **Project, then enumerate** — a merged entry influences the step
//!   only through the positions that stay on the frontier or that the
//!   moved vertex reads. Each merged table is therefore grouped by its
//!   retained formats, keeping the cheapest entry per distinct vector
//!   of read formats within a group (one hash per *entry*), and the
//!   candidates of a group fold into one dense row indexed by output
//!   format (one compare per *candidate*). A candidate costs
//!   `(Σ picked costs, in merged-table order) + arrival cost`; IEEE
//!   addition is monotone, so taking the minimum over
//!   projection-equivalent entries before the additions yields the
//!   same bits as taking it after.
//! * **Beam cap by selection** — joint tables grow as `|P|^c` in the
//!   class size `c` (§6.3). [`frontier_dp`] is exact;
//!   [`frontier_dp_beam`] keeps only the `beam` cheapest joint states
//!   per table (a selection, not a sort, then generation order is
//!   restored), which is exact whenever tables stay under the cap and a
//!   principled approximation beyond it (deep back-propagation graphs
//!   like the paper's 57-vertex FFNN legitimately exceed exact
//!   tractability — the test-suite checks beam plans against brute
//!   force on small DAGs).
//! * **Traces for survivors only** — a candidate carries its cost, the
//!   entry it picked from each merged table and an index into a per-run
//!   arena of `(implementation, transformations, output format)`
//!   choices filled once per arrival-map slot; back-traces are written
//!   after the beam, at most `beam` per vertex.
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
use matopt_core::{
    Annotation, ComputeGraph, ImplId, MatrixType, NodeId, NodeKind, PhysFormat, Transform,
    VertexChoice,
};
use matopt_obs::Subsystem;
use std::collections::HashMap;

/// A physical format interned for one run; joint-table keys are vectors
/// of these.
type Fid = u16;

/// Checked narrowing for the `u32` indices the tables and arenas store.
fn ix(n: usize) -> u32 {
    u32::try_from(n).expect("frontier DP index exceeds u32")
}

/// The run's `PhysFormat → Fid` dictionary.
#[derive(Default)]
struct Interner {
    ids: HashMap<PhysFormat, Fid>,
    formats: Vec<PhysFormat>,
}

impl Interner {
    fn intern(&mut self, format: PhysFormat) -> Fid {
        *self.ids.entry(format).or_insert_with(|| {
            let id = Fid::try_from(self.formats.len()).expect("distinct formats exceed u16");
            self.formats.push(format);
            id
        })
    }

    fn format(&self, id: Fid) -> PhysFormat {
        self.formats[usize::from(id)]
    }
}

/// One way to produce an output format of a vertex from a fixed vector
/// of producer formats; its transformations are the vertex's arity
/// consecutive slots of the run's transform arena.
struct Choice {
    vertex: NodeId,
    impl_id: ImplId,
    out: Fid,
    transforms_at: u32,
}

/// How an entry was produced, for plan reconstruction.
enum TraceStep {
    /// A source vertex: nothing to annotate.
    Source,
    /// A compute vertex was moved across the frontier.
    Compute {
        choice: u32,
        /// Where, in the run's parent arena, the traces of the chosen
        /// entry of each merged table start, and how many there are.
        parents_at: u32,
        parents_len: u32,
    },
}

/// A joint cost table `F(V, p)` for one equivalence class along the
/// frontier: entry `e` is `keys[e * c..(e + 1) * c]` (one format per
/// class member, `c = verts.len()`), `costs[e]`, `traces[e]`. Keys are
/// distinct.
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

/// Groups `table`'s entries by the projection of their keys onto
/// `positions`: a dense group id per entry, ids in first-appearance
/// order, and the number of groups.
fn group_by(table: &ClassTable, positions: &[usize]) -> (Vec<u32>, usize) {
    let n = table.len();
    let width = positions.len();
    if width == table.verts.len() {
        // Keys are distinct: every entry is a group of its own.
        return ((0..ix(n)).collect(), n);
    }
    let mut flat: Vec<Fid> = Vec::with_capacity(n * width);
    for e in 0..n {
        let key = table.key(e);
        flat.extend(positions.iter().map(|p| key[*p]));
    }
    let mut ids: HashMap<&[Fid], u32> = HashMap::with_capacity(n);
    let group_of = (0..n)
        .map(|e| {
            let next = ix(ids.len());
            *ids.entry(&flat[e * width..(e + 1) * width]).or_insert(next)
        })
        .collect();
    (group_of, ids.len())
}

/// One merged table as the step sees it: rows grouped by the formats of
/// the positions that stay on the frontier, and within a group the
/// cheapest entry per distinct vector of formats the moved vertex
/// reads. Group `g` is rows `group_start[g]..group_start[g + 1]`.
struct Side {
    group_start: Vec<u32>,
    entry: Vec<u32>,
    cost: Vec<f64>,
    /// The row's share of the arrival-slot index: which formats the
    /// moved vertex reads from it.
    slot: Vec<u32>,
}

impl Side {
    /// `slot_of[e]` is entry `e`'s share of the arrival-slot index, a
    /// number below `slots`.
    fn new(table: &ClassTable, retained: &[usize], slot_of: &[u32], slots: usize) -> Side {
        let (group_of, groups) = group_by(table, retained);

        // Stable counting sort of the entries by group.
        let mut start = vec![0usize; groups + 1];
        for g in &group_of {
            start[*g as usize + 1] += 1;
        }
        for g in 0..groups {
            start[g + 1] += start[g];
        }
        let mut by_group = vec![0u32; table.len()];
        let mut next = start.clone();
        for (e, g) in group_of.iter().enumerate() {
            by_group[next[*g as usize]] = ix(e);
            next[*g as usize] += 1;
        }

        let mut side = Side {
            group_start: Vec::with_capacity(groups + 1),
            entry: Vec::with_capacity(table.len()),
            cost: Vec::with_capacity(table.len()),
            slot: Vec::with_capacity(table.len()),
        };
        // The row holding each slot share, valid when it lies in the
        // group being filled. Entries that agree on their retained and
        // read formats differ only in positions nothing looks at any
        // more: the first strictly cheapest one stands for all of them.
        let mut row_of_slot = vec![usize::MAX; slots];
        for g in 0..groups {
            let group_first = side.entry.len();
            side.group_start.push(ix(group_first));
            for &e in &by_group[start[g]..start[g + 1]] {
                let slot = slot_of[e as usize];
                let cost = table.costs[e as usize];
                let row = row_of_slot[slot as usize];
                if (group_first..side.entry.len()).contains(&row) {
                    if cost < side.cost[row] {
                        side.cost[row] = cost;
                        side.entry[row] = e;
                    }
                } else {
                    row_of_slot[slot as usize] = side.entry.len();
                    side.entry.push(e);
                    side.cost.push(cost);
                    side.slot.push(slot);
                }
            }
        }
        side.group_start.push(ix(side.entry.len()));
        side
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

/// Equation (2): the cross product of one row per merged table, with the
/// (implementation × format) inner minimization factored into the
/// arrival maps. All candidates of one joint group share their retained
/// formats, so they compete in a dense row with one cell per output
/// format (`outs` of them); a finished row's cells are the group's
/// distinct joint states, appended in output-format order.
fn enumerate(sides: &[Side], maps: &ArrivalMaps, outs: usize) -> Candidates {
    let m = sides.len();
    let mut cands = Candidates::default();
    let mut row_cost = vec![f64::INFINITY; outs];
    let mut row_choice = vec![0u32; outs];
    let mut row_parents = vec![0u32; outs * m];
    // Mixed-radix counters, the last table's fastest: the joint group,
    // and the row picked from each table within it.
    let mut group = vec![0usize; m];
    let mut pick = vec![0usize; m];
    'groups: loop {
        for t in 0..m {
            pick[t] = sides[t].group(group[t]).start;
        }
        'rows: loop {
            let mut base = 0.0;
            let mut slot = 0;
            for t in 0..m {
                base += sides[t].cost[pick[t]];
                slot += sides[t].slot[pick[t]] as usize;
            }
            for a in maps.slot(slot) {
                let cost = base + a.cost;
                let out = a.out as usize;
                if cost < row_cost[out] {
                    row_cost[out] = cost;
                    row_choice[out] = a.choice;
                    for t in 0..m {
                        row_parents[out * m + t] = sides[t].entry[pick[t]];
                    }
                }
            }
            for t in (0..m).rev() {
                pick[t] += 1;
                if pick[t] < sides[t].group(group[t]).end {
                    continue 'rows;
                }
                pick[t] = sides[t].group(group[t]).start;
            }
            break;
        }
        for out in 0..outs {
            if row_cost[out] < f64::INFINITY {
                cands.cost.push(row_cost[out]);
                cands.choice.push(row_choice[out]);
                cands
                    .parents
                    .extend_from_slice(&row_parents[out * m..(out + 1) * m]);
                row_cost[out] = f64::INFINITY;
            }
        }
        for t in (0..m).rev() {
            group[t] += 1;
            if group[t] < sides[t].groups() {
                continue 'groups;
            }
            group[t] = 0;
        }
        return cands;
    }
}

/// The beam: the indices of the `beam` cheapest of `costs` (all of them
/// when there are no more than that), ties to the lower index, in
/// ascending index order.
fn cheapest(costs: &[f64], beam: usize) -> Vec<u32> {
    let all = 0..ix(costs.len());
    if costs.len() <= beam {
        return all.collect();
    }
    let mut ranked: Vec<(f64, u32)> = costs.iter().copied().zip(all).collect();
    ranked.select_nth_unstable_by(beam - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut kept: Vec<u32> = ranked[..beam].iter().map(|c| c.1).collect();
    kept.sort_unstable();
    kept
}

/// Memoized per-edge transformation lookups keyed by
/// `(input index, from, to)`.
type TransformCache = HashMap<(usize, Fid, PhysFormat), Option<(Transform, f64)>>;

/// What a step knows about the vertex it moves before it looks at any
/// table entry.
struct Moved {
    vertex: NodeId,
    in_types: Vec<MatrixType>,
    options: Vec<VertexOption>,
    /// The distinct output formats of `options`, in option order.
    outs: Vec<Fid>,
    /// Per option, the index of its output format in `outs`.
    out_of: Vec<usize>,
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

/// The state of one run: the frontier and the arenas back-traces point
/// into.
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
    choices: Vec<Choice>,
    transforms: Vec<Transform>,
    traces: Vec<TraceStep>,
    trace_parents: Vec<u32>,
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
        choices: Vec::new(),
        transforms: Vec::new(),
        traces: Vec::new(),
        trace_parents: Vec::new(),
    };
    let mut beam_truncated = 0usize;

    for (id, node) in graph.iter() {
        match &node.kind {
            NodeKind::Source { format } => {
                // Lines 2–7: sources are already optimized.
                search.visited[id.index()] = true;
                search.traces.push(TraceStep::Source);
                search.table_of[id.index()] = search.front.len();
                let table = ClassTable {
                    verts: vec![id],
                    keys: vec![search.formats.intern(*format)],
                    costs: vec![0.0],
                    traces: vec![ix(search.traces.len() - 1)],
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
            let TraceStep::Compute {
                choice,
                parents_at,
                parents_len,
            } = search.traces[t as usize]
            else {
                continue;
            };
            let choice = &search.choices[choice as usize];
            let at = choice.transforms_at as usize;
            let arity = graph.node(choice.vertex).inputs.len();
            annotation.set(
                choice.vertex,
                VertexChoice {
                    impl_id: choice.impl_id,
                    input_transforms: search.transforms[at..at + arity].to_vec(),
                    output_format: search.formats.format(choice.out),
                },
            );
            let parents = parents_at as usize..(parents_at + parents_len) as usize;
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
        let mut froms: Vec<Vec<Fid>> = Vec::with_capacity(input_at.len());
        let mut from_ix: Vec<Vec<u32>> = Vec::with_capacity(input_at.len());
        for (t, pos) in &input_at {
            let mut list: Vec<Fid> = Vec::new();
            let mut index = vec![u32::MAX; self.formats.formats.len()];
            for e in 0..merged[*t].len() {
                let f = merged[*t].key(e)[*pos];
                if index[usize::from(f)] == u32::MAX {
                    index[usize::from(f)] = ix(list.len());
                    list.push(f);
                }
            }
            froms.push(list);
            from_ix.push(index);
        }

        // Enumerate the vertex's implementation options, offering every
        // format its producers can actually emit.
        let extra: Vec<Vec<PhysFormat>> = froms
            .iter()
            .map(|list| list.iter().map(|f| self.formats.format(*f)).collect())
            .collect();
        let options = vertex_options(graph, v, octx.catalog, octx.plan, octx.model, &extra);
        if options.is_empty() {
            return Err(OptError::NoFeasiblePlan(v));
        }
        let mut outs: Vec<Fid> = Vec::new();
        let out_of: Vec<usize> = options
            .iter()
            .map(|o| {
                let f = self.formats.intern(o.out_format);
                outs.iter().position(|x| *x == f).unwrap_or_else(|| {
                    outs.push(f);
                    outs.len() - 1
                })
            })
            .collect();
        let moved = Moved {
            vertex: v,
            in_types: node.inputs.iter().map(|u| graph.node(*u).mtype).collect(),
            options,
            outs,
            out_of,
        };

        // One arrival map per vector of producer formats: the vector
        // `(froms[0][i_0], froms[1][i_1], ...)` is slot
        // `Σ i_j * slot_stride[j]` (the last input's index fastest).
        let slots = froms
            .iter()
            .try_fold(1usize, |n, list| n.checked_mul(list.len()))
            .expect("arrival slots exceed usize");
        let slot_stride: Vec<usize> = (0..froms.len())
            .map(|j| froms[j + 1..].iter().map(Vec::len).product())
            .collect();
        let mut tcache: TransformCache = HashMap::new();
        let mut maps = ArrivalMaps {
            start: Vec::with_capacity(slots + 1),
            list: Vec::new(),
        };
        for slot in 0..slots {
            let pf: Vec<Fid> = (0..froms.len())
                .map(|j| froms[j][slot / slot_stride[j] % froms[j].len()])
                .collect();
            maps.start.push(ix(maps.list.len()));
            self.push_arrivals(&moved, &pf, &mut tcache, &mut maps.list);
        }
        maps.start.push(ix(maps.list.len()));

        // Each merged table grouped by its retained formats; a row's
        // share of the slot index covers the inputs that table holds.
        let sides: Vec<Side> = (0..m)
            .map(|t| {
                // (position in this table's keys, input index).
                let held: Vec<(usize, usize)> = (0..input_at.len())
                    .filter(|j| input_at[*j].0 == t)
                    .map(|j| (input_at[j].1, j))
                    .collect();
                let slot_of: Vec<u32> = (0..merged[t].len())
                    .map(|e| {
                        let key = merged[t].key(e);
                        let share = held.iter().map(|(pos, j)| {
                            from_ix[*j][usize::from(key[*pos])] as usize * slot_stride[*j]
                        });
                        ix(share.sum())
                    })
                    .collect();
                Side::new(&merged[t], &retained[t], &slot_of, slots)
            })
            .collect();

        let cands = enumerate(&sides, &maps, moved.outs.len());
        let states = cands.cost.len();
        if states == 0 {
            return Err(OptError::NoFeasiblePlan(v));
        }
        // Beam: keep only the cheapest joint states when over the cap,
        // ties to the earliest generated, survivors back in generation
        // order.
        let survivors = cheapest(&cands.cost, self.beam);
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
        for c in survivors {
            let c = c as usize;
            let parents = &cands.parents[c * m..(c + 1) * m];
            for (t, e) in parents.iter().enumerate() {
                let key = merged[t].key(*e as usize);
                table.keys.extend(retained[t].iter().map(|p| key[*p]));
            }
            table.keys.push(self.choices[cands.choice[c] as usize].out);
            table.costs.push(cands.cost[c]);
            let parents_at = ix(self.trace_parents.len());
            self.trace_parents.extend(
                parents
                    .iter()
                    .zip(&merged)
                    .map(|(e, t)| t.traces[*e as usize]),
            );
            self.traces.push(TraceStep::Compute {
                choice: cands.choice[c],
                parents_at,
                parents_len: ix(m),
            });
            table.traces.push(ix(self.traces.len() - 1));
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
        Ok(truncated)
    }

    /// For the producer-format vector `pf`, appends the cheapest
    /// `(transformations + implementation)` choice per achievable
    /// output format to `arrivals`, in `moved.outs` order, and its
    /// reconstruction data to the run's choice and transform arenas.
    fn push_arrivals(
        &mut self,
        moved: &Moved,
        pf: &[Fid],
        tcache: &mut TransformCache,
        arrivals: &mut Vec<Arrival>,
    ) {
        let octx = self.octx;
        let formats = &self.formats;
        let mut edge = |j: usize, to: PhysFormat| {
            *tcache.entry((j, pf[j], to)).or_insert_with(|| {
                let from = formats.format(pf[j]);
                transform_cost(&moved.in_types[j], from, to, octx.plan, octx.model)
            })
        };
        // Per output format: the cheapest option so far, first wins.
        let mut best: Vec<(f64, usize)> = vec![(f64::INFINITY, usize::MAX); moved.outs.len()];
        'options: for (oi, opt) in moved.options.iter().enumerate() {
            let mut tcost = 0.0;
            for (j, to) in opt.pin.iter().enumerate() {
                match edge(j, *to) {
                    Some((_, c)) => tcost += c,
                    None => continue 'options,
                }
            }
            let total = opt.impl_cost + tcost;
            let slot = &mut best[moved.out_of[oi]];
            if total < slot.0 {
                *slot = (total, oi);
            }
        }
        for (out, (cost, oi)) in best.into_iter().enumerate() {
            let Some(opt) = moved.options.get(oi) else {
                continue;
            };
            arrivals.push(Arrival {
                cost,
                out: ix(out),
                choice: ix(self.choices.len()),
            });
            self.choices.push(Choice {
                vertex: moved.vertex,
                impl_id: opt.impl_id,
                out: moved.outs[out],
                transforms_at: ix(self.transforms.len()),
            });
            for (j, to) in opt.pin.iter().enumerate() {
                let (t, _) = edge(j, *to).expect("the winning option's edges exist");
                self.transforms.push(t);
            }
        }
    }
}
