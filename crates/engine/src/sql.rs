//! Rendering annotated plans as SQL — the concrete artifact the paper's
//! prototype would hand to SimSQL.
//!
//! §1–2 of the paper show matrix computations written as `CREATE TABLE`
//! / `CREATE VIEW` statements over relations with `MATRIX[..][..]`
//! attributes, with tiled multiplies as join + `SUM` + `GROUP BY`,
//! gathers as the `ROWMATRIX`/`COLMATRIX` aggregates, and chunkings via
//! `get_tile`. [`render_sql`] emits exactly that dialect for any
//! type-correct annotation, so every optimized plan can be inspected as
//! the SQL a relational ML engine would execute.

use crate::relplan::{key_cols, RelOp, RelPlan};
use matopt_core::{
    Annotation, ComputeGraph, MatrixType, NodeId, NodeKind, Op, OpKind, PhysFormat, PlanContext,
    PlanError, TransformKind,
};

/// Renders the whole annotated plan as a SQL script: one `CREATE TABLE`
/// per source, one `CREATE VIEW` per transformation (two for a gather)
/// and one per compute vertex, its relational plan (`relplan.rs`).
///
/// # Errors
/// Returns a [`PlanError`] when the annotation is incomplete or not
/// type-correct (validated first).
pub fn render_sql(
    graph: &ComputeGraph,
    annotation: &Annotation,
    ctx: &PlanContext<'_>,
) -> Result<String, PlanError> {
    matopt_core::validate(
        graph,
        annotation,
        &matopt_core::PlanContext {
            registry: ctx.registry,
            transforms: ctx.transforms,
            cluster: ctx.cluster.with_unlimited_resources(),
        },
    )?;
    let mut out = String::new();
    for (id, node) in graph.iter() {
        match &node.kind {
            NodeKind::Source { format } => {
                out.push_str(&create_table(&rel_name(graph, id), &node.mtype, *format));
                out.push('\n');
            }
            NodeKind::Compute { op } => {
                let choice = annotation.choice(id).expect("validated");
                // Edge transformations first: each non-identity move is
                // its own view the operator reads from.
                let mut input_rels = Vec::new();
                for (j, (input, t)) in node
                    .inputs
                    .iter()
                    .zip(choice.input_transforms.iter())
                    .enumerate()
                {
                    let src = rel_name(graph, *input);
                    if t.kind == TransformKind::Identity {
                        input_rels.push(src);
                    } else {
                        let moved = format!("{}_{}in{}", rel_name(graph, id), "", j);
                        out.push_str(&transform_view(
                            &moved,
                            &src,
                            &graph.node(*input).mtype,
                            t.kind,
                            t.to,
                        ));
                        out.push('\n');
                        input_rels.push(moved);
                    }
                }
                let formats: Vec<PhysFormat> =
                    choice.input_transforms.iter().map(|t| t.to).collect();
                let plan = RelPlan::new(
                    ctx.registry.get(choice.impl_id).strategy,
                    *op,
                    &formats,
                    choice.output_format,
                );
                out.push_str(&compute_view(&rel_name(graph, id), &plan, &input_rels));
                out.push('\n');
            }
        }
    }
    Ok(out)
}

fn rel_name(graph: &ComputeGraph, id: NodeId) -> String {
    graph
        .node(id)
        .name
        .clone()
        .unwrap_or_else(|| format!("v{}", id.0))
}

fn mat_attr(m: &MatrixType, format: PhysFormat) -> String {
    match format {
        PhysFormat::SingleTuple => format!("mat MATRIX[{}][{}]", m.rows, m.cols),
        PhysFormat::RowStrip { height } => format!("mat MATRIX[{}][{}]", height, m.cols),
        PhysFormat::ColStrip { width } => format!("mat MATRIX[{}][{}]", m.rows, width),
        PhysFormat::Tile { side } => format!("mat MATRIX[{side}][{side}]"),
        PhysFormat::Coo => "value DOUBLE".to_string(),
        PhysFormat::CsrSingle => format!("mat SPARSE_MATRIX[{}][{}]", m.rows, m.cols),
        PhysFormat::CsrTile { side } => format!("mat SPARSE_MATRIX[{side}][{side}]"),
    }
}

fn schema(m: &MatrixType, format: PhysFormat) -> String {
    let mut cols: Vec<String> = key_cols(format)
        .iter()
        .map(|k| format!("{k} INTEGER"))
        .collect();
    cols.push(mat_attr(m, format));
    cols.join(", ")
}

fn create_table(name: &str, m: &MatrixType, format: PhysFormat) -> String {
    format!("CREATE TABLE {name} ({});\n", schema(m, format))
}

/// A view realizing one physical matrix transformation.
fn transform_view(
    name: &str,
    src: &str,
    m: &MatrixType,
    kind: TransformKind,
    to: PhysFormat,
) -> String {
    use TransformKind as K;
    match kind {
        K::Identity => format!("-- {name}: identity over {src}\n"),
        K::GatherToSingle => format!(
            "-- gather {src} into one tuple (two-phase aggregation, cf. paper section 2.1)\n\
             CREATE VIEW {name}_strips (tileRow, mat) AS\n  \
             SELECT x.tileRow, ROWMATRIX(label_matrix(x.mat, x.tileCol))\n  \
             FROM {src} AS x GROUP BY x.tileRow;\n\
             CREATE VIEW {name} (mat) AS\n  \
             SELECT COLMATRIX(label_matrix(x.mat, x.tileRow))\n  FROM {name}_strips AS x;\n"
        ),
        K::SingleToTile
        | K::SingleToRowStrip
        | K::SingleToColStrip
        | K::Retile
        | K::TileToRowStrip
        | K::TileToColStrip
        | K::RowStripToTile
        | K::ColStripToTile
        | K::RowStripRechunk
        | K::ColStripRechunk
        | K::RowStripToColStrip
        | K::ColStripToRowStrip => {
            let (tr, tc) = chunk_dims(m, to);
            format!(
                "-- rechunk {src} ({kind:?})\n\
                 CREATE VIEW {name} ({keys}mat) AS\n  \
                 SELECT {bkeys}get_tile({src_alias}.mat, bi.rowID, bi.colID, {tr}, {tc})\n  \
                 FROM {src} AS {src_alias}, tileIndex AS bi\n  \
                 WHERE covers({src_alias}, bi.rowID, bi.colID);\n",
                keys = if key_cols(to).is_empty() {
                    String::new()
                } else {
                    format!("{}, ", key_cols(to).join(", "))
                },
                bkeys = if key_cols(to).is_empty() {
                    String::new()
                } else {
                    key_cols(to)
                        .iter()
                        .map(|k| format!("bi.{}", if *k == "tileRow" { "rowID" } else { "colID" }))
                        .collect::<Vec<_>>()
                        .join(", ")
                        + ", "
                },
                src_alias = "s",
            )
        }
        K::DenseToCoo => format!(
            "-- explode {src} into (rowIndex, colIndex, value) triples\n\
             CREATE VIEW {name} (rowIndex, colIndex, value) AS\n  \
             SELECT t.rowIndex, t.colIndex, t.value FROM {src} AS s, LATERAL to_triples(s.mat) AS t;\n"
        ),
        K::CooToTile => format!(
            "-- assemble triples of {src} into dense tiles\n\
             CREATE VIEW {name} (tileRow, tileCol, mat) AS\n  \
             SELECT s.rowIndex / {tr}, s.colIndex / {tc}, TILEMATRIX(s.rowIndex, s.colIndex, s.value)\n  \
             FROM {src} AS s GROUP BY s.rowIndex / {tr}, s.colIndex / {tc};\n",
            tr = chunk_dims(m, to).0,
            tc = chunk_dims(m, to).1,
        ),
        K::DenseToCsrSingle | K::TileToCsrTile => format!(
            "-- compress {src} to CSR\n\
             CREATE VIEW {name} ({cols}) AS SELECT {keys}to_csr(s.mat) FROM {src} AS s;\n",
            cols = schema(m, to)
                .replace(" INTEGER", "")
                .replace(mat_attr(m, to).as_str(), "mat"),
            keys = if key_cols(to).is_empty() {
                String::new()
            } else {
                key_cols(to)
                    .iter()
                    .map(|k| format!("s.{k}"))
                    .collect::<Vec<_>>()
                    .join(", ")
                    + ", "
            },
        ),
        K::CsrSingleToSingle | K::CsrTileToTile => format!(
            "-- densify {src}\n\
             CREATE VIEW {name} AS SELECT {keys}to_dense(s.mat) AS mat FROM {src} AS s;\n",
            keys = if key_cols(to).is_empty() {
                String::new()
            } else {
                key_cols(to)
                    .iter()
                    .map(|k| format!("s.{k}"))
                    .collect::<Vec<_>>()
                    .join(", ")
                    + ", "
            },
        ),
    }
}

fn chunk_dims(m: &MatrixType, format: PhysFormat) -> (u64, u64) {
    match format {
        PhysFormat::SingleTuple | PhysFormat::CsrSingle | PhysFormat::Coo => (m.rows, m.cols),
        PhysFormat::RowStrip { height } => (height, m.cols),
        PhysFormat::ColStrip { width } => (m.rows, width),
        PhysFormat::Tile { side } | PhysFormat::CsrTile { side } => (side, side),
    }
}

/// The scalar/matrix function name of a unary or binary op in the SQL
/// dialect.
fn op_fn(op: &Op) -> String {
    match op.kind() {
        OpKind::MatMul => "matrix_multiply".into(),
        OpKind::Add | OpKind::BroadcastAddRow => "matrix_add".into(),
        OpKind::Sub => "matrix_sub".into(),
        OpKind::Hadamard => "matrix_hadamard".into(),
        OpKind::ScalarMul => match op {
            Op::ScalarMul(a) => format!("matrix_scale[{a}]"),
            _ => unreachable!(),
        },
        OpKind::Transpose => "matrix_transpose".into(),
        OpKind::Relu => "relu".into(),
        OpKind::ReluGrad => "relu_grad".into(),
        OpKind::Softmax => "softmax".into(),
        OpKind::Sigmoid => "sigmoid".into(),
        OpKind::Exp => "matrix_exp".into(),
        OpKind::Neg => "matrix_neg".into(),
        OpKind::RowSums => "row_sums".into(),
        OpKind::ColSums => "col_sums".into(),
        OpKind::Inverse => "matrix_inverse".into(),
        OpKind::SumAll => "sum_all".into(),
        OpKind::FrobeniusNorm => "frobenius_norm".into(),
    }
}

/// The view realizing one compute vertex: its [`RelPlan`] in the SQL
/// dialect, one `CREATE VIEW` whatever the operator.
fn compute_view(name: &str, plan: &RelPlan, inputs: &[String]) -> String {
    let f = op_fn(&plan.op);
    let lhs = inputs.first().map_or("", String::as_str);
    let rhs = inputs.get(1).map_or("", String::as_str);
    let (fx, fm) = (plan.inputs[0], plan.inputs.get(1).copied());
    // A COO operand is its value column, every other one its matrix.
    let val = |alias: &str, fmt: PhysFormat| match fmt {
        PhysFormat::Coo => format!("{alias}.value"),
        _ => format!("{alias}.mat"),
    };
    let out_col = if plan.out == PhysFormat::Coo {
        "value"
    } else {
        "mat"
    };
    let (x, m) = (val("x", fx), fm.map_or_else(String::new, |f| val("m", f)));
    // The expression each output key column is read from.
    let keys: Vec<String> = key_cols(plan.out)
        .iter()
        .map(|k| match plan.step {
            RelOp::Map if plan.swaps_keys() => format!("x.{}", swapped(k)),
            RelOp::JoinSum { .. } if fx == PhysFormat::Coo && *k == "tileRow" => {
                format!("x.rowIndex / tile_rows({rhs})")
            }
            RelOp::JoinSum { .. } if *k == "tileCol" => "m.tileCol".to_string(),
            RelOp::CoPartition | RelOp::Broadcast { .. } | RelOp::Cross
                if !key_cols(fx).contains(k) =>
            {
                format!("m.{k}")
            }
            _ => format!("x.{k}"),
        })
        .collect();
    let select = |value: String| {
        let mut cols: Vec<String> = keys
            .iter()
            .zip(key_cols(plan.out))
            .map(|(e, k)| {
                if e.ends_with(&format!(".{k}")) {
                    e.clone()
                } else {
                    format!("{e} AS {k}")
                }
            })
            .collect();
        cols.push(format!("{value} AS {out_col}"));
        cols.join(", ")
    };
    let group_by = match plan.group_by() {
        Some(k) if !k.is_empty() => format!("\n  GROUP BY {}", keys.join(", ")),
        _ => String::new(),
    };
    let (comment, body) = match plan.step {
        RelOp::Map => (
            "chunk-local map",
            format!("SELECT {} FROM {lhs} AS x", select(format!("{f}({x})"))),
        ),
        RelOp::CoPartition => {
            let on: Vec<String> = key_cols(fx).iter().map(|k| format!("x.{k} = m.{k}")).collect();
            let (comment, from) = if fm.is_some_and(|fm| key_cols(fm) != key_cols(fx)) {
                (
                    "triples shuffled onto the other side's chunks: co-partitioned join",
                    format!("{lhs} AS x RIGHT JOIN {rhs} AS m ON in_chunk(m, x.rowIndex, x.colIndex)"),
                )
            } else if on.is_empty() {
                ("one tuple each: a local join on one site", format!("{lhs} AS x, {rhs} AS m"))
            } else {
                (
                    "co-partitioned join on the chunk key",
                    format!("{lhs} AS x, {rhs} AS m\n  WHERE {}", on.join(" AND ")),
                )
            };
            (
                comment,
                format!("SELECT {}\n  FROM {from}", select(format!("{f}({x}, {m})"))),
            )
        }
        RelOp::Broadcast { .. } | RelOp::Cross => (
            if plan.step == RelOp::Cross {
                "cross join, no aggregation needed"
            } else {
                "BROADCAST JOIN of the one-tuple side to every chunk of the other"
            },
            format!(
                "SELECT {}\n  FROM {lhs} AS x, {rhs} AS m",
                select(format!("{f}({x}, {m})"))
            ),
        ),
        RelOp::JoinSum { broadcast } => {
            let k = if fx == PhysFormat::Coo {
                format!("x.colIndex / tile_rows({rhs})")
            } else {
                "x.tileCol".to_string()
            };
            (
                if broadcast {
                    "the smaller side is BROADCAST to every site; join on the contraction index + SUM aggregation"
                } else {
                    "shuffle join on the contraction index + SUM aggregation"
                },
                format!(
                    "SELECT {}\n  FROM {lhs} AS x, {rhs} AS m\n  WHERE {k} = m.tileRow{group_by}",
                    select(format!("SUM({f}({x}, {m}))"))
                ),
            )
        }
        RelOp::GroupSum => {
            let sum = if plan.op == Op::FrobeniusNorm {
                format!("SQRT(SUM(sum_squares({x})))")
            } else {
                format!("SUM({f}({x}))")
            };
            (
                "per-chunk partials + SUM aggregation",
                format!("SELECT {} FROM {lhs} AS x{group_by}", select(sum)),
            )
        }
        RelOp::RowBands => (
            "row statistics (row max, row sum) grouped by tileRow, joined back to every tile",
            format!(
                "SELECT {}\n  FROM {lhs} AS x, (SELECT y.tileRow, ROWMAX(y.mat) AS maxes, \
                 ROWSUMEXP(y.mat) AS sums\n    FROM {lhs} AS y GROUP BY y.tileRow) AS s\n  \
                 WHERE x.tileRow = s.tileRow",
                select(format!("{f}_with({x}, s.maxes, s.sums)"))
            ),
        ),
        RelOp::PivotRounds => (
            "distributed blocked Gauss-Jordan: one relational round per pivot panel, repeated for each pivot block",
            format!(
                "SELECT {} FROM {lhs} AS x",
                select(format!("gauss_jordan_round({x}, pivot_panel(x.tileRow))"))
            ),
        ),
    };
    format!("-- {comment}\nCREATE VIEW {name} AS\n  {body};\n")
}

/// The key column a transpose reads output key `k` from.
fn swapped(k: &str) -> &str {
    match k {
        "tileRow" => "tileCol",
        "tileCol" => "tileRow",
        "rowIndex" => "colIndex",
        _ => "rowIndex",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matopt_core::{Cluster, ImplRegistry, Transform, VertexChoice};

    /// The §2.1 motivating plans must render to the paper's SQL shapes.
    #[test]
    fn motivating_example_renders_like_the_paper() {
        let reg = ImplRegistry::paper_default();
        let mut g = ComputeGraph::new();
        let a = g.add_source_named(
            MatrixType::dense(100, 10_000),
            PhysFormat::RowStrip { height: 10 },
            Some("matA"),
        );
        let b = g.add_source_named(
            MatrixType::dense(10_000, 100),
            PhysFormat::ColStrip { width: 10 },
            Some("matB"),
        );
        let c = g.add_source_named(
            MatrixType::dense(100, 1_000_000),
            PhysFormat::ColStrip { width: 10_000 },
            Some("matC"),
        );
        let ab = g.add_op_named(Op::MatMul, &[a, b], Some("matAB")).unwrap();
        let abc = g
            .add_op_named(Op::MatMul, &[ab, c], Some("matABC"))
            .unwrap();

        let mut ann = Annotation::empty(&g);
        ann.set(
            ab,
            VertexChoice {
                impl_id: reg.by_name("mm_rowstrip_colstrip_cross").unwrap().id,
                input_transforms: vec![
                    Transform::identity(PhysFormat::RowStrip { height: 10 }),
                    Transform::identity(PhysFormat::ColStrip { width: 10 }),
                ],
                output_format: PhysFormat::Tile { side: 10 },
            },
        );
        ann.set(
            abc,
            VertexChoice {
                impl_id: reg.by_name("mm_bcast_single_colstrip").unwrap().id,
                input_transforms: vec![
                    Transform {
                        kind: TransformKind::GatherToSingle,
                        to: PhysFormat::SingleTuple,
                    },
                    Transform::identity(PhysFormat::ColStrip { width: 10_000 }),
                ],
                output_format: PhysFormat::ColStrip { width: 10_000 },
            },
        );
        let ctx = PlanContext::new(&reg, Cluster::simsql_like(5));
        let sql = render_sql(&g, &ann, &ctx).unwrap();
        // Sources declare MATRIX attributes with chunk dimensions.
        assert!(sql.contains("CREATE TABLE matA (tileRow INTEGER, mat MATRIX[10][10000]);"));
        assert!(sql.contains("CREATE TABLE matC (tileCol INTEGER, mat MATRIX[100][10000]);"));
        // The cross join has no WHERE / GROUP BY.
        assert!(sql.contains("cross join, no aggregation"));
        // The gather renders the paper's ROWMATRIX/COLMATRIX pair.
        assert!(sql.contains("ROWMATRIX(label_matrix"));
        assert!(sql.contains("COLMATRIX(label_matrix"));
        // The final multiply is a broadcast join.
        assert!(sql.contains("BROADCAST JOIN"));
    }

    #[test]
    fn tile_shuffle_renders_join_plus_sum() {
        let reg = ImplRegistry::paper_default();
        let mut g = ComputeGraph::new();
        let a = g.add_source_named(
            MatrixType::dense(4000, 4000),
            PhysFormat::Tile { side: 1000 },
            Some("lhs"),
        );
        let b = g.add_source_named(
            MatrixType::dense(4000, 4000),
            PhysFormat::Tile { side: 1000 },
            Some("rhs"),
        );
        let c = g.add_op_named(Op::MatMul, &[a, b], Some("prod")).unwrap();
        let mut ann = Annotation::empty(&g);
        ann.set(
            c,
            VertexChoice {
                impl_id: reg.by_name("mm_tile_shuffle").unwrap().id,
                input_transforms: vec![
                    Transform::identity(PhysFormat::Tile { side: 1000 }),
                    Transform::identity(PhysFormat::Tile { side: 1000 }),
                ],
                output_format: PhysFormat::Tile { side: 1000 },
            },
        );
        let ctx = PlanContext::new(&reg, Cluster::simsql_like(5));
        let sql = render_sql(&g, &ann, &ctx).unwrap();
        assert!(sql.contains("SUM(matrix_multiply(x.mat, m.mat))"));
        assert!(sql.contains("WHERE x.tileCol = m.tileRow"));
        assert!(sql.contains("GROUP BY x.tileRow, m.tileCol"));
    }

    /// Every (impl, input formats) pair the registry accepts, over the
    /// search of `strategies.rs::no_dead_implementations`, renders its
    /// one-vertex plan as one `CREATE VIEW`, with `GROUP BY` exactly
    /// where the plan aggregates on a key.
    #[test]
    fn every_accepted_impl_renders_one_view_grouped_where_it_aggregates() {
        let reg = ImplRegistry::paper_default();
        let cl = Cluster::simsql_like(10);
        let ctx = PlanContext::new(&reg, cl);
        let (dense_m, sparse_m) = (
            MatrixType::dense(20_000, 20_000),
            MatrixType::sparse(20_000, 20_000, 1e-3),
        );
        let formats = [
            PhysFormat::SingleTuple,
            PhysFormat::Tile { side: 1000 },
            PhysFormat::RowStrip { height: 1000 },
            PhysFormat::ColStrip { width: 1000 },
            PhysFormat::Coo,
            PhysFormat::CsrSingle,
            PhysFormat::CsrTile { side: 1000 },
        ];
        let typed: Vec<(MatrixType, PhysFormat)> = [dense_m, sparse_m]
            .into_iter()
            .flat_map(|m| formats.map(|f| (m, f)))
            .collect();
        let (mut rendered, mut grouped) = (0, 0);
        for impl_def in reg.all() {
            let op = match impl_def.op {
                OpKind::ScalarMul => Op::ScalarMul(2.0),
                kind => [
                    Op::MatMul,
                    Op::Add,
                    Op::Sub,
                    Op::Hadamard,
                    Op::Transpose,
                    Op::Relu,
                    Op::ReluGrad,
                    Op::Softmax,
                    Op::Sigmoid,
                    Op::Exp,
                    Op::Neg,
                    Op::RowSums,
                    Op::ColSums,
                    Op::Inverse,
                    Op::BroadcastAddRow,
                ]
                .into_iter()
                .find(|op| op.kind() == kind)
                .expect("an op of every kind"),
            };
            let seconds: Vec<(MatrixType, PhysFormat)> = match op {
                Op::BroadcastAddRow => formats.map(|f| (MatrixType::dense(1, 20_000), f)).to_vec(),
                _ => typed.clone(),
            };
            let combos: Vec<Vec<(MatrixType, PhysFormat)>> = match op.arity() {
                1 => typed.iter().map(|t| vec![*t]).collect(),
                _ => typed
                    .iter()
                    .flat_map(|a| seconds.iter().map(move |b| vec![*a, *b]))
                    .collect(),
            };
            for inputs in combos {
                let Some(out) = impl_def.accepts(&op, &inputs, &cl) else {
                    continue;
                };
                let mut g = ComputeGraph::new();
                let srcs: Vec<NodeId> = inputs.iter().map(|(m, f)| g.add_source(*m, *f)).collect();
                let v = g.add_op_named(op, &srcs, Some("out")).unwrap();
                let mut ann = Annotation::empty(&g);
                let ins: Vec<PhysFormat> = inputs.iter().map(|(_, f)| *f).collect();
                ann.set(
                    v,
                    VertexChoice {
                        impl_id: impl_def.id,
                        input_transforms: ins.iter().map(|f| Transform::identity(*f)).collect(),
                        output_format: out,
                    },
                );
                let sql = render_sql(&g, &ann, &ctx).unwrap();
                let what = format!("{} on {inputs:?}:\n{sql}", impl_def.name);
                assert_eq!(sql.matches("CREATE VIEW").count(), 1, "{what}");
                let plan = RelPlan::new(impl_def.strategy, op, &ins, out);
                let keyed = plan.group_by().is_some_and(|k| !k.is_empty());
                assert_eq!(sql.contains("GROUP BY"), keyed, "{what}");
                rendered += 1;
                grouped += usize::from(keyed);
            }
        }
        // Every impl is reachable, and the keyed aggregations are among them.
        assert!(rendered >= reg.len(), "{rendered} plans rendered");
        assert!(grouped > 0);
    }

    #[test]
    fn invalid_annotation_is_rejected() {
        let reg = ImplRegistry::paper_default();
        let mut g = ComputeGraph::new();
        let a = g.add_source(MatrixType::dense(8, 8), PhysFormat::SingleTuple);
        let _r = g.add_op(Op::Relu, &[a]).unwrap();
        let ctx = PlanContext::new(&reg, Cluster::simsql_like(2));
        let empty = Annotation::empty(&g);
        assert!(render_sql(&g, &empty, &ctx).is_err());
    }

    #[test]
    fn coo_source_declares_triples() {
        let reg = ImplRegistry::paper_default();
        let mut g = ComputeGraph::new();
        let a = g.add_source_named(
            MatrixType::sparse(1000, 1000, 0.01),
            PhysFormat::Coo,
            Some("triples"),
        );
        {
            let t = g
                .add_op_named(Op::Transpose, &[a], Some("flipped"))
                .unwrap();
            let mut ann = Annotation::empty(&g);
            ann.set(
                t,
                VertexChoice {
                    impl_id: reg.by_name("transpose_coo").unwrap().id,
                    input_transforms: vec![Transform::identity(PhysFormat::Coo)],
                    output_format: PhysFormat::Coo,
                },
            );
            let ctx = PlanContext::new(&reg, Cluster::simsql_like(2));
            let sql = render_sql(&g, &ann, &ctx).unwrap();
            assert!(sql.contains(
                "CREATE TABLE triples (rowIndex INTEGER, colIndex INTEGER, value DOUBLE);"
            ));
        };
    }
}
