//! Shared experiment harness: plan, simulate, and format results in the
//! paper's table style (with the paper's reported values alongside for
//! direct comparison).

use matopt_core::{Annotation, Cluster, ComputeGraph, FormatCatalog, ImplRegistry, PlanContext};
use matopt_cost::CostModel;
use matopt_engine::{format_hms, simulate_plan, SimOutcome};
use matopt_obs::Obs;
use matopt_opt::{frontier_dp_beam, OptContext, OptError};

/// Beam width used for the evaluation plans. The beam only truncates
/// joint frontier tables past this many entries; the DAGs of §8.4 stay
/// exact, and the deep FFNN graphs are insensitive to widths beyond
/// ~1000 (verified by the `beam_is_stable` test).
pub const DEFAULT_BEAM: usize = 4000;

/// The experiment environment: implementation registry + cost model
/// (the analytical one unless a caller plugs in another).
pub struct Env {
    /// The 38-implementation registry.
    pub registry: ImplRegistry,
    /// The cost model plans are searched and simulated under.
    pub model: CostModel,
}

impl Default for Env {
    fn default() -> Self {
        Self::new()
    }
}

/// An auto-generated plan with its optimization wall time.
pub struct AutoPlan {
    /// The chosen annotation.
    pub annotation: Annotation,
    /// The optimizer's cost estimate (seconds).
    pub est_cost: f64,
    /// Wall-clock seconds the optimizer itself took — the
    /// "(opt time in parens)" columns of the paper's tables.
    pub opt_seconds: f64,
    /// Joint-table entries the beam cap dropped (0 ⇒ the frontier DP
    /// was exact for this graph).
    pub beam_truncated: usize,
}

impl AutoPlan {
    /// `"exact"` when the beam never truncated, `"beamed"` otherwise —
    /// reported next to plan costs so readers know whether the search
    /// was optimal or approximate.
    pub fn exactness(&self) -> &'static str {
        if self.beam_truncated == 0 {
            "exact"
        } else {
            "beamed"
        }
    }
}

impl Env {
    /// Creates the environment.
    pub fn new() -> Self {
        Env {
            registry: ImplRegistry::paper_default(),
            model: CostModel::analytical(),
        }
    }

    /// A plan context for the given cluster.
    pub fn ctx(&self, cluster: Cluster) -> PlanContext<'_> {
        PlanContext::new(&self.registry, cluster)
    }

    /// Runs the frontier DP on `graph` for `cluster` over `catalog`,
    /// measuring the optimization time.
    ///
    /// # Errors
    /// Propagates [`OptError`] from the optimizer.
    pub fn auto_plan(
        &self,
        graph: &ComputeGraph,
        cluster: Cluster,
        catalog: &FormatCatalog,
    ) -> Result<AutoPlan, OptError> {
        self.auto_plan_traced(graph, cluster, catalog, Obs::disabled())
    }

    /// [`Env::auto_plan`] with observability: the optimizer emits its
    /// phase and per-vertex frontier events to `obs`.
    ///
    /// # Errors
    /// Propagates [`OptError`] from the optimizer.
    pub fn auto_plan_traced(
        &self,
        graph: &ComputeGraph,
        cluster: Cluster,
        catalog: &FormatCatalog,
        obs: Obs,
    ) -> Result<AutoPlan, OptError> {
        let ctx = self.ctx(cluster);
        let octx = OptContext::with_obs(&ctx, catalog, &self.model, obs);
        let opt = frontier_dp_beam(graph, &octx, DEFAULT_BEAM)?;
        Ok(AutoPlan {
            annotation: opt.annotation,
            est_cost: opt.cost,
            // The optimizer's own measurement — the same number a plan
            // cache weights entries by, so tables and cache agree.
            opt_seconds: opt.opt_seconds,
            beam_truncated: opt.beam_truncated,
        })
    }

    /// Simulates an annotated plan on `cluster` (enforcing its real
    /// memory/disk limits).
    pub fn simulate(
        &self,
        graph: &ComputeGraph,
        annotation: &Annotation,
        cluster: Cluster,
    ) -> SimOutcome {
        let ctx = self.ctx(cluster);
        match simulate_plan(graph, annotation, &ctx, &self.model) {
            Ok(report) => report.outcome,
            // A structurally invalid plan cannot even start.
            Err(_) => SimOutcome::Failed {
                vertex: matopt_core::NodeId(0),
                reason: matopt_engine::FailReason::OutOfMemory,
            },
        }
    }
}

/// Renders an outcome plus optional optimization time in the paper's
/// cell style, e.g. `00:06:15 (:08)` or `Fail`.
pub fn cell(outcome: &SimOutcome, opt_seconds: Option<f64>) -> String {
    let base = outcome.to_string();
    match opt_seconds {
        Some(s) => format!("{base} ({})", format_opt(s)),
        None => base,
    }
}

/// Renders an optimization time like the paper's parenthesized
/// seconds: `:04` or `01:03`.
pub fn format_opt(seconds: f64) -> String {
    let s = seconds.round() as u64;
    if s >= 60 {
        format!("{:02}:{:02}", s / 60, s % 60)
    } else {
        format!(":{s:02}")
    }
}

/// Renders seconds as the paper's `H:MM:SS` / `MM:SS`.
pub fn hms(seconds: f64) -> String {
    format_hms(seconds)
}

/// One reproduced table/figure, with paper-reported values alongside
/// measured ones.
pub struct FigTable {
    /// e.g. "Figure 6".
    pub id: &'static str,
    /// What the figure shows.
    pub title: &'static str,
    /// Column names; the first column is the row label.
    pub header: Vec<String>,
    /// Row cells, aligned with `header`.
    pub rows: Vec<Vec<String>>,
    /// Free-text notes (substitutions, budgets).
    pub notes: Vec<String>,
}

impl std::fmt::Display for FigTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== {}: {} ==", self.id, self.title)?;
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(c.len());
            }
        }
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.header))?;
        writeln!(
            f,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        )?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_time_formatting() {
        assert_eq!(format_opt(4.2), ":04");
        assert_eq!(format_opt(63.0), "01:03");
        assert_eq!(format_opt(0.3), ":00");
    }

    #[test]
    fn table_renders_aligned() {
        let t = FigTable {
            id: "Figure X",
            title: "demo",
            header: vec!["row".into(), "a".into()],
            rows: vec![vec!["one".into(), "1".into()]],
            notes: vec!["n".into()],
        };
        let s = t.to_string();
        assert!(s.contains("Figure X"));
        assert!(s.contains("note: n"));
    }
}
