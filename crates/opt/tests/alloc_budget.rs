//! One paper-scale plan stays inside an allocation budget: the
//! non-timing guard for the planner's memory traffic (and, through it,
//! for its peak RSS, CPU per plan and the allocator stall a freshly
//! freed 200 MB of small chunks used to leave behind).
//!
//! This file holds exactly one test: the counters are process-wide, so a
//! sibling test running on another thread would pollute them.

use matopt_core::{Cluster, FormatCatalog, ImplRegistry, PlanContext};
use matopt_cost::CostModel;
use matopt_graphs::{ffnn_full_pass_graph_autodiff, FfnnConfig};
use matopt_opt::{frontier_dp_beam, OptContext};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static REQUESTED_BYTES: AtomicU64 = AtomicU64::new(0);

/// `System`, counting every allocation and the bytes it asked for.
struct Counting;

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    REQUESTED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn one_paper_scale_plan_stays_inside_its_allocation_budget() {
    let registry = ImplRegistry::extended();
    let ctx = PlanContext::new(&registry, Cluster::simsql_like(10));
    let catalog = FormatCatalog::paper_default().dense_only();
    let model = CostModel::analytical();
    let octx = OptContext::new(&ctx, &catalog, &model);
    let graph = ffnn_full_pass_graph_autodiff(FfnnConfig::simsql_experiment(80_000))
        .unwrap()
        .graph;

    let (allocations, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        REQUESTED_BYTES.load(Ordering::Relaxed),
    );
    let plan = frontier_dp_beam(&graph, &octx, 4000).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    let megabytes = (REQUESTED_BYTES.load(Ordering::Relaxed) - bytes) as f64 / 1e6;

    assert!(plan.beam_truncated > 0, "the graph must exercise the beam");
    // Measured: 3,577 allocations / 20.2 MB, the same in debug and
    // release builds. Fresh buffers at every step cost 99,170 / 96.7 MB;
    // a planner that keeps a heap object per joint state needs
    // 6.7 M / 1.5 GB on this graph.
    assert!(
        allocations <= 7_000,
        "{allocations} allocations for one plan (budget 7,000)"
    );
    assert!(
        megabytes <= 40.0,
        "{megabytes:.1} MB requested for one plan (budget 40 MB)"
    );
}
