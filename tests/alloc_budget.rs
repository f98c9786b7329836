//! Heap-allocation budget of a warm census cell.
//!
//! Built as its own test binary so the counting `#[global_allocator]`
//! sees only this process. After a warm-up that builds every arena slot
//! and sizes every pool, each further cell of the paper-default
//! population must stay under a fixed number of `alloc` + `realloc`
//! calls. The owned codec chains (encode a segment, wrap it in a packet,
//! wrap that in a frame; decode a DNS message into owned records) cost
//! about two allocations per layer per frame, so a hot path that slips
//! back onto them shows up here long before it shows in a timing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use v6fleet::population::PopulationSpec;
use v6testbed::CellArena;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARMUP_CELLS: u64 = 1_000;
const MEASURED_CELLS: u64 = 2_000;
/// Allocations + reallocations allowed per warm cell.
const BUDGET_PER_CELL: u64 = 300;

#[test]
fn warm_census_cell_stays_within_allocation_budget() {
    let spec = PopulationSpec::paper_default(0x5c24, WARMUP_CELLS + MEASURED_CELLS);
    let mut arena = CellArena::new();
    for i in 0..WARMUP_CELLS {
        std::hint::black_box(arena.run_observation(spec.cell(i)));
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in WARMUP_CELLS..WARMUP_CELLS + MEASURED_CELLS {
        std::hint::black_box(arena.run_observation(spec.cell(i)));
    }
    let per_cell = (ALLOCS.load(Ordering::Relaxed) - before) / MEASURED_CELLS;
    eprintln!("allocations per warm census cell: {per_cell}");
    assert!(
        per_cell <= BUDGET_PER_CELL,
        "{per_cell} allocations per warm cell exceeds the budget of {BUDGET_PER_CELL}"
    );
}
