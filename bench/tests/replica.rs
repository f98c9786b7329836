//! The traced run's replica computes what the production arena
//! computes, cell by cell — over every fault (broken-delegation
//! included, which the census never samples) and both topologies.

use std::time::Instant;

use sc24_bench::replica::ReplicaArena;
use sc24_bench::trace::Tracer;
use v6testbed::scenario::FaultVariant;
use v6testbed::{CellArena, CellSpec, OsProfileId, PoisonVariant, TopologyVariant, TraceMode};

fn cells() -> Vec<CellSpec> {
    let profiles = OsProfileId::all().count();
    (0..300usize)
        .map(|i| CellSpec {
            os: OsProfileId((i % profiles) as u16),
            topology: TopologyVariant::ALL[(i / 5) % 2],
            poison: PoisonVariant::ALL[(i / 10) % 3],
            fault: FaultVariant::ALL[i % 5],
            seed: 0x5c24 + i as u64,
        })
        .collect()
}

#[test]
fn cells_cover_every_fault_and_topology() {
    let cells = cells();
    for fault in FaultVariant::ALL {
        for topology in TopologyVariant::ALL {
            assert!(cells
                .iter()
                .any(|c| c.fault == fault && c.topology == topology));
        }
    }
}

#[test]
fn replica_observation_equals_cell_arena() {
    let mut arena = CellArena::new();
    let mut replica = ReplicaArena::new(TraceMode::Off);
    let mut tr = Tracer::new(Instant::now());
    for (i, cell) in cells().into_iter().enumerate() {
        let (got, _) = replica.observation(&mut tr, i as u64, cell);
        assert_eq!(got, arena.run_observation(cell), "cell {i}: {cell:?}");
    }
}

#[test]
fn replica_result_equals_cell_arena() {
    let mut arena = CellArena::new();
    let mut replica = ReplicaArena::new(TraceMode::Hops);
    let mut tr = Tracer::new(Instant::now());
    for (i, cell) in cells().into_iter().enumerate() {
        let s = cell.to_scenario();
        let (got, _) = replica.result(&mut tr, i as u64, &s);
        assert_eq!(
            got,
            arena.run_with_trace(&s, TraceMode::Hops),
            "cell {i}: {}",
            s.label()
        );
    }
}

#[test]
fn self_times_subtract_children() {
    let mut tr = Tracer::new(Instant::now());
    let root = tr.begin("cell", 0);
    let child = tr.begin("child", 0);
    std::thread::sleep(std::time::Duration::from_millis(2));
    tr.end(child);
    tr.end(root);
    let selfs = tr.self_times();
    let (root_self, _) = selfs["cell"];
    let (child_self, _) = selfs["child"];
    let total = tr.spans[0].end_ns - tr.spans[0].start_ns;
    assert_eq!(root_self + child_self, total);
    assert!(child_self >= 2_000_000);
}
