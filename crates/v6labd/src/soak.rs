//! The deterministic soak harness: a scripted daemon lifetime.
//!
//! A soak drives the exact machinery the live daemon runs — scheduler,
//! jobs, detector, streaming observer — but synchronously under the
//! virtual clock, so its entire output is a pure function of
//! `(base_seed, ticks)`. The detector is seeded with the clean-matrix
//! manifest as the baseline for *every* matrix key, mirroring the
//! committed-golden comparison the live daemon makes: each impaired
//! sweep then deterministically trips its fault/census watches, and the
//! repeat of the lossy sweep exercises incident dedup. The result is a
//! [`SoakSummary`] whose `soak` manifest is committed as
//! `reports/soak_smoke.json`.

use v6fleet::{FleetRunner, LatencySketch, NoopObserver};
use v6report::{fnv1a, RunManifest, SoakJobRow, SoakSummary};
use v6testbed::scenario::FaultVariant;

use crate::cron::CronSpec;
use crate::detector::Detector;
use crate::jobs::JobSpec;
use crate::scheduler::Scheduler;
use crate::state::{LabState, LiveObserver};

/// Soak parameters.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Seed for every job in the soak.
    pub base_seed: u64,
    /// Virtual ticks to run the scheduler through.
    pub ticks: u64,
    /// Worker-pool width (wall-clock only; the summary is identical
    /// for any value).
    pub threads: usize,
}

impl SoakConfig {
    /// The canonical smoke soak: the committed
    /// `reports/soak_smoke.json` describes exactly this run.
    pub fn smoke() -> SoakConfig {
        SoakConfig {
            base_seed: v6report::CANONICAL_BASE_SEED,
            ticks: 8,
            threads: 1,
        }
    }
}

/// Cells in the soak's population job — small enough for CI, big
/// enough that the census mix is non-trivial.
const SOAK_POPULATION: u64 = 1_500;

/// The smoke soak's schedule: the clean matrix first, the three
/// impaired sweeps next (lossy recurring, to exercise dedup), then a
/// population census.
fn smoke_schedule(base_seed: u64) -> Scheduler {
    let matrix = |fault| JobSpec::Matrix { base_seed, fault };
    let mut scheduler = Scheduler::new();
    scheduler.add("clean-sweep", CronSpec::parse("@1").expect("literal"), {
        matrix(FaultVariant::Clean)
    });
    scheduler.add(
        "lossy-sweep",
        CronSpec::parse("2+*/4").expect("literal"),
        matrix(FaultVariant::LossyUplink),
    );
    scheduler.add(
        "dns64-sweep",
        CronSpec::parse("@3").expect("literal"),
        matrix(FaultVariant::Dns64Outage),
    );
    scheduler.add(
        "nat64-sweep",
        CronSpec::parse("@4").expect("literal"),
        matrix(FaultVariant::Nat64Exhaustion),
    );
    scheduler.add(
        "population-census",
        CronSpec::parse("@5").expect("literal"),
        JobSpec::Population {
            seed: base_seed,
            size: SOAK_POPULATION,
            shards: 4,
            pace_ms: 0,
        },
    );
    scheduler
}

/// Run the soak and summarise it. Also returns the detector so callers
/// (tests, the CLI log) can inspect full incident records.
pub fn run_soak(config: SoakConfig) -> (SoakSummary, Detector) {
    let state = LabState::new(config.threads, 1);
    let runner = FleetRunner::new(config.threads);
    let observer = LiveObserver::new(&state, 0);

    // Baseline: what the repo's committed goldens promise. Built
    // in-process from the same seed so the soak needs no file access —
    // and unobserved, so the live sketches cover only scheduled jobs.
    let clean = JobSpec::Matrix {
        base_seed: config.base_seed,
        fault: FaultVariant::Clean,
    };
    let baseline = clean.execute(&runner, &NoopObserver);
    let mut detector = Detector::new();
    for fault in FaultVariant::ALL {
        let key = format!("matrix/{}", fault.label());
        detector.set_baseline(&key, &baseline);
    }

    let mut scheduler = smoke_schedule(config.base_seed);
    let mut jobs = Vec::new();
    let mut next_id = 1u64;
    while scheduler.tick() < config.ticks {
        for entry in scheduler.advance() {
            let tick = scheduler.tick();
            let manifest = entry.job.execute(&runner, &observer);
            detector.observe(
                &format!("{}/{}", entry.job.kind(), entry.job.label()),
                &manifest,
                tick,
            );
            jobs.push(SoakJobRow {
                id: next_id,
                kind: entry.job.kind().to_string(),
                label: entry.job.label(),
                cells: entry.job.cells(),
                manifest_digest: fnv1a(&manifest.canonical()),
            });
            next_id += 1;
        }
    }

    // Merge the matrix latency sketch with the population cells'
    // completion-time sketch: one fleet-wide virtual-latency view.
    let live = state.live.lock().expect("live lock");
    let mut latency: LatencySketch = live.latency_us.snapshot();
    latency.merge_from(&live.census.completed_us);
    drop(live);

    let summary = SoakSummary {
        base_seed: config.base_seed,
        ticks: config.ticks,
        jobs,
        incidents: detector
            .incidents()
            .iter()
            .map(|i| i.to_soak_row())
            .collect(),
        latency,
    };
    (summary, detector)
}

/// The canonical smoke-soak manifest (what `reports/soak_smoke.json`
/// holds).
pub fn smoke_manifest() -> RunManifest {
    let (summary, _) = run_soak(SoakConfig::smoke());
    RunManifest::from_soak(&summary)
}
