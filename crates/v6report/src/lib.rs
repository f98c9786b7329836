//! # v6report — canonical run manifests and the CI drift gate
//!
//! The paper's core claim is behavioural: each client class (RFC 8925,
//! dual-stack, IPv4-only, poisoned-DNS-intervened) lands in a specific,
//! reproducible cell of the Fig. 4 outcome matrix. This crate turns
//! every canonical fleet run into a committed artifact CI can gate on:
//!
//! * [`manifest`] — build a [`RunManifest`]: config digests (matrix,
//!   per-cell fault plans), the fleet + per-OS census, one verdict row
//!   per cell keyed by a fault-invariant cell label, fleet-wide metrics
//!   sums with the frame-conservation identity, a full-`MetricsSnapshot`
//!   digest per cell, and (for bench manifests) the normalized
//!   `BENCH_engine.json` figures.
//! * [`canon`] — the hand-rolled canonical JSON layer the manifests are
//!   written in: sorted keys, fixed number formatting, no timestamps —
//!   so serial and parallel runs of the same seed are byte-identical.
//! * [`ledger`] — the one writer of `BENCH_engine.json`: each bench
//!   tool records its own sections, stamped with the host's
//!   `available_parallelism`, and leaves the rest untouched.
//! * [`diff`] — the structural differ and the drift taxonomy:
//!   *behavioural* drift (census, verdicts, conservation, counters) is
//!   always fatal; *informational* drift (pool/trace counters, bench
//!   timings) is reported and gated only by a configurable tolerance.
//!
//! The `v6report` binary wires these into the repo workflow:
//! `v6report emit` regenerates the committed `reports/*.json` goldens,
//! `v6report check` re-runs the canonical sweeps and fails on drift,
//! and `v6report diff a.json b.json` classifies the drift between any
//! two manifests.

#![warn(missing_docs)]

pub mod canon;
pub mod diff;
pub mod ledger;
pub mod manifest;

pub use canon::Json;
pub use diff::{classify, diff_manifests, DiffConfig, Drift, DriftClass, DriftReport};
pub use manifest::{
    canonical_population, fnv1a, MatrixSpec, RunManifest, SoakIncidentRow, SoakJobRow, SoakSummary,
    CANONICAL_BASE_SEED, CANONICAL_POPULATION_SHARDS, CANONICAL_POPULATION_SIZE, SCHEMA_VERSION,
};
