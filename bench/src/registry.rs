//! Every workload and metric the benchmark reports. `BENCHMARK.json`
//! declares the same sets; `tests/metrics.rs` holds the two equal.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A workload and the reason it exists.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line: which path it exercises and what it bypasses.
    pub why: &'static str,
}

/// The four workloads, in run order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "census",
        why: "population hot path: warm arenas, observation-only cells folded into a CensusSketch; no manifests per cell, no HTTP",
    },
    Workload {
        name: "matrix",
        why: "materializing path: 66-cell sweeps over every fault with full results, fresh arenas per run and a canonical manifest per sweep",
    },
    Workload {
        name: "portal",
        why: "the daemon front door alone: open-loop GET /portal at 500 req/s over loopback; no simulation runs",
    },
    Workload {
        name: "portal_jobs",
        why: "the same request stream while population jobs run on the daemon worker, which competes with the accept thread for the cores",
    },
];

/// A metric a user of the system sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics every gated run prints. What one "operation"
/// is depends on the workload (see README.md): one of the eight shards
/// of a 100,000-cell census, a 66-cell matrix sweep, or one HTTP
/// request.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.24,
    },
    EndToEnd {
        name: "latency_us_p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.24,
    },
    EndToEnd {
        name: "latency_us_p95",
        unit: "us",
        better: Better::Lower,
        bound: 0.24,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// A metric of one layer, measured by the traced run. README.md maps
/// each to the calls it times, the workloads whose traced run measures
/// it (it reads 0 in the others) and the end-to-end metric it should
/// move.
pub struct Layer {
    /// Metric name (`<module>.<quantity>[.<label>]`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn layer(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit }
}

/// Every per-layer metric, in report order. All of them are costs, so
/// lower is better for each.
pub const PER_LAYER: &[Layer] = &[
    layer("v6testbed.recycle_us", "us"),
    layer("v6testbed.build_us", "us"),
    layer("v6testbed.builds", "count"),
    layer("v6testbed.fault_install_us", "us"),
    layer("v6host.attach_us", "us"),
    layer("v6testbed.boot_us", "us"),
    layer("v6testbed.browse_sc24_us", "us"),
    layer("v6testbed.browse_ip6me_us", "us"),
    layer("v6testbed.observe_us", "us"),
    layer("v6fleet.fold_us", "us"),
    layer("v6testbed.cell_us.windows-xp", "us"),
    layer("v6testbed.cell_us.windows-10", "us"),
    layer("v6testbed.cell_us.windows-10-ipv6-disabled", "us"),
    layer("v6testbed.cell_us.windows-11", "us"),
    layer("v6testbed.cell_us.windows-11-rfc8925", "us"),
    layer("v6testbed.cell_us.linux", "us"),
    layer("v6testbed.cell_us.macos", "us"),
    layer("v6testbed.cell_us.ios", "us"),
    layer("v6testbed.cell_us.android", "us"),
    layer("v6testbed.cell_us.nintendo-switch", "us"),
    layer("v6testbed.cell_us.clean", "us"),
    layer("v6testbed.cell_us.lossy-uplink", "us"),
    layer("v6testbed.cell_us.dns64-outage", "us"),
    layer("v6testbed.cell_us.nat64-exhaustion", "us"),
    layer("v6testbed.cell_us.broken-delegation", "us"),
    layer("v6sim.events_per_cell", "count"),
    layer("v6sim.events_per_cell.clean", "count"),
    layer("v6sim.events_per_cell.lossy-uplink", "count"),
    layer("v6sim.events_per_cell.dns64-outage", "count"),
    layer("v6sim.events_per_cell.nat64-exhaustion", "count"),
    layer("v6sim.events_per_cell.broken-delegation", "count"),
    layer("v6sim.events_boot", "count"),
    layer("v6sim.events_browse", "count"),
    layer("v6sim.ns_per_event_boot", "ns"),
    layer("v6sim.ns_per_event_browse", "ns"),
    layer("v6sim.frames_per_cell", "count"),
    layer("v6sim.pool_fresh_allocs_per_kcell", "count"),
    layer("v6testbed.census_us", "us"),
    layer("v6sim.metrics_snapshot_us", "us"),
    layer("v6wire.frame_parse_ns", "ns"),
    layer("v6dns.msg_parse_ns", "ns"),
    layer("v6dns.msgs_per_cell", "count"),
    layer("codec.est_share", "ratio"),
    layer("trace.cell_us", "us"),
    layer("trace.untraced_cell_us", "us"),
    layer("trace.overhead_frac", "ratio"),
    layer("trace.unattributed_frac", "ratio"),
    layer("v6fleet.aggregate_ms", "ms"),
    layer("v6report.from_fleet_ms", "ms"),
    layer("v6report.canonical_ms", "ms"),
    layer("v6report.manifest_kb", "KiB"),
    layer("v6fleet.pool_overhead_ms", "ms"),
    layer("client.connect_us", "us"),
    layer("client.send_us", "us"),
    layer("client.ttfb_us", "us"),
    layer("client.read_us", "us"),
    layer("v6portal.http_parse_us", "us"),
    layer("v6labd.portal_handle_us", "us"),
    layer("v6portal.format_response_us", "us"),
    layer("v6labd.accept_gap_us", "us"),
    layer("v6labd.job_wait_ms", "ms"),
    layer("v6labd.job_run_ms", "ms"),
    layer("v6labd.manifest_get_ms", "ms"),
    layer("v6labd.poll_us", "us"),
];

/// `OsProfile` name → metric slug: lowercase, each run of
/// non-alphanumerics replaced by `-`.
pub fn slug(name: &str) -> String {
    let mut out = String::new();
    let mut dash = false;
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            if dash && !out.is_empty() {
                out.push('-');
            }
            dash = false;
            out.push(c.to_ascii_lowercase());
        } else {
            dash = true;
        }
    }
    out
}
