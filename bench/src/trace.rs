//! The traced run: spans recorded from this crate around calls into
//! each layer's public functions, kept in memory and written out at the
//! end, then reduced to the per-layer metrics of [`PER_LAYER`].

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use v6dns::view::MessageView;
use v6fleet::{CensusSketch, FleetReport, FleetRunner, PopulationReport, PopulationSpec};
use v6portal::http::{format_response, HttpRequest};
use v6report::{MatrixSpec, RunManifest};
use v6testbed::scenario::FaultVariant;
use v6testbed::{CellArena, Scenario, TraceMode};
use v6wire::view::{FrameView, L4View};

use crate::client::{self, Sample};
use crate::registry::{slug, PER_LAYER};
use crate::replica::{CellCounts, ReplicaArena};
use crate::result::{quote, RunResult};
use crate::stats::{mean, median, percentile_us};
use crate::workloads::{self, drive_jobs, Streams};
use crate::{nproc, RunConfig, Sizes};

/// No parent: a root span.
const ROOT: u32 = u32::MAX;

/// Cells per alternation between the untraced and the traced side.
const BLOCK: usize = 500;

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer (or phase) name.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX`.
    pub parent: u32,
    /// Cell index or request number the span belongs to.
    pub id: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    /// Spans in begin order.
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder whose times count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> u32 {
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.open.push(idx);
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        idx
    }

    /// Close span `idx` (the innermost open one).
    pub fn end(&mut self, idx: u32) {
        let end_ns = self.ns(Instant::now());
        self.spans[idx as usize].end_ns = end_ns;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost first");
    }

    /// Record a span measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
        parent: u32,
    ) -> u32 {
        let idx = self.spans.len() as u32;
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            id,
        };
        self.spans.push(span);
        idx
    }

    /// Per name: (self time summed, span count). Self time is a span's
    /// duration minus its children's.
    pub fn self_times(&self) -> HashMap<&'static str, (u64, u64)> {
        let mut own: Vec<i128> = self.spans.iter().map(|s| i128::from(s.dur())).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                own[s.parent as usize] -= i128::from(s.dur());
            }
        }
        let mut out: HashMap<&'static str, (u64, u64)> = HashMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let e = out.entry(s.name).or_default();
            e.0 += own.max(0) as u64;
            e.1 += 1;
        }
        out
    }

    /// Write every span as JSON: a name table and one
    /// `[name, start_ns, end_ns, parent, id]` row per span (parent -1
    /// for a root span).
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut names: Vec<&str> = Vec::new();
        let mut index: HashMap<&str, usize> = HashMap::new();
        let mut rows = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let n = *index.entry(s.name).or_insert_with(|| {
                names.push(s.name);
                names.len() - 1
            });
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                rows,
                "{sep}[{n}, {}, {}, {parent}, {}]",
                s.start_ns, s.end_ns, s.id
            );
        }
        let names: Vec<String> = names.iter().map(|n| quote(n)).collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(
            path,
            format!(
                "{{\"workload\": {}, \"seed\": {seed}, \"names\": [{}],\n\"spans\": [\n{rows}\n]}}\n",
                quote(workload),
                names.join(", ")
            ),
        )
    }
}

/// Per-layer values under construction; unset metrics read 0.
#[derive(Default)]
struct Layers(HashMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|l| l.name == name),
            "{name} is not a registered per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Set `name` when it is registered (the legacy printer, which the
    /// census never samples, has no per-OS metric of its own).
    fn set_if_known(&mut self, name: String, value: f64) {
        if let Some(l) = PER_LAYER.iter().find(|l| l.name == name) {
            self.0.insert(l.name, value);
        }
    }

    fn into_result(self, res: &mut RunResult) {
        for l in PER_LAYER {
            res.metric(l.name, self.0.get(l.name).copied().unwrap_or(0.0), l.unit);
        }
    }
}

/// Run the traced measurement of `cfg.workload`.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let sizes = Sizes::new(cfg.smoke);
    let mut tr = Tracer::new(Instant::now());
    let mut layers = Layers::default();
    let mut res = match cfg.workload.as_str() {
        "census" => {
            let mut res = RunResult::new(cfg, 1);
            let spec = PopulationSpec::paper_default(cfg.seed, sizes.trace_census_cells);
            census_sample(&mut res, &mut tr, &mut layers, &spec, sizes);
            res
        }
        "matrix" => {
            let mut res = RunResult::new(cfg, 1);
            matrix_sample(&mut res, &mut tr, &mut layers, cfg.seed, sizes);
            res
        }
        "portal" | "portal_jobs" => {
            let jobs = cfg.workload == "portal_jobs";
            let mut res = RunResult::new(cfg, workloads::server_config().threads);
            portal_sample(&mut res, &mut tr, &mut layers, cfg.seed, sizes, jobs)?;
            if jobs {
                // The jobs' own cells, through the census replica.
                let spec = PopulationSpec::paper_default(
                    workloads::job_seed(cfg.seed, 0),
                    sizes.trace_job_cells,
                );
                census_sample(&mut res, &mut tr, &mut layers, &spec, sizes);
            }
            res
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    layers.into_result(&mut res);
    tr.write(
        &cfg.out.join(format!("trace-{}.json", cfg.workload)),
        &cfg.workload,
        cfg.seed,
    )
    .map_err(|e| format!("write spans: {e}"))?;
    Ok(res)
}

/// Per-cell facts the layer metrics group by.
struct CellStat {
    os: String,
    fault: FaultVariant,
    dur_ns: u64,
    counts: CellCounts,
}

/// Cell-level metrics shared by the census and matrix samples.
fn cell_layers(
    res: &mut RunResult,
    tr: &Tracer,
    layers: &mut Layers,
    cells: &[CellStat],
    untraced_ns: u64,
) {
    let n = cells.len().max(1) as f64;
    let selfs = tr.self_times();
    let total = |name: &str| selfs.get(name).copied().unwrap_or((0, 0));
    let per_span_us = |name: &str| {
        let (ns, count) = total(name);
        ns as f64 / count.max(1) as f64 / 1e3
    };
    let per_cell_us = |name: &str| total(name).0 as f64 / n / 1e3;
    layers.set("v6testbed.recycle_us", per_span_us("v6testbed.recycle"));
    layers.set("v6testbed.build_us", per_span_us("v6testbed.build"));
    layers.set("v6testbed.builds", total("v6testbed.build").1 as f64);
    for (metric, span) in [
        ("v6testbed.fault_install_us", "v6testbed.fault_install"),
        ("v6host.attach_us", "v6host.attach"),
        ("v6testbed.boot_us", "v6testbed.boot"),
        ("v6testbed.browse_sc24_us", "v6testbed.browse_sc24"),
        ("v6testbed.browse_ip6me_us", "v6testbed.browse_ip6me"),
        ("v6testbed.observe_us", "v6testbed.observe"),
        ("v6fleet.fold_us", "v6fleet.fold"),
        ("v6testbed.census_us", "v6testbed.census"),
        ("v6sim.metrics_snapshot_us", "v6sim.metrics_snapshot"),
    ] {
        layers.set(metric, per_cell_us(span));
    }

    let group = |key: &dyn Fn(&CellStat) -> String| {
        let mut by: HashMap<String, (f64, f64, u64)> = HashMap::new();
        for c in cells {
            let e = by.entry(key(c)).or_default();
            e.0 += c.dur_ns as f64;
            e.1 += (c.counts.events_boot + c.counts.events_browse) as f64;
            e.2 += 1;
        }
        by
    };
    for (os, (ns, _, count)) in group(&|c| slug(&c.os)) {
        layers.set_if_known(format!("v6testbed.cell_us.{os}"), ns / count as f64 / 1e3);
    }
    for (fault, (ns, events, count)) in group(&|c| c.fault.label().to_string()) {
        layers.set_if_known(
            format!("v6testbed.cell_us.{fault}"),
            ns / count as f64 / 1e3,
        );
        layers.set_if_known(
            format!("v6sim.events_per_cell.{fault}"),
            events / count as f64,
        );
    }

    let boot_events: u64 = cells.iter().map(|c| c.counts.events_boot).sum();
    let browse_events: u64 = cells.iter().map(|c| c.counts.events_browse).sum();
    let frames: u64 = cells.iter().map(|c| c.counts.frames).sum();
    layers.set(
        "v6sim.events_per_cell",
        (boot_events + browse_events) as f64 / n,
    );
    layers.set("v6sim.events_boot", boot_events as f64 / n);
    layers.set("v6sim.events_browse", browse_events as f64 / n);
    layers.set(
        "v6sim.ns_per_event_boot",
        total("v6testbed.boot").0 as f64 / boot_events.max(1) as f64,
    );
    let browse_ns = total("v6testbed.browse_sc24").0 + total("v6testbed.browse_ip6me").0;
    layers.set(
        "v6sim.ns_per_event_browse",
        browse_ns as f64 / browse_events.max(1) as f64,
    );
    layers.set("v6sim.frames_per_cell", frames as f64 / n);

    let (cell_self, _) = total("cell");
    let cell_total: u64 = cells.iter().map(|c| c.dur_ns).sum();
    let traced_us = cell_total as f64 / n / 1e3;
    let untraced_us = untraced_ns as f64 / n / 1e3;
    let unattributed = cell_self as f64 / cell_total.max(1) as f64;
    layers.set("trace.cell_us", traced_us);
    layers.set("trace.untraced_cell_us", untraced_us);
    layers.set("trace.overhead_frac", traced_us / untraced_us - 1.0);
    layers.set("trace.unattributed_frac", unattributed);
    res.check("layers_cover_95pct_of_cell_time", unattributed < 0.05);
}

/// Frame and DNS decode cost over frames captured from real cells.
fn codec_layers(layers: &mut Layers, frames: &[Vec<u8>], cells: usize, untraced_cell_us: f64) {
    let dns: Vec<&[u8]> = frames
        .iter()
        .filter_map(|f| match FrameView::parse(f) {
            Ok(FrameView {
                l4: L4View::Udp(u), ..
            }) if u.src_port == 53 || u.dst_port == 53 => Some(u.payload),
            _ => None,
        })
        .collect();
    // Median of five passes, so one preempted pass does not skew it.
    let time_pass = |f: &dyn Fn()| {
        let passes: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_nanos() as f64
            })
            .collect();
        median(&passes)
    };
    let frame_ns = time_pass(&|| {
        for f in frames {
            let _ = black_box(FrameView::parse(black_box(f)));
        }
    }) / frames.len().max(1) as f64;
    let msg_ns = time_pass(&|| {
        for m in &dns {
            let _ = black_box(MessageView::parse(black_box(m)));
        }
    }) / dns.len().max(1) as f64;
    let frames_per_cell = frames.len() as f64 / cells.max(1) as f64;
    layers.set("v6wire.frame_parse_ns", frame_ns);
    layers.set("v6dns.msg_parse_ns", msg_ns);
    layers.set(
        "v6dns.msgs_per_cell",
        dns.len() as f64 / cells.max(1) as f64,
    );
    layers.set(
        "codec.est_share",
        frames_per_cell * frame_ns / (untraced_cell_us * 1e3),
    );
}

/// Census sample: the production arena untraced, then the replica
/// traced on the same cells, checked cell by cell.
fn census_sample(
    res: &mut RunResult,
    tr: &mut Tracer,
    layers: &mut Layers,
    spec: &PopulationSpec,
    sizes: Sizes,
) {
    let n = spec.size;
    let mut arena = CellArena::new();
    let mut production = Vec::with_capacity(n as usize);
    let mut untraced_ns = 0u64;
    let mut replica = ReplicaArena::new(TraceMode::Off);
    let mut sketch = CensusSketch::new();
    let mut cells = Vec::with_capacity(n as usize);
    let mut mismatches = 0u64;
    let warm_at = (n / 10).min(1_000);
    let mut pool_warm = 0;
    // Untraced and traced alternate in blocks, so drift in the host's
    // speed reaches both sides alike.
    for block in (0..n).step_by(BLOCK) {
        let end = (block + BLOCK as u64).min(n);
        let t = Instant::now();
        production.extend((block..end).map(|i| arena.run_observation(spec.cell(i))));
        untraced_ns += t.elapsed().as_nanos() as u64;
        for i in block..end {
            if i == warm_at {
                pool_warm = replica.pool_fresh_allocations();
            }
            let cell = spec.cell(i);
            let root = tr.begin("cell", i);
            let (obs, counts) = replica.observation(tr, i, cell);
            let fold = tr.begin("v6fleet.fold", i);
            sketch.fold(cell, obs);
            tr.end(fold);
            tr.end(root);
            mismatches += u64::from(obs != production[i as usize]);
            cells.push(CellStat {
                os: cell.os.name().to_string(),
                fault: cell.fault,
                dur_ns: tr.spans[root as usize].dur(),
                counts,
            });
        }
    }
    let pool_fresh = replica.pool_fresh_allocations() - pool_warm;
    layers.set(
        "v6sim.pool_fresh_allocs_per_kcell",
        pool_fresh as f64 * 1e3 / (n - warm_at).max(1) as f64,
    );
    res.attempted += n;
    res.failed += mismatches;
    res.check(
        format!("census_replica_equals_arena.{}", spec.seed),
        mismatches == 0,
    );
    let report = PopulationReport {
        spec_digest: spec.digest(),
        size: n,
        sketch,
    };
    res.digests.push((
        format!("census_sample.{}", spec.seed),
        format!("{:016x}", report.digest()),
    ));
    cell_layers(res, tr, layers, &cells, untraced_ns);

    // Codec replay over the first cells' own traffic.
    let mut capture = ReplicaArena::new(TraceMode::Off);
    capture.capture = true;
    let codec_cells = sizes.trace_codec_cells.min(n);
    let mut untimed = Tracer::new(Instant::now());
    for i in 0..codec_cells {
        let (obs, _) = capture.observation(&mut untimed, i, spec.cell(i));
        res.check_if_false("codec_cells_equal_arena", obs == production[i as usize]);
    }
    let frames: Vec<Vec<u8>> = capture.captured.into_iter().map(|f| f.bytes).collect();
    let untraced_cell_us = untraced_ns as f64 / n.max(1) as f64 / 1e3;
    codec_layers(layers, &frames, codec_cells as usize, untraced_cell_us);
}

/// Matrix sample: base seeds `seed + 1000·k` for k < trace_matrix_seeds
/// × 5 faults × 66 cells, replica checked against the arena; plus the
/// per-sweep aggregate and manifest costs.
fn matrix_sample(
    res: &mut RunResult,
    tr: &mut Tracer,
    layers: &mut Layers,
    seed: u64,
    sizes: Sizes,
) {
    let sweeps: Vec<(MatrixSpec, Vec<Scenario>)> = (0..sizes.trace_matrix_seeds)
        .flat_map(|k| {
            FaultVariant::ALL.into_iter().map(move |fault| {
                let spec = MatrixSpec {
                    base_seed: seed.wrapping_add(1000 * k),
                    fault,
                };
                (spec, spec.scenarios())
            })
        })
        .collect();

    let runner = FleetRunner::new(nproc());
    let mut arena = CellArena::new();
    let mut replica = ReplicaArena::new(TraceMode::Hops);
    let mut production = Vec::new();
    let (mut cell_work_ns, mut sweep_ns) = (vec![], vec![]);
    let mut untraced_ns = 0u64;
    let mut cells = Vec::new();
    let mut mismatches = 0u64;
    let mut id = 0u64;
    let (mut aggregate, mut from_fleet, mut canonical, mut kib) = (vec![], vec![], vec![], vec![]);
    let warm_at = 6 * 11;
    let mut pool_warm = 0;
    // Per sweep, alternating: the whole sweep as the gated run times it,
    // the production arena's cell work on one thread, then the traced
    // replica on the same cells.
    for (spec, scenarios) in &sweeps {
        let t = Instant::now();
        let run = runner.run(scenarios);
        black_box(RunManifest::from_fleet(spec, scenarios, &run.report).canonical());
        sweep_ns.push(t.elapsed().as_nanos() as f64);

        let t = Instant::now();
        let prod: Vec<_> = scenarios
            .iter()
            .map(|s| arena.run_with_trace(s, TraceMode::Hops))
            .collect();
        let ns = t.elapsed().as_nanos() as u64;
        cell_work_ns.push(ns as f64);
        untraced_ns += ns;

        let mut results = Vec::with_capacity(scenarios.len());
        for (s, want) in scenarios.iter().zip(&prod) {
            if id == warm_at {
                pool_warm = replica.pool_fresh_allocations();
            }
            let root = tr.begin("cell", id);
            let (r, counts) = replica.result(tr, id, s);
            tr.end(root);
            mismatches += u64::from(r != *want);
            cells.push(CellStat {
                os: s.os.name.clone(),
                fault: s.fault,
                dur_ns: tr.spans[root as usize].dur(),
                counts,
            });
            results.push(r);
            id += 1;
        }
        production.push(prod);
        let span = tr.begin("v6fleet.aggregate", id);
        let report = FleetReport::aggregate(results);
        tr.end(span);
        aggregate.push(tr.spans[span as usize].dur() as f64);
        let span = tr.begin("v6report.from_fleet", id);
        let manifest = RunManifest::from_fleet(spec, scenarios, &report);
        tr.end(span);
        from_fleet.push(tr.spans[span as usize].dur() as f64);
        let span = tr.begin("v6report.canonical", id);
        let text = manifest.canonical();
        tr.end(span);
        canonical.push(tr.spans[span as usize].dur() as f64);
        kib.push(text.len() as f64 / 1024.0);
    }
    let pool_fresh = replica.pool_fresh_allocations() - pool_warm;
    layers.set(
        "v6sim.pool_fresh_allocs_per_kcell",
        pool_fresh as f64 * 1e3 / id.saturating_sub(warm_at).max(1) as f64,
    );
    res.attempted += id;
    res.failed += mismatches;
    res.check("matrix_replica_equals_arena", mismatches == 0);
    cell_layers(res, tr, layers, &cells, untraced_ns);

    let ms = |v: &[f64]| mean(v) / 1e6;
    layers.set("v6fleet.aggregate_ms", ms(&aggregate));
    layers.set("v6report.from_fleet_ms", ms(&from_fleet));
    layers.set("v6report.canonical_ms", ms(&canonical));
    layers.set("v6report.manifest_kb", mean(&kib));
    let accounted = mean(&cell_work_ns) / nproc() as f64
        + mean(&aggregate)
        + mean(&from_fleet)
        + mean(&canonical);
    layers.set(
        "v6fleet.pool_overhead_ms",
        (median(&sweep_ns) - accounted) / 1e6,
    );
    res.diagnostics
        .push(("untraced_sweep_ms_p50".into(), median(&sweep_ns) / 1e6));

    // Codec replay over the first cells' own traffic.
    let mut capture = ReplicaArena::new(TraceMode::Hops);
    capture.capture = true;
    let mut untimed = Tracer::new(Instant::now());
    let all: Vec<(&Scenario, &v6testbed::ScenarioResult)> = sweeps
        .iter()
        .zip(&production)
        .flat_map(|((_, s), p)| s.iter().zip(p))
        .collect();
    let codec_cells = (sizes.trace_codec_cells as usize).min(all.len());
    for (i, (s, want)) in all.iter().take(codec_cells).enumerate() {
        let (r, _) = capture.result(&mut untimed, i as u64, s);
        res.check_if_false("codec_cells_equal_arena", r == **want);
    }
    let frames: Vec<Vec<u8>> = capture.captured.into_iter().map(|f| f.bytes).collect();
    let untraced_cell_us = untraced_ns as f64 / id.max(1) as f64 / 1e3;
    codec_layers(layers, &frames, codec_cells, untraced_cell_us);
}

/// Portal sample: `trace_requests` requests at the gated rate with each
/// client phase recorded as a span, the daemon's handler stages timed
/// in process on the same paths, and (for `portal_jobs`) the job
/// lifecycle as the poller saw it.
fn portal_sample(
    res: &mut RunResult,
    tr: &mut Tracer,
    layers: &mut Layers,
    seed: u64,
    sizes: Sizes,
    jobs: bool,
) -> Result<(), String> {
    let server = workloads::start_daemon()?;
    let addr = server.addr;
    let streams = Streams::new(seed, sizes);
    let run_for = Duration::from_secs_f64(sizes.trace_requests as f64 / sizes.portal_rate as f64);
    streams.close(run_for);
    let (outcomes, job_run) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sizes.portal_streams)
            .map(|w| {
                let streams = &streams;
                scope.spawn(move || (w, streams.drive(addr, w)))
            })
            .collect();
        let job_run = jobs.then(|| {
            client::sleep_until(streams.t0);
            drive_jobs(addr, seed, sizes, run_for)
        });
        let outcomes: Vec<(u64, Vec<Result<Sample, String>>)> = handles
            .into_iter()
            .map(|h| h.join().expect("client stream panicked"))
            .collect();
        (outcomes, job_run)
    });
    server.stop();

    let (mut connect, mut send, mut ttfb, mut read) = (vec![], vec![], vec![], vec![]);
    let mut paths = Vec::new();
    for (w, stream) in &outcomes {
        for outcome in stream {
            res.attempted += 1;
            let s = match outcome {
                Ok(s) => s,
                Err(e) => {
                    res.failed += 1;
                    eprintln!("request failed: {e}");
                    continue;
                }
            };
            let id = s.k * sizes.portal_streams + w;
            let p = s.phases;
            let root = tr.record("request", id, p.start, p.done, ROOT);
            tr.record("client.connect", id, p.start, p.connected, root);
            tr.record("client.send", id, p.connected, p.sent, root);
            tr.record("client.ttfb", id, p.sent, p.first_byte, root);
            tr.record("client.read", id, p.first_byte, p.done, root);
            connect.push((p.connected - p.start).as_nanos() as u64);
            send.push((p.sent - p.connected).as_nanos() as u64);
            ttfb.push((p.first_byte - p.sent).as_nanos() as u64);
            read.push((p.done - p.first_byte).as_nanos() as u64);
            paths.push(client::portal_path(client::portal_base(seed) + id));
        }
    }
    res.check("responses_match_in_process_handler", res.failed == 0);
    let ttfb_us = percentile_us(&mut ttfb, 0.50);
    layers.set("client.connect_us", percentile_us(&mut connect, 0.50));
    layers.set("client.send_us", percentile_us(&mut send, 0.50));
    layers.set("client.ttfb_us", ttfb_us);
    layers.set("client.read_us", percentile_us(&mut read, 0.50));

    // The daemon's handler stages, in process, on the same paths.
    let raws: Vec<String> = paths
        .iter()
        .map(|p| HttpRequest::format_get("localhost", p))
        .collect();
    let per_call_us = |f: &dyn Fn(usize)| {
        let passes: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                for i in 0..paths.len() {
                    f(i);
                }
                t.elapsed().as_nanos() as f64 / paths.len().max(1) as f64 / 1e3
            })
            .collect();
        median(&passes)
    };
    let parse_us = per_call_us(&|i| {
        black_box(HttpRequest::parse(black_box(raws[i].as_bytes())));
    });
    let handle_us = per_call_us(&|i| {
        black_box(v6labd::portal::handle(black_box(&paths[i])));
    });
    let bodies: Vec<(u16, String)> = paths.iter().map(|p| v6labd::portal::handle(p)).collect();
    let format_us = per_call_us(&|i| {
        black_box(format_response(bodies[i].0, black_box(&bodies[i].1)));
    });
    layers.set("v6portal.http_parse_us", parse_us);
    layers.set("v6labd.portal_handle_us", handle_us);
    layers.set("v6portal.format_response_us", format_us);
    layers.set(
        "v6labd.accept_gap_us",
        ttfb_us - (parse_us + handle_us + format_us),
    );

    if let Some(run) = job_run {
        for e in &run.errors {
            eprintln!("jobs: {e}");
        }
        res.attempted += run.jobs.len() as u64;
        res.failed += run.errors.len() as u64;
        let done = run.jobs.iter().filter(|j| j.done.is_some()).count();
        res.failed += (run.jobs.len() - done) as u64;
        res.check(
            "every_job_done",
            !run.jobs.is_empty() && done == run.jobs.len(),
        );
        let mut waits = Vec::new();
        let mut runs = Vec::new();
        for (j, job) in run.jobs.iter().enumerate() {
            let root = tr.record(
                "v6labd.job",
                j as u64,
                job.posted,
                job.done.unwrap_or(job.posted),
                ROOT,
            );
            if let (Some(running), Some(done)) = (job.running, job.done) {
                tr.record("v6labd.job_wait", j as u64, job.posted, running, root);
                tr.record("v6labd.job_run", j as u64, running, done, root);
                waits.push((running - job.posted).as_secs_f64() * 1e3);
                runs.push((done - running).as_secs_f64() * 1e3);
            }
        }
        layers.set("v6labd.job_wait_ms", mean(&waits));
        layers.set("v6labd.job_run_ms", mean(&runs));
        let manifest_ms = run.manifest.map_or(0.0, |(_, d)| d.as_secs_f64() * 1e3);
        layers.set("v6labd.manifest_get_ms", manifest_ms);
        let mut polls: Vec<u64> = run.polls.iter().map(|d| d.as_nanos() as u64).collect();
        layers.set("v6labd.poll_us", percentile_us(&mut polls, 0.50));
    }
    Ok(())
}
