//! The gated runs. Each calls only top-level entry points —
//! `FleetRunner`, `RunManifest`, `CellArena`, and `LabServer` over HTTP —
//! so a refactor of testbed internals cannot change what they measure.

use std::hint::black_box;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use v6fleet::{run_serial, FleetRunner, PopulationSpec};
use v6labd::{LabServer, ServerConfig};
use v6report::{fnv1a, Json, MatrixSpec, RunManifest, CANONICAL_POPULATION_SIZE};
use v6testbed::scenario::FaultVariant;
use v6testbed::{os_profiles, CellArena, PoisonVariant, TopologyVariant, TraceMode};

use crate::client::{self, Sample, Schedule};
use crate::result::RunResult;
use crate::stats::{median, percentile_us};
use crate::{nproc, peak_rss_mb, repo_root, RunConfig, Sizes, DEFAULT_SEED};

/// Fresh processes a gated run sets up; `setup_s` is the median of
/// their set-up times.
const SETUP_PROCESSES: usize = 11;

/// Run the gated measurement of `cfg.workload`.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    match cfg.workload.as_str() {
        "census" => census(cfg),
        "matrix" => matrix(cfg),
        "portal" => portal(cfg, false),
        "portal_jobs" => portal(cfg, true),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// `--setup-probe`: in this (fresh) process, do what `cfg.workload`
/// does before its first timed operation, print `ready`, then tear
/// down.
pub fn setup_probe(cfg: &RunConfig) -> Result<(), String> {
    let sizes = Sizes::new(cfg.smoke);
    let server = match cfg.workload.as_str() {
        "census" => {
            warm_arena(cfg.seed, sizes.census_rep_cells, TraceMode::Off);
            None
        }
        "matrix" => {
            warm_arena(cfg.seed, 1, TraceMode::Hops);
            None
        }
        "portal" | "portal_jobs" => Some(start_daemon()?),
        other => return Err(format!("unknown workload {other:?}")),
    };
    println!("ready");
    if let Some(server) = server {
        server.stop();
    }
    Ok(())
}

/// `setup_s`: the median over [`SETUP_PROCESSES`] fresh processes of
/// the time from spawning one to its `ready` line. Each pays the
/// one-time initialization a warm process has behind it: process start,
/// the profile table and zone memos, the cold testbed builds, or the
/// daemon's start up to its first `GET /health` 200.
fn fresh_setup_s(cfg: &RunConfig) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut times = Vec::with_capacity(SETUP_PROCESSES);
    for _ in 0..SETUP_PROCESSES {
        let start = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--setup-probe", "--workload", &cfg.workload])
            .args(["--seed", &cfg.seed.to_string()])
            .args(cfg.smoke.then_some("--smoke"))
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn set-up probe: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        let elapsed = start.elapsed().as_secs_f64();
        let status = child
            .wait()
            .map_err(|e| format!("wait for set-up probe: {e}"))?;
        if read.is_err() || line.trim_end() != "ready" || !status.success() {
            return Err(format!("set-up probe failed ({status}): {line:?}"));
        }
        times.push(elapsed);
    }
    Ok(median(&times))
}

fn seconds(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

/// The committed golden `reports/<stem>.json`, if present.
fn golden(stem: &str) -> Option<String> {
    std::fs::read_to_string(repo_root().join("reports").join(format!("{stem}.json"))).ok()
}

/// Bring a fresh arena to its warm state: the spec, the profile table,
/// and one cold cell per build configuration — the work every fleet
/// worker does before its first recycled cell.
fn warm_arena(seed: u64, size: u64, mode: TraceMode) {
    let spec = PopulationSpec::paper_default(seed, size.max(1));
    black_box(os_profiles());
    let mut arena = CellArena::new();
    for topology in TopologyVariant::ALL {
        for poison in PoisonVariant::ALL {
            let mut cell = spec.cell(0);
            cell.topology = topology;
            cell.poison = poison;
            match mode {
                TraceMode::Off => {
                    black_box(arena.run_observation(cell));
                }
                _ => {
                    black_box(arena.run_with_trace(&cell.to_scenario(), mode));
                }
            }
        }
    }
}

/// `census`: repetitions of `run_population` over 100,000-cell samples
/// of the paper-default mix (seeds `seed + r`) in the canonical eight
/// shards, until the time is up. Its latency is one whole repetition:
/// the wait for a 100,000-cell census answer.
fn census(cfg: &RunConfig) -> Result<RunResult, String> {
    let sizes = Sizes::new(cfg.smoke);
    let threads = nproc();
    let mut res = RunResult::new(cfg, threads);
    let setup = fresh_setup_s(cfg)?;
    // Keep the one-time initialization `setup_s` covers out of the
    // timed region.
    warm_arena(cfg.seed, sizes.census_rep_cells, TraceMode::Off);

    let runner = FleetRunner::new(threads);
    let mut rep_ns = Vec::new();
    let mut cells = 0u64;
    let start = Instant::now();
    let mut rep = 0u64;
    while rep == 0 || start.elapsed() < seconds(cfg.seconds) {
        let spec =
            PopulationSpec::paper_default(cfg.seed.wrapping_add(rep), sizes.census_rep_cells);
        let t = Instant::now();
        let run = runner.run_population(&spec, sizes.census_shards as usize);
        rep_ns.push(t.elapsed().as_nanos() as u64);

        let folded = run.report.sketch.census.associated as u64;
        cells += spec.size;
        res.failed += spec.size.saturating_sub(folded);
        res.check(format!("rep{rep}.folds_every_cell"), folded == spec.size);
        res.digests.push((
            format!("rep{rep}.report"),
            format!("{:016x}", run.report.digest()),
        ));
        if rep == 0 && cfg.seed == DEFAULT_SEED && spec.size == CANONICAL_POPULATION_SIZE {
            let manifest = RunManifest::from_population(&spec, &run.report).canonical();
            let want = golden(&format!("population_{}k", CANONICAL_POPULATION_SIZE / 1000));
            res.check(
                "golden.population_100k",
                want.as_deref() == Some(manifest.as_str()),
            );
        }
        rep += 1;
    }
    res.attempted = cells;
    res.diagnostics.push(("reps".into(), rep as f64));
    let timed_s: f64 = rep_ns.iter().map(|&ns| ns as f64 / 1e9).sum();
    res.metric("throughput_per_s", cells as f64 / timed_s, "1/s");
    res.metric("latency_us_p50", percentile_us(&mut rep_ns, 0.50), "us");
    res.metric("latency_us_p95", percentile_us(&mut rep_ns, 0.95), "us");
    res.metric("setup_s", setup, "s");
    res.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    Ok(res)
}

/// `matrix`: for k = 0, 1, … and every fault, one 66-cell sweep at base
/// seed `seed + 1000·k` through `FleetRunner::run`, then its canonical
/// manifest — the path `v6report emit` and daemon matrix jobs take. One
/// operation is one sweep including its manifest.
fn matrix(cfg: &RunConfig) -> Result<RunResult, String> {
    let threads = nproc();
    let mut res = RunResult::new(cfg, threads);
    let setup = fresh_setup_s(cfg)?;
    warm_arena(cfg.seed, 1, TraceMode::Hops);

    let runner = FleetRunner::new(threads);
    let mut sweep_ns = Vec::new();
    let mut cells = 0u64;
    let mut first = Vec::new();
    let start = Instant::now();
    let mut k = 0u64;
    while k == 0 || start.elapsed() < seconds(cfg.seconds) {
        for fault in FaultVariant::ALL {
            let spec = MatrixSpec {
                base_seed: cfg.seed.wrapping_add(1000 * k),
                fault,
            };
            let t = Instant::now();
            let scenarios = spec.scenarios();
            let run = runner.run(&scenarios);
            let text = RunManifest::from_fleet(&spec, &scenarios, &run.report).canonical();
            sweep_ns.push(t.elapsed().as_nanos() as u64);
            cells += scenarios.len() as u64;
            res.attempted += 1;
            if run.report.results.len() != scenarios.len() {
                res.failed += 1;
            }
            if k == 0 {
                first.push((spec, scenarios, run.report, text));
            } else {
                black_box(text);
            }
        }
        k += 1;
    }
    let timed_s: f64 = sweep_ns.iter().map(|&ns| ns as f64 / 1e9).sum();

    // Untimed checks on the k = 0 sweeps.
    for (spec, scenarios, report, text) in &first {
        let label = spec.fault.label();
        res.digests
            .push((format!("k0.{label}"), format!("{:016x}", fnv1a(text))));
        res.check(
            format!("k0.{label}.warm_equals_cold"),
            *report == run_serial(scenarios),
        );
        if cfg.seed == DEFAULT_SEED {
            let want = golden(&spec.file_stem());
            res.check(
                format!("golden.{}", spec.file_stem()),
                want.as_deref() == Some(text.as_str()),
            );
        }
    }
    res.diagnostics
        .push(("sweeps".into(), sweep_ns.len() as f64));
    res.metric("throughput_per_s", cells as f64 / timed_s, "1/s");
    res.metric("latency_us_p50", percentile_us(&mut sweep_ns, 0.50), "us");
    res.metric("latency_us_p95", percentile_us(&mut sweep_ns, 0.95), "us");
    res.metric("setup_s", setup, "s");
    res.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    Ok(res)
}

/// The daemon as both portal workloads run it: simulation threads
/// `max(1, nproc - 1)`, one job worker.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        port: 0,
        threads: nproc().saturating_sub(1).max(1),
        workers: 1,
        cron: Vec::new(),
    }
}

/// Start the daemon and wait until `GET /health` answers 200.
pub fn start_daemon() -> Result<LabServer, String> {
    let server = LabServer::start(server_config()).map_err(|e| format!("daemon: {e}"))?;
    client::wait_healthy(server.addr)?;
    Ok(server)
}

/// Sentinel for "no end time set yet" in [`Streams::end_ns`].
const OPEN_END: u64 = u64::MAX;

/// The open-loop request streams of one portal run.
pub struct Streams {
    /// Time zero of the schedule.
    pub t0: Instant,
    /// Requests due after this many ns past `t0` are not sent.
    pub end_ns: AtomicU64,
    /// First client index.
    pub base: u64,
    /// Stream count and total rate.
    pub sizes: Sizes,
}

impl Streams {
    /// Streams starting shortly from now.
    pub fn new(seed: u64, sizes: Sizes) -> Streams {
        Streams {
            t0: Instant::now() + Duration::from_millis(20),
            end_ns: AtomicU64::new(OPEN_END),
            base: client::portal_base(seed),
            sizes,
        }
    }

    /// Stop sending requests due after `after` past `t0`.
    pub fn close(&self, after: Duration) {
        self.end_ns.store(after.as_nanos() as u64, Ordering::SeqCst);
    }

    /// Run stream `w` to its end: every request's outcome, in order.
    pub fn drive(&self, addr: SocketAddr, w: u64) -> Vec<Result<Sample, String>> {
        let sched = Schedule {
            t0: self.t0,
            rate_per_stream: self.sizes.portal_rate as f64 / self.sizes.portal_streams as f64,
            stream: w,
            streams: self.sizes.portal_streams,
        };
        let mut out = Vec::new();
        for k in 0.. {
            let due_ns = (sched.due(k) - self.t0).as_nanos() as u64;
            if due_ns > self.end_ns.load(Ordering::SeqCst) {
                break;
            }
            out.push(client::scheduled_portal_get(addr, &sched, self.base, k));
        }
        out
    }
}

/// One population job as `portal_jobs` tracks it.
#[derive(Debug, Clone)]
pub struct JobTrack {
    /// Daemon job id.
    pub id: u64,
    /// When it was posted.
    pub posted: Instant,
    /// First poll that read `running` (or `done`).
    pub running: Option<Instant>,
    /// First poll that read `done`.
    pub done: Option<Instant>,
}

/// The population seed of job `j` of a run.
pub fn job_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_add(100 + j)
}

/// `POST /jobs` a population job.
pub fn post_job(addr: SocketAddr, seed: u64, cells: u64) -> Result<JobTrack, String> {
    let body = format!(r#"{{"kind":"population","size":{cells},"seed":{seed}}}"#);
    let posted = Instant::now();
    let x = client::post(addr, "/jobs", &body)?;
    let id = match Json::parse(&x.body).ok().and_then(|v| v.get("id").cloned()) {
        Some(Json::U64(id)) if x.status == 202 => id,
        _ => return Err(format!("POST /jobs: status {} body {}", x.status, x.body)),
    };
    Ok(JobTrack {
        id,
        posted,
        running: None,
        done: None,
    })
}

/// `GET /jobs/:id` and update `job`; returns the request's latency.
pub fn poll_job(addr: SocketAddr, job: &mut JobTrack) -> Result<Duration, String> {
    let x = client::get(addr, &format!("/jobs/{}", job.id))?;
    let status = Json::parse(&x.body)
        .ok()
        .and_then(|v| match v.get("status") {
            Some(Json::Str(s)) => Some(s.clone()),
            _ => None,
        })
        .ok_or_else(|| format!("GET /jobs/{}: status {} body {}", job.id, x.status, x.body))?;
    let now = x.phases.done;
    if status != "queued" && job.running.is_none() {
        job.running = Some(now);
    }
    if status == "done" && job.done.is_none() {
        job.done = Some(now);
    }
    Ok(x.phases.done - x.phases.start)
}

/// What `portal_jobs` saw of its jobs.
pub struct JobRun {
    /// Every job posted, in order.
    pub jobs: Vec<JobTrack>,
    /// Job 0's manifest as fetched, and how long the fetch took.
    pub manifest: Option<(String, Duration)>,
    /// Latency of each status poll.
    pub polls: Vec<Duration>,
    /// Errors posting or polling jobs (each fails the run).
    pub errors: Vec<String>,
}

/// Keep `jobs_in_flight` population jobs queued or running, polling
/// every 50 ms, until `run_for` has passed and every posted job is done.
pub fn drive_jobs(addr: SocketAddr, seed: u64, sizes: Sizes, run_for: Duration) -> JobRun {
    let start = Instant::now();
    let mut run = JobRun {
        jobs: Vec::new(),
        manifest: None,
        polls: Vec::new(),
        errors: Vec::new(),
    };
    let mut tick = start;
    while run.errors.is_empty() {
        let in_flight = run.jobs.iter().filter(|j| j.done.is_none()).count() as u64;
        if start.elapsed() < run_for && in_flight < sizes.jobs_in_flight {
            match post_job(addr, job_seed(seed, run.jobs.len() as u64), sizes.job_cells) {
                Ok(job) => run.jobs.push(job),
                Err(e) => run.errors.push(e),
            }
            continue;
        }
        if start.elapsed() >= run_for && in_flight == 0 {
            break;
        }
        if start.elapsed() > run_for + Duration::from_secs(120) {
            run.errors.push("jobs did not finish within 120 s".into());
            break;
        }
        tick += Duration::from_millis(50);
        client::sleep_until(tick);
        for job in run.jobs.iter_mut().filter(|j| j.done.is_none()) {
            match poll_job(addr, job) {
                Ok(latency) => run.polls.push(latency),
                Err(e) => run.errors.push(e),
            }
        }
        if run.manifest.is_none() && run.jobs.first().is_some_and(|j| j.done.is_some()) {
            let path = format!("/jobs/{}/manifest", run.jobs[0].id);
            match client::get(addr, &path) {
                Ok(x) if x.status == 200 => {
                    run.manifest = Some((x.body, x.phases.done - x.phases.start))
                }
                Ok(x) => run.errors.push(format!("GET {path}: status {}", x.status)),
                Err(e) => run.errors.push(e),
            }
        }
    }
    run
}

/// `portal` and `portal_jobs`: open-loop `GET /portal?client=N` from
/// `portal_streams` threads at `portal_rate` requests per second in
/// total; with `jobs`, population jobs run on the daemon meanwhile. One
/// operation is one request (portal) or one job cell (throughput of
/// portal_jobs).
fn portal(cfg: &RunConfig, jobs: bool) -> Result<RunResult, String> {
    let sizes = Sizes::new(cfg.smoke);
    let setup = fresh_setup_s(cfg)?;
    let server = start_daemon()?;
    let mut res = RunResult::new(cfg, server_config().threads);
    let addr = server.addr;
    let streams = Streams::new(cfg.seed, sizes);
    if !jobs {
        streams.close(seconds(cfg.seconds));
    }
    let (outcomes, job_run) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sizes.portal_streams)
            .map(|w| {
                let streams = &streams;
                scope.spawn(move || streams.drive(addr, w))
            })
            .collect();
        let job_run = jobs.then(|| {
            client::sleep_until(streams.t0);
            let run = drive_jobs(addr, cfg.seed, sizes, seconds(cfg.seconds));
            streams.close(streams.t0.elapsed().max(seconds(cfg.seconds)));
            run
        });
        let outcomes: Vec<Result<Sample, String>> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client stream panicked"))
            .collect();
        (outcomes, job_run)
    });
    server.stop();

    let mut latency = Vec::new();
    let mut lateness = Vec::new();
    let mut last_done = streams.t0;
    for outcome in &outcomes {
        res.attempted += 1;
        match outcome {
            Ok(s) => {
                latency.push(s.latency_ns);
                lateness.push(s.lateness_ns);
                last_done = last_done.max(s.phases.done);
            }
            Err(e) => {
                res.failed += 1;
                if res.failed <= 3 {
                    eprintln!("request failed: {e}");
                }
            }
        }
    }
    res.check("responses_match_in_process_handler", res.failed == 0);
    res.diagnostics.push((
        "send_lateness_us_p99".into(),
        percentile_us(&mut lateness, 0.99),
    ));
    res.diagnostics
        .push(("requests".into(), outcomes.len() as f64));

    let throughput = match job_run {
        None => latency.len() as f64 / (last_done - streams.t0).as_secs_f64(),
        Some(run) => job_checks(&mut res, cfg.seed, sizes, run),
    };
    res.metric("throughput_per_s", throughput, "1/s");
    res.metric("latency_us_p50", percentile_us(&mut latency, 0.50), "us");
    res.metric("latency_us_p95", percentile_us(&mut latency, 0.95), "us");
    res.metric("setup_s", setup, "s");
    res.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    Ok(res)
}

/// Account for the jobs of a `portal_jobs` run and check job 0's
/// manifest against the batch path (untimed). Returns job cells per
/// second from the first POST to the last `done`.
fn job_checks(res: &mut RunResult, seed: u64, sizes: Sizes, run: JobRun) -> f64 {
    for e in &run.errors {
        eprintln!("jobs: {e}");
    }
    res.attempted += run.jobs.len() as u64;
    let done: Vec<&JobTrack> = run.jobs.iter().filter(|j| j.done.is_some()).collect();
    res.failed += (run.jobs.len() - done.len()) as u64 + run.errors.len() as u64;
    res.check(
        "every_job_done",
        !run.jobs.is_empty() && done.len() == run.jobs.len(),
    );
    let want = RunManifest::run_population(
        &PopulationSpec::paper_default(job_seed(seed, 0), sizes.job_cells),
        1,
    )
    .canonical();
    let fetched = run.manifest.as_ref().map(|(body, _)| body.as_str());
    res.check("job0_manifest_equals_batch", fetched == Some(want.as_str()));
    res.digests
        .push(("job0.manifest".into(), format!("{:016x}", fnv1a(&want))));
    res.diagnostics.push(("jobs".into(), run.jobs.len() as f64));
    let first_post = run.jobs.iter().map(|j| j.posted).min();
    let last_done = done.iter().filter_map(|j| j.done).max();
    match (first_post, last_done) {
        (Some(a), Some(b)) if b > a => {
            (done.len() as u64 * sizes.job_cells) as f64 / (b - a).as_secs_f64()
        }
        _ => 0.0,
    }
}
