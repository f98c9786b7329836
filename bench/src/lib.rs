//! # sc24-bench — the repository benchmark
//!
//! Four workloads, one per process, each sized for a small shared host:
//!
//! * `census` — the population hot path (`FleetRunner::run_population`);
//! * `matrix` — the materializing sweep path (`FleetRunner::run` plus a
//!   canonical `RunManifest` per 66-cell sweep);
//! * `portal` — the lab daemon's front door alone (`GET /portal`),
//!   driven open-loop over loopback;
//! * `portal_jobs` — the same request stream while population jobs run
//!   on the daemon's worker.
//!
//! The gated run ([`workloads`]) calls only top-level entry points, so
//! a refactor of testbed internals cannot change what it measures. The
//! traced run ([`trace`]) times calls into each layer's public functions
//! from this crate and checks, cell by cell, that its replica of the
//! production path computes the same results.

pub mod client;
pub mod compare;
pub mod registry;
pub mod replica;
pub mod result;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;

/// The default workload seed: the seed every committed golden under
/// `reports/` was generated from.
pub const DEFAULT_SEED: u64 = v6report::CANONICAL_BASE_SEED;

/// The benchmark package directory (holds `out/`).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The repository root (holds `reports/` and `BENCHMARK.json`).
pub fn repo_root() -> PathBuf {
    bench_dir().join("..")
}

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One benchmark invocation, as parsed from the command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name (one of [`registry::WORKLOADS`]).
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured duration of a gated run, in seconds.
    pub seconds: f64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
    /// Run at 1 % of the normal sizes (every check stays on).
    pub smoke: bool,
    /// Only set the workload up, print `ready` and exit: the child
    /// process a gated run times for `setup_s`.
    pub setup_probe: bool,
    /// Where result and span files go.
    pub out: PathBuf,
}

/// Fixed work-unit sizes. A result records them, and `compare`
/// refuses to compare results whose sizes differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Cells per census repetition (the golden census has 100,000).
    pub census_rep_cells: u64,
    /// Shards per census repetition: `CANONICAL_POPULATION_SHARDS`, as
    /// every production caller of `run_population` uses.
    pub census_shards: u64,
    /// Offered portal load, requests per second, over all streams.
    pub portal_rate: u64,
    /// Open-loop client streams.
    pub portal_streams: u64,
    /// Cells per population job in `portal_jobs`.
    pub job_cells: u64,
    /// Jobs kept queued or running on the daemon at once.
    pub jobs_in_flight: u64,
    /// Cells the traced census replica runs.
    pub trace_census_cells: u64,
    /// Base seeds the traced matrix replica sweeps (× 5 faults × 66).
    pub trace_matrix_seeds: u64,
    /// Requests the traced portal runs time.
    pub trace_requests: u64,
    /// Cells whose captured frames feed the codec replay.
    pub trace_codec_cells: u64,
    /// Cells of job 0 the traced `portal_jobs` replica runs.
    pub trace_job_cells: u64,
}

impl Sizes {
    /// Normal sizes, or 1 % of them for `--smoke`.
    pub fn new(smoke: bool) -> Sizes {
        let s = |n: u64| if smoke { (n / 100).max(1) } else { n };
        Sizes {
            census_rep_cells: s(100_000),
            census_shards: v6report::CANONICAL_POPULATION_SHARDS as u64,
            portal_rate: 500,
            portal_streams: 2,
            job_cells: s(10_000),
            jobs_in_flight: 2,
            trace_census_cells: s(20_000),
            trace_matrix_seeds: if smoke { 1 } else { 10 },
            trace_requests: s(2_000),
            trace_codec_cells: s(200),
            trace_job_cells: s(5_000),
        }
    }

    /// The sizes as named pairs, for result files.
    pub fn pairs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("census_rep_cells", self.census_rep_cells),
            ("census_shards", self.census_shards),
            ("portal_rate", self.portal_rate),
            ("portal_streams", self.portal_streams),
            ("job_cells", self.job_cells),
            ("jobs_in_flight", self.jobs_in_flight),
            ("trace_census_cells", self.trace_census_cells),
            ("trace_matrix_seeds", self.trace_matrix_seeds),
            ("trace_requests", self.trace_requests),
            ("trace_codec_cells", self.trace_codec_cells),
            ("trace_job_cells", self.trace_job_cells),
        ]
    }
}

/// Run `cfg` (gated or traced), print its report with the one-line
/// JSON result last, and write its result file under `cfg.out`. Returns
/// the process exit code: 0 only when every check held.
pub fn run_and_report(cfg: &RunConfig) -> i32 {
    if cfg.setup_probe {
        return match workloads::setup_probe(cfg) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("sc24-bench: {e}");
                2
            }
        };
    }
    let outcome = if cfg.trace {
        trace::run(cfg)
    } else {
        workloads::run(cfg)
    };
    let res = match outcome {
        Ok(res) => res,
        Err(e) => {
            eprintln!("sc24-bench: {e}");
            return 2;
        }
    };
    print!("{}", res.report());
    if let Err(e) = res.write(&cfg.out) {
        eprintln!("sc24-bench: write result under {}: {e}", cfg.out.display());
        return 2;
    }
    println!("{}", res.result_line());
    if res.correct() {
        0
    } else {
        1
    }
}

impl RunConfig {
    /// Parse `--workload W [--seed N] [--seconds S] [--trace 0|1]
    /// [--smoke] [--setup-probe] [--out DIR]`. The workload name is
    /// checked by the run.
    pub fn from_args(args: &[String]) -> Result<RunConfig, String> {
        let mut cfg = RunConfig {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            smoke: false,
            setup_probe: false,
            out: bench_dir().join("out").join("last"),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => cfg.workload = value()?.clone(),
                "--seed" => cfg.seed = parse_seed(value()?)?,
                "--seconds" => {
                    cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    cfg.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--smoke" => cfg.smoke = true,
                "--setup-probe" => cfg.setup_probe = true,
                "--out" => cfg.out = PathBuf::from(value()?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        Ok(cfg)
    }
}

/// Parse a seed written in decimal or as `0x…` hex.
pub fn parse_seed(text: &str) -> Result<u64, String> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    }
    .map_err(|e| format!("bad seed {text:?}: {e}"))
}
