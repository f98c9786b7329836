//! One run's result: the printed report, the one-line JSON printed
//! last on stdout, and the result file `compare` reads back.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::{nproc, RunConfig, Sizes};

/// Everything one run measured and checked.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Logical processors of the host.
    pub nproc: usize,
    /// Simulation threads the workload used.
    pub threads: usize,
    /// Fixed work-unit sizes.
    pub sizes: Sizes,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, String)>,
    /// Operations attempted (cells, sweeps, requests, jobs).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Named output checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Named digests of what the run computed.
    pub digests: Vec<(String, String)>,
    /// Values recorded for diagnosis only; never gated.
    pub diagnostics: Vec<(String, f64)>,
}

impl RunResult {
    /// An empty result for `cfg`.
    pub fn new(cfg: &RunConfig, threads: usize) -> RunResult {
        RunResult {
            workload: cfg.workload.clone(),
            seed: cfg.seed,
            trace: cfg.trace,
            nproc: nproc(),
            threads,
            sizes: Sizes::new(cfg.smoke),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            digests: Vec::new(),
            diagnostics: Vec::new(),
        }
    }

    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Record a check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Count a failed operation and record check `name` as failed, the
    /// first time `ok` is false.
    pub(crate) fn check_if_false(&mut self, name: &str, ok: bool) {
        if !ok && !self.checks.iter().any(|(n, _)| n == name) {
            self.failed += 1;
            self.check(name, false);
        }
    }

    /// Every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Failed / attempted operations.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable report: checks, digests, then one
    /// `name value unit` line per metric.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for (name, ok) in &self.checks {
            let _ = writeln!(out, "check {name} {}", if *ok { "ok" } else { "FAILED" });
        }
        for (name, value) in &self.digests {
            let _ = writeln!(out, "digest {name} {value}");
        }
        for (name, value) in &self.diagnostics {
            let _ = writeln!(out, "diagnostic {name} {value}");
        }
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "{name} {value} {unit}");
        }
        let _ = writeln!(
            out,
            "attempted {} failed {} fail_frac {}",
            self.attempted,
            self.failed,
            self.fail_frac()
        );
        out
    }

    fn metrics_json(&self) -> String {
        let items: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    number(*value),
                    quote(unit)
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }

    /// The one-line JSON object printed last on stdout: `correct`,
    /// `attempted`, `failed` and every metric with its unit.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The result file: the result line's fields plus everything
    /// `compare` needs to refuse an unfair comparison.
    fn file_json(&self) -> String {
        let pairs = |items: Vec<String>| format!("{{{}}}", items.join(", "));
        let sizes = pairs(
            self.sizes
                .pairs()
                .iter()
                .map(|(k, v)| format!("{}: {v}", quote(k)))
                .collect(),
        );
        let checks = pairs(
            self.checks
                .iter()
                .map(|(k, ok)| format!("{}: {ok}", quote(k)))
                .collect(),
        );
        let digests = pairs(
            self.digests
                .iter()
                .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
                .collect(),
        );
        let diagnostics = pairs(
            self.diagnostics
                .iter()
                .map(|(k, v)| format!("{}: {}", quote(k), number(*v)))
                .collect(),
        );
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {}, \"threads\": {}, \
             \"sizes\": {sizes}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"fail_frac\": {}, \"checks\": {checks}, \"digests\": {digests}, \
             \"diagnostics\": {diagnostics}, \"metrics\": {}}}\n",
            quote(&self.workload),
            self.seed,
            self.trace,
            self.nproc,
            self.threads,
            self.correct(),
            self.attempted,
            self.failed,
            number(self.fail_frac()),
            self.metrics_json()
        )
    }

    /// Write the result file as `<workload>-<gated|trace>-seed<N>.json`
    /// under `dir`.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let kind = if self.trace { "trace" } else { "gated" };
        let path = dir.join(format!("{}-{kind}-seed{}.json", self.workload, self.seed));
        std::fs::write(&path, self.file_json())?;
        Ok(path)
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of the measurement (shortest
/// round-trip form). Non-finite values, which JSON cannot hold, are
/// written as 0 — no metric path produces one.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
