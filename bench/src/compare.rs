//! `sc24-bench compare <dirA> <dirB>`: medians and quartiles of every
//! workload × end-to-end metric over two sets of gated results, with a
//! verdict against the bounds `BENCHMARK.json` declares.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use v6report::Json;

use crate::registry::Better;
use crate::stats::{median, quartiles};

/// A metric's declared direction and bound, as read from
/// `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Improvement direction.
    pub better: Better,
    /// Largest tolerated worsening, as a share of A's median.
    pub bound: f64,
}

/// Read the `end_to_end` bounds from a `BENCHMARK.json`.
pub fn read_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    let Some(Json::Arr(items)) = doc.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    items
        .iter()
        .map(|m| {
            let name = match m.get("name") {
                Some(Json::Str(s)) => s.clone(),
                _ => return Err("end_to_end entry without a name".to_string()),
            };
            let better = match m.get("better") {
                Some(Json::Str(s)) if s == "higher" => Better::Higher,
                Some(Json::Str(s)) if s == "lower" => Better::Lower,
                _ => return Err(format!("{name}: better must be higher or lower")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_number)
                .ok_or_else(|| format!("{name}: no numeric bound"))?;
            Ok(Bound {
                name,
                better,
                bound,
            })
        })
        .collect()
}

/// One gated result file, as far as `compare` needs it.
#[derive(Debug, Clone)]
pub struct ResultFile {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Host processors.
    pub nproc: u64,
    /// Threads used.
    pub threads: u64,
    /// Work-unit sizes, canonical JSON.
    pub sizes: String,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

fn parse_result(text: &str) -> Result<Option<ResultFile>, String> {
    let v = Json::parse(text)?;
    if matches!(v.get("trace"), Some(Json::Bool(true))) {
        return Ok(None);
    }
    let u = |key: &str| match v.get(key) {
        Some(Json::U64(n)) => Ok(*n),
        _ => Err(format!("missing integer {key:?}")),
    };
    let workload = match v.get("workload") {
        Some(Json::Str(s)) => s.clone(),
        _ => return Err("missing \"workload\"".into()),
    };
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(map)) = v.get("metrics") {
        for (name, m) in map {
            if let Some(x) = m.get("value").and_then(Json::as_number) {
                metrics.insert(name.clone(), x);
            }
        }
    }
    Ok(Some(ResultFile {
        workload,
        seed: u("seed")?,
        nproc: u("nproc")?,
        threads: u("threads")?,
        sizes: v.get("sizes").map(Json::canonical).unwrap_or_default(),
        attempted: u("attempted")?,
        failed: u("failed")?,
        metrics,
    }))
}

/// Every gated result file (`*.json` with `"trace": false`) in `dir`.
pub fn load_dir(dir: &Path) -> Result<Vec<ResultFile>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|e| e == "json") && !is_span_file(&path) {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            if let Some(r) = parse_result(&text).map_err(|e| format!("{}: {e}", path.display()))? {
                out.push(r);
            }
        }
    }
    Ok(out)
}

fn is_span_file(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with("trace-"))
}

/// How B compares with A on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B better than A by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// B worse than A by more than the bound.
    Worse,
    /// The run-to-run spread exceeds the bound, so neither is shown.
    Unresolved,
}

impl Verdict {
    /// Lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one set.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values).unwrap_or((median(values), median(values)));
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Set A.
    pub a: Summary,
    /// Set B.
    pub b: Summary,
    /// Worsening of B's median, as a share of A's (negative: better).
    pub worsening: f64,
    /// The metric's bound.
    pub bound: f64,
    /// Outcome.
    pub verdict: Verdict,
}

/// The verdict for B against A under `bound`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Row {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worsening = sign * (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE);
    let b_always_better = a.iter().all(|&x| b.iter().all(|&y| sign * (y - x) < 0.0));
    let verdict = if sa.spread().max(sb.spread()) > bound {
        if b_always_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Row {
        workload: String::new(),
        metric: String::new(),
        a: sa,
        b: sb,
        worsening,
        bound,
        verdict,
    }
}

/// The whole comparison.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// One row per workload × metric present in both sets.
    pub rows: Vec<Row>,
    /// Workloads whose failed share rose from A to B.
    pub fail_increases: Vec<String>,
}

impl Comparison {
    /// No metric worse and no failure increase.
    pub fn ok(&self) -> bool {
        self.fail_increases.is_empty() && self.rows.iter().all(|r| r.verdict != Verdict::Worse)
    }

    /// The printed table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:<18} {:>44} {:>44} {:>9} {:>6}  verdict",
            "workload",
            "metric",
            "A median [q1, q3] (n)",
            "B median [q1, q3] (n)",
            "change",
            "bound"
        );
        let cell = |s: &Summary| format!("{:.4} [{:.4}, {:.4}] ({})", s.median, s.q1, s.q3, s.n);
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<12} {:<18} {:>44} {:>44} {:>+8.2}% {:>5.1}%  {}",
                r.workload,
                r.metric,
                cell(&r.a),
                cell(&r.b),
                r.worsening * 100.0,
                r.bound * 100.0,
                r.verdict.label()
            );
        }
        for w in &self.fail_increases {
            let _ = writeln!(out, "FAIL {w}: failed share of operations increased");
        }
        out
    }
}

fn fail_frac(set: &[&ResultFile]) -> f64 {
    let failed: u64 = set.iter().map(|r| r.failed).sum();
    let attempted: u64 = set.iter().map(|r| r.attempted).sum();
    failed as f64 / attempted.max(1) as f64
}

/// Compare set B against set A. Refuses sets that differ, per
/// workload, in processors, threads, sizes or seeds.
pub fn compare(a: &[ResultFile], b: &[ResultFile], bounds: &[Bound]) -> Result<Comparison, String> {
    let workloads: Vec<&str> = {
        let mut w: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
        w.sort_unstable();
        w.dedup();
        w
    };
    let mut out = Comparison::default();
    for w in workloads {
        let sa: Vec<&ResultFile> = a.iter().filter(|r| r.workload == w).collect();
        let sb: Vec<&ResultFile> = b.iter().filter(|r| r.workload == w).collect();
        if sb.is_empty() {
            return Err(format!("{w}: no results in B"));
        }
        let shape = |r: &ResultFile| (r.nproc, r.threads, r.sizes.clone());
        if let Some(odd) = sa.iter().chain(&sb).find(|r| shape(r) != shape(sa[0])) {
            return Err(format!(
                "{w}: results differ in nproc/threads/sizes ({:?} vs {:?}); refusing to compare",
                shape(sa[0]),
                shape(odd)
            ));
        }
        let seeds = |s: &[&ResultFile]| {
            let mut v: Vec<u64> = s.iter().map(|r| r.seed).collect();
            v.sort_unstable();
            v
        };
        if seeds(&sa) != seeds(&sb) {
            return Err(format!(
                "{w}: the two sets ran different seeds; refusing to compare"
            ));
        }
        if fail_frac(&sb) > fail_frac(&sa) {
            out.fail_increases.push(w.to_string());
        }
        for bound in bounds {
            let values = |s: &[&ResultFile]| -> Vec<f64> {
                s.iter()
                    .filter_map(|r| r.metrics.get(&bound.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&sa), values(&sb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let mut row = verdict(&va, &vb, bound.better, bound.bound);
            row.workload = w.to_string();
            row.metric = bound.name.clone();
            out.rows.push(row);
        }
    }
    Ok(out)
}

/// `compare` over two result directories and a `BENCHMARK.json`.
pub fn compare_dirs(dir_a: &Path, dir_b: &Path, benchmark: &Path) -> Result<Comparison, String> {
    let bounds = read_bounds(benchmark)?;
    let a = load_dir(dir_a)?;
    let b = load_dir(dir_b)?;
    if a.is_empty() {
        return Err(format!("{}: no gated results", dir_a.display()));
    }
    compare(&a, &b, &bounds)
}
