//! `compare`: identical sets are "same", a throughput drop beyond the
//! bound is "worse", wide overlapping spreads are "unresolved", and unfair
//! comparisons are refused.

use std::path::PathBuf;

use sc24_bench::compare::{compare, compare_dirs, load_dir, Verdict};
use sc24_bench::result::RunResult;
use sc24_bench::{repo_root, RunConfig};

/// Ten gated census results; metric `throughput_per_s` is
/// `base * (1 + jitter_i)` with jitter spread over ±`spread`/2.
fn set(base: f64, spread: f64, nproc: usize) -> Vec<RunResult> {
    (0..10u64)
        .map(|seed| {
            let cfg = RunConfig {
                workload: "census".into(),
                seed,
                seconds: 10.0,
                trace: false,
                smoke: false,
                setup_probe: false,
                out: PathBuf::new(),
            };
            let mut r = RunResult::new(&cfg, 2);
            r.nproc = nproc;
            r.attempted = 1000;
            let jitter = spread * (seed as f64 / 9.0 - 0.5);
            r.metric("throughput_per_s", base * (1.0 + jitter), "1/s");
            r.metric("latency_us_p50", 100.0 * (1.0 + jitter / 10.0), "us");
            r
        })
        .collect()
}

fn dir(name: &str, results: &[RunResult]) -> PathBuf {
    let d = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&d);
    for r in results {
        r.write(&d).expect("write result");
    }
    d
}

fn verdicts(a: &[RunResult], b: &[RunResult], name: &str) -> Vec<(String, Verdict)> {
    let da = dir(&format!("{name}-a"), a);
    let db = dir(&format!("{name}-b"), b);
    let c = compare_dirs(&da, &db, &repo_root().join("BENCHMARK.json")).expect("comparable");
    c.rows.into_iter().map(|r| (r.metric, r.verdict)).collect()
}

#[test]
fn identical_sets_are_the_same() {
    let a = set(20_000.0, 0.02, 2);
    let v = verdicts(&a, &a, "identical");
    assert_eq!(v.len(), 2);
    assert!(v.iter().all(|(_, v)| *v == Verdict::Same), "{v:?}");
}

#[test]
fn a_throughput_drop_beyond_the_bound_is_worse() {
    // 30 % down; the bound is 24 %.
    let v = verdicts(&set(20_000.0, 0.02, 2), &set(14_000.0, 0.02, 2), "drop");
    assert!(
        v.contains(&("throughput_per_s".into(), Verdict::Worse)),
        "{v:?}"
    );
    assert!(
        v.contains(&("latency_us_p50".into(), Verdict::Same)),
        "{v:?}"
    );
    let gain = verdicts(&set(14_000.0, 0.02, 2), &set(20_000.0, 0.02, 2), "gain");
    assert!(
        gain.contains(&("throughput_per_s".into(), Verdict::Better)),
        "{gain:?}"
    );
}

#[test]
fn wide_overlapping_spreads_are_unresolved() {
    let v = verdicts(&set(20_000.0, 0.60, 2), &set(19_000.0, 0.60, 2), "wide");
    assert!(
        v.contains(&("throughput_per_s".into(), Verdict::Unresolved)),
        "{v:?}"
    );
}

#[test]
fn unfair_comparisons_are_refused() {
    let a = dir("refuse-a", &set(20_000.0, 0.02, 2));
    let b = dir("refuse-b", &set(20_000.0, 0.02, 4));
    let bounds = sc24_bench::compare::read_bounds(&repo_root().join("BENCHMARK.json")).unwrap();
    let err = compare(&load_dir(&a).unwrap(), &load_dir(&b).unwrap(), &bounds).unwrap_err();
    assert!(err.contains("refusing"), "{err}");

    let mut other_seeds = set(20_000.0, 0.02, 2);
    other_seeds[0].seed = 99;
    let c = dir("refuse-c", &other_seeds);
    let err = compare(&load_dir(&a).unwrap(), &load_dir(&c).unwrap(), &bounds).unwrap_err();
    assert!(err.contains("seeds"), "{err}");
}

#[test]
fn a_failure_increase_fails_the_comparison() {
    let a = set(20_000.0, 0.02, 2);
    let mut b = a.clone();
    b[3].failed = 1;
    let da = dir("fail-a", &a);
    let db = dir("fail-b", &b);
    let c = compare_dirs(&da, &db, &repo_root().join("BENCHMARK.json")).unwrap();
    assert_eq!(c.fail_increases, ["census"]);
    assert!(!c.ok());
}
