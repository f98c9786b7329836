//! `--smoke` (1 % sizes) passes every check for every workload, gated
//! and traced, in under a minute, and each run prints exactly the
//! metric set `BENCHMARK.json` declares for it.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use sc24_bench::registry::{END_TO_END, PER_LAYER, WORKLOADS};
use v6report::Json;

fn run(out: &PathBuf, workload: &str, trace: &str) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_sc24-bench"))
        .args([
            "--workload",
            workload,
            "--trace",
            trace,
            "--smoke",
            "--seconds",
            "1",
        ])
        .arg("--out")
        .arg(out)
        .output()
        .expect("spawn sc24-bench");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the last line is JSON")
}

fn metric_names(result: &Json) -> Vec<String> {
    match result.get("metrics") {
        Some(Json::Obj(map)) => map.keys().cloned().collect(),
        other => panic!("metrics: {other:?}"),
    }
}

#[test]
fn smoke_runs_pass_every_check_within_a_minute() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let start = Instant::now();
    for w in &WORKLOADS {
        for (trace, declared) in [
            ("0", END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()),
            ("1", PER_LAYER.iter().map(|m| m.name).collect()),
        ] {
            let result = run(&out, w.name, trace);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{}", w.name);
            assert_eq!(result.get("failed"), Some(&Json::U64(0)), "{}", w.name);
            let mut want: Vec<String> = declared.iter().map(|s| s.to_string()).collect();
            want.sort();
            assert_eq!(metric_names(&result), want, "{} trace {trace}", w.name);
        }
    }
    let took = start.elapsed();
    assert!(took < Duration::from_secs(60), "smoke took {took:?}");
}

#[test]
fn unknown_workload_is_refused() {
    let status = Command::new(env!("CARGO_BIN_EXE_sc24-bench"))
        .args(["--workload", "no-such", "--seconds", "1"])
        .output()
        .expect("spawn sc24-bench");
    assert_eq!(status.status.code(), Some(2));
    assert!(status.stdout.is_empty(), "no result printed");
}
