//! The first table under README "Engine performance" quotes
//! `BENCH_engine.json`. Every figure in it must equal its ledger field
//! at the precision the table prints, so re-recording the ledger
//! without regenerating the table (or the reverse) fails here.

use v6report::Json;

fn read(file: &str) -> String {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The numeric ledger field at `path`.
fn field(ledger: &Json, path: &[&str]) -> f64 {
    ledger
        .get_path(path)
        .and_then(Json::as_number)
        .unwrap_or_else(|| panic!("BENCH_engine.json has no number at {}", path.join(".")))
}

/// `n` rounded to a whole number, thousands separated by a space
/// (`2 581`).
fn grouped(n: f64) -> String {
    let digits = format!("{:.0}", n);
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push(' ');
        }
        out.push(c);
    }
    out
}

/// The table's rows (header and rule excluded): the first run of `|`
/// lines after the "Engine performance" heading.
fn table_rows(readme: &str) -> Vec<&str> {
    let section = readme
        .split("\n## Engine performance\n")
        .nth(1)
        .expect("README has an Engine performance section");
    section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2)
        .collect()
}

#[test]
fn engine_performance_table_matches_the_ledger() {
    let ledger = Json::parse(&read("BENCH_engine.json")).expect("ledger parses");
    let l = |path: &[&str]| field(&ledger, path);

    let full_fps = l(&["engine_hot_path", "full", "frames_per_sec"]);
    let hops_fps = l(&["engine_hot_path", "hops", "frames_per_sec"]);
    let want = [
        format!(
            "| `fleet_throughput/threads01` (66-cell sweep) | {:.1} ms, {} scen/s | {:.1} ms, {} scen/s | **{:.1}×** |",
            l(&["baseline_pre_optimization", "fleet_ms_per_sweep"]),
            grouped(l(&["baseline_pre_optimization", "fleet_scenarios_per_sec"])),
            l(&["fleet_sweep", "hops", "ms_per_sweep"]),
            grouped(l(&["fleet_sweep", "hops", "scenarios_per_sec"])),
            l(&["speedup_vs_baseline"]),
        ),
        format!(
            "| `engine_hot_path` relay ring, `Full` → `Hops` trace | {:.1} M frames/s | {:.1} M frames/s | {:.1}× |",
            full_fps / 1e6,
            hops_fps / 1e6,
            hops_fps / full_fps,
        ),
        format!(
            "| `engine_hot_path` relay ring, `Full` mode | {:.1} ms/iter | {:.1} ms/iter | **{:.1}×** |",
            l(&["codec_zero_copy", "full_trace_baseline_ms"]),
            l(&["codec_zero_copy", "full_trace_ms"]),
            l(&["codec_zero_copy", "full_trace_speedup"]),
        ),
        format!(
            "| DNS decode (conformance corpus) | {:.0} ns/msg owned | {:.0} ns/msg view | {:.1}× |",
            l(&["codec_zero_copy", "dns_decode_owned_ns_per_msg"]),
            l(&["codec_zero_copy", "dns_parse_view_ns_per_msg"]),
            l(&["codec_zero_copy", "dns_parse_speedup"]),
        ),
        format!(
            "| population census, cold rebuild vs warm arena | {} scen/s | {} scen/s | **{:.1}×** |",
            grouped(l(&["warm_cell", "cold_scenarios_per_sec"])),
            grouped(l(&["warm_cell", "warm_scenarios_per_sec"])),
            l(&["warm_cell", "speedup"]),
        ),
    ];

    let readme = read("README.md");
    let rows = table_rows(&readme);
    assert_eq!(rows.len(), want.len(), "table rows: {rows:#?}");
    for (row, want) in rows.iter().zip(&want) {
        assert_eq!(row, want, "README row disagrees with BENCH_engine.json");
    }
}
