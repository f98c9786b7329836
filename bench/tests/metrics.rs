//! `BENCHMARK.json` declares exactly the workloads and metrics the
//! registry defines, with valid names.

use sc24_bench::registry::{slug, Better, END_TO_END, PER_LAYER, WORKLOADS};
use sc24_bench::repo_root;
use v6report::Json;

fn benchmark() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key}: expected a list, got {other:?}"),
    }
}

fn string<'a>(v: &'a Json, key: &str) -> &'a str {
    match v.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

fn keys(v: &Json) -> Vec<&str> {
    match v {
        Json::Obj(map) => map.keys().map(String::as_str).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn benchmark_json_matches_the_registry() {
    let doc = benchmark();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let workloads = list(&doc, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (w, want) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(keys(w), ["name", "why"]);
        assert_eq!(string(w, "name"), want.name);
        assert_eq!(string(w, "why"), want.why);
        assert!(want.why.len() <= 200 && !want.why.contains('\n'));
    }

    let e2e = list(&doc, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (m, want) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(keys(m), ["better", "bound", "name", "unit"]);
        assert_eq!(string(m, "name"), want.name);
        assert_eq!(string(m, "unit"), want.unit);
        assert_eq!(string(m, "better"), want.better.label());
        assert_eq!(m.get("bound").and_then(Json::as_number), Some(want.bound));
        assert!(want.bound > 0.0 && want.bound <= 0.25);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let per_layer = list(&doc, "per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    assert!(PER_LAYER.len() <= 128);
    for (m, want) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(keys(m), ["better", "name", "unit"]);
        assert_eq!(string(m, "name"), want.name);
        assert_eq!(string(m, "unit"), want.unit);
        assert_eq!(string(m, "better"), "lower");
    }
}

/// Whether `name` is a valid metric or workload name.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[test]
fn every_name_is_valid_and_used_once() {
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for name in &names {
        assert!(
            valid_name(name),
            "{name} is not [A-Za-z0-9_.-]+ of at most 64"
        );
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "a name is used twice");
    let units = END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit));
    for unit in units {
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
            "bad unit {unit:?}"
        );
    }
}

#[test]
fn per_os_metrics_cover_every_sampled_profile() {
    let spec = v6fleet::PopulationSpec::paper_default(0, 1);
    for (id, weight) in &spec.os_weights {
        let name = format!("v6testbed.cell_us.{}", slug(id.name()));
        let registered = PER_LAYER.iter().any(|m| m.name == name);
        assert_eq!(registered, *weight > 0, "{name}");
    }
    assert_eq!(
        slug("Windows 10 (IPv6 disabled)"),
        "windows-10-ipv6-disabled"
    );
    assert_eq!(slug("macOS"), "macos");
}
