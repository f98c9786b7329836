//! The one `BENCH_engine.json` writer: sections are set and stamped,
//! every other section is left as it was, and a ledger that does not
//! parse is refused rather than overwritten.

use std::path::PathBuf;
use v6report::ledger::record;
use v6report::Json;

fn temp_path(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn row(field: &str, v: u64) -> Json {
    let mut row = Json::obj();
    row.set(field, Json::U64(v));
    row
}

#[test]
fn sections_are_set_stamped_and_the_rest_preserved() {
    let path = temp_path("ledger-preserve.json");
    record(
        &path,
        "first",
        vec![("a", row("x", 1)), ("ratio", Json::F64(1.5))],
    )
    .expect("seed the ledger");
    record(&path, "second", vec![("b", row("y", 2))]).expect("add a section");
    let text = std::fs::read_to_string(&path).expect("ledger written");

    let doc = Json::parse(&text).expect("ledger parses");
    assert_eq!(text, format!("{}\n", doc.canonical()), "canonical form");
    assert_eq!(doc.get("generated_by"), Some(&Json::Str("first".into())));
    assert_eq!(doc.get_path(&["a", "x"]), Some(&Json::U64(1)));
    assert_eq!(doc.get_path(&["b", "y"]), Some(&Json::U64(2)));
    assert_eq!(doc.get("ratio"), Some(&Json::F64(1.5)), "scalars unstamped");
    for section in ["a", "b"] {
        assert!(matches!(
            doc.get_path(&[section, "available_parallelism"]),
            Some(Json::U64(n)) if *n >= 1
        ));
    }
}

#[test]
fn an_unparsable_ledger_is_an_error_not_overwritten() {
    let path = temp_path("ledger-unparsable.json");
    std::fs::write(&path, "not json").expect("write the broken ledger");
    assert!(record(&path, "w", vec![("a", row("x", 1))]).is_err());
    assert_eq!(
        std::fs::read_to_string(&path).expect("still there"),
        "not json"
    );
}
