//! The one writer of `BENCH_engine.json`, the performance ledger.
//!
//! Several tools measure their own sections of the ledger:
//! `bench_report` the engine, codec and fleet rows, `population_census`
//! the `population_census` and `warm_cell` rows, and `load_gen` the
//! `service_soak` row. Each hands the sections it measured to
//! [`record`], which leaves every other section as it was, so no tool
//! needs to know which sections the others own.

use crate::canon::Json;
use std::path::Path;

/// Set `sections` in the ledger at `path` and write it back as
/// canonical JSON.
///
/// A missing file is seeded with `generated_by: writer`. Every section
/// that is an object (a row) is stamped with this host's
/// `available_parallelism`, so each row records the machine it was
/// measured on beside the `threads` it used. An existing file that does
/// not parse is an error, not something to overwrite.
pub fn record(path: &Path, writer: &str, sections: Vec<(&str, Json)>) -> Result<(), String> {
    let mut doc = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let mut fresh = Json::obj();
            fresh.set("generated_by", Json::Str(writer.into()));
            fresh
        }
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    for (name, mut row) in sections {
        if let Json::Obj(_) = row {
            row.set("available_parallelism", Json::U64(parallelism));
        }
        doc.set(name, row);
    }
    let mut text = doc.canonical();
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}
