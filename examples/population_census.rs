//! Population-scale census walkthrough: sample a large simulated client
//! population from the paper-default OS/topology/poison/fault mix and
//! stream it through the sharded census.
//!
//! ```sh
//! # The 1M-host census the issue's acceptance criterion names
//! # (also available as `just population`):
//! cargo run --release --example population_census -- --size 1000000 --bench BENCH_engine.json
//!
//! # A quick look at the default mix:
//! cargo run --release --example population_census -- --size 20000
//!
//! # Warm-vs-cold arena differential bench (also `just warm-bench`):
//! cargo run --release --example population_census -- --size 50000 --warm-bench BENCH_engine.json
//! ```
//!
//! Memory stays O(shards × sketch) no matter the size — no per-cell
//! result is ever materialized — and the printed census is byte-stable
//! across `--threads` and `--shards` (see `crates/v6fleet/tests/
//! population.rs` for the proofs). With `--bench FILE`, the run's
//! throughput is merged into `BENCH_engine.json` as the
//! `population_census` row the bench manifest normalizes.

use std::time::Instant;

use v6fleet::{CensusSketch, FleetRunner, PopulationSpec};
use v6report::Json;

struct Args {
    size: u64,
    seed: u64,
    threads: usize,
    shards: usize,
    bench: Option<String>,
    warm_bench: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        size: 1_000_000,
        seed: 0x5c24,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(1, 16),
        shards: 0,
        bench: None,
        warm_bench: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--size" => args.size = value(&flag)?.parse().map_err(|e| format!("--size: {e}"))?,
            "--seed" => {
                let v = value(&flag)?;
                args.seed = u64::from_str_radix(v.trim_start_matches("0x"), 16)
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--threads" => {
                args.threads = value(&flag)?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--shards" => {
                args.shards = value(&flag)?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--bench" => args.bench = Some(value(&flag)?),
            "--warm-bench" => args.warm_bench = Some(value(&flag)?),
            other => {
                return Err(format!(
                    "unknown flag {other}\nusage: population_census [--size N] [--seed HEX] [--threads N] [--shards N] [--bench FILE] [--warm-bench FILE]"
                ))
            }
        }
    }
    if args.shards == 0 {
        // Enough shards that the work queue stays balanced, few enough
        // that per-shard sketches stay negligible.
        args.shards = (args.threads * 8).max(8);
    }
    Ok(args)
}

/// Parse (or seed) the raw bench doc so a section rewrite preserves
/// every other writer's rows.
fn load_bench(path: &str) -> Json {
    match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text).expect("existing bench file parses"),
        Err(_) => {
            let mut fresh = Json::obj();
            fresh.set(
                "generated_by",
                Json::Str("examples/population_census.rs".into()),
            );
            fresh
        }
    }
}

fn write_bench(path: &str, doc: &Json, section: &str) {
    let mut text = doc.canonical();
    text.push('\n');
    std::fs::write(path, text).expect("write bench file");
    eprintln!("updated {path} ({section} row)");
}

/// Merge this run's throughput into `BENCH_engine.json` as the
/// `population_census` row, preserving everything `bench_report` wrote.
fn update_bench(path: &str, samples: u64, shards: usize, threads: usize, per_sec: f64) {
    let mut doc = load_bench(path);
    let mut row = Json::obj();
    row.set("samples", Json::U64(samples));
    row.set("shards", Json::U64(shards as u64));
    row.set("threads", Json::U64(threads as u64));
    row.set("scenarios_per_sec", Json::F64(per_sec));
    doc.set("population_census", row);
    write_bench(path, &doc, "population_census");
}

/// The warm-vs-cold differential benchmark behind `just warm-bench`:
/// the same sampled population run three ways — cold (fresh testbed
/// per cell, the pre-PR-9 hot loop), warm single-core (one arena), and
/// warm on the full thread pool — with the aggregates asserted equal
/// before any number is recorded. Writes the `warm_cell` section.
fn run_warm_bench(args: &Args, path: &str) {
    let spec = PopulationSpec::paper_default(args.seed, args.size);
    eprintln!(
        "warm-bench: {} cells (seed {:#x}), cold vs warm x1 vs warm x{}...",
        args.size, args.seed, args.threads
    );

    // Cold baseline: build-and-throw-away, exactly what the census hot
    // loop did before the arena existed.
    let started = Instant::now();
    let mut cold_sketch = CensusSketch::new();
    for i in 0..args.size {
        let cell = spec.cell(i);
        cold_sketch.fold(cell, cell.run_observation());
    }
    let cold_per_sec = args.size as f64 / started.elapsed().as_secs_f64().max(f64::EPSILON);

    // Warm single-core: the production census path on one thread.
    let warm1 = FleetRunner::new(1).run_population(&spec, args.shards);
    let warm1_per_sec = warm1.wall.scenarios_per_sec();
    assert_eq!(
        warm1.report.sketch, cold_sketch,
        "warm census diverged from the cold baseline"
    );

    // Warm multi-thread: same spec, full pool — must merge to the same
    // report byte for byte.
    let warm_mt = FleetRunner::new(args.threads).run_population(&spec, args.shards);
    let warm_mt_per_sec = warm_mt.wall.scenarios_per_sec();
    assert_eq!(
        warm_mt.report, warm1.report,
        "thread count changed the census aggregate"
    );

    let speedup = warm1_per_sec / cold_per_sec.max(f64::EPSILON);
    // A scaling figure compares N threads with one; with one thread it
    // would compare one with one, so none is reported.
    let scaling = (args.threads >= 2).then(|| warm_mt_per_sec / warm1_per_sec.max(f64::EPSILON));
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("cold  x1:  {cold_per_sec:>9.0} scenarios/sec");
    println!("warm  x1:  {warm1_per_sec:>9.0} scenarios/sec  ({speedup:.2}x over cold)");
    match scaling {
        Some(scaling) => println!(
            "warm x{:<2}: {warm_mt_per_sec:>9.0} scenarios/sec  ({scaling:.2}x over warm x1, \
             {parallelism} cores available)",
            args.threads
        ),
        None => println!("warm x1:  no thread scaling measured (--threads 1)"),
    }
    println!("aggregates: identical across all three runs");

    let mut doc = load_bench(path);
    let mut row = Json::obj();
    row.set("samples", Json::U64(args.size));
    row.set("shards", Json::U64(args.shards as u64));
    row.set("threads", Json::U64(args.threads as u64));
    row.set("available_parallelism", Json::U64(parallelism as u64));
    row.set("cold_scenarios_per_sec", Json::F64(cold_per_sec));
    row.set("warm_scenarios_per_sec", Json::F64(warm1_per_sec));
    row.set("speedup", Json::F64(speedup));
    row.set("warm_mt_scenarios_per_sec", Json::F64(warm_mt_per_sec));
    if let Some(scaling) = scaling {
        row.set("thread_scaling", Json::F64(scaling));
    }
    doc.set("warm_cell", row);
    write_bench(path, &doc, "warm_cell");
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if let Some(path) = args.warm_bench.clone() {
        run_warm_bench(&args, &path);
        return;
    }
    let spec = PopulationSpec::paper_default(args.seed, args.size);
    eprintln!(
        "sampling {} cells (seed {:#x}) on {} thread(s), {} shard(s)...",
        args.size, args.seed, args.threads, args.shards
    );
    let run = FleetRunner::new(args.threads).run_population(&spec, args.shards);
    print!("{}", run.report.render());
    let per_sec = run.wall.scenarios_per_sec();
    eprintln!(
        "wall: {:.2}s on {} thread(s) = {:.0} scenarios/sec",
        run.wall.elapsed.as_secs_f64(),
        run.wall.threads,
        per_sec,
    );
    if let Some(path) = &args.bench {
        update_bench(path, args.size, args.shards, args.threads, per_sec);
    }
}
