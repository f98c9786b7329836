//! Service load generator: hammer the daemon's portal-scoring HTTP path
//! and report wall-clock latency percentiles.
//!
//! ```sh
//! # Boot an in-process daemon and soak it (also `just soak`):
//! cargo run --release --example load_gen -- --requests 2000 --clients 4 --bench BENCH_engine.json
//!
//! # Aim at an already-running daemon instead:
//! cargo run --release --example load_gen -- --addr 127.0.0.1:8925
//! ```
//!
//! Each client thread opens one connection per request (the daemon's
//! one-request-per-connection wire model), walks a disjoint stripe of
//! synthetic client indices through `GET /portal?client=N`, and records
//! the request wall time in a [`LatencySketch`]. Per-thread sketches
//! merge in thread order, so the *sample set* is deterministic even
//! though the timings are real. With `--bench FILE`, the percentiles
//! are merged into `BENCH_engine.json` as the `service_soak` row the
//! bench manifest normalizes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use v6fleet::LatencySketch;
use v6labd::{LabServer, ServerConfig};
use v6portal::http::{HttpRequest, HttpResponse};
use v6report::Json;

struct Args {
    requests: u64,
    clients: usize,
    addr: Option<SocketAddr>,
    bench: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        requests: 2_000,
        clients: 4,
        addr: None,
        bench: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--requests" => {
                args.requests = value(&flag)?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?
            }
            "--clients" => {
                args.clients = value(&flag)?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--addr" => {
                args.addr = Some(value(&flag)?.parse().map_err(|e| format!("--addr: {e}"))?)
            }
            "--bench" => args.bench = Some(value(&flag)?),
            other => {
                return Err(format!(
                    "unknown flag {other}\nusage: load_gen [--requests N] [--clients N] [--addr HOST:PORT] [--bench FILE]"
                ))
            }
        }
    }
    if args.requests == 0 || args.clients == 0 {
        return Err("--requests and --clients must be ≥ 1".into());
    }
    Ok(args)
}

/// One `GET /portal?client=N` round trip; returns (micros, fig5 flag).
fn probe(addr: SocketAddr, client: u64) -> Result<(u64, bool), String> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let raw = HttpRequest::format_get("localhost", &format!("/portal?client={client}"));
    stream
        .write_all(raw.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut bytes = Vec::new();
    stream
        .read_to_end(&mut bytes)
        .map_err(|e| format!("recv: {e}"))?;
    let response = HttpResponse::parse(&bytes).ok_or("truncated response")?;
    if response.status != 200 {
        return Err(format!("status {}", response.status));
    }
    let micros = start.elapsed().as_micros() as u64;
    let body = Json::parse(&response.body).map_err(|e| format!("body: {e}"))?;
    let fig5 = matches!(body.get("fig5_disagreement"), Some(Json::Bool(true)));
    Ok((micros, fig5))
}

/// Ask the daemon how many job workers it runs (`GET /metrics`), so the
/// soak row records the service shape it measured against.
fn fetch_workers(addr: SocketAddr) -> Option<u64> {
    let mut stream = TcpStream::connect(addr).ok()?;
    let raw = HttpRequest::format_get("localhost", "/metrics");
    stream.write_all(raw.as_bytes()).ok()?;
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).ok()?;
    let response = HttpResponse::parse(&bytes)?;
    let body = Json::parse(&response.body).ok()?;
    match body.get("workers") {
        Some(Json::U64(w)) => Some(*w),
        _ => None,
    }
}

/// Merge the soak percentiles into `BENCH_engine.json` as the
/// `service_soak` row, leaving every other tool's rows as they were.
fn update_bench(
    path: &str,
    requests: u64,
    clients: usize,
    workers: Option<u64>,
    sketch: &LatencySketch,
    per_sec: f64,
) {
    let pct = sketch.percentiles();
    let mut row = Json::obj();
    row.set("requests", Json::U64(requests));
    row.set("clients", Json::U64(clients as u64));
    if let Some(workers) = workers {
        row.set("workers", Json::U64(workers));
    }
    row.set("p50_us", Json::U64(pct.p50));
    row.set("p90_us", Json::U64(pct.p90));
    row.set("p99_us", Json::U64(pct.p99));
    row.set("requests_per_sec", Json::F64(per_sec));
    v6report::ledger::record(
        std::path::Path::new(path),
        "examples/load_gen.rs",
        vec![("service_soak", row)],
    )
    .expect("record bench file");
    eprintln!("updated {path} (service_soak row)");
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    // Either aim at a running daemon or boot one in-process.
    let (addr, local) = match args.addr {
        Some(addr) => (addr, None),
        None => {
            let server = LabServer::start(ServerConfig::default()).expect("daemon starts");
            eprintln!("load_gen: booted in-process daemon on {}", server.addr);
            (server.addr, Some(server))
        }
    };

    let per_client = args.requests / args.clients as u64;
    let requests = per_client * args.clients as u64;
    eprintln!(
        "load_gen: {requests} requests across {} client(s) against {addr}/portal",
        args.clients
    );

    let start = Instant::now();
    let workers: Vec<_> = (0..args.clients)
        .map(|w| {
            std::thread::spawn(move || {
                let mut sketch = LatencySketch::new();
                let mut fig5 = 0u64;
                let mut errors = 0u64;
                // Disjoint per-thread stripes of the synthetic index
                // space → a deterministic overall client mix.
                for i in 0..per_client {
                    let client = w as u64 * per_client + i;
                    match probe(addr, client) {
                        Ok((micros, disagree)) => {
                            sketch.record(micros);
                            fig5 += u64::from(disagree);
                        }
                        Err(e) => {
                            errors += 1;
                            if errors <= 3 {
                                eprintln!("load_gen: client {client}: {e}");
                            }
                        }
                    }
                }
                (sketch, fig5, errors)
            })
        })
        .collect();

    let mut sketch = LatencySketch::new();
    let mut fig5 = 0u64;
    let mut errors = 0u64;
    for worker in workers {
        let (s, f, e) = worker.join().expect("client thread");
        sketch.merge_from(&s);
        fig5 += f;
        errors += e;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let per_sec = sketch.count as f64 / elapsed.max(f64::EPSILON);

    // Snapshot the worker count while the daemon is still up.
    let job_workers = fetch_workers(addr);

    if let Some(server) = local {
        server.stop();
    }

    let pct = sketch.percentiles();
    println!("requests        {}", sketch.count);
    println!("errors          {errors}");
    println!("fig5 disagree   {fig5}");
    println!("p50             {} us", pct.p50);
    println!("p90             {} us", pct.p90);
    println!("p99             {} us", pct.p99);
    println!("max             {} us", sketch.max);
    println!("throughput      {per_sec:.0} req/s over {elapsed:.2}s");

    if errors > 0 {
        eprintln!("load_gen: {errors} request(s) failed");
        std::process::exit(1);
    }
    if let Some(path) = &args.bench {
        update_bench(
            path,
            sketch.count,
            args.clients,
            job_workers,
            &sketch,
            per_sec,
        );
    }
}
