//! Machine-readable engine performance report.
//!
//! Measures the two benchmarks the perf work is judged by — the raw
//! engine relay ring and the 66-cell fleet sweep — in every [`TraceMode`],
//! plus the zero-copy codec rows, and records them in `BENCH_engine.json`
//! next to the repo root through `v6report::ledger` (other tools' rows
//! are left as they were):
//!
//! ```sh
//! cargo run --release --example bench_report
//! cat BENCH_engine.json
//! ```
//!
//! The JSON also carries the recorded pre-optimization baseline (eager
//! string tracing, `HashMap` link table, no frame pool) so the speedup is
//! auditable without checking out the old revision.

use std::any::Any;
use std::path::Path;
use std::time::Instant;
use v6report::Json;
use v6sim::engine::{Ctx, Network, Node, TraceMode};
use v6sim::time::SimTime;
use v6testbed::{Scenario, TraceMode as TbTraceMode};
use v6wire::mac::MacAddr;
use v6wire::packet::build_udp_v4;
use v6wire::udp::UdpDatagram;

/// Pre-PR `fleet_throughput/threads01` (the acceptance comparison):
/// median ms per 66-cell sweep and scenarios/second, measured on this
/// machine immediately before the hot-path rework.
const BASELINE_FLEET_MS: f64 = 25.569;
const BASELINE_FLEET_ELEM_S: u64 = 2581;

/// Full-trace ring ms/iter recorded immediately before the zero-copy codec
/// rework (owned re-parse + `String` summary per hop).
const BASELINE_FULL_TRACE_MS: f64 = 18.283;

/// The conformance corpus (tests/corpus/README.md): the codec benchmarks
/// run over exactly the inputs the differential suites prove equivalence on.
const CORPUS_FRAMES: &[&[u8]] = &[
    include_bytes!("../tests/corpus/frame_dhcp_discover_opt108.bin"),
    include_bytes!("../tests/corpus/frame_dhcp_offer_opt108.bin"),
    include_bytes!("../tests/corpus/frame_ra_full.bin"),
    include_bytes!("../tests/corpus/frame_dns64_aaaa.bin"),
    include_bytes!("../tests/corpus/frame_poisoned_a.bin"),
    include_bytes!("../tests/corpus/frame_arp_request.bin"),
    include_bytes!("../tests/corpus/frame_tcp_syn_v6.bin"),
    include_bytes!("../tests/corpus/frame_icmpv6_echo.bin"),
    include_bytes!("../tests/corpus/frame_icmpv4_unreach.bin"),
    include_bytes!("../tests/corpus/frame_ndp_ns.bin"),
];

const CORPUS_DNS: &[&[u8]] = &[
    include_bytes!("../tests/corpus/dns_query_a.bin"),
    include_bytes!("../tests/corpus/dns_dns64_response.bin"),
    include_bytes!("../tests/corpus/dns_poisoned_a.bin"),
    include_bytes!("../tests/corpus/dns_all_rtypes.bin"),
];

struct Relay {
    name: String,
}

impl Node for Relay {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_frame(&mut self, _port: u32, frame: &[u8], ctx: &mut Ctx) {
        let buf = ctx.buffer_from(frame);
        ctx.send(1, buf);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The same 4-node relay ring as `benches/engine_hot_path.rs`: 4 frames
/// in flight, 10 µs hops, 100 virtual milliseconds.
fn run_ring(mode: TraceMode) -> (u64, u64) {
    let mut net = Network::new();
    net.trace_mode = mode;
    let nodes: Vec<_> = (0..4)
        .map(|i| {
            net.add_node(Box::new(Relay {
                name: format!("relay{i}"),
            }))
        })
        .collect();
    for i in 0..4 {
        net.link(nodes[i], 1, nodes[(i + 1) % 4], 0, SimTime::from_micros(10));
    }
    net.start();
    net.run_until(SimTime::ZERO);
    for n in 0..4u8 {
        let frame = build_udp_v4(
            MacAddr::new([2, 0, 0, 0, 0xee, n]),
            MacAddr::new([2, 0, 0, 0, 0xee, n + 1]),
            "10.9.0.1".parse().expect("static ip"),
            "10.9.0.2".parse().expect("static ip"),
            &UdpDatagram::new(4000, 4001, vec![n; 64]),
        );
        net.with_node::<Relay, _>(nodes[0], |_, ctx| ctx.send(1, frame));
    }
    net.run_for(SimTime::from_millis(100));
    (net.frames_delivered, net.metrics().engine.events_processed)
}

/// Median nanoseconds per item: `f` processes `items` things, repeated
/// `iters` times per timing sample.
fn ns_per_item(iters: usize, items: usize, mut f: impl FnMut()) -> f64 {
    let secs = median_secs(7, || {
        for _ in 0..iters {
            f();
        }
    });
    secs * 1e9 / (iters * items) as f64
}

/// Median wall-clock seconds of `samples` runs of `f`.
fn median_secs(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[times.len() / 2]
}

fn main() {
    // Engine relay ring, per trace mode.
    let (frames, events) = run_ring(TraceMode::Off);
    let mut engine = Json::obj();
    engine.set(
        "workload",
        Json::Str("4-node relay ring, 4 frames in flight, 100 virtual ms".into()),
    );
    engine.set("frames_per_iter", Json::U64(frames));
    engine.set("events_per_iter", Json::U64(events));
    engine.set("threads", Json::U64(1));
    let mut full_ms = 0.0;
    for (label, mode) in [
        ("off", TraceMode::Off),
        ("hops", TraceMode::Hops),
        ("full", TraceMode::Full),
    ] {
        run_ring(mode); // warm-up
        let secs = median_secs(7, || {
            std::hint::black_box(run_ring(mode));
        });
        if label == "full" {
            full_ms = secs * 1e3;
        }
        let mut row = Json::obj();
        row.set("ms_per_iter", Json::F64(secs * 1e3));
        row.set("frames_per_sec", per_sec(frames as f64, secs));
        row.set("events_per_sec", per_sec(events as f64, secs));
        engine.set(label, row);
    }

    // Zero-copy codec microbenchmarks over the conformance corpus, plus the
    // Full-trace ring against its recorded pre-rework baseline (the
    // summarize-per-hop path is exactly what the view layer accelerates).
    let wire_owned = ns_per_item(2000, CORPUS_FRAMES.len(), || {
        for f in CORPUS_FRAMES {
            std::hint::black_box(v6wire::ParsedFrame::parse(f).expect("corpus frame"));
        }
    });
    let wire_view = ns_per_item(2000, CORPUS_FRAMES.len(), || {
        for f in CORPUS_FRAMES {
            std::hint::black_box(v6wire::FrameView::parse(f).expect("corpus frame"));
        }
    });
    let wire_summarize = ns_per_item(2000, CORPUS_FRAMES.len(), || {
        for f in CORPUS_FRAMES {
            std::hint::black_box(v6wire::packet::summarize(f));
        }
    });
    let dns_owned = ns_per_item(2000, CORPUS_DNS.len(), || {
        for m in CORPUS_DNS {
            std::hint::black_box(v6dns::Message::decode(m).expect("corpus message"));
        }
    });
    let dns_view = ns_per_item(2000, CORPUS_DNS.len(), || {
        for m in CORPUS_DNS {
            std::hint::black_box(v6dns::MessageView::parse(m).expect("corpus message"));
        }
    });
    let ck_buf: Vec<u8> = (0..1500u32).map(|i| (i * 31) as u8).collect();
    let ck_gbps = |kernel: fn(&[u8]) -> u16| {
        let ns = ns_per_item(2000, 1, || {
            std::hint::black_box(kernel(std::hint::black_box(&ck_buf)));
        });
        ck_buf.len() as f64 / ns
    };
    let reference_gbps = ck_gbps(v6wire::checksum::checksum_reference);
    let word_gbps = ck_gbps(v6wire::checksum::checksum);
    let mut codec = Json::obj();
    codec.set(
        "corpus_inputs",
        Json::U64((CORPUS_FRAMES.len() + CORPUS_DNS.len()) as u64),
    );
    codec.set("threads", Json::U64(1));
    codec.set("wire_parse_owned_ns_per_frame", Json::F64(wire_owned));
    codec.set("wire_parse_view_ns_per_frame", Json::F64(wire_view));
    codec.set("wire_parse_speedup", Json::F64(wire_owned / wire_view));
    codec.set("wire_summarize_ns_per_frame", Json::F64(wire_summarize));
    codec.set("dns_decode_owned_ns_per_msg", Json::F64(dns_owned));
    codec.set("dns_parse_view_ns_per_msg", Json::F64(dns_view));
    codec.set("dns_parse_speedup", Json::F64(dns_owned / dns_view));
    codec.set("checksum_gb_per_s", Json::F64(word_gbps));
    codec.set("checksum_reference_gb_per_s", Json::F64(reference_gbps));
    codec.set("full_trace_baseline_ms", Json::F64(BASELINE_FULL_TRACE_MS));
    codec.set("full_trace_ms", Json::F64(full_ms));
    codec.set(
        "full_trace_speedup",
        Json::F64(BASELINE_FULL_TRACE_MS / full_ms),
    );

    // Fleet sweep (the acceptance benchmark), per trace mode: every cell
    // on a fresh testbed, one at a time.
    let cells = Scenario::matrix(0xBE9C);
    let mut fleet = Json::obj();
    fleet.set("cells", Json::U64(cells.len() as u64));
    fleet.set("threads", Json::U64(1));
    let mut hops_ms = 0.0;
    for (label, mode) in [
        ("off", TbTraceMode::Off),
        ("hops", TbTraceMode::Hops),
        ("full", TbTraceMode::Full),
    ] {
        for s in &cells {
            let _ = s.run_with_trace(mode); // warm-up
        }
        let secs = median_secs(7, || {
            for s in &cells {
                std::hint::black_box(s.run_with_trace(mode));
            }
        });
        if label == "hops" {
            hops_ms = secs * 1e3;
        }
        let mut row = Json::obj();
        row.set("ms_per_sweep", Json::F64(secs * 1e3));
        row.set("scenarios_per_sec", per_sec(cells.len() as f64, secs));
        fleet.set(label, row);
    }

    // The before/after the PR is judged on: pre-optimization single-thread
    // fleet sweep vs today's Hops-mode sweep.
    let mut baseline = Json::obj();
    baseline.set("fleet_ms_per_sweep", Json::F64(BASELINE_FLEET_MS));
    baseline.set("fleet_scenarios_per_sec", Json::U64(BASELINE_FLEET_ELEM_S));

    v6report::ledger::record(
        Path::new("BENCH_engine.json"),
        "examples/bench_report.rs",
        vec![
            ("engine_hot_path", engine),
            ("codec_zero_copy", codec),
            ("fleet_sweep", fleet),
            ("baseline_pre_optimization", baseline),
            (
                "speedup_vs_baseline",
                Json::F64(BASELINE_FLEET_MS / hops_ms),
            ),
        ],
    )
    .expect("record BENCH_engine.json");
    eprintln!("wrote BENCH_engine.json");
}

/// `items / secs` as the whole-number rate the ledger records.
fn per_sec(items: f64, secs: f64) -> Json {
    Json::U64((items / secs).round() as u64)
}
