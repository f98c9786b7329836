//! A loopback HTTP/1.1 client for the lab daemon: one request per
//! connection (the daemon's wire model), with each phase timed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use v6portal::http::{HttpRequest, HttpResponse};

/// Phase boundaries of one exchange.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Before `connect`.
    pub start: Instant,
    /// Connection established.
    pub connected: Instant,
    /// Request written.
    pub sent: Instant,
    /// First response byte read.
    pub first_byte: Instant,
    /// Connection closed by the daemon after the last byte.
    pub done: Instant,
}

/// A completed exchange.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// When each phase ended.
    pub phases: Phases,
}

/// Send `raw` to `addr` and read the whole response. Reads time out
/// after five seconds, so a stalled daemon fails the request instead of
/// hanging the benchmark.
pub fn exchange(addr: SocketAddr, raw: &[u8]) -> Result<Exchange, String> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let connected = Instant::now();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| format!("timeout: {e}"))?;
    stream.write_all(raw).map_err(|e| format!("send: {e}"))?;
    let sent = Instant::now();
    let mut bytes = vec![0u8; 4096];
    let n = stream.read(&mut bytes).map_err(|e| format!("recv: {e}"))?;
    let first_byte = Instant::now();
    bytes.truncate(n);
    stream
        .read_to_end(&mut bytes)
        .map_err(|e| format!("recv: {e}"))?;
    let done = Instant::now();
    let response = HttpResponse::parse(&bytes).ok_or("truncated response")?;
    Ok(Exchange {
        status: response.status,
        body: response.body,
        phases: Phases {
            start,
            connected,
            sent,
            first_byte,
            done,
        },
    })
}

/// `GET path`.
pub fn get(addr: SocketAddr, path: &str) -> Result<Exchange, String> {
    exchange(addr, HttpRequest::format_get("localhost", path).as_bytes())
}

/// `POST path` with a body.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> Result<Exchange, String> {
    exchange(
        addr,
        HttpRequest::format_post("localhost", path, body).as_bytes(),
    )
}

/// Poll `GET /health` until it answers 200; the time that took.
pub fn wait_healthy(addr: SocketAddr) -> Result<Duration, String> {
    let start = Instant::now();
    loop {
        match get(addr, "/health") {
            Ok(x) if x.status == 200 => return Ok(start.elapsed()),
            _ if start.elapsed() > Duration::from_secs(10) => {
                return Err("daemon never became healthy".into())
            }
            _ => std::thread::sleep(Duration::from_micros(200)),
        }
    }
}

/// The `/portal` path for client index `n`.
pub fn portal_path(n: u64) -> String {
    format!("/portal?client={n}")
}

/// The first client index of a run: 40 bits derived from the seed, so
/// indices `base + i` are unique within a run and differ across seeds.
pub fn portal_base(seed: u64) -> u64 {
    mix(seed) >> 24
}

/// splitmix64 finalizer: derives independent inputs from one seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One open-loop request stream: request `k` of stream `w` is due at
/// `t0 + (k + w / streams) / rate_per_stream` seconds. Sending never
/// waits for earlier replies beyond the single connection in flight, and
/// latency runs from the due time, so a stall is charged to every
/// request it delays.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Time zero of the run.
    pub t0: Instant,
    /// Requests per second of this stream.
    pub rate_per_stream: f64,
    /// This stream's index.
    pub stream: u64,
    /// Number of streams.
    pub streams: u64,
}

impl Schedule {
    /// When request `k` of this stream is due.
    pub fn due(&self, k: u64) -> Instant {
        let offset = self.stream as f64 / self.streams as f64;
        self.t0 + Duration::from_secs_f64((k as f64 + offset) / self.rate_per_stream)
    }

    /// The client index request `k` of this stream asks about.
    pub fn client(&self, base: u64, k: u64) -> u64 {
        base + k * self.streams + self.stream
    }
}

/// Sleep until `t` (no-op when already past it).
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Outcome of one scheduled `GET /portal` request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Due time to last byte, ns.
    pub latency_ns: u64,
    /// Actual send start minus due time, ns.
    pub lateness_ns: u64,
    /// Phase boundaries (for the traced run).
    pub phases: Phases,
    /// Request number within its stream.
    pub k: u64,
}

/// Send request `k` of `sched` when due and check its body against the
/// in-process handler. `Err` carries the reason the request failed.
pub fn scheduled_portal_get(
    addr: SocketAddr,
    sched: &Schedule,
    base: u64,
    k: u64,
) -> Result<Sample, String> {
    let due = sched.due(k);
    sleep_until(due);
    let path = portal_path(sched.client(base, k));
    let x = get(addr, &path)?;
    let latency_ns = (x.phases.done - due).as_nanos() as u64;
    let lateness_ns = x.phases.start.saturating_duration_since(due).as_nanos() as u64;
    if x.status != 200 {
        return Err(format!("{path}: status {}", x.status));
    }
    if x.body != v6labd::portal::handle(&path).1 {
        return Err(format!("{path}: body differs from the in-process handler"));
    }
    Ok(Sample {
        latency_ns,
        lateness_ns,
        phases: x.phases,
        k,
    })
}
