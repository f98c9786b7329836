//! SIGTERM while every job worker is busy. The idle worker's queue wait
//! cannot see the latch then, so the handlers must: the next request is
//! refused and the handler pool drains while the job is still running.
//!
//! The SIGTERM latch is process-wide and never clears, so this test has
//! a binary of its own.

#![cfg(unix)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use v6labd::server::install_sigterm_handler;
use v6labd::{JobStatus, LabServer, ServerConfig};
use v6portal::http::{HttpRequest, HttpResponse};

extern "C" {
    fn raise(sig: i32) -> i32;
}

/// One exchange; `None` when the daemon closes without a response.
fn try_exchange(addr: SocketAddr, raw: &str) -> Option<HttpResponse> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.write_all(raw.as_bytes()).ok()?;
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).ok()?;
    HttpResponse::parse(&bytes)
}

fn job_status(server: &LabServer, id: u64) -> JobStatus {
    server.state.jobs.lock().expect("jobs lock")[(id - 1) as usize].status
}

#[test]
fn sigterm_during_a_running_job_refuses_new_work_and_drains_the_handlers() {
    let server = LabServer::start(ServerConfig::default()).expect("daemon starts");
    let addr = server.addr;

    // A paced census that keeps the only worker busy for about a second.
    const PACED: &str = r#"{"kind":"population","size":40,"shards":20,"pace_ms":100}"#;
    let queued =
        try_exchange(addr, &HttpRequest::format_post("lab", "/jobs", PACED)).expect("job accepted");
    assert_eq!(queued.status, 202, "{}", queued.body);
    let started = Instant::now();
    while job_status(&server, 1) != JobStatus::Running {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "job never started"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    install_sigterm_handler();
    // SAFETY: raise() only delivers the signal to this process; the
    // handler installed above just sets the latch.
    assert_eq!(unsafe { raise(15) }, 0);

    // The next request gets no answer, so in particular no 202.
    let late = try_exchange(addr, &HttpRequest::format_post("lab", "/jobs", PACED));
    assert!(
        late.is_none(),
        "a request after SIGTERM was answered: {late:?}"
    );

    // Every handler drains and the listener closes while the job runs.
    let drained = Instant::now();
    while TcpStream::connect(addr).is_ok() {
        assert!(
            drained.elapsed() < Duration::from_secs(1),
            "handlers still accepting after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(job_status(&server, 1), JobStatus::Running);
    assert_eq!(server.state.jobs.lock().expect("jobs lock").len(), 1);

    // The worker finishes its job, then sees the shutdown and exits.
    server.join();
}
