//! The daemon's HTTP/1.1 server and worker loop.
//!
//! Hand-rolled over `std::net::TcpListener` — the workspace builds
//! offline, so no async runtime or HTTP crate. One request per
//! connection (the `v6portal` wire subset), served by a fixed pool of
//! `HANDLERS` threads, each blocked in `accept()` on its own clone of
//! the listener, so a request is picked up the moment it arrives. Each
//! request must arrive whole within [`REQUEST_DEADLINE`], so a client
//! that stalls holds its handler for at most that long; the API stalls
//! only while `HANDLERS` clients are stalled at once. Jobs run on a
//! separate pool of worker threads off a shared condvar queue (each
//! worker budgeted a slice of the simulation threads).
//!
//! Shutdown drains the handler pool in a chain: a handler that sees the
//! shutdown flag connects once to the daemon's own address before it
//! returns, which wakes the next handler out of `accept()`.
//! [`LabServer::stop`] starts the chain the same way. The SIGTERM latch
//! is checked by every handler as it accepts a connection, and by each
//! idle job worker on its 50 ms queue wait, so SIGTERM is seen whether
//! the daemon is busy or idle.
//!
//! | route                    | method | body                                   |
//! |--------------------------|--------|----------------------------------------|
//! | `/health`                | GET    | `{"ok":true,"tick":…}`                 |
//! | `/jobs`                  | POST   | job spec in, `{"id":…}` out (202)      |
//! | `/jobs/:id`              | GET    | job status                             |
//! | `/jobs/:id/manifest`     | GET    | canonical manifest (404 until done)    |
//! | `/metrics`               | GET    | live fleet + population snapshot       |
//! | `/incidents`             | GET    | detector log                           |
//! | `/portal`                | GET    | portal scoring path (`?client=N`)      |
//! | `/shutdown`              | POST   | graceful stop                          |

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use v6fleet::FleetRunner;
use v6portal::http::{format_response, HttpRequest, RequestReader};
use v6report::Json;

use crate::jobs::{JobSpec, JobStatus};
use crate::portal;
use crate::state::{LabState, LiveObserver};

/// Process-wide SIGTERM latch (signal handlers can only touch statics).
static SIGTERM: AtomicBool = AtomicBool::new(false);

/// Route SIGTERM to a graceful shutdown of every [`LabServer`] in the
/// process. [`serve`] calls this; an embedder that wants the same
/// behaviour calls it once before starting its server.
#[cfg(unix)]
pub fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_term(_sig: i32) {
        SIGTERM.store(true, Ordering::SeqCst);
    }
    const SIGTERM_NUM: i32 = 15;
    unsafe {
        signal(SIGTERM_NUM, on_term as *const () as usize);
    }
}

/// SIGTERM does not exist here; nothing to install.
#[cfg(not(unix))]
pub fn install_sigterm_handler() {}

/// Request-handler threads, each blocked in `accept()`.
const HANDLERS: usize = 2;

/// Time a client gets to deliver its whole request.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// Pause after a failed `accept()`, so a persistent error (EMFILE,
/// ENFILE) does not spin the handler.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(10);

/// Wake one handler blocked in `accept()` so it sees the shutdown flag.
fn wake_handler(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

/// Fold the process-wide SIGTERM latch into the shutdown flag; true
/// once the daemon is shutting down for any reason.
fn shutdown_requested(state: &LabState) -> bool {
    if SIGTERM.load(Ordering::SeqCst) {
        state.begin_shutdown();
    }
    state.shutting_down()
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Port to bind on 127.0.0.1 (0 picks an ephemeral port).
    pub port: u16,
    /// Total simulation-thread budget shared by concurrent jobs.
    pub threads: usize,
    /// Job-execution worker threads draining the queue: up to this many
    /// jobs run concurrently, each with a `threads / workers` (min 1)
    /// slice of the simulation budget.
    pub workers: usize,
    /// Cron entries registered before the first job runs — the serve
    /// flag `--cron NAME:SPEC:JOB` lands here.
    pub cron: Vec<crate::scheduler::CronEntry>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            port: 0,
            threads: 2,
            workers: 1,
            cron: Vec::new(),
        }
    }
}

/// A running daemon: bound address, shared state, and the join handles
/// needed for a graceful stop.
pub struct LabServer {
    /// The address actually bound (resolves port 0).
    pub addr: std::net::SocketAddr,
    /// Shared daemon state.
    pub state: Arc<LabState>,
    handler_handles: Vec<std::thread::JoinHandle<()>>,
    worker_handles: Vec<std::thread::JoinHandle<()>>,
}

impl LabServer {
    /// Bind, spawn the worker and handler pools, and return. The daemon
    /// is ready for requests when this returns.
    pub fn start(config: ServerConfig) -> std::io::Result<LabServer> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let listeners = (0..HANDLERS)
            .map(|_| listener.try_clone())
            .collect::<std::io::Result<Vec<_>>>()?;
        let state = LabState::new(config.threads.max(1), config.workers.max(1));
        {
            let mut scheduler = state.scheduler.lock().expect("scheduler lock");
            for entry in &config.cron {
                scheduler.add(&entry.name, entry.spec, entry.job);
            }
        }

        let worker_handles = (0..config.workers.max(1))
            .map(|_| {
                let worker_state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(&worker_state, addr))
            })
            .collect();

        let handler_handles = listeners
            .into_iter()
            .map(|listener| {
                let handler_state = Arc::clone(&state);
                std::thread::spawn(move || handler_loop(&listener, &handler_state, addr))
            })
            .collect();

        Ok(LabServer {
            addr,
            state,
            handler_handles,
            worker_handles,
        })
    }

    /// Block until shutdown (SIGTERM or `POST /shutdown`) completes.
    pub fn join(self) {
        for handle in self.handler_handles.into_iter().chain(self.worker_handles) {
            let _ = handle.join();
        }
    }

    /// Ask the daemon to stop and wait for every thread.
    pub fn stop(self) {
        self.state.begin_shutdown();
        wake_handler(self.addr);
        self.join();
    }
}

/// Run a daemon in the foreground until SIGTERM / `POST /shutdown`.
pub fn serve(config: ServerConfig) -> std::io::Result<()> {
    install_sigterm_handler();
    let server = LabServer::start(config)?;
    // The smoke script greps this exact line for the bound port.
    println!("v6labd: listening on {}", server.addr);
    server.join();
    println!("v6labd: graceful shutdown complete");
    Ok(())
}

/// One request handler: serve whatever `accept()` hands over until
/// shutdown, then pass the wake-up on to the next handler. A connection
/// accepted once shutdown has begun (a wake-up among them) is closed
/// unanswered.
fn handler_loop(listener: &TcpListener, state: &Arc<LabState>, addr: SocketAddr) {
    while !shutdown_requested(state) {
        match listener.accept() {
            Ok((stream, _peer)) if !shutdown_requested(state) => {
                let _ = handle_connection(stream, state);
            }
            Ok(_) => {}
            Err(_) => std::thread::sleep(ACCEPT_ERROR_PAUSE),
        }
    }
    wake_handler(addr);
}

/// Jobs run here, off the shared condvar queue. Every worker in the
/// pool runs this loop; each holds a `threads / workers` (min 1) slice
/// of the simulation-thread budget, so concurrent jobs never
/// oversubscribe the configured total. Each job completion advances the
/// virtual clock one tick, fires any due cron entries, and feeds the
/// detector. The idle queue wait doubles as the SIGTERM check, and a
/// worker that sees shutdown wakes a handler on its way out.
fn worker_loop(state: &Arc<LabState>, addr: SocketAddr) {
    let budget = (state.threads / state.workers).max(1);
    let runner = FleetRunner::new(budget);
    loop {
        let id = {
            let mut queue = state.queue.lock().expect("queue lock");
            loop {
                if shutdown_requested(state) {
                    wake_handler(addr);
                    return;
                }
                if let Some(id) = queue.pop_front() {
                    break id;
                }
                queue = state
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(50))
                    .expect("queue lock")
                    .0;
            }
        };
        run_one_job(state, &runner, id);
    }
}

fn run_one_job(state: &Arc<LabState>, runner: &FleetRunner, id: u64) {
    let spec = {
        let mut jobs = state.jobs.lock().expect("jobs lock");
        let job = &mut jobs[(id - 1) as usize];
        job.status = JobStatus::Running;
        job.spec
    };
    let pace_ms = match spec {
        JobSpec::Population { pace_ms, .. } => pace_ms,
        JobSpec::Matrix { .. } => 0,
    };
    let observer = LiveObserver::new(state, pace_ms);
    let manifest = spec.execute(runner, &observer);

    // Completion advances the virtual clock; cron entries due at the
    // new tick enqueue before the next job is picked up.
    let (tick, due) = {
        let mut scheduler = state.scheduler.lock().expect("scheduler lock");
        let due = scheduler.advance();
        (scheduler.tick(), due)
    };

    let key = format!("{}/{}", spec.kind(), spec.label());
    let raised = state
        .detector
        .lock()
        .expect("detector lock")
        .observe(&key, &manifest, tick);
    if raised > 0 {
        println!("v6labd: job {id} ({key}) raised {raised} incident(s) at tick {tick}");
    }

    {
        let mut jobs = state.jobs.lock().expect("jobs lock");
        let job = &mut jobs[(id - 1) as usize];
        job.status = JobStatus::Done;
        job.completed_tick = Some(tick);
        job.manifest = Some(manifest);
    }

    for entry in due {
        let id = state.submit(entry.job);
        println!(
            "v6labd: cron {:?} ({}) fired at tick {tick}: job {id}",
            entry.name, entry.spec
        );
    }
}

fn handle_connection(mut stream: TcpStream, state: &Arc<LabState>) -> std::io::Result<()> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut reader = RequestReader::new();
    let mut buf = [0u8; 4096];
    let parsed = loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Ok(());
        }
        stream.set_read_timeout(Some(left))?;
        let n = stream.read(&mut buf)?;
        if n == 0 {
            // Peer closed before a full request arrived.
            return Ok(());
        }
        if let Some(parsed) = reader.feed(&buf[..n]).transpose() {
            break parsed;
        }
    };
    let (status, body) = match parsed {
        Ok(request) => route(&request, state),
        Err(e) => (400, json_error(e.reason())),
    };
    stream.write_all(format_response(status, &body).as_bytes())?;
    stream.flush()
}

fn json_error(message: &str) -> String {
    let mut obj = Json::obj();
    obj.set("error", Json::Str(message.into()));
    obj.canonical()
}

fn route(req: &HttpRequest, state: &Arc<LabState>) -> (u16, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => {
            let mut obj = Json::obj();
            obj.set("ok", Json::Bool(true));
            obj.set(
                "tick",
                Json::U64(state.scheduler.lock().expect("scheduler lock").tick()),
            );
            (200, obj.canonical())
        }
        ("POST", "/jobs") => match JobSpec::parse(&req.body) {
            Ok(spec) => {
                let id = state.submit(spec);
                let mut obj = Json::obj();
                obj.set("id", Json::U64(id));
                obj.set("status", Json::Str("queued".into()));
                (202, obj.canonical())
            }
            Err(e) => (400, json_error(&e)),
        },
        ("GET", "/metrics") => (200, state.metrics_json().canonical()),
        ("GET", "/incidents") => (
            200,
            state
                .detector
                .lock()
                .expect("detector lock")
                .to_json()
                .canonical(),
        ),
        ("POST", "/shutdown") => {
            state.begin_shutdown();
            (200, json_error("shutting down"))
        }
        ("GET", path) if path.starts_with("/portal") => portal::handle(path),
        ("GET", path) if path.starts_with("/jobs/") => {
            let rest = &path["/jobs/".len()..];
            let (id_text, want_manifest) = match rest.strip_suffix("/manifest") {
                Some(id) => (id, true),
                None => (rest, false),
            };
            let Ok(id) = id_text.parse::<u64>() else {
                return (400, json_error("bad job id"));
            };
            let jobs = state.jobs.lock().expect("jobs lock");
            let Some(job) = jobs
                .get((id.wrapping_sub(1)) as usize)
                .filter(|j| j.id == id)
            else {
                return (404, json_error("no such job"));
            };
            if want_manifest {
                match &job.manifest {
                    Some(m) => (200, m.canonical()),
                    None => (404, json_error("job not done yet")),
                }
            } else {
                (200, job.status_json().canonical())
            }
        }
        ("GET", _) => (404, json_error("no such route")),
        _ => (405, json_error("method not allowed")),
    }
}
