//! The TCP front end: accept loop, handler threads, request routing,
//! graceful drain.
//!
//! Thread model (all `std`, no async runtime):
//!
//! * **accept thread** — blocking accept loop; accepted connections go
//!   to a bounded queue (its `push_blocking` is the accept-side
//!   backpressure: when every handler is busy, new connections wait in
//!   the OS backlog). Whatever starts a drain wakes it with a loopback
//!   connection to the listener, after which it sees the shutdown flag.
//! * **N handler threads** — pop connections, frame request lines (size
//!   cap with discard-to-newline recovery), parse, route. A handler owns
//!   its connection for the connection's lifetime; short read timeouts
//!   let it notice shutdown between requests.
//! * **`workers` compute permits** — see [`crate::registry`]; a handler
//!   runs each circuit request itself once it holds one, so at most
//!   `workers` analyses run at once and a request never changes threads.
//!   At most `queue_capacity` requests wait for a permit; past that they
//!   get `busy`. No thread is tied to a circuit, so the thread count is
//!   independent of how many circuits are resident.
//! * **optional stats logger** — a periodic one-line metrics report.
//!
//! Malformed JSON, unknown ops, oversized lines, full queues and analysis
//! failures all produce typed error *replies* — no input takes the daemon
//! down, and the connection stays open (request framing resynchronizes at
//! the next newline).

use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::{Endpoint, Metrics};
use crate::protocol::{
    err_line, ok_line, ok_line_timed, parse_request, ErrorKind, Op, Request, WireError,
};
use crate::queue::Bounded;
use crate::registry::Registry;

/// Tuning of [`serve`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Request handler threads.
    pub handlers: usize,
    /// Compute permits: how many requests may analyze at once, on their
    /// own handler threads, across all circuits.
    pub workers: usize,
    /// How many requests may wait for a compute permit (beyond it
    /// requests get `busy`).
    pub queue_capacity: usize,
    /// Per-request wall-clock limit. A request that exceeds it also
    /// cancels its in-flight computation (`cancelled_work` metric)
    /// instead of letting it run to completion unobserved.
    pub request_timeout: Duration,
    /// Request line size cap in bytes (beyond it: `oversized` reply).
    pub max_line_bytes: usize,
    /// Emit a one-line stats report this often (`None` = never).
    pub log_every: Option<Duration>,
    /// Resident-circuit cap (`0` = unlimited). Submitting past it evicts
    /// the least-recently-used idle circuit; with every circuit busy the
    /// submit is shed with a typed `busy` reply.
    pub max_circuits: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            handlers: 4,
            workers: 2,
            queue_capacity: 64,
            request_timeout: Duration::from_secs(120),
            max_line_bytes: 4 << 20,
            log_every: None,
            max_circuits: 0,
        }
    }
}

/// State shared by every server thread.
struct Shared {
    metrics: Arc<Metrics>,
    registry: Registry,
    shutdown: AtomicBool,
    /// Where a connect reaches the listener (the bound address, with an
    /// unspecified IP replaced by loopback) — how a drain wakes the
    /// blocked accept thread.
    wake_addr: SocketAddr,
    request_timeout: Duration,
    max_line_bytes: usize,
}

impl Shared {
    /// Sets the shutdown flag, then wakes the accept thread out of its
    /// blocking `accept` so it notices. A failed wake connect is harmless
    /// when the acceptor has already stopped.
    fn begin_drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
    }

    /// Routes one parsed request, returning the reply line.
    fn handle_request(&self, req: Request) -> (bool, String) {
        let Request { id, op, timing } = req;
        let endpoint = op.endpoint();
        match op {
            Op::Submit {
                format,
                name,
                text,
                builtin,
            } => {
                let outcome = match (&text, &builtin) {
                    (Some(text), None) => self.registry.submit_text(&format, name.as_deref(), text),
                    (None, Some(builtin)) => self.registry.submit_builtin(builtin),
                    // parse_request guarantees exactly one source.
                    _ => unreachable!("submit with no source"),
                };
                match outcome {
                    Ok(out) => {
                        let e = &out.entry;
                        (
                            true,
                            ok_line(
                                &id,
                                Json::obj(vec![
                                    ("circuit", Json::str(&e.hash)),
                                    ("name", Json::str(&e.name)),
                                    ("inputs", Json::Num(e.inputs as f64)),
                                    ("outputs", Json::Num(e.outputs as f64)),
                                    ("gates", Json::Num(e.gates as f64)),
                                    ("cached", Json::Bool(out.cached)),
                                ]),
                            ),
                        )
                    }
                    Err(e) => (false, err_line(&id, &e)),
                }
            }
            Op::Circuit { hash, op } => {
                match self
                    .registry
                    .dispatch(&hash, vec![op], self.request_timeout)
                {
                    Ok(mut outcome) => {
                        self.metrics.record_phases(
                            endpoint,
                            outcome.timing.queue_wait_us,
                            outcome.timing.compute_us,
                        );
                        match outcome.results.pop().expect("one result per op") {
                            Ok(result) if timing => {
                                (true, ok_line_timed(&id, result, outcome.timing.to_json()))
                            }
                            Ok(result) => (true, ok_line(&id, result)),
                            Err(e) => (false, err_line(&id, &e)),
                        }
                    }
                    Err(e) => (false, err_line(&id, &e)),
                }
            }
            Op::Batch { hash, ops } => {
                match self.registry.dispatch(&hash, ops, self.request_timeout) {
                    Ok(outcome) => {
                        self.metrics.record_phases(
                            endpoint,
                            outcome.timing.queue_wait_us,
                            outcome.timing.compute_us,
                        );
                        let results = Json::Arr(
                            outcome
                                .results
                                .into_iter()
                                .map(|r| match r {
                                    Ok(result) => Json::obj(vec![
                                        ("ok", Json::Bool(true)),
                                        ("result", result),
                                    ]),
                                    Err(e) => Json::obj(vec![
                                        ("ok", Json::Bool(false)),
                                        ("error", e.to_json()),
                                    ]),
                                })
                                .collect(),
                        );
                        let body = Json::obj(vec![("results", results)]);
                        if timing {
                            (true, ok_line_timed(&id, body, outcome.timing.to_json()))
                        } else {
                            (true, ok_line(&id, body))
                        }
                    }
                    Err(e) => (false, err_line(&id, &e)),
                }
            }
            Op::Stats => {
                self.registry.refresh_gauges();
                (true, ok_line(&id, self.metrics.snapshot()))
            }
            Op::Shutdown => {
                self.begin_drain();
                (
                    true,
                    ok_line(&id, Json::obj(vec![("draining", Json::Bool(true))])),
                )
            }
        }
    }

    /// Parses, routes and meters one request line.
    fn handle_line(&self, line: &str) -> String {
        let start = Instant::now();
        let parsed = {
            let _t = protest_telemetry::span(protest_telemetry::Site::ServeRead);
            parse_request(line)
        };
        match parsed {
            Ok(req) => {
                let endpoint = req.op.endpoint();
                let (ok, reply) = self.handle_request(req);
                self.metrics
                    .record(endpoint, ok, start.elapsed().as_micros() as u64);
                reply
            }
            Err((id, e)) => {
                self.metrics.malformed.fetch_add(1, Ordering::Relaxed);
                // Malformed lines have no endpoint; meter them under
                // submit's error column so they show up in totals.
                self.metrics
                    .record(Endpoint::Submit, false, start.elapsed().as_micros() as u64);
                err_line(&id, &e)
            }
        }
    }
}

/// Serves one connection until the peer closes, an I/O error occurs, or
/// the server drains.
fn handle_conn(shared: &Shared, stream: TcpStream) {
    shared.metrics.conns_opened.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut chunk = [0u8; 8192];
    let mut line: Vec<u8> = Vec::new();
    let mut discarding = false;
    'conn: loop {
        match (&stream).read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                for &byte in &chunk[..n] {
                    if discarding {
                        if byte == b'\n' {
                            discarding = false;
                            shared.metrics.oversized.fetch_add(1, Ordering::Relaxed);
                            let e = WireError::new(
                                ErrorKind::Oversized,
                                format!("request line exceeds {} bytes", shared.max_line_bytes),
                            );
                            if write_line(&stream, &err_line(&Json::Null, &e)).is_err() {
                                break 'conn;
                            }
                        }
                        continue;
                    }
                    if byte == b'\n' {
                        let text = String::from_utf8_lossy(&line);
                        let trimmed = text.trim();
                        if !trimmed.is_empty() {
                            let reply = shared.handle_line(trimmed);
                            if write_line(&stream, &reply).is_err() {
                                break 'conn;
                            }
                        }
                        line.clear();
                    } else {
                        line.push(byte);
                        if line.len() > shared.max_line_bytes {
                            line.clear();
                            line.shrink_to_fit();
                            discarding = true;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle between requests: close once the server is draining.
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    shared.metrics.conns_closed.fetch_add(1, Ordering::Relaxed);
}

fn write_line(mut stream: &TcpStream, reply: &str) -> std::io::Result<()> {
    stream.write_all(reply.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

/// A running server: its bound address plus the handles to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The bound address (port is concrete even when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared metrics hub.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Whether a drain has been requested (via [`Self::shutdown`] or a
    /// `shutdown` request over the wire).
    pub fn draining(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests a graceful drain and waits for it to finish.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
        self.wait();
    }

    /// Waits until the server has fully drained: accept loop stopped,
    /// in-flight requests answered, handlers joined. Returns
    /// immediately on a second call.
    pub fn wait(&self) {
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.threads.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        self.shared.registry.shutdown();
    }
}

/// Binds and starts the daemon. Returns once the listener is live; all
/// serving happens on background threads until [`ServerHandle::shutdown`]
/// (or a `shutdown` request followed by [`ServerHandle::wait`]).
pub fn serve(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let mut wake_addr = addr;
    if addr.ip().is_unspecified() {
        wake_addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }

    let metrics = Arc::new(Metrics::default());
    let registry = Registry::new(
        Arc::clone(&metrics),
        config.workers,
        config.queue_capacity,
        config.max_circuits,
    );
    let shared = Arc::new(Shared {
        metrics,
        registry,
        shutdown: AtomicBool::new(false),
        wake_addr,
        request_timeout: config.request_timeout,
        max_line_bytes: config.max_line_bytes,
    });

    let handlers = config.handlers.max(1);
    let conns: Arc<Bounded<TcpStream>> = Arc::new(Bounded::new(handlers * 2));
    let mut threads = Vec::with_capacity(handlers + 2);

    // Accept thread: blocking accept, checking the shutdown flag after
    // every return (a drain's wake connection is dropped unserved); close
    // the connection queue on exit so handlers drain and stop.
    {
        let shared = Arc::clone(&shared);
        let conns = Arc::clone(&conns);
        threads.push(
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || {
                    loop {
                        let accepted = listener.accept();
                        if shared.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        match accepted {
                            Ok((stream, _)) => {
                                if conns.push_blocking(stream).is_err() {
                                    break;
                                }
                            }
                            // Transient failures (e.g. out of descriptors):
                            // back off instead of spinning.
                            Err(_) => std::thread::sleep(Duration::from_millis(20)),
                        }
                    }
                    conns.close();
                })?,
        );
    }

    // Handler threads.
    for i in 0..handlers {
        let shared = Arc::clone(&shared);
        let conns = Arc::clone(&conns);
        threads.push(
            std::thread::Builder::new()
                .name(format!("serve-handler-{i}"))
                .spawn(move || {
                    while let Some(stream) = conns.pop() {
                        handle_conn(&shared, stream);
                    }
                })?,
        );
    }

    // Optional periodic stats logger.
    if let Some(every) = config.log_every {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("serve-stats".to_string())
                .spawn(move || {
                    let mut last = Instant::now();
                    while !shared.shutdown.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(100));
                        if last.elapsed() >= every {
                            shared.registry.refresh_gauges();
                            eprintln!("{}", shared.metrics.log_line());
                            last = Instant::now();
                        }
                    }
                })?,
        );
    }

    Ok(ServerHandle {
        addr,
        shared,
        threads: Mutex::new(threads),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &str) -> Json {
        stream.write_all(req.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        Json::parse(&reply).unwrap()
    }

    fn connect(handle: &ServerHandle) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    #[test]
    fn submit_analyze_stats_shutdown() {
        let handle = serve(ServeConfig::default()).unwrap();
        let (mut stream, mut reader) = connect(&handle);

        let r = roundtrip(
            &mut stream,
            &mut reader,
            r#"{"id":1,"op":"submit","builtin":"c17"}"#,
        );
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        let hash = r
            .get("result")
            .and_then(|v| v.get("circuit"))
            .and_then(Json::as_str)
            .unwrap()
            .to_string();

        let r = roundtrip(
            &mut stream,
            &mut reader,
            &format!(r#"{{"id":2,"op":"analyze","circuit":"{hash}","hardest":2}}"#),
        );
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        assert!(r
            .get("result")
            .and_then(|v| v.get("detect_probs"))
            .and_then(Json::as_arr)
            .is_some());

        // Opt-in timing flag: the reply gains a sibling phase breakdown.
        let r = roundtrip(
            &mut stream,
            &mut reader,
            &format!(r#"{{"id":21,"op":"analyze","circuit":"{hash}","timing":true}}"#),
        );
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        let t = r.get("timing").expect("timing object on timed reply");
        assert!(t.get("queue_wait_us").unwrap().as_u64().is_some());
        assert!(t.get("checkout_us").unwrap().as_u64().is_some());
        assert!(t.get("compute_us").unwrap().as_u64().is_some());

        let r = roundtrip(&mut stream, &mut reader, r#"{"id":3,"op":"stats"}"#);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        let analyze = r
            .get("result")
            .and_then(|v| v.get("endpoints"))
            .and_then(|v| v.get("analyze"))
            .expect("analyze endpoint in stats");
        assert!(
            analyze.get("queue_wait_p50_us").is_some(),
            "stats must report the queue-wait vs compute phase split"
        );
        assert!(analyze.get("compute_p99_us").is_some());

        let r = roundtrip(&mut stream, &mut reader, r#"{"id":4,"op":"shutdown"}"#);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        drop(stream);
        handle.wait();
    }

    #[test]
    fn a_failing_batch_entry_carries_the_error_of_the_op_sent_alone() {
        let handle = serve(ServeConfig::default()).unwrap();
        let (mut stream, mut reader) = connect(&handle);
        let r = roundtrip(
            &mut stream,
            &mut reader,
            r#"{"id":1,"op":"submit","builtin":"c17"}"#,
        );
        let hash = r
            .get("result")
            .and_then(|v| v.get("circuit"))
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        // c17 has five inputs, so a two-value `probs` vector is refused.
        let bad = r#"{"op":"analyze","probs":[0.5,0.5]}"#;
        let alone = roundtrip(
            &mut stream,
            &mut reader,
            &format!(r#"{{"id":2,"op":"analyze","circuit":"{hash}","probs":[0.5,0.5]}}"#),
        );
        assert_eq!(alone.get("ok").and_then(Json::as_bool), Some(false));
        let r = roundtrip(
            &mut stream,
            &mut reader,
            &format!(
                r#"{{"id":3,"op":"batch","circuit":"{hash}","requests":[{bad},{{"op":"analyze"}}]}}"#
            ),
        );
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
        let results = r
            .get("result")
            .and_then(|v| v.get("results"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].get("ok").and_then(Json::as_bool), Some(false));
        let error = results[0].get("error").unwrap();
        assert_eq!(Some(error), alone.get("error"));
        assert!(error.get("kind").and_then(Json::as_str).is_some());
        assert_eq!(results[1].get("ok").and_then(Json::as_bool), Some(true));
        let r = roundtrip(&mut stream, &mut reader, r#"{"id":4,"op":"shutdown"}"#);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        drop(stream);
        handle.wait();
    }

    #[test]
    fn malformed_lines_keep_the_connection_alive() {
        let handle = serve(ServeConfig {
            max_line_bytes: 1024,
            ..ServeConfig::default()
        })
        .unwrap();
        let (mut stream, mut reader) = connect(&handle);

        let r = roundtrip(&mut stream, &mut reader, "{this is not json");
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
        let kind = r
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        assert_eq!(kind, "parse");

        // Oversized line: discarded, typed reply, connection still fine.
        let big = format!("{{\"op\":\"submit\",\"text\":\"{}\"}}", "x".repeat(4096));
        let r = roundtrip(&mut stream, &mut reader, &big);
        assert_eq!(
            r.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("oversized")
        );

        let r = roundtrip(
            &mut stream,
            &mut reader,
            r#"{"id":9,"op":"submit","builtin":"c17"}"#,
        );
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));

        drop(stream);
        handle.shutdown();
    }

    /// Each new connection is accepted as soon as it arrives. Sequential
    /// connect → request → close cycles used to land right after the
    /// acceptor's last `accept` and wait out its whole poll sleep.
    #[test]
    fn new_connections_are_accepted_without_a_polling_delay() {
        let handle = serve(ServeConfig::default()).unwrap();
        let mut waits: Vec<Duration> = (0..15)
            .map(|_| {
                let start = Instant::now();
                let (mut stream, mut reader) = connect(&handle);
                let r = roundtrip(&mut stream, &mut reader, r#"{"op":"stats"}"#);
                assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
                start.elapsed()
            })
            .collect();
        waits.sort();
        assert!(
            waits[waits.len() / 2] < Duration::from_millis(10),
            "median connect-to-reply {:?}",
            waits[waits.len() / 2]
        );
        handle.shutdown();
    }

    /// A `shutdown` request wakes the blocked acceptor: `wait` returns
    /// without any other connection arriving.
    #[test]
    fn wire_shutdown_wakes_the_blocking_acceptor() {
        let handle = serve(ServeConfig::default()).unwrap();
        let (mut stream, mut reader) = connect(&handle);
        let r = roundtrip(&mut stream, &mut reader, r#"{"op":"shutdown"}"#);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        drop(stream);
        let start = Instant::now();
        handle.wait();
        assert!(start.elapsed() < Duration::from_secs(5));
    }
}
