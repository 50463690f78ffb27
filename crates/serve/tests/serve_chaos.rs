//! Chaos suite: fault injection through `protest_core::failpoints`
//! proves the daemon's robustness contract — **no request ever goes
//! unanswered**, injected worker panics become typed `internal` replies
//! and leave the shared workers serving every circuit, deadline-exceeded
//! requests actually stop computing, and results that survive the chaos
//! stay bit-identical to a calm run.
//!
//! Failpoints are process-global, so every test here serializes on one
//! mutex and resets the table when it is done.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use protest_core::failpoints;
use protest_serve::{serve, Json, ServeConfig, ServerHandle};

/// Serializes the tests in this file: failpoint configuration is
/// process-global state.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn connect(handle: &ServerHandle) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn roundtrip(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    writer.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(!reply.is_empty(), "request must never go unanswered");
    Json::parse(&reply).unwrap()
}

fn error_kind(reply: &Json) -> Option<String> {
    if reply.get("ok").and_then(Json::as_bool) == Some(false) {
        reply
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .map(str::to_string)
    } else {
        None
    }
}

fn robustness_counter(stats: &Json, key: &str) -> u64 {
    stats
        .get("result")
        .and_then(|r| r.get("robustness"))
        .and_then(|r| r.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats missing robustness.{key}"))
}

const ANALYZE: &str = r#"{"id":1,"op":"analyze","circuit":"builtin:c17","prob":0.5}"#;

#[test]
fn injected_worker_panics_become_internal_errors_and_daemon_survives() {
    let _guard = chaos_lock();
    failpoints::configure("serve.worker.panic=1in5");
    let handle = serve(ServeConfig::default()).unwrap();
    let (mut w, mut r) = connect(&handle);
    let reply = roundtrip(&mut w, &mut r, r#"{"op":"submit","builtin":"c17"}"#);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));

    let mut ok_lines = Vec::new();
    let mut internals = 0u32;
    for _ in 0..30 {
        let reply = roundtrip(&mut w, &mut r, ANALYZE);
        match error_kind(&reply) {
            None => ok_lines.push(reply.get("result").unwrap().to_line()),
            Some(kind) => {
                assert_eq!(kind, "internal", "only the injected panic may fail");
                internals += 1;
            }
        }
    }
    assert!(
        internals >= 1,
        "1in5 over 30 requests must panic at least once"
    );
    assert!(!ok_lines.is_empty(), "most requests must still succeed");
    // Survivors are bit-identical to each other and to a calm run.
    failpoints::reset();
    let calm = roundtrip(&mut w, &mut r, ANALYZE);
    let calm_line = calm.get("result").unwrap().to_line();
    for line in &ok_lines {
        assert_eq!(*line, calm_line, "chaos must never change surviving bits");
    }

    let stats = roundtrip(&mut w, &mut r, r#"{"op":"stats"}"#);
    assert!(robustness_counter(&stats, "worker_panics") >= 1);
    assert!(
        robustness_counter(&stats, "sessions_discarded") >= 1,
        "a panicking worker's session must be discarded, not re-pooled"
    );

    // The workers that panicked on c17 are shared: a second circuit must
    // still be served by them.
    let reply = roundtrip(&mut w, &mut r, r#"{"op":"submit","builtin":"comp24"}"#);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    let reply = roundtrip(
        &mut w,
        &mut r,
        r#"{"op":"analyze","circuit":"builtin:comp24","detect_probs":false}"#,
    );
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "a second circuit must be served by the same workers: {reply:?}"
    );
    handle.shutdown();
}

#[test]
fn deadline_exceeded_requests_stop_computing() {
    let _guard = chaos_lock();
    // Every propagate sleeps 100 ms; the request deadline is 50 ms, so
    // the reply is a timeout AND the in-flight analysis must abort at
    // its next poll point instead of running to completion.
    failpoints::configure("core.propagate.delay=100ms");
    let handle = serve(ServeConfig {
        request_timeout: Duration::from_millis(50),
        ..ServeConfig::default()
    })
    .unwrap();
    let (mut w, mut r) = connect(&handle);
    let reply = roundtrip(&mut w, &mut r, r#"{"op":"submit","builtin":"c17"}"#);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));

    // A probability different from the pool's base vector, so the dirty
    // worklist actually propagates (that loop hosts the delay site).
    let reply = roundtrip(
        &mut w,
        &mut r,
        r#"{"op":"analyze","circuit":"builtin:c17","prob":0.3}"#,
    );
    assert_eq!(error_kind(&reply).as_deref(), Some("timeout"));

    // The worker notices the fired token shortly after; poll stats until
    // the cancellation is visible as *stopped work*.
    failpoints::reset();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = roundtrip(&mut w, &mut r, r#"{"op":"stats"}"#);
        if robustness_counter(&stats, "cancelled_work") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cancelled_work never incremented: the timeout did not stop the computation"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The pool quarantined whatever the cancel poisoned; service continues.
    let reply = roundtrip(&mut w, &mut r, ANALYZE);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    handle.shutdown();
}

/// The deadline mix: each client interleaves a doomed `optimize` (every
/// objective evaluation slowed by `core.detect.delay`, so the climb always
/// outlives the 150 ms deadline) with a burst of fast `analyze`s. The
/// deadline must stop the climbs rather than leave them running on the
/// shared workers, and the fast queries behind them must still be served.
#[test]
fn deadline_mix_cancels_doomed_climbs_and_keeps_serving() {
    let _guard = chaos_lock();
    failpoints::configure("core.detect.delay=10ms");
    let handle = serve(ServeConfig {
        request_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    })
    .unwrap();
    {
        let (mut w, mut r) = connect(&handle);
        let reply = roundtrip(&mut w, &mut r, r#"{"op":"submit","builtin":"c17"}"#);
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    }

    let (clients, rounds) = (2, 2);
    std::thread::scope(|scope| {
        for c in 0..clients {
            let handle = &handle;
            scope.spawn(move || {
                let (mut w, mut r) = connect(handle);
                for i in 0..rounds {
                    let slow = format!(
                        r#"{{"op":"optimize","circuit":"builtin:c17","n_target":2000,"seed":{}}}"#,
                        c * rounds + i + 1
                    );
                    let reply = roundtrip(&mut w, &mut r, &slow);
                    match error_kind(&reply).as_deref() {
                        Some("timeout") | Some("busy") | None => {}
                        Some(kind) => panic!("slow request failed with {kind}"),
                    }
                    for j in 0..4 {
                        let p = 0.20 + 0.05 * ((c + i + j) % 8) as f64;
                        let fast =
                            format!(r#"{{"op":"analyze","circuit":"builtin:c17","prob":{p:.2}}}"#);
                        let reply = roundtrip(&mut w, &mut r, &fast);
                        match error_kind(&reply).as_deref() {
                            None | Some("timeout") | Some("busy") => {}
                            Some(kind) => panic!("fast request failed with {kind}"),
                        }
                    }
                }
            });
        }
    });

    // Workers notice a fired token at their next poll point; give the
    // last cancellation time to land in the counter.
    let (mut w, mut r) = connect(&handle);
    let deadline = Instant::now() + Duration::from_secs(10);
    let cancelled_work = loop {
        let stats = roundtrip(&mut w, &mut r, r#"{"op":"stats"}"#);
        let cancelled = robustness_counter(&stats, "cancelled_work");
        if cancelled >= 1 || Instant::now() >= deadline {
            break cancelled;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        cancelled_work >= 1,
        "cancel_on_timeout run never stopped a computation"
    );
    failpoints::reset();
    handle.shutdown();
}

#[test]
fn capacity_cap_evicts_the_least_recently_used_idle_host() {
    let _guard = chaos_lock();
    failpoints::reset();
    let handle = serve(ServeConfig {
        max_circuits: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let (mut w, mut r) = connect(&handle);

    let reply = roundtrip(&mut w, &mut r, r#"{"op":"submit","builtin":"c17"}"#);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    // Touch c17 so its LRU stamp is its dispatch time …
    let reply = roundtrip(&mut w, &mut r, ANALYZE);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    // … then register comp24, making c17 the least recently used. The
    // sleep keeps the two millisecond-resolution LRU stamps distinct.
    let reply = roundtrip(&mut w, &mut r, r#"{"op":"submit","builtin":"comp24"}"#);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    std::thread::sleep(Duration::from_millis(10));
    let reply = roundtrip(
        &mut w,
        &mut r,
        r#"{"op":"analyze","circuit":"builtin:comp24","detect_probs":false}"#,
    );
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));

    // A third circuit must evict c17 (idle + least recently used).
    let reply = roundtrip(
        &mut w,
        &mut r,
        r#"{"op":"submit","text":"INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n"}"#,
    );
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));

    let reply = roundtrip(&mut w, &mut r, ANALYZE);
    assert_eq!(
        error_kind(&reply).as_deref(),
        Some("not_found"),
        "the evicted circuit must answer with a typed not_found"
    );
    // The survivor keeps serving.
    let reply = roundtrip(
        &mut w,
        &mut r,
        r#"{"op":"analyze","circuit":"builtin:comp24","detect_probs":false}"#,
    );
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));

    let stats = roundtrip(&mut w, &mut r, r#"{"op":"stats"}"#);
    assert!(robustness_counter(&stats, "evictions") >= 1);
    handle.shutdown();
}

#[test]
fn no_request_goes_unanswered_under_mixed_chaos() {
    let _guard = chaos_lock();
    failpoints::configure("serve.worker.panic=1in7,serve.worker.delay=1ms");
    let handle = serve(ServeConfig::default()).unwrap();
    {
        let (mut w, mut r) = connect(&handle);
        let reply = roundtrip(&mut w, &mut r, r#"{"op":"submit","builtin":"c17"}"#);
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    }

    // Four clients, mixed well-formed and hostile traffic, all
    // concurrent. Every line written must come back answered.
    let ok_lines: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|client| {
                let handle = &handle;
                scope.spawn(move || {
                    let (mut w, mut r) = connect(handle);
                    let mut survivors = Vec::new();
                    for i in 0..12 {
                        let reply = match (client + i) % 3 {
                            0 => roundtrip(&mut w, &mut r, ANALYZE),
                            1 => roundtrip(&mut w, &mut r, "{broken json"),
                            _ => roundtrip(&mut w, &mut r, r#"{"op":"analyze","circuit":"nope"}"#),
                        };
                        match error_kind(&reply) {
                            None => survivors.push(reply.get("result").unwrap().to_line()),
                            Some(kind) => assert!(
                                ["internal", "parse", "not_found", "busy"].contains(&kind.as_str()),
                                "unexpected failure kind {kind}"
                            ),
                        }
                    }
                    survivors
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    failpoints::reset();
    let (mut w, mut r) = connect(&handle);
    let calm = roundtrip(&mut w, &mut r, ANALYZE);
    let calm_line = calm.get("result").unwrap().to_line();
    for line in &ok_lines {
        assert_eq!(
            *line, calm_line,
            "surviving results must stay bit-identical"
        );
    }
    handle.shutdown();
}
