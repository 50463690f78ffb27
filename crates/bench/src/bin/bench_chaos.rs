//! Robustness benchmark for the `protest serve` daemon: what does
//! cooperative cancellation buy under a deadline-heavy mix?
//!
//! Writes `BENCH_robustness.json` (path overridable as the first CLI
//! argument). `--smoke` shrinks every workload to a CI-sized run.
//!
//! ```sh
//! cargo run --release -p protest-bench --bin bench_chaos [-- [--smoke] [PATH]]
//! ```
//!
//! **Deadline mix**: every client interleaves one doomed `optimize` (a
//! hill climb whose objective evaluations are slowed by the
//! `core.detect.delay` failpoint, so it always blows the 150 ms request
//! deadline) with a burst of fast `analyze` queries. It runs twice, each
//! against a fresh in-process daemon: with `cancel_on_timeout` the
//! deadline *stops* the climb at its next poll point and frees the
//! worker; without it the abandoned climb keeps burning a worker long
//! after its client got the timeout reply, so the fast queries queue
//! behind zombie work. The gap in fast-query latency and ok-rate is the
//! payoff of cancellation.
//!
//! Fault injection doubles as a clock here: the failpoint delay makes
//! the slow/fast split deterministic instead of machine-dependent.
//! The build container is 1-core, so absolute replies/sec understates
//! multi-core serving; the on/off contrast is the result.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use protest_bench::banner;
use protest_core::failpoints;
use protest_serve::{serve, Json, ServeConfig, ServerHandle};

/// Per-sweep injected latency: slow enough that a hill climb (dozens of
/// objective evaluations) always exceeds [`DEADLINE`], fast enough that
/// a single analyze (one sweep) stays far under it.
const SWEEP_DELAY: &str = "core.detect.delay=10ms";
/// Request deadline for the deadline-mix experiment.
const DEADLINE: Duration = Duration::from_millis(150);

struct MixResult {
    mode: &'static str,
    clients: usize,
    replies: usize,
    wall_s: f64,
    replies_per_sec: f64,
    fast_ok: u64,
    fast_timeouts: u64,
    fast_p50_us: u64,
    fast_p99_us: u64,
    slow_requests: u64,
    slow_timeouts: u64,
    cancelled_work: u64,
    timeouts: u64,
}

fn quantile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx]
}

fn connect(handle: &ServerHandle) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

/// One round-trip that tolerates error replies (this is a chaos bench:
/// timeouts are expected traffic). Returns the latency and the reply.
fn roundtrip(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> (Duration, Json) {
    let start = Instant::now();
    // One write per request: a trailing lone-newline write would sit in
    // Nagle's buffer waiting for the delayed ACK (~40 ms per request).
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    writer.write_all(framed.as_bytes()).expect("send request");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    assert!(!reply.is_empty(), "request went unanswered: {line}");
    (start.elapsed(), Json::parse(&reply).expect("reply JSON"))
}

/// `Some(kind)` for an error reply, `None` for success.
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

fn expect_ok(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) {
    let (_, reply) = roundtrip(writer, reader, line);
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "setup request `{line}` failed: {reply:?}"
    );
}

/// The deadline mix against a fresh daemon with cancellation on or off.
fn run_mix(
    mode: &'static str,
    cancel_on_timeout: bool,
    clients: usize,
    rounds: usize,
) -> MixResult {
    failpoints::configure(SWEEP_DELAY);
    let handle = serve(ServeConfig {
        request_timeout: DEADLINE,
        cancel_on_timeout,
        ..ServeConfig::default()
    })
    .expect("start daemon");
    {
        let (mut w, mut r) = connect(&handle);
        expect_ok(&mut w, &mut r, r#"{"op":"submit","builtin":"c17"}"#);
    }

    // (fast latencies in us, fast ok, fast timeouts, slow timeouts)
    type ClientTally = (Vec<u64>, u64, u64, u64);
    let wall = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let handle = &handle;
                scope.spawn(move || {
                    let (mut w, mut r) = connect(handle);
                    let mut tally: ClientTally = (Vec::new(), 0, 0, 0);
                    for i in 0..rounds {
                        // The doomed request: dozens of delayed sweeps,
                        // guaranteed past the deadline.
                        let slow = format!(
                            r#"{{"op":"optimize","circuit":"builtin:c17","n_target":2000,"seed":{}}}"#,
                            c * rounds + i + 1
                        );
                        let (_, reply) = roundtrip(&mut w, &mut r, &slow);
                        match error_kind(&reply).as_deref() {
                            Some("timeout") | Some("busy") => tally.3 += 1,
                            Some(kind) => panic!("slow request failed with {kind}"),
                            None => {}
                        }
                        // The burst that suffers (or not) behind it.
                        for j in 0..4 {
                            let p = 0.20 + 0.05 * ((c + i + j) % 8) as f64;
                            let fast = format!(
                                r#"{{"op":"analyze","circuit":"builtin:c17","prob":{p:.2}}}"#
                            );
                            let (lat, reply) = roundtrip(&mut w, &mut r, &fast);
                            tally.0.push(lat.as_micros() as u64);
                            match error_kind(&reply).as_deref() {
                                None => tally.1 += 1,
                                Some("timeout") | Some("busy") => tally.2 += 1,
                                Some(kind) => panic!("fast request failed with {kind}"),
                            }
                        }
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let wall_s = wall.elapsed().as_secs_f64();

    // Pool gauges refresh lazily; one stats round-trip forces it.
    {
        let (mut w, mut r) = connect(&handle);
        expect_ok(&mut w, &mut r, r#"{"op":"stats"}"#);
    }
    let load = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
    let metrics = handle.metrics();
    let cancelled_work = load(&metrics.cancelled_work);
    let timeouts = load(&metrics.timeouts);
    // Undo the sweep delay *before* the drain: without cancellation the
    // abandoned climbs are still running, and they should finish at full
    // speed rather than stretch the shutdown.
    failpoints::reset();
    handle.shutdown();

    let mut fast_us: Vec<u64> = Vec::new();
    let (mut fast_ok, mut fast_timeouts, mut slow_timeouts) = (0u64, 0u64, 0u64);
    for (lats, ok, ft, st) in tallies {
        fast_us.extend(lats);
        fast_ok += ok;
        fast_timeouts += ft;
        slow_timeouts += st;
    }
    fast_us.sort_unstable();
    let replies = fast_us.len() + (clients * rounds);
    MixResult {
        mode,
        clients,
        replies,
        wall_s,
        replies_per_sec: replies as f64 / wall_s,
        fast_ok,
        fast_timeouts,
        fast_p50_us: quantile(&fast_us, 0.50),
        fast_p99_us: quantile(&fast_us, 0.99),
        slow_requests: (clients * rounds) as u64,
        slow_timeouts,
        cancelled_work,
        timeouts,
    }
}

fn json(mixes: &[MixResult], smoke: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"robustness\",\n");
    out.push_str("  \"unit\": \"us\",\n");
    out.push_str(
        "  \"description\": \"protest serve chaos benchmark. deadline_mix: each client \
         interleaves one doomed optimize (objective evaluations slowed by the core.detect.delay \
         failpoint, always past the 150ms deadline) with four fast analyzes; with \
         cancel_on_timeout the deadline stops the climb and frees the worker, without it the \
         zombie climb starves the fast queries (compare fast_p99_us / fast_ok / fast_timeouts). \
         1-core container: replies_per_sec measures interleaving, the on/off contrast is the \
         result.\",\n",
    );
    out.push_str("  \"command\": \"cargo run --release -p protest-bench --bin bench_chaos\",\n");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    out.push_str("  \"deadline_mix\": [\n");
    for (i, m) in mixes.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\n      \"mode\": \"{}\",\n      \"clients\": {},\n      \
             \"replies\": {},\n      \"wall_s\": {:.3},\n      \"replies_per_sec\": {:.1},\n      \
             \"fast\": {{\"ok\": {}, \"timeouts\": {}, \"p50_us\": {}, \"p99_us\": {}}},\n      \
             \"slow\": {{\"requests\": {}, \"timeouts\": {}}},\n      \
             \"daemon\": {{\"cancelled_work\": {}, \"timeouts\": {}}}\n    }}{}\n",
            m.mode,
            m.clients,
            m.replies,
            m.wall_s,
            m.replies_per_sec,
            m.fast_ok,
            m.fast_timeouts,
            m.fast_p50_us,
            m.fast_p99_us,
            m.slow_requests,
            m.slow_timeouts,
            m.cancelled_work,
            m.timeouts,
            if i + 1 == mixes.len() { "" } else { "," },
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut smoke = false;
    let mut path = "BENCH_robustness.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            path = arg;
        }
    }
    banner(
        "serve robustness: cancellation payoff under deadlines",
        "fault injection via PROTEST_FAILPOINTS-style sites",
    );

    let (clients, rounds) = if smoke { (2, 2) } else { (3, 4) };

    let with_cancel = run_mix("cancel_on_timeout", true, clients, rounds);
    let without = run_mix("no_cancel", false, clients, rounds);

    for m in [&with_cancel, &without] {
        println!(
            "{:17} {} clients, {:3} replies in {:6.2}s = {:7.1} replies/s | fast ok {:3} timeouts {:3} p50 {:>7}us p99 {:>8}us | cancelled_work {}",
            m.mode,
            m.clients,
            m.replies,
            m.wall_s,
            m.replies_per_sec,
            m.fast_ok,
            m.fast_timeouts,
            m.fast_p50_us,
            m.fast_p99_us,
            m.cancelled_work,
        );
    }

    // The contract, not the performance: cancellation must actually stop
    // work when on, and must never fire when off.
    assert!(
        with_cancel.cancelled_work >= 1,
        "cancel_on_timeout run never stopped a computation"
    );
    assert_eq!(
        without.cancelled_work, 0,
        "no_cancel run must not cancel anything"
    );

    std::fs::write(&path, json(&[with_cancel, without], smoke)).expect("write benchmark JSON");
    println!("wrote {path}");
}
