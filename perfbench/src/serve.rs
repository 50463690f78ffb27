//! The `serve-mix` workload: an in-process `protest_serve` daemon under a
//! closed loop of [`CLIENTS`] TCP connections.
//!
//! Each client repeats a seeded cycle of requests: [`HOT_ANALYZES`]
//! `analyze` calls on the warm hot circuit (`comp24`), one `batch` of
//! [`BATCH_SIZE`] analyzes, one re-submit of the hot text (a registry
//! hit), and one submit of a unique variant of the text (a registry miss
//! that parses, builds and, past [`MAX_CIRCUITS`], evicts) followed by an
//! `analyze` on it. Every served result must be `to_bits`-equal to the
//! direct library result computed before the daemon starts.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use protest_core::testlen::required_test_length_fraction;
use protest_core::{Analyzer, InputProbs};
use protest_netlist::{parse_bench, to_bench};
use protest_serve::{serve, Json, Metrics, ServeConfig, ServerHandle};
use protest_telemetry::Site;

use crate::check::{self, Tally};
use crate::layers::{self, SiteClock};
use crate::report::{Report, SERVE_KINDS};
use crate::stats::{digest, mean, median, tail, Rng, DIGEST_INIT};
use crate::SetupClock;

const HOT: &str = "comp24";
/// Closed-loop clients: callers such as CI jobs wait for each reply.
const CLIENTS: u64 = 2;
/// Probability points (seeded k/16 vectors) the requests draw from.
const POINTS: usize = 8;
const HOT_ANALYZES: usize = 8;
const BATCH_SIZE: usize = 10;
/// Resident-circuit cap: low, so the cold submits evict and the daemon's
/// host-thread count stays bounded.
const MAX_CIRCUITS: usize = 8;
/// Cycles per client in the traced phase (fixed, so its counts repeat).
const TRACE_CYCLES: u64 = 300;
const ACCURACY_PATTERNS: u64 = 8192;

/// One request of the mix.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    HotSubmit,
    /// A unique variant of the hot text (`variant` numbers it).
    ColdSubmit {
        variant: u64,
    },
    /// On the hot circuit, or on the last cold submit when `cold`.
    Analyze {
        point: usize,
        detect: bool,
        cold: bool,
    },
    Batch {
        points: Vec<usize>,
    },
}

impl Req {
    fn kind(&self) -> usize {
        match self {
            Req::Analyze { .. } => 0,
            Req::Batch { .. } => 1,
            Req::HotSubmit | Req::ColdSubmit { .. } => 2,
        }
    }
}

/// One client's seeded, endless request sequence, cycle by cycle.
pub struct Mix {
    rng: Rng,
    cycle: u64,
    variants: u64,
    detect: bool,
    queue: VecDeque<Req>,
}

impl Mix {
    pub fn new(seed: u64, client: u64) -> Self {
        Mix {
            rng: Rng::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(client + 1)),
            cycle: 0,
            variants: 0,
            detect: false,
            queue: VecDeque::new(),
        }
    }

    /// Completed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    fn refill(&mut self) {
        // `None` marks the cold submit + analyze pair.
        let mut slots: Vec<Option<Req>> = Vec::with_capacity(HOT_ANALYZES + 3);
        for _ in 0..HOT_ANALYZES {
            self.detect = !self.detect;
            let point = self.rng.below(POINTS as u64) as usize;
            slots.push(Some(Req::Analyze {
                point,
                detect: self.detect,
                cold: false,
            }));
        }
        let points = (0..BATCH_SIZE)
            .map(|_| self.rng.below(POINTS as u64) as usize)
            .collect();
        slots.push(Some(Req::Batch { points }));
        slots.push(Some(Req::HotSubmit));
        slots.push(None);
        for i in (1..slots.len()).rev() {
            slots.swap(i, self.rng.below(i as u64 + 1) as usize);
        }
        for slot in slots {
            match slot {
                Some(req) => self.queue.push_back(req),
                None => {
                    self.variants += 1;
                    self.queue.push_back(Req::ColdSubmit {
                        variant: self.variants,
                    });
                    let point = self.rng.below(POINTS as u64) as usize;
                    self.queue.push_back(Req::Analyze {
                        point,
                        detect: true,
                        cold: true,
                    });
                }
            }
        }
    }
}

impl Iterator for Mix {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        if self.queue.is_empty() {
            self.refill();
        }
        let req = self.queue.pop_front();
        if self.queue.is_empty() {
            self.cycle += 1;
        }
        req
    }
}

/// A probability point with its direct-API reference result.
struct Point {
    probs: Vec<f64>,
    probs_json: String,
    detect: Vec<f64>,
    testlen: Option<u64>,
}

/// The generated inputs and their reference results.
struct Inputs {
    seed: u64,
    text: String,
    points: Vec<Point>,
}

fn generate(seed: u64) -> (String, Vec<Vec<f64>>) {
    let circuit = protest_circuits::by_name(HOT).expect("builtin circuit");
    let mut rng = Rng::new(seed);
    let points = (0..POINTS)
        .map(|_| rng.grid_probs(circuit.num_inputs()))
        .collect();
    (to_bench(&circuit), points)
}

/// The direct library results every served value must equal.
fn reference(seed: u64) -> Inputs {
    let (text, probs) = generate(seed);
    let circuit = parse_bench("bench", &text).expect("generated text parses");
    let analyzer = Analyzer::new(&circuit);
    let points = probs
        .iter()
        .map(|p| {
            let probs = InputProbs::from_slice(p).expect("grid probabilities");
            let mut session = analyzer.session(&probs).expect("session opens");
            let detect = session.fault_detect_probs().to_vec();
            let testlen = required_test_length_fraction(&detect, 0.98, 0.98).map(|t| t.patterns);
            Point {
                probs: p.clone(),
                probs_json: Json::Arr(p.iter().map(|&x| Json::Num(x)).collect()).to_line(),
                detect,
                testlen,
            }
        })
        .collect();
    Inputs { seed, text, points }
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer,
            reader,
            next_id: 0,
        })
    }

    /// Sends `{"id":…,<body>}` and returns the reply's `result` with the
    /// reply's `timing` object and the round trip in microseconds. A
    /// non-ok reply is an error.
    fn call(&mut self, body: &str) -> Result<(Json, Option<Json>, f64), String> {
        self.next_id += 1;
        let line = format!("{{\"id\":{},{body}}}\n", self.next_id);
        let mut reply = String::new();
        let t = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        self.reader
            .read_line(&mut reply)
            .map_err(|e| e.to_string())?;
        let rtt_us = t.elapsed().as_secs_f64() * 1e6;
        let parsed = Json::parse(&reply).map_err(|e| format!("reply: {e}"))?;
        if parsed.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("error reply: {}", reply.trim()));
        }
        let result = parsed
            .get("result")
            .cloned()
            .ok_or("reply without result")?;
        Ok((result, parsed.get("timing").cloned(), rtt_us))
    }
}

fn floats(v: &Json, key: &str) -> Result<Vec<f64>, String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("no `{key}` in reply"))?
        .iter()
        .map(|x| x.as_f64().ok_or(format!("non-number in `{key}`")))
        .collect()
}

/// Checks one served analyze result against the point's reference.
fn check_analyze(result: &Json, point: &Point, detect: bool) -> Result<(), String> {
    let faults = result.get("faults").and_then(Json::as_u64);
    if faults != Some(point.detect.len() as u64) {
        return Err(format!(
            "served {faults:?} faults, expected {}",
            point.detect.len()
        ));
    }
    let served_n = result
        .get("testlen")
        .and_then(Json::as_arr)
        .and_then(|rows| rows.first())
        .and_then(|row| row.get("patterns"))
        .and_then(Json::as_u64);
    if served_n != point.testlen {
        return Err(format!("served N {served_n:?}, direct {:?}", point.testlen));
    }
    if detect {
        check::bit_equal(
            "detect_probs",
            &floats(result, "detect_probs")?,
            &point.detect,
        )?;
    }
    Ok(())
}

fn analyze_body(key: &str, point: &Point, detect: bool, timing: bool) -> String {
    format!(
        "\"op\":\"analyze\",\"circuit\":{},\"probs\":{},\"testlen\":[[0.98,0.98]],\
         \"detect_probs\":{detect},\"timing\":{timing}",
        Json::str(key).to_line(),
        point.probs_json
    )
}

fn submit_body(text: &str) -> String {
    format!(
        "\"op\":\"submit\",\"format\":\"bench\",\"text\":{}",
        Json::str(text).to_line()
    )
}

/// One request's measurements.
#[derive(Debug, Clone, Copy)]
struct Sample {
    kind: usize,
    rtt_us: f64,
    /// Daemon-side `queue_wait_us`, `checkout_us`, `compute_us`.
    phases: [f64; 3],
}

#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    tally: Tally,
}

#[derive(Clone, Copy)]
enum Until {
    Deadline(Instant),
    Cycles(u64),
}

/// Runs one closed-loop client: each request goes out after the previous
/// reply came back.
fn client(
    addr: SocketAddr,
    hot_key: &str,
    inputs: &Inputs,
    id: u64,
    until: Until,
    timing: bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            log.tally.record(Err(e));
            return log;
        }
    };
    let mut mix = Mix::new(inputs.seed, id);
    let mut cold_key: Option<String> = None;
    loop {
        let done = match until {
            Until::Deadline(t) => Instant::now() >= t,
            Until::Cycles(n) => mix.cycles() >= n,
        };
        if done {
            break;
        }
        let req = mix.next().expect("the mix is endless");
        let outcome = match &req {
            Req::HotSubmit => conn
                .call(&submit_body(&inputs.text))
                .and_then(
                    |(res, t, rtt)| match res.get("cached").and_then(Json::as_bool) {
                        Some(true) => Ok((t, rtt)),
                        _ => Err("hot re-submit missed the registry".to_string()),
                    },
                ),
            Req::ColdSubmit { variant } => {
                let text = format!(
                    "{}# variant seed {} client {id} n {variant}\n",
                    inputs.text, inputs.seed
                );
                conn.call(&submit_body(&text)).and_then(|(res, t, rtt)| {
                    if res.get("cached").and_then(Json::as_bool) != Some(false) {
                        return Err("unique text hit the registry".to_string());
                    }
                    let key = res
                        .get("circuit")
                        .and_then(Json::as_str)
                        .ok_or("no circuit key")?;
                    cold_key = Some(key.to_string());
                    Ok((t, rtt))
                })
            }
            Req::Analyze {
                point,
                detect,
                cold,
            } => {
                let key = if *cold {
                    cold_key.as_deref().unwrap_or("")
                } else {
                    hot_key
                };
                let p = &inputs.points[*point];
                conn.call(&analyze_body(key, p, *detect, timing))
                    .and_then(|(res, t, rtt)| check_analyze(&res, p, *detect).map(|()| (t, rtt)))
            }
            Req::Batch { points } => {
                let ops: Vec<String> = points
                    .iter()
                    .map(|&i| {
                        format!(
                            "{{\"op\":\"analyze\",\"probs\":{},\"testlen\":[[0.98,0.98]]}}",
                            inputs.points[i].probs_json
                        )
                    })
                    .collect();
                let body = format!(
                    "\"op\":\"batch\",\"circuit\":{},\"timing\":{timing},\"requests\":[{}]",
                    Json::str(hot_key).to_line(),
                    ops.join(",")
                );
                conn.call(&body).and_then(|(res, t, rtt)| {
                    let results = res
                        .get("results")
                        .and_then(Json::as_arr)
                        .ok_or("no results")?;
                    if results.len() != points.len() {
                        return Err(format!("{} batch results", results.len()));
                    }
                    for (r, &i) in results.iter().zip(points) {
                        if r.get("ok").and_then(Json::as_bool) != Some(true) {
                            return Err(format!("batch entry failed: {}", r.to_line()));
                        }
                        let res = r.get("result").ok_or("batch entry without result")?;
                        check_analyze(res, &inputs.points[i], true)?;
                    }
                    Ok((t, rtt))
                })
            }
        };
        match outcome {
            Ok((t, rtt_us)) => {
                let phase = |k: &str| {
                    t.as_ref()
                        .and_then(|t| t.get(k))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0)
                };
                log.samples.push(Sample {
                    kind: req.kind(),
                    rtt_us,
                    phases: [
                        phase("queue_wait_us"),
                        phase("checkout_us"),
                        phase("compute_us"),
                    ],
                });
                log.tally.record(Ok(()));
            }
            Err(e) => log.tally.record(Err(e)),
        }
    }
    log
}

/// Runs every client to `until` and merges their logs.
fn load(
    handle: &ServerHandle,
    hot_key: &str,
    inputs: &Inputs,
    until: Until,
    timing: bool,
) -> ClientLog {
    let addr = handle.addr();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|id| s.spawn(move || client(addr, hot_key, inputs, id, until, timing)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = ClientLog::default();
    for log in logs {
        all.samples.extend(log.samples);
        all.tally.merge(log.tally);
    }
    all
}

/// Starts the daemon, registers the hot circuit and warms it with one
/// analyze. Returns the handle and the hot circuit's key.
fn start(inputs: &Inputs) -> Result<(ServerHandle, String), String> {
    let handle = serve(ServeConfig {
        max_circuits: MAX_CIRCUITS,
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let warm = |handle: &ServerHandle| -> Result<String, String> {
        let mut conn = Conn::open(handle.addr())?;
        let (res, _, _) = conn.call(&submit_body(&inputs.text))?;
        let key = res
            .get("circuit")
            .and_then(Json::as_str)
            .ok_or("no circuit key")?
            .to_string();
        let (res, _, _) = conn.call(&analyze_body(&key, &inputs.points[0], true, false))?;
        check_analyze(&res, &inputs.points[0], true)?;
        Ok(key)
    };
    match warm(&handle) {
        Ok(key) => Ok((handle, key)),
        Err(e) => {
            handle.shutdown();
            Err(e)
        }
    }
}

/// Counters read from the daemon's metrics hub.
#[derive(Debug, Clone, Copy)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    warm: u64,
    cold: u64,
    busy: u64,
}

impl Counters {
    fn read(m: &Metrics) -> Self {
        let r = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        Counters {
            hits: r(&m.cache_hits),
            misses: r(&m.cache_misses),
            evictions: r(&m.evictions),
            warm: r(&m.session_warm_hits),
            cold: r(&m.session_cold_clones),
            busy: r(&m.busy),
        }
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut r = Report::default();
    let inputs = reference(seed);
    if trace {
        layers::estimator_split(&inputs.text, &inputs.points[0].probs, 1, &mut r);
    }
    // Set-up: generate the inputs, start the daemon, register and warm
    // the hot circuit. Three times; the last daemon serves the load.
    let mut times = Vec::new();
    let mut daemon = None;
    for rep in 0..3 {
        let t = Instant::now();
        // Regenerate the inputs, as a fresh set-up would.
        std::hint::black_box(generate(seed));
        let started = start(&inputs);
        times.push(t.elapsed().as_secs_f64());
        match started {
            Ok((handle, key)) if rep == 2 => daemon = Some((handle, key)),
            Ok((handle, _)) => handle.shutdown(),
            Err(e) => r.extra_failures.push(format!("set-up: {e}")),
        }
    }
    r.set("setup_s", median(&times));
    let Some((handle, hot_key)) = daemon else {
        return r;
    };

    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let log = load(&handle, &hot_key, &inputs, Until::Deadline(deadline), false);
    let busy_s = t0.elapsed().as_secs_f64();
    r.set("peak_rss_mb", crate::stats::status_mib("VmHWM"));
    let rtts: Vec<f64> = log.samples.iter().map(|s| s.rtt_us / 1e3).collect();
    let untraced_p50 = median(&rtts);
    r.set("op_p50_ms", untraced_p50);
    r.set("ops_per_s", rtts.len() as f64 / busy_s);
    r.note(format!(
        "requests {} in {busy_s:.3} s over {CLIENTS} closed-loop clients",
        rtts.len()
    ));
    note_latencies(&log.samples, &mut r, false);
    r.tally.merge(log.tally);
    // Every served value was checked `to_bits`-equal to these.
    let served = inputs.points.iter().flat_map(|p| p.detect.iter().copied());
    r.note(format!(
        "result_digest = {:016x}",
        digest(DIGEST_INIT, served)
    ));

    let p0 = &inputs.points[0];
    let circuit = parse_bench("bench", &inputs.text).expect("generated text parses");
    let faults = Analyzer::new(&circuit).faults().to_vec();
    let err = crate::accuracy(
        &circuit,
        &faults,
        &p0.detect,
        &p0.probs,
        seed,
        ACCURACY_PATTERNS,
    );
    r.set("detect_err_mean", err);

    if trace {
        traced(&handle, &hot_key, &inputs, untraced_p50, &mut r);
    }
    handle.shutdown();
    r
}

/// The traced phase: a fixed number of cycles per client with the
/// `timing` flag set and the telemetry sites armed.
fn traced(
    handle: &ServerHandle,
    hot_key: &str,
    inputs: &Inputs,
    untraced_p50: f64,
    r: &mut Report,
) {
    if let Err(e) = layers::analysis_pass(&inputs.text, &inputs.points[0].probs, 1, None, r) {
        r.tally.record(Err(e));
    }
    let metrics = handle.metrics();
    let c0 = Counters::read(&metrics);
    protest_telemetry::arm();
    let before = SiteClock::now();
    let log = load(handle, hot_key, inputs, Until::Cycles(TRACE_CYCLES), true);
    let after = SiteClock::now();
    protest_telemetry::disarm();
    drop(protest_telemetry::take());
    // The pool gauges are refreshed when `stats` is served.
    if let Err(e) = Conn::open(handle.addr()).and_then(|mut c| c.call("\"op\":\"stats\"")) {
        r.extra_failures.push(format!("stats: {e}"));
    }
    let c1 = Counters::read(&metrics);
    for (name, site) in [
        ("session.propagate_ms", Site::Propagate),
        ("observe.refresh_ms", Site::ObsRefresh),
        ("faults.reestimate_ms", Site::FaultReestimate),
    ] {
        r.set(name, before.ms_until(&after, site));
    }
    r.set_ratio(
        "registry.hit_ratio",
        c1.hits - c0.hits,
        c1.hits + c1.misses - c0.hits - c0.misses,
    );
    r.set("registry.evictions", (c1.evictions - c0.evictions) as f64);
    // Pool counters cover the resident circuits only (eviction drops a
    // host's), so this ratio is cumulative, not a delta.
    r.set_ratio("pool.warm_ratio", c1.warm, c1.warm + c1.cold);
    r.set("serve.busy", (c1.busy - c0.busy) as f64);
    note_latencies(&log.samples, r, true);
    let rtts: Vec<f64> = log.samples.iter().map(|s| s.rtt_us / 1e3).collect();
    let traced_p50 = median(&rtts);
    r.note(format!(
        "tracing overhead = traced p50 {traced_p50:.4} ms - untraced p50 {untraced_p50:.4} ms = {:.4} ms",
        traced_p50 - untraced_p50
    ));
    r.tally.merge(log.tally);
}

/// Per-kind latency notes; with `set`, also the per-kind metrics.
fn note_latencies(samples: &[Sample], r: &mut Report, set: bool) {
    for (k, kind) in SERVE_KINDS.iter().enumerate() {
        let of: Vec<&Sample> = samples.iter().filter(|s| s.kind == k).collect();
        let rtt: Vec<f64> = of.iter().map(|s| s.rtt_us / 1e3).collect();
        let p50 = median(&rtt);
        let t = tail(&rtt);
        r.note(format!(
            "serve.{kind}: n {}, rtt p50 {p50:.4} ms, tail {}",
            rtt.len(),
            t.map_or("n/a (too few samples)".to_string(), |t| format!(
                "p{:.2} {:.4} ms over {} samples",
                t.percent, t.value, t.samples
            ))
        ));
        if !set {
            continue;
        }
        let phase = |i: usize| mean(&of.iter().map(|s| s.phases[i]).collect::<Vec<_>>());
        let wire: Vec<f64> = of
            .iter()
            .map(|s| s.rtt_us - s.phases.iter().sum::<f64>())
            .collect();
        r.set(&format!("serve.{kind}.rtt_p50_ms"), p50);
        r.set(
            &format!("serve.{kind}.rtt_tail_ms"),
            t.map_or(0.0, |t| t.value),
        );
        r.set(&format!("serve.{kind}.queue_mean_us"), phase(0));
        r.set(&format!("serve.{kind}.checkout_mean_us"), phase(1));
        r.set(&format!("serve.{kind}.compute_mean_us"), phase(2));
        r.set(&format!("serve.{kind}.wire_mean_us"), mean(&wire));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_repeats_for_a_seed() {
        let a: Vec<Req> = Mix::new(3, 0).take(500).collect();
        let b: Vec<Req> = Mix::new(3, 0).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, Mix::new(4, 0).take(500).collect::<Vec<_>>());
        assert_ne!(a, Mix::new(3, 1).take(500).collect::<Vec<_>>());
    }

    #[test]
    fn mix_cycle_composition() {
        let per_cycle = HOT_ANALYZES + 4;
        let mut mix = Mix::new(11, 0);
        let reqs: Vec<Req> = (&mut mix).take(per_cycle * 5).collect();
        for cycle in reqs.chunks(per_cycle) {
            let count = |f: &dyn Fn(&Req) -> bool| cycle.iter().filter(|r| f(r)).count();
            assert_eq!(
                count(&|r| matches!(r, Req::Analyze { cold: false, .. })),
                HOT_ANALYZES
            );
            assert_eq!(
                count(&|r| matches!(r, Req::Batch { points } if points.len() == BATCH_SIZE)),
                1
            );
            assert_eq!(count(&|r| *r == Req::HotSubmit), 1);
            let cold = cycle
                .iter()
                .position(|r| matches!(r, Req::ColdSubmit { .. }))
                .unwrap();
            assert!(matches!(cycle[cold + 1], Req::Analyze { cold: true, .. }));
        }
        assert_eq!(mix.cycles(), 5);
        let variants: Vec<u64> = reqs
            .iter()
            .filter_map(|r| match r {
                Req::ColdSubmit { variant } => Some(*variant),
                _ => None,
            })
            .collect();
        assert_eq!(variants, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn served_results_must_match_bit_for_bit() {
        let inputs = reference(5);
        let p = &inputs.points[1];
        let reply = |detect: &[f64]| {
            Json::obj(vec![
                ("faults", Json::Num(p.detect.len() as f64)),
                (
                    "detect_probs",
                    Json::Arr(detect.iter().map(|&x| Json::Num(x)).collect()),
                ),
                (
                    "testlen",
                    Json::Arr(vec![Json::obj(vec![(
                        "patterns",
                        p.testlen.map_or(Json::Null, |n| Json::Num(n as f64)),
                    )])]),
                ),
            ])
        };
        assert!(check_analyze(&reply(&p.detect), p, true).is_ok());
        let mut off = p.detect.clone();
        off[7] = f64::from_bits(off[7].to_bits() + 1);
        assert!(check_analyze(&reply(&off), p, true).is_err());
        assert!(check_analyze(&reply(&off), p, false).is_ok());
    }
}
