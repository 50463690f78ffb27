//! The content-hash circuit registry and its shared worker pool.
//!
//! An [`Analyzer`] owns its circuit, so the registry is a plain map from
//! content hash to an [`Entry`]: the parsed circuit plus a
//! [`SessionPool`] built by the first job that reaches it. One pool of
//! `workers` threads serves every circuit from **one** bounded job queue;
//! each job carries its entry. [`try_push`](crate::queue::Bounded::try_push)
//! gives backpressure (full queue → typed `busy` reply, never unbounded
//! buffering) and a `sync_channel` carries the reply back with a
//! per-request timeout. The thread count is fixed at construction and
//! does not grow with the number of resident circuits.
//!
//! The registry key is a content hash computed over the *raw netlist
//! text* (before parsing), so resubmitting an already-known netlist never
//! parses, never builds, and shares the one warm `Analyzer` with every
//! other client — the cache-hit fast path the whole daemon is built
//! around. Built-ins are keyed `builtin:<name>`. A cold submit parses
//! outside the map lock, so it never stalls lookups of resident circuits.
//!
//! # Robustness
//!
//! Two failure paths are handled explicitly so no request ever goes
//! unanswered:
//!
//! * **Deadlines stop work.** Every dispatched job carries a
//!   [`CancelToken`] armed with the request deadline; when the client-side
//!   wait gives up, the token is cancelled and the in-flight analysis
//!   aborts cooperatively at its next poll point (`cancelled_work`
//!   metric).
//! * **Worker panics are contained.** Each job runs under
//!   [`catch_unwind`]; a panic yields a typed `internal` error reply, the
//!   panicking worker's session is discarded instead of returned to the
//!   pool, and the worker keeps serving every circuit (`worker_panics`
//!   metric).
//!
//! A capacity cap (`max_circuits`) bounds resident warm state: inserting
//! past the cap removes the least-recently-used *idle* entry (no job or
//! request holds it) from the map; later lookups of the evicted hash get
//! a typed `not_found` (`evictions` metric). A job that already holds an
//! entry still finishes on it.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use protest_core::{failpoints, Analyzer, CancelToken, InputProbs, PoolStats, SessionPool};
use protest_netlist::{parse_bench, parse_pdl, Circuit};

use crate::json::Json;
use crate::metrics::Metrics;
use crate::ops::run_op;
use crate::protocol::{CircuitOp, ErrorKind, WireError};
use crate::queue::{Bounded, PushError};

/// Per-op results of one job, in request order.
type JobReply = Vec<Result<Json, WireError>>;

/// Phase timing of one executed job, in microseconds: how long it sat
/// in the shared job queue, how long the session checkout took (on a
/// circuit's first job, including the pool build), and how long the ops
/// ran. Fed into the per-endpoint phase histograms and — when the
/// request set the `timing` flag — echoed in the reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobTiming {
    /// Enqueue → worker pop.
    pub queue_wait_us: u64,
    /// Session-pool checkout (warm hit or cold clone).
    pub checkout_us: u64,
    /// Executing the job's ops against the session.
    pub compute_us: u64,
}

impl JobTiming {
    /// The wire form of the opt-in reply `timing` object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("queue_wait_us", Json::Num(self.queue_wait_us as f64)),
            ("checkout_us", Json::Num(self.checkout_us as f64)),
            ("compute_us", Json::Num(self.compute_us as f64)),
        ])
    }
}

/// What one dispatched job produced: per-op results plus phase timing.
#[derive(Debug)]
pub struct JobOutcome {
    /// Per-op results, in request order.
    pub results: JobReply,
    /// Where the job's wall-clock went.
    pub timing: JobTiming,
}

struct Job {
    entry: Arc<Entry>,
    ops: Vec<CircuitOp>,
    reply: SyncSender<JobOutcome>,
    /// The request's deadline token; armed by `dispatch`, honored by
    /// every poll point the ops reach.
    cancel: CancelToken,
    /// Telemetry clock at enqueue — the queue-wait phase starts here.
    enqueued_ns: u64,
}

/// One registered circuit: identity, the circuit, and its warm pool.
pub struct Entry {
    /// The registry key (content hash or `builtin:<name>`).
    pub hash: String,
    /// The circuit's declared name.
    pub name: String,
    /// Primary input count.
    pub inputs: usize,
    /// Primary output count.
    pub outputs: usize,
    /// Gate count.
    pub gates: usize,
    circuit: Arc<Circuit>,
    /// The analyzer's warm sessions, built by the first job that reaches
    /// the entry; a construction failure is kept and answered to every
    /// job as a typed error.
    pool: OnceLock<Result<SessionPool, WireError>>,
    /// Milliseconds since the registry epoch at the last dispatch —
    /// the LRU clock for capacity eviction.
    last_used: AtomicU64,
}

impl Entry {
    /// The entry's session pool, built on first use with `warm` idle
    /// sessions.
    fn pool(&self, warm: usize) -> Result<&SessionPool, WireError> {
        self.pool
            .get_or_init(|| {
                let analyzer = Analyzer::new(Arc::clone(&self.circuit));
                let base = InputProbs::uniform(self.inputs);
                let pool = SessionPool::new(&analyzer, base)
                    .map_err(|e| WireError::new(ErrorKind::Analysis, e.to_string()))?;
                pool.warm(warm);
                Ok(pool)
            })
            .as_ref()
            .map_err(WireError::clone)
    }
}

/// What `submit` learned: the entry plus whether it was already cached.
pub struct SubmitOutcome {
    /// The registered entry.
    pub entry: Arc<Entry>,
    /// `true` when the hash was already registered (no parse, no build).
    pub cached: bool,
}

/// 128-bit FNV-1a over the keyed text, as 32 hex chars. Not
/// cryptographic — good enough to key a trusted-client cache, and it
/// keeps the hit path free of any parsing work.
fn content_hash(format: &str, text: &str) -> String {
    fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
        let mut h = seed;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
    let mut keyed = String::with_capacity(format.len() + 1 + text.len());
    keyed.push_str(format);
    keyed.push('\0');
    keyed.push_str(text);
    let a = fnv1a(0xcbf2_9ce4_8422_2325, keyed.as_bytes());
    // Second lane: different offset basis, walking the bytes in reverse.
    let mut b = 0x6c62_272e_07bb_0142u64;
    for &byte in keyed.as_bytes().iter().rev() {
        b ^= byte as u64;
        b = b.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{a:016x}{b:016x}")
}

/// One shared worker: drains the job queue until it is closed and
/// drained, running each job on its entry's pool.
fn worker_loop(jobs: &Bounded<Job>, metrics: &Metrics, warm: usize) {
    while let Some(Job {
        entry,
        ops,
        reply,
        cancel,
        enqueued_ns,
    }) = jobs.pop()
    {
        // The queue-wait phase ends at this pop; stamp it for the reply
        // timing and (when tracing is armed) the trace.
        let queue_wait_us = protest_telemetry::now_ns().saturating_sub(enqueued_ns) / 1_000;
        protest_telemetry::record_span(protest_telemetry::Site::ServeQueueWait, enqueued_ns);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let checkout_span = protest_telemetry::span(protest_telemetry::Site::ServeCheckout);
            let checkout_start = Instant::now();
            let mut session = entry.pool(warm)?.checkout();
            session.set_cancel(cancel.clone());
            let checkout_us = checkout_start.elapsed().as_micros() as u64;
            drop(checkout_span);
            failpoints::hit("serve.worker.delay");
            if failpoints::hit("serve.worker.panic") {
                // Deliberately after the checkout: the unwind must
                // exercise the pool's discard-on-panic path.
                panic!("injected worker panic (failpoint serve.worker.panic)");
            }
            let compute_span = protest_telemetry::span(protest_telemetry::Site::ServeCompute);
            let compute_start = Instant::now();
            let results = ops
                .iter()
                .map(|op| run_op(&mut session, &cancel, op))
                .collect::<JobReply>();
            let compute_us = compute_start.elapsed().as_micros() as u64;
            drop(compute_span);
            Ok::<_, WireError>((results, checkout_us, compute_us))
            // The checkout drops here: a clean return disarms and
            // re-syncs it into the pool; a poisoned session (or a drop
            // during a panic unwind) is discarded instead.
        }));
        let failed = |err: WireError| {
            (
                vec![Err(err); ops.len()],
                JobTiming {
                    queue_wait_us,
                    ..JobTiming::default()
                },
            )
        };
        let (results, timing) = match outcome {
            Ok(Ok((results, checkout_us, compute_us))) => (
                results,
                JobTiming {
                    queue_wait_us,
                    checkout_us,
                    compute_us,
                },
            ),
            // The pool could not be built (degenerate circuit).
            Ok(Err(err)) => failed(err),
            Err(_) => {
                metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                failed(WireError::new(
                    ErrorKind::Internal,
                    "worker panicked while executing the request; \
                     its session was discarded",
                ))
            }
        };
        if results
            .iter()
            .any(|r| matches!(r, Err(e) if e.kind == ErrorKind::Cancelled))
        {
            metrics.cancelled_work.fetch_add(1, Ordering::Relaxed);
        }
        // Release the entry before replying: a client holding its answer
        // never finds the circuit busy for eviction.
        drop(entry);
        // A dropped receiver (request timed out) is fine.
        let _ = reply.send(JobOutcome { results, timing });
    }
}

/// The content-hash circuit registry (see the module docs).
pub struct Registry {
    entries: Mutex<HashMap<String, Arc<Entry>>>,
    metrics: Arc<Metrics>,
    /// The one job queue every worker pops (backpressure bound).
    jobs: Arc<Bounded<Job>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Resident-circuit cap (`0` = unlimited); inserting past it evicts
    /// the least-recently-used idle entry.
    max_circuits: usize,
    /// The LRU clock origin for `Entry::last_used`.
    epoch: Instant,
}

impl Registry {
    /// Creates an empty registry and starts its `workers` shared worker
    /// threads on one job queue of `queue_capacity`. `max_circuits == 0`
    /// means unlimited.
    pub fn new(
        metrics: Arc<Metrics>,
        workers: usize,
        queue_capacity: usize,
        max_circuits: usize,
    ) -> Self {
        let workers = workers.max(1);
        let jobs = Arc::new(Bounded::new(queue_capacity.max(1)));
        let handles = (0..workers)
            .map(|i| {
                let jobs = Arc::clone(&jobs);
                let metrics = Arc::clone(&metrics);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&jobs, &metrics, workers))
                    .expect("spawn serve worker thread")
            })
            .collect();
        Registry {
            entries: Mutex::new(HashMap::new()),
            metrics,
            jobs,
            workers: Mutex::new(handles),
            max_circuits,
            epoch: Instant::now(),
        }
    }

    /// Makes room for one more entry when `max_circuits` is reached by
    /// removing the least-recently-used *idle* entry: one only the map
    /// holds, so no job is queued or running on it and no request is
    /// about to enqueue one. With every resident circuit busy there is
    /// nothing safe to evict — the submit is shed with `busy`.
    fn evict_for_capacity(
        &self,
        entries: &mut HashMap<String, Arc<Entry>>,
    ) -> Result<(), WireError> {
        if self.max_circuits == 0 || entries.len() < self.max_circuits {
            return Ok(());
        }
        let victim = entries
            .values()
            .filter(|e| Arc::strong_count(e) == 1)
            .min_by_key(|e| e.last_used.load(Ordering::Relaxed))
            .map(|e| e.hash.clone());
        let Some(hash) = victim else {
            return Err(WireError::new(
                ErrorKind::Busy,
                format!(
                    "registry is at capacity ({}) and every circuit is busy, retry later",
                    self.max_circuits
                ),
            ));
        };
        entries.remove(&hash);
        self.metrics.evictions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Registers (or re-finds) the circuit keyed `hash`. The lookup and
    /// the insert each take the map lock briefly; `build` (parsing) runs
    /// between them without it. When two submits of one new key race,
    /// the first insert wins and the loser counts as a cache hit, so
    /// hits + misses always equals the number of submits.
    fn submit_with(
        &self,
        hash: String,
        build: impl FnOnce() -> Result<Circuit, WireError>,
    ) -> Result<SubmitOutcome, WireError> {
        let hit = |entry: &Arc<Entry>| {
            self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            SubmitOutcome {
                entry: Arc::clone(entry),
                cached: true,
            }
        };
        if let Some(entry) = self.get(&hash) {
            return Ok(hit(&entry));
        }
        let built = build();
        let mut entries = self.entries.lock().expect("registry map lock poisoned");
        if let Some(entry) = entries.get(&hash) {
            return Ok(hit(entry));
        }
        self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
        let circuit = built?;
        self.evict_for_capacity(&mut entries)?;
        let entry = Arc::new(Entry {
            hash: hash.clone(),
            name: circuit.name().to_string(),
            inputs: circuit.num_inputs(),
            outputs: circuit.num_outputs(),
            gates: circuit.num_gates(),
            circuit: Arc::new(circuit),
            pool: OnceLock::new(),
            last_used: AtomicU64::new(self.epoch.elapsed().as_millis() as u64),
        });
        entries.insert(hash, Arc::clone(&entry));
        self.metrics
            .circuits
            .store(entries.len() as u64, Ordering::Relaxed);
        Ok(SubmitOutcome {
            entry,
            cached: false,
        })
    }

    /// Registers (or re-finds) a netlist given by text. The hash is
    /// computed *before* any parsing, so the hit path costs one hash and
    /// one map lookup.
    pub fn submit_text(
        &self,
        format: &str,
        name: Option<&str>,
        text: &str,
    ) -> Result<SubmitOutcome, WireError> {
        self.submit_with(content_hash(format, text), || {
            let name = name.unwrap_or("circuit");
            match format {
                "pdl" => parse_pdl(name, text),
                _ => parse_bench(name, text),
            }
            .map_err(|e| WireError::new(ErrorKind::Netlist, e.to_string()))
        })
    }

    /// Registers (or re-finds) a built-in circuit, keyed `builtin:<name>`.
    pub fn submit_builtin(&self, name: &str) -> Result<SubmitOutcome, WireError> {
        self.submit_with(format!("builtin:{name}"), || {
            protest_circuits::by_name(name).ok_or_else(|| {
                WireError::new(
                    ErrorKind::NotFound,
                    format!(
                        "unknown builtin `{name}` (known: {})",
                        protest_circuits::BUILTIN_NAMES.join(", ")
                    ),
                )
            })
        })
    }

    /// Looks up a registered circuit by hash.
    pub fn get(&self, hash: &str) -> Option<Arc<Entry>> {
        self.entries.lock().unwrap().get(hash).cloned()
    }

    /// Runs `ops` on the circuit `hash` over one session checkout,
    /// waiting at most `timeout` for the reply. The job carries a
    /// [`CancelToken`] armed with the deadline, so giving up on the wait
    /// also stops the computation.
    pub fn dispatch(
        &self,
        hash: &str,
        ops: Vec<CircuitOp>,
        timeout: Duration,
    ) -> Result<JobOutcome, WireError> {
        use std::sync::atomic::Ordering::Relaxed;
        let entry = self.get(hash).ok_or_else(|| {
            WireError::new(
                ErrorKind::NotFound,
                format!("no circuit with hash `{hash}` — submit it first"),
            )
        })?;
        entry
            .last_used
            .store(self.epoch.elapsed().as_millis() as u64, Relaxed);
        let cancel = CancelToken::after(timeout);
        let (tx, rx) = mpsc::sync_channel(1);
        let job = Job {
            entry,
            ops,
            reply: tx,
            cancel: cancel.clone(),
            enqueued_ns: protest_telemetry::now_ns(),
        };
        match self.jobs.try_push(job) {
            Ok(()) => {}
            Err(PushError::Full(job)) => {
                self.metrics.busy.fetch_add(1, Relaxed);
                return Err(WireError::new(
                    ErrorKind::Busy,
                    format!(
                        "job queue is full, retry circuit `{}` later",
                        job.entry.name
                    ),
                ));
            }
            Err(PushError::Closed(_)) => {
                return Err(WireError::new(
                    ErrorKind::ShuttingDown,
                    "server is draining".to_string(),
                ));
            }
        }
        match rx.recv_timeout(timeout) {
            Ok(reply) => Ok(reply),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Flip the flag explicitly too: the deadline has passed
                // on the token's own clock, but this also covers a job
                // still sitting in the queue.
                cancel.cancel();
                self.metrics.timeouts.fetch_add(1, Relaxed);
                Err(WireError::new(
                    ErrorKind::Timeout,
                    format!("request exceeded the {:.1}s limit", timeout.as_secs_f64()),
                ))
            }
            // The reply sender was dropped without an answer: a worker
            // thread died outside its `catch_unwind`. Say so instead of
            // blaming the clock.
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(WireError::new(
                ErrorKind::Internal,
                "worker dropped the request unanswered".to_string(),
            )),
        }
    }

    /// Refreshes the cross-circuit gauges (queue depth, session pool
    /// counters) on the shared metrics hub.
    pub fn refresh_gauges(&self) {
        use std::sync::atomic::Ordering::Relaxed;
        let entries = self.entries.lock().unwrap();
        let mut agg = PoolStats::default();
        for pool in entries
            .values()
            .filter_map(|e| e.pool.get().and_then(|p| p.as_ref().ok()))
        {
            let s = pool.stats();
            agg.warm_hits += s.warm_hits;
            agg.cold_clones += s.cold_clones;
            agg.live += s.live;
            agg.idle += s.idle;
            agg.discarded += s.discarded;
        }
        self.metrics
            .queue_depth
            .store(self.jobs.len() as u64, Relaxed);
        self.metrics.sessions_live.store(agg.live, Relaxed);
        self.metrics.sessions_idle.store(agg.idle, Relaxed);
        self.metrics.session_warm_hits.store(agg.warm_hits, Relaxed);
        self.metrics
            .session_cold_clones
            .store(agg.cold_clones, Relaxed);
        self.metrics
            .sessions_discarded
            .store(agg.discarded, Relaxed);
    }

    /// Closes the job queue and joins every worker. Queued jobs drain
    /// first (close-then-drain queue semantics); nothing accepted is
    /// dropped.
    pub fn shutdown(&self) {
        self.jobs.close();
        let handles = std::mem::take(&mut *self.workers.lock().expect("worker list lock poisoned"));
        for h in handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProbSpec;

    const TIMEOUT: Duration = Duration::from_secs(30);

    fn analyze_op() -> CircuitOp {
        CircuitOp::Analyze {
            probs: ProbSpec::Constant(0.5),
            testlens: vec![(1.0, 0.95)],
            hardest: 0,
            detect_probs: true,
            signal_probs: false,
        }
    }

    #[test]
    fn content_hash_is_stable_and_format_keyed() {
        let a = content_hash("bench", "INPUT(a)");
        assert_eq!(a, content_hash("bench", "INPUT(a)"));
        assert_ne!(a, content_hash("pdl", "INPUT(a)"));
        assert_ne!(a, content_hash("bench", "INPUT(b)"));
        assert_eq!(a.len(), 32);
    }

    #[test]
    fn submit_twice_hits_cache_and_shares_entry() {
        let metrics = Arc::new(Metrics::default());
        let reg = Registry::new(Arc::clone(&metrics), 2, 8, 0);
        let text = "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n";
        let first = reg.submit_text("bench", Some("t"), text).unwrap();
        assert!(!first.cached);
        let second = reg.submit_text("bench", Some("t"), text).unwrap();
        assert!(second.cached);
        assert!(Arc::ptr_eq(&first.entry, &second.entry));
        assert_eq!(metrics.cache_hits.load(Ordering::Relaxed), 1);
        reg.shutdown();
    }

    #[test]
    fn concurrent_submits_of_one_new_text_share_one_entry() {
        let metrics = Arc::new(Metrics::default());
        let reg = Registry::new(Arc::clone(&metrics), 1, 8, 0);
        let text = "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = OR(a, b)\n";
        let entries: Vec<Arc<Entry>> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        (0..25)
                            .map(|_| reg.submit_text("bench", None, text).unwrap().entry)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().unwrap())
                .collect()
        });
        assert_eq!(entries.len(), 50);
        assert!(entries.iter().all(|e| Arc::ptr_eq(e, &entries[0])));
        let hits = metrics.cache_hits.load(Ordering::Relaxed);
        let misses = metrics.cache_misses.load(Ordering::Relaxed);
        assert_eq!(misses, 1, "the first insert wins; a racing loser is a hit");
        assert_eq!(hits + misses, 50);
        reg.shutdown();
    }

    #[test]
    fn dispatch_runs_ops_and_batches_share_a_session() {
        let reg = Registry::new(Arc::new(Metrics::default()), 2, 8, 0);
        let out = reg.submit_builtin("c17").unwrap();
        let outcome = reg
            .dispatch(&out.entry.hash, vec![analyze_op(), analyze_op()], TIMEOUT)
            .unwrap();
        assert_eq!(outcome.results.len(), 2);
        let a = outcome.results[0].as_ref().unwrap().to_line();
        let b = outcome.results[1].as_ref().unwrap().to_line();
        assert_eq!(a, b, "same op in one batch must give identical bits");
        reg.shutdown();
    }

    #[test]
    fn dispatch_unknown_hash_is_not_found() {
        let reg = Registry::new(Arc::new(Metrics::default()), 1, 2, 0);
        let err = reg
            .dispatch("nope", vec![analyze_op()], TIMEOUT)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::NotFound);
        reg.shutdown();
    }

    #[test]
    fn bad_netlist_is_typed_error_and_not_cached() {
        let metrics = Arc::new(Metrics::default());
        let reg = Registry::new(Arc::clone(&metrics), 1, 2, 0);
        let err = reg
            .submit_text("bench", None, "this is not a netlist")
            .err()
            .unwrap();
        assert_eq!(err.kind, ErrorKind::Netlist);
        // The failed submit must not leave a poisoned cache entry behind.
        let err2 = reg
            .submit_text("bench", None, "this is not a netlist")
            .err()
            .unwrap();
        assert_eq!(err2.kind, ErrorKind::Netlist);
        reg.shutdown();
    }
}
