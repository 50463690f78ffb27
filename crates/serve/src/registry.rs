//! The content-hash circuit registry and its compute permits.
//!
//! An [`Analyzer`] owns its circuit, so the registry is a plain map from
//! content hash to an [`Entry`]: the parsed circuit plus a
//! [`SessionPool`] built by the first job that reaches it. A job runs on
//! the handler thread that read its request, once that thread holds one
//! of `workers` compute permits; there is no job queue, no worker thread
//! and no reply channel, so a request crosses no thread boundary. At
//! most `queue_capacity` requests wait for a permit; the next one gets a
//! typed `busy` reply instead of unbounded buffering. The registry spawns
//! no threads, so the thread count does not grow with the number of
//! resident circuits.
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
//!   [`CancelToken`] armed with the request deadline. A request still
//!   waiting for a permit at its deadline gets `timeout`; one whose
//!   computation the token stopped at its next poll point gets `timeout`
//!   too and counts as `cancelled_work`.
//! * **Job panics are contained.** Each job runs under [`catch_unwind`];
//!   a panic yields a typed `internal` error reply, the job's session is
//!   discarded instead of returned to the pool, and the handler thread
//!   keeps serving every circuit (`worker_panics` metric).
//!
//! A capacity cap (`max_circuits`) bounds resident warm state: inserting
//! past the cap removes the least-recently-used *idle* entry (no job or
//! request holds it) from the map; later lookups of the evicted hash get
//! a typed `not_found` (`evictions` metric). A job that already holds an
//! entry still finishes on it.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use protest_core::{failpoints, Analyzer, CancelToken, InputProbs, PoolStats, SessionPool};
use protest_netlist::{parse_bench, parse_pdl, Circuit};

use crate::json::Json;
use crate::metrics::Metrics;
use crate::ops::run_op;
use crate::protocol::{CircuitOp, ErrorKind, WireError};

/// Per-op results of one job, in request order.
type JobReply = Vec<Result<Json, WireError>>;

/// Phase timing of one executed job, in microseconds: how long it waited
/// for a compute permit, how long the session checkout took (on a
/// circuit's first job, including the pool build), and how long the ops
/// ran. Fed into the per-endpoint phase histograms and — when the
/// request set the `timing` flag — echoed in the reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobTiming {
    /// Dispatch → compute permit acquired.
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

#[derive(Default)]
struct GateState {
    running: usize,
    waiting: usize,
    closed: bool,
}

/// Counting permits with a bounded number of waiters: at most `permits`
/// jobs compute at once, at most `max_waiters` requests wait for one.
struct Gate {
    state: Mutex<GateState>,
    freed: Condvar,
    permits: usize,
    max_waiters: usize,
}

/// A held compute permit; dropping it wakes one waiter.
struct Permit<'g>(&'g Gate);

impl Gate {
    fn new(permits: usize, max_waiters: usize) -> Self {
        Gate {
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
            permits,
            max_waiters,
        }
    }

    /// Every update of the state is a single counter or flag write, so a
    /// poisoned lock still guards valid counts.
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes a permit, waiting for one until `deadline`; refuses with
    /// the reply kind `busy`, `timeout` or `shutting_down`. A closed gate
    /// refuses new arrivals; requests already waiting still get served.
    fn acquire(&self, deadline: Instant) -> Result<Permit<'_>, ErrorKind> {
        let mut s = self.lock();
        if s.closed {
            return Err(ErrorKind::ShuttingDown);
        }
        if s.running >= self.permits {
            if s.waiting >= self.max_waiters {
                return Err(ErrorKind::Busy);
            }
            s.waiting += 1;
            // A free permit is taken before the deadline is checked, so a
            // woken waiter never leaves a released permit unclaimed.
            while s.running >= self.permits {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    s.waiting -= 1;
                    return Err(ErrorKind::Timeout);
                }
                s = self
                    .freed
                    .wait_timeout(s, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            s.waiting -= 1;
        }
        s.running += 1;
        Ok(Permit(self))
    }

    /// Requests currently waiting for a permit.
    fn waiting(&self) -> usize {
        self.lock().waiting
    }

    fn close(&self) {
        self.lock().closed = true;
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.lock().running -= 1;
        self.0.freed.notify_one();
    }
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

/// The content-hash circuit registry (see the module docs).
pub struct Registry {
    entries: Mutex<HashMap<String, Arc<Entry>>>,
    metrics: Arc<Metrics>,
    /// The compute permits every dispatch takes (backpressure bound).
    gate: Gate,
    /// Idle sessions a circuit's pool is warmed with: one per permit.
    warm: usize,
    /// Resident-circuit cap (`0` = unlimited); inserting past it evicts
    /// the least-recently-used idle entry.
    max_circuits: usize,
    /// The LRU clock origin for `Entry::last_used`.
    epoch: Instant,
    /// Pool counters of evicted circuits, so the monotonic gauges keep
    /// counting after their pools are dropped (`live`/`idle` stay 0).
    retired: Mutex<PoolStats>,
}

impl Registry {
    /// Creates an empty registry whose dispatches run at most `workers`
    /// jobs at once, with at most `queue_capacity` more waiting for a
    /// permit. `max_circuits == 0` means unlimited.
    pub fn new(
        metrics: Arc<Metrics>,
        workers: usize,
        queue_capacity: usize,
        max_circuits: usize,
    ) -> Self {
        let workers = workers.max(1);
        Registry {
            entries: Mutex::new(HashMap::new()),
            metrics,
            gate: Gate::new(workers, queue_capacity.max(1)),
            warm: workers,
            max_circuits,
            epoch: Instant::now(),
            retired: Mutex::new(PoolStats::default()),
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
        let Some(entry) = victim.and_then(|hash| entries.remove(&hash)) else {
            return Err(WireError::new(
                ErrorKind::Busy,
                format!(
                    "registry is at capacity ({}) and every circuit is busy, retry later",
                    self.max_circuits
                ),
            ));
        };
        if let Some(Ok(pool)) = entry.pool.get() {
            let s = pool.stats();
            let mut retired = self.retired.lock().expect("retired stats lock poisoned");
            retired.warm_hits += s.warm_hits;
            retired.cold_clones += s.cold_clones;
            retired.discarded += s.discarded;
        }
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

    /// Runs `ops` on the circuit `hash` over one session checkout, on
    /// the calling thread once it holds a compute permit. The job carries
    /// a [`CancelToken`] armed with the `timeout` deadline: a request
    /// that waits past it for a permit, or whose computation it stops,
    /// gets a typed `timeout`.
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
        let timed_out = || {
            self.metrics.timeouts.fetch_add(1, Relaxed);
            WireError::new(
                ErrorKind::Timeout,
                format!("request exceeded the {:.1}s limit", timeout.as_secs_f64()),
            )
        };
        let deadline = Instant::now() + timeout;
        let cancel = CancelToken::with_deadline(deadline);
        let waited_ns = protest_telemetry::now_ns();
        let permit = self.gate.acquire(deadline).map_err(|kind| match kind {
            ErrorKind::Timeout => timed_out(),
            ErrorKind::Busy => {
                self.metrics.busy.fetch_add(1, Relaxed);
                let msg = format!(
                    "compute permits are saturated, retry `{}` later",
                    entry.name
                );
                WireError::new(kind, msg)
            }
            _ => WireError::new(kind, "server is draining".to_string()),
        })?;
        // The queue-wait phase ends with the permit; stamp it for the
        // reply timing and (when tracing is armed) the trace.
        let queue_wait_us = protest_telemetry::now_ns().saturating_sub(waited_ns) / 1_000;
        protest_telemetry::record_span(protest_telemetry::Site::ServeQueueWait, waited_ns);
        let (results, mut timing) = self.run_job(&entry, &ops, &cancel);
        drop(permit);
        timing.queue_wait_us = queue_wait_us;
        if results
            .iter()
            .any(|r| matches!(r, Err(e) if e.kind == ErrorKind::Cancelled))
        {
            self.metrics.cancelled_work.fetch_add(1, Relaxed);
            return Err(timed_out());
        }
        Ok(JobOutcome { results, timing })
    }

    /// Runs `ops` on one session checkout of `entry`'s pool under
    /// [`catch_unwind`], returning the per-op results and the checkout and
    /// compute times.
    fn run_job(
        &self,
        entry: &Entry,
        ops: &[CircuitOp],
        cancel: &CancelToken,
    ) -> (JobReply, JobTiming) {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let checkout_span = protest_telemetry::span(protest_telemetry::Site::ServeCheckout);
            let checkout_start = Instant::now();
            let mut session = entry.pool(self.warm)?.checkout();
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
                .map(|op| run_op(&mut session, cancel, op))
                .collect::<JobReply>();
            let compute_us = compute_start.elapsed().as_micros() as u64;
            drop(compute_span);
            Ok::<_, WireError>((
                results,
                JobTiming {
                    queue_wait_us: 0,
                    checkout_us,
                    compute_us,
                },
            ))
            // The checkout drops here: a clean return disarms it and puts it
            // back in the pool; a poisoned session (or a drop during a panic
            // unwind) is discarded instead.
        }));
        match outcome {
            Ok(Ok(done)) => done,
            // The pool could not be built (degenerate circuit).
            Ok(Err(err)) => (vec![Err(err); ops.len()], JobTiming::default()),
            Err(_) => {
                self.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                let err = WireError::new(
                    ErrorKind::Internal,
                    "request panicked while executing; its session was discarded",
                );
                (vec![Err(err); ops.len()], JobTiming::default())
            }
        }
    }

    /// Refreshes the cross-circuit gauges (permit waiters, session pool
    /// counters) on the shared metrics hub. The monotonic pool counters
    /// include those of evicted circuits.
    pub fn refresh_gauges(&self) {
        use std::sync::atomic::Ordering::Relaxed;
        let entries = self.entries.lock().unwrap();
        let mut agg = *self.retired.lock().expect("retired stats lock poisoned");
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
            .store(self.gate.waiting() as u64, Relaxed);
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

    /// Closes the permit gate: later dispatches get `shutting_down`,
    /// while requests already waiting for a permit still run.
    pub fn shutdown(&self) {
        self.gate.close();
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
    fn permit_gate_sheds_busy_times_out_and_wakes_one_waiter() {
        let metrics = Arc::new(Metrics::default());
        let reg = Registry::new(Arc::clone(&metrics), 1, 1, 0);
        let hash = reg.submit_builtin("c17").unwrap().entry.hash.clone();
        let run = |timeout| reg.dispatch(&hash, vec![analyze_op()], timeout);
        // Hold the only permit, as a long job would.
        let held = reg.gate.acquire(Instant::now() + TIMEOUT).unwrap();
        // A waiter whose deadline passes gets `timeout` and leaves the line.
        let err = run(Duration::from_millis(20)).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Timeout);
        assert_eq!(reg.gate.waiting(), 0);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| run(TIMEOUT));
            while reg.gate.waiting() == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            // The permit is held and the one waiter slot taken: a third
            // concurrent dispatch is shed.
            assert_eq!(run(TIMEOUT).unwrap_err().kind, ErrorKind::Busy);
            // Releasing the permit wakes the waiter, which runs its job.
            drop(held);
            let outcome = waiter.join().unwrap().unwrap();
            assert!(outcome.results[0].is_ok());
        });
        assert_eq!(reg.gate.waiting(), 0);
        assert_eq!(metrics.busy.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.timeouts.load(Ordering::Relaxed), 1);
        reg.shutdown();
        assert_eq!(run(TIMEOUT).unwrap_err().kind, ErrorKind::ShuttingDown);
    }

    #[test]
    fn pool_counters_survive_an_eviction() {
        let metrics = Arc::new(Metrics::default());
        let reg = Registry::new(Arc::clone(&metrics), 1, 2, 1);
        let a = reg.submit_builtin("c17").unwrap().entry.hash.clone();
        assert!(reg.dispatch(&a, vec![analyze_op()], TIMEOUT).is_ok());
        // A second circuit evicts the idle first one (`max_circuits = 1`).
        let text = "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n";
        reg.submit_text("bench", None, text).unwrap();
        assert_eq!(metrics.evictions.load(Ordering::Relaxed), 1);
        reg.refresh_gauges();
        assert!(metrics.session_warm_hits.load(Ordering::Relaxed) >= 1);
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
