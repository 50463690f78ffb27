//! Server observability: request counters, per-endpoint latency
//! histograms (p50/p99), cache and session gauges, permit waiters.
//!
//! Everything is lock-free atomics so the hot path records a latency in a
//! few nanoseconds. Latencies go into the shared log₂-bucketed
//! [`Histogram`] from `protest_telemetry` (bucket `i` covers
//! `[2^i, 2^(i+1))` microseconds); quantiles interpolate linearly inside
//! the winning bucket, which is plenty for p50/p99 on a load test. Each
//! endpoint tracks the end-to-end latency plus a queue-wait vs compute
//! phase split fed from [`crate::registry::JobTiming`]. The same snapshot
//! feeds the `stats` endpoint and the periodic log line.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub use protest_telemetry::Histogram;

use crate::json::Json;

/// The protocol endpoints, used to index per-endpoint metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `submit` — register (or look up) a circuit.
    Submit,
    /// `analyze` — signal/detection probabilities + test lengths.
    Analyze,
    /// `optimize` — input-probability hill climb.
    Optimize,
    /// `tpi` — test-point insertion advisor.
    Tpi,
    /// `check` — static lint/collapse/redundancy report.
    Check,
    /// `simulate` — weighted-random fault simulation.
    Simulate,
    /// `stats` — this snapshot.
    Stats,
    /// `batch` — several circuit ops amortized over one session checkout.
    Batch,
    /// `shutdown` — graceful drain.
    Shutdown,
}

/// All endpoints, aligned with the metrics array.
pub const ENDPOINTS: [Endpoint; 9] = [
    Endpoint::Submit,
    Endpoint::Analyze,
    Endpoint::Optimize,
    Endpoint::Tpi,
    Endpoint::Check,
    Endpoint::Simulate,
    Endpoint::Stats,
    Endpoint::Batch,
    Endpoint::Shutdown,
];

impl Endpoint {
    /// The wire name (also the metrics key).
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Submit => "submit",
            Endpoint::Analyze => "analyze",
            Endpoint::Optimize => "optimize",
            Endpoint::Tpi => "tpi",
            Endpoint::Check => "check",
            Endpoint::Simulate => "simulate",
            Endpoint::Stats => "stats",
            Endpoint::Batch => "batch",
            Endpoint::Shutdown => "shutdown",
        }
    }

    fn index(self) -> usize {
        ENDPOINTS.iter().position(|&e| e == self).unwrap()
    }
}

/// Per-endpoint counters.
#[derive(Debug, Default)]
pub struct EndpointMetrics {
    /// Requests that produced an `ok` reply.
    pub ok: AtomicU64,
    /// Requests that produced an error reply.
    pub errors: AtomicU64,
    /// End-to-end handler latency (parse → reply written).
    pub latency: Histogram,
    /// Permit-wait phase (dispatch → compute permit); only requests that
    /// got a permit record here.
    pub queue_wait: Histogram,
    /// Job compute phase (ops executing against a checked-out session).
    pub compute: Histogram,
}

/// The server-wide metrics hub, shared by every thread.
#[derive(Debug)]
pub struct Metrics {
    endpoints: [EndpointMetrics; ENDPOINTS.len()],
    /// `submit`s answered from the content-hash registry.
    pub cache_hits: AtomicU64,
    /// `submit`s that had to parse and build a new circuit entry.
    pub cache_misses: AtomicU64,
    /// Requests rejected because a line exceeded the size cap.
    pub oversized: AtomicU64,
    /// Requests rejected as malformed (bad JSON / bad envelope).
    pub malformed: AtomicU64,
    /// Requests that hit the per-request timeout.
    pub timeouts: AtomicU64,
    /// Requests shed because every permit waiter slot was taken.
    pub busy: AtomicU64,
    /// Connections accepted / finished.
    pub conns_opened: AtomicU64,
    /// Connections closed.
    pub conns_closed: AtomicU64,
    /// Requests currently waiting for a compute permit, all circuits.
    pub queue_depth: AtomicU64,
    /// Live (checked-out) sessions across all pools.
    pub sessions_live: AtomicU64,
    /// Idle warm sessions across all pools.
    pub sessions_idle: AtomicU64,
    /// Pool checkouts served warm.
    pub session_warm_hits: AtomicU64,
    /// Pool checkouts that cold-cloned.
    pub session_cold_clones: AtomicU64,
    /// Registered circuits.
    pub circuits: AtomicU64,
    /// Requests whose in-flight computation was cooperatively stopped
    /// after the deadline fired (the work actually ceased, not just the
    /// client-side wait).
    pub cancelled_work: AtomicU64,
    /// Job panics caught and converted into `internal` error replies.
    pub worker_panics: AtomicU64,
    /// Idle circuits evicted to respect the registry capacity cap.
    pub evictions: AtomicU64,
    /// Sessions discarded instead of returned to a pool (poisoned by a
    /// mid-update cancel, or abandoned during a panic unwind).
    pub sessions_discarded: AtomicU64,
    started: Instant,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            endpoints: std::array::from_fn(|_| EndpointMetrics::default()),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            oversized: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            conns_opened: AtomicU64::new(0),
            conns_closed: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            sessions_live: AtomicU64::new(0),
            sessions_idle: AtomicU64::new(0),
            session_warm_hits: AtomicU64::new(0),
            session_cold_clones: AtomicU64::new(0),
            circuits: AtomicU64::new(0),
            cancelled_work: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            sessions_discarded: AtomicU64::new(0),
            started: Instant::now(),
        }
    }
}

impl Metrics {
    /// The counters of one endpoint.
    pub fn endpoint(&self, e: Endpoint) -> &EndpointMetrics {
        &self.endpoints[e.index()]
    }

    /// Records a finished request: outcome plus latency.
    pub fn record(&self, e: Endpoint, ok: bool, us: u64) {
        let m = self.endpoint(e);
        if ok {
            m.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            m.errors.fetch_add(1, Ordering::Relaxed);
        }
        m.latency.record_us(us);
    }

    /// Records the phase split of a dispatched job: where its wall-clock
    /// went between waiting for a compute permit and actually computing.
    pub fn record_phases(&self, e: Endpoint, queue_wait_us: u64, compute_us: u64) {
        let m = self.endpoint(e);
        m.queue_wait.record_us(queue_wait_us);
        m.compute.record_us(compute_us);
    }

    /// Total requests answered (ok + error), every endpoint.
    pub fn requests_total(&self) -> u64 {
        self.endpoints
            .iter()
            .map(|m| m.ok.load(Ordering::Relaxed) + m.errors.load(Ordering::Relaxed))
            .sum()
    }

    /// The `stats` endpoint / log-line snapshot.
    pub fn snapshot(&self) -> Json {
        let mut per_endpoint = Vec::new();
        for e in ENDPOINTS {
            let m = self.endpoint(e);
            let ok = m.ok.load(Ordering::Relaxed);
            let errors = m.errors.load(Ordering::Relaxed);
            if ok + errors == 0 {
                continue;
            }
            let mut fields = vec![
                ("ok", Json::Num(ok as f64)),
                ("errors", Json::Num(errors as f64)),
                ("p50_us", Json::Num(m.latency.quantile_us(0.50) as f64)),
                ("p99_us", Json::Num(m.latency.quantile_us(0.99) as f64)),
                ("mean_us", Json::Num(m.latency.mean_us())),
            ];
            // Phase split, present only once a job has actually got a
            // compute permit for this endpoint.
            if m.queue_wait.count() > 0 {
                fields.push((
                    "queue_wait_p50_us",
                    Json::Num(m.queue_wait.quantile_us(0.50) as f64),
                ));
                fields.push((
                    "queue_wait_p99_us",
                    Json::Num(m.queue_wait.quantile_us(0.99) as f64),
                ));
                fields.push((
                    "compute_p50_us",
                    Json::Num(m.compute.quantile_us(0.50) as f64),
                ));
                fields.push((
                    "compute_p99_us",
                    Json::Num(m.compute.quantile_us(0.99) as f64),
                ));
            }
            per_endpoint.push((e.name().to_string(), Json::obj(fields)));
        }
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let misses = self.cache_misses.load(Ordering::Relaxed);
        let hit_rate = if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        };
        Json::obj(vec![
            ("uptime_s", Json::Num(self.started.elapsed().as_secs_f64())),
            ("requests_total", Json::Num(self.requests_total() as f64)),
            ("endpoints", Json::Obj(per_endpoint)),
            (
                "cache",
                Json::obj(vec![
                    (
                        "circuits",
                        Json::Num(self.circuits.load(Ordering::Relaxed) as f64),
                    ),
                    ("hits", Json::Num(hits as f64)),
                    ("misses", Json::Num(misses as f64)),
                    ("hit_rate", Json::Num(hit_rate)),
                ]),
            ),
            (
                "sessions",
                Json::obj(vec![
                    (
                        "live",
                        Json::Num(self.sessions_live.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "idle",
                        Json::Num(self.sessions_idle.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "warm_hits",
                        Json::Num(self.session_warm_hits.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "cold_clones",
                        Json::Num(self.session_cold_clones.load(Ordering::Relaxed) as f64),
                    ),
                ]),
            ),
            (
                "rejections",
                Json::obj(vec![
                    (
                        "oversized",
                        Json::Num(self.oversized.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "malformed",
                        Json::Num(self.malformed.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "timeouts",
                        Json::Num(self.timeouts.load(Ordering::Relaxed) as f64),
                    ),
                    ("busy", Json::Num(self.busy.load(Ordering::Relaxed) as f64)),
                ]),
            ),
            (
                "queue_depth",
                Json::Num(self.queue_depth.load(Ordering::Relaxed) as f64),
            ),
            (
                "connections",
                Json::obj(vec![
                    (
                        "opened",
                        Json::Num(self.conns_opened.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "closed",
                        Json::Num(self.conns_closed.load(Ordering::Relaxed) as f64),
                    ),
                ]),
            ),
            (
                "robustness",
                Json::obj(vec![
                    (
                        "cancelled_work",
                        Json::Num(self.cancelled_work.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "worker_panics",
                        Json::Num(self.worker_panics.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "evictions",
                        Json::Num(self.evictions.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "sessions_discarded",
                        Json::Num(self.sessions_discarded.load(Ordering::Relaxed) as f64),
                    ),
                ]),
            ),
        ])
    }

    /// One human-readable line for the periodic log.
    pub fn log_line(&self) -> String {
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let misses = self.cache_misses.load(Ordering::Relaxed);
        let analyze = self.endpoint(Endpoint::Analyze);
        format!(
            "serve: {} reqs ({} conns, q={}) cache {}/{} hit sessions {} live/{} idle \
             analyze p50 {}us p99 {}us (qwait p50 {}us p99 {}us / compute p50 {}us p99 {}us)",
            self.requests_total(),
            self.conns_opened.load(Ordering::Relaxed),
            self.queue_depth.load(Ordering::Relaxed),
            hits,
            hits + misses,
            self.sessions_live.load(Ordering::Relaxed),
            self.sessions_idle.load(Ordering::Relaxed),
            analyze.latency.quantile_us(0.50),
            analyze.latency.quantile_us(0.99),
            analyze.queue_wait.quantile_us(0.50),
            analyze.queue_wait.quantile_us(0.99),
            analyze.compute.quantile_us(0.50),
            analyze.compute.quantile_us(0.99),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::default();
        for us in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 10_000] {
            h.record_us(us);
        }
        let p50 = h.quantile_us(0.5);
        assert!((8..=128).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_us(0.99);
        assert!((8192..=16384).contains(&p99), "p99 = {p99}");
        assert_eq!(h.count(), 10);
    }

    #[test]
    fn snapshot_reports_endpoints_and_cache() {
        let m = Metrics::default();
        m.record(Endpoint::Analyze, true, 120);
        m.record(Endpoint::Analyze, false, 80);
        m.cache_hits.fetch_add(9, Ordering::Relaxed);
        m.cache_misses.fetch_add(1, Ordering::Relaxed);
        let snap = m.snapshot();
        let analyze = snap.get("endpoints").unwrap().get("analyze").unwrap();
        assert_eq!(analyze.get("ok").unwrap().as_u64(), Some(1));
        assert_eq!(analyze.get("errors").unwrap().as_u64(), Some(1));
        let cache = snap.get("cache").unwrap();
        assert_eq!(cache.get("hit_rate").unwrap().as_f64(), Some(0.9));
        assert_eq!(snap.get("requests_total").unwrap().as_u64(), Some(2));
        assert!(!m.log_line().is_empty());
    }

    #[test]
    fn phase_split_appears_once_jobs_have_run() {
        let m = Metrics::default();
        m.record(Endpoint::Analyze, true, 500);
        let snap = m.snapshot();
        let analyze = snap.get("endpoints").unwrap().get("analyze").unwrap();
        assert!(
            analyze.get("queue_wait_p50_us").is_none(),
            "no phase fields before any job got a permit"
        );
        m.record_phases(Endpoint::Analyze, 40, 400);
        let snap = m.snapshot();
        let analyze = snap.get("endpoints").unwrap().get("analyze").unwrap();
        assert!(analyze.get("queue_wait_p50_us").unwrap().as_u64().is_some());
        assert!(analyze.get("queue_wait_p99_us").unwrap().as_u64().is_some());
        assert!(analyze.get("compute_p50_us").unwrap().as_u64().is_some());
        assert!(analyze.get("compute_p99_us").unwrap().as_u64().is_some());
        assert!(m.log_line().contains("qwait"));
    }
}
