//! Warm [`AnalysisSession`] pools: the serving stack's checkout/return
//! primitive.
//!
//! A long-running service answers many queries over one circuit. Opening a
//! fresh session per request pays a full forward estimate, a full reverse
//! observability sweep and a full per-fault pass every time — exactly the
//! work the incremental session exists to avoid. A [`SessionPool`] keeps
//! finished sessions *warm* instead:
//!
//! * [`checkout`](SessionPool::checkout) pops an idle warm session (or
//!   clones the pool's template on a cold start — engines and fault maps
//!   are shared through the analyzer handle, so a clone is proportional
//!   to per-node state only);
//! * the returned [`PooledSession`] derefs to the session; the request
//!   handler mutates and queries it freely;
//! * on drop the session is disarmed, its undo log is cleared, and it is
//!   pushed back idle **at whatever point the request left it**.
//!
//! A checked-out session therefore starts at an arbitrary earlier
//! request's point, and a caller that reads it first moves it to its own
//! point with [`AnalysisSession::set_all`]. Sessions are confluent — the
//! same input vector gives the same bits by any route — so that costs one
//! cone-local re-propagation from the session's last point (nothing when
//! the point repeats) instead of three full passes.
//!
//! The pool is `Sync` and `'static` (it holds an [`Analyzer`] handle, not
//! a borrow), so a service can keep one per circuit in a plain map:
//! checkout/return take a mutex around the idle vector only, so
//! concurrent requests contend for nanoseconds, not for analysis time.
//! Counters ([`PoolStats`]) expose warm hits vs cold clones and the
//! live/idle census for a service's observability endpoint.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::analyzer::Analyzer;
use crate::cancel::CancelToken;
use crate::error::CoreError;
use crate::params::InputProbs;
use crate::session::AnalysisSession;

/// Work counters of a [`SessionPool`] (monotonic, except `idle`/`live`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Checkouts served by a warm idle session.
    pub warm_hits: u64,
    /// Checkouts that had to clone the template (cold starts).
    pub cold_clones: u64,
    /// Sessions currently checked out.
    pub live: u64,
    /// Sessions currently idle in the pool.
    pub idle: u64,
    /// Sessions dropped instead of returned: poisoned by a mid-refresh
    /// cancellation, or explicitly [`discard`](PooledSession::discard)ed
    /// after a panic.
    pub discarded: u64,
}

/// A pool of warm [`AnalysisSession`]s over one [`Analyzer`] (see the
/// module docs).
#[derive(Debug)]
pub struct SessionPool {
    /// The warm prototype new sessions are cloned from (kept separate from
    /// `idle` so the pool can always grow without re-running the cold
    /// full-pass construction).
    template: AnalysisSession,
    idle: Mutex<Vec<AnalysisSession>>,
    warm_hits: AtomicU64,
    cold_clones: AtomicU64,
    live: AtomicU64,
    discarded: AtomicU64,
}

impl SessionPool {
    /// Creates a pool whose template session sits at `base`. Pays one
    /// full session construction (the template cold checkouts clone).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProbsLength`] if `base` does not match the
    /// circuit's input count.
    pub fn new(analyzer: &Analyzer, base: InputProbs) -> Result<Self, CoreError> {
        let mut template = analyzer.session(&base)?;
        // Warm every query cache once so clones start fully warm: a
        // checked-out clone then pays only incremental refreshes.
        template.fault_detect_probs();
        Ok(SessionPool {
            template,
            idle: Mutex::new(Vec::new()),
            warm_hits: AtomicU64::new(0),
            cold_clones: AtomicU64::new(0),
            live: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
        })
    }

    /// The analyzer the pooled sessions evaluate.
    pub fn analyzer(&self) -> &Analyzer {
        self.template.analyzer()
    }

    /// Pre-clones `n` idle sessions so the first `n` concurrent checkouts
    /// are warm hits.
    pub fn warm(&self, n: usize) {
        let mut fresh = Vec::with_capacity(n);
        for _ in 0..n {
            fresh.push(self.template.clone());
        }
        self.idle.lock().unwrap().append(&mut fresh);
    }

    /// Checks a session out. Warm when an idle session is available, else
    /// a clone of the template. The session sits at an earlier request's
    /// point; the guard returns it to the pool on drop.
    pub fn checkout(&self) -> PooledSession<'_> {
        let popped = self.idle.lock().unwrap().pop();
        let session = match popped {
            Some(s) => {
                self.warm_hits.fetch_add(1, Ordering::Relaxed);
                s
            }
            None => {
                self.cold_clones.fetch_add(1, Ordering::Relaxed);
                self.template.clone()
            }
        };
        self.live.fetch_add(1, Ordering::Relaxed);
        PooledSession {
            pool: self,
            session: Some(session),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            cold_clones: self.cold_clones.load(Ordering::Relaxed),
            live: self.live.load(Ordering::Relaxed),
            idle: self.idle.lock().unwrap().len() as u64,
            discarded: self.discarded.load(Ordering::Relaxed),
        }
    }

    fn give_back(&self, mut session: AnalysisSession) {
        self.live.fetch_sub(1, Ordering::Relaxed);
        // A session poisoned by a mid-refresh cancellation has lost dirty
        // tracking — its caches could return stale values to later
        // checkouts. Drop it; the next cold checkout clones the template.
        if session.is_poisoned() {
            self.discarded.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Disarm any request-scoped token so a fired deadline cannot leak
        // into the next request, and clear the undo log, which would
        // otherwise grow with every request the session serves.
        session.set_cancel(CancelToken::never());
        session.snapshot();
        self.idle.lock().unwrap().push(session);
    }

    fn note_discarded(&self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
        self.discarded.fetch_add(1, Ordering::Relaxed);
    }
}

/// A checked-out session (see [`SessionPool::checkout`]); derefs to
/// [`AnalysisSession`] and returns it to the pool on drop.
#[derive(Debug)]
pub struct PooledSession<'p> {
    pool: &'p SessionPool,
    session: Option<AnalysisSession>,
}

impl Deref for PooledSession<'_> {
    type Target = AnalysisSession;

    fn deref(&self) -> &Self::Target {
        self.session.as_ref().expect("session present until drop")
    }
}

impl DerefMut for PooledSession<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.session.as_mut().expect("session present until drop")
    }
}

impl PooledSession<'_> {
    /// Drops the session instead of returning it to the pool — for
    /// callers that caught a panic or otherwise no longer trust the
    /// session's state. Counted in [`PoolStats::discarded`].
    pub fn discard(mut self) {
        self.session.take();
        self.pool.note_discarded();
    }
}

impl Drop for PooledSession<'_> {
    fn drop(&mut self) {
        if let Some(session) = self.session.take() {
            // Unwinding out of a request handler means the session was
            // abandoned mid-mutation; its caches can be arbitrarily
            // inconsistent, so never return it to circulation.
            if std::thread::panicking() {
                self.pool.note_discarded();
            } else {
                self.pool.give_back(session);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn circuit() -> protest_netlist::Circuit {
        use protest_netlist::CircuitBuilder;
        let mut b = CircuitBuilder::new("pool");
        let xs = b.input_bus("x", 4);
        let t = b.and_tree(&xs);
        b.output(t, "z");
        b.finish().unwrap()
    }

    fn detect_bits(detect: &[f64]) -> Vec<u64> {
        detect.iter().map(|p| p.to_bits()).collect()
    }

    #[test]
    fn returned_session_moves_straight_to_the_next_point() {
        let ckt = circuit();
        let analyzer = Analyzer::new(&ckt);
        let pool = SessionPool::new(&analyzer, InputProbs::uniform(4)).unwrap();
        let a = [0.9375, 0.5, 0.25, 0.5];
        let b = InputProbs::from_slice(&[0.125, 0.75, 0.25, 0.0625]).unwrap();
        {
            let mut s = pool.checkout();
            s.set_all(&a).unwrap();
            s.fault_detect_probs();
        }
        // The session came back at A with an empty undo log.
        assert_eq!(pool.stats().idle, 1);
        let mut s = pool.checkout();
        assert_eq!(s.input_probs(), &a[..]);
        assert_eq!(s.undo_len(), 0);
        s.set_all(b.as_slice()).unwrap();
        let want = analyzer.run(&b).unwrap();
        assert_eq!(
            detect_bits(s.fault_detect_probs()),
            detect_bits(&want.detection_probabilities())
        );
        drop(s);
        let s = pool.checkout();
        assert_eq!(s.undo_len(), 0, "a returned session keeps no undo log");
        let stats = pool.stats();
        assert_eq!(stats.warm_hits + stats.cold_clones, 3);
        assert_eq!(stats.live, 1);
    }

    #[test]
    fn warm_sessions_hit() {
        let ckt = circuit();
        let analyzer = Analyzer::new(&ckt);
        let pool = SessionPool::new(&analyzer, InputProbs::uniform(4)).unwrap();
        pool.warm(2);
        assert_eq!(pool.stats().idle, 2);
        let a = pool.checkout();
        let b = pool.checkout();
        let stats = pool.stats();
        assert_eq!(stats.warm_hits, 2);
        assert_eq!(stats.cold_clones, 0);
        assert_eq!(stats.live, 2);
        drop(a);
        drop(b);
        assert_eq!(pool.stats().idle, 2);
        // A third concurrent checkout would have been cold.
        let _c = pool.checkout();
        assert_eq!(pool.stats().warm_hits, 3);
    }

    #[test]
    fn pooled_results_match_fresh_sessions() {
        let ckt = circuit();
        let analyzer = Analyzer::new(&ckt);
        let pool = SessionPool::new(&analyzer, InputProbs::uniform(4)).unwrap();
        let probs = InputProbs::from_slice(&[0.25, 0.75, 0.5, 0.0625]).unwrap();
        let mut pooled = pool.checkout();
        pooled.set_all(probs.as_slice()).unwrap();
        let direct = analyzer.run(&probs).unwrap();
        assert_eq!(
            detect_bits(pooled.fault_detect_probs()),
            detect_bits(&direct.detection_probabilities())
        );
    }
}
