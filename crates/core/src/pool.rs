//! Warm [`AnalysisSession`] pools: the serving-stack checkout/re-sync
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
//! * on drop the session is **re-synced** to the pool's base probabilities
//!   ([`AnalysisSession::resync`] — O(dirty cone) of whatever the request
//!   changed, free when the request never mutated) and pushed back idle.
//!
//! A request at the base point therefore costs only its incremental
//! queries, and a request at custom probabilities costs two cone-local
//! re-propagations (to the custom point, back to base) instead of three
//! full passes.
//!
//! The pool is `Sync` and `'static` (it holds an [`Analyzer`] handle, not
//! a borrow), so a service can keep one per circuit in a plain map:
//! checkout/return take a mutex around the idle vector only, so
//! concurrent request workers contend for nanoseconds, not for analysis
//! time. Counters ([`PoolStats`]) expose warm hits vs cold
//! clones and the live/idle census for a service's observability endpoint.

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
    /// cancellation, explicitly [`discard`](PooledSession::discard)ed
    /// after a panic, or failed to re-sync to base.
    pub discarded: u64,
}

/// A pool of warm [`AnalysisSession`]s over one [`Analyzer`], all based at
/// one canonical input-probability vector (see the module docs).
#[derive(Debug)]
pub struct SessionPool {
    base: InputProbs,
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
    /// Creates a pool based at `base`. Pays one full session construction
    /// (the template every later checkout clones or re-syncs to).
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
            base,
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

    /// The canonical base probabilities sessions are re-synced to.
    pub fn base_probs(&self) -> &InputProbs {
        &self.base
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
    /// a clone of the template. The guard returns (and re-syncs) the
    /// session on drop.
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
        // tracking — re-syncing it could return stale values to later
        // checkouts. Drop it; the next cold checkout clones the template.
        if session.is_poisoned() {
            self.discarded.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Disarm any request-scoped token before re-syncing: a fired
        // deadline must not sabotage the return-to-base sweep or leak
        // into the next request that checks this session out.
        session.set_cancel(CancelToken::never());
        // Re-sync to base cannot otherwise fail: the base vector was
        // validated at construction and its entries are in range.
        if session.resync(&self.base).is_err() {
            self.discarded.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.idle.lock().unwrap().push(session);
    }

    fn note_discarded(&self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
        self.discarded.fetch_add(1, Ordering::Relaxed);
    }
}

/// A checked-out session (see [`SessionPool::checkout`]); derefs to
/// [`AnalysisSession`] and re-syncs + returns it to the pool on drop.
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
            // inconsistent, so never re-sync it back into circulation.
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

    #[test]
    fn checkout_mutate_return_resyncs() {
        let ckt = circuit();
        let analyzer = Analyzer::new(&ckt);
        let pool = SessionPool::new(&analyzer, InputProbs::uniform(4)).unwrap();
        let base_detect: Vec<f64> = {
            let mut s = pool.checkout();
            s.fault_detect_probs().to_vec()
        };
        {
            let mut s = pool.checkout();
            s.set_input_prob(0, 0.9375).unwrap();
            assert_ne!(s.fault_detect_probs(), &base_detect[..]);
        }
        // The mutated session came back re-synced to base.
        let mut s = pool.checkout();
        assert_eq!(s.input_probs(), pool.base_probs().as_slice());
        assert_eq!(s.fault_detect_probs(), &base_detect[..]);
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
        let got: Vec<u64> = pooled
            .fault_detect_probs()
            .iter()
            .map(|p| p.to_bits())
            .collect();
        let want: Vec<u64> = direct
            .detection_probabilities()
            .iter()
            .map(|p| p.to_bits())
            .collect();
        assert_eq!(got, want);
    }
}
