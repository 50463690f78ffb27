//! The parallel execution context shared by the analysis hot loops.
//!
//! Every embarrassingly-parallel pass in this crate (estimation ranks,
//! observability wavefronts, the fault loop, the TPI ranking, the prover's
//! BDD tier, the partition batches) is one [`Exec::fan_out`]: independent
//! items cut into one contiguous chunk per thread, each chunk with its own
//! scratch. A serial context, or a batch too narrow for the pool, is one
//! chunk on the caller's thread — there is no second loop body. With one
//! thread an [`Exec`] carries no pool at all; with `N > 1` threads, pools
//! are cached per size and shared process-wide, so constructing many
//! [`crate::Analyzer`]s does not spawn thread herds.
//!
//! Parallelism never changes results: every item runs the same kernel on
//! inputs fixed for the whole fan-out, and outputs land in item order.

use std::sync::{Arc, Mutex, OnceLock};

use crate::cancel::CancelToken;
use crate::error::CoreError;

/// Resolves a requested thread count (see
/// [`AnalyzerParams::num_threads`](crate::AnalyzerParams::num_threads)):
/// `0` means the `PROTEST_THREADS` environment variable if set, else the
/// machine's available parallelism.
pub(crate) fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(value) = std::env::var("PROTEST_THREADS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The pool cache's storage: (thread count, pool) pairs.
type PoolCache = Mutex<Vec<(usize, Arc<rayon::ThreadPool>)>>;

/// Process-wide pool cache, keyed by thread count. Pools are tiny (N − 1
/// parked threads) and analyses with equal `--threads` share one.
fn shared_pool(threads: usize) -> Arc<rayon::ThreadPool> {
    static POOLS: OnceLock<PoolCache> = OnceLock::new();
    let mut pools = POOLS.get_or_init(|| Mutex::new(Vec::new())).lock().unwrap();
    if let Some((_, pool)) = pools.iter().find(|(n, _)| *n == threads) {
        return pool.clone();
    }
    let pool = Arc::new(
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("failed to spawn analysis thread pool"),
    );
    pools.push((threads, pool.clone()));
    pool
}

/// A resolved execution context: thread count plus (when parallel) the
/// pool to run on.
#[derive(Debug, Clone)]
pub(crate) struct Exec {
    pool: Option<Arc<rayon::ThreadPool>>,
    threads: usize,
}

impl Exec {
    /// Builds the context for a requested thread count (0 = auto).
    pub(crate) fn new(requested: usize) -> Self {
        let threads = resolve_threads(requested);
        if threads <= 1 {
            Exec {
                pool: None,
                threads: 1,
            }
        } else {
            Exec {
                pool: Some(shared_pool(threads)),
                threads,
            }
        }
    }

    /// The resolved thread count (≥ 1).
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Whether parallel paths should run at all.
    pub(crate) fn parallel(&self) -> bool {
        self.threads > 1
    }

    /// Runs `op` with this context's pool installed (so `rayon::join` and
    /// the fan-outs inside target it); a serial context just calls `op` on
    /// the current thread.
    pub(crate) fn run<R: Send>(&self, op: impl FnOnce() -> R + Send) -> R {
        match &self.pool {
            Some(pool) => pool.install(op),
            None => op(),
        }
    }

    /// Evaluates `f(state, item)` for every item into the same position
    /// of `out`; each item may read only values fixed for the whole call.
    ///
    /// When `wide` (the caller's threshold) and the context is parallel,
    /// chunk `c` of one contiguous chunk per thread runs on the pool with
    /// `states[c]`; otherwise the whole slice is one chunk on the caller's
    /// thread with `states[0]`. `states` grows by `S::default()` to the
    /// chunk count and keeps its entries across calls.
    ///
    /// Each chunk polls `cancel` before its first item and every
    /// `poll_every` (≥ 1) items, and stops once it has fired; the call
    /// then returns [`CoreError::Cancelled`] with `out` partly written.
    #[allow(clippy::too_many_arguments)] // threshold, items, outputs, states, token, poll interval, kernel
    pub(crate) fn fan_out<T, O, S>(
        &self,
        wide: bool,
        items: &[T],
        out: &mut [O],
        states: &mut Vec<S>,
        cancel: &CancelToken,
        poll_every: usize,
        f: impl Fn(&mut S, &T) -> O + Sync,
    ) -> Result<(), CoreError>
    where
        T: Sync,
        O: Send,
        S: Default + Send,
    {
        assert_eq!(items.len(), out.len(), "one output slot per item");
        let pool = self.pool.as_ref().filter(|_| wide);
        let chunk = match pool {
            Some(_) => items.len().div_ceil(self.threads),
            None => items.len(),
        }
        .max(1);
        let chunks = items.len().div_ceil(chunk).max(1);
        if states.len() < chunks {
            states.resize_with(chunks, S::default);
        }
        let run = |state: &mut S, items: &[T], out: &mut [O]| {
            for (items, out) in items.chunks(poll_every).zip(out.chunks_mut(poll_every)) {
                if cancel.is_cancelled() {
                    return;
                }
                for (slot, item) in out.iter_mut().zip(items) {
                    *slot = f(state, item);
                }
            }
        };
        match pool {
            Some(pool) => pool.scope(|s| {
                let run = &run;
                for ((items, out), state) in items
                    .chunks(chunk)
                    .zip(out.chunks_mut(chunk))
                    .zip(states.iter_mut())
                {
                    s.spawn(move |_| run(state, items, out));
                }
            }),
            None => run(&mut states[0], items, out),
        }
        cancel.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_threads_win_over_everything() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1), 1);
    }

    #[test]
    fn serial_context_has_no_pool() {
        let exec = Exec::new(1);
        assert!(!exec.parallel());
        assert_eq!(exec.threads(), 1);
        assert_eq!(exec.run(|| 7), 7);
    }

    #[test]
    fn parallel_context_installs_its_pool() {
        let exec = Exec::new(4);
        assert!(exec.parallel());
        assert_eq!(exec.threads(), 4);
        assert_eq!(exec.run(rayon::current_num_threads), 4);
    }

    /// Squares each item, recording in the chunk's state which items it
    /// saw.
    fn squares(exec: &Exec, wide: bool, items: &[u64]) -> (Vec<u64>, Vec<Vec<u64>>) {
        let mut out = vec![0; items.len()];
        let mut states: Vec<Vec<u64>> = Vec::new();
        exec.fan_out(
            wide,
            items,
            &mut out,
            &mut states,
            &CancelToken::never(),
            1,
            |seen, &x| {
                seen.push(x);
                x * x
            },
        )
        .unwrap();
        (out, states)
    }

    #[test]
    fn fan_out_is_identical_at_every_thread_count() {
        for len in [0usize, 1, 3, 4, 7, 10, 64, 1001] {
            let items: Vec<u64> = (0..len as u64).map(|x| x * 7 + 3).collect();
            let want: Vec<u64> = items.iter().map(|x| x * x).collect();
            for threads in [1, 2, 4] {
                let exec = Exec::new(threads);
                for wide in [false, true] {
                    let (out, _) = squares(&exec, wide, &items);
                    assert_eq!(out, want, "len {len}, {threads} threads, wide {wide}");
                }
            }
        }
    }

    #[test]
    fn each_chunk_gets_its_own_state() {
        let items: Vec<u64> = (0..10).collect();
        // 10 items over 4 threads: chunks of 3, 3, 3, 1.
        let (_, states) = squares(&Exec::new(4), true, &items);
        assert_eq!(
            states,
            [vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8], vec![9]]
        );
        // Fewer items than threads: one item per chunk, one state each.
        let (_, states) = squares(&Exec::new(4), true, &items[..2]);
        assert_eq!(states, [vec![0], vec![1]]);
        // Narrow batches and serial contexts are one chunk on state 0.
        for (threads, wide) in [(4, false), (1, true)] {
            let (_, states) = squares(&Exec::new(threads), wide, &items);
            assert_eq!(states, std::slice::from_ref(&items));
        }
        // Empty input still hands out state 0 and writes nothing.
        let (out, states) = squares(&Exec::new(4), true, &[]);
        assert!(out.is_empty());
        assert_eq!(states, [Vec::<u64>::new()]);
    }

    #[test]
    fn states_are_kept_across_calls() {
        let exec = Exec::new(2);
        let items = [1u32, 2, 3, 4];
        let mut out = [0u32; 4];
        let mut calls: Vec<u32> = Vec::new();
        for _ in 0..3 {
            exec.fan_out(
                true,
                &items,
                &mut out,
                &mut calls,
                &CancelToken::never(),
                1,
                |n, &x| {
                    *n += 1;
                    x
                },
            )
            .unwrap();
        }
        assert_eq!(calls, [6, 6]);
    }

    #[test]
    fn fired_token_cancels_the_fan_out() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 4] {
            let exec = Exec::new(threads);
            let mut out = vec![0u64; items.len()];
            let got = exec.fan_out(
                true,
                &items,
                &mut out,
                &mut Vec::new(),
                &cancel,
                16,
                |(), &x| x + 1,
            );
            assert_eq!(got, Err(CoreError::Cancelled), "{threads} threads");
            assert!(
                out.iter().all(|&v| v == 0),
                "no item runs after the token fired"
            );
        }
    }

    #[test]
    fn pools_are_shared_per_size() {
        let a = shared_pool(5);
        let b = shared_pool(5);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
