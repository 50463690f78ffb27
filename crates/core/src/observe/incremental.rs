//! The incremental reverse sweep: re-derive observabilities only for the
//! dirty reverse region after a mutation.
//!
//! Observability dataflow runs *backward*: a node's stem value reads the
//! pin observabilities of its consumers (strictly deeper levels), and its
//! pin row reads its own fanins' signal probabilities. A mutation therefore
//! invalidates (a) every gate that reads a changed signal probability — the
//! seeds, one per consumer of a changed circuit node — and (b) the
//! reverse-closure of whatever pin observabilities actually change from
//! there, found by sweeping level wavefronts downward and pruning the walk
//! wherever a recomputed pin row comes out bit-identical to the stored one
//! (the mirror image of the forward pass's value-change pruning).
//!
//! Every recomputed node runs the same
//! [`eval_node`](super::engine::ObservabilityEngine::eval_node) against the
//! same settled inputs a full sweep would present, so by induction over
//! descending levels the refreshed state is **bit-identical** to a
//! from-scratch reverse sweep — the differential proptests in
//! `tests/session_incremental.rs` assert exactly that, `to_bits` equal, at
//! several thread counts.

use protest_netlist::NodeId;

use crate::cancel::CancelToken;
use crate::error::CoreError;
use crate::exec::Exec;

use super::engine::{NodeEvalScratch, ObservabilityEngine, MIN_PAR_WAVEFRONT};
use super::Observability;

/// Work done by one incremental refresh (feeds the session's
/// `obs_level_evals` / `obs_node_evals` counters).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SweepWork {
    /// Level wavefronts visited.
    pub(crate) levels: u64,
    /// Nodes re-evaluated.
    pub(crate) nodes: u64,
}

/// Per-worker buffers of the parallel wavefront path.
#[derive(Debug, Clone, Default)]
struct ObsWorker {
    eval: NodeEvalScratch,
    pins: Vec<f64>,
}

/// A deduplicated worklist bucketed by circuit level, drained deepest
/// level first. Bucketing (rather than a priority heap) keeps pushes and
/// pops O(1) — the reverse sweep's per-node math is tens of nanoseconds,
/// so worklist overhead would otherwise eat the dirty-region win. The
/// drain scans levels downward from the deepest seeded one; every push
/// performed *during* the drain targets a strictly lower level (a changed
/// pin row dirties the pin's fanin), so the downward scan never misses an
/// entry. Order within a level is insertion order — nodes of equal level
/// never read each other, so this cannot affect any value.
#[derive(Debug, Clone)]
struct LevelFront {
    buckets: Vec<Vec<u32>>,
    queued: Vec<bool>,
    /// Highest level with a queued entry (`None` when empty).
    top: Option<u32>,
}

impl LevelFront {
    fn new(nodes: usize, num_levels: usize) -> Self {
        LevelFront {
            buckets: vec![Vec::new(); num_levels],
            queued: vec![false; nodes],
            top: None,
        }
    }

    fn push(&mut self, level: u32, index: u32) {
        if !self.queued[index as usize] {
            self.queued[index as usize] = true;
            self.buckets[level as usize].push(index);
            if self.top.is_none_or(|t| level > t) {
                self.top = Some(level);
            }
        }
    }

    /// Swaps the deepest non-empty bucket into `batch` (replacing its
    /// contents) and returns its level, or `None` when drained.
    fn pop_batch(&mut self, batch: &mut Vec<u32>) -> Option<u32> {
        let mut level = self.top?;
        loop {
            let bucket = &mut self.buckets[level as usize];
            if !bucket.is_empty() {
                batch.clear();
                std::mem::swap(bucket, batch);
                for &k in batch.iter() {
                    self.queued[k as usize] = false;
                }
                self.top = level.checked_sub(1);
                return Some(level);
            }
            match level.checked_sub(1) {
                Some(next) => level = next,
                None => {
                    self.top = None;
                    return None;
                }
            }
        }
    }
}

/// The persistent state of one session's incremental reverse sweeps: the
/// level-bucketed worklist plus every scratch buffer the sweep reuses
/// across mutations. Cloned with the session (the optimizer's trial-move
/// workers each keep their own).
#[derive(Debug, Clone)]
pub(crate) struct ObsDelta {
    /// Dirty nodes keyed by circuit level, drained deepest first.
    front: LevelFront,
    batch: Vec<u32>,
    eval: NodeEvalScratch,
    pins_tmp: Vec<f64>,
    /// Parallel-path buffers: per-node stem results, concatenated pin
    /// rows, per-node pin offsets, per-worker scratch.
    out_s: Vec<f64>,
    out_pins: Vec<f64>,
    pin_off: Vec<u32>,
    workers: Vec<ObsWorker>,
}

impl ObsDelta {
    /// Empty sweep state shaped for `engine`'s circuit.
    pub(crate) fn new(engine: &ObservabilityEngine) -> Self {
        ObsDelta {
            front: LevelFront::new(
                engine.circuit.num_nodes(),
                engine.levels.depth() as usize + 1,
            ),
            batch: Vec::new(),
            eval: NodeEvalScratch::default(),
            pins_tmp: Vec::new(),
            out_s: Vec::new(),
            out_pins: Vec::new(),
            pin_off: Vec::new(),
            workers: Vec::new(),
        }
    }

    /// Seeds the sweep with every reader of `changed`'s signal
    /// probability: the consuming gates' pin sensitivities read it, so
    /// their rows must be re-derived. (`changed` itself is *not* seeded —
    /// its own evaluation never reads its own probability; if its stem
    /// must change, the sweep reaches it through a consumer's changed pin
    /// row.)
    pub(crate) fn seed_readers(&mut self, engine: &ObservabilityEngine, changed: NodeId) {
        for &(gate, _pin) in engine.fanouts.of(changed) {
            self.front
                .push(engine.levels.level(gate), gate.index() as u32);
        }
    }
}

impl ObservabilityEngine {
    /// Re-sweeps the dirty reverse region seeded via
    /// [`ObsDelta::seed_readers`], updating `obs` in place. Wavefronts wide
    /// enough to beat queueing overhead fan out on the executor exactly
    /// like the full parallel sweep; narrow ones stay inline. Returns the
    /// work performed.
    ///
    /// `cancel` is polled once per wavefront; a fired token abandons the
    /// sweep with [`CoreError::Cancelled`], leaving `obs` and the seeded
    /// worklist partially consumed — the caller must treat the state as
    /// poisoned.
    pub(crate) fn refresh_into_exec_cancellable(
        &self,
        node_probs: &[f64],
        obs: &mut Observability,
        delta: &mut ObsDelta,
        exec: &Exec,
        cancel: &CancelToken,
    ) -> Result<SweepWork, CoreError> {
        let _t = protest_telemetry::span(protest_telemetry::Site::ObsRefresh);
        let mut work = SweepWork::default();
        let mut batch = std::mem::take(&mut delta.batch);
        while delta.front.pop_batch(&mut batch).is_some() {
            if cancel.is_cancelled() {
                delta.batch = batch;
                return Err(CoreError::Cancelled);
            }
            work.levels += 1;
            work.nodes += batch.len() as u64;
            let len = batch.len();
            if !exec.parallel() || len < MIN_PAR_WAVEFRONT {
                for &k in batch.iter() {
                    let id = NodeId::from_index(k as usize);
                    delta.pins_tmp.clear();
                    let s = self.eval_node(
                        id,
                        node_probs,
                        obs.pin_rows(),
                        &mut delta.eval,
                        &mut delta.pins_tmp,
                    );
                    let pins = std::mem::take(&mut delta.pins_tmp);
                    self.apply_row(obs, &mut delta.front, id, s, &pins);
                    delta.pins_tmp = pins;
                }
                continue;
            }
            // Parallel wavefront: evaluate chunks into flat result buffers
            // (stems + concatenated pin rows at precomputed offsets), then
            // compare/apply serially in pop order — the applied values and
            // the enqueued continuation set match the inline path exactly.
            delta.pin_off.clear();
            let mut total_pins = 0u32;
            for &k in &batch {
                delta.pin_off.push(total_pins);
                let id = NodeId::from_index(k as usize);
                total_pins += self.circuit.node(id).fanins().len() as u32;
            }
            let threads = exec.threads();
            while delta.workers.len() < threads {
                delta.workers.push(ObsWorker::default());
            }
            delta.out_s.clear();
            delta.out_s.resize(len, 0.0);
            delta.out_pins.clear();
            delta.out_pins.resize(total_pins as usize, 0.0);
            let chunk = len.div_ceil(threads);
            {
                let pin_s_read = obs.pin_rows();
                let pin_off = &delta.pin_off;
                let mut s_rest: &mut [f64] = &mut delta.out_s;
                let mut p_rest: &mut [f64] = &mut delta.out_pins;
                let mut next = 0usize;
                exec.run(|| {
                    rayon::scope(|sc| {
                        for (ids, worker) in batch.chunks(chunk).zip(delta.workers.iter_mut()) {
                            let (s_chunk, s_tail) =
                                std::mem::take(&mut s_rest).split_at_mut(ids.len());
                            s_rest = s_tail;
                            let start = pin_off[next] as usize;
                            next += ids.len();
                            let end = if next < len {
                                pin_off[next] as usize
                            } else {
                                total_pins as usize
                            };
                            let (p_chunk, p_tail) =
                                std::mem::take(&mut p_rest).split_at_mut(end - start);
                            p_rest = p_tail;
                            sc.spawn(move |_| {
                                let mut off = 0usize;
                                for (slot, &k) in s_chunk.iter_mut().zip(ids) {
                                    let id = NodeId::from_index(k as usize);
                                    worker.pins.clear();
                                    *slot = self.eval_node(
                                        id,
                                        node_probs,
                                        pin_s_read,
                                        &mut worker.eval,
                                        &mut worker.pins,
                                    );
                                    let width = worker.pins.len();
                                    p_chunk[off..off + width].copy_from_slice(&worker.pins);
                                    off += width;
                                }
                            });
                        }
                    });
                });
            }
            let stems = std::mem::take(&mut delta.out_s);
            let pins = std::mem::take(&mut delta.out_pins);
            for (i, (&k, &stem)) in batch.iter().zip(stems.iter()).enumerate() {
                let id = NodeId::from_index(k as usize);
                let start = delta.pin_off[i] as usize;
                let end = if i + 1 < len {
                    delta.pin_off[i + 1] as usize
                } else {
                    total_pins as usize
                };
                self.apply_row(obs, &mut delta.front, id, stem, &pins[start..end]);
            }
            delta.out_s = stems;
            delta.out_pins = pins;
        }
        delta.batch = batch;
        Ok(work)
    }

    /// Stores one recomputed node and spreads dirtiness backward — but
    /// only through pin entries whose value actually changed: the fanin
    /// behind an unchanged pin sees exactly the inputs it saw before, so
    /// re-deriving it would reproduce the stored values bit for bit.
    fn apply_row(
        &self,
        obs: &mut Observability,
        front: &mut LevelFront,
        id: NodeId,
        stem: f64,
        pins: &[f64],
    ) {
        obs.node_s[id.index()] = stem;
        let row = obs.pin_row_mut(id.index());
        debug_assert_eq!(row.len(), pins.len());
        let fanins = self.circuit.node(id).fanins();
        for (pin, (&new, old)) in pins.iter().zip(row.iter_mut()).enumerate() {
            if new.to_bits() != old.to_bits() {
                *old = new;
                let fanin = fanins[pin];
                front.push(self.levels.level(fanin), fanin.index() as u32);
            }
        }
    }
}
