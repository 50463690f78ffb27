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

use super::engine::{ObservabilityEngine, WaveBufs};
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
    buckets: Vec<Vec<NodeId>>,
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

    fn push(&mut self, level: u32, id: NodeId) {
        if !self.queued[id.index()] {
            self.queued[id.index()] = true;
            self.buckets[level as usize].push(id);
            if self.top.is_none_or(|t| level > t) {
                self.top = Some(level);
            }
        }
    }

    /// Swaps the deepest non-empty bucket into `batch` (replacing its
    /// contents) and returns its level, or `None` when drained.
    fn pop_batch(&mut self, batch: &mut Vec<NodeId>) -> Option<u32> {
        let mut level = self.top?;
        loop {
            let bucket = &mut self.buckets[level as usize];
            if !bucket.is_empty() {
                batch.clear();
                std::mem::swap(bucket, batch);
                for &id in batch.iter() {
                    self.queued[id.index()] = false;
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
    batch: Vec<NodeId>,
    /// The wavefront evaluation's stems, pin rows and worker scratch.
    wave: WaveBufs,
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
            wave: WaveBufs::default(),
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
            self.front.push(engine.levels.level(gate), gate);
        }
    }
}

impl ObservabilityEngine {
    /// Re-sweeps the dirty reverse region seeded via
    /// [`ObsDelta::seed_readers`], updating `obs` in place. Each wavefront
    /// is evaluated exactly like a level of the full sweep
    /// ([`eval_wavefront`](ObservabilityEngine::eval_wavefront)), then
    /// applied in pop order. Returns the work performed.
    ///
    /// `cancel` is polled as each wavefront is evaluated; a fired token
    /// abandons the sweep with [`CoreError::Cancelled`]. The interrupted
    /// wavefront is not applied, but the earlier ones are and the seeded
    /// worklist is partially consumed — the caller must treat the state as
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
        while delta.front.pop_batch(&mut delta.batch).is_some() {
            work.levels += 1;
            work.nodes += delta.batch.len() as u64;
            self.eval_wavefront(
                &delta.batch,
                node_probs,
                obs.pin_rows(),
                &mut delta.wave,
                exec,
                cancel,
            )?;
            // Compare/apply in pop order: the applied values and the
            // enqueued continuation set do not depend on the chunking.
            for (id, stem, pins) in delta.wave.rows(&delta.batch) {
                self.apply_row(obs, &mut delta.front, id, stem, pins);
            }
        }
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
                front.push(self.levels.level(fanin), fanin);
            }
        }
    }
}
