//! The reverse-sweep engine: levelization, fanout maps, and the full
//! observability pass.
//!
//! The sweep evaluates one level wavefront at a time through
//! [`ObservabilityEngine::eval_wavefront`], which runs the per-node
//! evaluation ([`ObservabilityEngine::eval_node`]) on the executor — so
//! every thread count produces bit-identical numbers by construction.

use protest_netlist::analyze::Fanouts;
use protest_netlist::{Circuit, Csr, Levels, NodeId};
use std::sync::Arc;

use crate::cancel::CancelToken;
use crate::error::CoreError;
use crate::exec::Exec;
use crate::params::AnalyzerParams;
use crate::sigprob::CANCEL_CHECK_NODES;

use super::model::{pin_sensitivity, xor_combine, SensScratch};
use super::Observability;
use crate::params::ObservabilityModel;

/// Minimum wavefront width worth fanning out to worker threads.
const MIN_PAR_WAVEFRONT: usize = 16;

/// A hypothetical modification applied to one stem during a reverse sweep
/// — the analytic heart of test-point scoring (see [`crate::tpi`]): the
/// sweep computes exactly what a real insertion would, without rebuilding
/// the circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum StemAdjust {
    /// An extra observation branch with the given observability combined
    /// into the stem — what a pseudo-output `BUF` contributes (`1.0` for a
    /// direct primary output).
    ExtraBranch(f64),
    /// The stem observability multiplied by a sensitization factor — what
    /// an inserted control gate contributes (`q` for `AND`, `1 − q` for
    /// `OR`, the probability the gate passes the original net through).
    Scale(f64),
}

/// Per-worker buffers for one node evaluation: consumer branch values,
/// fanin probabilities and the pin-sensitivity cofactor scratch.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeEvalScratch {
    branches: Vec<f64>,
    fanin_probs: Vec<f64>,
    sens: SensScratch,
}

/// One worker's share of a wavefront: its evaluation scratch and the pin
/// rows of its chunk, concatenated in node order.
#[derive(Debug, Clone, Default)]
struct ObsWorker {
    eval: NodeEvalScratch,
    pins: Vec<f64>,
}

/// The buffers of one level wavefront's evaluation, reused from wavefront
/// to wavefront: each node's stem and pin-row width, and the per-worker
/// pin rows.
#[derive(Debug, Clone, Default)]
struct WaveBufs {
    heads: Vec<(f64, u32)>,
    workers: Vec<ObsWorker>,
}

impl WaveBufs {
    /// The last evaluated wavefront `batch` in node order: each node with
    /// its stem observability and pin row. The workers' chunks are
    /// contiguous and in order, so the rows are read off worker by worker.
    fn rows<'a>(
        &'a self,
        batch: &'a [NodeId],
    ) -> impl Iterator<Item = (NodeId, f64, &'a [f64])> + 'a {
        let (mut worker, mut off) = (0usize, 0usize);
        batch
            .iter()
            .zip(&self.heads)
            .map(move |(&id, &(stem, width))| {
                let width = width as usize;
                while off + width > self.workers[worker].pins.len() {
                    worker += 1;
                    off = 0;
                }
                let row = &self.workers[worker].pins[off..off + width];
                off += width;
                (id, stem, row)
            })
    }
}

/// Reusable observability computation: levelization and the fanout map are
/// built once at construction, and each pass writes into a caller-owned
/// [`Observability`] without reallocating.
#[derive(Debug)]
pub struct ObservabilityEngine {
    circuit: Arc<Circuit>,
    levels: Levels,
    fanouts: Fanouts,
    params: AnalyzerParams,
}

impl ObservabilityEngine {
    /// Builds the engine (levelization + fanout map) for a circuit, which
    /// it shares (a `&Circuit` argument is cloned once).
    pub fn new(circuit: impl Into<Arc<Circuit>>, params: &AnalyzerParams) -> Self {
        let circuit = circuit.into();
        ObservabilityEngine {
            fanouts: Fanouts::new(&circuit),
            levels: Levels::new(&circuit),
            circuit,
            params: *params,
        }
    }

    /// The engine's fanout map (crate-internal: the test-point scorer
    /// walks its what-if cones over it).
    pub(crate) fn fanouts(&self) -> &Fanouts {
        &self.fanouts
    }

    /// The engine's levelization (crate-internal: the test-point scorer
    /// drives its what-if sweeps over the same order).
    pub(crate) fn levels(&self) -> &Levels {
        &self.levels
    }

    /// Number of level wavefronts a full reverse sweep visits.
    pub(crate) fn num_levels(&self) -> usize {
        self.levels.rows().len()
    }

    /// A zeroed [`Observability`] with the right shape for this circuit,
    /// ready for [`compute_into`](Self::compute_into).
    pub fn empty(&self) -> Observability {
        Observability::zeroed(&self.circuit)
    }

    /// One reverse-topological pass, allocating the result.
    pub fn compute(&self, node_probs: &[f64]) -> Observability {
        let mut obs = self.empty();
        self.compute_into(node_probs, &mut obs);
        obs
    }

    /// One full reverse-topological pass into an existing
    /// [`Observability`] (shaped by [`empty`](Self::empty) for the same
    /// circuit).
    ///
    /// # Panics
    ///
    /// Panics if `node_probs` or `obs` does not match the circuit.
    pub fn compute_into(&self, node_probs: &[f64], obs: &mut Observability) {
        self.compute_into_exec_cancellable(node_probs, obs, &Exec::new(1), &CancelToken::never())
            .expect("a disarmed token never fires");
    }

    /// Like [`compute_into`](Self::compute_into), one level wavefront at a
    /// time (see [`eval_wavefront`](Self::eval_wavefront)), deepest first,
    /// on `exec`; results are bit-identical at every thread count.
    ///
    /// `cancel` is polled as each wavefront is evaluated; a fired token
    /// abandons the sweep with [`CoreError::Cancelled`], leaving `obs`
    /// partially written.
    pub(crate) fn compute_into_exec_cancellable(
        &self,
        node_probs: &[f64],
        obs: &mut Observability,
        exec: &Exec,
        cancel: &CancelToken,
    ) -> Result<(), CoreError> {
        let _t = protest_telemetry::span(protest_telemetry::Site::ObsFull);
        assert_eq!(
            node_probs.len(),
            self.circuit.num_nodes(),
            "one probability per node"
        );
        assert_eq!(
            obs.node_s.len(),
            self.circuit.num_nodes(),
            "mismatched shape"
        );
        let mut wave = WaveBufs::default();
        // Level rows ascend by node id: the wavefronts of the sweep.
        for batch in self.levels.rows().iter().rev() {
            self.eval_wavefront(batch, node_probs, obs.pin_rows(), &mut wave, exec, cancel)?;
            for (id, stem, pins) in wave.rows(batch) {
                obs.store(id, stem, pins);
            }
        }
        Ok(())
    }

    /// Evaluates one level wavefront into `wave` (read it back with
    /// [`WaveBufs::rows`]). Nodes at equal level read only the pin
    /// observabilities of strictly deeper levels (their consuming gates)
    /// plus the immutable `node_probs`, so the nodes are independent
    /// items of one [`Exec::fan_out`]; wavefronts of at least
    /// [`MIN_PAR_WAVEFRONT`] nodes fan out over the executor's threads.
    fn eval_wavefront(
        &self,
        batch: &[NodeId],
        node_probs: &[f64],
        pin_s: &Csr<f64>,
        wave: &mut WaveBufs,
        exec: &Exec,
        cancel: &CancelToken,
    ) -> Result<(), CoreError> {
        for worker in &mut wave.workers {
            worker.pins.clear();
        }
        wave.heads.resize(batch.len(), (0.0, 0));
        exec.fan_out(
            batch.len() >= MIN_PAR_WAVEFRONT,
            batch,
            &mut wave.heads,
            &mut wave.workers,
            cancel,
            CANCEL_CHECK_NODES,
            |w, &id| {
                let start = w.pins.len();
                let stem = self.eval_node(id, node_probs, pin_s, &mut w.eval, &mut w.pins);
                (stem, (w.pins.len() - start) as u32)
            },
        )
    }

    /// One node of the reverse pass: returns the stem observability and
    /// appends the node's pin observabilities to `pins_out`. Reads only
    /// `node_probs` entries of the node's fanins and the pin
    /// observabilities of the node's consumers (strictly deeper levels).
    /// The floating-point sequence is exactly the serial loop body's, so
    /// every schedule that calls it — serial or parallel — agrees bit for
    /// bit.
    fn eval_node(
        &self,
        id: NodeId,
        node_probs: &[f64],
        pin_s: &Csr<f64>,
        scratch: &mut NodeEvalScratch,
        pins_out: &mut Vec<f64>,
    ) -> f64 {
        self.eval_node_adjusted(id, node_probs, pin_s, scratch, pins_out, None)
    }

    /// [`eval_node`](Self::eval_node) with an optional what-if
    /// [`StemAdjust`] folded in between the stem combine and the pin
    /// computation, so the adjustment propagates into the node's pin
    /// observabilities (and, through the sweep, its whole fanin cone)
    /// exactly as a structural insertion would. `None` takes the identical
    /// floating-point path as the plain evaluation.
    pub(crate) fn eval_node_adjusted(
        &self,
        id: NodeId,
        node_probs: &[f64],
        pin_s: &Csr<f64>,
        scratch: &mut NodeEvalScratch,
        pins_out: &mut Vec<f64>,
        adjust: Option<StemAdjust>,
    ) -> f64 {
        let circuit = &*self.circuit;
        scratch.branches.clear();
        scratch.branches.extend(
            self.fanouts
                .of(id)
                .iter()
                .map(|&(g, pin)| pin_s[g.index()][pin as usize]),
        );
        if circuit.is_output(id) {
            scratch.branches.push(1.0);
        }
        let s = match self.params.observability {
            ObservabilityModel::Parity => scratch.branches.iter().copied().fold(0.0, xor_combine),
            ObservabilityModel::AnyPath => {
                1.0 - scratch.branches.iter().fold(1.0, |acc, &b| acc * (1.0 - b))
            }
        };
        let s = match adjust {
            None => s,
            Some(StemAdjust::ExtraBranch(b)) => match self.params.observability {
                ObservabilityModel::Parity => xor_combine(s, b),
                ObservabilityModel::AnyPath => 1.0 - (1.0 - s) * (1.0 - b),
            },
            Some(StemAdjust::Scale(f)) => s * f,
        };
        let s = s.clamp(0.0, 1.0);
        let node = circuit.node(id);
        if !node.fanins().is_empty() {
            scratch.fanin_probs.clear();
            scratch
                .fanin_probs
                .extend(node.fanins().iter().map(|&f| node_probs[f.index()]));
            for pin in 0..node.fanins().len() {
                let sens = pin_sensitivity(
                    circuit,
                    node.kind(),
                    &scratch.fanin_probs,
                    pin,
                    &self.params,
                    &mut scratch.sens,
                );
                pins_out.push((s * sens).clamp(0.0, 1.0));
            }
        }
        s
    }
}
