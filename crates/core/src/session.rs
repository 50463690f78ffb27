//! Incremental analysis sessions: the optimizer-hot-loop API.
//!
//! The paper's headline use case (Sec. 6, Table 8) evaluates the estimator
//! thousands of times while changing exactly *one* input probability per
//! hill-climbing step. A from-scratch [`Analyzer::run`] re-propagates the
//! whole circuit — and re-walks every conditioned reconvergence cone — on
//! every call. An [`AnalysisSession`] instead owns all per-node state and
//! re-derives only what a mutation can actually reach, in **both**
//! dataflow directions:
//!
//! * **forward** — one ascending pass over the fanin-depth ranks *pulls*
//!   changes: an AND node is re-evaluated only when a node it reads
//!   (fanins, conditioning cone, nested cones) changed value in this
//!   propagation, so the wave stops wherever a recomputed value comes out
//!   bit-identical. Every read lies in the node's transitive fanin, so a
//!   node none of whose fanins lies downstream of a change is skipped
//!   after two flag reads; a node downstream of one has its read set
//!   walked, up to the first changed read;
//! * **queries** — circuit-level signal probabilities, observabilities and
//!   per-fault detection estimates are cached until the next change, then
//!   recomputed by one full pass each.
//!
//! Only the forward layer is incremental: on the 50k-gate
//! `multmesh:4x12x64` a one-input move re-evaluates a few thousand of 82k
//! ANDs, an order of magnitude below a sweep, while the full observability
//! sweep and fault pass after it cost about a tenth of the move. Reusing
//! parts of those two passes measured slower than recomputing them on the
//! paper's circuits, so each query has one code path — the one a one-shot
//! [`Analyzer::run`] takes.
//!
//! # Query lifecycle
//!
//! | query | first call after a change | repeated call |
//! |---|---|---|
//! | [`signal_probs`](AnalysisSession::signal_probs) | full AIG→circuit map | cached |
//! | [`observabilities`](AnalysisSession::observabilities) | full parallel reverse sweep (after `signal_probs`) | cached |
//! | [`fault_detect_probs`](AnalysisSession::fault_detect_probs) / [`fault_estimates`](AnalysisSession::fault_estimates) | every fault (after `observabilities`) | cached |
//!
//! What invalidates what: a [`set_input_prob`](AnalysisSession::set_input_prob),
//! [`set_all`](AnalysisSession::set_all) or [`revert`](AnalysisSession::revert)
//! call that changes anything marks all three caches stale; a call that
//! changes nothing (same probability, empty undo log) keeps them. Queries
//! never invalidate anything, and each cache is filled independently, so
//! a `signal_probs` call never pays for the fault pass.
//!
//! The parallel passes reuse the analyzer's executor (see
//! [`crate::AnalyzerParams::num_threads`]): the forward pass settles one
//! fanin-depth rank at a time, and nodes sharing a rank never read each
//! other, so a rank's re-evaluated nodes are evaluated concurrently when
//! there are enough of them, each worker with its own session-persistent
//! scratch, and the results applied in node order.
//!
//! Results are **bit-identical** to a from-scratch pass. Forward: a node
//! is re-evaluated whenever anything it reads changed, with the same
//! per-node kernel and the same floating-point operation order, so by
//! induction over the rank order every stored AIG probability equals the
//! value a fresh pass would produce (and an unchanged node's value is
//! unchanged, which is what justifies the pruning). The queries then run
//! the very passes a one-shot run does over those values. The differential
//! proptests in `tests/session_incremental.rs` assert `to_bits` equality
//! against from-scratch passes across random mutation/snapshot/revert
//! scripts at one and four threads.
//!
//! # Example
//!
//! ```
//! use protest_core::{Analyzer, InputProbs};
//! use protest_netlist::CircuitBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = CircuitBuilder::new("demo");
//! let xs = b.input_bus("x", 4);
//! let t = b.and_tree(&xs);
//! b.output(t, "z");
//! let ckt = b.finish()?;
//!
//! let analyzer = Analyzer::new(&ckt);
//! let mut session = analyzer.session(&InputProbs::uniform(4))?;
//! assert!((session.signal_prob(t) - 0.5f64.powi(4)).abs() < 1e-12);
//!
//! // Mutate one input; only its fan-out cone is re-propagated.
//! session.set_input_prob(0, 0.75)?;
//! assert!((session.signal_prob(t) - 0.75 * 0.5f64.powi(3)).abs() < 1e-12);
//!
//! // Trial moves: snapshot, mutate, inspect, revert in O(dirty cone).
//! session.snapshot();
//! session.set_input_prob(1, 1.0)?;
//! session.revert();
//! assert!((session.signal_prob(t) - 0.75 * 0.5f64.powi(3)).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

use protest_netlist::{Circuit, NodeId};

use crate::analyzer::{Analyzer, CircuitAnalysis, FaultEstimate};
use crate::cancel::CancelToken;
use crate::detect;
use crate::error::CoreError;
use crate::failpoints;
use crate::observe::Observability;
use crate::params::InputProbs;
use crate::sigprob::{lit_prob_of, EvalScratch, CANCEL_CHECK_NODES, MIN_PAR_COND, MIN_PAR_WIDE};
use crate::AigNodeId;

/// A propagation flag: the node's value changed in this propagation.
const CHANGED: u8 = 1;
/// A propagation flag: the node or a node in its transitive fanin changed
/// in this propagation.
const TOUCHED: u8 = 2;

/// Counters describing how much work a session has actually done — the
/// observable evidence that incremental propagation is cheaper than
/// from-scratch passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Mutation calls (`set_input_prob` / `set_all`) that changed anything.
    pub mutations: u64,
    /// AND-node kernel evaluations performed by incremental propagation
    /// (excludes the one full pass at construction).
    pub and_evals: u64,
    /// `revert` calls that undid at least one change.
    pub reverts: u64,
    /// Per-fault detection estimates computed by
    /// [`AnalysisSession::fault_detect_probs`] /
    /// [`AnalysisSession::fault_estimates`]: every fault, once per query
    /// that follows a change.
    pub fault_evals: u64,
    /// Always 0: fault queries no longer reuse cached estimates. Kept so
    /// the `perfbench` harness, which reads it, still compiles.
    pub fault_reuses: u64,
    /// Level wavefronts visited by observability reverse sweeps (every
    /// level of the circuit, once per query that follows a change).
    pub obs_level_evals: u64,
    /// Per-node observability evaluations performed by reverse sweeps
    /// (every circuit node, once per query that follows a change).
    pub obs_node_evals: u64,
    /// Always 0: observability queries no longer reuse stored nodes. Kept
    /// so the `perfbench` harness, which reads it, still compiles.
    pub obs_node_reuses: u64,
    /// AND nodes in the circuit's AIG — a full forward pass evaluates all
    /// of them.
    pub and_nodes: usize,
    /// Circuit nodes — a full reverse sweep evaluates all of them.
    pub circuit_nodes: usize,
}

impl SessionStats {
    /// Counter-wise `self − earlier` (sizes kept from `self`): the work
    /// performed between two [`AnalysisSession::stats`] reads.
    pub fn since(&self, earlier: &SessionStats) -> SessionStats {
        SessionStats {
            mutations: self.mutations - earlier.mutations,
            and_evals: self.and_evals - earlier.and_evals,
            reverts: self.reverts - earlier.reverts,
            fault_evals: self.fault_evals - earlier.fault_evals,
            fault_reuses: self.fault_reuses - earlier.fault_reuses,
            obs_level_evals: self.obs_level_evals - earlier.obs_level_evals,
            obs_node_evals: self.obs_node_evals - earlier.obs_node_evals,
            obs_node_reuses: self.obs_node_reuses - earlier.obs_node_reuses,
            and_nodes: self.and_nodes,
            circuit_nodes: self.circuit_nodes,
        }
    }

    /// Counter-wise `self + other` (sizes kept from `self`): aggregates
    /// work across sessions — e.g. the optimizer's cloned trial-move
    /// workers into the driving session's totals.
    pub fn plus(&self, other: &SessionStats) -> SessionStats {
        SessionStats {
            mutations: self.mutations + other.mutations,
            and_evals: self.and_evals + other.and_evals,
            reverts: self.reverts + other.reverts,
            fault_evals: self.fault_evals + other.fault_evals,
            fault_reuses: self.fault_reuses + other.fault_reuses,
            obs_level_evals: self.obs_level_evals + other.obs_level_evals,
            obs_node_evals: self.obs_node_evals + other.obs_node_evals,
            obs_node_reuses: self.obs_node_reuses + other.obs_node_reuses,
            and_nodes: self.and_nodes,
            circuit_nodes: self.circuit_nodes,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum UndoEntry {
    Input { pos: u32, old: f64 },
    Node { index: u32, old: f64 },
}

/// A stateful, incremental analysis over one circuit (see the module
/// docs above).
///
/// Created by [`Analyzer::session`]. Mutations
/// ([`set_input_prob`](Self::set_input_prob), [`set_all`](Self::set_all))
/// re-propagate only the affected fan-out cone; queries
/// ([`signal_probs`](Self::signal_probs), [`observabilities`](Self::observabilities),
/// [`fault_detect_probs`](Self::fault_detect_probs)) are lazy and cached
/// until the next change, which they answer with one full pass each.
/// [`snapshot`](Self::snapshot) / [`revert`](Self::revert) undo rejected
/// trial moves in O(dirty cone).
///
/// Sessions are [`Clone`]: the big immutable structures (the analyzer
/// handle with its circuit, estimator and observability engine)
/// are shared, so cloning is proportional to the per-node state only — the
/// optimizer clones one session per worker to evaluate trial moves in
/// parallel. A session holds its own [`Analyzer`] handle, so it outlives
/// the caller's.
#[derive(Debug, Clone)]
pub struct AnalysisSession {
    analyzer: Analyzer,
    input_probs: Vec<f64>,
    /// Per-AIG-node probabilities, kept equal to a from-scratch pass.
    aig_probs: Vec<f64>,
    /// Per-worker scratches for rank batches (one per chunk, grown on
    /// demand; a serial batch uses the first).
    scratch: Vec<EvalScratch>,
    /// Per AIG node, its [`CHANGED`] and [`TOUCHED`] flags during a
    /// propagation; all clear between propagations.
    flags: Vec<u8>,
    /// The re-evaluated nodes of the current rank (scratch for
    /// `propagate`).
    batch_ids: Vec<u32>,
    batch_vals: Vec<f64>,
    /// Changes since the last `snapshot()`, newest last.
    undo: Vec<UndoEntry>,
    // Lazy query caches (see the module docs' lifecycle table); a change
    // clears the three `have_*` flags.
    node_probs: Vec<f64>,
    have_node_probs: bool,
    obs: Observability,
    have_obs: bool,
    estimates: Vec<FaultEstimate>,
    detections: Vec<f64>,
    have_estimates: bool,
    stats: SessionStats,
    /// Cooperative cancellation token polled by every hot loop; the
    /// default disarmed token never fires and costs one branch per poll.
    cancel: CancelToken,
    /// Set when a cancellation interrupted propagation: the AIG
    /// probabilities may silently disagree with the inputs, so the session
    /// must be discarded, not reused.
    poisoned: bool,
}

impl AnalysisSession {
    pub(crate) fn new(
        analyzer: &Analyzer,
        probs: &InputProbs,
        cancel: CancelToken,
    ) -> Result<Self, CoreError> {
        let _t = protest_telemetry::span(protest_telemetry::Site::SessionBuild);
        probs.check_len(analyzer.circuit().num_inputs())?;
        let est = analyzer.estimator();
        let aig_probs =
            est.full_estimate_exec_cancellable(probs.as_slice(), analyzer.exec(), &cancel)?;
        let obs = analyzer.obs_engine().empty();
        let n = est.aig().len();
        let circuit_nodes = analyzer.circuit().num_nodes();
        Ok(AnalysisSession {
            analyzer: analyzer.clone(),
            input_probs: probs.as_slice().to_vec(),
            aig_probs,
            scratch: Vec::new(),
            flags: vec![0; n],
            batch_ids: Vec::new(),
            batch_vals: Vec::new(),
            undo: Vec::new(),
            node_probs: vec![0.0; circuit_nodes],
            have_node_probs: false,
            obs,
            have_obs: false,
            estimates: Vec::with_capacity(analyzer.faults().len()),
            detections: Vec::with_capacity(analyzer.faults().len()),
            have_estimates: false,
            stats: SessionStats {
                and_nodes: est.aig().num_ands(),
                circuit_nodes,
                ..SessionStats::default()
            },
            cancel,
            poisoned: false,
        })
    }

    /// Arms (or disarms, with [`CancelToken::never`]) the cancellation
    /// token every subsequent mutation and query polls. While an armed
    /// token can fire, use the `try_*` query variants — the infallible
    /// queries panic on cancellation.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// The session's current cancellation token.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Whether a cancellation fired mid-propagation, leaving the AIG
    /// probabilities unreliable. A poisoned session refuses further
    /// queries and must be dropped;
    /// [`SessionPool`](crate::SessionPool) discards poisoned sessions
    /// instead of returning them.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The analyzer this session evaluates.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// The circuit under analysis.
    pub fn circuit(&self) -> &Circuit {
        self.analyzer.circuit()
    }

    /// The current input probability vector.
    pub fn input_probs(&self) -> &[f64] {
        &self.input_probs
    }

    /// Work counters since construction.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Sets the probability of primary input `input` (position in the
    /// circuit's input list) and re-propagates its dirty fan-out cone.
    /// A no-op when the probability is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProbRange`] if `p` is not a finite number in
    /// `[0, 1]`, and [`CoreError::Cancelled`] if an armed token fires
    /// mid-propagation (the session is then poisoned).
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    pub fn set_input_prob(&mut self, input: usize, p: f64) -> Result<(), CoreError> {
        if !p.is_finite() || !(0.0..=1.0).contains(&p) {
            return Err(CoreError::ProbRange { value: p });
        }
        assert!(
            input < self.input_probs.len(),
            "input position out of range"
        );
        if self.input_probs[input] == p {
            return Ok(());
        }
        self.undo.push(UndoEntry::Input {
            pos: input as u32,
            old: self.input_probs[input],
        });
        self.input_probs[input] = p;
        let node = self.analyzer.estimator().aig().input_node(input);
        self.write_node(node.index(), p);
        self.stats.mutations += 1;
        self.mark_stale();
        self.propagate()
    }

    /// Replaces the whole input probability vector, re-propagating the
    /// union of the changed inputs' fan-out cones (inputs whose probability
    /// is unchanged contribute nothing).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProbsLength`] on a mismatched length and
    /// [`CoreError::ProbRange`] on an out-of-range entry (in which case the
    /// session is left unchanged); [`CoreError::Cancelled`] if an armed
    /// token fires mid-propagation (the session is then poisoned).
    pub fn set_all(&mut self, probs: &[f64]) -> Result<(), CoreError> {
        if probs.len() != self.input_probs.len() {
            return Err(CoreError::ProbsLength {
                got: probs.len(),
                expected: self.input_probs.len(),
            });
        }
        for &p in probs {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(CoreError::ProbRange { value: p });
            }
        }
        let mut changed = false;
        for (i, &p) in probs.iter().enumerate() {
            if self.input_probs[i] == p {
                continue;
            }
            self.undo.push(UndoEntry::Input {
                pos: i as u32,
                old: self.input_probs[i],
            });
            self.input_probs[i] = p;
            let node = self.analyzer.estimator().aig().input_node(i);
            self.write_node(node.index(), p);
            changed = true;
        }
        if changed {
            self.stats.mutations += 1;
            self.mark_stale();
            self.propagate()?;
        }
        Ok(())
    }

    /// Marks the current state as the point [`revert`](Self::revert)
    /// returns to, discarding the previous undo history.
    pub fn snapshot(&mut self) {
        self.undo.clear();
    }

    /// Length of the undo log (changes since the last snapshot).
    #[cfg(test)]
    pub(crate) fn undo_len(&self) -> usize {
        self.undo.len()
    }

    /// Restores the state at the last [`snapshot`](Self::snapshot) (or at
    /// construction), undoing every mutation since in O(changed nodes).
    /// A revert that undoes anything marks the query caches stale.
    pub fn revert(&mut self) {
        if self.undo.is_empty() {
            return;
        }
        while let Some(entry) = self.undo.pop() {
            match entry {
                UndoEntry::Input { pos, old } => self.input_probs[pos as usize] = old,
                UndoEntry::Node { index, old } => self.aig_probs[index as usize] = old,
            }
        }
        self.stats.reverts += 1;
        self.mark_stale();
    }

    /// Message of the panic raised when an infallible query hits a fired
    /// cancellation token.
    const CANCELLED_QUERY: &'static str =
        "analysis cancelled: use the try_* query variants when a CancelToken is armed";

    /// Errors when a previous cancellation poisoned the session (its
    /// probabilities may disagree with the inputs, so no further queries
    /// run).
    fn check_usable(&self) -> Result<(), CoreError> {
        if self.poisoned {
            return Err(CoreError::Cancelled);
        }
        self.cancel.check()
    }

    /// Estimated `P(node = 1)` for every circuit node, indexable by node
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if an armed [`CancelToken`] fired; use
    /// [`try_signal_probs`](Self::try_signal_probs) in that case.
    pub fn signal_probs(&mut self) -> &[f64] {
        self.try_signal_probs().expect(Self::CANCELLED_QUERY)
    }

    /// Fallible form of [`signal_probs`](Self::signal_probs); errors with
    /// [`CoreError::Cancelled`] when the session's token fired or the
    /// session is poisoned.
    pub fn try_signal_probs(&mut self) -> Result<&[f64], CoreError> {
        self.check_usable()?;
        self.ensure_node_probs();
        Ok(&self.node_probs)
    }

    /// Estimated `P(node = 1)` for one circuit node.
    ///
    /// # Panics
    ///
    /// Panics if an armed [`CancelToken`] fired; use
    /// [`try_signal_prob`](Self::try_signal_prob) in that case.
    pub fn signal_prob(&mut self, id: NodeId) -> f64 {
        self.try_signal_prob(id).expect(Self::CANCELLED_QUERY)
    }

    /// Fallible form of [`signal_prob`](Self::signal_prob).
    pub fn try_signal_prob(&mut self, id: NodeId) -> Result<f64, CoreError> {
        self.check_usable()?;
        self.ensure_node_probs();
        Ok(self.node_probs[id.index()])
    }

    /// Observabilities under the current input probabilities.
    ///
    /// # Panics
    ///
    /// Panics if an armed [`CancelToken`] fired; use
    /// [`try_observabilities`](Self::try_observabilities) in that case.
    pub fn observabilities(&mut self) -> &Observability {
        self.try_observabilities().expect(Self::CANCELLED_QUERY)
    }

    /// Fallible form of [`observabilities`](Self::observabilities).
    pub fn try_observabilities(&mut self) -> Result<&Observability, CoreError> {
        self.check_usable()?;
        self.ensure_obs()?;
        Ok(&self.obs)
    }

    /// Detection probability estimates (`P_PROT`), aligned with
    /// [`Analyzer::faults`].
    ///
    /// # Panics
    ///
    /// Panics if an armed [`CancelToken`] fired; use
    /// [`try_fault_detect_probs`](Self::try_fault_detect_probs) in that
    /// case.
    pub fn fault_detect_probs(&mut self) -> &[f64] {
        self.try_fault_detect_probs().expect(Self::CANCELLED_QUERY)
    }

    /// Fallible form of [`fault_detect_probs`](Self::fault_detect_probs).
    pub fn try_fault_detect_probs(&mut self) -> Result<&[f64], CoreError> {
        self.check_usable()?;
        self.ensure_estimates()?;
        Ok(&self.detections)
    }

    /// Per-fault detection estimates, aligned with [`Analyzer::faults`].
    ///
    /// # Panics
    ///
    /// Panics if an armed [`CancelToken`] fired; use
    /// [`try_fault_estimates`](Self::try_fault_estimates) in that case.
    pub fn fault_estimates(&mut self) -> &[FaultEstimate] {
        self.try_fault_estimates().expect(Self::CANCELLED_QUERY)
    }

    /// Fallible form of [`fault_estimates`](Self::fault_estimates).
    pub fn try_fault_estimates(&mut self) -> Result<&[FaultEstimate], CoreError> {
        self.check_usable()?;
        self.ensure_estimates()?;
        Ok(&self.estimates)
    }

    /// Finishes the session into an owned [`CircuitAnalysis`] snapshot.
    ///
    /// # Panics
    ///
    /// Panics if an armed [`CancelToken`] fired; use
    /// [`try_into_analysis`](Self::try_into_analysis) in that case.
    pub fn into_analysis(self) -> CircuitAnalysis {
        self.try_into_analysis().expect(Self::CANCELLED_QUERY)
    }

    /// Fallible form of [`into_analysis`](Self::into_analysis).
    pub fn try_into_analysis(mut self) -> Result<CircuitAnalysis, CoreError> {
        self.check_usable()?;
        self.ensure_estimates()?;
        Ok(CircuitAnalysis::from_parts(
            self.node_probs,
            self.obs,
            self.estimates,
        ))
    }

    /// Marks every query cache stale after a change.
    fn mark_stale(&mut self) {
        self.have_node_probs = false;
        self.have_obs = false;
        self.have_estimates = false;
    }

    /// Records a raw AIG-node probability write (undo-logged) and flags
    /// the node for the next propagation.
    fn write_node(&mut self, index: usize, p: f64) {
        let old = self.aig_probs[index];
        if old == p {
            return;
        }
        self.undo.push(UndoEntry::Node {
            index: index as u32,
            old,
        });
        self.aig_probs[index] = p;
        self.flags[index] = CHANGED | TOUCHED;
    }

    /// Applies a freshly evaluated value: undo-log, store and flag it —
    /// but only where the value actually changed.
    fn apply_value(&mut self, index: u32, new: f64) {
        let old = self.aig_probs[index as usize];
        if new == old {
            return; // value unchanged: downstream reads see no difference
        }
        self.undo.push(UndoEntry::Node { index, old });
        self.aig_probs[index as usize] = new;
        self.flags[index as usize] |= CHANGED;
    }

    /// Brings every AND node up to date with the nodes written since the
    /// last propagation, then clears the propagation flags, on success and
    /// on a cancel alike. A fired token abandons the pass mid-rank, so the
    /// session is poisoned and [`CoreError::Cancelled`] returned.
    fn propagate(&mut self) -> Result<(), CoreError> {
        let _t = protest_telemetry::span(protest_telemetry::Site::Propagate);
        let result = self.pull_ranks();
        self.flags.fill(0);
        self.poisoned |= result.is_err();
        result
    }

    /// One ascending pass over the fanin-depth ranks (ascending rank =
    /// dependency order). A node none of whose fanins is [`TOUCHED`] reads
    /// nothing that changed and is skipped; any other node is `TOUCHED`,
    /// and it is re-evaluated when
    /// [`reads_any`](crate::sigprob::SignalProbEstimator::reads_any) finds a
    /// [`CHANGED`] node in its read set. Nodes within a rank never read
    /// each other, so a rank's re-evaluated nodes are evaluated by one
    /// [`Exec::fan_out`] — wide batches in parallel chunks, each worker
    /// with its own scratch — and the results applied in node-index order.
    /// Every node sees the same settled lower ranks as a full pass, so the
    /// propagated values are bit-identical.
    ///
    /// [`Exec::fan_out`]: crate::exec::Exec::fan_out
    fn pull_ranks(&mut self) -> Result<(), CoreError> {
        let analyzer = self.analyzer.clone();
        let est = analyzer.estimator();
        let aig = est.aig();
        let exec = analyzer.exec();
        let mut batch = std::mem::take(&mut self.batch_ids);
        for rank in est.ranks().rows.iter() {
            batch.clear();
            for &k in rank {
                let (a, b) = aig
                    .and_fanins(AigNodeId::from_index(k as usize))
                    .expect("ranked nodes are ANDs");
                let fanin_flags = self.flags[a.node().index()] | self.flags[b.node().index()];
                if fanin_flags & TOUCHED == 0 {
                    continue;
                }
                self.flags[k as usize] = TOUCHED;
                let flags = &self.flags;
                if est.reads_any(k, |x| flags[x as usize] & CHANGED != 0) {
                    batch.push(k);
                }
            }
            if batch.is_empty() {
                continue;
            }
            failpoints::hit("core.propagate.delay");
            // Fan out only when the batch carries enough conditioned
            // (µs-scale) kernels — or is very wide — mirroring the full
            // pass's thresholds; the choice cannot affect values.
            let min_cond = MIN_PAR_COND as usize;
            let wide = exec.parallel()
                && (batch.len() >= MIN_PAR_WIDE || {
                    let conditioned = batch.iter().filter(|&&k| est.is_conditioned(k));
                    conditioned.take(min_cond).count() == min_cond
                });
            self.batch_vals.resize(batch.len(), 0.0);
            let probs = &self.aig_probs;
            exec.fan_out(
                wide,
                &batch,
                &mut self.batch_vals,
                &mut self.scratch,
                &self.cancel,
                CANCEL_CHECK_NODES,
                |scratch, &k| est.and_node_value(probs, AigNodeId::from_index(k as usize), scratch),
            )?;
            self.stats.and_evals += batch.len() as u64;
            let vals = std::mem::take(&mut self.batch_vals);
            for (&k, &v) in batch.iter().zip(&vals) {
                self.apply_value(k, v);
            }
            self.batch_vals = vals;
        }
        self.batch_ids = batch;
        Ok(())
    }

    /// Fills the circuit-level probability map from the AIG probabilities
    /// when it is stale: one full AIG→circuit mapping pass.
    fn ensure_node_probs(&mut self) {
        if self.have_node_probs {
            return;
        }
        let aig = self.analyzer.estimator().aig();
        for (i, p) in self.node_probs.iter_mut().enumerate() {
            *p = lit_prob_of(&self.aig_probs, aig.lit_of(NodeId::from_index(i)));
        }
        self.have_node_probs = true;
    }

    /// Recomputes the observabilities when stale: one full (parallel)
    /// reverse sweep. A cancellation leaves `obs` partially written and
    /// the flag cleared, so a retry simply sweeps again.
    fn ensure_obs(&mut self) -> Result<(), CoreError> {
        self.ensure_node_probs();
        if self.have_obs {
            return Ok(());
        }
        let engine = self.analyzer.obs_engine();
        engine.compute_into_exec_cancellable(
            &self.node_probs,
            &mut self.obs,
            self.analyzer.exec(),
            &self.cancel,
        )?;
        self.stats.obs_level_evals += engine.num_levels() as u64;
        self.stats.obs_node_evals += self.stats.circuit_nodes as u64;
        self.have_obs = true;
        Ok(())
    }

    /// Recomputes the per-fault estimates when stale: every fault, in
    /// parallel chunks when the executor and the fault count warrant it.
    /// Like [`ensure_obs`](Self::ensure_obs), a cancellation leaves the
    /// flag cleared and a retry recomputes.
    fn ensure_estimates(&mut self) -> Result<(), CoreError> {
        if self.have_estimates {
            return Ok(());
        }
        self.ensure_obs()?;
        let faults = self.analyzer.faults();
        detect::estimate_all_faults_cancellable(
            self.analyzer.circuit(),
            faults,
            &self.node_probs,
            &self.obs,
            self.analyzer.exec(),
            &mut self.estimates,
            &mut self.detections,
            &self.cancel,
        )?;
        self.stats.fault_evals += faults.len() as u64;
        self.have_estimates = true;
        Ok(())
    }
}
