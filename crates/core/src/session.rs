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
//! * **forward** — signal probabilities re-propagate only the *dirty
//!   fan-out cone*: the AND nodes whose read dependencies (fanins,
//!   conditioning cones, nested cones) are reached by the changed inputs,
//!   pruned wherever a recomputed value comes out bit-identical;
//! * **reverse** — observabilities re-sweep only the *dirty reverse
//!   region*: the gates whose pin sensitivities read a changed signal
//!   probability plus the reverse-closure of the pin observabilities that
//!   actually change from there (see [`crate::observe::incremental`]);
//! * **per fault** — detection estimates recompute only the faults whose
//!   dependency cone intersects the changed nodes.
//!
//! # Query lifecycle
//!
//! All three query caches consume one shared [`DirtyRegion`] (see
//! [`crate::dirty`]): every mutation appends the changed AIG nodes to its
//! log, and each cache keeps its own epoch cursor into that log, so the
//! caches stay independently lazy — a `signal_probs` call never forces the
//! fault cache to catch up, and three queries after one mutation each pay
//! only their own slice of work.
//!
//! | query | cold (first call) | after a mutation |
//! |---|---|---|
//! | [`signal_probs`](AnalysisSession::signal_probs) | full AIG→circuit map | remaps only circuit nodes carried by dirty AIG nodes |
//! | [`observabilities`](AnalysisSession::observabilities) | full parallel reverse sweep | incremental reverse sweep of the dirty region |
//! | [`fault_detect_probs`](AnalysisSession::fault_detect_probs) / [`fault_estimates`](AnalysisSession::fault_estimates) | every fault | only faults whose dependency intervals hit the dirty nodes |
//!
//! What invalidates what: [`set_input_prob`](AnalysisSession::set_input_prob)
//! and [`set_all`](AnalysisSession::set_all) mark exactly the AIG nodes
//! whose propagated probability changed (value-change pruning stops the
//! marking at unchanged nodes); [`revert`](AnalysisSession::revert) marks
//! every node it restores (conservative: the restored value *is* a
//! change relative to the rejected trial). Queries never invalidate
//! anything. Each query refresh commits its cursor; once all three have
//! caught up the log compacts to empty, so a hill-climbing run that reads
//! fault estimates every trial move keeps the log at one mutation window.
//!
//! Deeper reuse layers under the queries:
//!
//! * **Parallel wavefronts** — the forward worklist drains one fanin-depth
//!   rank at a time and the reverse worklist one circuit level at a time;
//!   nodes sharing a rank/level never read each other, so wide wavefronts
//!   are evaluated concurrently on the analyzer's executor (see
//!   [`crate::AnalyzerParams::num_threads`]), each worker with its own
//!   scratch, and the results applied in a deterministic order.
//! * **Session-persistent scratch** — the per-worker evaluation buffers,
//!   the fault `todo` list and the result staging areas live in the
//!   session and are reused across queries; the optimizer's trial moves
//!   allocate nothing after warm-up.
//!
//! Results are **bit-identical** to a from-scratch pass: a node is
//! re-evaluated whenever anything it reads changed, with the same per-node
//! kernel and the same floating-point operation order, so by induction over
//! the (forward or reverse) topological order every stored value equals the
//! value a fresh pass would produce. The same argument covers the parallel
//! paths (they only reschedule independent per-node computations) and the
//! fault cache (a skipped fault's inputs are all unchanged, so recomputing
//! it would reproduce the cached value exactly). The differential proptests
//! in `tests/session_incremental.rs` assert `to_bits` equality against
//! from-scratch passes across random mutation/snapshot/revert scripts at
//! one and four threads.
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
use crate::detect::{self, FaultScratch};
use crate::dirty::{Consumer, DirtyRegion, Wavefront};
use crate::error::CoreError;
use crate::failpoints;
use crate::observe::{ObsDelta, Observability};
use crate::params::InputProbs;
use crate::sigprob::{lit_prob_of, EvalScratch, CANCEL_CHECK_NODES, MIN_PAR_COND, MIN_PAR_WIDE};

/// Counters describing how much work a session has actually done — the
/// observable evidence that incremental re-estimation is cheaper than
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
    /// Per-fault detection estimates actually computed by
    /// [`AnalysisSession::fault_detect_probs`] /
    /// [`AnalysisSession::fault_estimates`] (the first query computes all
    /// of them; later queries only the faults touched by the dirty cone).
    pub fault_evals: u64,
    /// Per-fault detection estimates *reused* from the previous query
    /// because neither the fault's activation site nor its propagation
    /// cone intersected the nodes changed since.
    pub fault_reuses: u64,
    /// Level wavefronts visited by observability reverse sweeps (the cold
    /// full sweep counts every level of the circuit; an incremental
    /// refresh only the levels intersecting the dirty reverse region).
    pub obs_level_evals: u64,
    /// Per-node observability evaluations performed by reverse sweeps
    /// (cold sweeps count every node).
    pub obs_node_evals: u64,
    /// Nodes whose stored observability was *reused* by an incremental
    /// refresh because nothing they read changed — the reverse-pass mirror
    /// of [`fault_reuses`](Self::fault_reuses).
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

/// An incremental observability refresh whose dirty AIG window reaches
/// `aig_len / DENSE_OBS_WINDOW_DIVISOR` entries falls back to the full
/// parallel reverse sweep: seeding iterates the whole window (which for a
/// dense mutation exceeds the circuit's node count — the AIG is larger
/// than the netlist) and the bucketed worklist adds per-node bookkeeping,
/// so past roughly half the AIG the plain sweep is measurably faster
/// (measured per input on the div8x8 dividend bits, whose cones span most
/// of the divider; the `observability_refresh` criterion bench times a
/// one-input refresh against the full sweep there). Correctness is
/// unaffected — the full sweep *is* the incremental path's reference.
const DENSE_OBS_WINDOW_DIVISOR: usize = 2;

/// A stateful, incremental analysis over one circuit (see the module
/// docs above).
///
/// Created by [`Analyzer::session`]. Mutations
/// ([`set_input_prob`](Self::set_input_prob), [`set_all`](Self::set_all))
/// re-propagate only the affected fan-out cone; queries
/// ([`signal_probs`](Self::signal_probs), [`observabilities`](Self::observabilities),
/// [`fault_detect_probs`](Self::fault_detect_probs)) are lazy, cached, and
/// refresh incrementally from the shared dirty-region tracker.
/// [`snapshot`](Self::snapshot) / [`revert`](Self::revert) undo rejected
/// trial moves in O(dirty cone).
///
/// Sessions are [`Clone`]: the big immutable structures (the analyzer
/// handle with its circuit, observability engine and fault dependency map)
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
    /// Forward dirty worklist keyed by fanin-depth rank: popping in
    /// ascending order yields whole ranks of mutually independent nodes.
    front: Wavefront,
    /// The rank currently being drained (scratch for `propagate`).
    batch_ids: Vec<u32>,
    batch_vals: Vec<f64>,
    /// Changes since the last `snapshot()`, newest last.
    undo: Vec<UndoEntry>,
    /// The shared dirty-region tracker every query cache consumes.
    dirty: DirtyRegion,
    /// Sorted circuit-level dirty node indices (scratch for the fault
    /// refresh's interval-intersection tests).
    dirty_nodes: Vec<u32>,
    /// Circuit-level dirty bitset (one bit per circuit node, scratch for
    /// the observability refresh): the AIG dirty window is translated into
    /// this set first so the reverse sweep is seeded once per circuit node
    /// in ascending index order, regardless of the window's AIG order.
    obs_seed_words: Vec<u64>,
    // Lazy query caches (see the module docs' lifecycle table).
    node_probs: Vec<f64>,
    have_node_probs: bool,
    obs: Observability,
    /// Persistent state of the incremental reverse sweeps.
    obs_delta: ObsDelta,
    have_obs: bool,
    estimates: Vec<FaultEstimate>,
    detections: Vec<f64>,
    fault_scratch: FaultScratch,
    have_estimates: bool,
    stats: SessionStats,
    /// Cooperative cancellation token polled by every hot loop; the
    /// default disarmed token never fires and costs one branch per poll.
    cancel: CancelToken,
    /// Set when a cancellation interrupted a refresh after dirty-region
    /// info was already committed: the caches may silently disagree with
    /// the inputs, so the session must be discarded, not reused.
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
        let obs_engine = analyzer.obs_engine();
        let obs = obs_engine.empty();
        let obs_delta = ObsDelta::new(obs_engine);
        let n = est.aig().len();
        let circuit_nodes = analyzer.circuit().num_nodes();
        Ok(AnalysisSession {
            analyzer: analyzer.clone(),
            input_probs: probs.as_slice().to_vec(),
            aig_probs,
            scratch: Vec::new(),
            front: Wavefront::new(n),
            batch_ids: Vec::new(),
            batch_vals: Vec::new(),
            undo: Vec::new(),
            dirty: DirtyRegion::new(n),
            dirty_nodes: Vec::new(),
            obs_seed_words: vec![0; circuit_nodes.div_ceil(64)],
            node_probs: vec![0.0; circuit_nodes],
            have_node_probs: false,
            obs,
            obs_delta,
            have_obs: false,
            estimates: Vec::with_capacity(analyzer.faults().len()),
            detections: Vec::with_capacity(analyzer.faults().len()),
            fault_scratch: FaultScratch::default(),
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

    /// Whether a cancellation fired after incremental bookkeeping was
    /// already committed, leaving the query caches unreliable. A poisoned
    /// session refuses further queries and must be dropped;
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

    /// Fanin-depth rank range `(min, max)` of the AIG nodes changed since
    /// the last point every query cache was current, or `None` when
    /// nothing is pending — a diagnostic window into the shared
    /// dirty-region tracker (how deep the open mutation window reaches).
    pub fn dirty_rank_range(&self) -> Option<(u32, u32)> {
        self.dirty.rank_range()
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
    /// Every restored node is marked dirty again (conservatively: relative
    /// to the rejected trial its value *did* change), so the query caches
    /// re-derive — and value-change pruning immediately re-confirms — the
    /// touched region on their next refresh.
    pub fn revert(&mut self) {
        if self.undo.is_empty() {
            return;
        }
        while let Some(entry) = self.undo.pop() {
            match entry {
                UndoEntry::Input { pos, old } => self.input_probs[pos as usize] = old,
                UndoEntry::Node { index, old } => {
                    self.aig_probs[index as usize] = old;
                    self.mark_dirty(index);
                }
            }
        }
        self.stats.reverts += 1;
    }

    /// Message of the panic raised when an infallible query hits a fired
    /// cancellation token.
    const CANCELLED_QUERY: &'static str =
        "analysis cancelled: use the try_* query variants when a CancelToken is armed";

    /// Errors when a previous cancellation poisoned the session (its
    /// caches may disagree with the inputs, so no further queries run).
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

    /// Records an AIG node as changed in the shared dirty region.
    fn mark_dirty(&mut self, index: u32) {
        let rank = self.analyzer.estimator().ranks().of[index as usize];
        self.dirty.mark(index, rank);
    }

    /// Records a raw AIG-node probability write (undo-logged) and enqueues
    /// its readers.
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
        self.mark_dirty(index as u32);
        self.enqueue_readers(index);
    }

    /// Queues every reader of `index` keyed by its fanin-depth rank.
    fn enqueue_readers(&mut self, index: usize) {
        let est = self.analyzer.estimator();
        let rank_of = &est.ranks().of;
        let readers = est.readers();
        for &r in readers.of(index) {
            self.front.push(rank_of[r as usize], r);
        }
    }

    /// Applies a freshly evaluated value: undo-log, store, mark dirty and
    /// spread dirtiness — but only where the value actually changed.
    fn apply_value(&mut self, index: u32, new: f64) {
        let old = self.aig_probs[index as usize];
        if new == old {
            return; // value unchanged: downstream reads see no difference
        }
        self.undo.push(UndoEntry::Node { index, old });
        self.aig_probs[index as usize] = new;
        self.mark_dirty(index);
        self.enqueue_readers(index as usize);
    }

    /// Drains the forward worklist one fanin-depth rank at a time
    /// (ascending rank = dependency order). Nodes within a rank never read
    /// each other, so each rank is evaluated by one [`Exec::fan_out`] —
    /// wide ranks in parallel chunks, each worker with its own scratch —
    /// and the results applied in node-index order. Every node sees the
    /// same settled lower ranks as the serial schedule, so the propagated
    /// values are bit-identical.
    ///
    /// The cancellation token is polled as each rank is evaluated; a fired
    /// token abandons the drain mid-worklist (the
    /// popped rank is lost), so the session is poisoned and
    /// [`CoreError::Cancelled`] returned.
    ///
    /// [`Exec::fan_out`]: crate::exec::Exec::fan_out
    fn propagate(&mut self) -> Result<(), CoreError> {
        let _t = protest_telemetry::span(protest_telemetry::Site::Propagate);
        let analyzer = self.analyzer.clone();
        let est = analyzer.estimator();
        let exec = analyzer.exec();
        let mut batch = std::mem::take(&mut self.batch_ids);
        while self.front.pop_batch(&mut batch).is_some() {
            failpoints::hit("core.propagate.delay");
            // Fan out only when the rank carries enough conditioned
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
            if let Err(e) = exec.fan_out(
                wide,
                &batch,
                &mut self.batch_vals,
                &mut self.scratch,
                &self.cancel,
                CANCEL_CHECK_NODES,
                |scratch, &k| {
                    est.and_node_value(probs, crate::AigNodeId::from_index(k as usize), scratch)
                },
            ) {
                self.poisoned = true;
                return Err(e);
            }
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

    /// Refreshes the circuit-level probability map. Cold (first call, or
    /// after this consumer's dirty window overflowed): one full
    /// AIG→circuit mapping pass. Incremental: remaps only the circuit
    /// nodes carried by AIG nodes in this consumer's dirty window.
    fn ensure_node_probs(&mut self) {
        if !self.have_node_probs || self.dirty.overflowed(Consumer::NodeProbs) {
            let aig = self.analyzer.estimator().aig();
            for i in 0..self.node_probs.len() {
                self.node_probs[i] =
                    lit_prob_of(&self.aig_probs, aig.lit_of(NodeId::from_index(i)));
            }
            self.dirty.commit(Consumer::NodeProbs);
            self.have_node_probs = true;
            return;
        }
        if self.dirty.is_clean(Consumer::NodeProbs) {
            return;
        }
        let aig = self.analyzer.estimator().aig();
        let circ_of_aig = self.analyzer.circ_of_aig();
        for &a in self.dirty.pending(Consumer::NodeProbs) {
            for &c in circ_of_aig.of(a as usize) {
                self.node_probs[c as usize] =
                    lit_prob_of(&self.aig_probs, aig.lit_of(NodeId::from_index(c as usize)));
            }
        }
        self.dirty.commit(Consumer::NodeProbs);
    }

    /// Refreshes the observability state. Cold: one full (parallel)
    /// reverse sweep. Incremental: seeds the reverse worklist with every
    /// reader of a changed signal probability and re-sweeps only the
    /// levels the dirty region actually reaches (see
    /// [`crate::observe::incremental`]). When the dirty window covers most
    /// of the AIG (see [`DENSE_OBS_WINDOW_DIVISOR`]) the refresh falls
    /// back to the full sweep instead — seeding plus worklist bookkeeping
    /// over a near-total region costs more than the sweep it saves, and
    /// the full pass is the incremental path's reference anyway.
    ///
    /// A cancellation during the *full* sweep is clean (nothing was
    /// committed; a retry recomputes from scratch); one during the
    /// *incremental* refresh fires after the dirty window was already
    /// consumed, so it poisons the session.
    fn ensure_obs(&mut self) -> Result<(), CoreError> {
        self.ensure_node_probs();
        if self.have_obs && self.dirty.is_clean(Consumer::Observability) {
            return Ok(());
        }
        let dense = self.dirty.pending(Consumer::Observability).len()
            >= self.aig_probs.len() / DENSE_OBS_WINDOW_DIVISOR;
        if !self.have_obs || dense || self.dirty.overflowed(Consumer::Observability) {
            self.analyzer.obs_engine().compute_into_exec_cancellable(
                &self.node_probs,
                &mut self.obs,
                self.analyzer.exec(),
                &self.cancel,
            )?;
            self.stats.obs_level_evals += self.analyzer.obs_engine().num_levels() as u64;
            self.stats.obs_node_evals += self.stats.circuit_nodes as u64;
            self.dirty.commit(Consumer::Observability);
            self.have_obs = true;
            return Ok(());
        }
        // Translate the AIG dirty window into a circuit-level bitset
        // first, then seed from the bitset in ascending node order: the
        // worklist values are seed-order independent (each node is pushed
        // at its circuit level and evaluated against settled inputs), but
        // the deterministic order keeps the seeding pass cache-friendly
        // and visits each dirty circuit node exactly once.
        let circ_of_aig = self.analyzer.circ_of_aig();
        self.obs_seed_words.fill(0);
        for &a in self.dirty.pending(Consumer::Observability) {
            for &c in circ_of_aig.of(a as usize) {
                self.obs_seed_words[c as usize / 64] |= 1u64 << (c % 64);
            }
        }
        self.dirty.commit(Consumer::Observability);
        for wi in 0..self.obs_seed_words.len() {
            let mut bits = self.obs_seed_words[wi];
            while bits != 0 {
                let c = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.obs_delta
                    .seed_readers(self.analyzer.obs_engine(), NodeId::from_index(c));
            }
        }
        let work = match self.analyzer.obs_engine().refresh_into_exec_cancellable(
            &self.node_probs,
            &mut self.obs,
            &mut self.obs_delta,
            self.analyzer.exec(),
            &self.cancel,
        ) {
            Ok(work) => work,
            Err(e) => {
                // The dirty window is consumed but the sweep is partial:
                // the cache silently disagrees with the inputs.
                self.poisoned = true;
                return Err(e);
            }
        };
        self.stats.obs_level_evals += work.levels;
        self.stats.obs_node_evals += work.nodes;
        self.stats.obs_node_reuses += self.stats.circuit_nodes as u64 - work.nodes;
        Ok(())
    }

    /// Refreshes the per-fault estimates. The first call computes every
    /// fault; later calls reuse the cached result for each fault whose
    /// dependency set (activation driver + propagation-cone fanins, see
    /// [`crate::detect::FaultDeps`]) misses the dirty nodes, and recompute
    /// the rest — in parallel chunks when the executor and the batch
    /// warrant it.
    fn ensure_estimates(&mut self) -> Result<(), CoreError> {
        if self.have_estimates && self.dirty.is_clean(Consumer::Faults) {
            return Ok(());
        }
        self.ensure_obs()?;
        let analyzer = self.analyzer.clone();
        let circuit = analyzer.circuit();
        let faults = analyzer.faults();
        let exec = analyzer.exec();
        if !self.have_estimates || self.dirty.overflowed(Consumer::Faults) {
            detect::estimate_all_faults_cancellable(
                circuit,
                faults,
                &self.node_probs,
                &self.obs,
                exec,
                &mut self.estimates,
                &mut self.detections,
                &self.cancel,
            )?;
            self.stats.fault_evals += faults.len() as u64;
            self.dirty.commit(Consumer::Faults);
            self.have_estimates = true;
            return Ok(());
        }
        let deps = analyzer.fault_deps();
        self.dirty_nodes.clear();
        let circ_of_aig = analyzer.circ_of_aig();
        for &a in self.dirty.pending(Consumer::Faults) {
            self.dirty_nodes
                .extend_from_slice(circ_of_aig.of(a as usize));
        }
        self.dirty.commit(Consumer::Faults);
        self.dirty_nodes.sort_unstable();
        self.dirty_nodes.dedup();
        let dirty_nodes = &self.dirty_nodes;
        self.fault_scratch.todo.clear();
        for fi in 0..faults.len() {
            if deps.hits(fi, dirty_nodes) {
                self.fault_scratch.todo.push(fi as u32);
            }
        }
        self.stats.fault_reuses += (faults.len() - self.fault_scratch.todo.len()) as u64;
        self.stats.fault_evals += self.fault_scratch.todo.len() as u64;
        if let Err(e) = detect::re_estimate_faults_cancellable(
            circuit,
            faults,
            &self.node_probs,
            &self.obs,
            exec,
            &mut self.fault_scratch,
            &mut self.estimates,
            &mut self.detections,
            &self.cancel,
        ) {
            // The dirty window is consumed but only part of the touched
            // faults were re-estimated: discard the session.
            self.poisoned = true;
            return Err(e);
        }
        Ok(())
    }
}
