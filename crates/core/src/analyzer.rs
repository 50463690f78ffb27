//! The analysis facade: one-stop PROTEST runs.

use protest_netlist::{Circuit, NodeId};
use protest_sim::{collapse_universe, dominance_collapse, Fault, FaultUniverse};

use std::sync::{Arc, OnceLock};

use crate::aig::Aig;
use crate::cancel::CancelToken;
use crate::error::CoreError;
use crate::exec::Exec;
use crate::observe::{Observability, ObservabilityEngine};
use crate::params::{AnalyzerParams, FaultCollapse, InputProbs};
use crate::session::AnalysisSession;
use crate::sigprob::SignalProbEstimator;
use crate::testlen::{self, TestLength};

/// Detection estimate for one fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEstimate {
    /// The fault.
    pub fault: Fault,
    /// Probability the fault site carries the error-exciting value.
    pub activation: f64,
    /// Probability the site is observed at an output (signal-flow model).
    pub observability: f64,
    /// Estimated detection probability (`P_PROT` in the paper).
    pub detection: f64,
}

/// The PROTEST analyzer: builds all probability-independent structure once
/// (AIG, joining points, fault universe), then evaluates any input
/// probability vector cheaply — which is exactly what the optimizer needs.
///
/// An `Analyzer` owns its circuit and is a cheap [`Clone`] handle: clones
/// share one circuit and one set of lazily built structures (estimator,
/// observability engine, partitioning), so sessions, pools and
/// services hold a handle instead of a borrow.
#[derive(Debug, Clone)]
pub struct Analyzer {
    inner: Arc<Shared>,
}

/// The state every clone of one [`Analyzer`] shares.
#[derive(Debug)]
struct Shared {
    circuit: Arc<Circuit>,
    params: AnalyzerParams,
    /// Monolithic-AIG estimator, built on first use (sessions force it;
    /// partitioned one-shot runs never do).
    estimator: OnceLock<SignalProbEstimator>,
    faults: Vec<Fault>,
    /// Expanded member count per analyzed class, aligned with `faults`.
    class_sizes: Vec<u32>,
    /// Heap bytes of the collapsed classes `faults` and `class_sizes`
    /// were read from (members, offsets, representatives).
    class_bytes: usize,
    uncollapsed: usize,
    /// Fault classes dropped by the redundancy prover
    /// (`params.prune_redundant`).
    pruned_classes: usize,
    /// Expanded faults inside the pruned classes.
    pruned_faults: usize,
    exec: Exec,
    /// The reverse-sweep structure (levelization, fanouts, wavefront
    /// bounds), built on the first session and shared by all of them.
    obs_engine: OnceLock<ObservabilityEngine>,
    /// The connected-component decomposition one-shot runs use (`None`
    /// when the circuit is monolithic or partitioning is off), built on
    /// first use. See [`crate::partition`].
    partitioning: OnceLock<Option<crate::partition::Partitioning>>,
}

impl Analyzer {
    /// Creates an analyzer with default parameters over the collapsed fault
    /// universe. Takes the circuit by value, as an `Arc`, or by reference
    /// (cloned once).
    pub fn new(circuit: impl Into<Arc<Circuit>>) -> Self {
        Self::with_params(circuit, AnalyzerParams::default())
    }

    /// Creates an analyzer with explicit parameters.
    ///
    /// The fault list is built as a pipeline: equivalence collapsing,
    /// then (with `params.prune_redundant`) pruning of proven-redundant
    /// classes, then (with [`FaultCollapse::Dominance`]) dominance
    /// merging of the survivors. Pruning must precede dominance merging:
    /// a dominance class mixes faults with *different* test sets, so only
    /// equivalence classes — where one proof covers every member — may be
    /// dropped wholesale.
    pub fn with_params(circuit: impl Into<Arc<Circuit>>, params: AnalyzerParams) -> Self {
        let circuit = circuit.into();
        let collapse_span = protest_telemetry::span(protest_telemetry::Site::AnalyzerCollapse);
        let universe = FaultUniverse::all(&circuit);
        let uncollapsed = universe.len();
        let mut collapsed = collapse_universe(&circuit, &universe);
        drop(universe);
        let mut pruned_classes = 0;
        let mut pruned_faults = 0;
        if params.prune_redundant {
            let probs = vec![0.5; circuit.num_inputs()];
            let (verdicts, _) = crate::staticanalysis::redundancy::prove_classes(
                &circuit,
                &collapsed,
                &probs,
                params.redundancy_budget,
                params.num_threads,
            );
            let keep: Vec<bool> = verdicts.iter().map(|v| !v.is_redundant()).collect();
            pruned_classes = keep.iter().filter(|&&k| !k).count();
            pruned_faults = collapsed
                .classes()
                .iter()
                .zip(&keep)
                .filter(|(_, &k)| !k)
                .map(|(c, _)| c.len())
                .sum();
            if pruned_classes > 0 {
                collapsed = collapsed.filtered(&keep);
            }
        }
        if params.collapse == FaultCollapse::Dominance {
            collapsed = dominance_collapse(&circuit, &collapsed);
        }
        let class_sizes = collapsed.classes().iter().map(|c| c.len() as u32).collect();
        let class_bytes = collapsed.storage_bytes();
        let faults = collapsed.representatives().to_vec();
        drop(collapsed);
        drop(collapse_span);
        let exec = Exec::new(params.num_threads);
        let inner = Arc::new(Shared {
            circuit,
            params,
            estimator: OnceLock::new(),
            faults,
            class_sizes,
            class_bytes,
            uncollapsed,
            pruned_classes,
            pruned_faults,
            exec,
            obs_engine: OnceLock::new(),
            partitioning: OnceLock::new(),
        });
        Analyzer { inner }
    }

    /// The resolved thread count this analyzer's parallel passes run on
    /// (1 = everything serial).
    pub fn num_threads(&self) -> usize {
        self.inner.exec.threads()
    }

    /// The circuit under analysis.
    pub fn circuit(&self) -> &Circuit {
        &self.inner.circuit
    }

    /// The analysis parameters.
    pub fn params(&self) -> &AnalyzerParams {
        &self.inner.params
    }

    /// The collapsed fault list the analyzer estimates (representatives).
    pub fn faults(&self) -> &[Fault] {
        &self.inner.faults
    }

    /// Expanded member count of each analyzed class, aligned with
    /// [`faults`](Self::faults) — the weights for class-expanded test
    /// lengths.
    pub fn class_sizes(&self) -> &[u32] {
        &self.inner.class_sizes
    }

    /// Heap bytes of the collapsed fault classes (flat members, class
    /// offsets and representatives) the fault list was read from — a
    /// memory-footprint counter for `stats` reports. The analyzer keeps
    /// only the representatives and class sizes.
    pub fn fault_class_bytes(&self) -> usize {
        self.inner.class_bytes
    }

    /// Size of the uncollapsed fault universe.
    pub fn uncollapsed_fault_count(&self) -> usize {
        self.inner.uncollapsed
    }

    /// Fault classes dropped by the redundancy prover (0 unless
    /// [`AnalyzerParams::prune_redundant`] was set).
    pub fn pruned_class_count(&self) -> usize {
        self.inner.pruned_classes
    }

    /// Expanded faults inside the pruned classes.
    pub fn pruned_fault_count(&self) -> usize {
        self.inner.pruned_faults
    }

    /// Opens an incremental [`AnalysisSession`] at the given input
    /// probabilities — the API the optimizer hot loop uses: mutate one
    /// input at a time and re-propagate signal probabilities in O(dirty
    /// cone) instead of O(circuit).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProbsLength`] if `probs` does not match the
    /// circuit's input count.
    pub fn session(&self, probs: &InputProbs) -> Result<AnalysisSession, CoreError> {
        AnalysisSession::new(self, probs, CancelToken::never())
    }

    /// Like [`session`](Self::session) but armed with a
    /// [`CancelToken`]: the construction pass and every subsequent
    /// mutation and `try_*` query poll the token and fail fast with
    /// [`CoreError::Cancelled`] once it fires.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProbsLength`] on a mismatched input count and
    /// [`CoreError::Cancelled`] when the token fires during the initial
    /// full estimation pass.
    pub fn session_with_cancel(
        &self,
        probs: &InputProbs,
        cancel: CancelToken,
    ) -> Result<AnalysisSession, CoreError> {
        AnalysisSession::new(self, probs, cancel)
    }

    /// Runs the full analysis for one input probability vector.
    ///
    /// This is a thin one-shot wrapper: it opens an [`AnalysisSession`]
    /// (see [`session`](Self::session)) and immediately finishes it into an
    /// owned [`CircuitAnalysis`]. Callers that evaluate many probability
    /// vectors should keep the session instead.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProbsLength`] if `probs` does not match the
    /// circuit's input count.
    pub fn run(&self, probs: &InputProbs) -> Result<CircuitAnalysis, CoreError> {
        self.run_with_cancel(probs, CancelToken::never())
    }

    /// Cancellable form of [`run`](Self::run): the whole one-shot pass —
    /// estimation, observability, fault estimates — polls `cancel` and
    /// errors with [`CoreError::Cancelled`] once it fires.
    pub fn run_with_cancel(
        &self,
        probs: &InputProbs,
        cancel: CancelToken,
    ) -> Result<CircuitAnalysis, CoreError> {
        if let Some(plan) = self.partitioning() {
            return crate::partition::run_partitioned(self, plan, probs, &cancel).map(|(a, _)| a);
        }
        self.session_with_cancel(probs, cancel)?.try_into_analysis()
    }

    /// The estimator work of a partitioned one-shot [`run`](Self::run) at
    /// `probs`: batches, lanes and enumeration passes of its lane-batched
    /// sweeps (see [`crate::partition`]). Runs the analysis to count
    /// them; `None` on the monolithic path.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProbsLength`] if `probs` does not match the
    /// circuit's input count.
    pub fn lane_sweep(
        &self,
        probs: &InputProbs,
    ) -> Result<Option<crate::sigprob::LaneSweep>, CoreError> {
        self.partitioning()
            .map(|plan| {
                crate::partition::run_partitioned(self, plan, probs, &CancelToken::never())
                    .map(|(_, sweep)| sweep)
            })
            .transpose()
    }

    /// Number of independent partitions one-shot runs decompose the
    /// circuit into (1 = the monolithic path; see [`crate::partition`]).
    pub fn partition_count(&self) -> usize {
        self.partitioning().map_or(1, |p| p.len())
    }

    /// Flat-storage bytes held by the partition sub-circuits (0 on the
    /// monolithic path) — a memory-footprint counter for `stats` reports.
    pub fn partition_storage_bytes(&self) -> usize {
        self.partitioning().map_or(0, |p| p.storage_bytes())
    }

    /// Number of distinct sub-circuit structures among the partitions
    /// (1 on the monolithic path). Replicated-lane netlists collapse to a
    /// few classes; the partitioned pass builds its probability-independent
    /// machinery once per class.
    pub fn partition_class_count(&self) -> usize {
        self.partitioning().map_or(1, |p| p.num_classes())
    }

    /// The cached partitioning, built on first use (crate-internal).
    pub(crate) fn partitioning(&self) -> Option<&crate::partition::Partitioning> {
        self.inner
            .partitioning
            .get_or_init(|| crate::partition::plan(self.circuit(), self.params()))
            .as_ref()
    }

    /// The shared signal-probability estimator (crate-internal: sessions
    /// drive its per-node kernel directly). Built lazily on first use: the
    /// partitioned one-shot path analyzes per-component estimators instead
    /// and never pays for the monolithic one.
    pub(crate) fn estimator(&self) -> &SignalProbEstimator {
        self.inner.estimator.get_or_init(|| {
            SignalProbEstimator::new(Aig::from_circuit(self.circuit()), self.params())
        })
    }

    /// The execution context parallel passes run on (crate-internal).
    pub(crate) fn exec(&self) -> &Exec {
        &self.inner.exec
    }

    /// The shared observability engine (crate-internal), built when the
    /// first session over this analyzer opens — every session and clone
    /// reuses one levelization and fanout map.
    pub(crate) fn obs_engine(&self) -> &ObservabilityEngine {
        self.inner.obs_engine.get_or_init(|| {
            ObservabilityEngine::new(Arc::clone(&self.inner.circuit), self.params())
        })
    }

    /// Always 0: sessions keep no per-fault dependency store since fault
    /// queries recompute every fault. Kept so the `perfbench` harness,
    /// which reads it, still compiles.
    pub fn fault_deps_bytes(&self) -> usize {
        0
    }

    /// Heap bytes of the monolithic estimator's cone arena (forces its
    /// construction) — a memory-footprint counter for `stats` reports.
    pub fn estimator_storage_bytes(&self) -> usize {
        self.estimator().storage_bytes()
    }

    /// Heap bytes of the monolithic estimator's fanin-depth ranks, or
    /// `None` until a session or parallel pass has built them — a
    /// memory-footprint counter for `stats` reports.
    pub fn estimator_ranks_bytes(&self) -> Option<usize> {
        self.inner
            .estimator
            .get()
            .and_then(SignalProbEstimator::ranks_bytes)
    }

    /// Heap bytes of the monolithic estimator's read-dependency map, or
    /// `None` until a session has built it — a memory-footprint counter
    /// for `stats` reports.
    pub fn estimator_readers_bytes(&self) -> Option<usize> {
        self.inner
            .estimator
            .get()
            .and_then(SignalProbEstimator::readers_bytes)
    }

    /// The monolithic estimator's sweep-shape counters (forces its
    /// construction) — conditioned ANDs, mean joining candidates, mean
    /// cone size and distinct cone shapes, for `stats` reports.
    pub fn estimator_sweep_shape(&self) -> crate::sigprob::SweepShape {
        self.estimator().sweep_shape()
    }
}

/// The result of one [`Analyzer::run`]: per-node signal probabilities,
/// observabilities and per-fault detection estimates.
#[derive(Debug)]
pub struct CircuitAnalysis {
    node_probs: Vec<f64>,
    obs: Observability,
    estimates: Vec<FaultEstimate>,
}

impl CircuitAnalysis {
    /// Assembles an analysis from a finished session's parts.
    pub(crate) fn from_parts(
        node_probs: Vec<f64>,
        obs: Observability,
        estimates: Vec<FaultEstimate>,
    ) -> Self {
        CircuitAnalysis {
            node_probs,
            obs,
            estimates,
        }
    }

    /// Estimated `P(node = 1)`.
    pub fn signal_probability(&self, id: NodeId) -> f64 {
        self.node_probs[id.index()]
    }

    /// All node signal probabilities, indexable by node index.
    pub fn signal_probabilities(&self) -> &[f64] {
        &self.node_probs
    }

    /// Estimated observability `s(x)` of a node output.
    pub fn node_observability(&self, id: NodeId) -> f64 {
        self.obs.node(id)
    }

    /// The full observability result (stem and pin values).
    pub fn observabilities(&self) -> &Observability {
        &self.obs
    }

    /// Per-fault detection estimates, aligned with
    /// [`Analyzer::faults`].
    pub fn fault_estimates(&self) -> &[FaultEstimate] {
        &self.estimates
    }

    /// Just the detection probabilities (`P_PROT`), aligned with
    /// [`Analyzer::faults`].
    pub fn detection_probabilities(&self) -> Vec<f64> {
        self.estimates.iter().map(|e| e.detection).collect()
    }

    /// The `k` least testable faults, hardest first.
    pub fn hardest_faults(&self, k: usize) -> Vec<FaultEstimate> {
        let mut sorted = self.estimates.clone();
        sorted.sort_by(|a, b| {
            a.detection
                .partial_cmp(&b.detection)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        sorted.truncate(k);
        sorted
    }

    /// Test length to detect the top `d`-fraction of faults with
    /// probability `e` (paper Tables 2/3/5).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range `d`/`e` (see
    /// [`testlen::required_test_length_fraction`]).
    pub fn required_test_length(&self, d: f64, e: f64) -> Option<TestLength> {
        testlen::required_test_length_fraction(&self.detection_probabilities(), d, e)
    }

    /// Class-expanded test length: like
    /// [`required_test_length`](Self::required_test_length), but each
    /// analyzed class contributes its product term once per member
    /// (weights from [`Analyzer::class_sizes`]), so `N(d, e)` refers to a
    /// fraction of the *full* fault universe rather than of the
    /// representatives.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range `d`/`e` or a weight-vector length mismatch
    /// (see [`testlen::required_test_length_fraction_weighted`]).
    pub fn required_test_length_expanded(
        &self,
        class_sizes: &[u32],
        d: f64,
        e: f64,
    ) -> Option<TestLength> {
        testlen::required_test_length_fraction_weighted(
            &self.detection_probabilities(),
            class_sizes,
            d,
            e,
        )
    }
}

#[cfg(test)]
mod tests {
    use protest_circuits::c17;
    use protest_netlist::CircuitBuilder;

    use super::*;

    #[test]
    fn analyzer_runs_on_c17() {
        let ckt = c17();
        let analyzer = Analyzer::new(&ckt);
        let analysis = analyzer.run(&InputProbs::uniform(5)).unwrap();
        assert_eq!(analysis.fault_estimates().len(), analyzer.faults().len());
        assert!(analyzer.uncollapsed_fault_count() >= analyzer.faults().len());
        for est in analysis.fault_estimates() {
            assert!((0.0..=1.0).contains(&est.detection));
            assert!(est.detection <= est.activation + 1e-12);
        }
        // c17 is highly random-testable: a short test suffices.
        let tl = analysis.required_test_length(1.0, 0.98).unwrap();
        assert!(tl.patterns < 200, "N = {}", tl.patterns);
    }

    #[test]
    fn analyzer_is_the_one_owner_of_its_circuit() {
        fn shareable<T: Clone + Send + Sync + 'static>() {}
        shareable::<Analyzer>();

        let circuit = Arc::new(c17());
        let weak = Arc::downgrade(&circuit);
        let analyzer = Analyzer::new(circuit);
        let probs = InputProbs::uniform(5);
        let want = analyzer.run(&probs).unwrap().detection_probabilities();
        let mut session = analyzer.session(&probs).unwrap();
        // The caller's last handle goes; the session keeps the circuit.
        drop(analyzer);
        assert!(weak.upgrade().is_some());
        let got: Vec<u64> = session
            .fault_detect_probs()
            .iter()
            .map(|p| p.to_bits())
            .collect();
        assert_eq!(got, want.iter().map(|p| p.to_bits()).collect::<Vec<_>>());
        assert_eq!(session.circuit().num_inputs(), 5);
        drop(session);
        assert!(weak.upgrade().is_none(), "nothing else holds the circuit");
    }

    #[test]
    fn rejects_wrong_prob_length() {
        let ckt = c17();
        let analyzer = Analyzer::new(&ckt);
        assert!(matches!(
            analyzer.run(&InputProbs::uniform(4)),
            Err(CoreError::ProbsLength { .. })
        ));
    }

    #[test]
    fn lut_components_flow_through_the_whole_pipeline() {
        // A majority LUT with reconvergent, shared inputs: the AIG
        // decomposition, estimator, observability and detection paths must
        // all handle truth-table components, and on this small circuit the
        // estimates must match the exact values closely.
        use protest_netlist::TruthTable;
        let mut b = CircuitBuilder::new("lutmaj");
        let xs = b.input_bus("x", 3);
        let t = b.add_table(TruthTable::from_fn(3, |m| m.count_ones() >= 2).unwrap());
        let maj = b.lut(t, &xs);
        let z = b.and2(maj, xs[0]);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let analyzer = Analyzer::new(&ckt);
        let probs = InputProbs::from_slice(&[0.5, 0.3, 0.8]).unwrap();
        let analysis = analyzer.run(&probs).unwrap();
        let exact = crate::sigprob::exhaustive_signal_probs(&ckt, &probs).unwrap();
        // z = maj(x) ∧ x0. The LUT's Shannon decomposition creates nested
        // reconvergence that bounded conditioning captures only partially
        // (conditional re-propagation uses the plain product rule, as the
        // paper's formula does), so per-node drift of ~0.1 is expected.
        assert!(
            (analysis.signal_probability(z) - exact[z.index()]).abs() < 0.15,
            "estimate {} vs exact {}",
            analysis.signal_probability(z),
            exact[z.index()]
        );
        for est in analysis.fault_estimates() {
            let miter =
                crate::detect::exact_detection_probability(&ckt, est.fault, &probs).unwrap();
            assert!(
                (est.detection - miter).abs() < 0.3,
                "{:?}: est {} vs exact {miter}",
                est.fault,
                est.detection
            );
        }
    }

    #[test]
    fn hardest_faults_sorted() {
        let mut b = CircuitBuilder::new("h");
        let xs = b.input_bus("x", 6);
        let t = b.and_tree(&xs); // deep AND: sa0 at the root is hard
        b.output(t, "z");
        let ckt = b.finish().unwrap();
        let analyzer = Analyzer::new(&ckt);
        let analysis = analyzer.run(&InputProbs::uniform(6)).unwrap();
        let hardest = analysis.hardest_faults(3);
        assert_eq!(hardest.len(), 3);
        assert!(hardest[0].detection <= hardest[1].detection);
        assert!(hardest[1].detection <= hardest[2].detection);
        // The hardest faults of an AND tree need all inputs 1: p = 2^-6.
        assert!((hardest[0].detection - 1.0 / 64.0).abs() < 1e-9);
    }
}
