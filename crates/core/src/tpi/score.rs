//! Analytic what-if scoring of test-point candidates (see the [module
//! docs](super) for the formulas).
//!
//! All scoring works on a [`BaseState`] snapshot of the current circuit's
//! analysis — signal probabilities, observabilities, the fault list and
//! its detection profile — and a per-worker [`ScoreScratch`]. A candidate
//! evaluation never touches shared state, so candidates score in parallel
//! chunks with bit-identical results at every thread count.

use protest_netlist::{Circuit, NodeId, TestPointKind, TestPointSpec};
use protest_sim::{Fault, FaultSite, StuckAt};

use crate::observe::{
    multilinear, NodeEvalScratch, Observability, ObservabilityEngine, StemAdjust,
};
use crate::testlen::{ln_expected_undetected, required_test_length_fraction, TestLength};

/// Documented bound the integration tests hold the *top-ranked*
/// candidate's prediction to: predicted and re-analyzed test lengths agree
/// within this multiplicative factor on the paper's circuits. Observe
/// predictions are exact up to the inserted gate's own (easy) faults;
/// control predictions carry the product-rule (COP) forward-propagation
/// bias on reconvergent circuits.
pub const TPI_PREDICTION_TOLERANCE: f64 = 2.0;

/// One scored candidate, ready for ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Scored {
    pub(crate) spec: TestPointSpec,
    /// Predicted required test length after insertion (`None`:
    /// unreachable within the search cap).
    pub(crate) predicted: Option<TestLength>,
    /// Tie-breaker: `ln Σ (1−p_f)^N_ref` over the predicted profile —
    /// lower is better; discriminates candidates whose integral `N` ties.
    pub(crate) tie: f64,
}

/// Snapshot of the current circuit's analysis that scoring reads.
#[derive(Debug, Clone)]
pub(crate) struct BaseState {
    pub(crate) node_probs: Vec<f64>,
    pub(crate) obs: Observability,
    pub(crate) faults: Vec<Fault>,
    pub(crate) detections: Vec<f64>,
    /// The base required test length (over detectable faults).
    pub(crate) length: Option<TestLength>,
    /// Reference pattern count for the tie-breaker.
    pub(crate) n_ref: u64,
    /// Fraction `d` and confidence `e` of the test-length objective.
    pub(crate) frac_d: f64,
    pub(crate) conf_e: f64,
    /// Pseudo-input stimulation probability `q` for control candidates.
    pub(crate) control_prob: f64,
}

/// Per-worker scoring buffers, reused across candidates.
#[derive(Debug)]
pub(crate) struct ScoreScratch {
    probs: Vec<f64>,
    obs: Observability,
    detections: Vec<f64>,
    detectable: Vec<f64>,
    eval: NodeEvalScratch,
    pins_tmp: Vec<f64>,
    fanin_probs: Vec<f64>,
    /// Cone membership bitset (by node index).
    in_cone: Vec<bool>,
    cone: Vec<NodeId>,
}

impl ScoreScratch {
    pub(crate) fn new(base: &BaseState) -> Self {
        ScoreScratch {
            probs: base.node_probs.clone(),
            obs: base.obs.clone(),
            detections: base.detections.clone(),
            detectable: Vec::with_capacity(base.detections.len()),
            eval: NodeEvalScratch::default(),
            pins_tmp: Vec::new(),
            fanin_probs: Vec::new(),
            in_cone: vec![false; base.node_probs.len()],
            cone: Vec::new(),
        }
    }
}

/// Detection probabilities with estimated-undetectable faults dropped —
/// the same filtering the advisor's ground-truth re-analysis applies, so
/// predicted and realized lengths measure the same objective.
pub(crate) fn detectable_into(src: &[f64], dst: &mut Vec<f64>) {
    dst.clear();
    dst.extend(src.iter().copied().filter(|&p| p > 0.0));
}

/// Scores one candidate against the base state. See the [module
/// docs](super) for the model; the result depends only on `(base, spec)`,
/// never on scratch history.
pub(crate) fn score_candidate(
    circuit: &Circuit,
    engine: &ObservabilityEngine,
    base: &BaseState,
    spec: TestPointSpec,
    scratch: &mut ScoreScratch,
) -> Scored {
    match spec.kind {
        TestPointKind::Observe => score_observe(circuit, engine, base, spec, scratch),
        TestPointKind::ControlZero | TestPointKind::ControlOne => {
            score_control(circuit, engine, base, spec, scratch)
        }
    }
}

fn finish(base: &BaseState, spec: TestPointSpec, scratch: &mut ScoreScratch) -> Scored {
    detectable_into(&scratch.detections, &mut scratch.detectable);
    let predicted = required_test_length_fraction(&scratch.detectable, base.frac_d, base.conf_e);
    let tie = ln_expected_undetected(&scratch.detectable, base.n_ref);
    Scored {
        spec,
        predicted,
        tie,
    }
}

/// Observe point: re-sweep only the fanin cone of the stem with an extra
/// `s = 1` observation branch at it; patch detections for faults whose
/// site lies in the cone.
fn score_observe(
    circuit: &Circuit,
    engine: &ObservabilityEngine,
    base: &BaseState,
    spec: TestPointSpec,
    scratch: &mut ScoreScratch,
) -> Scored {
    let n = spec.node;
    collect_fanin_cone(circuit, n, scratch);
    scratch.obs.clone_from(&base.obs);
    for &id in engine.levels().order().iter().rev() {
        if !scratch.in_cone[id.index()] {
            continue;
        }
        let adjust = (id == n).then_some(StemAdjust::ExtraBranch(1.0));
        scratch.pins_tmp.clear();
        let s = engine.eval_node_adjusted(
            id,
            &base.node_probs,
            scratch.obs.pin_rows(),
            &mut scratch.eval,
            &mut scratch.pins_tmp,
            adjust,
        );
        scratch.obs.store(id, s, &scratch.pins_tmp);
    }
    scratch.detections.clone_from(&base.detections);
    for (fi, &fault) in base.faults.iter().enumerate() {
        let read = match fault.site {
            FaultSite::Output(x) => x,
            FaultSite::InputPin { gate, .. } => gate,
        };
        if scratch.in_cone[read.index()] {
            scratch.detections[fi] =
                detection(circuit, fault, &base.node_probs, &scratch.obs, None);
        }
    }
    clear_cone(scratch);
    finish(base, spec, scratch)
}

/// Control point: shift `p(n)`, propagate forward through the fanout cone
/// with the product-rule gate extensions, full reverse sweep with the
/// pass-through factor at the stem, recompute every fault.
fn score_control(
    circuit: &Circuit,
    engine: &ObservabilityEngine,
    base: &BaseState,
    spec: TestPointSpec,
    scratch: &mut ScoreScratch,
) -> Scored {
    let n = spec.node;
    let q = base.control_prob;
    let p = base.node_probs[n.index()];
    let (shifted, pass_through) = match spec.kind {
        TestPointKind::ControlZero => (p * q, q),
        _ => (1.0 - (1.0 - p) * (1.0 - q), 1.0 - q),
    };
    collect_fanout_cone(circuit, engine, n, scratch);
    scratch.probs.clone_from(&base.node_probs);
    scratch.probs[n.index()] = shifted;
    for &id in engine.levels().order() {
        if !scratch.in_cone[id.index()] || id == n {
            continue;
        }
        let node = circuit.node(id);
        scratch.fanin_probs.clear();
        scratch
            .fanin_probs
            .extend(node.fanins().iter().map(|&f| scratch.probs[f.index()]));
        scratch.probs[id.index()] = multilinear(circuit, node.kind(), &scratch.fanin_probs);
    }
    for &id in engine.levels().order().iter().rev() {
        let adjust = (id == n).then_some(StemAdjust::Scale(pass_through));
        scratch.pins_tmp.clear();
        let s = engine.eval_node_adjusted(
            id,
            &scratch.probs,
            scratch.obs.pin_rows(),
            &mut scratch.eval,
            &mut scratch.pins_tmp,
            adjust,
        );
        scratch.obs.store(id, s, &scratch.pins_tmp);
    }
    // The net's old driver still carries the unshifted probability: stem
    // faults at `n` activate with `p`, everything else reads the what-if
    // probabilities (consumer pins are branches of the gate-output net).
    let stem_override = Some((n, p));
    scratch.detections.clear();
    for &fault in &base.faults {
        scratch.detections.push(detection(
            circuit,
            fault,
            &scratch.probs,
            &scratch.obs,
            stem_override,
        ));
    }
    clear_cone(scratch);
    finish(base, spec, scratch)
}

/// Detection estimate `activation × observability` — the one shared
/// formula ([`crate::detect::detection_probability`]) — with an optional
/// `(node, activation_prob)` override for stem faults at a control point
/// (the net's old driver keeps the unshifted probability).
fn detection(
    circuit: &Circuit,
    fault: Fault,
    node_probs: &[f64],
    obs: &Observability,
    stem_override: Option<(NodeId, f64)>,
) -> f64 {
    if let Some((n, old)) = stem_override {
        if fault.site == FaultSite::Output(n) {
            let activation = match fault.polarity {
                StuckAt::Zero => old,
                StuckAt::One => 1.0 - old,
            };
            return (activation * obs.node(n)).clamp(0.0, 1.0);
        }
    }
    crate::detect::detection_probability(circuit, fault, node_probs, obs)
}

/// Fills `scratch.in_cone`/`cone` with the fanin cone of `root`
/// (inclusive).
fn collect_fanin_cone(circuit: &Circuit, root: NodeId, scratch: &mut ScoreScratch) {
    debug_assert!(scratch.cone.is_empty());
    scratch.in_cone[root.index()] = true;
    scratch.cone.push(root);
    let mut head = 0;
    while head < scratch.cone.len() {
        let id = scratch.cone[head];
        head += 1;
        for &f in circuit.node(id).fanins() {
            if !scratch.in_cone[f.index()] {
                scratch.in_cone[f.index()] = true;
                scratch.cone.push(f);
            }
        }
    }
}

/// Fills `scratch.in_cone`/`cone` with the fanout cone of `root`
/// (inclusive).
fn collect_fanout_cone(
    circuit: &Circuit,
    engine: &ObservabilityEngine,
    root: NodeId,
    scratch: &mut ScoreScratch,
) {
    debug_assert!(scratch.cone.is_empty());
    let _ = circuit;
    scratch.in_cone[root.index()] = true;
    scratch.cone.push(root);
    let mut head = 0;
    while head < scratch.cone.len() {
        let id = scratch.cone[head];
        head += 1;
        for &(g, _) in engine.fanouts().of(id) {
            if !scratch.in_cone[g.index()] {
                scratch.in_cone[g.index()] = true;
                scratch.cone.push(g);
            }
        }
    }
}

fn clear_cone(scratch: &mut ScoreScratch) {
    for id in scratch.cone.drain(..) {
        scratch.in_cone[id.index()] = false;
    }
}

#[cfg(test)]
mod tests {
    use protest_netlist::{insert_test_point, CircuitBuilder};

    use crate::{Analyzer, InputProbs};

    use super::*;

    /// Builds the base state the advisor would compute for a circuit.
    fn base_for(circuit: &Circuit, analyzer: &Analyzer) -> BaseState {
        let probs = InputProbs::uniform(circuit.num_inputs());
        let mut session = analyzer.session(&probs).unwrap();
        let detections = session.fault_detect_probs().to_vec();
        let mut detectable = Vec::new();
        detectable_into(&detections, &mut detectable);
        let length = required_test_length_fraction(&detectable, 1.0, 0.98);
        BaseState {
            node_probs: session.signal_probs().to_vec(),
            obs: session.observabilities().clone(),
            faults: analyzer.faults().to_vec(),
            detections,
            length,
            n_ref: length.map_or(1 << 20, |t| t.patterns).clamp(1, 1 << 20),
            frac_d: 1.0,
            conf_e: 0.98,
            control_prob: 0.5,
        }
    }

    /// The observe score must match a real insertion + full re-analysis on
    /// the shared (old) faults exactly: same probabilities, same
    /// observability recursion, same detection formula.
    #[test]
    fn observe_score_matches_real_reanalysis() {
        let mut b = CircuitBuilder::new("deep");
        let xs = b.input_bus("x", 6);
        let t = b.and_tree(&xs);
        let u = b.or2(t, xs[0]);
        let z = b.xor2(u, xs[5]);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let analyzer = Analyzer::new(&ckt);
        let base = base_for(&ckt, &analyzer);
        let spec = TestPointSpec {
            node: t,
            kind: TestPointKind::Observe,
        };
        let mut scratch = ScoreScratch::new(&base);
        let scored = score_candidate(&ckt, analyzer.obs_engine(), &base, spec, &mut scratch);
        // `finish` leaves the candidate's full detection vector in the
        // scratch — compare it per fault against a real insertion + full
        // re-analysis (node ids are preserved by insertion).
        let what_if = scratch.detections.clone();

        let (modified, _) = insert_test_point(&ckt, spec).unwrap();
        let manalyzer = Analyzer::new(&modified);
        let analysis = manalyzer
            .run(&InputProbs::uniform(modified.num_inputs()))
            .unwrap();
        for (fi, &fault) in base.faults.iter().enumerate() {
            let want = detection(
                &modified,
                fault,
                analysis.signal_probabilities(),
                analysis.observabilities(),
                None,
            );
            assert!(
                (what_if[fi] - want).abs() < 1e-12,
                "{fault:?}: scored {} vs re-analyzed {want}",
                what_if[fi]
            );
        }
        assert!(scored.predicted.is_some());
    }

    /// Scoring is a pure function of (base, spec): running a control
    /// candidate between two observe evaluations must not change them.
    #[test]
    fn scratch_reuse_is_history_free() {
        let mut b = CircuitBuilder::new("h");
        let xs = b.input_bus("x", 4);
        let t = b.and_tree(&xs);
        let u = b.or2(t, xs[1]);
        b.output(u, "z");
        let ckt = b.finish().unwrap();
        let analyzer = Analyzer::new(&ckt);
        let base = base_for(&ckt, &analyzer);
        let obs_spec = TestPointSpec {
            node: t,
            kind: TestPointKind::Observe,
        };
        let ctrl_spec = TestPointSpec {
            node: t,
            kind: TestPointKind::ControlOne,
        };
        let mut scratch = ScoreScratch::new(&base);
        let engine = analyzer.obs_engine();
        let first = score_candidate(&ckt, engine, &base, obs_spec, &mut scratch);
        let _ = score_candidate(&ckt, engine, &base, ctrl_spec, &mut scratch);
        let again = score_candidate(&ckt, engine, &base, obs_spec, &mut scratch);
        assert_eq!(first, again);
    }
}
