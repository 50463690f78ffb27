//! The greedy commit loop and the public advisor API (see the [module
//! docs](super) for the loop's contract).

use std::collections::HashSet;

use protest_netlist::{insert_test_point, Circuit, NodeId, TestPointSpec};

use crate::analyzer::Analyzer;
use crate::cancel::CancelToken;
use crate::error::CoreError;
use crate::params::{AnalyzerParams, InputProbs};
use crate::testlen::{required_test_length_fraction, TestLength};

use super::candidates::{enumerate_candidates, prefilter};
use super::score::{detectable_into, score_candidate, BaseState, ScoreScratch, Scored};

/// Minimum candidate count worth fanning out to worker threads (each
/// evaluation is a reverse sweep — far heavier than a per-fault estimate,
/// so the threshold is low).
const MIN_PAR_CANDIDATES: usize = 4;

/// Tuning of the test-point insertion advisor.
#[derive(Debug, Clone)]
pub struct TpiParams {
    /// Analysis parameters (observability model, threads, …) used for
    /// scoring and for every ground-truth re-analysis.
    pub analyzer: AnalyzerParams,
    /// Maximum number of test points to commit.
    pub budget: usize,
    /// Fraction `d` of the test-length objective `N(d, e)` (the easiest
    /// `d·100 %` of the detectable faults must be covered).
    pub frac_d: f64,
    /// Confidence `e` of the test-length objective.
    pub conf_e: f64,
    /// Stimulation probability `q` of control-point pseudo-inputs.
    pub control_prob: f64,
    /// How many candidates survive the cheap prefilter into full
    /// analytic scoring, per committed point.
    pub max_candidates: usize,
    /// How many top-ranked candidates may fail ground-truth verification
    /// before the loop stops for good.
    pub max_tries_per_step: usize,
    /// Base input stimulation probabilities (`None` = uniform 1/2).
    pub base_probs: Option<InputProbs>,
}

impl Default for TpiParams {
    fn default() -> Self {
        TpiParams {
            analyzer: AnalyzerParams::default(),
            budget: 3,
            frac_d: 1.0,
            conf_e: 0.98,
            control_prob: 0.5,
            max_candidates: 128,
            max_tries_per_step: 8,
            base_probs: None,
        }
    }
}

/// One ranked candidate, as reported to callers (`--dry-run` table rows).
#[derive(Debug, Clone)]
pub struct CandidateReport {
    /// The candidate.
    pub spec: TestPointSpec,
    /// Display label of the target net.
    pub label: String,
    /// Predicted test length after insertion.
    pub predicted: Option<TestLength>,
}

/// One committed insertion step.
#[derive(Debug, Clone)]
pub struct TpiStep {
    /// What was inserted and where.
    pub spec: TestPointSpec,
    /// Display label of the target net at insertion time.
    pub label: String,
    /// The inserted gate's signal name in the modified netlist.
    pub gate_name: String,
    /// Pseudo-input name and stimulation weight (control points).
    pub control_input_name: Option<String>,
    /// Test length the analytic score predicted for this insertion.
    pub predicted_patterns: Option<u64>,
    /// Ground truth: the full re-analysis of the modified circuit.
    pub realized_patterns: Option<u64>,
    /// Candidates fully scored in this round.
    pub candidates_scored: usize,
    /// Higher-ranked candidates rejected by ground-truth verification.
    pub rejected_commits: usize,
}

/// The advisor's outcome: the committed trajectory and the final modified
/// circuit.
#[derive(Debug, Clone)]
pub struct TpiResult {
    /// Ground-truth test length of the unmodified circuit.
    pub base_patterns: Option<u64>,
    /// Committed steps, in commit order (the realized lengths decrease
    /// monotonically by construction).
    pub steps: Vec<TpiStep>,
    /// The final modified circuit (original when no step committed).
    pub circuit: Circuit,
    /// Input stimulation weights for the final circuit, pseudo-inputs
    /// included, aligned with its input list.
    pub weights: Vec<f64>,
    /// Whether the loop stopped before exhausting the budget because no
    /// candidate improved the ground truth.
    pub stopped_early: bool,
}

/// Ground-truth objective: the full analysis of `circuit` under `weights`,
/// measured as `N(d, e)` over the estimated-detectable faults.
fn analyzed_length(
    circuit: &Circuit,
    weights: &[f64],
    params: &TpiParams,
    cancel: &CancelToken,
) -> Result<Option<TestLength>, CoreError> {
    let analyzer = Analyzer::with_params(circuit, params.analyzer);
    let probs = InputProbs::from_slice(weights)?;
    let mut session = analyzer.session_with_cancel(&probs, cancel.clone())?;
    let mut detectable = Vec::new();
    detectable_into(session.try_fault_detect_probs()?, &mut detectable);
    Ok(required_test_length_fraction(
        &detectable,
        params.frac_d,
        params.conf_e,
    ))
}

/// Builds the scoring snapshot and ranks candidates on one circuit state.
fn rank_on(
    circuit: &Circuit,
    weights: &[f64],
    exclude: &HashSet<NodeId>,
    params: &TpiParams,
    cancel: &CancelToken,
) -> Result<(BaseState, Vec<Scored>), CoreError> {
    let _t = protest_telemetry::span(protest_telemetry::Site::TpiScore);
    let analyzer = Analyzer::with_params(circuit, params.analyzer);
    let probs = InputProbs::from_slice(weights)?;
    let mut session = analyzer.session_with_cancel(&probs, cancel.clone())?;
    let detections = session.try_fault_detect_probs()?.to_vec();
    let mut detectable = Vec::new();
    detectable_into(&detections, &mut detectable);
    let length = required_test_length_fraction(&detectable, params.frac_d, params.conf_e);
    let base = BaseState {
        node_probs: session.try_signal_probs()?.to_vec(),
        obs: session.try_observabilities()?.clone(),
        faults: analyzer.faults().to_vec(),
        detections,
        length,
        n_ref: length.map_or(1 << 20, |t| t.patterns).clamp(1, 1 << 20),
        frac_d: params.frac_d,
        conf_e: params.conf_e,
        control_prob: params.control_prob,
    };
    let specs = prefilter(
        enumerate_candidates(circuit, exclude),
        &base.node_probs,
        &base.obs,
        params.max_candidates,
    );
    let engine = analyzer.obs_engine();
    let exec = analyzer.exec();
    // Placeholder rows, then chunks filled in candidate order — the
    // ranking is deterministic at any thread count. Each chunk builds its
    // scoring scratch on its first candidate.
    let mut scored: Vec<Scored> = specs
        .iter()
        .map(|&spec| Scored {
            spec,
            predicted: None,
            tie: 0.0,
        })
        .collect();
    let mut scratches: Vec<Option<ScoreScratch>> = Vec::new();
    exec.fan_out(
        specs.len() >= MIN_PAR_CANDIDATES,
        &specs,
        &mut scored,
        &mut scratches,
        cancel,
        1,
        |scratch, &spec| {
            let scratch = scratch.get_or_insert_with(|| ScoreScratch::new(&base));
            score_candidate(circuit, engine, &base, spec, scratch)
        },
    )?;
    scored.sort_by(|a, b| {
        let pa = a.predicted.map_or(u64::MAX, |t| t.patterns);
        let pb = b.predicted.map_or(u64::MAX, |t| t.patterns);
        pa.cmp(&pb)
            .then_with(|| a.tie.total_cmp(&b.tie))
            .then_with(|| a.spec.node.cmp(&b.spec.node))
            .then_with(|| a.spec.kind.cmp(&b.spec.kind))
    });
    Ok((base, scored))
}

/// Scores and ranks every candidate on the *unmodified* circuit — the
/// `--dry-run` entry point. Returns the base test length and the ranking.
///
/// # Errors
///
/// Returns [`CoreError::ProbRange`] / [`CoreError::ProbsLength`] for
/// invalid `base_probs` or `control_prob`.
pub fn rank(
    circuit: &Circuit,
    params: &TpiParams,
) -> Result<(Option<TestLength>, Vec<CandidateReport>), CoreError> {
    rank_with_cancel(circuit, params, &CancelToken::never())
}

/// Cancellable form of [`rank`]: the base analysis and every candidate
/// scoring sweep poll `cancel`.
///
/// # Errors
///
/// As [`rank`], plus [`CoreError::Cancelled`] when the token fires.
pub fn rank_with_cancel(
    circuit: &Circuit,
    params: &TpiParams,
    cancel: &CancelToken,
) -> Result<(Option<TestLength>, Vec<CandidateReport>), CoreError> {
    check_params(circuit, params)?;
    let weights = base_weights(circuit, params)?;
    let (base, scored) = rank_on(circuit, &weights, &HashSet::new(), params, cancel)?;
    let reports = scored
        .into_iter()
        .map(|s| CandidateReport {
            spec: s.spec,
            label: circuit.node_label(s.spec.node),
            predicted: s.predicted,
        })
        .collect();
    Ok((base.length, reports))
}

fn check_params(circuit: &Circuit, params: &TpiParams) -> Result<(), CoreError> {
    let q = params.control_prob;
    if !q.is_finite() || !(0.0..=1.0).contains(&q) {
        return Err(CoreError::ProbRange { value: q });
    }
    if let Some(p) = &params.base_probs {
        p.check_len(circuit.num_inputs())?;
    }
    Ok(())
}

fn base_weights(circuit: &Circuit, params: &TpiParams) -> Result<Vec<f64>, CoreError> {
    Ok(match &params.base_probs {
        Some(p) => p.as_slice().to_vec(),
        None => vec![0.5; circuit.num_inputs()],
    })
}

/// Runs the advisor: analyze → score → insert → re-analyze, committing up
/// to [`TpiParams::budget`] points whose ground-truth test length strictly
/// improves (see the [module docs](super)).
///
/// # Errors
///
/// Returns [`CoreError::ProbRange`] / [`CoreError::ProbsLength`] for
/// invalid `base_probs` or `control_prob`.
pub fn advise(circuit: &Circuit, params: &TpiParams) -> Result<TpiResult, CoreError> {
    advise_with_cancel(circuit, params, &CancelToken::never())
}

/// Cancellable form of [`advise`]: every analysis session the loop opens
/// (ranking rounds and ground-truth verification runs) is armed with
/// `cancel`, and the commit loop polls it between rounds and candidate
/// trials.
///
/// # Errors
///
/// As [`advise`], plus [`CoreError::Cancelled`] when the token fires; no
/// partial trajectory is returned.
pub fn advise_with_cancel(
    circuit: &Circuit,
    params: &TpiParams,
    cancel: &CancelToken,
) -> Result<TpiResult, CoreError> {
    check_params(circuit, params)?;
    let mut current = circuit.clone();
    let mut weights = base_weights(circuit, params)?;
    let mut exclude: HashSet<NodeId> = HashSet::new();
    // The ground truth of the current circuit comes out of the same full
    // analysis each ranking round starts with — no separate pass needed
    // (`rank_on` computes `BaseState::length` anyway). A zero budget still
    // reports the base length.
    let mut base_patterns = None;
    if params.budget == 0 {
        base_patterns = analyzed_length(&current, &weights, params, cancel)?.map(|t| t.patterns);
    }
    let mut steps = Vec::new();
    let mut stopped_early = false;
    for round in 0..params.budget {
        cancel.check()?;
        let (base, ranked) = rank_on(&current, &weights, &exclude, params, cancel)?;
        // Bit-identical to the previous round's verification analysis —
        // same session-driven pass on the same circuit and weights.
        let last = base.length.map(|t| t.patterns);
        if round == 0 {
            base_patterns = last;
        }
        let _commit_span = protest_telemetry::span(protest_telemetry::Site::TpiCommit);
        let mut committed = false;
        let mut rejected = 0usize;
        for cand in ranked.iter().take(params.max_tries_per_step) {
            cancel.check()?;
            let label = current.node_label(cand.spec.node);
            let (modified, point) = insert_test_point(&current, cand.spec)
                .expect("candidates target existing non-constant nodes");
            let mut new_weights = weights.clone();
            if point.control_input.is_some() {
                new_weights.push(params.control_prob);
            }
            let realized =
                analyzed_length(&modified, &new_weights, params, cancel)?.map(|t| t.patterns);
            let improves = match (realized, last) {
                (Some(r), Some(l)) => r < l,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if !improves {
                rejected += 1;
                continue;
            }
            exclude.insert(cand.spec.node);
            exclude.insert(point.gate);
            if let Some(ctrl) = point.control_input {
                exclude.insert(ctrl);
            }
            steps.push(TpiStep {
                spec: cand.spec,
                label,
                gate_name: point.gate_name.clone(),
                control_input_name: point.control_input_name.clone(),
                predicted_patterns: cand.predicted.map(|t| t.patterns),
                realized_patterns: realized,
                candidates_scored: ranked.len(),
                rejected_commits: rejected,
            });
            current = modified;
            weights = new_weights;
            committed = true;
            break;
        }
        if !committed {
            stopped_early = true;
            break;
        }
    }
    Ok(TpiResult {
        base_patterns,
        steps,
        circuit: current,
        weights,
        stopped_early,
    })
}

#[cfg(test)]
mod tests {
    use protest_circuits::c17;
    use protest_netlist::CircuitBuilder;

    use super::*;

    #[test]
    fn advisor_improves_a_deep_and_tree() {
        // An 8-deep AND tree: the root's sa0 needs all-ones (p = 2^-8) and
        // internal stems are poorly observed — prime test-point terrain.
        let mut b = CircuitBuilder::new("deep");
        let xs = b.input_bus("x", 8);
        let t = b.and_tree(&xs);
        b.output(t, "z");
        let ckt = b.finish().unwrap();
        let params = TpiParams {
            budget: 2,
            max_candidates: 32,
            ..TpiParams::default()
        };
        let result = advise(&ckt, &params).unwrap();
        assert!(!result.steps.is_empty(), "at least one point must commit");
        let mut last = result.base_patterns.unwrap();
        for step in &result.steps {
            let realized = step.realized_patterns.unwrap();
            assert!(realized < last, "trajectory must strictly decrease");
            last = realized;
        }
        // The final circuit actually grew.
        assert!(
            result.circuit.num_nodes() > ckt.num_nodes(),
            "netlist was rewritten"
        );
        assert_eq!(
            result.weights.len(),
            result.circuit.num_inputs(),
            "weights align with the modified input list"
        );
    }

    #[test]
    fn dry_run_ranking_reports_all_scored_candidates() {
        let ckt = c17();
        let params = TpiParams {
            max_candidates: 16,
            ..TpiParams::default()
        };
        let (base, ranked) = rank(&ckt, &params).unwrap();
        assert!(base.is_some());
        assert!(!ranked.is_empty() && ranked.len() <= 16);
        // Ranking is by predicted length, best first.
        let lens: Vec<u64> = ranked
            .iter()
            .map(|r| r.predicted.map_or(u64::MAX, |t| t.patterns))
            .collect();
        assert!(lens.windows(2).all(|w| w[0] <= w[1]), "{lens:?}");
    }

    #[test]
    fn rejects_bad_parameters() {
        let ckt = c17();
        let bad_q = TpiParams {
            control_prob: 1.5,
            ..TpiParams::default()
        };
        assert!(matches!(
            advise(&ckt, &bad_q),
            Err(CoreError::ProbRange { .. })
        ));
        let bad_probs = TpiParams {
            base_probs: Some(InputProbs::uniform(3)),
            ..TpiParams::default()
        };
        assert!(matches!(
            rank(&ckt, &bad_probs),
            Err(CoreError::ProbsLength { .. })
        ));
    }
}
