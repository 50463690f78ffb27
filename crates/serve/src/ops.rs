//! Executes [`CircuitOp`]s against a registered circuit.
//!
//! Every op runs on its request's handler thread under a compute permit
//! (see [`crate::registry`]) against a warm [`AnalysisSession`] checked
//! out from the circuit's [`SessionPool`](protest_core::SessionPool); the
//! session's [`Analyzer`] handle carries the circuit, shared by every
//! request. An op that reads the session first moves it to its own point
//! with `set_all`. A `batch` request re-uses ONE checkout for all of its
//! entries, so consecutive analyses of nearby probability vectors pay
//! only the dirty-cone cost.

use protest_core::optimize::{HillClimber, OptimizeParams};
use protest_core::staticanalysis;
use protest_core::testlen::required_test_length_fraction;
use protest_core::tpi::{self, TpiParams};
use protest_core::{
    AnalysisSession, Analyzer, AnalyzerParams, CancelToken, CheckParams, CoreError, FaultEstimate,
    InputProbs,
};
use protest_netlist::Circuit;
use protest_sim::weighted_coverage;

use crate::json::Json;
use crate::protocol::{CircuitOp, ErrorKind, ProbSpec, WireError};

/// Maps a core failure onto the wire: a cooperative cancellation becomes
/// the typed `cancelled` kind, which the registry turns into the
/// request's `timeout`, so it is never confused with bad parameters.
fn analysis_err(e: CoreError) -> WireError {
    match e {
        CoreError::Cancelled => WireError::new(
            ErrorKind::Cancelled,
            "analysis cancelled: request deadline exceeded",
        ),
        other => WireError::new(ErrorKind::Analysis, other.to_string()),
    }
}

/// Materializes a [`ProbSpec`] for a circuit with `inputs` primary inputs.
fn resolve_probs(spec: &ProbSpec, inputs: usize) -> Result<InputProbs, WireError> {
    match spec {
        ProbSpec::Constant(p) => InputProbs::constant(inputs, *p).map_err(analysis_err),
        ProbSpec::Explicit(v) => {
            if v.len() != inputs {
                return Err(WireError::new(
                    ErrorKind::Analysis,
                    format!(
                        "`probs` has {} entries, circuit has {inputs} inputs",
                        v.len()
                    ),
                ));
            }
            InputProbs::from_slice(v).map_err(analysis_err)
        }
    }
}

fn f64_arr(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}

/// `testlen` reply rows: `{"d":..,"e":..,"patterns":N|null}` per target.
fn testlen_rows(detect: &[f64], targets: &[(f64, f64)]) -> Json {
    Json::Arr(
        targets
            .iter()
            .map(|&(d, e)| {
                let n = required_test_length_fraction(detect, d, e);
                Json::obj(vec![
                    ("d", Json::Num(d)),
                    ("e", Json::Num(e)),
                    (
                        "patterns",
                        n.map_or(Json::Null, |t| Json::Num(t.patterns as f64)),
                    ),
                ])
            })
            .collect(),
    )
}

/// The `k` least-testable faults, labelled against the circuit.
fn hardest_rows(circuit: &Circuit, estimates: &[FaultEstimate], k: usize) -> Json {
    let mut sorted: Vec<&FaultEstimate> = estimates.iter().collect();
    sorted.sort_by(|a, b| {
        a.detection
            .partial_cmp(&b.detection)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Json::Arr(
        sorted
            .into_iter()
            .take(k)
            .map(|e| {
                Json::obj(vec![
                    ("fault", Json::str(&e.fault.label(circuit))),
                    ("detection", Json::Num(e.detection)),
                    ("activation", Json::Num(e.activation)),
                    ("observability", Json::Num(e.observability)),
                ])
            })
            .collect(),
    )
}

fn run_analyze(
    circuit: &Circuit,
    session: &mut AnalysisSession,
    probs: &ProbSpec,
    testlens: &[(f64, f64)],
    hardest: usize,
    want_detect: bool,
    want_signal: bool,
) -> Result<Json, WireError> {
    let probs = resolve_probs(probs, circuit.num_inputs())?;
    session.set_all(probs.as_slice()).map_err(analysis_err)?;
    // The session may carry an armed deadline token, so every query goes
    // through the fallible `try_*` forms.
    let detect = session
        .try_fault_detect_probs()
        .map_err(analysis_err)?
        .to_vec();
    let mut fields: Vec<(&str, Json)> = vec![
        ("circuit", Json::str(circuit.name())),
        ("inputs", Json::Num(circuit.num_inputs() as f64)),
        ("faults", Json::Num(detect.len() as f64)),
    ];
    if want_signal {
        fields.push((
            "signal_probs",
            f64_arr(session.try_signal_probs().map_err(analysis_err)?),
        ));
    }
    if want_detect {
        fields.push(("detect_probs", f64_arr(&detect)));
    }
    fields.push(("testlen", testlen_rows(&detect, testlens)));
    if hardest > 0 {
        fields.push((
            "hardest",
            hardest_rows(
                circuit,
                session.try_fault_estimates().map_err(analysis_err)?,
                hardest,
            ),
        ));
    }
    Ok(Json::obj(fields))
}

fn run_optimize(
    circuit: &Circuit,
    analyzer: &Analyzer,
    session: &mut AnalysisSession,
    cancel: &CancelToken,
    n_target: u64,
    seed: u64,
    testlens: &[(f64, f64)],
) -> Result<Json, WireError> {
    let params = OptimizeParams {
        n_target,
        seed,
        ..OptimizeParams::default()
    };
    let result = HillClimber::new(analyzer, params)
        .with_cancel(cancel.clone())
        .optimize()
        .map_err(analysis_err)?;
    // Evaluate the requested test-length targets at the optimum, re-using
    // the batch's warm session rather than a fresh full pass.
    session
        .set_all(result.probs.as_slice())
        .map_err(analysis_err)?;
    let detect = session
        .try_fault_detect_probs()
        .map_err(analysis_err)?
        .to_vec();
    Ok(Json::obj(vec![
        ("circuit", Json::str(circuit.name())),
        ("probs", f64_arr(result.probs.as_slice())),
        ("objective_ln", Json::Num(result.objective_ln)),
        (
            "initial_objective_ln",
            Json::Num(result.initial_objective_ln),
        ),
        ("rounds", Json::Num(result.rounds as f64)),
        ("evaluations", Json::Num(result.evaluations as f64)),
        ("testlen", testlen_rows(&detect, testlens)),
    ]))
}

fn run_tpi(
    circuit: &Circuit,
    cancel: &CancelToken,
    budget: usize,
    max_candidates: usize,
    target_d: f64,
    target_e: f64,
    dry_run: bool,
) -> Result<Json, WireError> {
    let params = TpiParams {
        analyzer: AnalyzerParams::default(),
        budget,
        frac_d: target_d,
        conf_e: target_e,
        max_candidates,
        ..TpiParams::default()
    };
    if dry_run {
        let (base, ranked) =
            tpi::rank_with_cancel(circuit, &params, cancel).map_err(analysis_err)?;
        return Ok(Json::obj(vec![
            ("circuit", Json::str(circuit.name())),
            (
                "base_patterns",
                base.map_or(Json::Null, |t| Json::Num(t.patterns as f64)),
            ),
            (
                "candidates",
                Json::Arr(
                    ranked
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("node", Json::str(&c.label)),
                                ("kind", Json::str(c.spec.kind.mnemonic())),
                                (
                                    "predicted_patterns",
                                    c.predicted
                                        .map_or(Json::Null, |t| Json::Num(t.patterns as f64)),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]));
    }
    let result = tpi::advise_with_cancel(circuit, &params, cancel).map_err(analysis_err)?;
    let final_patterns = result
        .steps
        .last()
        .map_or(result.base_patterns, |s| s.realized_patterns);
    Ok(Json::obj(vec![
        ("circuit", Json::str(circuit.name())),
        (
            "base_patterns",
            result
                .base_patterns
                .map_or(Json::Null, |n| Json::Num(n as f64)),
        ),
        (
            "steps",
            Json::Arr(
                result
                    .steps
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("node", Json::str(&s.label)),
                            ("kind", Json::str(s.spec.kind.mnemonic())),
                            ("gate", Json::str(&s.gate_name)),
                            (
                                "predicted_patterns",
                                s.predicted_patterns
                                    .map_or(Json::Null, |n| Json::Num(n as f64)),
                            ),
                            (
                                "realized_patterns",
                                s.realized_patterns
                                    .map_or(Json::Null, |n| Json::Num(n as f64)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "final_patterns",
            final_patterns.map_or(Json::Null, |n| Json::Num(n as f64)),
        ),
        ("stopped_early", Json::Bool(result.stopped_early)),
        (
            "added_inputs",
            Json::Num((result.circuit.num_inputs() - circuit.num_inputs()) as f64),
        ),
        (
            "added_outputs",
            Json::Num((result.circuit.num_outputs() - circuit.num_outputs()) as f64),
        ),
    ]))
}

fn run_check(
    circuit: &Circuit,
    cancel: &CancelToken,
    prove_redundant: bool,
    bdd_budget: usize,
) -> Result<Json, WireError> {
    let params = CheckParams {
        prove_redundant,
        node_budget: bdd_budget,
        num_threads: 0,
    };
    let report =
        staticanalysis::check_cancellable(circuit, &params, cancel).map_err(analysis_err)?;
    // StaticReport::to_json is pretty-printed (multi-line); re-parse it
    // through our own reader so the reply stays a single line. The values
    // pass through bit-exactly (shortest-roundtrip float formatting).
    let parsed = Json::parse(&report.to_json()).map_err(|e| {
        WireError::new(
            ErrorKind::Analysis,
            format!("internal: check report did not round-trip: {e}"),
        )
    })?;
    Ok(parsed)
}

fn run_simulate(
    circuit: &Circuit,
    analyzer: &Analyzer,
    cancel: &CancelToken,
    probs: &ProbSpec,
    patterns: u64,
    seed: u64,
) -> Result<Json, WireError> {
    // The simulator has no internal poll points; refuse up front so an
    // already-expired deadline never starts a pattern sweep.
    cancel.check().map_err(analysis_err)?;
    let weights = resolve_probs(probs, circuit.num_inputs())?;
    let curve = weighted_coverage(
        circuit,
        analyzer.faults(),
        weights.as_slice(),
        seed,
        patterns,
    );
    let last = curve.checkpoints.last();
    Ok(Json::obj(vec![
        ("circuit", Json::str(circuit.name())),
        ("patterns", Json::Num(patterns as f64)),
        ("total_faults", Json::Num(curve.total_faults as f64)),
        ("detected", Json::Num(last.map_or(0, |c| c.detected) as f64)),
        ("coverage_percent", Json::Num(curve.final_percent())),
    ]))
}

/// Runs one op against the circuit of `session`, the request's (or
/// batch's) single warm checkout; ops that work on the bare circuit use
/// only its analyzer. `cancel` is the request's deadline token — the
/// session is expected to already be armed with it (see the job runner
/// in [`crate::registry`]), and ops that build their own analysis state
/// thread it down explicitly.
pub fn run_op(
    session: &mut AnalysisSession,
    cancel: &CancelToken,
    op: &CircuitOp,
) -> Result<Json, WireError> {
    let analyzer = session.analyzer().clone();
    let circuit = analyzer.circuit();
    match op {
        CircuitOp::Analyze {
            probs,
            testlens,
            hardest,
            detect_probs,
            signal_probs,
        } => run_analyze(
            circuit,
            session,
            probs,
            testlens,
            *hardest,
            *detect_probs,
            *signal_probs,
        ),
        CircuitOp::Optimize {
            n_target,
            seed,
            testlens,
        } => run_optimize(
            circuit, &analyzer, session, cancel, *n_target, *seed, testlens,
        ),
        CircuitOp::Tpi {
            budget,
            max_candidates,
            target_d,
            target_e,
            dry_run,
        } => run_tpi(
            circuit,
            cancel,
            *budget,
            *max_candidates,
            *target_d,
            *target_e,
            *dry_run,
        ),
        CircuitOp::Check {
            prove_redundant,
            bdd_budget,
        } => run_check(circuit, cancel, *prove_redundant, *bdd_budget),
        CircuitOp::Simulate {
            probs,
            patterns,
            seed,
        } => run_simulate(circuit, &analyzer, cancel, probs, *patterns, *seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protest_circuits::by_name;

    fn session_pair() -> (Circuit, ()) {
        (by_name("c17").unwrap(), ())
    }

    #[test]
    fn analyze_matches_direct_session() {
        let (ckt, _) = session_pair();
        let analyzer = Analyzer::new(&ckt);
        let probs = InputProbs::uniform(ckt.num_inputs());
        let mut session = analyzer.session(&probs).unwrap();
        let op = CircuitOp::Analyze {
            probs: ProbSpec::Constant(0.5),
            testlens: vec![(1.0, 0.95)],
            hardest: 3,
            detect_probs: true,
            signal_probs: true,
        };
        let out = run_op(&mut session, &CancelToken::never(), &op).unwrap();

        let mut direct = analyzer.session(&probs).unwrap();
        let want = direct.fault_detect_probs().to_vec();
        let got: Vec<f64> = out
            .get("detect_probs")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        assert_eq!(
            got.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(out.get("hardest").and_then(Json::as_arr).unwrap().len(), 3);
    }

    #[test]
    fn check_report_roundtrips() {
        let (ckt, _) = session_pair();
        let analyzer = Analyzer::new(&ckt);
        let probs = InputProbs::uniform(ckt.num_inputs());
        let mut session = analyzer.session(&probs).unwrap();
        let op = CircuitOp::Check {
            prove_redundant: false,
            bdd_budget: 10_000,
        };
        let out = run_op(&mut session, &CancelToken::never(), &op).unwrap();
        assert_eq!(out.get("circuit").and_then(Json::as_str), Some("c17"));
        assert!(!out.to_line().contains('\n'));
    }

    #[test]
    fn bad_prob_vector_is_typed_error() {
        let (ckt, _) = session_pair();
        let analyzer = Analyzer::new(&ckt);
        let probs = InputProbs::uniform(ckt.num_inputs());
        let mut session = analyzer.session(&probs).unwrap();
        let op = CircuitOp::Analyze {
            probs: ProbSpec::Explicit(vec![0.5; 3]),
            testlens: vec![],
            hardest: 0,
            detect_probs: false,
            signal_probs: false,
        };
        let err = run_op(&mut session, &CancelToken::never(), &op).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Analysis);
    }
}
