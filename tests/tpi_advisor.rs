//! Acceptance tests of the test-point insertion advisor: the analyze →
//! modify → re-analyze loop must (a) monotonically shrink the ground-truth
//! test length on the paper's random-resistant circuits, (b) predict each
//! committed candidate's effect within the documented tolerance, and
//! (c) translate into realized fault-simulation coverage.

use protest::prelude::*;
use protest_circuits::{comp24, div_nonrestoring};
use protest_core::tpi::{advise, rank, TpiParams, TPI_PREDICTION_TOLERANCE};
use protest_sim::weighted_coverage;

/// Asserts the advisor's committed trajectory on one circuit: strictly
/// decreasing re-analyzed test lengths, and per-step predictions within
/// the documented tolerance of the re-analysis. Returns the result.
fn assert_trajectory(
    circuit: &protest_netlist::Circuit,
    params: &TpiParams,
) -> protest_core::tpi::TpiResult {
    let result = advise(circuit, params).expect("advisor runs");
    assert!(
        !result.steps.is_empty(),
        "{}: at least one point must commit",
        circuit.name()
    );
    let mut last = result
        .base_patterns
        .expect("base test length reachable on the paper circuits");
    for (i, step) in result.steps.iter().enumerate() {
        let realized = step.realized_patterns.expect("realized length reachable");
        assert!(
            realized < last,
            "{} step {i}: realized N {realized} must undercut previous {last}",
            circuit.name()
        );
        last = realized;
        let predicted = step.predicted_patterns.expect("predicted length reachable");
        let ratio = predicted.max(realized) as f64 / predicted.min(realized).max(1) as f64;
        assert!(
            ratio <= TPI_PREDICTION_TOLERANCE,
            "{} step {i}: predicted {predicted} vs re-analyzed {realized} \
             (ratio {ratio:.3} beyond the documented tolerance)",
            circuit.name()
        );
    }
    // The netlist was really rewritten.
    assert!(result.circuit.num_nodes() > circuit.num_nodes());
    assert_eq!(result.weights.len(), result.circuit.num_inputs());
    result
}

/// One committed step as `(kind, node, predicted N, realized N)`.
type PinnedStep = (&'static str, &'static str, u64, u64);

/// Asserts the exact trajectory the advisor commits with a budget of 4
/// points out of 96 candidates: the base test length, then every step's
/// kind, node and predicted vs re-analyzed `N(1.0, .98)`.
fn assert_pinned_trajectory(circuit: &protest_netlist::Circuit, base: u64, steps: &[PinnedStep]) {
    let params = TpiParams {
        budget: 4,
        max_candidates: 96,
        ..TpiParams::default()
    };
    let result = advise(circuit, &params).expect("advisor runs");
    let committed: Vec<(&str, &str, u64, u64)> = result
        .steps
        .iter()
        .map(|s| {
            (
                s.spec.kind.mnemonic(),
                s.label.as_str(),
                s.predicted_patterns.unwrap(),
                s.realized_patterns.unwrap(),
            )
        })
        .collect();
    assert_eq!(result.base_patterns, Some(base), "{}", circuit.name());
    assert_eq!(committed, steps, "{}", circuit.name());
}

#[test]
fn advisor_trajectory_on_div8x8() {
    let circuit = div_nonrestoring(8, 8);
    let params = TpiParams {
        budget: 3,
        max_candidates: 48,
        ..TpiParams::default()
    };
    let result = assert_trajectory(&circuit, &params);
    // Three committed points must shrink the ground truth substantially.
    let base = result.base_patterns.unwrap();
    let last = result.steps.last().unwrap().realized_patterns.unwrap();
    assert!(
        (last as f64) < base as f64 / 2.0,
        "expected a >2x reduction, got {base} -> {last}"
    );
    assert_pinned_trajectory(
        &circuit,
        2576,
        &[
            ("c1", "n34", 253, 249),
            ("c1", "n31", 174, 165),
            ("c0", "n45", 126, 126),
        ],
    );
}

#[test]
fn advisor_trajectory_on_alu() {
    let circuit = protest_circuits::alu_74181();
    let params = TpiParams {
        budget: 3,
        max_candidates: 48,
        ..TpiParams::default()
    };
    assert_trajectory(&circuit, &params);
    assert_pinned_trajectory(
        &circuit,
        277,
        &[
            ("obs", "n76", 189, 189),
            ("obs", "n75", 152, 152),
            ("obs", "n74", 146, 146),
            ("c1", "n22", 127, 131),
        ],
    );
}

#[test]
fn ranking_is_identical_at_one_and_four_threads() {
    let circuit = comp24();
    let ranked_at = |threads: usize| {
        let params = TpiParams {
            analyzer: AnalyzerParams {
                num_threads: threads,
                ..AnalyzerParams::default()
            },
            max_candidates: 32,
            ..TpiParams::default()
        };
        rank(&circuit, &params).expect("ranking runs")
    };
    let (base1, r1) = ranked_at(1);
    let (base4, r4) = ranked_at(4);
    assert_eq!(
        base1.map(|t| t.patterns.to_string()),
        base4.map(|t| t.patterns.to_string())
    );
    assert_eq!(r1.len(), r4.len());
    for (a, b) in r1.iter().zip(r4.iter()) {
        assert_eq!(a.spec, b.spec, "candidate order must be bit-identical");
        assert_eq!(
            a.predicted.map(|t| (t.patterns, t.confidence.to_bits())),
            b.predicted.map(|t| (t.patterns, t.confidence.to_bits())),
            "{:?}",
            a.spec
        );
    }
}

/// Satellite: fault-sim cross-check. 10k weighted random patterns before
/// and after the advisor's top-3 points — realized coverage must move the
/// way the analytic scores predicted (up).
fn cross_check(circuit: &protest_netlist::Circuit, min_gain: f64) {
    let params = TpiParams {
        budget: 3,
        max_candidates: 48,
        ..TpiParams::default()
    };
    let result = advise(circuit, &params).expect("advisor runs");
    assert!(!result.steps.is_empty());
    let predicted_improvement =
        result.steps.last().unwrap().realized_patterns.unwrap() < result.base_patterns.unwrap();
    assert!(predicted_improvement, "analytic scores predict improvement");

    let patterns = 10_000;
    let before = {
        let analyzer = Analyzer::new(circuit);
        let weights = vec![0.5; circuit.num_inputs()];
        weighted_coverage(circuit, analyzer.faults(), &weights, 11, patterns)
    };
    let after = {
        let analyzer = Analyzer::new(&result.circuit);
        weighted_coverage(
            &result.circuit,
            analyzer.faults(),
            &result.weights,
            11,
            patterns,
        )
    };
    assert!(
        after.final_percent() >= before.final_percent() + min_gain,
        "{}: coverage must improve in the predicted direction: {:.2}% -> {:.2}% (min gain {min_gain})",
        circuit.name(),
        before.final_percent(),
        after.final_percent()
    );
}

#[test]
fn fault_sim_cross_check_on_comp24() {
    // comp24's equality chains leave half the faults uncovered at 10k
    // uniform patterns; observation points recover a large chunk.
    cross_check(&comp24(), 5.0);
    assert_pinned_trajectory(
        &comp24(),
        58_292_325_310,
        &[
            ("obs", "n106", 51_553_792_196, 51_553_792_196),
            ("obs", "n129", 374_546_487, 374_546_487),
            ("obs", "n160", 240_263_947, 240_263_947),
            ("obs", "n164", 214_335_205, 217_018_821),
        ],
    );
}

#[test]
fn fault_sim_cross_check_on_alu() {
    cross_check(&protest_circuits::alu_74181(), 0.0);
}
