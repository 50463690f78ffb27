//! Differential tests for the parallel analysis executor: every result a
//! 4-thread analyzer produces — signal probabilities, observabilities,
//! fault detection probabilities, and the optimizer's full trajectory —
//! must be **bit-identical** (`f64::to_bits`) to the serial (`--threads 1`)
//! run. The parallel passes only reschedule independent per-node
//! computations; they never change a floating-point operation sequence, so
//! equality here is exact, not approximate. The estimator's parallel
//! construction must likewise yield the same structures as the serial one.

use proptest::prelude::*;
use protest::prelude::*;
use protest_circuits::{alu_74181, comp24, div_nonrestoring, mesh_by_spec, mult_array};
use protest_circuits::{random_circuit, RandomCircuitParams};
use protest_core::optimize::{HillClimber, OptimizeParams};
use protest_core::sigprob::SignalProbEstimator;
use protest_core::{Aig, AnalyzerParams, InputProbs};

fn params(threads: usize) -> AnalyzerParams {
    AnalyzerParams {
        num_threads: threads,
        ..AnalyzerParams::default()
    }
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}]: serial {x} vs parallel {y}"
        );
    }
}

/// A skewed, non-uniform input probability vector (uniform 1/2 would leave
/// many conditioning paths unexercised).
fn skewed_probs(inputs: usize) -> InputProbs {
    let probs: Vec<f64> = (0..inputs).map(|i| ((i % 15) + 1) as f64 / 16.0).collect();
    InputProbs::from_slice(&probs).unwrap()
}

#[test]
fn paper_circuits_full_analysis_is_bit_identical_at_4_threads() {
    let circuits = [
        ("alu_74181", alu_74181()),
        ("comp24", comp24()),
        ("mult6", mult_array(6)),
        ("div8x8", div_nonrestoring(8, 8)),
    ];
    for (name, circuit) in circuits {
        let serial = Analyzer::with_params(&circuit, params(1));
        let parallel = Analyzer::with_params(&circuit, params(4));
        assert_eq!(serial.num_threads(), 1);
        assert_eq!(parallel.num_threads(), 4);
        let probs = skewed_probs(circuit.num_inputs());
        let a = serial.run(&probs).unwrap();
        let b = parallel.run(&probs).unwrap();
        assert_bits_eq(
            a.signal_probabilities(),
            b.signal_probabilities(),
            &format!("{name}: signal probs"),
        );
        for i in 0..circuit.num_nodes() {
            let id = NodeId::from_index(i);
            assert_eq!(
                a.node_observability(id).to_bits(),
                b.node_observability(id).to_bits(),
                "{name}: observability of node {i}"
            );
        }
        assert_bits_eq(
            &a.detection_probabilities(),
            &b.detection_probabilities(),
            &format!("{name}: detection probs"),
        );
    }
}

/// Builds the estimator of `circuit` at 1 and at 4 threads and checks
/// that its structures and its full estimate agree exactly.
fn assert_estimator_builds_agree(name: &str, circuit: &Circuit) {
    let serial = SignalProbEstimator::new(Aig::from_circuit(circuit), &params(1));
    let parallel = SignalProbEstimator::new(Aig::from_circuit(circuit), &params(4));
    assert_eq!(
        serial.storage_bytes(),
        parallel.storage_bytes(),
        "{name}: arena bytes"
    );
    assert!(serial.ranks() == parallel.ranks(), "{name}: ranks differ");
    let probs = skewed_probs(circuit.num_inputs());
    assert_bits_eq(
        &serial.full_estimate(probs.as_slice()),
        &parallel.full_estimate(probs.as_slice()),
        &format!("{name}: full estimate"),
    );
}

#[test]
fn estimator_built_at_4_threads_matches_serial_build() {
    // The mesh is above the serial-build AND threshold, so its arena is
    // built in interleaved blocks on the pool; the paper circuits are not.
    let circuits = [
        ("alu_74181", alu_74181()),
        ("comp24", comp24()),
        ("mult6", mult_array(6)),
        ("div8x8", div_nonrestoring(8, 8)),
        ("multmesh:4x8x10", mesh_by_spec("multmesh:4x8x10").unwrap()),
    ];
    for (name, circuit) in &circuits {
        assert_estimator_builds_agree(name, circuit);
    }
}

#[test]
fn optimizer_trajectory_is_bit_identical_at_4_threads() {
    // Two shapes: a wide arithmetic comparator and a random reconvergent
    // circuit. The climb must take the *same* path — every accepted move,
    // the final grid point, the objective bits and the evaluation count.
    let circuits = [
        ("comp24", comp24()),
        (
            "random13",
            random_circuit(RandomCircuitParams {
                inputs: 8,
                gates: 40,
                outputs: 4,
                seed: 13,
            }),
        ),
    ];
    for (name, circuit) in circuits {
        let serial = Analyzer::with_params(&circuit, params(1));
        let parallel = Analyzer::with_params(&circuit, params(4));
        let op = OptimizeParams {
            n_target: 500,
            max_rounds: 4,
            seed: 11,
            ..OptimizeParams::default()
        };
        let a = HillClimber::new(&serial, op).optimize().unwrap();
        let b = HillClimber::new(&parallel, op).optimize().unwrap();
        assert_eq!(a.grid_ks, b.grid_ks, "{name}: optimized grid point");
        assert_eq!(
            a.objective_ln.to_bits(),
            b.objective_ln.to_bits(),
            "{name}: objective"
        );
        assert_eq!(
            a.initial_objective_ln.to_bits(),
            b.initial_objective_ln.to_bits(),
            "{name}: initial objective"
        );
        assert_eq!(a.evaluations, b.evaluations, "{name}: evaluation count");
        assert_eq!(a.rounds, b.rounds, "{name}: round count");
    }
}

#[test]
fn multi_distribution_optimizer_is_bit_identical_at_4_threads() {
    // Conflicting fault classes (a wide AND wants all-ones, a wide NOR
    // all-zeros) force optimize_multi through several genuinely different
    // rounds without needing an expensive circuit.
    let mut b = CircuitBuilder::new("conflict");
    let xs = b.input_bus("x", 8);
    let z1 = b.and(&xs);
    let z2 = b.nor(&xs);
    b.output(z1, "z1");
    b.output(z2, "z2");
    let circuit = b.finish().unwrap();
    let serial = Analyzer::with_params(&circuit, params(1));
    let parallel = Analyzer::with_params(&circuit, params(4));
    let op = OptimizeParams {
        n_target: 200,
        max_rounds: 3,
        ..OptimizeParams::default()
    };
    let a = HillClimber::new(&serial, op)
        .optimize_multi(3, 200, 0.95)
        .unwrap();
    let b = HillClimber::new(&parallel, op)
        .optimize_multi(3, 200, 0.95)
        .unwrap();
    assert_eq!(a.covered_by, b.covered_by, "fault coverage assignment");
    assert_eq!(a.distributions.len(), b.distributions.len());
    for (da, db) in a.distributions.iter().zip(&b.distributions) {
        assert_eq!(da.grid_ks, db.grid_ks);
        assert_eq!(da.objective_ln.to_bits(), db.objective_ln.to_bits());
        assert_eq!(da.evaluations, db.evaluations);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random mutation scripts on random circuits: after every step the
    /// serial and the 4-thread session expose bitwise equal signal
    /// probabilities and fault detection probabilities (exercising the
    /// parallel rank batches, the parallel observability wavefronts, the
    /// parallel fault loop *and* the incremental fault query cache).
    #[test]
    fn session_mutation_scripts_bit_identical(
        seed in 0u64..3000,
        script in proptest::collection::vec((0usize..6, 0u32..=16), 1..12),
    ) {
        let circuit = random_circuit(RandomCircuitParams {
            inputs: 6,
            gates: 30,
            outputs: 3,
            seed,
        });
        let serial = Analyzer::with_params(&circuit, params(1));
        let parallel = Analyzer::with_params(&circuit, params(4));
        let uniform = InputProbs::uniform(6);
        let mut sa = serial.session(&uniform).unwrap();
        let mut sb = parallel.session(&uniform).unwrap();
        for &(i, k) in &script {
            let p = f64::from(k) / 16.0;
            sa.set_input_prob(i, p).unwrap();
            sb.set_input_prob(i, p).unwrap();
            {
                let (pa, pb) = (sa.fault_detect_probs(), sb.fault_detect_probs());
                for (x, y) in pa.iter().zip(pb) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            let (na, nb) = (sa.signal_probs(), sb.signal_probs());
            for (x, y) in na.iter().zip(nb) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// Random circuits: the 1- and 4-thread estimator builds agree.
    #[test]
    fn random_estimator_builds_agree(seed in 0u64..3000) {
        let circuit = random_circuit(RandomCircuitParams {
            inputs: 8,
            gates: 60,
            outputs: 4,
            seed,
        });
        assert_estimator_builds_agree(&format!("random seed {seed}"), &circuit);
    }
}
