//! Differential tests for the partitioned one-shot analysis: on circuits
//! that decompose into connected components, `Analyzer::run` with
//! partitioning on must produce **bit-identical** (`f64::to_bits`) signal
//! probabilities, observabilities and fault detection estimates to the
//! monolithic pass — at one thread and at four. Partitioning only
//! reschedules independent per-component computations; it never changes a
//! floating-point operation sequence. That includes the lane-batched
//! sweep, which evaluates a batch of same-structure partitions together:
//! lanes with different inputs (and so different conditioning sets),
//! exact 0.0/1.0 inputs, and batch widths around the lane cap.

use protest::prelude::*;
use protest_circuits::{alu_74181, alu_mesh, comp24, mult_mesh};
use protest_core::partition::MAX_LANES;
use protest_core::{AnalyzerParams, InputProbs};

fn params(threads: usize, partition: bool) -> AnalyzerParams {
    AnalyzerParams {
        num_threads: threads,
        partition,
        ..AnalyzerParams::default()
    }
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}]: monolithic {x} vs partitioned {y}"
        );
    }
}

fn skewed_probs(inputs: usize) -> InputProbs {
    let probs: Vec<f64> = (0..inputs).map(|i| ((i % 15) + 1) as f64 / 16.0).collect();
    InputProbs::from_slice(&probs).unwrap()
}

/// Runs the monolithic and the partitioned analyzer on `circuit` at
/// `threads` threads and asserts every public result is bitwise equal.
fn assert_partitioned_matches_monolithic(name: &str, circuit: &Circuit, threads: usize) {
    let probs = skewed_probs(circuit.num_inputs());
    assert_partitioned_matches_monolithic_at(name, circuit, &probs, threads);
}

/// [`assert_partitioned_matches_monolithic`] at input vector `probs`.
fn assert_partitioned_matches_monolithic_at(
    name: &str,
    circuit: &Circuit,
    probs: &InputProbs,
    threads: usize,
) {
    let mono = Analyzer::with_params(circuit, params(threads, false));
    let part = Analyzer::with_params(circuit, params(threads, true));
    assert_eq!(
        mono.partition_count(),
        1,
        "{name}: knob off must stay monolithic"
    );
    let a = mono.run(probs).unwrap();
    let b = part.run(probs).unwrap();
    assert_bits_eq(
        a.signal_probabilities(),
        b.signal_probabilities(),
        &format!("{name}@{threads}t: signal probs"),
    );
    for i in 0..circuit.num_nodes() {
        let id = NodeId::from_index(i);
        assert_eq!(
            a.node_observability(id).to_bits(),
            b.node_observability(id).to_bits(),
            "{name}@{threads}t: observability of node {i}"
        );
    }
    assert_bits_eq(
        &a.detection_probabilities(),
        &b.detection_probabilities(),
        &format!("{name}@{threads}t: detection probs"),
    );
}

#[test]
fn uncoupled_meshes_partition_and_match_monolithic_bit_for_bit() {
    let circuits = [
        ("multmesh:3x2x3:uncoupled", mult_mesh(3, 2, 3, false), 3),
        ("alumesh:2x4:uncoupled", alu_mesh(2, 4, false), 4),
    ];
    for (name, circuit, lanes) in &circuits {
        let part = Analyzer::with_params(circuit, params(1, true));
        assert_eq!(
            part.partition_count(),
            *lanes,
            "{name}: one partition per lane"
        );
        assert!(
            part.partition_storage_bytes() > 0,
            "{name}: storage counter"
        );
        for threads in [1, 4] {
            assert_partitioned_matches_monolithic(name, circuit, threads);
        }
    }
}

#[test]
fn paper_circuits_are_unchanged_by_the_partition_knob() {
    // The paper circuits are single connected components: the partitioned
    // analyzer must fall back to the monolithic path and (trivially)
    // produce the same bits.
    let circuits = [("alu_74181", alu_74181()), ("comp24", comp24())];
    for (name, circuit) in &circuits {
        let part = Analyzer::with_params(circuit, params(1, true));
        assert_eq!(part.partition_count(), 1, "{name}: one component");
        for threads in [1, 4] {
            assert_partitioned_matches_monolithic(name, circuit, threads);
        }
    }
}

#[test]
fn partitioned_run_matches_an_incremental_session_reaching_the_same_probs() {
    // Cross-path check: a monolithic session mutated to a probability
    // vector must agree bit-for-bit with a partitioned one-shot run at
    // that vector (the session path is the incremental reference).
    let circuit = mult_mesh(3, 2, 2, false);
    let part = Analyzer::with_params(&circuit, params(1, true));
    assert_eq!(part.partition_count(), 2);
    let mono = Analyzer::with_params(&circuit, params(1, false));
    let probs = skewed_probs(circuit.num_inputs());
    let mut session = mono
        .session(&InputProbs::uniform(circuit.num_inputs()))
        .unwrap();
    for (i, &p) in probs.as_slice().iter().enumerate() {
        session.set_input_prob(i, p).unwrap();
    }
    let b = part.run(&probs).unwrap();
    assert_bits_eq(
        session.signal_probs(),
        b.signal_probabilities(),
        "session vs partitioned: signal probs",
    );
    let pa = session.fault_detect_probs().to_vec();
    assert_bits_eq(
        &pa,
        &b.detection_probabilities(),
        "session vs partitioned: detection probs",
    );
}

/// A seeded `k/16` probability (`k` in 1..=15) of global input `i` (the
/// estimator's lane-batch unit test uses the same formula).
fn seeded_prob(seed: u64, i: usize) -> f64 {
    let mut x = seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 29;
    ((x % 15) + 1) as f64 / 16.0
}

#[test]
fn lanes_with_their_own_vectors_match_monolithic_bit_for_bit() {
    // Eight `multmesh:3x2` lanes, each reading its own seeded vector, so
    // a batch's lanes select different conditioning sets at many ANDs
    // (the estimator's unit test counts the groups on these vectors).
    // Lanes 6 and 7 hold every other input at exactly 0.0 and 1.0.
    let lanes = 8;
    let circuit = mult_mesh(3, 2, lanes, false);
    let ni = circuit.num_inputs() / lanes;
    let probs: Vec<f64> = (0..circuit.num_inputs())
        .map(|i| match (i / ni, i % ni) {
            (l @ (6 | 7), p) if p % 2 == 0 => f64::from(l == 7),
            _ => seeded_prob(7, i),
        })
        .collect();
    let probs = InputProbs::from_slice(&probs).unwrap();
    assert_eq!(
        Analyzer::with_params(&circuit, params(1, true)).partition_count(),
        lanes
    );
    for threads in [1, 2, 4] {
        assert_partitioned_matches_monolithic_at("multmesh:3x2x8", &circuit, &probs, threads);
    }
}

/// `a` and `b` side by side in one circuit, sharing no net: `a`'s nodes
/// and inputs first, then `b`'s.
fn side_by_side(a: &Circuit, b: &Circuit) -> Circuit {
    let mut out = CircuitBuilder::new("side_by_side");
    for c in [a, b] {
        let mut map: Vec<NodeId> = Vec::with_capacity(c.num_nodes());
        for i in 0..c.num_nodes() {
            let node = c.node(NodeId::from_index(i));
            let fanins: Vec<NodeId> = node.fanins().iter().map(|f| map[f.index()]).collect();
            map.push(match node.kind() {
                GateKind::Input => out.input(format!("x{}", out.num_nodes())),
                GateKind::Lut(t) => {
                    let t = out.add_table(c.lut(t).clone());
                    out.lut(t, &fanins)
                }
                kind => out.gate(kind, &fanins),
            });
        }
        for &o in c.outputs() {
            out.output_unnamed(map[o.index()]);
        }
    }
    out.finish().unwrap()
}

#[test]
fn batch_widths_around_the_lane_cap_match_monolithic_bit_for_bit() {
    // One structure class of `count` small lanes beside a class of one
    // part: at one thread a batch holds up to MAX_LANES lanes, so 1,
    // MAX_LANES - 1 and MAX_LANES lanes fit one batch and one more lane
    // opens a second; at 2 and 4 threads the widths split again.
    let single = mult_mesh(3, 1, 1, false);
    for count in [1, MAX_LANES - 1, MAX_LANES, MAX_LANES + 1] {
        let circuit = side_by_side(&mult_mesh(2, 1, count, false), &single);
        let probs: Vec<f64> = (0..circuit.num_inputs())
            .map(|i| seeded_prob(11, i))
            .collect();
        let probs = InputProbs::from_slice(&probs).unwrap();
        let part = Analyzer::with_params(&circuit, params(1, true));
        assert_eq!(part.partition_count(), count + 1);
        assert_eq!(part.partition_class_count(), 2);
        for threads in [1, 2, 4] {
            let name = format!("{count} lanes + 1");
            assert_partitioned_matches_monolithic_at(&name, &circuit, &probs, threads);
        }
    }
}
