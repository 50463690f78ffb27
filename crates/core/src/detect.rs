//! Fault detection probabilities.
//!
//! The estimate (paper Sec. 3) multiplies *activation* by *observability*:
//! a stuck-at-0 on net `x` is detected with probability `p_x · s(x)`, a
//! stuck-at-1 with `(1 − p_x) · s(x)` (`x0 := p_x·s(x)`, `x1 := (1−p_x)·s(x)`
//! in the paper). For input-pin faults the pin's own observability `s(eᵢ)`
//! is used, so branch faults differ from their stem fault.
//!
//! The module also implements the paper's "rather trivial way" of computing
//! detection probabilities *exactly* — transform to a signal probability by
//! building the good/faulty XOR miter — used as the estimator's oracle in
//! tests and for the exact option the paper mentions (with its quadratic
//! cost).

use protest_netlist::{Circuit, CircuitBuilder, GateKind, Levels, NodeId};
use protest_sim::{Fault, FaultSite, StuckAt};

use crate::analyzer::FaultEstimate;
use crate::cancel::CancelToken;
use crate::error::CoreError;
use crate::exec::Exec;
use crate::failpoints;
use crate::observe::Observability;
use crate::params::InputProbs;
use crate::sigprob::exhaustive_signal_probs;

/// Detection probability estimate for one fault, given node signal
/// probabilities and observabilities.
pub fn detection_probability(
    circuit: &Circuit,
    fault: Fault,
    node_probs: &[f64],
    obs: &Observability,
) -> f64 {
    let driver = fault.site.driver(circuit);
    let p = node_probs[driver.index()];
    let activation = match fault.polarity {
        StuckAt::Zero => p,
        StuckAt::One => 1.0 - p,
    };
    let s = match fault.site {
        FaultSite::Output(n) => obs.node(n),
        FaultSite::InputPin { gate, pin } => obs.pin(gate, pin as usize),
    };
    (activation * s).clamp(0.0, 1.0)
}

/// The per-fault estimate, shared by every thread of the fault pass.
pub(crate) fn estimate_fault(
    circuit: &Circuit,
    fault: Fault,
    node_probs: &[f64],
    obs: &Observability,
) -> FaultEstimate {
    let detection = detection_probability(circuit, fault, node_probs, obs);
    let driver = fault.site.driver(circuit);
    let p = node_probs[driver.index()];
    let activation = match fault.polarity {
        StuckAt::Zero => p,
        StuckAt::One => 1.0 - p,
    };
    let observability = if activation > 0.0 {
        detection / activation
    } else {
        0.0
    };
    FaultEstimate {
        fault,
        activation,
        observability,
        detection,
    }
}

/// Minimum fault count worth fanning out to worker threads (a per-fault
/// estimate is a handful of flops — small batches cost more to queue than
/// to compute).
pub(crate) const MIN_PAR_FAULTS: usize = 512;

/// How often the fault loop polls its cancellation token (one poll per
/// this many faults of a chunk).
const CANCEL_CHECK_FAULTS: usize = 1024;

/// Evaluates every fault from scratch into `estimates`/`detections`
/// (cleared first, capacity reused). At least [`MIN_PAR_FAULTS`] faults
/// fan out over the executor's workers in fault-order chunks, so the
/// output is bit-identical at every thread count.
///
/// `cancel` is polled every [`CANCEL_CHECK_FAULTS`] faults of a chunk; a
/// fired token leaves `estimates`/`detections` partially filled.
#[allow(clippy::too_many_arguments)] // the session's split borrows: one slot per field
pub(crate) fn estimate_all_faults_cancellable(
    circuit: &Circuit,
    faults: &[Fault],
    node_probs: &[f64],
    obs: &Observability,
    exec: &Exec,
    estimates: &mut Vec<FaultEstimate>,
    detections: &mut Vec<f64>,
    cancel: &CancelToken,
) -> Result<(), CoreError> {
    let _t = protest_telemetry::span(protest_telemetry::Site::FaultEstimate);
    failpoints::hit("core.detect.delay");
    estimates.clear();
    estimates.extend(faults.iter().map(|&fault| FaultEstimate {
        fault,
        activation: 0.0,
        observability: 0.0,
        detection: 0.0,
    }));
    detections.clear();
    exec.fan_out(
        faults.len() >= MIN_PAR_FAULTS,
        faults,
        estimates,
        &mut Vec::new(),
        cancel,
        CANCEL_CHECK_FAULTS,
        |_: &mut (), &fault| estimate_fault(circuit, fault, node_probs, obs),
    )?;
    detections.extend(estimates.iter().map(|e| e.detection));
    Ok(())
}

/// Builds a copy of `circuit` with `fault` permanently injected.
///
/// The copy has the same primary inputs in the same order; the faulty net is
/// replaced by a constant. Useful for miters, redundancy checks and serial
/// fault simulation.
pub fn build_faulty_circuit(circuit: &Circuit, fault: Fault) -> Circuit {
    let mut b = CircuitBuilder::new(format!("{}_faulty", circuit.name()));
    let map = copy_nodes(circuit, &mut b, Some(fault), "");
    for (i, &o) in circuit.outputs().iter().enumerate() {
        let name = circuit
            .output_name(i)
            .map(str::to_string)
            .unwrap_or_else(|| format!("o{i}"));
        b.output(map[o.index()], name);
    }
    b.finish().expect("faulty copy preserves validity")
}

/// Builds the good/faulty XOR miter of `circuit` under `fault`: same
/// inputs, one output `diff` that is 1 exactly when the fault is detected.
pub fn build_miter(circuit: &Circuit, fault: Fault) -> Circuit {
    let mut b = CircuitBuilder::new(format!("{}_miter", circuit.name()));
    let good = copy_nodes(circuit, &mut b, None, "g_");
    let bad = copy_gates_reusing_inputs(circuit, &mut b, &good, fault);
    let mut xors = Vec::with_capacity(circuit.num_outputs());
    for &o in circuit.outputs() {
        xors.push(b.xor2(good[o.index()], bad[o.index()]));
    }
    let diff = b.or_tree(&xors);
    b.output(diff, "diff");
    b.finish().expect("miter construction preserves validity")
}

/// Exact detection probability via the miter and exhaustive enumeration.
///
/// # Errors
///
/// Returns [`CoreError::ExactTooLarge`] beyond the exhaustive input limit
/// and [`CoreError::ProbsLength`] on a mismatched probability vector.
pub fn exact_detection_probability(
    circuit: &Circuit,
    fault: Fault,
    probs: &InputProbs,
) -> Result<f64, CoreError> {
    probs.check_len(circuit.num_inputs())?;
    let miter = build_miter(circuit, fault);
    let node_probs = exhaustive_signal_probs(&miter, probs)?;
    let diff = miter.outputs()[0];
    Ok(node_probs[diff.index()])
}

/// Copies all nodes (inputs included) into `b`, optionally injecting a
/// fault; returns old-id → new-id.
fn copy_nodes(
    circuit: &Circuit,
    b: &mut CircuitBuilder,
    fault: Option<Fault>,
    prefix: &str,
) -> Vec<NodeId> {
    let levels = Levels::new(circuit);
    let mut map = vec![NodeId::from_index(0); circuit.num_nodes()];
    // Inputs first, in declaration order, preserving names and positions.
    for &i in circuit.inputs() {
        let name = circuit.node(i).name().unwrap_or("in").to_string();
        map[i.index()] = b.input(name);
    }
    let stuck = fault.map(|f| {
        let c = b.constant(f.polarity.bit());
        (f, c)
    });
    for &id in levels.order() {
        let node = circuit.node(id);
        if matches!(node.kind(), GateKind::Input) {
            continue;
        }
        let mut fanins: Vec<NodeId> = node.fanins().iter().map(|&f| map[f.index()]).collect();
        if let Some((
            Fault {
                site: FaultSite::InputPin { gate, pin },
                ..
            },
            c,
        )) = stuck
        {
            if gate == id {
                fanins[pin as usize] = c;
            }
        }
        let kind = match node.kind() {
            GateKind::Lut(lid) => {
                let t = b.add_table(circuit.lut(lid).clone());
                GateKind::Lut(t)
            }
            k => k,
        };
        let new_id = b.gate(kind, &fanins);
        if let Some(name) = node.name() {
            if prefix.is_empty() {
                b.name(new_id, name.to_string());
            } else {
                b.name(new_id, format!("{prefix}{name}"));
            }
        }
        map[id.index()] = new_id;
        if let Some((
            Fault {
                site: FaultSite::Output(n),
                ..
            },
            c,
        )) = stuck
        {
            if n == id {
                map[id.index()] = c;
            }
        }
    }
    // An output stuck-at on a primary input net.
    if let Some((
        Fault {
            site: FaultSite::Output(n),
            ..
        },
        c,
    )) = stuck
    {
        if matches!(circuit.node(n).kind(), GateKind::Input) {
            map[n.index()] = c;
        }
    }
    map
}

/// Copies only the gates, reusing `shared` for primary inputs, with the
/// fault injected (the faulty half of a miter).
fn copy_gates_reusing_inputs(
    circuit: &Circuit,
    b: &mut CircuitBuilder,
    shared: &[NodeId],
    fault: Fault,
) -> Vec<NodeId> {
    let levels = Levels::new(circuit);
    let mut map = vec![NodeId::from_index(0); circuit.num_nodes()];
    for &i in circuit.inputs() {
        map[i.index()] = shared[i.index()];
    }
    let stuck = b.constant(fault.polarity.bit());
    if let FaultSite::Output(n) = fault.site {
        if matches!(circuit.node(n).kind(), GateKind::Input) {
            map[n.index()] = stuck;
        }
    }
    for &id in levels.order() {
        let node = circuit.node(id);
        if matches!(node.kind(), GateKind::Input) {
            continue;
        }
        let mut fanins: Vec<NodeId> = node.fanins().iter().map(|&f| map[f.index()]).collect();
        if let FaultSite::InputPin { gate, pin } = fault.site {
            if gate == id {
                fanins[pin as usize] = stuck;
            }
        }
        let kind = match node.kind() {
            GateKind::Lut(lid) => {
                let t = b.add_table(circuit.lut(lid).clone());
                GateKind::Lut(t)
            }
            k => k,
        };
        let new_id = b.gate(kind, &fanins);
        map[id.index()] = new_id;
        if fault.site == FaultSite::Output(id) {
            map[id.index()] = stuck;
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use protest_netlist::CircuitBuilder;
    use protest_sim::{ExhaustivePatterns, FaultSim, FaultUniverse};

    use crate::observe::compute_observability;
    use crate::params::AnalyzerParams;

    use super::*;

    #[test]
    fn and_gate_detection_estimates_are_exact() {
        // Fanout-free AND: activation × observability is exact.
        let mut b = CircuitBuilder::new("and");
        let a = b.input("a");
        let c = b.input("c");
        let z = b.and2(a, c);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let probs = InputProbs::uniform(2);
        let node_probs = exhaustive_signal_probs(&ckt, &probs).unwrap();
        let obs = compute_observability(&ckt, &node_probs, &AnalyzerParams::default());
        for fault in FaultUniverse::all(&ckt).iter() {
            let est = detection_probability(&ckt, fault, &node_probs, &obs);
            let exact = exact_detection_probability(&ckt, fault, &probs).unwrap();
            assert!(
                (est - exact).abs() < 1e-12,
                "{fault:?}: est {est} exact {exact}"
            );
        }
    }

    #[test]
    fn miter_probability_matches_fault_simulation_frequency() {
        // Cross-check the exact miter against exhaustive fault simulation.
        let mut b = CircuitBuilder::new("m");
        let a = b.input("a");
        let c = b.input("c");
        let d = b.input("d");
        let na = b.not(a);
        let g1 = b.and2(a, c);
        let g2 = b.or2(na, d);
        let z = b.xor2(g1, g2);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let probs = InputProbs::uniform(3);
        let universe = FaultUniverse::all(&ckt);
        let mut fsim = FaultSim::new(&ckt);
        let mut src = ExhaustivePatterns::new(3);
        let counts = fsim.count_detections(universe.faults(), &mut src, 64);
        for (i, fault) in universe.iter().enumerate() {
            let exact = exact_detection_probability(&ckt, fault, &probs).unwrap();
            let freq = counts.detections[i] as f64 / 64.0;
            assert!(
                (exact - freq).abs() < 1e-12,
                "{fault:?}: miter {exact} vs sim {freq}"
            );
        }
    }

    #[test]
    fn input_stem_fault_miters_work() {
        let mut b = CircuitBuilder::new("s");
        let a = b.input("a");
        let na = b.not(a);
        let z = b.or2(a, na); // constant 1: a-faults undetectable
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let probs = InputProbs::uniform(1);
        let f = Fault::output(a, StuckAt::Zero);
        let exact = exact_detection_probability(&ckt, f, &probs).unwrap();
        assert!(exact.abs() < 1e-12, "redundant fault must be undetectable");
    }

    #[test]
    fn faulty_circuit_interface_is_preserved() {
        let mut b = CircuitBuilder::new("f");
        let a = b.input("a");
        let c = b.input("c");
        let z = b.and2(a, c);
        b.output(z, "zz");
        let ckt = b.finish().unwrap();
        let faulty = build_faulty_circuit(&ckt, Fault::output(z, StuckAt::One));
        assert_eq!(faulty.num_inputs(), 2);
        assert_eq!(faulty.num_outputs(), 1);
        // Output is now the constant-1 node.
        let mut sim = protest_sim::LogicSim::new(&faulty);
        assert_eq!(sim.run_block(&[0, 0])[0], !0u64);
    }

    #[test]
    fn branch_fault_estimate_uses_pin_observability() {
        // a stem feeds AND(a,c) and a buffer PO; the AND-branch sa1 must use
        // the pin observability (not the stem's, which is higher).
        let mut b = CircuitBuilder::new("br");
        let a = b.input("a");
        let c = b.input("c");
        let g = b.and2(a, c);
        let w = b.buf(a);
        b.output(g, "g");
        b.output(w, "w");
        let ckt = b.finish().unwrap();
        let probs = InputProbs::uniform(2);
        let node_probs = exhaustive_signal_probs(&ckt, &probs).unwrap();
        let obs = compute_observability(&ckt, &node_probs, &AnalyzerParams::default());
        let branch = Fault::input_pin(g, 0, StuckAt::One);
        let est = detection_probability(&ckt, branch, &node_probs, &obs);
        let exact = exact_detection_probability(&ckt, branch, &probs).unwrap();
        assert!((est - exact).abs() < 1e-9, "est {est} exact {exact}");
    }
}
