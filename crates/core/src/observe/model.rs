//! The per-gate signal-flow model: multilinear gate extensions and pin
//! sensitivities (the `f̂(p…, 0, …p) ⊕ f̂(p…, 1, …p)` factor of the paper's
//! recursion). Pure functions of one gate — the sweep schedule lives in
//! [`super::engine`].

use protest_netlist::{Circuit, GateKind};

use crate::params::{AnalyzerParams, PinSensitivityModel};

/// The paper's associative combiner `t ⊕ y = t + y − 2ty`
/// (probability of an XOR of independent events).
pub fn xor_combine(t: f64, y: f64) -> f64 {
    t + y - 2.0 * t * y
}

/// Reusable cofactor buffers for [`pin_sensitivity`]'s ArithmeticXor mode.
///
/// A reverse sweep evaluates one sensitivity per gate input pin — on the
/// optimizer hot loop that is millions of calls, so the two cofactor
/// probability vectors are caller-owned scratch instead of per-call
/// allocations (the computed values are unchanged).
#[derive(Debug, Clone, Default)]
pub(crate) struct SensScratch {
    q0: Vec<f64>,
    q1: Vec<f64>,
}

/// Probability that the gate output follows input pin `pin`.
pub(crate) fn pin_sensitivity(
    circuit: &Circuit,
    kind: GateKind,
    probs: &[f64],
    pin: usize,
    params: &AnalyzerParams,
    scratch: &mut SensScratch,
) -> f64 {
    match params.pin_sensitivity {
        PinSensitivityModel::ArithmeticXor => {
            scratch.q0.clear();
            scratch.q0.extend_from_slice(probs);
            scratch.q0[pin] = 0.0;
            scratch.q1.clear();
            scratch.q1.extend_from_slice(probs);
            scratch.q1[pin] = 1.0;
            xor_combine(
                multilinear(circuit, kind, &scratch.q0),
                multilinear(circuit, kind, &scratch.q1),
            )
        }
        PinSensitivityModel::BooleanDifference => boolean_difference(circuit, kind, probs, pin),
    }
}

/// The arithmetic multilinear extension `f̂` of a gate function, evaluated at
/// a probability vector.
pub fn multilinear(circuit: &Circuit, kind: GateKind, probs: &[f64]) -> f64 {
    match kind {
        GateKind::Input => unreachable!("inputs have no gate function"),
        GateKind::Const(v) => {
            if v {
                1.0
            } else {
                0.0
            }
        }
        GateKind::Buf => probs[0],
        GateKind::Not => 1.0 - probs[0],
        GateKind::And => probs.iter().product(),
        GateKind::Nand => 1.0 - probs.iter().product::<f64>(),
        GateKind::Or => 1.0 - probs.iter().map(|p| 1.0 - p).product::<f64>(),
        GateKind::Nor => probs.iter().map(|p| 1.0 - p).product(),
        GateKind::Xor => probs.iter().copied().fold(0.0, xor_combine),
        GateKind::Xnor => 1.0 - probs.iter().copied().fold(0.0, xor_combine),
        GateKind::Lut(lid) => {
            let table = circuit.lut(lid);
            let n = table.num_inputs();
            let mut total = 0.0;
            for m in 0..(1usize << n) {
                if !table.bit(m) {
                    continue;
                }
                let mut w = 1.0;
                for (i, &p) in probs.iter().enumerate() {
                    w *= if (m >> i) & 1 == 1 { p } else { 1.0 - p };
                }
                total += w;
            }
            total
        }
    }
}

/// Exact `P(f|ₚᵢₙ₌₀ ≠ f|ₚᵢₙ₌₁)` under independent inputs.
fn boolean_difference(circuit: &Circuit, kind: GateKind, probs: &[f64], pin: usize) -> f64 {
    match kind {
        GateKind::Buf | GateKind::Not => 1.0,
        GateKind::Xor | GateKind::Xnor => 1.0,
        GateKind::And | GateKind::Nand => probs
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != pin)
            .map(|(_, &p)| p)
            .product(),
        GateKind::Or | GateKind::Nor => probs
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != pin)
            .map(|(_, &p)| 1.0 - p)
            .product(),
        GateKind::Const(_) => 0.0,
        GateKind::Input => unreachable!("inputs have no gate function"),
        GateKind::Lut(lid) => {
            let table = circuit.lut(lid);
            let n = table.num_inputs();
            let mut total = 0.0;
            // Enumerate assignments of the other pins.
            for m in 0..(1usize << n) {
                if (m >> pin) & 1 == 1 {
                    continue; // canonical: pin bit 0; pair with pin bit 1
                }
                let f0 = table.bit(m);
                let f1 = table.bit(m | (1 << pin));
                if f0 == f1 {
                    continue;
                }
                let mut w = 1.0;
                for (i, &p) in probs.iter().enumerate() {
                    if i == pin {
                        continue;
                    }
                    w *= if (m >> i) & 1 == 1 { p } else { 1.0 - p };
                }
                total += w;
            }
            total
        }
    }
}
