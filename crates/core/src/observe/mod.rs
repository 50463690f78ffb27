//! Observability: the paper's signal-flow model (Sec. 3).
//!
//! For each pin `x` of a component, `s(x)` is the probability that a
//! sensitized path exists from `x` to a primary output. With `x` the output
//! pin of a gate `f` and `x₁ … xₘ` the input pins of other components
//! connected to it:
//!
//! ```text
//! s(x)   = s(x₁) ⊕ s(x₂) ⊕ … ⊕ s(xₘ)          (⊕(t,y) = t + y − 2ty)
//! s(eᵢ)  = s(x) · ( f̂(p…, 0, …p) ⊕ f̂(p…, 1, …p) )
//! ```
//!
//! where `f̂` is the arithmetic multilinear extension of the gate function
//! (the paper's unique mapping `¬x ↦ 1−x`, `x·y ↦ x·y`). The alternative
//! model for many-output circuits replaces the stem combiner by
//! `s(x) = 1 − (1−s₁)…(1−sₘ)`. Both are selectable via
//! [`ObservabilityModel`](crate::params::ObservabilityModel); primary
//! outputs contribute an observation branch with `s = 1`.
//!
//! The module has two layers:
//!
//! * `model` — the pure per-gate math (multilinear extensions, pin
//!   sensitivities).
//! * `engine` — [`ObservabilityEngine`]: amortized levelization/fanout
//!   structure, the level-wavefront evaluation (one fan-out of the level's
//!   nodes over the executor's threads) and the full reverse sweep built
//!   on it, which every one-shot run and every session query takes.

use protest_netlist::{Circuit, Csr, NodeId};

use crate::params::AnalyzerParams;

mod engine;
mod model;

pub use engine::ObservabilityEngine;
pub(crate) use engine::{NodeEvalScratch, StemAdjust};
pub use model::{multilinear, xor_combine};

/// Observability values for every node output and every gate input pin.
///
/// The pin values are one [`Csr`] row per node in pin order, so a
/// full-circuit value set is three allocations however many gates it
/// covers.
#[derive(Debug, Clone)]
pub struct Observability {
    node_s: Vec<f64>,
    pin_s: Csr<f64>,
}

impl Observability {
    /// `s(x)` for a node's output net.
    pub fn node(&self, id: NodeId) -> f64 {
        self.node_s[id.index()]
    }

    /// `s(eᵢ)` for input pin `pin` of `gate`.
    ///
    /// # Panics
    ///
    /// Panics if the pin does not exist.
    pub fn pin(&self, gate: NodeId, pin: usize) -> f64 {
        self.pin_s[gate.index()][pin]
    }

    /// All node observabilities, indexable by node index.
    pub fn node_values(&self) -> &[f64] {
        &self.node_s
    }

    /// The per-gate pin observability rows (crate-internal: the sweeps
    /// and the test-point scorer's what-if sweeps read them through
    /// [`ObservabilityEngine::eval_node_adjusted`](engine)).
    pub(crate) fn pin_rows(&self) -> &Csr<f64> {
        &self.pin_s
    }

    /// Stores one node's sweep result.
    pub(crate) fn store(&mut self, id: NodeId, s: f64, pins: &[f64]) {
        let i = id.index();
        self.node_s[i] = s;
        self.pin_s.row_mut(i).copy_from_slice(pins);
    }

    /// An all-zero observability with one pin per fanin of each node of
    /// `circuit` (crate-internal: the engine's fresh value sets and the
    /// scatter target of the partitioned one-shot pass).
    pub(crate) fn zeroed(circuit: &Circuit) -> Observability {
        let pins = circuit.nodes().map(|n| n.fanins().len()).sum();
        let mut pin_s = Csr::with_capacity(circuit.num_nodes(), pins);
        for node in circuit.nodes() {
            pin_s.push_row(std::iter::repeat_n(0.0, node.fanins().len()));
        }
        Observability {
            node_s: vec![0.0; circuit.num_nodes()],
            pin_s,
        }
    }

    /// Copies a sub-circuit's values into this full-circuit observability;
    /// `node_map[i]` is the global node index of sub node `i`.
    pub(crate) fn scatter_from(&mut self, sub: &Observability, node_map: &[u32]) {
        for (si, &gi) in node_map.iter().enumerate() {
            self.store(
                NodeId::from_index(gi as usize),
                sub.node_s[si],
                &sub.pin_s[si],
            );
        }
    }
}

/// Computes observabilities in one reverse-topological pass.
///
/// `node_probs[i]` is the signal probability of circuit node `i` (from the
/// estimator or an exact method). One-shot convenience around
/// [`ObservabilityEngine`]; callers that re-evaluate the same circuit many
/// times (the optimizer hot loop, [`crate::AnalysisSession`]) should go
/// through a session instead — it keeps one engine and one result buffer
/// alive and sweeps again only after a change.
pub fn compute_observability(
    circuit: &Circuit,
    node_probs: &[f64],
    params: &AnalyzerParams,
) -> Observability {
    ObservabilityEngine::new(circuit, params).compute(node_probs)
}

#[cfg(test)]
mod tests {
    use protest_netlist::{CircuitBuilder, TruthTable};

    use crate::params::{InputProbs, ObservabilityModel, PinSensitivityModel};
    use crate::sigprob::exhaustive_signal_probs;

    use super::*;

    fn analyze(
        circuit: &Circuit,
        probs: &[f64],
        params: &AnalyzerParams,
    ) -> (Vec<f64>, Observability) {
        let ip = InputProbs::from_slice(probs).unwrap();
        let node_probs = exhaustive_signal_probs(circuit, &ip).unwrap();
        let obs = compute_observability(circuit, &node_probs, params);
        (node_probs, obs)
    }

    #[test]
    fn chain_observability() {
        // a → NOT → NOT → z: every net fully observable.
        let mut b = CircuitBuilder::new("chain");
        let a = b.input("a");
        let n1 = b.not(a);
        let n2 = b.not(n1);
        b.output(n2, "z");
        let ckt = b.finish().unwrap();
        let (_, obs) = analyze(&ckt, &[0.5], &AnalyzerParams::default());
        for id in [a, n1, n2] {
            assert!((obs.node(id) - 1.0).abs() < 1e-12, "{id}");
        }
    }

    #[test]
    fn and_gate_pin_observability() {
        // z = AND(a, c): pin a observable iff c = 1.
        let mut b = CircuitBuilder::new("and");
        let a = b.input("a");
        let c = b.input("c");
        let z = b.and2(a, c);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let (_, obs) = analyze(&ckt, &[0.5, 0.25], &AnalyzerParams::default());
        assert!((obs.node(z) - 1.0).abs() < 1e-12);
        assert!((obs.node(a) - 0.25).abs() < 1e-12);
        assert!((obs.node(c) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn xor_gate_pins_fully_sensitive_in_bd_mode() {
        let mut b = CircuitBuilder::new("x");
        let a = b.input("a");
        let c = b.input("c");
        let z = b.xor2(a, c);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let params = AnalyzerParams {
            pin_sensitivity: PinSensitivityModel::BooleanDifference,
            ..AnalyzerParams::default()
        };
        let (_, obs) = analyze(&ckt, &[0.3, 0.9], &params);
        assert!((obs.node(a) - 1.0).abs() < 1e-12);
        assert!((obs.node(c) - 1.0).abs() < 1e-12);
        // The literal arithmetic-XOR transcription is pessimistic here.
        let paper = AnalyzerParams {
            pin_sensitivity: PinSensitivityModel::ArithmeticXor,
            ..AnalyzerParams::default()
        };
        let (_, obs) = analyze(&ckt, &[0.3, 0.9], &paper);
        assert!(obs.node(a) < 1.0);
    }

    #[test]
    fn paper_mode_underestimates_xor_pins() {
        // The ArithmeticXor model treats the cofactors as independent and
        // computes p ⊕ (1−p) < 1 — the "very simple modeling of the signal
        // flow" the paper blames for its P_SIM ≥ P_PROT bias (Fig. 6).
        let mut b = CircuitBuilder::new("x");
        let a = b.input("a");
        let c = b.input("c");
        let z = b.xor2(a, c);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let params = AnalyzerParams {
            pin_sensitivity: PinSensitivityModel::ArithmeticXor,
            ..AnalyzerParams::default()
        };
        let (_, obs) = analyze(&ckt, &[0.5, 0.5], &params);
        // f̂(0, p)=p, f̂(1, p)=1−p; p ⊕ (1−p) at p=0.5 is 0.5.
        assert!((obs.node(a) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parity_model_cancels_even_reconvergence() {
        // z = XOR(a, a) built through two branches of a stem — in the parity
        // model the stem is unobservable (both paths always cancel), which
        // is physically correct here: z is constant.
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let b1 = b.buf(a);
        let b2 = b.buf(a);
        let z = b.xor2(b1, b2);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let params = AnalyzerParams {
            observability: ObservabilityModel::Parity,
            pin_sensitivity: PinSensitivityModel::BooleanDifference,
            ..AnalyzerParams::default()
        };
        let (_, obs) = analyze(&ckt, &[0.5], &params);
        assert!(
            obs.node(a).abs() < 1e-12,
            "stem must cancel: {}",
            obs.node(a)
        );
    }

    #[test]
    fn anypath_model_does_not_cancel() {
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let b1 = b.buf(a);
        let b2 = b.buf(a);
        let z = b.xor2(b1, b2);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let params = AnalyzerParams {
            observability: ObservabilityModel::AnyPath,
            pin_sensitivity: PinSensitivityModel::BooleanDifference,
            ..AnalyzerParams::default()
        };
        let (_, obs) = analyze(&ckt, &[0.5], &params);
        assert!(obs.node(a) > 0.9, "any-path keeps stems observable");
    }

    #[test]
    fn multilinear_of_lut_matches_gate() {
        // LUT implementing AND3 must match the AND multilinear.
        let mut b = CircuitBuilder::new("l");
        let xs = b.input_bus("x", 3);
        let t = b.add_table(TruthTable::from_fn(3, |m| m == 7).unwrap());
        let z = b.lut(t, &xs);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let kind = ckt.node(z).kind();
        let probs = [0.3, 0.6, 0.9];
        let got = multilinear(&ckt, kind, &probs);
        assert!((got - 0.3 * 0.6 * 0.9).abs() < 1e-12);
    }

    #[test]
    fn dead_node_is_unobservable() {
        let mut b = CircuitBuilder::new("d");
        let a = b.input("a");
        let dead = b.not(a);
        let z = b.buf(a);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let (_, obs) = analyze(&ckt, &[0.5], &AnalyzerParams::default());
        assert_eq!(obs.node(dead), 0.0);
    }
}
