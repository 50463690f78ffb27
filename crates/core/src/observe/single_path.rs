//! Single-path sensitization probability (paper Sec. 3, the "option").
//!
//! "A test pattern sensitizes a single path from a pin x of some logical
//! component … to a primary output o, if there is exactly one path from x
//! to o, in which the logical value at each node depends from the value at
//! x." The detection probability of a stuck-at-ī at `x` is then bounded
//! below by the probability that `x` carries `i` while some single path is
//! sensitized.
//!
//! This module enumerates paths from a node to the primary outputs (up to a
//! configurable number) and estimates, for each path π, the probability
//!
//! ```text
//! P(π sensitized) = Π_{gates g on π} P(side inputs of g non-controlling)
//! ```
//!
//! under the independence assumption, using the node signal probabilities
//! supplied by the caller. The returned value `max_π P(π sensitized)` is a
//! *lower-bound–flavored* estimate of observability: it ignores both
//! multi-path sensitization and side-input correlation, which is exactly
//! the simplification the paper attributes to this option ("this can be
//! reduced to the calculation of signal probabilities too. This method
//! still needs a considerable computing time").

use protest_netlist::analyze::Fanouts;
use protest_netlist::{Circuit, GateKind, NodeId};
use std::sync::Arc;

/// Configuration for the path enumerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinglePathParams {
    /// Maximum number of paths enumerated per start node.
    pub max_paths: usize,
    /// Maximum path length in gates (guards pathological depth).
    pub max_length: usize,
}

impl Default for SinglePathParams {
    fn default() -> Self {
        SinglePathParams {
            max_paths: 64,
            max_length: 256,
        }
    }
}

/// Estimator for single-path sensitization probabilities.
#[derive(Debug)]
pub struct SinglePathEstimator {
    circuit: Arc<Circuit>,
    fanouts: Fanouts,
    params: SinglePathParams,
}

impl SinglePathEstimator {
    /// Creates an estimator over a circuit, which it shares (a `&Circuit`
    /// argument is cloned once).
    pub fn new(circuit: impl Into<Arc<Circuit>>, params: SinglePathParams) -> Self {
        let circuit = circuit.into();
        SinglePathEstimator {
            fanouts: Fanouts::new(&circuit),
            circuit,
            params,
        }
    }

    /// Estimates the probability that *some single path* from `start` to a
    /// primary output is sensitized, as the best single-path probability
    /// found within the enumeration budget.
    ///
    /// `node_probs[i]` must hold the signal probability of node `i`.
    pub fn observability(&self, start: NodeId, node_probs: &[f64]) -> f64 {
        assert_eq!(
            node_probs.len(),
            self.circuit.num_nodes(),
            "one probability per node"
        );
        let mut best = 0.0f64;
        let mut paths_left = self.params.max_paths;
        self.walk(start, 1.0, 0, node_probs, &mut best, &mut paths_left);
        best
    }

    /// Depth-first walk accumulating the sensitization product.
    fn walk(
        &self,
        node: NodeId,
        prob: f64,
        length: usize,
        node_probs: &[f64],
        best: &mut f64,
        paths_left: &mut usize,
    ) {
        if *paths_left == 0 || prob <= *best {
            // The product only shrinks along a path; prune.
            return;
        }
        if self.circuit.is_output(node) {
            *paths_left -= 1;
            if prob > *best {
                *best = prob;
            }
            // A primary output also continues into its fanouts (it may be
            // observed *and* feed further logic); observation here already
            // counts, so stop this path.
            return;
        }
        if length >= self.params.max_length {
            return;
        }
        for &(gate, pin) in self.fanouts.of(node) {
            let sens = side_input_sensitization(&self.circuit, gate, pin as usize, node_probs);
            if sens <= 0.0 {
                continue;
            }
            self.walk(gate, prob * sens, length + 1, node_probs, best, paths_left);
        }
    }
}

/// Probability that all side inputs of `gate` (relative to `pin`) hold
/// non-controlling values, i.e. the gate passes pin changes through.
fn side_input_sensitization(
    circuit: &Circuit,
    gate: NodeId,
    pin: usize,
    node_probs: &[f64],
) -> f64 {
    let node = circuit.node(gate);
    let others = node
        .fanins()
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != pin)
        .map(|(_, &f)| node_probs[f.index()]);
    match node.kind() {
        GateKind::Buf | GateKind::Not => 1.0,
        GateKind::And | GateKind::Nand => others.product(),
        GateKind::Or | GateKind::Nor => others.map(|p| 1.0 - p).product(),
        GateKind::Xor | GateKind::Xnor => 1.0,
        GateKind::Lut(lid) => {
            // Average Boolean difference of the LUT with respect to `pin`.
            let table = circuit.lut(lid);
            let n = table.num_inputs();
            let probs: Vec<f64> = node
                .fanins()
                .iter()
                .map(|&f| node_probs[f.index()])
                .collect();
            let mut total = 0.0;
            for m in 0..(1usize << n) {
                if (m >> pin) & 1 == 1 {
                    continue;
                }
                if table.bit(m) == table.bit(m | (1 << pin)) {
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
        GateKind::Input | GateKind::Const(_) => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use protest_netlist::CircuitBuilder;

    use crate::params::InputProbs;
    use crate::sigprob::exhaustive_signal_probs;

    use super::*;

    fn probs_of(circuit: &Circuit, input_probs: &[f64]) -> Vec<f64> {
        exhaustive_signal_probs(circuit, &InputProbs::from_slice(input_probs).unwrap()).unwrap()
    }

    #[test]
    fn chain_has_full_observability() {
        let mut b = CircuitBuilder::new("chain");
        let a = b.input("a");
        let n1 = b.not(a);
        let n2 = b.not(n1);
        b.output(n2, "z");
        let ckt = b.finish().unwrap();
        let probs = probs_of(&ckt, &[0.5]);
        let est = SinglePathEstimator::new(&ckt, SinglePathParams::default());
        assert!((est.observability(a, &probs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn and_chain_multiplies_side_inputs() {
        // a → AND(c) → AND(d) → z: path prob = p_c · p_d.
        let mut b = CircuitBuilder::new("ac");
        let a = b.input("a");
        let c = b.input("c");
        let d = b.input("d");
        let g1 = b.and2(a, c);
        let g2 = b.and2(g1, d);
        b.output(g2, "z");
        let ckt = b.finish().unwrap();
        let probs = probs_of(&ckt, &[0.5, 0.25, 0.8]);
        let est = SinglePathEstimator::new(&ckt, SinglePathParams::default());
        assert!((est.observability(a, &probs) - 0.25 * 0.8).abs() < 1e-12);
    }

    #[test]
    fn best_of_multiple_paths_is_taken() {
        // a fans out to an AND (hard side input) and an OR (easy): the OR
        // path dominates.
        let mut b = CircuitBuilder::new("mp");
        let a = b.input("a");
        let c = b.input("c");
        let hard = b.and2(a, c); // sens = p_c
        let easy = b.or2(a, c); // sens = 1 − p_c
        b.output(hard, "h");
        b.output(easy, "e");
        let ckt = b.finish().unwrap();
        let probs = probs_of(&ckt, &[0.5, 0.1]);
        let est = SinglePathEstimator::new(&ckt, SinglePathParams::default());
        assert!((est.observability(a, &probs) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn dead_node_has_zero() {
        let mut b = CircuitBuilder::new("dead");
        let a = b.input("a");
        let dead = b.not(a);
        let z = b.buf(a);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let probs = probs_of(&ckt, &[0.5]);
        let est = SinglePathEstimator::new(&ckt, SinglePathParams::default());
        let _ = dead;
        assert_eq!(est.observability(dead, &probs), 0.0);
    }

    #[test]
    fn single_path_lower_bounds_exact_observability_on_trees() {
        // On a fanout-free circuit the single best path IS the only path,
        // and the estimate matches the exact pin observability.
        let mut b = CircuitBuilder::new("t");
        let xs = b.input_bus("x", 4);
        let l = b.and2(xs[0], xs[1]);
        let r = b.or2(xs[2], xs[3]);
        let z = b.nand2(l, r);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let ip = [0.5, 0.7, 0.2, 0.4];
        let probs = probs_of(&ckt, &ip);
        let est = SinglePathEstimator::new(&ckt, SinglePathParams::default());
        // x0's path runs through the AND (side input x1 must be 1) and the
        // NAND (controlling value 0, so the side input r must be 1).
        let p_r = 1.0 - (1.0 - 0.2) * (1.0 - 0.4);
        let got = est.observability(xs[0], &probs);
        assert!((got - 0.7 * p_r).abs() < 1e-12, "got {got}");
    }

    #[test]
    fn budget_limits_enumeration() {
        // A wide fanout cloud with tiny budget still terminates and returns
        // a sane probability.
        let mut b = CircuitBuilder::new("w");
        let a = b.input("a");
        let c = b.input("c");
        let mut outs = Vec::new();
        for i in 0..20 {
            let g = if i % 2 == 0 {
                b.and2(a, c)
            } else {
                b.or2(a, c)
            };
            outs.push(g);
        }
        for (i, o) in outs.iter().enumerate() {
            b.output(*o, format!("z{i}"));
        }
        let ckt = b.finish().unwrap();
        let probs = probs_of(&ckt, &[0.5, 0.5]);
        let est = SinglePathEstimator::new(
            &ckt,
            SinglePathParams {
                max_paths: 3,
                max_length: 10,
            },
        );
        let got = est.observability(a, &probs);
        assert!((0.0..=1.0).contains(&got));
        assert!(got >= 0.5, "an OR path with p=0.5 side exists: {got}");
    }
}
