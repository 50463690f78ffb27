//! Test-point insertion: structural netlist editing for DFT.
//!
//! The PROTEST analyses report *where* a circuit resists random-pattern
//! testing; acting on that means inserting **test points** and re-analyzing
//! the modified circuit. This module is the editing substrate: it rewrites
//! a [`Circuit`] with a test point inserted, preserving every existing
//! [`NodeId`] (new nodes are appended, never renumbered) so analysis
//! results, fault lists and candidate bookkeeping computed on the original
//! circuit remain addressable on the modified one.
//!
//! Three classic point kinds ([`TestPointKind`]):
//!
//! * **Observe** — a `BUF` from the target net to a fresh primary output
//!   (a pseudo-output): the net becomes fully observable.
//! * **Control-0** — an `AND` of the target net with a fresh primary input
//!   (a pseudo-input): driving the input to 0 forces the net low, and under
//!   weighted random patterns a pseudo-input probability `q` scales the
//!   net's signal probability to `p·q`.
//! * **Control-1** — an `OR` with a fresh pseudo-input: probability shifts
//!   to `1 − (1−p)(1−q)`.
//!
//! Control points take over the driven *net*: every consumer of the target
//! node — gate fanins and primary-output declarations alike — is redirected
//! to the inserted gate, and when the target carries a name the gate
//! inherits it (the original driver is renamed with a `_td<k>` suffix, the
//! way synthesis tools keep the net name on the post-insertion driver).
//! Generated names (`tpo<k>`, `tpc<k>`, `tpg<k>`, `…_td<k>`) are made
//! unique against the circuit's existing names, so writer round-trips stay
//! loss-free.
//!
//! The rewritten circuit is re-validated; levelization ([`crate::Levels`])
//! is derived on demand by consumers, so no stored structure goes stale.

use std::collections::HashSet;
use std::fmt;

use crate::error::NetlistError;
use crate::gate::GateKind;
use crate::netlist::{Circuit, CircuitParts, NodeId};

/// The kind of test point to insert (see the module docs above).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TestPointKind {
    /// Pseudo-output observation point: `tpo = BUF(net)`, `OUTPUT(tpo)`.
    Observe,
    /// Control-0 point: `net' = AND(net, tpc)` with pseudo-input `tpc`.
    ControlZero,
    /// Control-1 point: `net' = OR(net, tpc)` with pseudo-input `tpc`.
    ControlOne,
}

impl TestPointKind {
    /// Whether the point adds a pseudo-input (control points do).
    pub fn is_control(self) -> bool {
        !matches!(self, TestPointKind::Observe)
    }

    /// Short mnemonic used in reports: `obs`, `c0`, `c1`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            TestPointKind::Observe => "obs",
            TestPointKind::ControlZero => "c0",
            TestPointKind::ControlOne => "c1",
        }
    }
}

impl fmt::Display for TestPointKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One requested insertion: a target node and a point kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TestPointSpec {
    /// The net (node output) the point attaches to.
    pub node: NodeId,
    /// What to insert there.
    pub kind: TestPointKind,
}

/// The record of one committed insertion, returned by
/// [`insert_test_point`]. All ids refer to the *modified* circuit; ids of
/// pre-existing nodes are unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertedPoint {
    /// The request this realizes.
    pub spec: TestPointSpec,
    /// The inserted gate: the observation `BUF`, or the control `AND`/`OR`
    /// now driving the target's former consumers.
    pub gate: NodeId,
    /// The fresh pseudo-input (control points only), appended to the end
    /// of the circuit's input list.
    pub control_input: Option<NodeId>,
    /// The fresh pseudo-output's position in the output list (observation
    /// points only).
    pub observe_output: Option<usize>,
    /// The inserted gate's signal name (inherited from the target net for
    /// control points on named nets).
    pub gate_name: String,
    /// The pseudo-input's name (control points only).
    pub control_input_name: Option<String>,
}

/// Inserts one test point, returning the rewritten circuit and the
/// insertion record. See the module docs above for the rewrite rules.
///
/// # Errors
///
/// Returns [`NetlistError::TestPoint`] if the target node does not exist
/// or is a constant (a test point on a constant net is meaningless), and
/// any [`Circuit::validate`] error should the rewrite be invalid (cannot
/// happen for valid inputs; kept as a safety net).
pub fn insert_test_point(
    circuit: &Circuit,
    spec: TestPointSpec,
) -> Result<(Circuit, InsertedPoint), NetlistError> {
    if spec.node.index() >= circuit.num_nodes() {
        return Err(NetlistError::TestPoint {
            message: format!("target node {} does not exist", spec.node),
        });
    }
    if matches!(circuit.node(spec.node).kind(), GateKind::Const(_)) {
        return Err(NetlistError::TestPoint {
            message: format!("target node {} is a constant net", spec.node),
        });
    }
    let mut names: HashSet<String> = circuit.names.iter().flatten().cloned().collect();
    let mut parts = CircuitParts::from_circuit(circuit);
    let target = spec.node;

    let point = match spec.kind {
        TestPointKind::Observe => {
            let name = fresh_name(&mut names, "tpo");
            let gate = parts.push_node(GateKind::Buf, &[target], Some(name.clone()));
            let position = parts.outputs.len();
            parts.outputs.push(gate);
            parts.output_names.push(Some(name.clone()));
            InsertedPoint {
                spec,
                gate,
                control_input: None,
                observe_output: Some(position),
                gate_name: name,
                control_input_name: None,
            }
        }
        TestPointKind::ControlZero | TestPointKind::ControlOne => {
            // The gate inherits the net's name; the original driver gets a
            // `_td<k>` suffix so downstream references keep resolving to
            // the post-insertion net.
            let gate_name = match parts.names[target.index()].take() {
                Some(old) => {
                    let renamed = fresh_name(&mut names, &format!("{old}_td"));
                    parts.names[target.index()] = Some(renamed);
                    old
                }
                None => fresh_name(&mut names, "tpg"),
            };
            let input_name = fresh_name(&mut names, "tpc");
            let ctrl = parts.push_node(GateKind::Input, &[], Some(input_name.clone()));
            parts.inputs.push(ctrl);
            let kind = match spec.kind {
                TestPointKind::ControlZero => GateKind::And,
                _ => GateKind::Or,
            };
            // Redirect every consumer of the target net — gate pins and
            // primary-output declarations — to the inserted gate. The
            // pre-existing fanin rows cover exactly the consumers
            // that must move; the inserted gate's own pins (appended next)
            // keep reading the original driver.
            let gate_id = NodeId(parts.len() as u32);
            for f in parts.fanins.values_mut().iter_mut() {
                if *f == target {
                    *f = gate_id;
                }
            }
            let gate = parts.push_node(kind, &[target, ctrl], Some(gate_name.clone()));
            debug_assert_eq!(gate, gate_id);
            for o in parts.outputs.iter_mut() {
                if *o == target {
                    *o = gate;
                }
            }
            InsertedPoint {
                spec,
                gate,
                control_input: Some(ctrl),
                observe_output: None,
                gate_name,
                control_input_name: Some(input_name),
            }
        }
    };

    let modified = parts.assemble();
    modified.validate()?;
    Ok((modified, point))
}

/// Applies a sequence of insertions in order. Because every insertion
/// preserves existing ids, later specs may reference nodes of the original
/// circuit *or* gates inserted by earlier specs in the same batch.
///
/// # Errors
///
/// Propagates the first [`insert_test_point`] error. The result is
/// all-or-nothing: on error the partially modified circuit is discarded,
/// so validate specs up front if a prefix would be worth keeping.
pub fn insert_test_points(
    circuit: &Circuit,
    specs: &[TestPointSpec],
) -> Result<(Circuit, Vec<InsertedPoint>), NetlistError> {
    let mut current = circuit.clone();
    let mut points = Vec::with_capacity(specs.len());
    for &spec in specs {
        let (next, point) = insert_test_point(&current, spec)?;
        current = next;
        points.push(point);
    }
    Ok((current, points))
}

/// Picks `<prefix><k>` for the smallest `k ≥ 0` not yet taken, claiming it.
fn fresh_name(taken: &mut HashSet<String>, prefix: &str) -> String {
    for k in 0.. {
        let candidate = format!("{prefix}{k}");
        if !taken.contains(&candidate) {
            taken.insert(candidate.clone());
            return candidate;
        }
    }
    unreachable!("u64 name counter exhausted")
}

#[cfg(test)]
mod tests {
    use crate::builder::CircuitBuilder;
    use crate::levelize::Levels;

    use super::*;

    fn sample() -> Circuit {
        // a, c → g = AND(a, c) → z = NOT(g); g also feeds w = BUF(g).
        let mut b = CircuitBuilder::new("s");
        let a = b.input("a");
        let c = b.input("c");
        let g = b.and2(a, c);
        b.name(g, "g");
        let z = b.not(g);
        let w = b.buf(g);
        b.output(z, "z");
        b.output(w, "w");
        b.finish().unwrap()
    }

    #[test]
    fn observe_point_adds_pseudo_output() {
        let ckt = sample();
        let g = ckt.find("g").unwrap();
        let (m, p) = insert_test_point(
            &ckt,
            TestPointSpec {
                node: g,
                kind: TestPointKind::Observe,
            },
        )
        .unwrap();
        assert_eq!(m.num_inputs(), ckt.num_inputs());
        assert_eq!(m.num_outputs(), ckt.num_outputs() + 1);
        assert_eq!(p.observe_output, Some(2));
        assert_eq!(m.outputs()[2], p.gate);
        assert_eq!(m.node(p.gate).kind(), GateKind::Buf);
        assert_eq!(m.node(p.gate).fanins(), &[g]);
        // Existing ids and names untouched.
        assert_eq!(m.find("g"), Some(g));
        assert_eq!(m.output_name(2), Some(p.gate_name.as_str()));
    }

    #[test]
    fn control_point_redirects_consumers_and_inherits_name() {
        let ckt = sample();
        let g = ckt.find("g").unwrap();
        let (m, p) = insert_test_point(
            &ckt,
            TestPointSpec {
                node: g,
                kind: TestPointKind::ControlZero,
            },
        )
        .unwrap();
        assert_eq!(m.num_inputs(), ckt.num_inputs() + 1);
        assert_eq!(m.inputs().last(), Some(&p.control_input.unwrap()));
        // The gate took over the net name; the driver got a suffix.
        assert_eq!(p.gate_name, "g");
        assert_eq!(m.find("g"), Some(p.gate));
        assert_eq!(m.node(g).name(), Some("g_td0"));
        // Every former consumer of g now reads the gate.
        for (id, node) in m.iter() {
            if id == p.gate {
                assert_eq!(node.fanins(), &[g, p.control_input.unwrap()]);
            } else {
                assert!(!node.fanins().contains(&g), "{id} still reads the driver");
            }
        }
        assert_eq!(m.node(p.gate).kind(), GateKind::And);
        // Levelization still works on the rewritten DAG.
        let levels = Levels::new(&m);
        assert!(levels.level(p.gate) > levels.level(g));
    }

    #[test]
    fn control_point_redirects_primary_outputs() {
        let mut b = CircuitBuilder::new("po");
        let a = b.input("a");
        let z = b.not(a);
        b.name(z, "z");
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let (m, p) = insert_test_point(
            &ckt,
            TestPointSpec {
                node: z,
                kind: TestPointKind::ControlOne,
            },
        )
        .unwrap();
        assert_eq!(m.outputs(), &[p.gate]);
        assert_eq!(m.node(p.gate).kind(), GateKind::Or);
        assert_eq!(m.output_name(0), Some("z"));
    }

    #[test]
    fn generated_names_avoid_existing_ones() {
        let mut b = CircuitBuilder::new("clash");
        let a = b.input("tpc0");
        let z = b.not(a);
        b.name(z, "tpg0");
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let (m, p) = insert_test_point(
            &ckt,
            TestPointSpec {
                node: a,
                kind: TestPointKind::ControlZero,
            },
        )
        .unwrap();
        assert_eq!(p.control_input_name.as_deref(), Some("tpc1"));
        assert_eq!(p.gate_name, "tpc0"); // inherited from the (named) input net
        assert!(m.validate().is_ok());
    }

    #[test]
    fn batch_insertion_composes() {
        let ckt = sample();
        let g = ckt.find("g").unwrap();
        let specs = [
            TestPointSpec {
                node: g,
                kind: TestPointKind::Observe,
            },
            TestPointSpec {
                node: g,
                kind: TestPointKind::ControlOne,
            },
        ];
        let (m, points) = insert_test_points(&ckt, &specs).unwrap();
        assert_eq!(points.len(), 2);
        // The control gate (second insertion) feeds the observation BUF
        // inserted first: consumers were redirected.
        let buf = points[0].gate;
        assert_eq!(m.node(buf).fanins(), &[points[1].gate]);
    }

    #[test]
    fn rejects_constants_and_bad_ids() {
        let mut b = CircuitBuilder::new("k");
        let a = b.input("a");
        let c = b.constant(true);
        let z = b.and2(a, c);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let bad = TestPointSpec {
            node: c,
            kind: TestPointKind::Observe,
        };
        assert!(matches!(
            insert_test_point(&ckt, bad),
            Err(NetlistError::TestPoint { .. })
        ));
        let oob = TestPointSpec {
            node: NodeId::from_index(99),
            kind: TestPointKind::Observe,
        };
        assert!(matches!(
            insert_test_point(&ckt, oob),
            Err(NetlistError::TestPoint { .. })
        ));
    }
}
