//! AND/inverter graph (AIG) view of a circuit.
//!
//! The paper presents its estimator over circuits of inverters and 2-input
//! ANDs ("to simplify the notation […] only inverters and 2-input ANDs are
//! used") while accepting arbitrary components. We make the same move
//! operational: every circuit is decomposed into a structurally-hashed AIG,
//! the estimator runs on the AIG, and a node map carries probabilities back
//! to the original netlist. Inverters are free (complement edges), so the
//! estimator's case analysis reduces to exactly the paper's four cases.

use std::collections::HashMap;

use protest_netlist::{Circuit, Csr, GateKind, Levels, NodeId, TruthTable};

/// Index of an AIG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AigNodeId(u32);

impl AigNodeId {
    /// Raw index (0 is the constant-TRUE node).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index (crate-internal; ids are only
    /// meaningful for the AIG that allocated them).
    pub(crate) fn from_index(i: usize) -> Self {
        AigNodeId(i as u32)
    }
}

/// A literal: an AIG node with an optional complement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AigLit(u32);

impl AigLit {
    /// The constant TRUE literal.
    pub const TRUE: AigLit = AigLit(0);
    /// The constant FALSE literal.
    pub const FALSE: AigLit = AigLit(1);

    fn new(node: AigNodeId, complement: bool) -> Self {
        AigLit(node.0 << 1 | u32::from(complement))
    }

    /// The underlying node.
    pub fn node(self) -> AigNodeId {
        AigNodeId(self.0 >> 1)
    }

    /// Whether the literal is complemented.
    pub fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complemented literal (named after the AIG-literature operation;
    /// the `Not` trait is not implemented so call sites stay explicit).
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> AigLit {
        AigLit(self.0 ^ 1)
    }

    /// Whether this is one of the constant literals.
    pub fn is_const(self) -> bool {
        self.node().0 == 0
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AigNode {
    /// The constant TRUE node (always node 0).
    ConstTrue,
    /// Primary input (position in the circuit's input list).
    Input(u32),
    /// 2-input AND of two literals.
    And(AigLit, AigLit),
}

/// A structurally hashed AND/inverter graph tied to a source [`Circuit`].
#[derive(Debug, Clone)]
pub struct Aig {
    nodes: Vec<AigNode>,
    /// For each circuit node, the literal computing its function.
    node_lit: Vec<AigLit>,
    strash: HashMap<(AigLit, AigLit), AigNodeId>,
    num_inputs: usize,
}

impl Aig {
    /// Decomposes a circuit into an AIG.
    ///
    /// Nodes are created in topological order, so an `AigNodeId`'s fanins
    /// always have smaller indices — estimator passes iterate `1..len`.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let mut aig = Aig {
            nodes: vec![AigNode::ConstTrue],
            node_lit: vec![AigLit::FALSE; circuit.num_nodes()],
            strash: HashMap::new(),
            num_inputs: circuit.num_inputs(),
        };
        // Inputs get fixed node slots 1..=n in declaration order.
        let mut input_lits = Vec::with_capacity(circuit.num_inputs());
        for pos in 0..circuit.num_inputs() {
            let id = AigNodeId(aig.nodes.len() as u32);
            aig.nodes.push(AigNode::Input(pos as u32));
            input_lits.push(AigLit::new(id, false));
        }
        let levels = Levels::new(circuit);
        for &cid in levels.order() {
            let node = circuit.node(cid);
            let fanins: Vec<AigLit> = node
                .fanins()
                .iter()
                .map(|&f| aig.node_lit[f.index()])
                .collect();
            let lit = match node.kind() {
                GateKind::Input => {
                    let pos = circuit
                        .input_position(cid)
                        .expect("input node missing from input list");
                    input_lits[pos]
                }
                GateKind::Const(v) => {
                    if v {
                        AigLit::TRUE
                    } else {
                        AigLit::FALSE
                    }
                }
                GateKind::Buf => fanins[0],
                GateKind::Not => fanins[0].not(),
                GateKind::And => aig.and_many(&fanins),
                GateKind::Nand => aig.and_many(&fanins).not(),
                GateKind::Or => aig.or_many(&fanins),
                GateKind::Nor => aig.or_many(&fanins).not(),
                GateKind::Xor => aig.xor_many(&fanins),
                GateKind::Xnor => aig.xor_many(&fanins).not(),
                GateKind::Lut(lid) => aig.lut(circuit.lut(lid), &fanins),
            };
            aig.node_lit[cid.index()] = lit;
        }
        aig
    }

    /// Number of AIG nodes (constant + inputs + ANDs).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the AIG is empty (never true: the constant node exists).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of AND nodes.
    pub fn num_ands(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, AigNode::And(..)))
            .count()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// The literal computing a circuit node's function.
    pub fn lit_of(&self, circuit_node: NodeId) -> AigLit {
        self.node_lit[circuit_node.index()]
    }

    /// If the node is an AND, its two fanin literals.
    pub fn and_fanins(&self, id: AigNodeId) -> Option<(AigLit, AigLit)> {
        match self.nodes[id.index()] {
            AigNode::And(a, b) => Some((a, b)),
            _ => None,
        }
    }

    /// If the node is an input, its position in the circuit input list.
    pub fn input_position(&self, id: AigNodeId) -> Option<usize> {
        match self.nodes[id.index()] {
            AigNode::Input(pos) => Some(pos as usize),
            _ => None,
        }
    }

    /// The AIG node carrying primary input `pos`. Inputs occupy the fixed
    /// slots `1..=num_inputs` in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= num_inputs()`.
    pub fn input_node(&self, pos: usize) -> AigNodeId {
        assert!(pos < self.num_inputs, "input position out of range");
        let id = AigNodeId::from_index(pos + 1);
        debug_assert_eq!(self.input_position(id), Some(pos));
        id
    }

    fn mk_and(&mut self, a: AigLit, b: AigLit) -> AigLit {
        // Constant folding and trivial cases.
        if a == AigLit::FALSE || b == AigLit::FALSE || a == b.not() {
            return AigLit::FALSE;
        }
        if a == AigLit::TRUE {
            return b;
        }
        if b == AigLit::TRUE || a == b {
            return a;
        }
        let (a, b) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        if let Some(&id) = self.strash.get(&(a, b)) {
            return AigLit::new(id, false);
        }
        let id = AigNodeId(self.nodes.len() as u32);
        self.nodes.push(AigNode::And(a, b));
        self.strash.insert((a, b), id);
        AigLit::new(id, false)
    }

    fn and_many(&mut self, lits: &[AigLit]) -> AigLit {
        let mut acc = AigLit::TRUE;
        for &l in lits {
            acc = self.mk_and(acc, l);
        }
        acc
    }

    fn or_many(&mut self, lits: &[AigLit]) -> AigLit {
        let neg: Vec<AigLit> = lits.iter().map(|l| l.not()).collect();
        self.and_many(&neg).not()
    }

    fn xor2(&mut self, a: AigLit, b: AigLit) -> AigLit {
        // a ⊕ b = ¬(¬(a·¬b) · ¬(¬a·b))
        let t1 = self.mk_and(a, b.not());
        let t2 = self.mk_and(a.not(), b);
        self.mk_and(t1.not(), t2.not()).not()
    }

    fn xor_many(&mut self, lits: &[AigLit]) -> AigLit {
        let mut acc = AigLit::FALSE;
        for &l in lits {
            acc = self.xor2(acc, l);
        }
        acc
    }

    /// Shannon expansion of a truth table over fanin literals.
    fn lut(&mut self, table: &TruthTable, fanins: &[AigLit]) -> AigLit {
        let n = table.num_inputs();
        assert_eq!(n, fanins.len());
        self.lut_rec(table, fanins, n, 0)
    }

    /// Expands on the highest variable first; `fixed` holds the minterm bits
    /// already decided for variables `var..n`.
    fn lut_rec(
        &mut self,
        table: &TruthTable,
        fanins: &[AigLit],
        var: usize,
        fixed: usize,
    ) -> AigLit {
        if var == 0 {
            return if table.bit(fixed) {
                AigLit::TRUE
            } else {
                AigLit::FALSE
            };
        }
        let v = var - 1;
        let f0 = self.lut_rec(table, fanins, v, fixed);
        let f1 = self.lut_rec(table, fanins, v, fixed | (1 << v));
        if f0 == f1 {
            return f0;
        }
        // ite(x, f1, f0) = ¬(¬(x·f1)·¬(¬x·f0))
        let x = fanins[v];
        let t1 = self.mk_and(x, f1);
        let t0 = self.mk_and(x.not(), f0);
        self.mk_and(t1.not(), t0.not()).not()
    }

    /// Evaluates a literal under a scalar input assignment (test helper;
    /// estimation never calls this).
    pub fn eval_lit(&self, lit: AigLit, inputs: &[bool]) -> bool {
        let mut values = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            values[i] = match *node {
                AigNode::ConstTrue => true,
                AigNode::Input(pos) => inputs[pos as usize],
                AigNode::And(a, b) => {
                    let va = values[a.node().index()] ^ a.is_complement();
                    let vb = values[b.node().index()] ^ b.is_complement();
                    va && vb
                }
            };
        }
        values[lit.node().index()] ^ lit.is_complement()
    }

    /// Fanout lists over AIG nodes: row `i` lists, ascending, the AND nodes
    /// reading node `i` (once, even when both fanins read it).
    pub(crate) fn fanout_map(&self) -> Csr<AigNodeId> {
        Csr::group(self.nodes.len(), |emit| {
            for (i, node) in self.nodes.iter().enumerate() {
                if let AigNode::And(a, b) = *node {
                    emit(a.node().index(), AigNodeId(i as u32));
                    if b.node() != a.node() {
                        emit(b.node().index(), AigNodeId(i as u32));
                    }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use protest_netlist::CircuitBuilder;

    use super::*;

    #[test]
    fn gates_decompose_correctly() {
        let mut b = CircuitBuilder::new("g");
        let xs = b.input_bus("x", 3);
        let and3 = b.and(&xs);
        let or3 = b.or(&xs);
        let xor3 = b.xor_tree(&xs);
        let nand2 = b.nand2(xs[0], xs[1]);
        b.output(and3, "a");
        b.output(or3, "o");
        b.output(xor3, "x");
        b.output(nand2, "n");
        let ckt = b.finish().unwrap();
        let aig = Aig::from_circuit(&ckt);
        for mask in 0..8usize {
            let ins: Vec<bool> = (0..3).map(|i| (mask >> i) & 1 == 1).collect();
            let all = ins.iter().all(|&v| v);
            let any = ins.iter().any(|&v| v);
            let par = ins.iter().filter(|&&v| v).count() % 2 == 1;
            assert_eq!(aig.eval_lit(aig.lit_of(and3), &ins), all);
            assert_eq!(aig.eval_lit(aig.lit_of(or3), &ins), any);
            assert_eq!(aig.eval_lit(aig.lit_of(xor3), &ins), par);
            assert_eq!(aig.eval_lit(aig.lit_of(nand2), &ins), !(ins[0] && ins[1]));
        }
    }

    #[test]
    fn strashing_dedups() {
        let mut b = CircuitBuilder::new("d");
        let a = b.input("a");
        let c = b.input("c");
        let g1 = b.and2(a, c);
        let g2 = b.and2(c, a); // same function, swapped pins
        b.output(g1, "z1");
        b.output(g2, "z2");
        let ckt = b.finish().unwrap();
        let aig = Aig::from_circuit(&ckt);
        assert_eq!(aig.lit_of(g1), aig.lit_of(g2));
        assert_eq!(aig.num_ands(), 1);
    }

    #[test]
    fn constant_folding() {
        let mut b = CircuitBuilder::new("k");
        let a = b.input("a");
        let na = b.not(a);
        let z = b.and2(a, na); // constant false
        let one = b.constant(true);
        let w = b.and2(a, one); // = a
        b.output(z, "z");
        b.output(w, "w");
        let ckt = b.finish().unwrap();
        let aig = Aig::from_circuit(&ckt);
        assert_eq!(aig.lit_of(z), AigLit::FALSE);
        assert_eq!(aig.lit_of(w), aig.lit_of(a));
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn lut_expansion_matches_table() {
        let mut b = CircuitBuilder::new("l");
        let xs = b.input_bus("x", 3);
        let t = b.add_table(TruthTable::from_fn(3, |m| m.count_ones() >= 2).unwrap());
        let z = b.lut(t, &xs);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let aig = Aig::from_circuit(&ckt);
        for mask in 0..8usize {
            let ins: Vec<bool> = (0..3).map(|i| (mask >> i) & 1 == 1).collect();
            assert_eq!(
                aig.eval_lit(aig.lit_of(z), &ins),
                mask.count_ones() >= 2,
                "mask={mask}"
            );
        }
    }

    #[test]
    fn xor_matches_on_larger_fanin() {
        let mut b = CircuitBuilder::new("x");
        let xs = b.input_bus("x", 4);
        let z = b.gate(GateKind::Xnor, &xs);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let aig = Aig::from_circuit(&ckt);
        for mask in 0..16usize {
            let ins: Vec<bool> = (0..4).map(|i| (mask >> i) & 1 == 1).collect();
            assert_eq!(
                aig.eval_lit(aig.lit_of(z), &ins),
                mask.count_ones() % 2 == 0
            );
        }
    }
}
