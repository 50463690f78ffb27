use crate::csr::Csr;
use crate::netlist::{Circuit, NodeId};

/// Topological order and logic levels of a circuit.
///
/// Level 0 holds primary inputs and constants; every gate sits one level above
/// its deepest fanin. The nodes are kept as one row per level, ascending by
/// node id within a row, so the concatenated rows are a topological order
/// sorted by `(level, id)` and repeated levelizations of the same circuit are
/// identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levels {
    /// Row `l` holds the nodes of level `l`, ascending.
    rows: Csr<NodeId>,
    level: Vec<u32>,
}

impl Levels {
    /// Levelizes a circuit.
    ///
    /// # Panics
    ///
    /// Panics if the circuit contains a cycle. Circuits produced by
    /// [`crate::CircuitBuilder`] or the parsers are always acyclic; only
    /// hand-assembled `Circuit` values that skipped
    /// [`Circuit::validate`](crate::Circuit::validate) can trip this.
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.num_nodes();
        let fanouts = circuit.fanouts();
        let mut level = vec![0u32; n];
        let mut indeg: Vec<u32> = circuit.nodes().map(|v| v.fanins().len() as u32).collect();
        // Kahn's algorithm: a node is popped after all its fanins, so its
        // level is final by then.
        let mut ready: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        let mut visited = 0usize;
        while let Some(v) = ready.pop() {
            visited += 1;
            let lv = level[v as usize];
            for &u in &fanouts[v as usize] {
                level[u as usize] = level[u as usize].max(lv + 1);
                indeg[u as usize] -= 1;
                if indeg[u as usize] == 0 {
                    ready.push(u);
                }
            }
        }
        assert_eq!(visited, n, "circuit contains a cycle");
        // Every level up to the deepest one is occupied: a node's deepest
        // fanin sits one level below it.
        let levels = level.iter().max().map_or(0, |&d| d as usize + 1);
        let rows = Csr::group(levels, |emit| {
            for (i, &l) in level.iter().enumerate() {
                emit(l as usize, NodeId(i as u32));
            }
        });
        Levels { rows, level }
    }

    /// Nodes in a valid evaluation order (fanins always precede fanouts),
    /// sorted by `(level, id)`.
    pub fn order(&self) -> &[NodeId] {
        self.rows.values()
    }

    /// The nodes grouped by level: row `l` holds level `l`'s nodes,
    /// ascending. Nodes in one row never read each other.
    pub fn rows(&self) -> &Csr<NodeId> {
        &self.rows
    }

    /// The logic level of a node (0 for inputs/constants).
    pub fn level(&self, id: NodeId) -> u32 {
        self.level[id.index()]
    }

    /// The maximum level in the circuit (its logic depth).
    pub fn depth(&self) -> u32 {
        self.rows.len().saturating_sub(1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;

    #[test]
    fn levels_of_chain() {
        let mut b = CircuitBuilder::new("chain");
        let a = b.input("a");
        let n1 = b.not(a);
        let n2 = b.not(n1);
        let n3 = b.not(n2);
        b.output(n3, "z");
        let ckt = b.finish().unwrap();
        let lv = Levels::new(&ckt);
        assert_eq!(lv.level(a), 0);
        assert_eq!(lv.level(n1), 1);
        assert_eq!(lv.level(n3), 3);
        assert_eq!(lv.depth(), 3);
    }

    #[test]
    fn order_respects_dependencies() {
        let mut b = CircuitBuilder::new("c");
        let xs = b.input_bus("x", 5);
        let t = b.xor_tree(&xs);
        let u = b.and2(t, xs[0]);
        b.output(u, "z");
        let ckt = b.finish().unwrap();
        let lv = Levels::new(&ckt);
        let mut pos = vec![0usize; ckt.num_nodes()];
        for (i, id) in lv.order().iter().enumerate() {
            pos[id.index()] = i;
        }
        for (id, node) in ckt.iter() {
            for &f in node.fanins() {
                assert!(pos[f.index()] < pos[id.index()], "fanin after fanout");
            }
        }
    }

    #[test]
    fn unbalanced_levels() {
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let c = b.input("c");
        let deep = {
            let mut x = a;
            for _ in 0..4 {
                x = b.not(x);
            }
            x
        };
        let g = b.and2(deep, c);
        b.output(g, "z");
        let ckt = b.finish().unwrap();
        let lv = Levels::new(&ckt);
        assert_eq!(lv.level(g), 5);
        assert_eq!(lv.depth(), 5);
        // order sorted by level: the AND gate must come last.
        assert_eq!(*lv.order().last().unwrap(), g);
    }
}
