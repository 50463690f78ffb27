use crate::csr::Csr;
use crate::netlist::{Circuit, NodeId};
use crate::nodeset::NodeSet;

/// Fanout map of a circuit: row `i` lists the `(successor, pin)` pairs
/// that consume node `i`, ascending by successor.
pub type Fanouts = Csr<(NodeId, u8)>;

impl Fanouts {
    /// Builds the fanout map.
    pub fn new(circuit: &Circuit) -> Self {
        Csr::group(circuit.num_nodes(), |emit| {
            for (id, node) in circuit.iter() {
                for (pin, &f) in node.fanins().iter().enumerate() {
                    emit(f.index(), (id, pin as u8));
                }
            }
        })
    }

    /// The `(successor, pin)` pairs reading node `id`.
    pub fn of(&self, id: NodeId) -> &[(NodeId, u8)] {
        self.row(id.index())
    }

    /// Number of distinct gate pins reading node `id`.
    pub fn degree(&self, id: NodeId) -> usize {
        self.of(id).len()
    }

    /// Whether the node drives two or more pins (a fanout stem).
    pub fn is_stem(&self, id: NodeId) -> bool {
        self.degree(id) >= 2
    }
}

/// The transitive fanin cone of `root`, bounded by `max_depth` edges,
/// including `root` itself.
pub fn fanin_cone(circuit: &Circuit, root: NodeId, max_depth: usize) -> NodeSet {
    let mut set = NodeSet::new(circuit.num_nodes());
    let mut frontier = vec![root];
    set.insert(root);
    for _ in 0..max_depth {
        let mut next = Vec::new();
        for id in frontier.drain(..) {
            for &f in circuit.node(id).fanins() {
                if set.insert(f) {
                    next.push(f);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    set
}

/// The forward cone (transitive fanout) of `root`, including `root`.
pub fn cone_of_influence(circuit: &Circuit, fanouts: &Fanouts, root: NodeId) -> NodeSet {
    let mut set = NodeSet::new(circuit.num_nodes());
    let mut stack = vec![root];
    set.insert(root);
    while let Some(id) = stack.pop() {
        for &(succ, _) in fanouts.of(id) {
            if set.insert(succ) {
                stack.push(succ);
            }
        }
    }
    set
}

/// Joining-point search (`V(a,b)` in the paper, Fig. 2).
///
/// A node `x` is a *joining point* of `(a, b)` if it has at least two
/// immediate successors, one of which lies on a path to `a` and another on a
/// (different) path to `b`. A 2-input AND with inputs `a`, `b` has a
/// reconvergent fanout at its output iff `V(a,b)` is nonempty; the PROTEST
/// estimator conditions its probability on the logic values of a subset of
/// `V(a,b)`.
///
/// The search is bounded: only nodes within `max_depth` fanin edges of `a` or
/// `b` are considered (the paper's `MAXLIST` parameter).
#[derive(Debug)]
pub struct JoiningPoints {
    scratch_a: NodeSet,
    scratch_b: NodeSet,
}

impl JoiningPoints {
    /// Creates a reusable search context for one circuit size.
    pub fn new(circuit: &Circuit) -> Self {
        JoiningPoints {
            scratch_a: NodeSet::new(circuit.num_nodes()),
            scratch_b: NodeSet::new(circuit.num_nodes()),
        }
    }

    /// Computes `V(a, b)` bounded by `max_depth` (`MAXLIST`).
    ///
    /// Returns joining points in increasing node-id order.
    pub fn find(
        &mut self,
        circuit: &Circuit,
        fanouts: &Fanouts,
        a: NodeId,
        b: NodeId,
        max_depth: usize,
    ) -> Vec<NodeId> {
        self.scratch_a.clear();
        self.scratch_b.clear();
        bounded_cone_into(circuit, a, max_depth, &mut self.scratch_a);
        bounded_cone_into(circuit, b, max_depth, &mut self.scratch_b);
        let mut out = Vec::new();
        // Candidates must lie in both cones (a path to `a` and to `b` exists)
        // and must fan out through *different* immediate successors toward
        // `a` and `b`.
        for x in self.scratch_a.iter() {
            if !self.scratch_b.contains(x) {
                continue;
            }
            if fanouts.degree(x) < 2 {
                continue;
            }
            let mut to_a = false;
            let mut to_b = false;
            let mut distinct = false;
            for &(succ, _) in fanouts.of(x) {
                let sa = succ == a || self.scratch_a.contains(succ);
                let sb = succ == b || self.scratch_b.contains(succ);
                if sa && to_b || sb && to_a || (sa && sb) {
                    distinct = true;
                }
                to_a |= sa;
                to_b |= sb;
            }
            // `distinct` guards the degenerate case where a single successor
            // reaches both a and b but no second successor reaches either:
            // then x does not *join* at (a, b) through different branches.
            // A successor reaching both counts for either side.
            if to_a && to_b && distinct {
                out.push(x);
            }
        }
        out
    }
}

fn bounded_cone_into(circuit: &Circuit, root: NodeId, max_depth: usize, set: &mut NodeSet) {
    set.insert(root);
    let mut frontier = vec![root];
    for _ in 0..max_depth {
        let mut next = Vec::new();
        for id in frontier.drain(..) {
            for &f in circuit.node(id).fanins() {
                if set.insert(f) {
                    next.push(f);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;

    /// The circuit of the paper's Fig. 2: two stems x1, x2 joining at an AND.
    ///
    /// x1 fans out to g_a (toward a) and to x2's consumer side; x2 fans out
    /// toward both a and b; c = AND(a, b).
    #[test]
    fn fig2_joining_points() {
        let mut b = CircuitBuilder::new("fig2");
        let i1 = b.input("i1");
        let i2 = b.input("i2");
        let x1 = b.or2(i1, i2); // stem 1
        let x2 = b.not(x1); // stem 2 (downstream of x1)
        let a = b.and2(x1, x2);
        let bb = b.not(x2);
        let c = b.and2(a, bb);
        b.output(c, "c");
        let ckt = b.finish().unwrap();
        let fo = Fanouts::new(&ckt);
        assert!(fo.is_stem(x1));
        assert!(fo.is_stem(x2));
        let mut jp = JoiningPoints::new(&ckt);
        let v = jp.find(&ckt, &fo, a, bb, 10);
        assert_eq!(v, vec![x1, x2]);
    }

    #[test]
    fn no_joining_points_in_tree() {
        let mut b = CircuitBuilder::new("tree");
        let xs = b.input_bus("x", 4);
        let l = b.and2(xs[0], xs[1]);
        let r = b.and2(xs[2], xs[3]);
        let t = b.and2(l, r);
        b.output(t, "z");
        let ckt = b.finish().unwrap();
        let fo = Fanouts::new(&ckt);
        let mut jp = JoiningPoints::new(&ckt);
        assert!(jp.find(&ckt, &fo, l, r, 10).is_empty());
    }

    #[test]
    fn shared_input_is_joining_point() {
        // z = AND(NOT s, OR(s, t)) — s joins the two branches.
        let mut b = CircuitBuilder::new("c");
        let s = b.input("s");
        let t = b.input("t");
        let ns = b.not(s);
        let o = b.or2(s, t);
        let z = b.and2(ns, o);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let fo = Fanouts::new(&ckt);
        let mut jp = JoiningPoints::new(&ckt);
        assert_eq!(jp.find(&ckt, &fo, ns, o, 10), vec![s]);
    }

    #[test]
    fn depth_bound_limits_search() {
        // Put the joining point 3 levels behind `a`; a bound of 1 misses it.
        let mut b = CircuitBuilder::new("c");
        let s = b.input("s");
        let t = b.input("t");
        let n1 = b.not(s);
        let n2 = b.not(n1);
        let n3 = b.not(n2);
        let o = b.or2(s, t);
        let z = b.and2(n3, o);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let fo = Fanouts::new(&ckt);
        let mut jp = JoiningPoints::new(&ckt);
        assert_eq!(jp.find(&ckt, &fo, n3, o, 10), vec![s]);
        assert!(jp.find(&ckt, &fo, n3, o, 1).is_empty());
    }

    #[test]
    fn fanout_map_matches_fanins() {
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let x = b.not(a);
        let y = b.and2(a, x);
        let z = b.or2(a, y);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let fo = Fanouts::new(&ckt);
        assert_eq!(fo.degree(a), 3);
        assert_eq!(fo.degree(x), 1);
        assert_eq!(fo.degree(z), 0);
        let mut pins: Vec<(NodeId, u8)> = fo.of(a).to_vec();
        pins.sort();
        assert_eq!(pins, vec![(x, 0), (y, 0), (z, 0)]);
    }

    #[test]
    fn cones() {
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let c = b.input("c");
        let x = b.and2(a, c);
        let y = b.not(x);
        b.output(y, "z");
        let ckt = b.finish().unwrap();
        let fo = Fanouts::new(&ckt);
        let cone = fanin_cone(&ckt, y, 10);
        assert_eq!(cone.len(), 4);
        let bounded = fanin_cone(&ckt, y, 1);
        assert_eq!(bounded.len(), 2); // y and x only
        let coi = cone_of_influence(&ckt, &fo, a);
        assert!(coi.contains(y));
        assert!(!coi.contains(c));
    }
}
