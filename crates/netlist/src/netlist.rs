use std::collections::HashMap;
use std::fmt;

use crate::csr::Csr;
use crate::error::NetlistError;
use crate::gate::{GateKind, LutId, TruthTable};

/// Index of a node inside a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Creates an id from a raw index.
    ///
    /// Mostly useful for iterating `0..circuit.num_nodes()`.
    pub fn from_index(i: usize) -> Self {
        NodeId(i as u32)
    }

    /// The raw index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A view of a single gate (or input/constant) in a circuit.
///
/// Circuits store their nodes in flat struct-of-arrays form (one kinds
/// array, one fanin [`Csr`] table, one names array); a `Node` is a
/// cheap `Copy` handle into that storage, not an owned record. Its
/// accessors borrow from the circuit, so a slice obtained through
/// [`Node::fanins`] stays valid after the handle itself goes out of scope.
#[derive(Clone, Copy)]
pub struct Node<'a> {
    circuit: &'a Circuit,
    idx: u32,
}

impl<'a> Node<'a> {
    /// The logic function of the node.
    pub fn kind(&self) -> GateKind {
        self.circuit.kinds[self.idx as usize]
    }

    /// The fanin nodes, in pin order.
    pub fn fanins(&self) -> &'a [NodeId] {
        self.circuit.fanins_of(self.idx as usize)
    }

    /// The declared signal name, if any.
    pub fn name(&self) -> Option<&'a str> {
        self.circuit.names[self.idx as usize].as_deref()
    }

    /// This node's id in the circuit.
    pub fn id(&self) -> NodeId {
        NodeId(self.idx)
    }
}

impl fmt::Debug for Node<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("id", &NodeId(self.idx))
            .field("kind", &self.kind())
            .field("fanins", &self.fanins())
            .field("name", &self.name())
            .finish()
    }
}

/// An immutable combinational circuit: a DAG of [`Node`]s with designated
/// primary inputs and primary outputs.
///
/// Circuits are created through [`CircuitBuilder`](crate::CircuitBuilder) or
/// the parsers, both of which validate arity, acyclicity and name uniqueness.
/// Any node may be marked as a primary output; output order is the
/// declaration order.
///
/// # Storage
///
/// Nodes are held in struct-of-arrays form: a flat kinds array, a flat
/// optional-name array and one fanin [`Csr`] table — no per-node heap
/// allocations. Construction additionally
/// derives an input-position table and a primary-output bitset, so
/// [`input_position`](Circuit::input_position) and
/// [`is_output`](Circuit::is_output) are O(1) (both sit on per-node hot
/// paths of the analysis passes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Circuit {
    pub(crate) name: String,
    pub(crate) kinds: Vec<GateKind>,
    pub(crate) names: Vec<Option<String>>,
    /// Each node's fanins, in pin order.
    pub(crate) fanins: Csr<NodeId>,
    pub(crate) inputs: Vec<NodeId>,
    pub(crate) outputs: Vec<NodeId>,
    pub(crate) output_names: Vec<Option<String>>,
    pub(crate) luts: Vec<TruthTable>,
    /// Derived: position in `inputs` per node (`u32::MAX` = not an input).
    input_pos: Vec<u32>,
    /// Derived: bitset over node indices of the primary outputs.
    output_words: Vec<u64>,
}

/// The unassembled storage of a circuit under construction: the flat
/// struct-of-arrays fields of [`Circuit`] without the derived lookup
/// structures. The builder, the parsers and the test-point editor all
/// accumulate into one of these and call [`CircuitParts::assemble`], which
/// computes the derived fields in one O(n) pass.
#[derive(Debug, Clone)]
pub(crate) struct CircuitParts {
    pub(crate) name: String,
    pub(crate) kinds: Vec<GateKind>,
    pub(crate) names: Vec<Option<String>>,
    pub(crate) fanins: Csr<NodeId>,
    pub(crate) inputs: Vec<NodeId>,
    pub(crate) outputs: Vec<NodeId>,
    pub(crate) output_names: Vec<Option<String>>,
    pub(crate) luts: Vec<TruthTable>,
}

impl CircuitParts {
    /// Empty storage for a named circuit.
    pub(crate) fn new(name: impl Into<String>) -> Self {
        CircuitParts {
            name: name.into(),
            kinds: Vec::new(),
            names: Vec::new(),
            fanins: Csr::default(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            output_names: Vec::new(),
            luts: Vec::new(),
        }
    }

    /// Reopens an assembled circuit for structural editing (the test-point
    /// inserter appends nodes and redirects fanins in place).
    pub(crate) fn from_circuit(circuit: &Circuit) -> Self {
        CircuitParts {
            name: circuit.name.clone(),
            kinds: circuit.kinds.clone(),
            names: circuit.names.clone(),
            fanins: circuit.fanins.clone(),
            inputs: circuit.inputs.clone(),
            outputs: circuit.outputs.clone(),
            output_names: circuit.output_names.clone(),
            luts: circuit.luts.clone(),
        }
    }

    /// Number of nodes pushed so far.
    pub(crate) fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Appends one node and its fanin row.
    pub(crate) fn push_node(
        &mut self,
        kind: GateKind,
        fanins: &[NodeId],
        name: Option<String>,
    ) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.names.push(name);
        self.fanins.push_row(fanins.iter().copied());
        id
    }

    /// Builds the [`Circuit`], deriving the O(1) lookup structures. Does
    /// **not** validate — callers run [`Circuit::validate`] afterwards.
    pub(crate) fn assemble(self) -> Circuit {
        let n = self.kinds.len();
        let mut input_pos = vec![u32::MAX; n];
        for (p, &id) in self.inputs.iter().enumerate() {
            if id.index() < n && input_pos[id.index()] == u32::MAX {
                input_pos[id.index()] = p as u32;
            }
        }
        let mut output_words = vec![0u64; n.div_ceil(64)];
        for &o in &self.outputs {
            if o.index() < n {
                output_words[o.index() >> 6] |= 1 << (o.index() & 63);
            }
        }
        Circuit {
            name: self.name,
            kinds: self.kinds,
            names: self.names,
            fanins: self.fanins,
            inputs: self.inputs,
            outputs: self.outputs,
            output_names: self.output_names,
            luts: self.luts,
            input_pos,
            output_words,
        }
    }
}

/// Shares a borrowed circuit by cloning it once, so owners that take
/// `impl Into<Arc<Circuit>>` accept `&Circuit`, an owned `Circuit` or an
/// existing `Arc` alike.
impl From<&Circuit> for std::sync::Arc<Circuit> {
    fn from(circuit: &Circuit) -> Self {
        std::sync::Arc::new(circuit.clone())
    }
}

impl Circuit {
    /// The circuit's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of nodes (inputs + gates + constants).
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of logic gates (nodes that are neither inputs nor constants).
    pub fn num_gates(&self) -> usize {
        self.kinds
            .iter()
            .filter(|k| !matches!(k, GateKind::Input | GateKind::Const(_)))
            .count()
    }

    /// The fanin slice of the node at `index`.
    pub(crate) fn fanins_of(&self, index: usize) -> &[NodeId] {
        self.fanins.row(index)
    }

    /// Every node's consumers: row `i` lists, ascending, each node with a
    /// fanin pin on node `i` (once per pin).
    pub(crate) fn fanouts(&self) -> Csr<u32> {
        Csr::group(self.num_nodes(), |emit| {
            for (i, fanins) in self.fanins.iter().enumerate() {
                for &f in fanins {
                    emit(f.index(), i as u32);
                }
            }
        })
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> Node<'_> {
        assert!(id.index() < self.kinds.len(), "node id out of range");
        Node {
            circuit: self,
            idx: id.0,
        }
    }

    /// Iterates over all nodes in storage order ([`NodeId::index`] order).
    pub fn nodes(&self) -> impl Iterator<Item = Node<'_>> {
        (0..self.kinds.len() as u32).map(|idx| Node { circuit: self, idx })
    }

    /// Iterates over `(id, node)` pairs in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Node<'_>)> {
        (0..self.kinds.len() as u32).map(|idx| (NodeId(idx), Node { circuit: self, idx }))
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs in declaration order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// The position of `id` in the primary input list, if it is an input.
    /// O(1) via the derived position table.
    pub fn input_position(&self, id: NodeId) -> Option<usize> {
        match self.input_pos.get(id.index()) {
            Some(&p) if p != u32::MAX => Some(p as usize),
            _ => None,
        }
    }

    /// Whether `id` is marked as a primary output. O(1) via the derived
    /// output bitset.
    pub fn is_output(&self, id: NodeId) -> bool {
        self.output_words
            .get(id.index() >> 6)
            .is_some_and(|w| (w >> (id.index() & 63)) & 1 == 1)
    }

    /// The name of the `i`-th primary output (explicit output name, falling
    /// back to the driving node's name).
    pub fn output_name(&self, i: usize) -> Option<&str> {
        self.output_names[i]
            .as_deref()
            .or_else(|| self.names[self.outputs[i].index()].as_deref())
    }

    /// The interned truth table behind a [`GateKind::Lut`] node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn lut(&self, id: LutId) -> &TruthTable {
        &self.luts[id.index()]
    }

    /// All interned truth tables.
    pub fn luts(&self) -> &[TruthTable] {
        &self.luts
    }

    /// Finds a node by name (inputs, gates and named outputs).
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.names
            .iter()
            .position(|n| n.as_deref() == Some(name))
            .map(|i| NodeId(i as u32))
    }

    /// A display name for the node: its declared name or `n<i>`.
    pub fn node_label(&self, id: NodeId) -> String {
        match &self.names[id.index()] {
            Some(n) => n.clone(),
            None => format!("{id}"),
        }
    }

    /// Bytes of heap memory held by the flat structural arrays (kinds,
    /// fanin table, interface lists and the derived lookup tables). Signal
    /// names are excluded — they are presentation data, not hot-path
    /// structure. Exposed so the CLI's `stats` counters can report the
    /// struct-of-arrays footprint.
    pub fn flat_storage_bytes(&self) -> usize {
        self.kinds.len() * std::mem::size_of::<GateKind>()
            + self.fanins.storage_bytes()
            + (self.inputs.len() + self.outputs.len()) * std::mem::size_of::<NodeId>()
            + self.input_pos.len() * std::mem::size_of::<u32>()
            + self.output_words.len() * std::mem::size_of::<u64>()
    }

    /// Validates structural invariants. Called by the builder and parsers;
    /// exposed for circuits assembled by other means.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: bad arity, dangling fanin,
    /// unknown LUT, combinational cycle, duplicate name, or an empty
    /// input/output interface.
    pub fn validate(&self) -> Result<(), NetlistError> {
        if self.inputs.is_empty() {
            return Err(NetlistError::EmptyInterface { what: "inputs" });
        }
        if self.outputs.is_empty() {
            return Err(NetlistError::EmptyInterface { what: "outputs" });
        }
        let n = self.kinds.len();
        for i in 0..n {
            let id = NodeId(i as u32);
            let kind = self.kinds[i];
            let fanins = self.fanins_of(i);
            if !kind.arity_ok(fanins.len()) {
                return Err(NetlistError::Arity {
                    kind: kind.mnemonic(),
                    got: fanins.len(),
                    expected: kind.arity_expected(),
                });
            }
            if let GateKind::Lut(lid) = kind {
                let table = self
                    .luts
                    .get(lid.index())
                    .ok_or(NetlistError::UnknownLut { id: lid.index() })?;
                if table.num_inputs() != fanins.len() {
                    return Err(NetlistError::Arity {
                        kind: "lut",
                        got: fanins.len(),
                        expected: "the table's declared width",
                    });
                }
            }
            for &f in fanins {
                if f.index() >= n {
                    return Err(NetlistError::DanglingFanin { node: id, fanin: f });
                }
            }
        }
        // Cycle check via Kahn's algorithm over the fanout table.
        let fanouts = self.fanouts();
        let mut indeg: Vec<u32> = self.fanins.iter().map(|f| f.len() as u32).collect();
        let mut queue: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        let mut emitted = 0usize;
        while let Some(v) = queue.pop() {
            emitted += 1;
            for &u in &fanouts[v as usize] {
                indeg[u as usize] -= 1;
                if indeg[u as usize] == 0 {
                    queue.push(u);
                }
            }
        }
        if emitted != n {
            let node = (0..n)
                .find(|&i| indeg[i] > 0)
                .map(|i| NodeId(i as u32))
                .expect("some node must remain on a cycle");
            return Err(NetlistError::Cycle { node });
        }
        // Duplicate names.
        let mut seen: HashMap<&str, NodeId> = HashMap::new();
        for (i, name) in self.names.iter().enumerate() {
            if let Some(name) = name.as_deref() {
                if seen.insert(name, NodeId(i as u32)).is_some() {
                    return Err(NetlistError::DuplicateName {
                        name: name.to_string(),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::CircuitBuilder;

    #[test]
    fn basic_accessors() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let g = b.and2(a, c);
        b.output(g, "z");
        let ckt = b.finish().unwrap();
        assert_eq!(ckt.name(), "t");
        assert_eq!(ckt.num_nodes(), 3);
        assert_eq!(ckt.num_gates(), 1);
        assert_eq!(ckt.inputs().len(), 2);
        assert_eq!(ckt.outputs(), &[g]);
        assert_eq!(ckt.find("a"), Some(a));
        assert_eq!(ckt.input_position(c), Some(1));
        assert!(ckt.is_output(g));
        assert!(!ckt.is_output(a));
        assert_eq!(ckt.output_name(0), Some("z"));
        assert_eq!(ckt.node_label(a), "a");
    }

    #[test]
    fn flat_storage_is_contiguous() {
        let mut b = CircuitBuilder::new("t");
        let xs = b.input_bus("x", 3);
        let g1 = b.and2(xs[0], xs[1]);
        let g2 = b.or2(g1, xs[2]);
        b.output(g2, "z");
        let ckt = b.finish().unwrap();
        // Every node's fanins come from one shared array; positions are O(1).
        assert_eq!(ckt.node(g1).fanins(), &[xs[0], xs[1]]);
        assert_eq!(ckt.node(g2).fanins(), &[g1, xs[2]]);
        for (p, &i) in ckt.inputs().iter().enumerate() {
            assert_eq!(ckt.input_position(i), Some(p));
        }
        assert_eq!(ckt.input_position(g1), None);
        assert!(ckt.flat_storage_bytes() > 0);
    }
}
