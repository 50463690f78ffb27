use std::fmt;

use protest_netlist::analyze::Fanouts;
use protest_netlist::{Circuit, Csr, GateKind, NodeId};

/// Stuck-at polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StuckAt {
    /// Signal stuck at logic 0.
    Zero,
    /// Signal stuck at logic 1.
    One,
}

impl StuckAt {
    /// The stuck value as a full 64-pattern word.
    pub fn word(self) -> u64 {
        match self {
            StuckAt::Zero => 0,
            StuckAt::One => !0,
        }
    }

    /// The stuck value as a bool.
    pub fn bit(self) -> bool {
        self == StuckAt::One
    }

    /// The opposite polarity.
    pub fn flipped(self) -> StuckAt {
        match self {
            StuckAt::Zero => StuckAt::One,
            StuckAt::One => StuckAt::Zero,
        }
    }
}

impl fmt::Display for StuckAt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StuckAt::Zero => f.write_str("sa0"),
            StuckAt::One => f.write_str("sa1"),
        }
    }
}

/// Where a stuck-at fault sits: a node's output net, or one input pin of one
/// gate (the paper's "pin x of some logical component").
///
/// Distinguishing stems from branches matters: on a fanout stem, a fault on
/// one branch affects only that consumer, while the stem fault affects all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// The output net of a node (affects every consumer).
    Output(NodeId),
    /// A single input pin of a gate.
    InputPin {
        /// The consuming gate.
        gate: NodeId,
        /// The pin position within the gate's fanin list.
        pin: u8,
    },
}

impl FaultSite {
    /// The node whose *driving value* the fault perturbs: the node itself for
    /// output faults, the pin's driver for input-pin faults.
    pub fn driver(self, circuit: &Circuit) -> NodeId {
        match self {
            FaultSite::Output(n) => n,
            FaultSite::InputPin { gate, pin } => circuit.node(gate).fanins()[pin as usize],
        }
    }

    /// The first node whose computed value changes: the node itself for
    /// output faults, the consuming gate for input-pin faults.
    pub fn affected(self) -> NodeId {
        match self {
            FaultSite::Output(n) => n,
            FaultSite::InputPin { gate, .. } => gate,
        }
    }
}

/// A single stuck-at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fault {
    /// Where the fault sits.
    pub site: FaultSite,
    /// The stuck polarity.
    pub polarity: StuckAt,
}

impl Fault {
    /// Output stuck-at fault on a node.
    pub fn output(node: NodeId, polarity: StuckAt) -> Self {
        Fault {
            site: FaultSite::Output(node),
            polarity,
        }
    }

    /// Input-pin stuck-at fault on a gate pin.
    pub fn input_pin(gate: NodeId, pin: u8, polarity: StuckAt) -> Self {
        Fault {
            site: FaultSite::InputPin { gate, pin },
            polarity,
        }
    }

    /// Human-readable label, e.g. `G17.in2 sa1` or `G5 sa0`.
    pub fn label(&self, circuit: &Circuit) -> String {
        match self.site {
            FaultSite::Output(n) => format!("{} {}", circuit.node_label(n), self.polarity),
            FaultSite::InputPin { gate, pin } => {
                format!("{}.in{} {}", circuit.node_label(gate), pin, self.polarity)
            }
        }
    }
}

/// The complete single stuck-at fault universe of a circuit.
///
/// Contains, for every live node, output sa0/sa1 faults, and for every gate
/// input pin whose driver is a fanout stem, pin sa0/sa1 faults (pins on
/// fanout-free nets are structurally equivalent to the driver's output fault
/// and are left to [`collapse_universe`] would-be duplicates — they are not
/// enumerated at all, which is the standard "checkpoint-free" enumeration).
#[derive(Debug, Clone)]
pub struct FaultUniverse {
    faults: Vec<Fault>,
}

impl FaultUniverse {
    /// Enumerates the fault universe of a circuit.
    ///
    /// Dead nodes — those from which no primary output is reachable, even
    /// transitively — are skipped: their faults are structurally
    /// undetectable and would poison test-length computations.
    pub fn all(circuit: &Circuit) -> Self {
        let fanouts = Fanouts::new(circuit);
        // Backward reachability from the primary outputs.
        let mut live_set = vec![false; circuit.num_nodes()];
        let mut stack: Vec<NodeId> = circuit.outputs().to_vec();
        for &o in circuit.outputs() {
            live_set[o.index()] = true;
        }
        while let Some(n) = stack.pop() {
            for &f in circuit.node(n).fanins() {
                if !live_set[f.index()] {
                    live_set[f.index()] = true;
                    stack.push(f);
                }
            }
        }
        let mut faults = Vec::new();
        for (id, node) in circuit.iter() {
            if !live_set[id.index()] {
                continue;
            }
            if !matches!(node.kind(), GateKind::Const(_)) {
                faults.push(Fault::output(id, StuckAt::Zero));
                faults.push(Fault::output(id, StuckAt::One));
            }
            // Input-pin faults only where they are distinguishable from the
            // driver's output fault: on branches of fanout stems.
            for (pin, &f) in node.fanins().iter().enumerate() {
                if fanouts.degree(f) >= 2 {
                    faults.push(Fault::input_pin(id, pin as u8, StuckAt::Zero));
                    faults.push(Fault::input_pin(id, pin as u8, StuckAt::One));
                }
            }
        }
        FaultUniverse { faults }
    }

    /// The faults, in deterministic enumeration order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Iterates over the faults.
    pub fn iter(&self) -> impl Iterator<Item = Fault> + '_ {
        self.faults.iter().copied()
    }
}

/// A collapsed fault universe: fault classes with one representative each.
///
/// Produced by [`collapse_universe`] (equivalence classes: every member has
/// the *same* test set, so the representative is interchangeable with any
/// member) or by [`dominance_collapse`] (implication classes: every test
/// detecting the representative also detects every member, but not
/// necessarily vice versa — the representative is the *hardest* member and
/// a test set covering all representatives covers the whole universe).
///
/// The classes are one [`Csr`] table: row `i` holds class `i`'s members,
/// sorted.
#[derive(Debug, Clone)]
pub struct CollapsedUniverse {
    representatives: Vec<Fault>,
    classes: Csr<Fault>,
}

impl CollapsedUniverse {
    /// One representative fault per class.
    ///
    /// For equivalence classes this is the smallest member; for dominance
    /// classes it is the root of the implication tree (which need not be
    /// the smallest member — see [`dominance_collapse`]).
    pub fn representatives(&self) -> &[Fault] {
        &self.representatives
    }

    /// The full class for each representative (same index order, members
    /// sorted).
    pub fn classes(&self) -> &Csr<Fault> {
        &self.classes
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.representatives.len()
    }

    /// Whether there are no classes.
    pub fn is_empty(&self) -> bool {
        self.representatives.is_empty()
    }

    /// Total fault count across all classes (the covered universe size).
    pub fn expanded_len(&self) -> usize {
        self.classes.values().len()
    }

    /// Heap bytes of the representatives and the class table.
    pub fn storage_bytes(&self) -> usize {
        std::mem::size_of_val(self.representatives.as_slice()) + self.classes.storage_bytes()
    }

    /// A copy with only the classes whose index is flagged in `keep` —
    /// how the redundancy prover drops proven-undetectable classes.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len()` differs from [`len`](Self::len).
    pub fn filtered(&self, keep: &[bool]) -> CollapsedUniverse {
        assert_eq!(keep.len(), self.len(), "one keep flag per class");
        let mut kept = CollapsedUniverse {
            representatives: Vec::new(),
            classes: Csr::default(),
        };
        for ((&rep, class), _) in self
            .representatives
            .iter()
            .zip(&self.classes)
            .zip(keep)
            .filter(|(_, &k)| k)
        {
            kept.representatives.push(rep);
            kept.classes.push_row(class.iter().copied());
        }
        kept
    }
}

/// A hash-free map from faults to `u32` values by position.
///
/// Node `n` owns the slots `base[n]..base[n + 1]`: its output pair first,
/// then one pair per input pin, `sa0` before `sa1` — the order in which
/// [`FaultUniverse::all`] enumerates a node's faults. Every fault the
/// enumeration can produce therefore has a fixed slot, and a lookup is
/// two array reads.
struct FaultSlots {
    base: Vec<u32>,
    value: Vec<u32>,
}

impl FaultSlots {
    const EMPTY: u32 = u32::MAX;

    fn new(circuit: &Circuit) -> Self {
        let mut base = Vec::with_capacity(circuit.num_nodes() + 1);
        let mut end = 0u32;
        base.push(end);
        for node in circuit.nodes() {
            end += 2 * (1 + node.fanins().len() as u32);
            base.push(end);
        }
        FaultSlots {
            base,
            value: vec![Self::EMPTY; end as usize],
        }
    }

    fn slot(&self, fault: Fault) -> usize {
        let pair = match fault.site {
            FaultSite::Output(_) => 0,
            FaultSite::InputPin { pin, .. } => 1 + pin as usize,
        };
        self.base[fault.site.affected().index()] as usize + 2 * pair + fault.polarity as usize
    }

    fn insert(&mut self, fault: Fault, value: u32) {
        let slot = self.slot(fault);
        self.value[slot] = value;
    }

    fn get(&self, fault: Fault) -> Option<u32> {
        let value = self.value[self.slot(fault)];
        (value != Self::EMPTY).then_some(value)
    }

    /// Visits every stored `(fault, value)` in `Fault` order. The derived
    /// `Ord` puts every output site before every input-pin site, and slot
    /// order is node order within each kind, so one sweep over the output
    /// pairs and one over the pin pairs visit the faults sorted.
    fn for_each_sorted(&self, mut visit: impl FnMut(Fault, u32)) {
        let nodes = self.base.len() - 1;
        let mut stored = |n: usize, local: usize| {
            let value = self.value[self.base[n] as usize + local];
            if value == Self::EMPTY {
                return;
            }
            let id = NodeId::from_index(n);
            let site = match local / 2 {
                0 => FaultSite::Output(id),
                pair => FaultSite::InputPin {
                    gate: id,
                    pin: (pair - 1) as u8,
                },
            };
            let polarity = [StuckAt::Zero, StuckAt::One][local % 2];
            visit(Fault { site, polarity }, value);
        };
        for n in 0..nodes {
            stored(n, 0);
            stored(n, 1);
        }
        for n in 0..nodes {
            for local in 2..(self.base[n + 1] - self.base[n]) as usize {
                stored(n, local);
            }
        }
    }
}

/// Collapses a fault universe using structural equivalence: two faults are
/// merged exactly when their faulty circuits compute the same function, so
/// every member of a class has the *identical* test set (and identical
/// per-pattern detection words under fault simulation).
///
/// The gate-local rules:
///
/// * Forcing a controlling value on any input forces the output — AND: any
///   input sa0 ≡ output sa0; NAND: input sa0 ≡ output sa1; OR: input sa1 ≡
///   output sa1; NOR: input sa1 ≡ output sa0.
/// * NOT/BUF: input faults ≡ (inverted/same) output faults, both
///   polarities.
/// * XOR/XNOR/LUT gates provide **no** equivalence at all: no input value
///   controls the output (every input change flips an XOR; a LUT makes no
///   structural promise), so an input stuck-at and an output stuck-at
///   compute different functions in general.
///
/// Two collapses are *implicit* rather than rule-driven:
///
/// * Stem/branch: [`FaultUniverse::all`] enumerates pin faults only on
///   branches of fanout stems. On a fanout-free net the pin fault is the
///   same fault as the driver's output fault, so it is simply never
///   enumerated (checkpoint-free enumeration) — the would-be two-member
///   class appears as the output fault alone.
/// * A driver net observed directly as a primary output never substitutes
///   for a missing pin fault: the PO observes the output fault without
///   propagating through the consuming gate, so the equivalence would be
///   unsound there.
///
/// The representative of each class is its smallest member (site order,
/// then polarity), and `classes()[i][0] == representatives()[i]`.
///
/// The work is linear and hash-free: a positional slot table gives each
/// fault its universe index, a union-find runs over those indices, one
/// sweep in `Fault` order numbers and counts the classes, and a second
/// places their members ([`Csr::from_counts`]).
pub fn collapse_universe(circuit: &Circuit, universe: &FaultUniverse) -> CollapsedUniverse {
    let mut index = FaultSlots::new(circuit);
    for (i, f) in universe.iter().enumerate() {
        index.insert(f, i as u32);
    }
    let mut dsu = Dsu::new(universe.len());

    for (id, node) in circuit.iter() {
        let (controlled, out_pol) = match node.kind() {
            GateKind::And => (StuckAt::Zero, StuckAt::Zero),
            GateKind::Nand => (StuckAt::Zero, StuckAt::One),
            GateKind::Or => (StuckAt::One, StuckAt::One),
            GateKind::Nor => (StuckAt::One, StuckAt::Zero),
            GateKind::Buf | GateKind::Not => {
                // Both polarities map through.
                for pol in [StuckAt::Zero, StuckAt::One] {
                    let out_pol = if node.kind() == GateKind::Not {
                        pol.flipped()
                    } else {
                        pol
                    };
                    let pin_fault = Fault::input_pin(id, 0, pol);
                    let driver = node.fanins()[0];
                    let in_fault = Fault::output(driver, pol);
                    let out_fault = Fault::output(id, out_pol);
                    // The pin fault exists only for stems; otherwise the
                    // driver's output fault plays its role — but only when
                    // the driver net is not itself directly observed as a
                    // primary output (a PO net's fault is detectable at the
                    // PO even when the gate's output fault is not).
                    let a = index.get(pin_fault).or_else(|| {
                        if circuit.is_output(driver) {
                            None
                        } else {
                            index.get(in_fault)
                        }
                    });
                    if let (Some(a), Some(b)) = (a, index.get(out_fault)) {
                        dsu.union(a as usize, b as usize);
                    }
                }
                continue;
            }
            _ => continue,
        };
        let out_fault = Fault::output(id, out_pol);
        let Some(out_idx) = index.get(out_fault) else {
            continue;
        };
        for (pin, &f) in node.fanins().iter().enumerate() {
            let pin_fault = Fault::input_pin(id, pin as u8, controlled);
            let in_fault = Fault::output(f, controlled);
            // Equivalence applies to the branch fault when enumerated (stem
            // drivers), else to the driver's output fault — valid only for
            // fanout-free nets (`all()` enumerates pin faults exactly when
            // the driver is a stem, so absence implies fanout-free) that
            // are not observed directly as primary outputs.
            let a = index.get(pin_fault).or_else(|| {
                if circuit.is_output(f) {
                    None
                } else {
                    index.get(in_fault)
                }
            });
            if let Some(a) = a {
                dsu.union(a as usize, out_idx as usize);
            }
        }
    }

    // Number the classes in the order their smallest members appear in
    // the sorted sweep, which sorts the classes by representative, and
    // count their members; the members then land sorted within each class.
    let mut class_of_root = vec![u32::MAX; universe.len()];
    let mut representatives = Vec::new();
    // Room for one class per fault plus the offset `from_counts` adds, so
    // the counts never regrow: regrowing left freed buffers behind that
    // raised the partitioned mesh's peak RSS by ~2.5 MiB.
    let mut sizes: Vec<u32> = Vec::with_capacity(universe.len() + 1);
    index.for_each_sorted(|f, i| {
        let root = dsu.find(i as usize);
        if class_of_root[root] == u32::MAX {
            class_of_root[root] = representatives.len() as u32;
            representatives.push(f);
            sizes.push(0);
        }
        sizes[class_of_root[root] as usize] += 1;
    });
    let classes = Csr::from_counts(sizes, |emit| {
        index.for_each_sorted(|f, i| emit(class_of_root[dsu.find(i as usize)] as usize, f));
    });
    CollapsedUniverse {
        representatives,
        classes,
    }
}

/// Extends an equivalence-collapsed universe with classic *dominance*
/// collapsing: a gate-output fault whose detection is implied by one of the
/// gate's input faults is folded into that input fault's class.
///
/// The gate-local implication (with `c` the controlling value): any test
/// for input `sa ¬c` must set that input to `c` and every other input to
/// `¬c`, which activates the output fault of the *non-controlled* polarity
/// and produces the identical output error — so `tests(in sa ¬c) ⊆
/// tests(out sa ¬out_pol)`:
///
/// * AND: output sa1 is dominated by any input sa1;
/// * OR: output sa0 by any input sa0;
/// * NAND: output sa0 by any input sa1;
/// * NOR: output sa1 by any input sa0.
///
/// Unlike equivalence, dominance is one-directional, so classes are built
/// as an *accounting forest over the equivalence classes*: each dominated
/// output-fault class records exactly one accounting parent (the first
/// resolvable input fault, subject to the same stem/PO guards as
/// [`collapse_universe`]), and a merged class is a tree whose root class
/// implies — pattern by pattern — the detection of every member. The
/// representative is the **root** class's representative (the hardest
/// member), *not* the smallest fault of the merged class: a test set
/// detecting every representative therefore detects the entire universe,
/// which is what makes collapsed test-length and coverage computations
/// conservative. One incoming edge per class keeps this sound; merging all
/// mutually-dominating inputs of a gate (as equivalence does) would create
/// classes in which no single member implies all others.
///
/// Merged classes are ordered by representative, members sorted; like
/// [`collapse_universe`], the pass is hash-free.
pub fn dominance_collapse(circuit: &Circuit, equiv: &CollapsedUniverse) -> CollapsedUniverse {
    // Fault → equivalence-class index.
    let mut class_of = FaultSlots::new(circuit);
    for (ci, class) in equiv.classes().iter().enumerate() {
        for &f in class {
            class_of.insert(f, ci as u32);
        }
    }
    // Accounting forest over class indices: at most one parent per class.
    let mut parent: Vec<Option<u32>> = vec![None; equiv.len()];
    let root = |parent: &[Option<u32>], mut c: u32| -> u32 {
        while let Some(p) = parent[c as usize] {
            c = p;
        }
        c
    };

    for (id, node) in circuit.iter() {
        let controlled = match node.kind() {
            GateKind::And | GateKind::Nand => StuckAt::Zero,
            GateKind::Or | GateKind::Nor => StuckAt::One,
            _ => continue,
        };
        let out_pol = match node.kind() {
            GateKind::And => StuckAt::Zero,
            GateKind::Nand => StuckAt::One,
            GateKind::Or => StuckAt::One,
            GateKind::Nor => StuckAt::Zero,
            _ => unreachable!(),
        };
        let target = Fault::output(id, out_pol.flipped());
        let Some(tc) = class_of.get(target) else {
            continue; // dead node or pruned class
        };
        if parent[tc as usize].is_some() {
            continue; // already accounted to another implier
        }
        let source_pol = controlled.flipped();
        for (pin, &f) in node.fanins().iter().enumerate() {
            let pin_fault = Fault::input_pin(id, pin as u8, source_pol);
            let in_fault = Fault::output(f, source_pol);
            // Same resolution as `collapse_universe`: the branch fault when
            // enumerated, else the driver's output fault on fanout-free
            // nets not directly observed as primary outputs.
            let sc = class_of.get(pin_fault).or_else(|| {
                if circuit.is_output(f) {
                    None
                } else {
                    class_of.get(in_fault)
                }
            });
            let Some(sc) = sc else { continue };
            // Self-loops and forest cycles (possible when equivalence
            // classes span reconverging regions) would break the
            // "root implies all members" invariant — skip such edges.
            if sc == tc || root(&parent, sc) == tc {
                continue;
            }
            parent[tc as usize] = Some(sc);
            break; // one accounting parent per dominated class
        }
    }

    // Number the merged classes in the order their root representatives
    // appear in the sorted sweep, which sorts them by representative, and
    // count each root's members. Every representative is a member of its
    // own class, so the sweep meets each root exactly once.
    let roots: Vec<u32> = (0..equiv.len() as u32).map(|c| root(&parent, c)).collect();
    let mut merged_of_root = vec![u32::MAX; equiv.len()];
    let mut root_size = vec![0u32; equiv.len()];
    let mut representatives = Vec::new();
    class_of.for_each_sorted(|f, c| {
        root_size[roots[c as usize] as usize] += 1;
        if roots[c as usize] == c && equiv.representatives()[c as usize] == f {
            merged_of_root[c as usize] = representatives.len() as u32;
            representatives.push(f);
        }
    });
    // Room for the offset `from_counts` adds.
    let mut sizes = Vec::with_capacity(representatives.len() + 1);
    sizes.resize(representatives.len(), 0u32);
    for (&m, &size) in merged_of_root.iter().zip(&root_size) {
        if m != u32::MAX {
            sizes[m as usize] = size;
        }
    }
    drop(root_size);
    let classes = Csr::from_counts(sizes, |emit| {
        class_of
            .for_each_sorted(|f, c| emit(merged_of_root[roots[c as usize] as usize] as usize, f));
    });
    CollapsedUniverse {
        representatives,
        classes,
    }
}

#[derive(Debug)]
struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n as u32).collect(),
        }
    }
    fn find(&mut self, i: usize) -> usize {
        let mut root = i;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        let mut cur = i;
        while self.parent[cur] as usize != cur {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use protest_netlist::CircuitBuilder;

    use super::*;

    #[test]
    fn universe_of_single_and() {
        let mut b = CircuitBuilder::new("and");
        let a = b.input("a");
        let c = b.input("c");
        let z = b.and2(a, c);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let u = FaultUniverse::all(&ckt);
        // 3 nets × 2 polarities; no stems, so no pin faults.
        assert_eq!(u.len(), 6);
    }

    #[test]
    fn stems_get_branch_faults() {
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let x = b.not(a);
        let y = b.and2(a, x); // `a` is a stem (drives NOT and AND)
        b.output(y, "z");
        let ckt = b.finish().unwrap();
        let u = FaultUniverse::all(&ckt);
        // nets a, x, y: 6 output faults; branches: a→not pin, a→and pin: 4.
        assert_eq!(u.len(), 10);
        let pin_faults = u
            .iter()
            .filter(|f| matches!(f.site, FaultSite::InputPin { .. }))
            .count();
        assert_eq!(pin_faults, 4);
    }

    #[test]
    fn collapse_and_gate() {
        // z = AND(a, c): a sa0 ≡ c sa0 ≡ z sa0 → classes:
        // {a0,c0,z0}, {a1}, {c1}, {z1} = 4 classes of 6 faults.
        let mut b = CircuitBuilder::new("and");
        let a = b.input("a");
        let c = b.input("c");
        let z = b.and2(a, c);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let u = FaultUniverse::all(&ckt);
        let col = collapse_universe(&ckt, &u);
        assert_eq!(col.len(), 4);
        let biggest = col.classes().iter().map(|c| c.len()).max().unwrap();
        assert_eq!(biggest, 3);
    }

    #[test]
    fn collapse_inverter_chain() {
        // a -> not -> not -> z : all faults collapse to 2 classes.
        let mut b = CircuitBuilder::new("chain");
        let a = b.input("a");
        let n1 = b.not(a);
        let n2 = b.not(n1);
        b.output(n2, "z");
        let ckt = b.finish().unwrap();
        let u = FaultUniverse::all(&ckt);
        assert_eq!(u.len(), 6);
        let col = collapse_universe(&ckt, &u);
        assert_eq!(col.len(), 2);
    }

    #[test]
    fn xor_does_not_collapse() {
        let mut b = CircuitBuilder::new("x");
        let a = b.input("a");
        let c = b.input("c");
        let z = b.xor2(a, c);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let u = FaultUniverse::all(&ckt);
        let col = collapse_universe(&ckt, &u);
        assert_eq!(col.len(), u.len());
    }

    #[test]
    fn branch_faults_do_not_collapse_across_stem() {
        // a (stem) feeds AND(a, b) and OR(a, c). Branch a→AND sa0 collapses
        // with AND output sa0 but NOT with the stem fault a sa0.
        let mut b = CircuitBuilder::new("s");
        let a = b.input("a");
        let b_in = b.input("b");
        let c = b.input("c");
        let g1 = b.and2(a, b_in);
        let g2 = b.or2(a, c);
        b.output(g1, "z1");
        b.output(g2, "z2");
        let ckt = b.finish().unwrap();
        let u = FaultUniverse::all(&ckt);
        let col = collapse_universe(&ckt, &u);
        // Find class containing AND-output sa0.
        let and_sa0 = Fault::output(g1, StuckAt::Zero);
        let class = col.classes().iter().find(|c| c.contains(&and_sa0)).unwrap();
        assert!(class.contains(&Fault::input_pin(g1, 0, StuckAt::Zero)));
        assert!(!class.contains(&Fault::output(a, StuckAt::Zero)));
    }

    #[test]
    fn dominance_folds_and_output_sa1_into_an_input() {
        // z = AND(a, c): equivalence gives {a0,c0,z0},{a1},{c1},{z1};
        // dominance accounts z1 to a1 (first resolvable pin) → 3 classes.
        let mut b = CircuitBuilder::new("and");
        let a = b.input("a");
        let c = b.input("c");
        let z = b.and2(a, c);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let u = FaultUniverse::all(&ckt);
        let equiv = collapse_universe(&ckt, &u);
        let dom = dominance_collapse(&ckt, &equiv);
        assert_eq!(dom.len(), 3);
        assert_eq!(dom.expanded_len(), u.len());
        let merged = dom
            .classes()
            .iter()
            .find(|cl| cl.contains(&Fault::output(z, StuckAt::One)))
            .unwrap();
        assert!(merged.contains(&Fault::output(a, StuckAt::One)));
        // The representative is the implying root (a sa1), even though the
        // class is sorted and might list another fault first.
        let rep_idx = dom
            .classes()
            .iter()
            .position(|cl| cl.contains(&Fault::output(z, StuckAt::One)))
            .unwrap();
        assert_eq!(
            dom.representatives()[rep_idx],
            Fault::output(a, StuckAt::One)
        );
    }

    #[test]
    fn dominance_chains_through_gate_cascades() {
        // z = OR(OR(a, c), d): out-sa0 chains account to a sa0; the whole
        // sa0 side folds into input classes.
        let mut b = CircuitBuilder::new("orchain");
        let a = b.input("a");
        let c = b.input("c");
        let d = b.input("d");
        let o1 = b.or2(a, c);
        let z = b.or2(o1, d);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let u = FaultUniverse::all(&ckt);
        let equiv = collapse_universe(&ckt, &u);
        let dom = dominance_collapse(&ckt, &equiv);
        assert!(dom.len() < equiv.len());
        let cl = dom
            .classes()
            .iter()
            .find(|cl| cl.contains(&Fault::output(z, StuckAt::Zero)))
            .unwrap();
        // o1 sa0 is dominated by a sa0 (equivalence class {a0, c0?}: no —
        // OR equivalence is sa1; a0 is its own class) and z sa0 by o1 sa0.
        assert!(cl.contains(&Fault::output(o1, StuckAt::Zero)));
        assert!(cl.contains(&Fault::output(a, StuckAt::Zero)));
        let idx = dom
            .classes()
            .iter()
            .position(|x| std::ptr::eq(x, cl))
            .unwrap();
        assert_eq!(
            dom.representatives()[idx],
            Fault::output(a, StuckAt::Zero),
            "root of the implication chain is the representative"
        );
    }

    #[test]
    fn dominance_skips_po_observed_drivers() {
        // z = AND(a, c) where a is also a primary output: a sa1 is
        // detectable at the PO without propagating through the AND, so
        // z sa1 must NOT be folded into it; pin faults are not enumerated
        // (no stem), and c sa1 still dominates.
        let mut b = CircuitBuilder::new("po");
        let a = b.input("a");
        let c = b.input("c");
        let z = b.and2(a, c);
        b.output(z, "z");
        b.output(a, "a_out");
        let ckt = b.finish().unwrap();
        let u = FaultUniverse::all(&ckt);
        let equiv = collapse_universe(&ckt, &u);
        let dom = dominance_collapse(&ckt, &equiv);
        let cl = dom
            .classes()
            .iter()
            .find(|cl| cl.contains(&Fault::output(z, StuckAt::One)))
            .unwrap();
        assert!(!cl.contains(&Fault::output(a, StuckAt::One)));
        assert!(cl.contains(&Fault::output(c, StuckAt::One)));
    }

    #[test]
    fn dominance_leaves_xor_untouched() {
        let mut b = CircuitBuilder::new("x");
        let a = b.input("a");
        let c = b.input("c");
        let z = b.xor2(a, c);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let u = FaultUniverse::all(&ckt);
        let equiv = collapse_universe(&ckt, &u);
        let dom = dominance_collapse(&ckt, &equiv);
        assert_eq!(dom.len(), equiv.len());
    }

    #[test]
    fn filtered_drops_flagged_classes() {
        let mut b = CircuitBuilder::new("f");
        let a = b.input("a");
        let c = b.input("c");
        let z = b.and2(a, c);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let u = FaultUniverse::all(&ckt);
        let col = collapse_universe(&ckt, &u);
        let mut keep = vec![true; col.len()];
        keep[0] = false;
        let kept = col.filtered(&keep);
        assert_eq!(kept.len(), col.len() - 1);
        assert_eq!(kept.representatives()[0], col.representatives()[1]);
    }

    #[test]
    fn fault_labels() {
        let mut b = CircuitBuilder::new("l");
        let a = b.input("a");
        let x = b.not(a);
        let y = b.and2(a, x);
        b.output(y, "y");
        b.name(y, "y");
        let ckt = b.finish().unwrap();
        assert_eq!(Fault::output(a, StuckAt::One).label(&ckt), "a sa1");
        assert_eq!(
            Fault::input_pin(y, 1, StuckAt::Zero).label(&ckt),
            "y.in1 sa0"
        );
    }

    #[test]
    fn site_driver_and_affected() {
        let mut b = CircuitBuilder::new("d");
        let a = b.input("a");
        let x = b.not(a);
        let y = b.and2(a, x);
        b.output(y, "y");
        let ckt = b.finish().unwrap();
        let f = Fault::input_pin(y, 1, StuckAt::Zero);
        assert_eq!(f.site.driver(&ckt), x);
        assert_eq!(f.site.affected(), y);
        let g = Fault::output(x, StuckAt::One);
        assert_eq!(g.site.driver(&ckt), x);
        assert_eq!(g.site.affected(), x);
    }
}
