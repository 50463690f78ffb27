//! Partitioned analysis: connected-component cone decomposition.
//!
//! Industrial netlists are rarely one dense blob — test logic, replicated
//! datapath lanes and spare blocks produce circuits whose gate graph falls
//! apart into **connected components** that share no wires. Every quantity
//! the PROTEST pipeline computes (signal probabilities, observabilities and
//! the per-fault detection estimates built from them) depends only on the
//! fanin/fanout cone of its node, so each component can be analyzed in
//! complete isolation and the per-component results scattered back into the
//! full-circuit arrays.
//!
//! # When partitioning fires
//!
//! `plan` inspects the circuit once per [`Analyzer`] (cached) and
//! produces a partitioning only when all of the following
//! hold; otherwise the analyzer silently keeps the monolithic path:
//!
//! * the analyzer's [`AnalyzerParams::partition`] knob is on (default),
//! * node storage is topologically ordered (every fanin index below its
//!   gate's) and the primary-input list ascends in storage order — the
//!   cheap structural precondition for an order-preserving extraction,
//! * the gate graph has **two or more** connected components, and
//! * every component contains at least one primary input and at least one
//!   primary output (a component that lacks either cannot stand alone as a
//!   valid [`Circuit`]).
//!
//! # Bit-identity
//!
//! Partitioned results are `f64::to_bits`-identical to the monolithic
//! pass, at any thread count. The extraction preserves the relative
//! storage order of every component's nodes and inputs, so each
//! sub-circuit's levelization, AIG construction (structural hashing never
//! merges across components — their leaves are disjoint), joining-point
//! selection and observability sweep perform exactly the floating-point
//! operations the monolithic pass performs for those nodes, in the same
//! order. The final per-fault loop then runs unchanged over the *global*
//! fault list with the scattered probability/observability arrays, which
//! are bitwise equal to the monolithic ones. `tests/partition_differential.rs`
//! asserts this end to end on paper circuits and on multi-lane generated
//! meshes, serial and parallel.
//!
//! # Parallelism
//!
//! Components are independent, so the analyzer's executor fans the
//! per-partition passes out across its threads (each partition runs the
//! serial estimator kernel internally) and recombines results in partition
//! order. Incremental [`AnalysisSession`](crate::AnalysisSession)s stay
//! monolithic: their dirty-cone propagation already touches only the
//! affected component.

use std::sync::Arc;

use protest_netlist::{Circuit, CircuitBuilder, GateKind, NodeId};

use crate::aig::Aig;
use crate::analyzer::{Analyzer, CircuitAnalysis};
use crate::cancel::CancelToken;
use crate::detect;
use crate::error::CoreError;
use crate::observe::{Observability, ObservabilityEngine};
use crate::params::{AnalyzerParams, InputProbs};
use crate::sigprob::{lit_prob_of, SignalProbEstimator};

/// One standalone component: the extracted sub-circuit plus the maps back
/// into the full circuit's node and input spaces.
#[derive(Debug)]
pub(crate) struct Part {
    /// The component as a self-contained circuit (order-preserving
    /// extraction: sub node `i` is the component's `i`-th node in global
    /// storage order).
    sub: Arc<Circuit>,
    /// Sub node index → global node index, ascending.
    nodes: Vec<u32>,
    /// Sub input position → global input position, ascending.
    inputs: Vec<u32>,
}

/// A complete decomposition of a circuit into standalone components,
/// ordered by each component's smallest global node index.
///
/// Components are also grouped into **structure classes**: partitions whose
/// sub-circuits are structurally identical (same gate kinds, fanin shapes,
/// truth tables, input/output positions — names ignored). Replicated-lane
/// netlists collapse into a handful of classes, and the analysis pass
/// builds its probability-independent machinery (AIG, joining points,
/// levelization) once per class instead of once per partition.
#[derive(Debug)]
pub(crate) struct Partitioning {
    pub(crate) parts: Vec<Part>,
    /// Part index → structure class index.
    classes: Vec<u32>,
    /// Class index → representative part index (first of the class).
    reps: Vec<u32>,
}

impl Partitioning {
    /// Number of partitions.
    pub(crate) fn len(&self) -> usize {
        self.parts.len()
    }

    /// Number of distinct sub-circuit structures among the partitions.
    pub(crate) fn num_classes(&self) -> usize {
        self.reps.len()
    }

    /// Total flat-storage bytes held by the extracted sub-circuits.
    pub(crate) fn storage_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.sub.flat_storage_bytes()).sum()
    }
}

/// Deterministic structural fingerprint of a circuit, ignoring names.
/// Classes are confirmed with [`same_structure`], so collisions only cost
/// a comparison.
fn structure_hash(c: &Circuit) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    c.num_nodes().hash(&mut h);
    c.inputs().hash(&mut h);
    c.outputs().hash(&mut h);
    for i in 0..c.num_nodes() {
        let node = c.node(NodeId::from_index(i));
        node.fanins().hash(&mut h);
        match node.kind() {
            // Hash table contents, not the builder-local table id.
            GateKind::Lut(l) => (0u8, c.lut(l)).hash(&mut h),
            kind => (1u8, kind).hash(&mut h),
        }
    }
    h.finish()
}

/// Whether two circuits are structurally identical — equal node kinds,
/// fanin index lists, truth-table contents and input/output positions.
/// Names play no role: every analysis quantity is name-independent, so
/// structurally identical components yield bit-identical per-node results.
fn same_structure(a: &Circuit, b: &Circuit) -> bool {
    if a.num_nodes() != b.num_nodes() || a.inputs() != b.inputs() || a.outputs() != b.outputs() {
        return false;
    }
    (0..a.num_nodes()).all(|i| {
        let (na, nb) = (a.node(NodeId::from_index(i)), b.node(NodeId::from_index(i)));
        na.fanins() == nb.fanins()
            && match (na.kind(), nb.kind()) {
                (GateKind::Lut(la), GateKind::Lut(lb)) => a.lut(la) == b.lut(lb),
                (ka, kb) => ka == kb,
            }
    })
}

/// Groups `parts` into structure classes (hash then confirm); returns
/// per-part class indices and per-class representative part indices.
fn structure_classes(parts: &[Part]) -> (Vec<u32>, Vec<u32>) {
    let mut classes = vec![0u32; parts.len()];
    let mut reps: Vec<u32> = Vec::new();
    let mut by_hash: std::collections::HashMap<u64, Vec<u32>> = std::collections::HashMap::new();
    for (pi, part) in parts.iter().enumerate() {
        let bucket = by_hash.entry(structure_hash(&part.sub)).or_default();
        let found = bucket
            .iter()
            .copied()
            .find(|&ci| same_structure(&parts[reps[ci as usize] as usize].sub, &part.sub));
        classes[pi] = found.unwrap_or_else(|| {
            let ci = reps.len() as u32;
            reps.push(pi as u32);
            bucket.push(ci);
            ci
        });
    }
    (classes, reps)
}

/// Path-halving union-find lookup.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

/// Builds the partitioning for `circuit`, or `None` when the monolithic
/// path must be used (see the module docs for the exact conditions).
pub(crate) fn plan(circuit: &Circuit, params: &AnalyzerParams) -> Option<Partitioning> {
    if !params.partition {
        return None;
    }
    let _t = protest_telemetry::span(protest_telemetry::Site::PartitionExtract);
    let n = circuit.num_nodes();
    if n == 0 {
        return None;
    }
    // Storage must be topologically ordered and the input list ascending,
    // so extraction by ascending global index preserves every relative
    // order the numeric passes depend on.
    for i in 0..n {
        for &f in circuit.node(NodeId::from_index(i)).fanins() {
            if f.index() >= i {
                return None;
            }
        }
    }
    if circuit.inputs().windows(2).any(|w| w[0] >= w[1]) {
        return None;
    }
    // Union nodes along fanin edges.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    for i in 0..n {
        for &f in circuit.node(NodeId::from_index(i)).fanins() {
            let a = find(&mut parent, i as u32);
            let b = find(&mut parent, f.index() as u32);
            if a != b {
                parent[a as usize] = b;
            }
        }
    }
    // Number components by first appearance in storage order.
    let mut comp = vec![u32::MAX; n];
    let mut count = 0u32;
    for i in 0..n {
        let root = find(&mut parent, i as u32) as usize;
        if comp[root] == u32::MAX {
            comp[root] = count;
            count += 1;
        }
        comp[i] = comp[root];
    }
    if count < 2 {
        return None;
    }
    // Every component needs its own inputs and outputs to stand alone.
    let mut has_input = vec![false; count as usize];
    let mut has_output = vec![false; count as usize];
    for &i in circuit.inputs() {
        has_input[comp[i.index()] as usize] = true;
    }
    for &o in circuit.outputs() {
        has_output[comp[o.index()] as usize] = true;
    }
    if !has_input.iter().all(|&x| x) || !has_output.iter().all(|&x| x) {
        return None;
    }
    // Extract each component in ascending global node order.
    let mut builders: Vec<CircuitBuilder> = (0..count)
        .map(|pi| CircuitBuilder::new(format!("{}_part{pi}", circuit.name())))
        .collect();
    let mut nodes: Vec<Vec<u32>> = vec![Vec::new(); count as usize];
    let mut gmap = vec![NodeId::from_index(0); n];
    for i in 0..n {
        let pi = comp[i] as usize;
        let b = &mut builders[pi];
        let node = circuit.node(NodeId::from_index(i));
        let sub_id = match node.kind() {
            // Synthetic input names keyed by the global index: unique by
            // construction, and no other sub node carries a name at all.
            GateKind::Input => b.input(format!("i{i}")),
            GateKind::Lut(lid) => {
                let fanins: Vec<NodeId> = node.fanins().iter().map(|&f| gmap[f.index()]).collect();
                let t = b.add_table(circuit.lut(lid).clone());
                b.gate(GateKind::Lut(t), &fanins)
            }
            kind => {
                let fanins: Vec<NodeId> = node.fanins().iter().map(|&f| gmap[f.index()]).collect();
                b.gate(kind, &fanins)
            }
        };
        gmap[i] = sub_id;
        nodes[pi].push(i as u32);
    }
    for &o in circuit.outputs() {
        builders[comp[o.index()] as usize].output_unnamed(gmap[o.index()]);
    }
    let mut inputs: Vec<Vec<u32>> = vec![Vec::new(); count as usize];
    for (pos, &i) in circuit.inputs().iter().enumerate() {
        inputs[comp[i.index()] as usize].push(pos as u32);
    }
    let mut parts = Vec::with_capacity(count as usize);
    for ((builder, nodes), inputs) in builders.into_iter().zip(nodes).zip(inputs) {
        // A validation failure here means the component is not a standalone
        // circuit after all — fall back to the monolithic path.
        let sub = builder.finish().ok()?;
        parts.push(Part {
            sub: Arc::new(sub),
            nodes,
            inputs,
        });
    }
    let (classes, reps) = structure_classes(&parts);
    Some(Partitioning {
        parts,
        classes,
        reps,
    })
}

/// The probability-independent analysis machinery of one structure class,
/// built once from the class representative's sub-circuit and shared by
/// every partition of the class (identical structure → bit-identical
/// per-node computations, whichever copy they run against).
struct ClassKit {
    est: SignalProbEstimator,
    engine: ObservabilityEngine,
}

/// Runs the full one-shot analysis through the partitioned path: every
/// partition computes its signal probabilities and observabilities in
/// isolation (fanned out over the analyzer's executor), the results are
/// scattered into full-circuit arrays in partition order, and the global
/// per-fault loop runs unchanged on top.
///
/// The per-partition passes share one [`ClassKit`] per structure class —
/// on replicated-lane netlists the AIG/joining-point/levelization
/// construction cost is paid once per distinct lane structure, not once
/// per lane.
///
/// `cancel` is polled between partitions and inside the per-partition
/// estimation passes; a fired token abandons the run with
/// [`CoreError::Cancelled`].
pub(crate) fn run_partitioned(
    analyzer: &Analyzer,
    plan: &Partitioning,
    probs: &InputProbs,
    cancel: &CancelToken,
) -> Result<CircuitAnalysis, CoreError> {
    let circuit = analyzer.circuit();
    probs.check_len(circuit.num_inputs())?;
    let params = analyzer.params();
    let exec = analyzer.exec();
    let global = probs.as_slice();
    let mut kits: Vec<ClassKit> = Vec::with_capacity(plan.reps.len());
    for &pi in &plan.reps {
        cancel.check()?;
        let sub = &plan.parts[pi as usize].sub;
        kits.push(ClassKit {
            est: SignalProbEstimator::new(Aig::from_circuit(sub), params),
            engine: ObservabilityEngine::new(Arc::clone(sub), params),
        });
    }
    let kits = &kits;
    type PartResult = Result<(Vec<f64>, Observability), CoreError>;
    let mut results: Vec<Option<PartResult>> = (0..plan.parts.len()).map(|_| None).collect();
    if exec.parallel() {
        exec.run(|| {
            rayon::scope(|s| {
                for ((part, &class), slot) in
                    plan.parts.iter().zip(&plan.classes).zip(results.iter_mut())
                {
                    s.spawn(move |_| {
                        if cancel.is_cancelled() {
                            return;
                        }
                        *slot = Some(analyze_part(part, &kits[class as usize], global, cancel));
                    });
                }
            });
        });
    } else {
        for ((part, &class), slot) in plan.parts.iter().zip(&plan.classes).zip(results.iter_mut()) {
            if cancel.is_cancelled() {
                break;
            }
            *slot = Some(analyze_part(part, &kits[class as usize], global, cancel));
        }
    }
    cancel.check()?;
    let scatter_span = protest_telemetry::span(protest_telemetry::Site::PartitionScatter);
    let mut node_probs = vec![0.0f64; circuit.num_nodes()];
    let mut obs = Observability::zeroed(circuit);
    for (part, result) in plan.parts.iter().zip(results) {
        let (sub_probs, sub_obs) = result.expect("partition completed without cancellation")?;
        for (si, &gi) in part.nodes.iter().enumerate() {
            node_probs[gi as usize] = sub_probs[si];
        }
        obs.scatter_from(&sub_obs, &part.nodes);
    }
    drop(scatter_span);
    let faults = analyzer.faults();
    let mut estimates = Vec::with_capacity(faults.len());
    let mut detections = Vec::new();
    detect::estimate_all_faults_cancellable(
        circuit,
        faults,
        &node_probs,
        &obs,
        exec,
        &mut estimates,
        &mut detections,
        cancel,
    )?;
    Ok(CircuitAnalysis::from_parts(node_probs, obs, estimates))
}

/// One partition's full pass: AIG estimation, AIG→circuit probability
/// mapping, observability sweep — the exact computation the monolithic
/// session performs, restricted to this component, driven through its
/// structure class's shared machinery.
fn analyze_part(
    part: &Part,
    kit: &ClassKit,
    global_probs: &[f64],
    cancel: &CancelToken,
) -> Result<(Vec<f64>, Observability), CoreError> {
    let _t = protest_telemetry::span(protest_telemetry::Site::PartitionAnalyze);
    let sub_probs: Vec<f64> = part
        .inputs
        .iter()
        .map(|&p| global_probs[p as usize])
        .collect();
    let serial = crate::exec::Exec::new(1);
    let aig_probs = kit
        .est
        .full_estimate_exec_cancellable(&sub_probs, &serial, cancel)?;
    let aig = kit.est.aig();
    let node_probs: Vec<f64> = (0..part.sub.num_nodes())
        .map(|i| lit_prob_of(&aig_probs, aig.lit_of(NodeId::from_index(i))))
        .collect();
    let obs = kit.engine.compute(&node_probs);
    Ok((node_probs, obs))
}

#[cfg(test)]
mod tests {
    use protest_circuits::{alu_mesh, c17, mult_mesh};
    use protest_netlist::CircuitBuilder;

    use super::*;

    fn two_island_circuit() -> Circuit {
        let mut b = CircuitBuilder::new("islands");
        let a = b.input("a");
        let c = b.input("c");
        let x = b.and2(a, c);
        b.output(x, "x");
        let d = b.input("d");
        let e = b.input("e");
        let y = b.xor2(d, e);
        let z = b.not(y);
        b.output(z, "z");
        b.finish().unwrap()
    }

    #[test]
    fn plans_split_islands_and_keep_maps_aligned() {
        let ckt = two_island_circuit();
        let plan = plan(&ckt, &AnalyzerParams::default()).expect("two components");
        assert_eq!(plan.len(), 2);
        assert!(plan.storage_bytes() > 0);
        // AND island vs XOR+NOT island: two distinct structures.
        assert_eq!(plan.num_classes(), 2);
        // First part: a, c, AND — inputs at global positions 0, 1.
        assert_eq!(plan.parts[0].nodes, vec![0, 1, 2]);
        assert_eq!(plan.parts[0].inputs, vec![0, 1]);
        assert_eq!(plan.parts[0].sub.num_outputs(), 1);
        // Second part: d, e, XOR, NOT — inputs at global positions 2, 3.
        assert_eq!(plan.parts[1].nodes, vec![3, 4, 5, 6]);
        assert_eq!(plan.parts[1].inputs, vec![2, 3]);
    }

    #[test]
    fn single_component_and_disabled_knob_stay_monolithic() {
        let ckt = c17();
        assert!(plan(&ckt, &AnalyzerParams::default()).is_none());
        let islands = two_island_circuit();
        let off = AnalyzerParams {
            partition: false,
            ..AnalyzerParams::default()
        };
        assert!(plan(&islands, &off).is_none());
    }

    #[test]
    fn output_less_component_falls_back() {
        // Second island drives no output: it cannot stand alone.
        let mut b = CircuitBuilder::new("dead");
        let a = b.input("a");
        let x = b.not(a);
        b.output(x, "x");
        let d = b.input("d");
        let _dead = b.not(d);
        let ckt = b.finish().unwrap();
        assert!(plan(&ckt, &AnalyzerParams::default()).is_none());
    }

    #[test]
    fn uncoupled_meshes_partition_per_lane() {
        let ckt = mult_mesh(3, 2, 4, false);
        let plan = plan(&ckt, &AnalyzerParams::default()).expect("four lanes");
        assert_eq!(plan.len(), 4);
        let total: usize = plan.parts.iter().map(|p| p.sub.num_nodes()).sum();
        assert_eq!(total, ckt.num_nodes());
        // Identical lanes share one structure class: the analysis builds
        // its probability-independent machinery once, not per lane.
        assert_eq!(plan.num_classes(), 1);
    }

    #[test]
    fn coupled_meshes_do_not_partition() {
        let ckt = alu_mesh(2, 3, true);
        assert!(plan(&ckt, &AnalyzerParams::default()).is_none());
    }
}
