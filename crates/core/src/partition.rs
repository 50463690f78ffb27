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
//! # Lane batches
//!
//! The partitions of one structure class share one estimator (paper
//! Sec. 2: the cones, joining points and shapes depend only on the
//! circuit) and differ only in their input probabilities. So a class is
//! swept in **batches** of its parts, one *lane* per part: one serial
//! pass over the class's AIG evaluates every lane of a node at once
//! (`SignalProbEstimator::sweep_lanes`). Per conditioned AND the batch
//! decodes the cone, maps its out-of-cone reads and compiles its nested
//! programs once; each scoring walk runs every lane; each lane scores and
//! selects its own joining set `W`; and the enumeration runs once per
//! group of lanes that selected the same `W`, its tables filled and its
//! weighted sums taken per lane. Every lane performs exactly the
//! floating-point sequence of a one-lane pass, so batching never changes
//! a bit.
//!
//! A batch is `ceil(parts in class / threads)` lanes wide, capped at
//! [`MAX_LANES`], and is one item of the analyzer's executor fan-out. As
//! a batch finishes its sweep, each lane's circuit probabilities and
//! observabilities are computed and scattered into the full-circuit
//! arrays, so no per-part result outlives its batch.
//!
//! # Parallelism
//!
//! Components are independent, so the analyzer's executor fans the
//! batches out across its threads, one contiguous chunk each; the batch
//! list interleaves the classes, so every chunk holds about one batch of
//! every class. Incremental
//! [`AnalysisSession`](crate::AnalysisSession)s stay monolithic: their
//! dirty-cone propagation already touches only the affected component.

use std::sync::{Arc, Mutex};

use protest_netlist::{Circuit, CircuitBuilder, GateKind, NodeId};

use crate::aig::Aig;
use crate::analyzer::{Analyzer, CircuitAnalysis};
use crate::cancel::CancelToken;
use crate::detect;
use crate::error::CoreError;
use crate::failpoints;
use crate::observe::{Observability, ObservabilityEngine};
use crate::params::{AnalyzerParams, InputProbs};
use crate::sigprob::{lane_lit, LaneSweep, SignalProbEstimator};

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

/// Most partitions one batch sweeps as lanes. A batch holds its lanes'
/// probabilities side by side (`lanes ×` the class's AIG nodes) and its
/// kernel tables `lanes` wide, so the cap bounds that memory; past a few
/// dozen lanes the enumeration passes saved per lane level off.
pub const MAX_LANES: usize = 64;

/// The full-circuit arrays the batches scatter their lanes into.
struct Scatter {
    node_probs: Vec<f64>,
    obs: Observability,
}

/// The batches of a run as `(class, parts)`: each class's parts in part
/// order, cut into at most one batch per thread of at most [`MAX_LANES`]
/// lanes, and listed round by round (every class's first batch, then
/// every class's second, …). A contiguous chunk of the list per thread so
/// takes about one batch of every class, and a large class's batches land
/// on different threads.
fn batch_list(classes: &[u32], num_classes: usize, threads: usize) -> Vec<(u32, Vec<u32>)> {
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); num_classes];
    for (pi, &class) in classes.iter().enumerate() {
        members[class as usize].push(pi as u32);
    }
    let per_class: Vec<Vec<&[u32]>> = members
        .iter()
        .map(|parts| {
            let width = parts.len().div_ceil(threads).min(MAX_LANES);
            parts.chunks(width).collect()
        })
        .collect();
    let rounds = per_class.iter().map(Vec::len).max().unwrap_or(0);
    (0..rounds)
        .flat_map(|round| {
            per_class
                .iter()
                .enumerate()
                .filter_map(move |(class, batches)| {
                    Some((class as u32, batches.get(round)?.to_vec()))
                })
        })
        .collect()
}

/// Runs the full one-shot analysis through the partitioned path: every
/// partition computes its signal probabilities and observabilities in
/// isolation, the results are scattered into full-circuit arrays, and
/// the global per-fault loop runs unchanged on top. Also returns the
/// estimator's [`LaneSweep`] counters.
///
/// Each structure class's parts are swept in batches, one lane per part
/// (see the module docs); the batches of [`batch_list`] fan out over the
/// analyzer's executor in contiguous chunks, one per thread.
/// The batches share one [`ClassKit`] per class — on replicated-lane
/// netlists the AIG/joining-point/levelization construction cost is paid
/// once per distinct lane structure, not once per lane.
///
/// `cancel` is polled between batches and inside the batched estimation
/// passes; a fired token abandons the run with [`CoreError::Cancelled`].
pub(crate) fn run_partitioned(
    analyzer: &Analyzer,
    plan: &Partitioning,
    probs: &InputProbs,
    cancel: &CancelToken,
) -> Result<(CircuitAnalysis, LaneSweep), CoreError> {
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
    let batches = batch_list(&plan.classes, kits.len(), exec.threads());
    let out = Mutex::new(Scatter {
        node_probs: vec![0.0f64; circuit.num_nodes()],
        obs: Observability::zeroed(circuit),
    });
    let mut results = vec![Ok(LaneSweep::default()); batches.len()];
    exec.fan_out(
        true,
        &batches,
        &mut results,
        &mut Vec::new(),
        cancel,
        1,
        |_: &mut (), (class, batch)| {
            analyze_batch(plan, batch, &kits[*class as usize], global, cancel, &out)
        },
    )?;
    let mut sweep = LaneSweep::default();
    for result in results {
        sweep.add(&result?);
    }
    let Scatter { node_probs, obs } = out.into_inner().expect("no batch panicked");
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
    Ok((
        CircuitAnalysis::from_parts(node_probs, obs, estimates),
        sweep,
    ))
}

/// One batch of a structure class's partitions: one lane-batched
/// estimation pass over the class's AIG, then per lane the AIG→circuit
/// probability mapping and the observability sweep — the exact
/// computation the monolithic session performs, restricted to each
/// component — each lane scattered into `out` as it finishes.
fn analyze_batch(
    plan: &Partitioning,
    batch: &[u32],
    kit: &ClassKit,
    global_probs: &[f64],
    cancel: &CancelToken,
    out: &Mutex<Scatter>,
) -> Result<LaneSweep, CoreError> {
    let _t = protest_telemetry::span(protest_telemetry::Site::PartitionAnalyze);
    failpoints::hit("core.propagate.delay");
    let lanes = batch.len();
    let parts = || batch.iter().map(|&pi| &plan.parts[pi as usize]);
    let aig = kit.est.aig();
    let mut inputs = vec![0.0f64; aig.num_inputs() * lanes];
    for (l, part) in parts().enumerate() {
        for (pos, &g) in part.inputs.iter().enumerate() {
            inputs[pos * lanes + l] = global_probs[g as usize];
        }
    }
    let (aig_probs, sweep) = kit.est.sweep_lanes(lanes, &inputs, cancel)?;
    let mut node_probs = vec![0.0f64; plan.parts[batch[0] as usize].sub.num_nodes()];
    let mut obs = kit.engine.empty();
    for (l, part) in parts().enumerate() {
        for (i, p) in node_probs.iter_mut().enumerate() {
            *p = lane_lit(&aig_probs, aig.lit_of(NodeId::from_index(i)), lanes, l);
        }
        kit.engine.compute_into(&node_probs, &mut obs);
        let _t = protest_telemetry::span(protest_telemetry::Site::PartitionScatter);
        let mut out = out.lock().expect("no batch panicked");
        for (si, &gi) in part.nodes.iter().enumerate() {
            out.node_probs[gi as usize] = node_probs[si];
        }
        out.obs.scatter_from(&obs, &part.nodes);
    }
    Ok(sweep)
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
    fn batch_lists_interleave_classes_across_thread_chunks() {
        // Class 0 has 16 parts, class 1 one part (part 5).
        let classes: Vec<u32> = (0..17).map(|pi| u32::from(pi == 5)).collect();
        let batches = batch_list(&classes, 2, 2);
        let class0: Vec<u32> = (0..17).filter(|&pi| pi != 5).collect();
        assert_eq!(
            batches,
            vec![
                (0, class0[..8].to_vec()),
                (1, vec![5]),
                (0, class0[8..].to_vec())
            ]
        );
        // Two threads take contiguous chunks of two: class 0's two
        // batches run on different threads.
        let chunks: Vec<Vec<u32>> = batches
            .chunks(batches.len().div_ceil(2))
            .map(|chunk| chunk.iter().map(|(class, _)| *class).collect())
            .collect();
        assert_eq!(chunks, vec![vec![0, 1], vec![0]]);
        // Lanes are capped, and one thread takes every batch in order.
        let wide = batch_list(&vec![0; 2 * MAX_LANES + 1], 1, 1);
        let widths: Vec<usize> = wide.iter().map(|(_, parts)| parts.len()).collect();
        assert_eq!(widths, vec![MAX_LANES, MAX_LANES, 1]);
        assert!(batch_list(&[], 0, 4).is_empty());
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
