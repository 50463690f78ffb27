//! Fault detection probabilities.
//!
//! The estimate (paper Sec. 3) multiplies *activation* by *observability*:
//! a stuck-at-0 on net `x` is detected with probability `p_x · s(x)`, a
//! stuck-at-1 with `(1 − p_x) · s(x)` (`x0 := p_x·s(x)`, `x1 := (1−p_x)·s(x)`
//! in the paper). For input-pin faults the pin's own observability `s(eᵢ)`
//! is used, so branch faults differ from their stem fault.
//!
//! The module also implements the paper's "rather trivial way" of computing
//! detection probabilities *exactly* — transform to a signal probability by
//! building the good/faulty XOR miter — used as the estimator's oracle in
//! tests and for the exact option the paper mentions (with its quadratic
//! cost).

use protest_netlist::{Circuit, CircuitBuilder, GateKind, Levels, NodeId};
use protest_sim::{Fault, FaultSite, StuckAt};

use crate::analyzer::{Analyzer, FaultEstimate};
use crate::cancel::CancelToken;
use crate::error::CoreError;
use crate::exec::Exec;
use crate::failpoints;
use crate::observe::Observability;
use crate::params::InputProbs;
use crate::sigprob::exhaustive_signal_probs;

/// Detection probability estimate for one fault, given node signal
/// probabilities and observabilities.
pub fn detection_probability(
    circuit: &Circuit,
    fault: Fault,
    node_probs: &[f64],
    obs: &Observability,
) -> f64 {
    let driver = fault.site.driver(circuit);
    let p = node_probs[driver.index()];
    let activation = match fault.polarity {
        StuckAt::Zero => p,
        StuckAt::One => 1.0 - p,
    };
    let s = match fault.site {
        FaultSite::Output(n) => obs.node(n),
        FaultSite::InputPin { gate, pin } => obs.pin(gate, pin as usize),
    };
    (activation * s).clamp(0.0, 1.0)
}

/// The per-fault estimate, shared by the full and the incremental fault
/// pass (and by every thread of the parallel one).
pub(crate) fn estimate_fault(
    circuit: &Circuit,
    fault: Fault,
    node_probs: &[f64],
    obs: &Observability,
) -> FaultEstimate {
    let detection = detection_probability(circuit, fault, node_probs, obs);
    let driver = fault.site.driver(circuit);
    let p = node_probs[driver.index()];
    let activation = match fault.polarity {
        StuckAt::Zero => p,
        StuckAt::One => 1.0 - p,
    };
    let observability = if activation > 0.0 {
        detection / activation
    } else {
        0.0
    };
    FaultEstimate {
        fault,
        activation,
        observability,
        detection,
    }
}

/// Minimum fault count worth fanning out to worker threads (a per-fault
/// estimate is a handful of flops — small batches cost more to queue than
/// to compute).
pub(crate) const MIN_PAR_FAULTS: usize = 512;

/// Session-persistent buffers of the incremental fault loop: the dirty
/// fault list and the result staging area are reused across queries
/// instead of reallocated per optimizer trial move.
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultScratch {
    /// Fault indices to recompute this refresh.
    pub(crate) todo: Vec<u32>,
    /// Staging: one slot per `todo` entry.
    updates: Vec<FaultEstimate>,
}

/// How often the fault loops poll their cancellation token (one poll per
/// this many faults of a chunk).
const CANCEL_CHECK_FAULTS: usize = 1024;

/// Evaluates every fault from scratch into `estimates`/`detections`
/// (cleared first, capacity reused). At least [`MIN_PAR_FAULTS`] faults
/// fan out over the executor's workers in fault-order chunks, so the
/// output is bit-identical at every thread count.
///
/// `cancel` is polled every [`CANCEL_CHECK_FAULTS`] faults of a chunk; a
/// fired token leaves `estimates`/`detections` partially filled.
#[allow(clippy::too_many_arguments)] // the session's split borrows: one slot per field
pub(crate) fn estimate_all_faults_cancellable(
    circuit: &Circuit,
    faults: &[Fault],
    node_probs: &[f64],
    obs: &Observability,
    exec: &Exec,
    estimates: &mut Vec<FaultEstimate>,
    detections: &mut Vec<f64>,
    cancel: &CancelToken,
) -> Result<(), CoreError> {
    let _t = protest_telemetry::span(protest_telemetry::Site::FaultEstimate);
    failpoints::hit("core.detect.delay");
    estimates.clear();
    estimates.extend(faults.iter().map(|&fault| FaultEstimate {
        fault,
        activation: 0.0,
        observability: 0.0,
        detection: 0.0,
    }));
    detections.clear();
    exec.fan_out(
        faults.len() >= MIN_PAR_FAULTS,
        faults,
        estimates,
        &mut Vec::new(),
        cancel,
        CANCEL_CHECK_FAULTS,
        |_: &mut (), &fault| estimate_fault(circuit, fault, node_probs, obs),
    )?;
    detections.extend(estimates.iter().map(|e| e.detection));
    Ok(())
}

/// Recomputes only the faults listed in `scratch.todo`, patching
/// `estimates`/`detections` in place. Results are staged in
/// `scratch.updates` (reused across calls) so a query allocates nothing
/// after warm-up.
///
/// `cancel` is polled like [`estimate_all_faults_cancellable`]; a fired
/// token errors before any in-place patching (the staging buffer absorbs
/// the partial work), but the caller has already consumed its dirty
/// window, so it must still poison its state on error.
#[allow(clippy::too_many_arguments)] // the session's split borrows: one slot per field
pub(crate) fn re_estimate_faults_cancellable(
    circuit: &Circuit,
    faults: &[Fault],
    node_probs: &[f64],
    obs: &Observability,
    exec: &Exec,
    scratch: &mut FaultScratch,
    estimates: &mut [FaultEstimate],
    detections: &mut [f64],
    cancel: &CancelToken,
) -> Result<(), CoreError> {
    let FaultScratch { todo, updates } = scratch;
    if todo.is_empty() {
        return Ok(());
    }
    let _t = protest_telemetry::span(protest_telemetry::Site::FaultReestimate);
    failpoints::hit("core.detect.delay");
    // Stale rows as placeholders: every slot is overwritten before the
    // patching below reads it.
    updates.resize(todo.len(), estimates[todo[0] as usize]);
    exec.fan_out(
        todo.len() >= MIN_PAR_FAULTS,
        todo,
        updates,
        &mut Vec::new(),
        cancel,
        CANCEL_CHECK_FAULTS,
        |_: &mut (), &fi| estimate_fault(circuit, faults[fi as usize], node_probs, obs),
    )?;
    for (&fi, &est) in todo.iter().zip(updates.iter()) {
        estimates[fi as usize] = est;
        detections[fi as usize] = est.detection;
    }
    Ok(())
}

/// For each fault, the circuit nodes its detection estimate *reads*: the
/// activation driver plus the fanins of every gate in the forward cone of
/// the fault site (those are exactly the signal probabilities the
/// observability recursion between the site and the outputs consumes).
/// A mutation whose dirty nodes miss this set cannot change the fault's
/// estimate, bit for bit. Built once per [`Analyzer`] (see
/// [`Analyzer::fault_deps`]) and shared by every session and clone.
///
/// Stored as per-fault **sorted, disjoint index intervals** in one flat
/// CSR arena: dependency sets are unions of fanin cones, which cluster
/// heavily in (topological) index space, so runs coalesce. A fault whose
/// cone fragments into more than [`MAX_FAULT_DEP_INTERVALS`] runs is
/// *coarsened* by closing its smallest gaps — a **superset** of the true
/// dependency set, which can only trigger spurious (bit-identical)
/// recomputes, never a stale reuse. The cap makes the footprint
/// O(faults × cap) by construction — orders of magnitude below the
/// `faults × nodes / 8` bytes a dense per-fault bitset matrix costs on
/// industrial circuits.
#[derive(Debug)]
pub(crate) struct FaultDeps {
    /// CSR offsets: fault `fi`'s intervals are `ivals[off[fi]..off[fi+1]]`.
    off: Vec<u32>,
    /// Concatenated half-open `[start, end)` circuit-node index intervals,
    /// ascending and disjoint within each fault.
    ivals: Vec<(u32, u32)>,
}

/// Interval cap per fault row (see [`FaultDeps`]): small enough to bound
/// memory at ~132 B/fault, large enough that the lane-local cones of
/// partitionable circuits stay exact.
pub(crate) const MAX_FAULT_DEP_INTERVALS: usize = 16;

impl FaultDeps {
    /// Fault `fi`'s dependency intervals, ascending and disjoint.
    pub(crate) fn intervals(&self, fi: usize) -> &[(u32, u32)] {
        &self.ivals[self.off[fi] as usize..self.off[fi + 1] as usize]
    }

    /// Whether fault `fi`'s dependency set intersects the ascending index
    /// list `dirty` (the early-reject test of the incremental fault loop).
    pub(crate) fn hits(&self, fi: usize, dirty: &[u32]) -> bool {
        let ivals = self.intervals(fi);
        let (Some(&(first, _)), Some(&(_, last))) = (ivals.first(), ivals.last()) else {
            return false;
        };
        let (Some(&dirty_lo), Some(&dirty_hi)) = (dirty.first(), dirty.last()) else {
            return false;
        };
        // Bounds reject: the fault's whole span misses the dirty window.
        if dirty_hi < first || dirty_lo >= last {
            return false;
        }
        // Both sides ascending: advance a cursor into `dirty` per interval.
        let mut di = 0;
        for &(s, e) in ivals {
            di += dirty[di..].partition_point(|&d| d < s);
            match dirty.get(di) {
                Some(&d) if d < e => return true,
                Some(_) => {}
                None => return false,
            }
        }
        false
    }

    /// Heap bytes of the interval arena (a `stats` memory counter).
    pub(crate) fn bytes(&self) -> usize {
        self.off.len() * std::mem::size_of::<u32>()
            + self.ivals.len() * std::mem::size_of::<(u32, u32)>()
    }

    /// Total intervals across all faults.
    #[cfg(test)]
    pub(crate) fn num_intervals(&self) -> usize {
        self.ivals.len()
    }
}

/// Sorts `tmp`, merges touching or overlapping intervals into `runs`, and
/// closes the smallest inter-run gaps until at most `cap` runs remain
/// (gap-closing is a superset, never a loss — see [`FaultDeps`]).
fn coalesce_cap(
    tmp: &mut [(u32, u32)],
    runs: &mut Vec<(u32, u32)>,
    gaps: &mut Vec<u32>,
    cap: usize,
) {
    runs.clear();
    tmp.sort_unstable();
    let mut iter = tmp.iter().copied();
    let Some((mut s, mut e)) = iter.next() else {
        return;
    };
    for (ns, ne) in iter {
        if ns <= e {
            e = e.max(ne);
        } else {
            runs.push((s, e));
            (s, e) = (ns, ne);
        }
    }
    runs.push((s, e));
    if runs.len() > cap {
        gaps.clear();
        gaps.extend(runs.windows(2).map(|w| w[1].0 - w[0].1));
        gaps.sort_unstable();
        // Threshold closing at least `runs.len() - cap` gaps; ties may
        // close a few extra — still a valid superset.
        let thresh = gaps[runs.len() - cap - 1];
        let mut w = 0;
        for i in 1..runs.len() {
            if runs[i].0 - runs[w].1 <= thresh {
                runs[w].1 = runs[i].1;
            } else {
                w += 1;
                runs[w] = runs[i];
            }
        }
        runs.truncate(w + 1);
    }
}

pub(crate) fn build_fault_deps(analyzer: &Analyzer) -> FaultDeps {
    let circuit = analyzer.circuit();
    let engine = analyzer.obs_engine();
    let _span = protest_telemetry::span(protest_telemetry::Site::FaultDeps);
    let fanouts = engine.fanouts();
    let n = circuit.num_nodes();
    let faults = analyzer.faults();
    let cap = MAX_FAULT_DEP_INTERVALS;
    // Bottom-up memoization pass: for every node `v`, a capped interval
    // superset of S(v) = fanins(v) ∪ ⋃ { S(g) : gate g reads v } — the
    // signal probabilities the observability recursion through `v`'s
    // forward cone consumes. Reverse topological order finalizes every
    // reader's set before it is merged, so the pass is O(edges × cap)
    // time and O(nodes × cap) scratch. The per-fault alternative (a
    // forward-cone DFS per fault) is O(faults × cone edges) and takes
    // minutes on deep 50k-node meshes where every cone spans half the
    // circuit; this pass is milliseconds there, at the price that
    // intermediate gap-closing can coarsen rows a direct DFS would keep
    // exact (still supersets, so still safe).
    let mut sets: Vec<(u32, u32)> = vec![(0, 0); n * cap];
    let mut lens: Vec<u8> = vec![0; n];
    let mut tmp: Vec<(u32, u32)> = Vec::new();
    let mut runs: Vec<(u32, u32)> = Vec::new();
    let mut gaps: Vec<u32> = Vec::new();
    for &v in engine.levels().order().iter().rev() {
        tmp.clear();
        for &f in circuit.node(v).fanins() {
            let i = f.index() as u32;
            tmp.push((i, i + 1));
        }
        for &(g, _) in fanouts.of(v) {
            let gi = g.index();
            tmp.extend_from_slice(&sets[gi * cap..gi * cap + lens[gi] as usize]);
        }
        coalesce_cap(&mut tmp, &mut runs, &mut gaps, cap);
        let vi = v.index();
        sets[vi * cap..vi * cap + runs.len()].copy_from_slice(&runs);
        lens[vi] = runs.len() as u8;
    }
    let mut off = Vec::with_capacity(faults.len() + 1);
    off.push(0u32);
    let mut ivals: Vec<(u32, u32)> = Vec::new();
    for &fault in faults {
        tmp.clear();
        let d = fault.site.driver(circuit).index() as u32;
        tmp.push((d, d + 1));
        match fault.site {
            // A stem fault reads every reader gate's cone set; the stem's
            // own fanins are not dependencies, so S(node) itself is not
            // merged here.
            FaultSite::Output(node) => {
                for &(g, _) in fanouts.of(node) {
                    let gi = g.index();
                    tmp.extend_from_slice(&sets[gi * cap..gi * cap + lens[gi] as usize]);
                }
            }
            FaultSite::InputPin { gate, .. } => {
                let gi = gate.index();
                tmp.extend_from_slice(&sets[gi * cap..gi * cap + lens[gi] as usize]);
            }
        }
        coalesce_cap(&mut tmp, &mut runs, &mut gaps, cap);
        ivals.extend_from_slice(&runs);
        off.push(ivals.len() as u32);
    }
    FaultDeps { off, ivals }
}

/// Builds a copy of `circuit` with `fault` permanently injected.
///
/// The copy has the same primary inputs in the same order; the faulty net is
/// replaced by a constant. Useful for miters, redundancy checks and serial
/// fault simulation.
pub fn build_faulty_circuit(circuit: &Circuit, fault: Fault) -> Circuit {
    let mut b = CircuitBuilder::new(format!("{}_faulty", circuit.name()));
    let map = copy_nodes(circuit, &mut b, Some(fault), "");
    for (i, &o) in circuit.outputs().iter().enumerate() {
        let name = circuit
            .output_name(i)
            .map(str::to_string)
            .unwrap_or_else(|| format!("o{i}"));
        b.output(map[o.index()], name);
    }
    b.finish().expect("faulty copy preserves validity")
}

/// Builds the good/faulty XOR miter of `circuit` under `fault`: same
/// inputs, one output `diff` that is 1 exactly when the fault is detected.
pub fn build_miter(circuit: &Circuit, fault: Fault) -> Circuit {
    let mut b = CircuitBuilder::new(format!("{}_miter", circuit.name()));
    let good = copy_nodes(circuit, &mut b, None, "g_");
    let bad = copy_gates_reusing_inputs(circuit, &mut b, &good, fault);
    let mut xors = Vec::with_capacity(circuit.num_outputs());
    for &o in circuit.outputs() {
        xors.push(b.xor2(good[o.index()], bad[o.index()]));
    }
    let diff = b.or_tree(&xors);
    b.output(diff, "diff");
    b.finish().expect("miter construction preserves validity")
}

/// Exact detection probability via the miter and exhaustive enumeration.
///
/// # Errors
///
/// Returns [`CoreError::ExactTooLarge`] beyond the exhaustive input limit
/// and [`CoreError::ProbsLength`] on a mismatched probability vector.
pub fn exact_detection_probability(
    circuit: &Circuit,
    fault: Fault,
    probs: &InputProbs,
) -> Result<f64, CoreError> {
    probs.check_len(circuit.num_inputs())?;
    let miter = build_miter(circuit, fault);
    let node_probs = exhaustive_signal_probs(&miter, probs)?;
    let diff = miter.outputs()[0];
    Ok(node_probs[diff.index()])
}

/// Copies all nodes (inputs included) into `b`, optionally injecting a
/// fault; returns old-id → new-id.
fn copy_nodes(
    circuit: &Circuit,
    b: &mut CircuitBuilder,
    fault: Option<Fault>,
    prefix: &str,
) -> Vec<NodeId> {
    let levels = Levels::new(circuit);
    let mut map = vec![NodeId::from_index(0); circuit.num_nodes()];
    // Inputs first, in declaration order, preserving names and positions.
    for &i in circuit.inputs() {
        let name = circuit.node(i).name().unwrap_or("in").to_string();
        map[i.index()] = b.input(name);
    }
    let stuck = fault.map(|f| {
        let c = b.constant(f.polarity.bit());
        (f, c)
    });
    for &id in levels.order() {
        let node = circuit.node(id);
        if matches!(node.kind(), GateKind::Input) {
            continue;
        }
        let mut fanins: Vec<NodeId> = node.fanins().iter().map(|&f| map[f.index()]).collect();
        if let Some((
            Fault {
                site: FaultSite::InputPin { gate, pin },
                ..
            },
            c,
        )) = stuck
        {
            if gate == id {
                fanins[pin as usize] = c;
            }
        }
        let kind = match node.kind() {
            GateKind::Lut(lid) => {
                let t = b.add_table(circuit.lut(lid).clone());
                GateKind::Lut(t)
            }
            k => k,
        };
        let new_id = b.gate(kind, &fanins);
        if let Some(name) = node.name() {
            if prefix.is_empty() {
                b.name(new_id, name.to_string());
            } else {
                b.name(new_id, format!("{prefix}{name}"));
            }
        }
        map[id.index()] = new_id;
        if let Some((
            Fault {
                site: FaultSite::Output(n),
                ..
            },
            c,
        )) = stuck
        {
            if n == id {
                map[id.index()] = c;
            }
        }
    }
    // An output stuck-at on a primary input net.
    if let Some((
        Fault {
            site: FaultSite::Output(n),
            ..
        },
        c,
    )) = stuck
    {
        if matches!(circuit.node(n).kind(), GateKind::Input) {
            map[n.index()] = c;
        }
    }
    map
}

/// Copies only the gates, reusing `shared` for primary inputs, with the
/// fault injected (the faulty half of a miter).
fn copy_gates_reusing_inputs(
    circuit: &Circuit,
    b: &mut CircuitBuilder,
    shared: &[NodeId],
    fault: Fault,
) -> Vec<NodeId> {
    let levels = Levels::new(circuit);
    let mut map = vec![NodeId::from_index(0); circuit.num_nodes()];
    for &i in circuit.inputs() {
        map[i.index()] = shared[i.index()];
    }
    let stuck = b.constant(fault.polarity.bit());
    if let FaultSite::Output(n) = fault.site {
        if matches!(circuit.node(n).kind(), GateKind::Input) {
            map[n.index()] = stuck;
        }
    }
    for &id in levels.order() {
        let node = circuit.node(id);
        if matches!(node.kind(), GateKind::Input) {
            continue;
        }
        let mut fanins: Vec<NodeId> = node.fanins().iter().map(|&f| map[f.index()]).collect();
        if let FaultSite::InputPin { gate, pin } = fault.site {
            if gate == id {
                fanins[pin as usize] = stuck;
            }
        }
        let kind = match node.kind() {
            GateKind::Lut(lid) => {
                let t = b.add_table(circuit.lut(lid).clone());
                GateKind::Lut(t)
            }
            k => k,
        };
        let new_id = b.gate(kind, &fanins);
        map[id.index()] = new_id;
        if fault.site == FaultSite::Output(id) {
            map[id.index()] = stuck;
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use protest_netlist::CircuitBuilder;
    use protest_sim::{ExhaustivePatterns, FaultSim, FaultUniverse};

    use crate::observe::compute_observability;
    use crate::params::AnalyzerParams;

    use super::*;

    #[test]
    fn and_gate_detection_estimates_are_exact() {
        // Fanout-free AND: activation × observability is exact.
        let mut b = CircuitBuilder::new("and");
        let a = b.input("a");
        let c = b.input("c");
        let z = b.and2(a, c);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let probs = InputProbs::uniform(2);
        let node_probs = exhaustive_signal_probs(&ckt, &probs).unwrap();
        let obs = compute_observability(&ckt, &node_probs, &AnalyzerParams::default());
        for fault in FaultUniverse::all(&ckt).iter() {
            let est = detection_probability(&ckt, fault, &node_probs, &obs);
            let exact = exact_detection_probability(&ckt, fault, &probs).unwrap();
            assert!(
                (est - exact).abs() < 1e-12,
                "{fault:?}: est {est} exact {exact}"
            );
        }
    }

    #[test]
    fn miter_probability_matches_fault_simulation_frequency() {
        // Cross-check the exact miter against exhaustive fault simulation.
        let mut b = CircuitBuilder::new("m");
        let a = b.input("a");
        let c = b.input("c");
        let d = b.input("d");
        let na = b.not(a);
        let g1 = b.and2(a, c);
        let g2 = b.or2(na, d);
        let z = b.xor2(g1, g2);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let probs = InputProbs::uniform(3);
        let universe = FaultUniverse::all(&ckt);
        let mut fsim = FaultSim::new(&ckt);
        let mut src = ExhaustivePatterns::new(3);
        let counts = fsim.count_detections(universe.faults(), &mut src, 64);
        for (i, fault) in universe.iter().enumerate() {
            let exact = exact_detection_probability(&ckt, fault, &probs).unwrap();
            let freq = counts.detections[i] as f64 / 64.0;
            assert!(
                (exact - freq).abs() < 1e-12,
                "{fault:?}: miter {exact} vs sim {freq}"
            );
        }
    }

    #[test]
    fn input_stem_fault_miters_work() {
        let mut b = CircuitBuilder::new("s");
        let a = b.input("a");
        let na = b.not(a);
        let z = b.or2(a, na); // constant 1: a-faults undetectable
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let probs = InputProbs::uniform(1);
        let f = Fault::output(a, StuckAt::Zero);
        let exact = exact_detection_probability(&ckt, f, &probs).unwrap();
        assert!(exact.abs() < 1e-12, "redundant fault must be undetectable");
    }

    #[test]
    fn faulty_circuit_interface_is_preserved() {
        let mut b = CircuitBuilder::new("f");
        let a = b.input("a");
        let c = b.input("c");
        let z = b.and2(a, c);
        b.output(z, "zz");
        let ckt = b.finish().unwrap();
        let faulty = build_faulty_circuit(&ckt, Fault::output(z, StuckAt::One));
        assert_eq!(faulty.num_inputs(), 2);
        assert_eq!(faulty.num_outputs(), 1);
        // Output is now the constant-1 node.
        let mut sim = protest_sim::LogicSim::new(&faulty);
        assert_eq!(sim.run_block(&[0, 0])[0], !0u64);
    }

    #[test]
    fn fault_dep_intervals_match_a_dense_reference() {
        // The interval store must cover the set the old dense bitset rows
        // held — driver + fanins of every forward-cone gate — as a capped
        // superset with exact outer bounds (the bottom-up memoization can
        // coarsen interior gaps, never the span).
        let ckt = protest_circuits::comp24();
        let analyzer = crate::Analyzer::new(&ckt);
        let deps = build_fault_deps(&analyzer);
        let fanouts = analyzer.obs_engine().fanouts();
        for (fi, &fault) in analyzer.faults().iter().enumerate() {
            let mut want = vec![false; ckt.num_nodes()];
            want[fault.site.driver(&ckt).index()] = true;
            let mut stack: Vec<NodeId> = Vec::new();
            let mut seen = vec![false; ckt.num_nodes()];
            match fault.site {
                FaultSite::Output(node) => {
                    stack.extend(fanouts.of(node).iter().map(|&(g, _)| g));
                }
                FaultSite::InputPin { gate, .. } => stack.push(gate),
            }
            while let Some(g) = stack.pop() {
                if std::mem::replace(&mut seen[g.index()], true) {
                    continue;
                }
                for &f in ckt.node(g).fanins() {
                    want[f.index()] = true;
                }
                stack.extend(fanouts.of(g).iter().map(|&(h, _)| h));
            }
            let mut got = vec![false; ckt.num_nodes()];
            for &(s, e) in deps.intervals(fi) {
                assert!(s < e, "fault {fi}: empty interval");
                for i in s..e {
                    assert!(!got[i as usize], "fault {fi}: overlapping intervals");
                    got[i as usize] = true;
                }
            }
            // Always a superset (coarsening must never lose a dependency).
            for i in 0..ckt.num_nodes() {
                assert!(!want[i] || got[i], "fault {fi}: lost dependency {i}");
            }
            let ivals = deps.intervals(fi);
            assert!(ivals.len() <= MAX_FAULT_DEP_INTERVALS, "fault {fi}");
            // Outer bounds are exact: every merged contribution has exact
            // bounds by induction and gap-closing only fills interior gaps,
            // so the span never exceeds the true dependency span.
            let lo = want.iter().position(|&w| w).expect("driver is set");
            let hi = want.iter().rposition(|&w| w).expect("driver is set");
            assert_eq!(ivals.first().unwrap().0 as usize, lo, "fault {fi}: lo");
            assert_eq!(ivals.last().unwrap().1 as usize, hi + 1, "fault {fi}: hi");
        }
        assert!(deps.num_intervals() > 0);
    }

    #[test]
    fn interval_hit_tests_cover_the_edges() {
        let deps = FaultDeps {
            off: vec![0, 2, 2],
            ivals: vec![(4, 8), (12, 13)],
        };
        // In-range hits and misses for the two-interval fault.
        assert!(deps.hits(0, &[5]));
        assert!(deps.hits(0, &[0, 7]));
        assert!(deps.hits(0, &[12]));
        assert!(
            deps.hits(0, &[8, 9, 10, 12]),
            "12 is in the second interval"
        );
        assert!(!deps.hits(0, &[0, 1, 2, 3]));
        assert!(!deps.hits(0, &[8, 9, 10, 11]));
        assert!(!deps.hits(0, &[13, 99]));
        assert!(!deps.hits(0, &[]));
        // The empty fault row never hits.
        assert!(!deps.hits(1, &[0, 5, 12]));
    }

    #[test]
    fn fault_dep_memory_is_subquadratic() {
        // On a ~10k-gate mesh the interval store must undercut the dense
        // faults × nodes bitset matrix by a wide margin — the bound that
        // makes 100k-gate sessions feasible.
        let ckt = protest_circuits::mult_mesh(4, 6, 30, true);
        assert!(ckt.num_nodes() >= 10_000);
        let analyzer = crate::Analyzer::new(&ckt);
        let bytes = analyzer.fault_deps_bytes();
        let dense = analyzer.faults().len() * ckt.num_nodes().div_ceil(64) * 8;
        assert!(
            bytes * 8 < dense,
            "interval store {bytes} B vs dense {dense} B"
        );
    }

    #[test]
    fn branch_fault_estimate_uses_pin_observability() {
        // a stem feeds AND(a,c) and a buffer PO; the AND-branch sa1 must use
        // the pin observability (not the stem's, which is higher).
        let mut b = CircuitBuilder::new("br");
        let a = b.input("a");
        let c = b.input("c");
        let g = b.and2(a, c);
        let w = b.buf(a);
        b.output(g, "g");
        b.output(w, "w");
        let ckt = b.finish().unwrap();
        let probs = InputProbs::uniform(2);
        let node_probs = exhaustive_signal_probs(&ckt, &probs).unwrap();
        let obs = compute_observability(&ckt, &node_probs, &AnalyzerParams::default());
        let branch = Fault::input_pin(g, 0, StuckAt::One);
        let est = detection_probability(&ckt, branch, &node_probs, &obs);
        let exact = exact_detection_probability(&ckt, branch, &probs).unwrap();
        assert!((est - exact).abs() < 1e-9, "est {est} exact {exact}");
    }
}
