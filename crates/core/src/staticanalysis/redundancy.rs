//! The redundancy prover: certifies stuck-at fault classes whose detection
//! probability is *exactly* zero, so they can be pruned from every
//! downstream probabilistic computation.
//!
//! Proofs run in four tiers, cheapest first; a class is charged to the
//! first tier that resolves it:
//!
//! 1. **Constant activation** — if the fault site is proven constant `v`
//!    by the lint lattice ([`super::check`](crate::check)'s pass 1), the stuck-at-`v` fault never
//!    changes any net and is unconditionally redundant.
//! 2. **Static unobservability** — a fault whose every output path
//!    crosses an edge blocked by a constant controlling side input (with
//!    the fault's own forward cone excluded from the constant facts, so
//!    the cut still holds in the faulty circuit) can never be observed.
//! 3. **Dominator widening** — once *both* output stuck-at faults of a
//!    gate `g` are proven redundant, no value change at `g` is ever
//!    visible; every fault whose site is dominated by `g` (all output
//!    paths pass through `g`) is then redundant without further proof.
//!    This tier runs to a fixpoint before and after the BDD tier.
//! 4. **Exact BDD proof** — the remaining classes get a good/faulty miter
//!    ([`build_miter`]), built as a BDD under a DFS-fanin variable order
//!    with a node budget; a constant-false `diff` function certifies
//!    redundancy, anything else yields the *exact* detection probability.
//!    A blown budget is reported honestly as [`Verdict::Unproven`], never
//!    as a verdict either way.
//!
//! Equivalence classes share identical test sets, so one proof per class
//! covers every member; the BDD tier proves the representative, while the
//! static tiers may resolve the class through any member. The expensive
//! tier-4 calls are chunked over the analyzer's worker pool.

use std::collections::HashMap;

use protest_bdd::{build_node_bdds_with_order, dfs_variable_order, Manager};
use protest_netlist::analyze::{Dominators, Fanouts};
use protest_netlist::{Circuit, Levels, NodeId};
use protest_sim::{CollapsedUniverse, Fault, FaultSite};

use crate::cancel::CancelToken;
use crate::detect::build_miter;
use crate::error::CoreError;
use crate::exec::Exec;

use super::lint::{const_lattice, edge_is_cut, observable_set};

/// Why a fault class is undetectable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedundancyReason {
    /// The fault site is tied to the stuck value: the fault never changes
    /// any net.
    ConstantSite,
    /// Every propagation path is statically blocked by a constant
    /// controlling side input.
    Unobservable,
    /// All output paths pass through a gate both of whose output stuck-at
    /// faults are already proven redundant.
    DominatedByRedundant,
    /// The good/faulty miter's BDD is the constant-false function.
    ProvedZero,
}

impl RedundancyReason {
    /// Short kebab-case tag (used by reports and JSON).
    pub fn tag(self) -> &'static str {
        match self {
            RedundancyReason::ConstantSite => "constant-site",
            RedundancyReason::Unobservable => "unobservable",
            RedundancyReason::DominatedByRedundant => "dominated",
            RedundancyReason::ProvedZero => "bdd-zero",
        }
    }
}

/// The prover's answer for one fault class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Detection probability is exactly 0 under every input distribution.
    Redundant(RedundancyReason),
    /// Detection probability is exactly `p_exact` (> 0) under the given
    /// input probabilities — a BDD-certified value, not an estimate.
    Testable {
        /// Exact detection probability of the class under the prover's
        /// input probabilities.
        p_exact: f64,
    },
    /// The BDD node budget was exhausted before a proof either way.
    Unproven,
}

impl Verdict {
    /// Whether this class is certified undetectable.
    pub fn is_redundant(&self) -> bool {
        matches!(self, Verdict::Redundant(_))
    }
}

/// Aggregate prover counters (all in units of fault *classes*).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProverStats {
    /// Classes examined.
    pub classes: usize,
    /// Classes proven redundant (any tier).
    pub redundant: usize,
    /// Classes proven testable with an exact probability.
    pub testable: usize,
    /// Classes left unresolved by the node budget.
    pub unproven: usize,
    /// Tier-1 proofs (constant activation).
    pub by_constant_site: usize,
    /// Tier-2 proofs (static unobservability).
    pub by_unobservable: usize,
    /// Tier-3 proofs (dominator widening).
    pub by_dominator: usize,
    /// Tier-4 redundancy proofs (constant-false miter BDD).
    pub by_bdd: usize,
    /// Miter BDDs attempted.
    pub bdd_calls: usize,
    /// Miter BDDs aborted by the node budget.
    pub budget_exceeded: usize,
}

/// Proves every class of `equiv` redundant, testable or unproven.
///
/// `probs` are per-input probabilities used only to evaluate the exact
/// detection probability of testable classes (redundancy itself is
/// distribution-independent); `budget` caps each miter BDD's node count;
/// `num_threads` sizes the worker pool for the BDD tier (0 = auto, see
/// [`AnalyzerParams::num_threads`](crate::AnalyzerParams::num_threads)).
///
/// # Panics
///
/// Panics if `probs` does not match the circuit's input count.
pub fn prove_classes(
    circuit: &Circuit,
    equiv: &CollapsedUniverse,
    probs: &[f64],
    budget: usize,
    num_threads: usize,
) -> (Vec<Verdict>, ProverStats) {
    prove_classes_cancellable(
        circuit,
        equiv,
        probs,
        budget,
        num_threads,
        &CancelToken::never(),
    )
    .expect("a disarmed token never cancels")
}

/// Cancellable form of [`prove_classes`]: the static tiers poll `cancel`
/// per class and the BDD tier per miter, so a fired token abandons the
/// proof run between (never inside) individual BDD builds.
///
/// # Errors
///
/// Returns [`CoreError::Cancelled`] when the token fires; no partial
/// verdicts are returned.
///
/// # Panics
///
/// Panics if `probs` does not match the circuit's input count.
pub fn prove_classes_cancellable(
    circuit: &Circuit,
    equiv: &CollapsedUniverse,
    probs: &[f64],
    budget: usize,
    num_threads: usize,
    cancel: &CancelToken,
) -> Result<(Vec<Verdict>, ProverStats), CoreError> {
    assert_eq!(
        probs.len(),
        circuit.num_inputs(),
        "one probability per primary input"
    );
    let exec = Exec::new(num_threads);
    let mut verdicts: Vec<Option<Verdict>> = vec![None; equiv.len()];
    let mut stats = ProverStats {
        classes: equiv.len(),
        ..ProverStats::default()
    };
    let fanouts = Fanouts::new(circuit);
    let levels = Levels::new(circuit);
    let lattice = const_lattice(circuit);
    let has_consts = lattice.iter().any(Option::is_some);
    let doms = Dominators::new(circuit, &fanouts);
    let class_of: HashMap<Fault, u32> = equiv
        .classes()
        .iter()
        .enumerate()
        .flat_map(|(ci, class)| class.iter().map(move |&f| (f, ci as u32)))
        .collect();

    // Tier 1: constant activation. Any member's site being tied to its
    // stuck value settles the whole class (equal test sets).
    let const_span = protest_telemetry::span(protest_telemetry::Site::RedundancyConst);
    if has_consts {
        for (ci, class) in equiv.classes().iter().enumerate() {
            let tied = class
                .iter()
                .any(|f| lattice[f.site.driver(circuit).index()] == Some(f.polarity.bit()));
            if tied {
                verdicts[ci] = Some(Verdict::Redundant(RedundancyReason::ConstantSite));
                stats.by_constant_site += 1;
            }
        }
    }
    drop(const_span);

    // Tier 2: static unobservability. Without constant nets there are no
    // cut edges, and structurally dead faults are already excluded from
    // the universe, so the tier can only fire when tier 1 could.
    let unobs_span = protest_telemetry::span(protest_telemetry::Site::RedundancyUnobs);
    if has_consts {
        for (ci, class) in equiv.classes().iter().enumerate() {
            if verdicts[ci].is_some() {
                continue;
            }
            cancel.check()?;
            if class
                .iter()
                .any(|&f| statically_unobservable(circuit, &fanouts, &levels, &lattice, f))
            {
                verdicts[ci] = Some(Verdict::Redundant(RedundancyReason::Unobservable));
                stats.by_unobservable += 1;
            }
        }
    }

    drop(unobs_span);

    // Tier 3 before the BDD tier: anything dominated by an
    // already-redundant gate needs no miter at all.
    let widen_span = protest_telemetry::span(protest_telemetry::Site::RedundancyWiden);
    stats.by_dominator += widen_by_dominators(circuit, equiv, &doms, &class_of, &mut verdicts);
    drop(widen_span);

    // Tier 4: exact miter BDDs for whatever is left, fanned out over the
    // worker pool in class-order chunks, so the result is deterministic at
    // every thread count.
    let bdd_span = protest_telemetry::span(protest_telemetry::Site::RedundancyBdd);
    let todo: Vec<u32> = (0..equiv.len() as u32)
        .filter(|&ci| verdicts[ci as usize].is_none())
        .collect();
    stats.bdd_calls = todo.len();
    let mut proved: Vec<Verdict> = vec![Verdict::Unproven; todo.len()];
    exec.fan_out(
        todo.len() > 1,
        &todo,
        &mut proved,
        &mut Vec::new(),
        cancel,
        1,
        |_: &mut (), &ci| {
            let rep = equiv.representatives()[ci as usize];
            prove_by_bdd(circuit, rep, probs, budget)
        },
    )?;
    for (&ci, &v) in todo.iter().zip(&proved) {
        if matches!(v, Verdict::Redundant(_)) {
            stats.by_bdd += 1;
        }
        if matches!(v, Verdict::Unproven) {
            stats.budget_exceeded += 1;
        }
        verdicts[ci as usize] = Some(v);
    }
    drop(bdd_span);

    // Tier 3 again: BDD-proven-redundant gates may dominate classes the
    // budget left unproven.
    let rewiden_span = protest_telemetry::span(protest_telemetry::Site::RedundancyWiden);
    stats.by_dominator += widen_by_dominators(circuit, equiv, &doms, &class_of, &mut verdicts);
    drop(rewiden_span);

    let final_verdicts: Vec<Verdict> = verdicts
        .into_iter()
        .map(|v| v.expect("every class resolved or unproven"))
        .collect();
    for v in &final_verdicts {
        match v {
            Verdict::Redundant(_) => stats.redundant += 1,
            Verdict::Testable { .. } => stats.testable += 1,
            Verdict::Unproven => stats.unproven += 1,
        }
    }
    Ok((final_verdicts, stats))
}

/// Tier-2 check for one fault: is every propagation path blocked by a
/// constant controlling side input whose deriving cone the fault cannot
/// disturb?
fn statically_unobservable(
    circuit: &Circuit,
    fanouts: &Fanouts,
    levels: &Levels,
    lattice: &[Option<bool>],
    fault: Fault,
) -> bool {
    // Constant facts inside the fault's forward cone may not hold in the
    // faulty circuit; exclude them from every cut.
    let start = fault.site.affected();
    let mut in_cone = vec![false; circuit.num_nodes()];
    let mut stack = vec![start];
    in_cone[start.index()] = true;
    while let Some(n) = stack.pop() {
        for &(g, _) in fanouts.of(n) {
            if !in_cone[g.index()] {
                in_cone[g.index()] = true;
                stack.push(g);
            }
        }
    }
    let invalidated = |n: NodeId| in_cone[n.index()];
    if let FaultSite::InputPin { gate, pin } = fault.site {
        if edge_is_cut(circuit, lattice, gate, pin as usize, &invalidated) {
            return true;
        }
    }
    let obs = observable_set(circuit, fanouts, levels, lattice, &invalidated);
    !obs[start.index()]
}

/// Tier 3: runs the dominator-widening rule to a fixpoint; returns how
/// many classes it newly resolved.
fn widen_by_dominators(
    circuit: &Circuit,
    equiv: &CollapsedUniverse,
    doms: &Dominators,
    class_of: &HashMap<Fault, u32>,
    verdicts: &mut [Option<Verdict>],
) -> usize {
    use protest_sim::StuckAt;
    let mut resolved = 0;
    loop {
        // Gates with both output stuck-at classes proven redundant: no
        // value change at them is ever observable.
        let mut blocked = vec![false; circuit.num_nodes()];
        let mut any_blocked = false;
        for (id, _) in circuit.iter() {
            let both = [StuckAt::Zero, StuckAt::One].iter().all(|&pol| {
                class_of
                    .get(&Fault::output(id, pol))
                    .is_some_and(|&ci| verdicts[ci as usize].is_some_and(|v| v.is_redundant()))
            });
            if both {
                blocked[id.index()] = true;
                any_blocked = true;
            }
        }
        if !any_blocked {
            return resolved;
        }
        let mut changed = false;
        for (ci, class) in equiv.classes().iter().enumerate() {
            if verdicts[ci].is_some() {
                continue;
            }
            let dominated = class.iter().any(|&f| {
                let site = f.site.affected();
                // A pin fault's effect first appears at the consuming
                // gate's output; an output fault's at its own node. Either
                // way the effect must traverse the whole dominator chain,
                // and for pin faults the consuming gate itself as well.
                let through_site =
                    matches!(f.site, FaultSite::InputPin { .. }) && blocked[site.index()];
                through_site || doms.chain(site).any(|d| blocked[d.index()])
            });
            if dominated {
                verdicts[ci] = Some(Verdict::Redundant(RedundancyReason::DominatedByRedundant));
                resolved += 1;
                changed = true;
            }
        }
        if !changed {
            return resolved;
        }
    }
}

/// Tier 4: one exact proof. Builds the good/faulty miter, orders BDD
/// variables by DFS over the miter's fanin cones (the order that keeps
/// ripple-structured circuits polynomial) and builds the `diff` function
/// under the node budget.
fn prove_by_bdd(circuit: &Circuit, rep: Fault, probs: &[f64], budget: usize) -> Verdict {
    let miter = build_miter(circuit, rep);
    // A budget that cannot even hold the variable nodes (plus the two
    // terminals) proves nothing.
    if budget < miter.num_inputs() + 2 {
        return Verdict::Unproven;
    }
    let order = dfs_variable_order(&miter);
    let mut manager = Manager::with_node_limit(miter.num_inputs(), budget);
    let Ok(bdds) = build_node_bdds_with_order(&mut manager, &miter, &order) else {
        return Verdict::Unproven;
    };
    let diff = bdds[miter.outputs()[0].index()];
    if diff == manager.constant(false) {
        return Verdict::Redundant(RedundancyReason::ProvedZero);
    }
    // `probability` indexes by BDD variable; the miter shares the base
    // circuit's inputs in declaration order, so permute through the order.
    let mut by_var = vec![0.5; miter.num_inputs()];
    for (i, &v) in order.iter().enumerate() {
        by_var[v] = probs[i];
    }
    Verdict::Testable {
        p_exact: manager.probability(diff, &by_var),
    }
}

#[cfg(test)]
mod tests {
    use protest_netlist::CircuitBuilder;
    use protest_sim::{collapse_universe, FaultUniverse, StuckAt};

    use super::*;

    fn prove(circuit: &Circuit) -> (CollapsedUniverse, Vec<Verdict>, ProverStats) {
        let universe = FaultUniverse::all(circuit);
        let equiv = collapse_universe(circuit, &universe);
        let probs = vec![0.5; circuit.num_inputs()];
        let (verdicts, stats) = prove_classes(circuit, &equiv, &probs, 100_000, 1);
        (equiv, verdicts, stats)
    }

    fn verdict_of(equiv: &CollapsedUniverse, verdicts: &[Verdict], fault: Fault) -> Verdict {
        let ci = equiv
            .classes()
            .iter()
            .position(|c| c.contains(&fault))
            .expect("fault not in any class");
        verdicts[ci]
    }

    #[test]
    fn tautology_faults_are_proven_by_bdd() {
        // z = a OR NOT a == 1: z's sa1 is redundant, a's faults are
        // unobservable (the classic redundant-logic example).
        let mut b = CircuitBuilder::new("taut");
        let a = b.input("a");
        let na = b.not(a);
        let z = b.or2(a, na);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let (equiv, verdicts, stats) = prove(&ckt);
        assert!(stats.redundant >= 3, "{stats:?}");
        assert!(verdict_of(&equiv, &verdicts, Fault::output(z, StuckAt::One)).is_redundant());
        assert!(verdict_of(&equiv, &verdicts, Fault::output(a, StuckAt::Zero)).is_redundant());
        // z sa0 is detected by every pattern.
        match verdict_of(&equiv, &verdicts, Fault::output(z, StuckAt::Zero)) {
            Verdict::Testable { p_exact } => assert!((p_exact - 1.0).abs() < 1e-12),
            v => panic!("z sa0 should be always detected, got {v:?}"),
        }
        // No constant nets here: these proofs need the BDD.
        assert!(stats.by_bdd >= 1, "{stats:?}");
        assert_eq!(stats.by_constant_site, 0);
    }

    #[test]
    fn tied_inputs_are_proven_without_bdds() {
        // g = AND(x, const0): g sa0 never activates (tier 1); x's faults
        // never propagate (tier 2). The OR keeps a testable path alive.
        let mut b = CircuitBuilder::new("tied");
        let a = b.input("a");
        let c0 = b.constant(false);
        let x = b.not(a);
        let g = b.and2(x, c0);
        let z = b.or2(g, a);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let (equiv, verdicts, stats) = prove(&ckt);
        assert_eq!(
            verdict_of(&equiv, &verdicts, Fault::output(g, StuckAt::Zero)),
            Verdict::Redundant(RedundancyReason::ConstantSite)
        );
        // x sa0 collapses into g sa0 through the fanout-free AND pin
        // (checkpoint-free collapse), so tier 1 covers it; x sa1 has no
        // constant-site member and needs the unobservability tier.
        assert_eq!(
            verdict_of(&equiv, &verdicts, Fault::output(x, StuckAt::Zero)),
            Verdict::Redundant(RedundancyReason::ConstantSite)
        );
        assert_eq!(
            verdict_of(&equiv, &verdicts, Fault::output(x, StuckAt::One)),
            Verdict::Redundant(RedundancyReason::Unobservable)
        );
        assert!(stats.by_constant_site >= 1);
        assert!(stats.by_unobservable >= 1);
        // a itself is directly observed through the OR: testable.
        assert!(!verdict_of(&equiv, &verdicts, Fault::output(a, StuckAt::Zero)).is_redundant());
    }

    #[test]
    fn dominator_tier_widens_without_extra_proofs() {
        // chain = NOT(NOT(x)) feeding g = AND(chain, const0): once g's
        // output faults are settled (tier 1 + tier 2), the chain's faults
        // are dominated. x also fans out to a live path so its own faults
        // stay testable.
        let mut b = CircuitBuilder::new("dom");
        let a = b.input("a");
        let c0 = b.constant(false);
        let n1 = b.not(a);
        let n2 = b.not(n1);
        let g = b.and2(n2, c0);
        let z = b.or2(g, a);
        b.output(z, "z");
        let ckt = b.finish().unwrap();
        let (equiv, verdicts, stats) = prove(&ckt);
        for node in [n1, n2] {
            for pol in [StuckAt::Zero, StuckAt::One] {
                assert!(
                    verdict_of(&equiv, &verdicts, Fault::output(node, pol)).is_redundant(),
                    "{node:?} {pol:?}"
                );
            }
        }
        assert_eq!(stats.unproven, 0);
        assert!(!verdict_of(&equiv, &verdicts, Fault::output(a, StuckAt::Zero)).is_redundant());
    }

    #[test]
    fn budget_exhaustion_reports_unproven_not_a_verdict() {
        // A 4-bit ripple comparator cone with a 1-node budget: nothing can
        // be proven, nothing may be claimed.
        let ckt = protest_circuits::c17();
        let universe = FaultUniverse::all(&ckt);
        let equiv = collapse_universe(&ckt, &universe);
        let probs = vec![0.5; ckt.num_inputs()];
        let (verdicts, stats) = prove_classes(&ckt, &equiv, &probs, 1, 1);
        assert!(verdicts.iter().all(|v| matches!(v, Verdict::Unproven)));
        assert_eq!(stats.unproven, stats.classes);
        assert_eq!(stats.budget_exceeded, stats.bdd_calls);
    }

    #[test]
    fn exact_probabilities_match_the_exhaustive_miter() {
        let ckt = protest_circuits::c17();
        let universe = FaultUniverse::all(&ckt);
        let equiv = collapse_universe(&ckt, &universe);
        let probs = vec![0.5; ckt.num_inputs()];
        let (verdicts, stats) = prove_classes(&ckt, &equiv, &probs, 100_000, 1);
        assert_eq!(stats.redundant, 0, "c17 is fully testable");
        let iprobs = crate::InputProbs::uniform(ckt.num_inputs());
        for (ci, v) in verdicts.iter().enumerate() {
            let Verdict::Testable { p_exact } = v else {
                panic!("class {ci} unresolved: {v:?}");
            };
            let rep = equiv.representatives()[ci];
            let reference = crate::detect::exact_detection_probability(&ckt, rep, &iprobs).unwrap();
            assert!(
                (p_exact - reference).abs() < 1e-12,
                "{rep:?}: bdd {p_exact} vs exhaustive {reference}"
            );
        }
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let ckt = protest_circuits::sn7485();
        let universe = FaultUniverse::all(&ckt);
        let equiv = collapse_universe(&ckt, &universe);
        let probs = vec![0.5; ckt.num_inputs()];
        let (serial, s1) = prove_classes(&ckt, &equiv, &probs, 100_000, 1);
        let (parallel, s4) = prove_classes(&ckt, &equiv, &probs, 100_000, 4);
        assert_eq!(serial, parallel);
        assert_eq!(s1, s4);
    }
}
