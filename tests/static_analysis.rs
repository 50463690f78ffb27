//! Differential tests for the static analysis layer: equivalence and
//! dominance collapsing checked against exhaustive deductive fault
//! simulation, redundancy-prover verdicts checked against exhaustive
//! detection counts, and pruning checked to leave survivor estimates
//! bit-identical.

use std::collections::HashMap;

use protest_circuits::{alu_74181, c17, comp24, random_circuit, RandomCircuitParams};
use protest_core::staticanalysis::redundancy::prove_classes;
use protest_core::staticanalysis::{FindingKind, Verdict};
use protest_core::testlen::required_test_length_fraction_weighted;
use protest_core::{check, Analyzer, AnalyzerParams, CheckParams, FaultCollapse, InputProbs};
use protest_netlist::{Circuit, CircuitBuilder};
use protest_sim::{collapse_universe, dominance_collapse, DeductiveSim, Fault, FaultUniverse};

/// Small circuits whose input space we can sweep exhaustively.
fn exhaustive_suite() -> Vec<Circuit> {
    let mut suite = vec![c17(), redundant_circuit()];
    for seed in [1, 2, 3] {
        suite.push(random_circuit(RandomCircuitParams {
            inputs: 6,
            gates: 24,
            outputs: 3,
            seed,
        }));
    }
    suite
}

/// A circuit with provable redundancy: `z = (a OR NOT a) AND b` makes the
/// OR output stuck-at-1 undetectable, alongside ordinary testable logic.
fn redundant_circuit() -> Circuit {
    let mut b = CircuitBuilder::new("redundant");
    let a = b.input("a");
    let bb = b.input("b");
    let c = b.input("c");
    let na = b.not(a);
    let taut = b.or2(a, na);
    let z = b.and2(taut, bb);
    let w = b.or2(z, c);
    b.output(z, "z");
    b.output(w, "w");
    b.finish().unwrap()
}

/// Per-fault exhaustive detection vectors, one `Vec<bool>` per pattern,
/// aligned with `faults`.
fn exhaustive_detections(circuit: &Circuit, faults: &[Fault]) -> Vec<Vec<bool>> {
    let n = circuit.num_inputs();
    assert!(n <= 12, "exhaustive sweep only");
    let sim = DeductiveSim::new(circuit, faults);
    (0..1u64 << n)
        .map(|bits| {
            let inputs: Vec<bool> = (0..n).map(|j| bits >> j & 1 == 1).collect();
            sim.detect_pattern(&inputs)
        })
        .collect()
}

fn fault_index(faults: &[Fault]) -> HashMap<Fault, usize> {
    faults.iter().enumerate().map(|(i, &f)| (f, i)).collect()
}

/// Equivalence classes must agree with fault simulation *per pattern*,
/// not just in aggregate: every member of a class is detected by exactly
/// the same input patterns.
#[test]
fn equivalence_class_members_share_per_pattern_detection() {
    for ckt in exhaustive_suite() {
        let universe = FaultUniverse::all(&ckt);
        let equiv = collapse_universe(&ckt, &universe);
        let idx = fault_index(universe.faults());
        let det = exhaustive_detections(&ckt, universe.faults());
        for class in equiv.classes() {
            for row in &det {
                let first = row[idx[&class[0]]];
                for &f in class {
                    assert_eq!(
                        row[idx[&f]],
                        first,
                        "{}: class of {:?} splits under simulation",
                        ckt.name(),
                        class[0]
                    );
                }
            }
        }
    }
}

/// Dominance classes promise a one-directional implication: every pattern
/// that detects the class representative (the accounting-forest root)
/// detects every member. A pattern set covering all representatives
/// therefore covers the whole universe.
#[test]
fn dominance_representative_detection_implies_member_detection() {
    for ckt in exhaustive_suite() {
        let universe = FaultUniverse::all(&ckt);
        let equiv = collapse_universe(&ckt, &universe);
        let dom = dominance_collapse(&ckt, &equiv);
        let idx = fault_index(universe.faults());
        let det = exhaustive_detections(&ckt, universe.faults());
        for (ci, class) in dom.classes().iter().enumerate() {
            let rep = dom.representatives()[ci];
            for row in &det {
                if !row[idx[&rep]] {
                    continue;
                }
                for &f in class {
                    assert!(
                        row[idx[&f]],
                        "{}: pattern detects rep {rep:?} but not member {f:?}",
                        ckt.name()
                    );
                }
            }
        }
    }
}

/// The prover's verdicts against exhaustive ground truth: proven-redundant
/// classes are detected by *no* pattern (every member), and proven-testable
/// classes carry the exact detection probability — the same fraction the
/// exhaustive sweep counts under uniform inputs.
#[test]
fn prover_verdicts_match_exhaustive_simulation() {
    for ckt in exhaustive_suite() {
        let universe = FaultUniverse::all(&ckt);
        let equiv = collapse_universe(&ckt, &universe);
        let probs = vec![0.5; ckt.num_inputs()];
        let (verdicts, _) = prove_classes(&ckt, &equiv, &probs, 100_000, 1);
        let idx = fault_index(universe.faults());
        let det = exhaustive_detections(&ckt, universe.faults());
        let patterns = det.len() as f64;
        for (ci, verdict) in verdicts.iter().enumerate() {
            match verdict {
                Verdict::Redundant(reason) => {
                    for &f in &equiv.classes()[ci] {
                        let hits = det.iter().filter(|row| row[idx[&f]]).count();
                        assert_eq!(
                            hits,
                            0,
                            "{}: {f:?} proven redundant ({reason:?}) but detected",
                            ckt.name()
                        );
                    }
                }
                Verdict::Testable { p_exact } => {
                    let rep = equiv.representatives()[ci];
                    let hits = det.iter().filter(|row| row[idx[&rep]]).count();
                    let frac = hits as f64 / patterns;
                    assert!(
                        (p_exact - frac).abs() < 1e-12,
                        "{}: {rep:?} exact p {p_exact} != simulated {frac}",
                        ckt.name()
                    );
                }
                Verdict::Unproven => {}
            }
        }
    }
}

/// Pruning proven-redundant classes must not perturb the survivors: the
/// pruned analyzer's estimates are bit-identical to the same classes'
/// estimates in the unpruned run.
#[test]
fn pruning_preserves_survivor_estimates_bit_identically() {
    for ckt in exhaustive_suite() {
        let probs = InputProbs::uniform(ckt.num_inputs());
        let baseline = Analyzer::new(&ckt);
        let base_analysis = baseline.run(&probs).unwrap();
        let base_ps = base_analysis.detection_probabilities();
        let by_fault: HashMap<Fault, u64> = baseline
            .faults()
            .iter()
            .zip(&base_ps)
            .map(|(&f, p)| (f, p.to_bits()))
            .collect();

        let pruned = Analyzer::with_params(
            &ckt,
            AnalyzerParams {
                prune_redundant: true,
                ..AnalyzerParams::default()
            },
        );
        let pruned_analysis = pruned.run(&probs).unwrap();
        let pruned_ps = pruned_analysis.detection_probabilities();
        assert_eq!(
            pruned.faults().len() + pruned.pruned_class_count(),
            baseline.faults().len(),
            "{}",
            ckt.name()
        );
        for (&f, p) in pruned.faults().iter().zip(&pruned_ps) {
            assert_eq!(
                by_fault[&f],
                p.to_bits(),
                "{}: survivor {f:?} estimate changed under pruning",
                ckt.name()
            );
        }
    }
}

/// The redundant circuit actually exercises the pruning path end to end.
#[test]
fn redundant_circuit_is_pruned_by_the_analyzer() {
    let ckt = redundant_circuit();
    let pruned = Analyzer::with_params(
        &ckt,
        AnalyzerParams {
            collapse: FaultCollapse::Dominance,
            prune_redundant: true,
            ..AnalyzerParams::default()
        },
    );
    assert!(pruned.pruned_class_count() > 0);
    assert!(pruned.pruned_fault_count() >= pruned.pruned_class_count());
    let probs = InputProbs::uniform(ckt.num_inputs());
    let analysis = pruned.run(&probs).unwrap();
    // Every survivor is genuinely detectable, so the full-coverage test
    // length exists once the undetectable classes are gone.
    assert!(analysis.required_test_length(1.0, 0.95).is_some());

    let report = check(
        &ckt,
        &CheckParams {
            prove_redundant: true,
            num_threads: 1,
            ..CheckParams::default()
        },
    );
    let prover = report.prover.expect("prover ran");
    assert_eq!(
        prover.stats.redundant,
        report.equivalence_classes - report.pruned_classes
    );
    assert!(prover.stats.redundant > 0);
    assert!(report
        .findings
        .iter()
        .any(|f| f.kind == FindingKind::RedundantFault));
}

/// Pinned comp24 collapse chain — the paper's running example: 1094
/// uncollapsed faults, 622 equivalence classes, 470 dominance classes,
/// 144 dominated stems, and nothing redundant.
#[test]
fn comp24_collapse_counts_are_pinned() {
    let ckt = comp24();
    let report = check(&ckt, &CheckParams::default());
    assert_eq!(report.universe_faults, 1094);
    assert_eq!(report.equivalence_classes, 622);
    assert_eq!(report.pruned_classes, 622);
    assert_eq!(report.dominance_classes, 470);
    assert_eq!(report.dominated_stems, 144);

    let dominance = Analyzer::with_params(
        &ckt,
        AnalyzerParams {
            collapse: FaultCollapse::Dominance,
            ..AnalyzerParams::default()
        },
    );
    assert_eq!(dominance.faults().len(), 470);
    assert_eq!(dominance.uncollapsed_fault_count(), 1094);
    let expanded: usize = dominance.class_sizes().iter().map(|&c| c as usize).sum();
    assert_eq!(expanded, 1094);
}

/// Pinned alu_74181 collapse chain with the prover on: 352 uncollapsed
/// faults, 223 equivalence classes, all proven testable (none pruned),
/// 192 dominance classes over 33 dominated stems.
#[test]
fn alu_collapse_counts_are_pinned() {
    let report = check(
        &alu_74181(),
        &CheckParams {
            prove_redundant: true,
            ..CheckParams::default()
        },
    );
    assert_eq!(report.universe_faults, 352);
    assert_eq!(report.equivalence_classes, 223);
    assert_eq!(report.pruned_classes, 223);
    assert_eq!(report.dominance_classes, 192);
    assert_eq!(report.dominated_stems, 33);
    let prover = report.prover.expect("prover ran");
    assert_eq!((prover.stats.testable, prover.stats.redundant), (223, 0));
}

/// comp24's prover-corrected test lengths. Per equivalence class the
/// prover's exact detection probability replaces the estimate, unproven
/// classes keep the estimate and proven-redundant ones are dropped; every
/// class is weighted by its member count. The estimator's 6.7e-11 tail
/// against an exact minimum of 2^-26 makes the estimated `N(1.0, .95)`
/// ~184x too large; these are the lengths the exact tail implies.
#[test]
fn comp24_prover_corrected_test_lengths_are_pinned() {
    let ckt = comp24();
    let report = check(
        &ckt,
        &CheckParams {
            prove_redundant: true,
            ..CheckParams::default()
        },
    );
    let prover = report.prover.expect("prover ran");
    assert_eq!((prover.stats.testable, prover.stats.redundant), (622, 0));
    assert_eq!(prover.min_exact_detection, Some(2f64.powi(-26)));

    let analyzer = Analyzer::new(&ckt);
    let estimates = analyzer
        .run(&InputProbs::uniform(ckt.num_inputs()))
        .unwrap()
        .detection_probabilities();
    let sizes = analyzer.class_sizes();
    assert_eq!(
        prover.verdicts.len(),
        estimates.len(),
        "check() and Analyzer must agree on the equivalence classes"
    );
    let (mut ps, mut counts) = (Vec::new(), Vec::new());
    for ((verdict, &estimate), &size) in prover.verdicts.iter().zip(&estimates).zip(sizes) {
        match verdict {
            Verdict::Redundant(_) => continue,
            Verdict::Testable { p_exact } => ps.push(*p_exact),
            Verdict::Unproven => ps.push(estimate),
        }
        counts.push(size);
    }
    let corrected = |d, e| {
        required_test_length_fraction_weighted(&ps, &counts, d, e)
            .map(|t| t.patterns)
            .unwrap()
    };
    assert_eq!(corrected(1.0, 0.95), 289_715_891);
    assert_eq!(corrected(0.98, 0.98), 275_773_176);
}

/// Class-expanded test lengths bound the representative-only ones from
/// above (the weighted product carries every representative factor at
/// least once), and dominance-collapsed N agrees with the equivalence
/// run once both are expanded to the full universe.
#[test]
fn expanded_test_lengths_are_conservative() {
    let ckt = comp24();
    let probs = InputProbs::uniform(ckt.num_inputs());
    for collapse in [FaultCollapse::Equivalence, FaultCollapse::Dominance] {
        let analyzer = Analyzer::with_params(
            &ckt,
            AnalyzerParams {
                collapse,
                ..AnalyzerParams::default()
            },
        );
        let analysis = analyzer.run(&probs).unwrap();
        let reps = analysis.required_test_length(1.0, 0.95).unwrap();
        let expanded = analysis
            .required_test_length_expanded(analyzer.class_sizes(), 1.0, 0.95)
            .unwrap();
        assert!(
            expanded.patterns >= reps.patterns,
            "{collapse:?}: expanded N {} < representative N {}",
            expanded.patterns,
            reps.patterns
        );
    }
}

/// `dominance_collapse` folds classes of the *same* universe: expansion
/// is lossless (same fault multiset), and representatives are a subset of
/// the equivalence representatives.
#[test]
fn dominance_collapse_is_an_accounting_refold() {
    for ckt in exhaustive_suite() {
        let universe = FaultUniverse::all(&ckt);
        let equiv = collapse_universe(&ckt, &universe);
        let dom = dominance_collapse(&ckt, &equiv);
        assert_eq!(dom.expanded_len(), equiv.expanded_len(), "{}", ckt.name());
        let equiv_reps: HashMap<Fault, ()> =
            equiv.representatives().iter().map(|&f| (f, ())).collect();
        for rep in dom.representatives() {
            assert!(equiv_reps.contains_key(rep), "{}: {rep:?}", ckt.name());
        }
    }
}

/// Sanity on the stuck-at universe the suite sweeps: no Const-driven
/// site ever enters a universe (the lint pass owns those), so every
/// verdict in these tests is about live logic.
#[test]
fn universe_never_contains_constant_drivers() {
    let mut b = CircuitBuilder::new("tied");
    let x = b.input("x");
    let zero = b.constant(false);
    let g = b.and2(x, zero);
    let z = b.or2(g, x);
    b.output(z, "z");
    let ckt = b.finish().unwrap();
    let universe = FaultUniverse::all(&ckt);
    for fault in universe.iter() {
        assert_ne!(
            fault.site.driver(&ckt),
            zero,
            "{fault:?} sits on a tied net"
        );
    }
    // The tied gate is still proven redundant through its class.
    let equiv = collapse_universe(&ckt, &universe);
    let (verdicts, stats) = prove_classes(&ckt, &equiv, &[0.5], 100_000, 1);
    assert!(stats.redundant > 0, "{stats:?}");
    assert_eq!(verdicts.len(), equiv.len());
}
