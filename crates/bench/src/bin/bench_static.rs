//! Machine-readable benchmark of the static netlist analysis layer:
//! lint findings, collapse ratios (universe → equivalence → pruned →
//! dominance), redundancy-prover statistics, the fault-loop speedup from
//! analyzing dominance-collapsed pruned universes, and the *corrected*
//! random test length `N(d, e)` obtained by substituting the prover's
//! exact per-class detection probabilities for the estimator's values.
//!
//! The correction matters on circuits with a hard tail: the cutting
//! estimator underestimates deep reconvergent faults (comp24's hardest
//! fault estimates ~6.7e-11 against an exact 1.49e-8), so the estimated
//! `N(1.0, e)` is orders of magnitude too pessimistic. Proven-redundant
//! classes are dropped from the corrected target — no test length covers
//! a fault with detection probability exactly zero.
//!
//! Writes `BENCH_static.json` (path overridable as the first CLI
//! argument).
//!
//! ```sh
//! cargo run --release -p protest-bench --bin bench_static
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use protest_bench::banner;
use protest_circuits::{alu_74181, comp24, div_nonrestoring};
use protest_core::staticanalysis::Verdict;
use protest_core::testlen::required_test_length_fraction_weighted;
use protest_core::{
    check, Analyzer, AnalyzerParams, CheckParams, FaultCollapse, InputProbs, StaticReport,
    TestLength,
};
use protest_netlist::Circuit;

/// `(d, e)` targets for the corrected-test-length comparison.
const TARGETS: [(f64, f64); 2] = [(1.0, 0.95), (0.98, 0.98)];

/// Timing reps for the analysis-loop comparison (minimum is reported).
const REPS: u32 = 5;

struct LengthRow {
    d: f64,
    e: f64,
    estimated: Option<TestLength>,
    corrected: Option<TestLength>,
}

struct CircuitRow {
    name: &'static str,
    inputs: usize,
    report: StaticReport,
    check_seconds: f64,
    /// Per-fault scoring loop wall-clock, default params (equivalence
    /// collapse) vs pruned + dominance-collapsed universe. Estimation and
    /// observability are excluded — the collapse only shortens the loop.
    equiv_ms: f64,
    dominance_ms: f64,
    /// Full `Analyzer::run` wall-clock under the same two configurations.
    full_equiv_ms: f64,
    full_dominance_ms: f64,
    /// Fault classes scored by each of the two runs.
    equiv_classes: usize,
    dominance_classes: usize,
    lengths: Vec<LengthRow>,
}

/// Times the per-fault loop alone: a fresh session per rep, with signal
/// probabilities and observabilities forced before the clock starts.
fn min_fault_loop_ms(analyzer: &Analyzer, probs: &InputProbs) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let mut session = analyzer.session(probs).expect("session");
        session.observabilities();
        let start = Instant::now();
        std::hint::black_box(session.fault_detect_probs().len());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn min_run_ms(analyzer: &Analyzer, probs: &InputProbs) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        let analysis = analyzer.run(probs).expect("analysis");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(analysis.detection_probabilities());
        best = best.min(ms);
    }
    best
}

fn measure(name: &'static str, circuit: &Circuit) -> CircuitRow {
    let start = Instant::now();
    let report = check(
        circuit,
        &CheckParams {
            prove_redundant: true,
            ..CheckParams::default()
        },
    );
    let check_seconds = start.elapsed().as_secs_f64();

    let probs = InputProbs::uniform(circuit.num_inputs());
    let baseline = Analyzer::new(circuit);
    let pruned = Analyzer::with_params(
        circuit,
        AnalyzerParams {
            collapse: FaultCollapse::Dominance,
            prune_redundant: true,
            ..AnalyzerParams::default()
        },
    );
    let equiv_ms = min_fault_loop_ms(&baseline, &probs);
    let dominance_ms = min_fault_loop_ms(&pruned, &probs);
    let full_equiv_ms = min_run_ms(&baseline, &probs);
    let full_dominance_ms = min_run_ms(&pruned, &probs);

    // Corrected N(d, e): per equivalence class, prefer the prover's exact
    // probability, fall back to the estimate for unproven classes, and
    // drop proven-redundant classes entirely. Both targets weight every
    // class by its member count (the expanded universe).
    let analysis = baseline.run(&probs).expect("analysis");
    let estimates = analysis.detection_probabilities();
    let sizes = baseline.class_sizes();
    let prover = report.prover.as_ref().expect("prover ran");
    assert_eq!(
        prover.verdicts.len(),
        estimates.len(),
        "check() and Analyzer must agree on the equivalence classes"
    );
    let mut corrected_ps = Vec::with_capacity(estimates.len());
    let mut corrected_counts = Vec::with_capacity(estimates.len());
    for (i, verdict) in prover.verdicts.iter().enumerate() {
        match verdict {
            Verdict::Redundant(_) => {}
            Verdict::Testable { p_exact } => {
                corrected_ps.push(*p_exact);
                corrected_counts.push(sizes[i]);
            }
            Verdict::Unproven => {
                corrected_ps.push(estimates[i]);
                corrected_counts.push(sizes[i]);
            }
        }
    }
    let lengths = TARGETS
        .iter()
        .map(|&(d, e)| LengthRow {
            d,
            e,
            estimated: required_test_length_fraction_weighted(&estimates, sizes, d, e),
            corrected: required_test_length_fraction_weighted(
                &corrected_ps,
                &corrected_counts,
                d,
                e,
            ),
        })
        .collect();

    CircuitRow {
        name,
        inputs: circuit.num_inputs(),
        report,
        check_seconds,
        equiv_ms,
        dominance_ms,
        full_equiv_ms,
        full_dominance_ms,
        equiv_classes: baseline.faults().len(),
        dominance_classes: pruned.faults().len(),
        lengths,
    }
}

fn push_length(out: &mut String, label: &str, tl: &Option<TestLength>) {
    match tl {
        Some(t) => {
            let _ = write!(out, "\"{label}\": {}", t.patterns);
        }
        None => {
            let _ = write!(out, "\"{label}\": null");
        }
    }
}

fn json(rows: &[CircuitRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"benchmark\": \"static_analysis\",\n  \"circuits\": [\n");
    for (ci, row) in rows.iter().enumerate() {
        let r = &row.report;
        let p = r.prover.as_ref().expect("prover ran");
        let s = &p.stats;
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"name\": \"{}\",", row.name);
        let _ = writeln!(out, "      \"inputs\": {},", row.inputs);
        let _ = writeln!(out, "      \"lint_findings\": {},", r.findings.len());
        let _ = writeln!(
            out,
            "      \"collapse\": {{\"universe\": {}, \"equivalence\": {}, \"pruned\": {}, \
             \"dominance\": {}, \"dominated_stems\": {}}},",
            r.universe_faults,
            r.equivalence_classes,
            r.pruned_classes,
            r.dominance_classes,
            r.dominated_stems
        );
        let _ = writeln!(
            out,
            "      \"prover\": {{\"redundant_classes\": {}, \"redundant_faults\": {}, \
             \"testable\": {}, \"unproven\": {}, \"by_constant_site\": {}, \
             \"by_unobservable\": {}, \"by_dominator\": {}, \"by_bdd\": {}, \
             \"bdd_calls\": {}, \"budget_exceeded\": {}, \"min_exact_detection\": {}, \
             \"seconds\": {:.3}}},",
            s.redundant,
            p.redundant_faults,
            s.testable,
            s.unproven,
            s.by_constant_site,
            s.by_unobservable,
            s.by_dominator,
            s.by_bdd,
            s.bdd_calls,
            s.budget_exceeded,
            p.min_exact_detection
                .map_or_else(|| "null".to_string(), |m| format!("{m:.6e}")),
            row.check_seconds
        );
        let _ = writeln!(
            out,
            "      \"fault_loop\": {{\"equivalence_classes\": {}, \"dominance_classes\": {}, \
             \"equiv_ms\": {:.4}, \"dominance_ms\": {:.4}, \"speedup\": {:.3}, \
             \"full_run_equiv_ms\": {:.3}, \"full_run_dominance_ms\": {:.3}}},",
            row.equiv_classes,
            row.dominance_classes,
            row.equiv_ms,
            row.dominance_ms,
            row.equiv_ms / row.dominance_ms,
            row.full_equiv_ms,
            row.full_dominance_ms
        );
        out.push_str("      \"test_lengths\": [\n");
        for (li, l) in row.lengths.iter().enumerate() {
            let _ = write!(out, "        {{\"d\": {}, \"e\": {}, ", l.d, l.e);
            push_length(&mut out, "n_estimated", &l.estimated);
            out.push_str(", ");
            push_length(&mut out, "n_corrected", &l.corrected);
            out.push('}');
            out.push_str(if li + 1 < row.lengths.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("      ]\n");
        out.push_str(if ci + 1 < rows.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    banner(
        "static analysis: lint, fault collapsing, redundancy proving",
        "Wunderlich, DAC 1985 — checkpoint fault model, Sect. 3",
    );
    let rows = vec![
        measure("comp24", &comp24()),
        measure("alu_74181", &alu_74181()),
        measure("div8x8", &div_nonrestoring(8, 8)),
    ];
    for row in &rows {
        let r = &row.report;
        let p = r.prover.as_ref().expect("prover ran");
        println!(
            "{:10} faults {} -> equiv {} -> pruned {} -> dominance {} | redundant {} classes \
             ({} faults) in {:.1}s | fault loop {:.3} ms -> {:.3} ms ({:.2}x)",
            row.name,
            r.universe_faults,
            r.equivalence_classes,
            r.pruned_classes,
            r.dominance_classes,
            p.stats.redundant,
            p.redundant_faults,
            row.check_seconds,
            row.equiv_ms,
            row.dominance_ms,
            row.equiv_ms / row.dominance_ms,
        );
        for l in &row.lengths {
            let fmt = |tl: &Option<TestLength>| {
                tl.map_or_else(|| "unreachable".to_string(), |t| t.patterns.to_string())
            };
            println!(
                "           N({:.2}, {:.3}): estimated {} -> corrected {}",
                l.d,
                l.e,
                fmt(&l.estimated),
                fmt(&l.corrected),
            );
        }
    }
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_static.json".to_string());
    std::fs::write(&path, json(&rows)).expect("write benchmark JSON");
    println!("wrote {path}");
}
