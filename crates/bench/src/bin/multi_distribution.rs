//! Beyond the paper: multiple weighted distributions with simulation
//! feedback.
//!
//! The paper optimizes *one* probability tuple per circuit. Our restoring
//! array divider is a counterexample to that design point: its restore
//! muxes want large divisors while its deep quotient rows want small ones,
//! so every single product distribution plateaus (simulated coverage stalls
//! around 84 % no matter how the optimizer is configured, for `N` targets
//! of 2,000 and 10,000 alike). Worse, the estimator is *optimistic* about the
//! missed faults under skewed weights, so purely estimate-driven rounds
//! (`optimize_multi`) re-target the wrong faults.
//!
//! This experiment closes the loop the honest way: after each optimized
//! distribution, the produced pattern set is **fault simulated**, and the
//! next round optimizes for the faults that truly remain undetected
//! (`HillClimber::optimize_for_faults`). This is the direction Wunderlich's
//! follow-up work on multiple distributions took.

use protest_bench::{banner, TextTable};
use protest_circuits::div_array;
use protest_core::optimize::{HillClimber, OptimizeParams};
use protest_core::Analyzer;
use protest_netlist::CircuitBuilder;
use protest_sim::{coverage_run, FaultSim, UniformRandomPatterns, WeightedRandomPatterns};

/// Part 1: a circuit that *provably* needs two distributions — a wide AND
/// (detectable only by nearly-all-ones patterns) next to a wide NOR
/// (nearly-all-zeros). One optimized tuple must sacrifice one side; two
/// tuples cover everything.
fn conflict_demo() {
    let mut b = CircuitBuilder::new("conflict");
    let xs = b.input_bus("x", 16);
    let z1 = b.and(&xs);
    let z2 = b.nor(&xs);
    b.output(z1, "z1");
    b.output(z2, "z2");
    let circuit = b.finish().expect("valid construction");
    let analyzer = Analyzer::new(&circuit);
    let faults = analyzer.faults().to_vec();
    let budget = 2048u64;
    let params = OptimizeParams {
        n_target: budget,
        ..OptimizeParams::default()
    };
    let hc = HillClimber::new(&analyzer, params);
    let single = hc.optimize().expect("optimization succeeds");
    let mut s1 = WeightedRandomPatterns::new(single.probs.as_slice(), 0xC1);
    let cov_single = coverage_run(&circuit, &faults, &mut s1, &[2 * budget]).final_percent();
    // Two simulation-guided rounds with half the budget each.
    let mut fsim = FaultSim::new(&circuit);
    let mut covered = vec![false; faults.len()];
    for k in 0..2 {
        let active: Vec<bool> = covered.iter().map(|&c| !c).collect();
        if !active.iter().any(|&a| a) {
            break;
        }
        let dist = hc
            .optimize_for_faults(&active)
            .expect("optimization succeeds");
        let mut src = WeightedRandomPatterns::new(dist.probs.as_slice(), 0xC2 + k);
        let first = fsim.first_detections(&faults, &mut src, budget);
        for (i, f) in first.iter().enumerate() {
            if f.is_some() {
                covered[i] = true;
            }
        }
    }
    let cov_multi = 100.0 * covered.iter().filter(|&&c| c).count() as f64 / faults.len() as f64;
    println!(
        "AND16 ∥ NOR16 with {} total patterns: one distribution {cov_single:.1} %,          two distributions {cov_multi:.1} %
",
        2 * budget
    );
}

fn main() {
    banner(
        "extension — multi-distribution testing with simulation feedback",
        "beyond Sec. 6",
    );
    conflict_demo();

    // Part 2: the boundary case. The restoring divider's residual fault
    // class resists *any* product distribution (mixed-mode/deterministic
    // TPG territory); the table documents where weighted random testing
    // stops helping.
    let circuit = div_array(16, 16);
    let analyzer = Analyzer::new(&circuit);
    let faults = analyzer.faults().to_vec();
    let budget_per_dist = 6000u64;
    let max_distributions = 4;

    let mut fsim = FaultSim::new(&circuit);

    // Baseline: uniform patterns with the full combined budget.
    let mut uni = UniformRandomPatterns::new(circuit.num_inputs(), 0xD1);
    let first = fsim.first_detections(
        &faults,
        &mut uni,
        max_distributions as u64 * budget_per_dist,
    );
    let uniform_cov =
        100.0 * first.iter().filter(|f| f.is_some()).count() as f64 / faults.len() as f64;

    let params = OptimizeParams {
        n_target: 10_000,
        ..OptimizeParams::default()
    };
    let hc = HillClimber::new(&analyzer, params);

    let mut covered = vec![false; faults.len()];
    let mut table = TextTable::new(&["pattern source", "cum. patterns", "cum. coverage %"]);
    table.row(&[
        "uniform baseline (p=0.5)".to_string(),
        (max_distributions as u64 * budget_per_dist).to_string(),
        format!("{uniform_cov:.1}"),
    ]);
    let mut total_patterns = 0u64;
    for k in 0..max_distributions {
        let active: Vec<bool> = covered.iter().map(|&c| !c).collect();
        if !active.iter().any(|&a| a) {
            break;
        }
        let dist = hc
            .optimize_for_faults(&active)
            .expect("optimization succeeds");
        let mut src = WeightedRandomPatterns::new(dist.probs.as_slice(), 0xE0 + k as u64);
        let first = fsim.first_detections(&faults, &mut src, budget_per_dist);
        let mut newly = 0usize;
        for (i, f) in first.iter().enumerate() {
            if f.is_some() && !covered[i] {
                covered[i] = true;
                newly += 1;
            }
        }
        total_patterns += budget_per_dist;
        let cov = 100.0 * covered.iter().filter(|&&c| c).count() as f64 / faults.len() as f64;
        table.row(&[
            format!("distribution {} (+{newly} faults)", k + 1),
            total_patterns.to_string(),
            format!("{cov:.1}"),
        ]);
        if newly == 0 {
            break;
        }
    }
    println!("{}", table.render());
    let final_cov = 100.0 * covered.iter().filter(|&&c| c).count() as f64 / faults.len() as f64;
    println!(
        "single-distribution plateau ≈ 84 %; simulation-guided \
         multi-distribution testing reaches {final_cov:.1} % with the same total budget"
    );
}
