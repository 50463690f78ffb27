//! The registry's thread count is fixed by its worker pool: registering
//! and analyzing more circuits must not spawn more threads. This file
//! holds a single test so no other test's threads share the process.

use std::sync::Arc;
use std::time::Duration;

use protest_serve::protocol::{CircuitOp, ProbSpec};
use protest_serve::{Metrics, Registry};

/// The process's live thread count (`Threads:` in `/proc/self/status`).
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

fn submit_and_analyze(reg: &Registry, text: &str) {
    let entry = reg.submit_text("bench", None, text).unwrap().entry;
    let op = CircuitOp::Analyze {
        probs: ProbSpec::Constant(0.5),
        testlens: vec![(1.0, 0.95)],
        hardest: 0,
        detect_probs: true,
        signal_probs: false,
    };
    let outcome = reg
        .dispatch(&entry.hash, vec![op], Duration::from_secs(60))
        .unwrap();
    assert!(outcome.results[0].is_ok());
}

/// A distinct two-input netlist per `k` (the output name differs).
fn netlist(k: usize) -> String {
    format!("INPUT(a)\nINPUT(b)\nOUTPUT(z{k})\nz{k} = NAND(a, b)\n")
}

#[cfg(target_os = "linux")]
#[test]
fn thread_count_does_not_grow_with_resident_circuits() {
    let reg = Registry::new(Arc::new(Metrics::default()), 2, 8, 0);
    submit_and_analyze(&reg, &netlist(0));
    let before = threads();
    for k in 1..=6 {
        submit_and_analyze(&reg, &netlist(k));
    }
    assert!(
        threads() <= before,
        "threads grew from {before} to {} over 6 more circuits",
        threads()
    );
    reg.shutdown();
}
