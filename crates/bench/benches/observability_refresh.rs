//! Incremental observability refresh vs full reverse sweeps — the
//! reverse-pass counterpart of `incremental_vs_full`. The refresh's work
//! counters are asserted in `tests/session_incremental.rs`; perfbench's
//! `optimize-div` workload reports `observe.refresh_ms` per layer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use protest_circuits::{alu_74181, div_nonrestoring};
use protest_core::{Analyzer, InputProbs};
use protest_netlist::Circuit;

fn circuits() -> Vec<(&'static str, Circuit)> {
    vec![
        ("alu_74181", alu_74181()),
        ("div8x8", div_nonrestoring(8, 8)),
    ]
}

fn bench_full_reverse_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_full_sweep");
    group.sample_size(10);
    for (name, circuit) in circuits() {
        let analyzer = Analyzer::new(&circuit);
        let probs = InputProbs::uniform(circuit.num_inputs());
        let mut base = analyzer.session(&probs).unwrap();
        base.signal_probs();
        group.bench_with_input(BenchmarkId::from_parameter(name), &circuit, |b, _| {
            // A clone of the obs-cold session pays one full reverse sweep
            // on its first observability query.
            b.iter(|| {
                let mut cold = base.clone();
                cold.observabilities().node_values()[0]
            })
        });
    }
    group.finish();
}

fn bench_incremental_refresh(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_incremental_refresh");
    group.sample_size(10);
    for (name, circuit) in circuits() {
        let analyzer = Analyzer::new(&circuit);
        let probs = InputProbs::uniform(circuit.num_inputs());
        let mut session = analyzer.session(&probs).unwrap();
        session.observabilities();
        group.bench_with_input(BenchmarkId::from_parameter(name), &circuit, |b, _| {
            // One optimizer-style trial move on input 0: mutate, read the
            // refreshed observabilities, reject, re-sync.
            let mut flip = false;
            b.iter(|| {
                flip = !flip;
                session.snapshot();
                session
                    .set_input_prob(0, if flip { 9.0 / 16.0 } else { 7.0 / 16.0 })
                    .unwrap();
                let s = session.observabilities().node_values()[0];
                session.revert();
                session.observabilities();
                s
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_full_reverse_sweep, bench_incremental_refresh);
criterion_main!(benches);
