//! Incremental session re-estimation vs from-scratch estimator passes —
//! the hot-loop comparison behind the `AnalysisSession` API. Bit-identity
//! with fresh runs is asserted in `tests/session_incremental.rs`;
//! perfbench's `optimize-div` workload reports `session.propagate_ms` and
//! `session.and_evals` per layer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use protest_circuits::{alu_74181, div_nonrestoring};
use protest_core::sigprob::SignalProbEstimator;
use protest_core::{Aig, Analyzer, InputProbs};
use protest_netlist::Circuit;

fn circuits() -> Vec<(&'static str, Circuit)> {
    vec![
        ("alu_74181", alu_74181()),
        ("div8x8", div_nonrestoring(8, 8)),
    ]
}

fn bench_full_estimate(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_estimate");
    group.sample_size(10);
    for (name, circuit) in circuits() {
        let analyzer = Analyzer::new(&circuit);
        let est = SignalProbEstimator::new(Aig::from_circuit(&circuit), analyzer.params());
        let probs = InputProbs::uniform(circuit.num_inputs());
        group.bench_with_input(BenchmarkId::from_parameter(name), &circuit, |b, _| {
            b.iter(|| est.full_estimate(probs.as_slice()))
        });
    }
    group.finish();
}

fn bench_incremental_single_input(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_single_input");
    group.sample_size(10);
    for (name, circuit) in circuits() {
        let inputs = circuit.num_inputs();
        let analyzer = Analyzer::new(&circuit);
        let probs = InputProbs::uniform(inputs);

        // Cone-local: the input with the smallest fan-out cone (best case,
        // and the case the optimizer exploits on low-significance bits).
        let mut session = analyzer.session(&probs).unwrap();
        let cheapest = (0..inputs)
            .min_by_key(|&i| {
                let before = session.stats().and_evals;
                session.snapshot();
                session.set_input_prob(i, 9.0 / 16.0).unwrap();
                session.revert();
                session.stats().and_evals - before
            })
            .unwrap();
        let mut flip = false;
        group.bench_with_input(BenchmarkId::new("cone_local", name), &circuit, |b, _| {
            b.iter(|| {
                flip = !flip;
                session.snapshot();
                session
                    .set_input_prob(cheapest, if flip { 9.0 / 16.0 } else { 7.0 / 16.0 })
                    .unwrap();
                let p = session.signal_probs()[0];
                session.revert();
                p
            })
        });

        // Round-robin over every input: the optimizer's average trial move.
        let mut session = analyzer.session(&probs).unwrap();
        let mut t = 0usize;
        group.bench_with_input(BenchmarkId::new("round_robin", name), &circuit, |b, _| {
            b.iter(|| {
                t += 1;
                session.snapshot();
                session
                    .set_input_prob(
                        t % inputs,
                        if t.is_multiple_of(2) {
                            9.0 / 16.0
                        } else {
                            7.0 / 16.0
                        },
                    )
                    .unwrap();
                let p = session.signal_probs()[0];
                session.revert();
                p
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_full_estimate, bench_incremental_single_input);
criterion_main!(benches);
