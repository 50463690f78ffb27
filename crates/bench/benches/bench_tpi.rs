//! Test-point insertion advisor micro-benchmarks: candidate ranking
//! throughput and a one-point commit cycle. The committed trajectories
//! themselves are pinned in `tests/tpi_advisor.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use protest_circuits::{alu_74181, comp24};
use protest_core::tpi::{advise, rank, TpiParams};
use protest_netlist::Circuit;

fn circuits() -> Vec<(&'static str, Circuit)> {
    vec![("comp24", comp24()), ("alu_74181", alu_74181())]
}

fn params(budget: usize, max_candidates: usize) -> TpiParams {
    TpiParams {
        budget,
        max_candidates,
        ..TpiParams::default()
    }
}

fn bench_candidate_ranking(c: &mut Criterion) {
    let mut group = c.benchmark_group("tpi_rank_candidates");
    group.sample_size(10);
    for (name, circuit) in circuits() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &circuit, |b, ckt| {
            let p = params(1, 32);
            b.iter(|| rank(ckt, &p).expect("ranking runs").1.len())
        });
    }
    group.finish();
}

fn bench_one_commit_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("tpi_commit_one_point");
    group.sample_size(10);
    for (name, circuit) in circuits() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &circuit, |b, ckt| {
            let p = params(1, 16);
            b.iter(|| advise(ckt, &p).expect("advisor runs").steps.len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_candidate_ranking, bench_one_commit_cycle);
criterion_main!(benches);
