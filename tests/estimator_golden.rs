//! Golden-bits pins for the signal-probability estimator.
//!
//! Every other estimator suite checks self-consistency (serial vs
//! parallel, session vs full pass) or closeness to an exact oracle within
//! a tolerance. A kernel change that shifted every value the same way, or
//! nudged the last bits of a few, would pass all of them. This file pins
//! FNV-1a digests of the exact `f64::to_bits` of every node probability of
//! [`SignalProbEstimator::full_estimate`] on the paper circuits and a
//! small coupled mesh, at two fixed `k/16` input vectors and at two
//! `MAXVERS` settings, plus the per-fault detection probabilities of
//! [`Analyzer::run`] on div8x8, and the signal and detection
//! probabilities of a partitioned (lane-batched) run on an uncoupled mesh
//! whose lanes read different seeded vectors with exact 0.0 and 1.0
//! inputs.
//!
//! The digests change only when the estimator's arithmetic changes. A
//! change that does so on purpose must say so and re-pin them.

use protest::prelude::*;
use protest_circuits::{div_nonrestoring, mesh_by_spec, mult_array};
use protest_core::sigprob::SignalProbEstimator;
use protest_core::Aig;

/// FNV-1a over the little-endian bytes of each value's `to_bits`.
fn digest(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The two input vectors, as `k/16` numerators per input position: one
/// near the middle (`k` in 7..=9) and one spread over 1..=15.
fn input_vector(which: usize, inputs: usize) -> Vec<f64> {
    (0..inputs)
        .map(|i| {
            let k = match which {
                0 => 7 + i % 3,
                _ => 1 + (5 * i + 2) % 15,
            };
            k as f64 / 16.0
        })
        .collect()
}

fn circuits() -> Vec<(&'static str, Circuit)> {
    vec![
        ("alu", alu_74181()),
        ("comp24", comp24()),
        ("mult6", mult_array(6)),
        ("div8x8", div_nonrestoring(8, 8)),
        ("multmesh:4x8x10", mesh_by_spec("multmesh:4x8x10").unwrap()),
    ]
}

/// `(circuit, MAXVERS, input vector, digest of full_estimate)`.
const GOLDEN: &[(&str, usize, usize, u64)] = &[
    ("alu", 2, 0, 0xfc15deb4915db520),
    ("alu", 2, 1, 0x897189d2ca5e7bca),
    ("alu", 5, 0, 0x635a7301f38a2e93),
    ("alu", 5, 1, 0x091c6becbe6fc84d),
    ("comp24", 2, 0, 0xb3dd8120266abcf3),
    ("comp24", 2, 1, 0xe0e7a7b1429d1d0f),
    ("comp24", 5, 0, 0x7fdd0bea78a281d2),
    ("comp24", 5, 1, 0x265baba21d371268),
    ("mult6", 2, 0, 0x0289747b8b0c1182),
    ("mult6", 2, 1, 0xd27345a37c9d30c2),
    ("mult6", 5, 0, 0x06f13af14320465f),
    ("mult6", 5, 1, 0x076153d7f6ef187a),
    ("div8x8", 2, 0, 0x61fc099523444a8a),
    ("div8x8", 2, 1, 0xbe5edc6645c82806),
    ("div8x8", 5, 0, 0xc3936e98b8a53ccf),
    ("div8x8", 5, 1, 0xf543db66be317578),
    ("multmesh:4x8x10", 2, 0, 0x897667592b46ea17),
    ("multmesh:4x8x10", 2, 1, 0xe348bcaea5358466),
    ("multmesh:4x8x10", 5, 0, 0x735892b5c31c87e7),
    ("multmesh:4x8x10", 5, 1, 0x79e85c538036df43),
];

/// Digest of the detection probabilities of every collapsed fault of
/// div8x8 under `Analyzer::run` at default parameters and uniform inputs.
const GOLDEN_DIV_DETECT: u64 = 0xe13f152f559a676c;

#[test]
fn full_estimate_bits_match_the_golden_digests() {
    let mut got = Vec::new();
    for (name, circuit) in circuits() {
        for maxvers in [2, 5] {
            let params = AnalyzerParams {
                maxvers,
                ..AnalyzerParams::default()
            };
            let est = SignalProbEstimator::new(Aig::from_circuit(&circuit), &params);
            for which in 0..2 {
                let probs = est.full_estimate(&input_vector(which, circuit.num_inputs()));
                got.push((name, maxvers, which, digest(&probs)));
            }
        }
    }
    let listing: String = got
        .iter()
        .map(|(n, m, w, d)| format!("    ({n:?}, {m}, {w}, {d:#018x}),\n"))
        .collect();
    assert_eq!(
        got.as_slice(),
        GOLDEN,
        "estimator bits moved; current digests:\n{listing}"
    );
}

#[test]
fn div8x8_detection_bits_match_the_golden_digest() {
    let circuit = div_nonrestoring(8, 8);
    let analysis = Analyzer::new(&circuit)
        .run(&InputProbs::uniform(circuit.num_inputs()))
        .unwrap();
    let d = digest(&analysis.detection_probabilities());
    assert_eq!(
        d, GOLDEN_DIV_DETECT,
        "detection bits moved; current digest {d:#018x}"
    );
}

/// A seeded `k/16` probability (`k` in 1..=15) per input, with every
/// seventh input (from 0) at exactly 0.0 and every seventh from 3 at
/// exactly 1.0: each lane of a mesh reads its own vector.
fn lane_vector(inputs: usize) -> Vec<f64> {
    (0..inputs)
        .map(|i| match i % 7 {
            0 => 0.0,
            3 => 1.0,
            _ => {
                let mut x = 7 ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                x ^= x >> 31;
                x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x ^= x >> 29;
                ((x % 15) + 1) as f64 / 16.0
            }
        })
        .collect()
}

/// `multmesh:3x2x9:uncoupled` under [`lane_vector`]: digests of
/// `full_estimate`, and of the signal and detection probabilities of a
/// partitioned `Analyzer::run` (the same at every thread count).
const GOLDEN_LANES: (u64, u64, u64) = (0x80a9602a8d6a7fa3, 0xc5a82c79263ae5e0, 0x4b2809f5302881e9);

#[test]
fn partitioned_lane_bits_match_the_golden_digests() {
    let circuit = mesh_by_spec("multmesh:3x2x9:uncoupled").unwrap();
    let probs = lane_vector(circuit.num_inputs());
    let est = SignalProbEstimator::new(Aig::from_circuit(&circuit), &AnalyzerParams::default());
    let full = digest(&est.full_estimate(&probs));
    for threads in [1, 4] {
        let analyzer = Analyzer::with_params(
            &circuit,
            AnalyzerParams {
                num_threads: threads,
                ..AnalyzerParams::default()
            },
        );
        assert_eq!(analyzer.partition_count(), 9);
        let analysis = analyzer
            .run(&InputProbs::from_slice(&probs).unwrap())
            .unwrap();
        let got = (
            full,
            digest(analysis.signal_probabilities()),
            digest(&analysis.detection_probabilities()),
        );
        assert_eq!(
            got, GOLDEN_LANES,
            "lane bits moved at {threads} threads; current digests {got:#018x?}"
        );
    }
}
