//! Differential property tests for the incremental analysis API:
//! arbitrary sequences of `set_input_prob` / `set_all` mutations and
//! `snapshot`/`revert` pairs over random circuits must leave an
//! [`AnalysisSession`] in exactly the state a from-scratch analysis of the
//! same input probabilities produces (to 1e-12 — in fact the
//! implementation is bit-identical by construction).

use proptest::prelude::*;
use protest::prelude::*;
use protest_circuits::{alu_74181, comp24, random_circuit, RandomCircuitParams};
use protest_core::observe::compute_observability;
use protest_core::{AnalyzerParams, InputProbs};

const INPUTS: usize = 6;

/// An analyzer pinned to an explicit thread count (overrides
/// `PROTEST_THREADS`, so the differential runs below cover the serial and
/// the parallel wavefront paths no matter how the suite is invoked).
fn analyzer_with_threads(circuit: &Circuit, threads: usize) -> Analyzer {
    Analyzer::with_params(
        circuit,
        AnalyzerParams {
            num_threads: threads,
            ..AnalyzerParams::default()
        },
    )
}

/// Asserts the session's observabilities (stems *and* pin values) are
/// `to_bits`-identical to an independent from-scratch reverse sweep over
/// the session's own signal probabilities.
fn assert_obs_matches_full_sweep(session: &mut AnalysisSession) {
    let analyzer = session.analyzer().clone();
    let circuit = analyzer.circuit();
    let params = *session.analyzer().params();
    let probs = session.signal_probs().to_vec();
    let fresh = compute_observability(circuit, &probs, &params);
    let obs = session.observabilities();
    for i in 0..circuit.num_nodes() {
        let id = NodeId::from_index(i);
        assert_eq!(
            obs.node(id).to_bits(),
            fresh.node(id).to_bits(),
            "stem observability of node {i}: incremental {} vs full sweep {}",
            obs.node(id),
            fresh.node(id)
        );
        for pin in 0..circuit.node(id).fanins().len() {
            assert_eq!(
                obs.pin(id, pin).to_bits(),
                fresh.pin(id, pin).to_bits(),
                "pin observability of node {i} pin {pin}"
            );
        }
    }
}

/// Asserts two sessions (e.g. serial vs 4-thread) hold bit-identical
/// observability state.
fn assert_obs_sessions_agree(a: &mut AnalysisSession, b: &mut AnalysisSession) {
    let analyzer = a.analyzer().clone();
    let circuit = analyzer.circuit();
    assert_eq!(a.input_probs(), b.input_probs());
    // Borrow one result at a time: copy A's values out first.
    let stems_a: Vec<u64> = {
        let obs = a.observabilities();
        (0..circuit.num_nodes())
            .map(|i| obs.node(NodeId::from_index(i)).to_bits())
            .collect()
    };
    let obs_b = b.observabilities();
    for (i, &bits) in stems_a.iter().enumerate() {
        let id = NodeId::from_index(i);
        assert_eq!(
            bits,
            obs_b.node(id).to_bits(),
            "stem observability of node {i} differs between thread counts"
        );
    }
}

fn build(seed: u64) -> Circuit {
    random_circuit(RandomCircuitParams {
        inputs: INPUTS,
        gates: 30,
        outputs: 3,
        seed,
    })
}

/// Asserts that the session agrees with a fresh from-scratch analysis at
/// `probs` on signal probabilities, observabilities and fault detection
/// probabilities (panics on mismatch, like the `prop_assert!` shim).
fn assert_matches_fresh(session: &mut AnalysisSession, analyzer: &Analyzer, probs: &[f64]) {
    let fresh = analyzer
        .run(&InputProbs::from_slice(probs).unwrap())
        .unwrap();
    {
        let got = session.signal_probs();
        let want = fresh.signal_probabilities();
        for (i, (&a, &b)) in got.iter().zip(want).enumerate() {
            assert!(
                (a - b).abs() <= 1e-12,
                "signal prob node {i}: session {a} vs fresh {b}"
            );
        }
    }
    {
        let circuit = analyzer.circuit();
        let obs = session.observabilities();
        for i in 0..circuit.num_nodes() {
            let id = NodeId::from_index(i);
            let (a, b) = (obs.node(id), fresh.node_observability(id));
            assert!(
                (a - b).abs() <= 1e-12,
                "observability node {i}: session {a} vs fresh {b}"
            );
        }
    }
    let got = session.fault_detect_probs();
    let want = fresh.detection_probabilities();
    assert_eq!(got.len(), want.len());
    for (i, (&a, &b)) in got.iter().zip(&want).enumerate() {
        assert!(
            (a - b).abs() <= 1e-12,
            "detection fault {i}: session {a} vs fresh {b}"
        );
    }
}

/// The incremental fault query cache: two structurally disjoint cones in
/// one circuit — mutating an input of cone A must *reuse* every cached
/// fault estimate of cone B (its dependency set misses the dirty nodes)
/// while still matching a fresh from-scratch analysis bit for bit.
#[test]
fn fault_query_cache_reuses_untouched_cones() {
    let mut b = CircuitBuilder::new("two_cones");
    let xs = b.input_bus("x", 4);
    let ys = b.input_bus("y", 4);
    let za = b.and_tree(&xs);
    let zb = b.or_tree(&ys);
    b.output(za, "za");
    b.output(zb, "zb");
    let ckt = b.finish().unwrap();
    let analyzer = Analyzer::new(&ckt);
    let mut session = analyzer.session(&InputProbs::uniform(8)).unwrap();

    // The first query computes every fault, reusing nothing.
    session.fault_detect_probs();
    let s0 = session.stats();
    assert_eq!(s0.fault_evals as usize, analyzer.faults().len());
    assert_eq!(s0.fault_reuses, 0);

    // Mutating an x-input dirties only the AND cone: every y-cone fault
    // must be served from the cache, and some x-cone fault recomputed.
    session.set_input_prob(0, 0.75).unwrap();
    session.fault_detect_probs();
    let s1 = session.stats();
    assert!(
        s1.fault_reuses > 0,
        "faults of the untouched OR cone must be reused: {s1:?}"
    );
    assert!(
        s1.fault_evals > s0.fault_evals,
        "faults of the dirtied AND cone must be recomputed: {s1:?}"
    );
    assert_eq!(
        (s1.fault_evals - s0.fault_evals) + (s1.fault_reuses - s0.fault_reuses),
        analyzer.faults().len() as u64,
        "every fault is either recomputed or reused"
    );

    // A query with no intervening mutation touches nothing at all.
    session.fault_detect_probs();
    assert_eq!(session.stats(), s1);

    // And the patched cache still matches a fresh analysis exactly.
    let probs: Vec<f64> = session.input_probs().to_vec();
    assert_matches_fresh(&mut session, &analyzer, &probs);

    // Reverting a trial move marks the restored nodes dirty (conservative),
    // so the next query recomputes the cone once more — but never the
    // disjoint one.
    session.snapshot();
    session.set_input_prob(1, 0.25).unwrap();
    session.revert();
    session.fault_detect_probs();
    let s2 = session.stats();
    assert!(s2.fault_reuses > s1.fault_reuses, "{s2:?}");
}

/// The incremental observability pass: mutating one cone of a two-cone
/// circuit must re-evaluate only that cone's reverse region — the other
/// cone's nodes are *reused*, observably via the new `SessionStats`
/// counters — while staying bit-identical to a full reverse sweep.
#[test]
fn observability_refresh_is_cone_local() {
    let mut b = CircuitBuilder::new("two_cones_obs");
    let xs = b.input_bus("x", 4);
    let ys = b.input_bus("y", 4);
    let za = b.and_tree(&xs);
    let zb = b.or_tree(&ys);
    b.output(za, "za");
    b.output(zb, "zb");
    let ckt = b.finish().unwrap();
    let total = ckt.num_nodes() as u64;
    let analyzer = Analyzer::new(&ckt);
    let mut session = analyzer.session(&InputProbs::uniform(8)).unwrap();

    // The first query is the cold full sweep: every level, every node.
    session.observabilities();
    let s0 = session.stats();
    assert_eq!(s0.obs_node_evals, total);
    assert_eq!(s0.obs_node_reuses, 0);
    assert!(s0.obs_level_evals > 0);

    // Mutating an x-input dirties only the AND cone's reverse region.
    session.set_input_prob(0, 0.75).unwrap();
    assert!(
        session.dirty_rank_range().is_some(),
        "a pending mutation opens a dirty window"
    );
    session.observabilities();
    let s1 = session.stats();
    let evals = s1.obs_node_evals - s0.obs_node_evals;
    let reuses = s1.obs_node_reuses - s0.obs_node_reuses;
    assert_eq!(
        evals + reuses,
        total,
        "every node is either re-evaluated or reused"
    );
    assert!(
        reuses >= 7,
        "the untouched OR cone (4 inputs + 3 gates) must be reused: {s1:?}"
    );
    assert!(
        evals < total / 2 + 1,
        "dirty region stays cone-local: {s1:?}"
    );

    // A query with no intervening mutation does no sweep work at all.
    session.observabilities();
    assert_eq!(session.stats(), s1);

    // And the patched state matches a from-scratch reverse sweep exactly.
    assert_obs_matches_full_sweep(&mut session);
}

/// Acceptance check on paper circuits: after a single-input mutation the
/// incremental pass touches only the dirty reverse region — strictly fewer
/// nodes than the circuit for every input, and clearly cone-local for the
/// best input of circuits with separable cones (the ALU; the comp24
/// comparator chain structurally feeds almost everything into everything,
/// so only the weaker bound holds there) — bit-identically to the full
/// sweep.
#[test]
fn paper_circuit_observability_refresh_is_bounded_by_dirty_region() {
    // (circuit, max allowed share of the best input's dirty region ×4):
    // alu's most cone-local input re-sweeps ~25 of 78 nodes; comp24's
    // ~184 of 267 (measured) — assert cone-locality only where it exists.
    for (ckt, has_cone_local_input) in [(alu_74181(), true), (comp24(), false)] {
        let total = ckt.num_nodes() as u64;
        for threads in [1usize, 4] {
            let analyzer = analyzer_with_threads(&ckt, threads);
            let mut session = analyzer
                .session(&InputProbs::uniform(ckt.num_inputs()))
                .unwrap();
            session.observabilities();
            let mut min_evals = u64::MAX;
            for i in 0..ckt.num_inputs() {
                let before = session.stats();
                session.set_input_prob(i, 9.0 / 16.0).unwrap();
                session.observabilities();
                let after = session.stats();
                let evals = after.obs_node_evals - before.obs_node_evals;
                let reuses = after.obs_node_reuses - before.obs_node_reuses;
                // Dense mutations legitimately fall back to the full sweep
                // (evals == total); sparse ones must account exactly.
                assert_eq!(evals + reuses, total, "input {i} at {threads} threads");
                min_evals = min_evals.min(evals);
                session.set_input_prob(i, 0.5).unwrap();
                session.observabilities();
            }
            assert!(
                min_evals < total,
                "some input must take the incremental path ({min_evals} of {total})"
            );
            if has_cone_local_input {
                assert!(
                    min_evals * 2 < total,
                    "best dirty region {min_evals} of {total} nodes must be cone-local"
                );
            }
            assert_obs_matches_full_sweep(&mut session);
        }
    }
}

/// A consumer that is never queried must not pin the dirty log (it
/// overflows to a full refresh instead): hammer a session with mutations
/// while reading only observabilities, then make the very first fault
/// query — it must still match a from-scratch analysis exactly.
#[test]
fn late_first_fault_query_after_many_mutations_matches_fresh() {
    let circuit = build(7);
    let analyzer = Analyzer::new(&circuit);
    let mut probs = vec![0.5f64; INPUTS];
    let mut session = analyzer.session(&InputProbs::uniform(INPUTS)).unwrap();
    for step in 0u32..200 {
        let i = (step as usize) % INPUTS;
        let p = f64::from(step % 17) / 16.0;
        session.set_input_prob(i, p).unwrap();
        probs[i] = p;
        session.observabilities();
    }
    assert_matches_fresh(&mut session, &analyzer, &probs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random mutation scripts with snapshot/revert interleavings: the
    /// incrementally maintained observabilities must stay `to_bits`-equal
    /// to an independent from-scratch reverse sweep, at one *and* four
    /// threads, and the two thread counts must agree with each other.
    #[test]
    fn incremental_observabilities_match_full_reverse_sweep(
        seed in 0u64..4000,
        script in proptest::collection::vec(
            (0usize..INPUTS, 0u32..=16, any::<bool>()),
            1..10,
        ),
    ) {
        let circuit = build(seed);
        let a1 = analyzer_with_threads(&circuit, 1);
        let a4 = analyzer_with_threads(&circuit, 4);
        let mut s1 = a1.session(&InputProbs::uniform(INPUTS)).unwrap();
        let mut s4 = a4.session(&InputProbs::uniform(INPUTS)).unwrap();
        // Cold full sweeps (serial and parallel wavefronts).
        s1.observabilities();
        s4.observabilities();
        for (step, &(i, k, keep)) in script.iter().enumerate() {
            let p = f64::from(k) / 16.0;
            s1.snapshot();
            s4.snapshot();
            s1.set_input_prob(i, p).unwrap();
            s4.set_input_prob(i, p).unwrap();
            if !keep {
                // Query one side mid-trial so the two sessions' refresh
                // schedules diverge, then reject the move on both.
                if step % 2 == 0 {
                    s1.observabilities();
                } else {
                    s4.observabilities();
                }
                s1.revert();
                s4.revert();
            }
            if step % 2 == 1 || step + 1 == script.len() {
                assert_obs_matches_full_sweep(&mut s1);
                assert_obs_matches_full_sweep(&mut s4);
                assert_obs_sessions_agree(&mut s1, &mut s4);
            }
        }
    }

    /// Random single-input mutation scripts: after every few steps the
    /// session must match a fresh analysis of the accumulated probability
    /// vector.
    #[test]
    fn mutation_scripts_match_fresh_runs(
        seed in 0u64..4000,
        script in proptest::collection::vec((0usize..INPUTS, 0u32..=16), 1..16),
    ) {
        let circuit = build(seed);
        let analyzer = Analyzer::new(&circuit);
        let mut probs = vec![0.5f64; INPUTS];
        let mut session = analyzer.session(&InputProbs::uniform(INPUTS)).unwrap();
        for (step, &(i, k)) in script.iter().enumerate() {
            let p = f64::from(k) / 16.0;
            session.set_input_prob(i, p).unwrap();
            probs[i] = p;
            // Checking after every step would hide staleness bugs behind
            // the fresh run; stride so several mutations accumulate.
            if step % 3 == 2 || step == script.len() - 1 {
                assert_matches_fresh(&mut session, &analyzer, &probs);
            }
        }
    }

    /// `set_all` must be equivalent to the corresponding sequence of
    /// single-input mutations and to a fresh run.
    #[test]
    fn set_all_matches_fresh_runs(
        seed in 0u64..4000,
        ks in proptest::collection::vec(0u32..=16, INPUTS),
    ) {
        let circuit = build(seed);
        let analyzer = Analyzer::new(&circuit);
        let probs: Vec<f64> = ks.iter().map(|&k| f64::from(k) / 16.0).collect();
        let mut session = analyzer.session(&InputProbs::uniform(INPUTS)).unwrap();
        session.set_all(&probs).unwrap();
        assert_matches_fresh(&mut session, &analyzer, &probs);
    }

    /// Rejected-move pattern: snapshot, a burst of mutations, revert —
    /// the session must land exactly back on the pre-snapshot state, and
    /// stay consistent through further mutations.
    #[test]
    fn snapshot_revert_restores_exactly(
        seed in 0u64..4000,
        pre in proptest::collection::vec((0usize..INPUTS, 0u32..=16), 0..6),
        trial in proptest::collection::vec((0usize..INPUTS, 0u32..=16), 1..6),
        post in (0usize..INPUTS, 0u32..=16),
    ) {
        let circuit = build(seed);
        let analyzer = Analyzer::new(&circuit);
        let mut probs = vec![0.5f64; INPUTS];
        let mut session = analyzer.session(&InputProbs::uniform(INPUTS)).unwrap();
        for &(i, k) in &pre {
            let p = f64::from(k) / 16.0;
            session.set_input_prob(i, p).unwrap();
            probs[i] = p;
        }
        session.snapshot();
        for &(i, k) in &trial {
            session.set_input_prob(i, f64::from(k) / 16.0).unwrap();
        }
        session.revert();
        prop_assert_eq!(session.input_probs(), &probs[..]);
        assert_matches_fresh(&mut session, &analyzer, &probs);

        // The reverted session is not a dead end: further mutations keep
        // agreeing with fresh runs.
        let (i, k) = post;
        let p = f64::from(k) / 16.0;
        session.set_input_prob(i, p).unwrap();
        probs[i] = p;
        assert_matches_fresh(&mut session, &analyzer, &probs);
    }

    /// Deterministic endpoints (p ∈ {0, 1}) exercise the impossible-
    /// assignment paths of the conditioning kernel; reverts across them
    /// must still restore exactly.
    #[test]
    fn deterministic_endpoints_roundtrip(
        seed in 0u64..4000,
        mask in 0u64..64,
    ) {
        let circuit = build(seed);
        let analyzer = Analyzer::new(&circuit);
        let mut session = analyzer.session(&InputProbs::uniform(INPUTS)).unwrap();
        let probs: Vec<f64> = (0..INPUTS).map(|i| f64::from((mask >> i) & 1 == 1)).collect();
        session.set_all(&probs).unwrap();
        assert_matches_fresh(&mut session, &analyzer, &probs);
        session.snapshot();
        session.set_all(&[0.5; INPUTS]).unwrap();
        session.revert();
        assert_matches_fresh(&mut session, &analyzer, &probs);
    }
}
