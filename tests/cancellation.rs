//! Cooperative-cancellation semantics of the analysis engine: fired
//! tokens stop work with a typed error, disarmed tokens change nothing,
//! and poisoned sessions are quarantined by the pool.

use std::sync::Mutex;
use std::time::Duration;

use protest_core::optimize::{HillClimber, OptimizeParams};
use protest_core::staticanalysis::{self, CheckParams};
use protest_core::tpi::{self, TpiParams};
use protest_core::{
    failpoints, Analyzer, AnalyzerParams, CancelToken, CoreError, InputProbs, SessionPool,
};
use protest_netlist::CircuitBuilder;

/// Failpoints are process-global: tests that configure them serialize.
static FAILPOINT_LOCK: Mutex<()> = Mutex::new(());

fn circuit() -> protest_netlist::Circuit {
    let mut b = CircuitBuilder::new("cancel");
    let xs = b.input_bus("x", 8);
    let t = b.and_tree(&xs);
    b.output(t, "z");
    b.finish().unwrap()
}

fn fired() -> CancelToken {
    let token = CancelToken::new();
    token.cancel();
    token
}

#[test]
fn fired_token_aborts_session_construction() {
    let ckt = circuit();
    let analyzer = Analyzer::new(&ckt);
    let err = analyzer
        .session_with_cancel(&InputProbs::uniform(8), fired())
        .expect_err("construction must abort");
    assert!(matches!(err, CoreError::Cancelled), "{err:?}");
}

#[test]
fn fired_token_aborts_run_with_cancel() {
    let ckt = circuit();
    let analyzer = Analyzer::new(&ckt);
    let err = analyzer
        .run_with_cancel(&InputProbs::uniform(8), fired())
        .expect_err("run must abort");
    assert!(matches!(err, CoreError::Cancelled), "{err:?}");
}

#[test]
fn disarmed_token_is_invisible() {
    // Results through the cancellable paths with a never-token are
    // bit-identical to the plain entry points.
    let ckt = circuit();
    let analyzer = Analyzer::new(&ckt);
    let probs = InputProbs::uniform(8);
    let plain = analyzer.run(&probs).unwrap();
    let cancellable = analyzer
        .run_with_cancel(&probs, CancelToken::never())
        .unwrap();
    let a: Vec<u64> = plain
        .detection_probabilities()
        .iter()
        .map(|p| p.to_bits())
        .collect();
    let b: Vec<u64> = cancellable
        .detection_probabilities()
        .iter()
        .map(|p| p.to_bits())
        .collect();
    assert_eq!(a, b);
}

#[test]
fn cancel_mid_session_poisons_and_try_queries_refuse() {
    let ckt = circuit();
    let analyzer = Analyzer::new(&ckt);
    let token = CancelToken::new();
    let mut session = analyzer
        .session_with_cancel(&InputProbs::uniform(8), token.clone())
        .unwrap();
    assert!(!session.is_poisoned());
    token.cancel();
    let err = session.set_input_prob(0, 0.25).expect_err("must cancel");
    assert!(matches!(err, CoreError::Cancelled), "{err:?}");
    assert!(session.is_poisoned(), "mid-propagate cancel poisons");
    assert!(matches!(
        session.try_fault_detect_probs(),
        Err(CoreError::Cancelled)
    ));
}

#[test]
fn deadline_token_fires_after_elapsing() {
    let ckt = circuit();
    let analyzer = Analyzer::new(&ckt);
    let token = CancelToken::after(Duration::from_millis(1));
    let mut session = match analyzer.session_with_cancel(&InputProbs::uniform(8), token) {
        Ok(s) => s,
        // The deadline may legitimately fire during construction on a
        // slow machine; that is already the behavior under test.
        Err(CoreError::Cancelled) => return,
        Err(e) => panic!("unexpected error {e:?}"),
    };
    std::thread::sleep(Duration::from_millis(5));
    assert!(matches!(
        session.set_input_prob(0, 0.25),
        Err(CoreError::Cancelled)
    ));
}

#[test]
fn pool_discards_poisoned_sessions() {
    let ckt = circuit();
    let analyzer = Analyzer::new(&ckt);
    let pool = SessionPool::new(&analyzer, InputProbs::uniform(8)).unwrap();
    {
        let mut s = pool.checkout();
        let token = CancelToken::new();
        s.set_cancel(token.clone());
        token.cancel();
        assert!(s.set_input_prob(0, 0.25).is_err());
        assert!(s.is_poisoned());
    }
    let stats = pool.stats();
    assert_eq!(stats.discarded, 1, "{stats:?}");
    assert_eq!(stats.idle, 0, "poisoned session must not return to idle");
    // The pool still serves: the next checkout is a healthy cold clone.
    let mut s = pool.checkout();
    s.set_input_prob(0, 0.25).unwrap();
    assert!(!s.is_poisoned());
}

#[test]
fn explicit_discard_counts_and_skips_resync() {
    let ckt = circuit();
    let analyzer = Analyzer::new(&ckt);
    let pool = SessionPool::new(&analyzer, InputProbs::uniform(8)).unwrap();
    let s = pool.checkout();
    s.discard();
    let stats = pool.stats();
    assert_eq!(stats.discarded, 1);
    assert_eq!(stats.live, 0);
    assert_eq!(stats.idle, 0);
}

#[test]
fn fired_token_aborts_hill_climb() {
    let ckt = circuit();
    let analyzer = Analyzer::new(&ckt);
    let err = HillClimber::new(&analyzer, OptimizeParams::default())
        .with_cancel(fired())
        .optimize()
        .expect_err("climb must abort");
    assert!(matches!(err, CoreError::Cancelled), "{err:?}");
}

#[test]
fn fired_token_aborts_static_check() {
    let ckt = circuit();
    let params = CheckParams {
        prove_redundant: true,
        ..CheckParams::default()
    };
    let err =
        staticanalysis::check_cancellable(&ckt, &params, &fired()).expect_err("check must abort");
    assert!(matches!(err, CoreError::Cancelled), "{err:?}");
}

#[test]
fn fired_token_aborts_tpi() {
    let ckt = circuit();
    let params = TpiParams::default();
    assert!(matches!(
        tpi::rank_with_cancel(&ckt, &params, &fired()),
        Err(CoreError::Cancelled)
    ));
    assert!(matches!(
        tpi::advise_with_cancel(&ckt, &params, &fired()),
        Err(CoreError::Cancelled)
    ));
}

#[test]
fn clean_cancel_on_full_sweep_is_recoverable() {
    // Cancelling before any incremental state exists (fresh session,
    // never queried) aborts construction; but a cancel that hits a
    // *full* recomputation path leaves the session unpoisoned and a
    // disarmed retry succeeds.
    let ckt = circuit();
    let analyzer = Analyzer::new(&ckt);
    let token = CancelToken::new();
    let mut session = analyzer
        .session_with_cancel(&InputProbs::uniform(8), token.clone())
        .unwrap();
    // Warm nothing; cancel; the observability query aborts on its full
    // sweep without poisoning.
    token.cancel();
    assert!(matches!(
        session.try_observabilities(),
        Err(CoreError::Cancelled)
    ));
    assert!(!session.is_poisoned(), "full-sweep cancel must stay clean");
    session.set_cancel(CancelToken::never());
    session.try_observabilities().expect("retry succeeds");
}

#[test]
fn cancel_during_a_fault_query_after_a_mutation_stays_clean() {
    // A warm session is mutated, then its fault query is cancelled
    // mid-pass. The query only leaves its cache stale: the session is not
    // poisoned, and a disarmed retry recomputes exactly what a fresh run
    // at the same point returns.
    let _guard = FAILPOINT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ckt = circuit();
    let analyzer = Analyzer::new(&ckt);
    let mut session = analyzer.session(&InputProbs::uniform(8)).unwrap();
    session.fault_detect_probs();
    session.set_input_prob(0, 0.25).unwrap();
    // The fault pass sleeps 50 ms as it starts; the 10 ms deadline passes
    // during that sleep, so the pass finds the token fired at its first
    // poll.
    session.set_cancel(CancelToken::after(Duration::from_millis(10)));
    failpoints::configure("core.detect.delay=50ms");
    let result = session.try_fault_detect_probs().map(<[f64]>::to_vec);
    failpoints::reset();
    let err = result.expect_err("the fault query must cancel");
    assert!(matches!(err, CoreError::Cancelled), "{err:?}");
    assert!(
        !session.is_poisoned(),
        "a cancelled query must not poison the session"
    );
    session.set_cancel(CancelToken::never());
    let retry: Vec<u64> = session
        .try_fault_detect_probs()
        .expect("disarmed retry succeeds")
        .iter()
        .map(|p| p.to_bits())
        .collect();
    let fresh = analyzer
        .run(&InputProbs::from_slice(session.input_probs()).unwrap())
        .unwrap();
    assert_eq!(retry, detection_bits(&fresh));
}

/// Six uncoupled mesh lanes: one-shot runs take the partitioned path and
/// sweep the lanes in batches.
fn lanes() -> protest_netlist::Circuit {
    protest_circuits::mesh_by_spec("multmesh:3x2x6:uncoupled").unwrap()
}

fn lanes_analyzer(circuit: &protest_netlist::Circuit, threads: usize) -> Analyzer {
    let analyzer = Analyzer::with_params(
        circuit,
        AnalyzerParams {
            num_threads: threads,
            ..AnalyzerParams::default()
        },
    );
    assert_eq!(analyzer.partition_count(), 6);
    analyzer
}

fn detection_bits(analysis: &protest_core::CircuitAnalysis) -> Vec<u64> {
    analysis
        .detection_probabilities()
        .iter()
        .map(|p| p.to_bits())
        .collect()
}

#[test]
fn fired_token_aborts_a_partitioned_run() {
    let ckt = lanes();
    let probs = InputProbs::uniform(ckt.num_inputs());
    for threads in [1, 2] {
        let err = lanes_analyzer(&ckt, threads)
            .run_with_cancel(&probs, fired())
            .expect_err("run must abort");
        assert!(matches!(err, CoreError::Cancelled), "{threads}t: {err:?}");
    }
}

#[test]
fn deadline_passing_mid_batch_aborts_a_partitioned_run_and_a_calm_rerun_is_unchanged() {
    let _guard = FAILPOINT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ckt = lanes();
    let probs = InputProbs::uniform(ckt.num_inputs());
    for threads in [1, 2] {
        let analyzer = lanes_analyzer(&ckt, threads);
        let calm = detection_bits(&analyzer.run(&probs).unwrap());
        // Every batch sleeps 50 ms as it starts; the 10 ms deadline
        // passes during that sleep, so the batch's sweep finds the token
        // fired at its first poll.
        failpoints::configure("core.propagate.delay=50ms");
        let result =
            analyzer.run_with_cancel(&probs, CancelToken::after(Duration::from_millis(10)));
        failpoints::reset();
        let err = result.expect_err("run must abort");
        assert!(matches!(err, CoreError::Cancelled), "{threads}t: {err:?}");
        // The same analyzer, disarmed, reproduces the calm run bit for bit.
        let rerun = analyzer
            .run_with_cancel(&probs, CancelToken::never())
            .unwrap();
        assert_eq!(detection_bits(&rerun), calm, "{threads}t: rerun differs");
    }
}
