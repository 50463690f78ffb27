//! Differential and schema tests for the telemetry layer.
//!
//! Telemetry's whole contract is "observe, never perturb": spans read
//! the clock and append to thread-local buffers, so an armed run must
//! execute the identical floating-point sequence as a disarmed one.
//! These tests prove bit-identity (`f64::to_bits`) at 1 and 4 threads
//! over paper circuits and a partitioned mesh, and validate the Chrome
//! Trace Event export: parseable JSON, balanced per-thread begin/end
//! events, and coverage of the estimator / observability / fault-loop /
//! partition phases.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use protest::prelude::*;
use protest_circuits::{comp24, div_nonrestoring, mesh_by_spec};
use protest_core::{AnalyzerParams, InputProbs};
use protest_serve::Json;

/// Arming is process-global: tests that arm/drain must not interleave,
/// or one would drain the spans another is about to assert on.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn params(threads: usize) -> AnalyzerParams {
    AnalyzerParams {
        num_threads: threads,
        ..AnalyzerParams::default()
    }
}

/// A skewed, non-uniform input probability vector (uniform 1/2 would
/// leave many conditioning paths unexercised).
fn skewed_probs(inputs: usize) -> InputProbs {
    let probs: Vec<f64> = (0..inputs).map(|i| ((i % 15) + 1) as f64 / 16.0).collect();
    InputProbs::from_slice(&probs).unwrap()
}

/// Every result bit of one full analysis: signal probabilities followed
/// by fault detection probabilities.
fn analysis_bits(circuit: &Circuit, threads: usize) -> Vec<u64> {
    let analyzer = Analyzer::with_params(circuit, params(threads));
    let probs = skewed_probs(circuit.num_inputs());
    let analysis = analyzer.run(&probs).unwrap();
    let mut bits: Vec<u64> = analysis
        .signal_probabilities()
        .iter()
        .map(|p| p.to_bits())
        .collect();
    bits.extend(
        analysis
            .detection_probabilities()
            .iter()
            .map(|p| p.to_bits()),
    );
    bits
}

#[test]
fn armed_runs_are_bit_identical_to_disarmed() {
    let _serial = TELEMETRY_LOCK.lock().unwrap();
    let circuits = [
        ("comp24", comp24()),
        ("div8x8", div_nonrestoring(8, 8)),
        (
            "multmesh:2x2x6:uncoupled",
            mesh_by_spec("multmesh:2x2x6:uncoupled").unwrap(),
        ),
    ];
    for (name, circuit) in &circuits {
        for threads in [1usize, 4] {
            assert!(!protest_telemetry::armed());
            let baseline = analysis_bits(circuit, threads);
            protest_telemetry::arm();
            let traced = analysis_bits(circuit, threads);
            protest_telemetry::disarm();
            let trace = protest_telemetry::take();
            assert!(
                !trace.spans.is_empty(),
                "{name} @ {threads} threads: armed run recorded no spans"
            );
            assert_eq!(
                baseline, traced,
                "{name} @ {threads} threads: arming telemetry changed result bits"
            );
        }
    }
}

#[test]
fn chrome_trace_export_is_valid_and_balanced() {
    let _serial = TELEMETRY_LOCK.lock().unwrap();
    // Drop any spans a previously-armed run in this process left behind.
    let _ = protest_telemetry::take();
    // Uncoupled mesh: 6 disconnected components, so the partitioned
    // executor (extract → analyze → scatter) runs for real.
    let circuit = mesh_by_spec("multmesh:2x2x6:uncoupled").unwrap();
    protest_telemetry::arm();
    let analyzer = Analyzer::with_params(&circuit, params(4));
    let probs = skewed_probs(circuit.num_inputs());
    let _ = analyzer.run(&probs).unwrap();
    protest_telemetry::disarm();
    let trace = protest_telemetry::take();
    assert_eq!(trace.dropped, 0, "span buffers must not overflow here");

    let json = trace.to_chrome_json();
    let parsed = Json::parse(&json).expect("chrome trace must be valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Per-thread begin/end events must be balanced and never close an
    // event that was not opened.
    let mut depth: HashMap<u64, i64> = HashMap::new();
    let mut names: HashSet<String> = HashSet::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph field");
        let tid = ev.get("tid").and_then(Json::as_u64).expect("tid field");
        match ph {
            "B" => {
                *depth.entry(tid).or_insert(0) += 1;
                let name = ev.get("name").and_then(Json::as_str).expect("name field");
                names.insert(name.to_string());
                assert!(ev.get("ts").is_some(), "begin event without ts");
            }
            "E" => {
                let d = depth.entry(tid).or_insert(0);
                *d -= 1;
                assert!(*d >= 0, "tid {tid}: end event with no matching begin");
            }
            "M" => {} // thread_name metadata
            other => panic!("unexpected event phase `{other}`"),
        }
    }
    for (tid, d) in depth {
        assert_eq!(d, 0, "tid {tid}: unbalanced begin/end events");
    }

    // The span tree must cover the estimator, observability, fault-loop
    // and partition phases (ISSUE acceptance).
    for want in [
        "estimator.sweep",
        "observe.full",
        "faults.estimate",
        "partition.extract",
        "partition.analyze",
        "partition.scatter",
    ] {
        assert!(
            names.contains(want),
            "trace missing `{want}` spans; saw {names:?}"
        );
    }

    // The phase tree renders the same spans as an aggregate report.
    let tree = trace.phase_tree();
    assert!(tree.starts_with("# phase breakdown"), "{tree}");
    assert!(tree.contains("partition.analyze"), "{tree}");
}
