//! The one-shot analysis workloads (`analyze-mesh`, `analyze-lanes`).
//!
//! One op is what `protest analyze` does, minus printing: netlist text →
//! `parse_bench` → `Analyzer::with_params` → `Analyzer::run` →
//! `N(0.98, 0.98)`.

use std::time::{Duration, Instant};

use protest_core::{Analyzer, InputProbs};
use protest_netlist::{parse_bench, to_bench};
use protest_sim::Fault;
use protest_telemetry::Site;

use crate::check::{self, SameAsFirst};
use crate::layers::{self, ms, SiteClock, Spans};
use crate::report::Report;
use crate::stats::{median, Rng};
use crate::{accuracy, another_fits, SetupClock};

/// One analyze workload: the circuit, the circuit one structure class of
/// it is made of (the whole circuit when it has one component), and the
/// fixed thread count.
pub struct Spec {
    pub circuit: &'static str,
    pub unit: &'static str,
    pub threads: usize,
}

pub const MESH: Spec = Spec {
    circuit: "multmesh:4x12x64",
    unit: "multmesh:4x12x64",
    threads: 2,
};

pub const LANES: Spec = Spec {
    circuit: "multmesh:4x16x112:uncoupled",
    unit: "multmesh:4x16x1:uncoupled",
    threads: 2,
};

/// Faults in the accuracy sample.
const ACCURACY_FAULTS: usize = 2048;
/// Patterns behind each simulated detection frequency.
const ACCURACY_PATTERNS: u64 = 8192;

/// The generated inputs: netlist text and a seeded input-probability
/// vector on the k/16 grid.
pub struct Inputs {
    pub text: String,
    pub probs: Vec<f64>,
}

pub fn generate(spec: &str, seed: u64) -> Inputs {
    let circuit = protest_circuits::mesh_by_spec(spec).expect("valid mesh spec");
    let probs = Rng::new(seed).grid_probs(circuit.num_inputs());
    Inputs {
        text: to_bench(&circuit),
        probs,
    }
}

/// What the accuracy reference needs from an op: a seeded fault sample
/// with its estimated detection probabilities.
struct Sample {
    faults: Vec<Fault>,
    p_prot: Vec<f64>,
}

/// One op, untimed parts excluded: returns the check outcome and, when
/// asked, the accuracy sample.
fn op(
    inputs: &Inputs,
    threads: usize,
    want_sample: Option<&mut Rng>,
    same: &mut SameAsFirst,
) -> Result<(f64, Option<Sample>), String> {
    let t = Instant::now();
    let circuit = parse_bench("bench", &inputs.text).map_err(|e| e.to_string())?;
    let analyzer = Analyzer::with_params(&circuit, layers::params(threads));
    let probs = InputProbs::from_slice(&inputs.probs).map_err(|e| e.to_string())?;
    let analysis = analyzer.run(&probs).map_err(|e| e.to_string())?;
    let testlen = analysis.required_test_length(0.98, 0.98);
    let elapsed = ms(t);
    let digest = check::analysis(
        analysis.signal_probabilities(),
        analysis.fault_estimates(),
        analyzer.faults().len(),
    )?;
    same.check(digest)?;
    testlen.ok_or("N(0.98, 0.98) unreachable")?;
    let sample = want_sample.map(|rng| {
        let est = analysis.fault_estimates();
        let idx = rng.sample_indices(est.len(), ACCURACY_FAULTS);
        Sample {
            faults: idx.iter().map(|&i| est[i].fault).collect(),
            p_prot: idx.iter().map(|&i| est[i].detection).collect(),
        }
    });
    Ok((elapsed, sample))
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut r = Report::default();
    let mut setup = SetupClock::default();
    let inputs = setup.time(|| generate(spec.circuit, seed));
    setup.repeat(2, || generate(spec.circuit, seed));
    if trace {
        let unit = generate(spec.unit, seed);
        layers::estimator_split(&unit.text, &unit.probs, spec.threads, &mut r);
    }

    let mut same = SameAsFirst::default();
    let mut times = Vec::new();
    let mut sample = None;
    let mut sample_rng = Rng::new(seed ^ 0x5eed);
    let budget = Duration::from_secs_f64(seconds);
    let loop_setup_s = setup.total_s();
    let t0 = Instant::now();
    while another_fits(t0, budget, &times) {
        setup.repeat(1, || generate(spec.circuit, seed));
        let want = sample.is_none().then_some(&mut sample_rng);
        match op(&inputs, spec.threads, want, &mut same) {
            Ok((t, s)) => {
                times.push(t);
                sample = sample.or(s);
                r.tally.record(Ok(()));
            }
            Err(e) => r.tally.record(Err(e)),
        }
    }
    let busy_s = t0.elapsed().as_secs_f64() - (setup.total_s() - loop_setup_s);
    r.set("setup_s", setup.median_s());
    r.set("peak_rss_mb", crate::stats::status_mib("VmHWM"));
    let op_ms = median(&times);
    r.set("op_p50_ms", op_ms);
    r.set("ops_per_s", times.len() as f64 / busy_s);
    r.note(format!(
        "ops {} in {busy_s:.3} s, op ms {times:.3?}",
        times.len()
    ));
    if let Some(d) = same.first() {
        r.note(format!("result_digest = {d:016x}"));
    }

    if let Some(s) = sample {
        let circuit = parse_bench("bench", &inputs.text).expect("parsed before");
        let err = accuracy(
            &circuit,
            &s.faults,
            &s.p_prot,
            &inputs.probs,
            seed,
            ACCURACY_PATTERNS,
        );
        r.set("detect_err_mean", err);
    }
    if trace {
        traced(spec, &inputs, seed, op_ms, &mut same, &mut r);
    }
    r
}

/// The traced run: per-layer metrics and the tracing overhead.
fn traced(
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
    untraced_ms: f64,
    same: &mut SameAsFirst,
    r: &mut Report,
) {
    if spec.unit == spec.circuit {
        // One component: the op's public calls, each spanned.
        match layers::analysis_pass(&inputs.text, &inputs.probs, spec.threads, Some(same), r) {
            Ok(sp) => overhead(&sp, untraced_ms, r),
            Err(e) => r.tally.record(Err(e)),
        }
        return;
    }
    // Partitioned: the layer calls on one structure class, then the op
    // itself with `Analyzer::run` (the session API bypasses partitioning).
    let unit = generate(spec.unit, seed);
    if let Err(e) = layers::analysis_pass(&unit.text, &unit.probs, spec.threads, None, r) {
        r.tally.record(Err(e));
    }
    let mut sp = Spans::start();
    let circuit = sp
        .time("netlist.parse_ms", || parse_bench("bench", &inputs.text))
        .expect("parsed before");
    let analyzer = sp.time("analyzer.new_ms", || {
        Analyzer::with_params(&circuit, layers::params(spec.threads))
    });
    sp.time("partition.plan_ms", || analyzer.partition_count());
    let probs = InputProbs::from_slice(&inputs.probs).expect("valid probabilities");
    protest_telemetry::arm();
    let before = SiteClock::now();
    let analysis = sp.time("analyzer.run_ms", || analyzer.run(&probs));
    let after = SiteClock::now();
    protest_telemetry::disarm();
    drop(protest_telemetry::take());
    let testlen = sp.time("testlen.ms", || {
        analysis
            .as_ref()
            .ok()
            .and_then(|a| a.required_test_length(0.98, 0.98))
    });
    r.set(
        "testlen.patterns",
        testlen.map_or(f64::NAN, |t| t.patterns as f64),
    );
    sp.report("traced op", r);
    r.set("faults.count", analyzer.faults().len() as f64);
    r.set("partition.count", analyzer.partition_count() as f64);
    r.set("partition.classes", analyzer.partition_class_count() as f64);
    r.set("partition.bytes", analyzer.partition_storage_bytes() as f64);
    r.set("netlist.bytes", inputs.text.len() as f64);
    for (name, site) in [
        ("partition.analyze_ms", Site::PartitionAnalyze),
        ("partition.scatter_ms", Site::PartitionScatter),
    ] {
        r.set(name, before.ms_until(&after, site));
    }
    r.note(format!(
        "armed sites (ms summed over threads): partition.extract {:.3}, estimator.sweep {:.3}, \
         observe.full {:.3}, faults.estimate {:.3}",
        before.ms_until(&after, Site::PartitionExtract),
        before.ms_until(&after, Site::EstimatorSweep),
        before.ms_until(&after, Site::ObsFull),
        before.ms_until(&after, Site::FaultEstimate),
    ));
    match analysis {
        Ok(a) => {
            let outcome = check::analysis(
                a.signal_probabilities(),
                a.fault_estimates(),
                analyzer.faults().len(),
            );
            r.tally.record(outcome.and_then(|d| same.check(d)));
        }
        Err(e) => r.tally.record(Err(e.to_string())),
    }
    overhead(&sp, untraced_ms, r);
}

fn overhead(sp: &Spans, untraced_ms: f64, r: &mut Report) {
    r.note(format!(
        "tracing overhead = traced {:.3} ms - untraced median {untraced_ms:.3} ms = {:.3} ms",
        sp.wall_ms(),
        sp.wall_ms() - untraced_ms
    ));
}
