//! The `optimize-div` workload: the Sec. 6 hill climb on `div8x8` at one
//! thread, the serial executor path.
//!
//! One op is what `protest optimize` does, minus printing: parse,
//! `Analyzer::with_params`, `HillClimber::optimize` at the default
//! `OptimizeParams` with the workload seed, then `N(0.98, 0.98)` at the
//! optimized weights through a session.

use std::time::{Duration, Instant};

use protest_core::optimize::{HillClimber, OptimizationResult, OptimizeParams};
use protest_core::testlen::required_test_length_fraction;
use protest_core::Analyzer;
use protest_netlist::{parse_bench, to_bench};
use protest_telemetry::Site;

use crate::check::{self, SameAsFirst};
use crate::layers::{self, ms, SiteClock};
use crate::report::Report;
use crate::stats::{digest, median, Rng};
use crate::{accuracy, another_fits, SetupClock};

const CIRCUIT: &str = "div8x8";
const THREADS: usize = 1;
/// Set-ups before the timed loop, and again before each climb. One takes
/// a fraction of a millisecond, so it is repeated for a steady median.
const SETUP_REPS: usize = 5;
const ACCURACY_FAULTS: usize = 2048;
const ACCURACY_PATTERNS: u64 = 8192;

struct Outcome {
    ms: f64,
    climb: OptimizationResult,
    testlen: u64,
    /// Seeded fault sample with its detection probabilities at the
    /// optimized weights.
    faults: Vec<protest_sim::Fault>,
    p_prot: Vec<f64>,
}

fn op(text: &str, seed: u64, same: &mut SameAsFirst) -> Result<Outcome, String> {
    let t = Instant::now();
    let circuit = parse_bench("bench", text).map_err(|e| e.to_string())?;
    let analyzer = Analyzer::with_params(&circuit, layers::params(THREADS));
    let params = OptimizeParams {
        seed,
        ..OptimizeParams::default()
    };
    let climb = HillClimber::new(&analyzer, params)
        .optimize()
        .map_err(|e| e.to_string())?;
    let mut session = analyzer.session(&climb.probs).map_err(|e| e.to_string())?;
    let testlen = required_test_length_fraction(session.fault_detect_probs(), 0.98, 0.98);
    let elapsed = ms(t);
    let node_probs = session.signal_probs().to_vec();
    let estimates = session.fault_estimates();
    let d = check::analysis(&node_probs, estimates, analyzer.faults().len())?;
    same.check(digest(d, climb.grid_ks.iter().map(|&k| f64::from(k))))?;
    let testlen = testlen.ok_or("N(0.98, 0.98) unreachable")?.patterns;
    let idx = Rng::new(seed ^ 0x5eed).sample_indices(estimates.len(), ACCURACY_FAULTS);
    Ok(Outcome {
        ms: elapsed,
        testlen,
        faults: idx.iter().map(|&i| estimates[i].fault).collect(),
        p_prot: idx.iter().map(|&i| estimates[i].detection).collect(),
        climb,
    })
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut r = Report::default();
    let make = || to_bench(&protest_circuits::by_name(CIRCUIT).expect("builtin circuit"));
    let mut setup = SetupClock::default();
    let text = setup.time(make);
    setup.repeat(SETUP_REPS - 1, make);
    let probs = Rng::new(seed).grid_probs(
        protest_circuits::by_name(CIRCUIT)
            .expect("builtin circuit")
            .num_inputs(),
    );
    if trace {
        layers::estimator_split(&text, &probs, THREADS, &mut r);
    }

    let mut same = SameAsFirst::default();
    let mut times = Vec::new();
    let mut first = None;
    let budget = Duration::from_secs_f64(seconds);
    let loop_setup_s = setup.total_s();
    let t0 = Instant::now();
    while another_fits(t0, budget, &times) {
        setup.repeat(SETUP_REPS, make);
        match op(&text, seed, &mut same) {
            Ok(o) => {
                times.push(o.ms);
                first.get_or_insert(o);
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
        "climbs {} in {busy_s:.3} s, median {op_ms:.3} ms, op ms {times:.3?}",
        times.len()
    ));
    if let Some(d) = same.first() {
        r.note(format!("result_digest = {d:016x}"));
    }
    if let Some(o) = &first {
        let circuit = parse_bench("bench", &text).expect("parsed before");
        let probs = o.climb.probs.as_slice();
        let err = accuracy(
            &circuit,
            &o.faults,
            &o.p_prot,
            probs,
            seed,
            ACCURACY_PATTERNS,
        );
        r.set("detect_err_mean", err);
        r.note(format!(
            "opt_testlen = N(0.98, 0.98) at the optimized weights = {}",
            o.testlen
        ));
    }
    if trace {
        traced(&text, &probs, seed, op_ms, &mut same, &mut r);
    }
    r
}

fn traced(
    text: &str,
    probs: &[f64],
    seed: u64,
    untraced_ms: f64,
    same: &mut SameAsFirst,
    r: &mut Report,
) {
    if let Err(e) = layers::analysis_pass(text, probs, THREADS, None, r) {
        r.tally.record(Err(e));
    }
    // The climb's incremental layers, read from the armed sites. Its
    // result must equal the untraced climbs'.
    protest_telemetry::arm();
    let before = SiteClock::now();
    let outcome = op(text, seed, same);
    let after = SiteClock::now();
    protest_telemetry::disarm();
    drop(protest_telemetry::take());
    let o = match outcome {
        Ok(o) => o,
        Err(e) => return r.tally.record(Err(e)),
    };
    r.tally.record(Ok(()));
    r.set("testlen.patterns", o.testlen as f64);
    for (name, site) in [
        ("session.propagate_ms", Site::Propagate),
        ("observe.refresh_ms", Site::ObsRefresh),
        ("faults.reestimate_ms", Site::FaultReestimate),
    ] {
        r.set(name, before.ms_until(&after, site));
    }
    let w = o.climb.session_stats;
    r.set("session.and_evals", w.and_evals as f64);
    r.set("session.mutations", w.mutations as f64);
    r.set("observe.node_evals", w.obs_node_evals as f64);
    r.set("faults.evals", w.fault_evals as f64);
    r.set_ratio(
        "observe.reuse_ratio",
        w.obs_node_reuses,
        w.obs_node_evals + w.obs_node_reuses,
    );
    r.set_ratio(
        "faults.reuse_ratio",
        w.fault_reuses,
        w.fault_evals + w.fault_reuses,
    );
    let evals = o.climb.evaluations;
    r.set("optimize.evaluations", evals as f64);
    let climb_ms = before.ms_until(&after, Site::OptimizeClimb);
    r.set("optimize.ms_per_eval", climb_ms / evals.max(1) as f64);
    r.note(format!(
        "climb {climb_ms:.3} ms over {evals} evaluations, {} rounds, {} mutations",
        o.climb.rounds, w.mutations
    ));
    r.note(format!(
        "tracing overhead = traced {:.3} ms - untraced median {untraced_ms:.3} ms = {:.3} ms",
        o.ms,
        o.ms - untraced_ms
    ));
}
