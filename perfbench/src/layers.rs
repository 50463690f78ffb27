//! Per-layer timing from outside the program: each public call into a
//! layer runs inside a bench-side span, and the armed `protest_telemetry`
//! sites are read only for the layers no public call isolates.

use std::time::Instant;

use protest_core::sigprob::SignalProbEstimator;
use protest_core::testlen::required_test_length_fraction;
use protest_core::{Aig, Analyzer, AnalyzerParams, InputProbs};
use protest_netlist::parse_bench;
use protest_telemetry::Site;

use crate::check;
use crate::report::Report;
use crate::stats::status_mib;

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Sequential bench-side spans. Their self times are their durations
/// (no span nests in another), so `covered_ms / wall_ms` is the share of
/// the traced op the spans account for.
#[derive(Debug)]
pub struct Spans {
    start: Instant,
    last_end: Instant,
    pub items: Vec<(&'static str, f64)>,
}

impl Spans {
    pub fn start() -> Self {
        let now = Instant::now();
        Spans {
            start: now,
            last_end: now,
            items: Vec::new(),
        }
    }

    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.last_end = Instant::now();
        self.items
            .push((name, (self.last_end - t).as_secs_f64() * 1e3));
        out
    }

    pub fn wall_ms(&self) -> f64 {
        (self.last_end - self.start).as_secs_f64() * 1e3
    }

    pub fn covered_ms(&self) -> f64 {
        self.items.iter().map(|&(_, v)| v).sum()
    }

    /// Copies every span into the report as a metric, and notes the
    /// spans with their coverage of the traced op.
    pub fn report(&self, what: &str, r: &mut Report) {
        for &(name, v) in &self.items {
            r.set(name, v);
        }
        let parts: Vec<String> = self
            .items
            .iter()
            .map(|(n, v)| format!("{n}={v:.3}"))
            .collect();
        r.note(format!(
            "{what}: wall {:.3} ms, spans cover {:.3} ms ({:.2} %): {}",
            self.wall_ms(),
            self.covered_ms(),
            100.0 * self.covered_ms() / self.wall_ms().max(1e-9),
            parts.join(" ")
        ));
    }
}

pub fn params(threads: usize) -> AnalyzerParams {
    AnalyzerParams {
        num_threads: threads,
        ..AnalyzerParams::default()
    }
}

/// Total nanoseconds recorded so far at every telemetry site.
pub struct SiteClock(Vec<(Site, u64)>);

impl SiteClock {
    pub fn now() -> Self {
        SiteClock(
            protest_telemetry::site_totals()
                .into_iter()
                .map(|(s, _, ns)| (s, ns))
                .collect(),
        )
    }

    /// Milliseconds recorded at `site` between `self` and `later`,
    /// summed over threads.
    pub fn ms_until(&self, later: &SiteClock, site: Site) -> f64 {
        let at = |c: &SiteClock| c.0.iter().find(|(s, _)| *s == site).map_or(0, |x| x.1);
        (at(later) - at(self)) as f64 / 1e6
    }
}

/// The public calls of one one-shot analysis of `text`, each in its own
/// span: parse, `Analyzer::with_params`, `partition_count`, `session`,
/// the first `observabilities`, the first `fault_estimates` and the test
/// length `N(0.98, 0.98)`. Then, outside the spans, the fault-dependency
/// map. When the pass repeats the run's op, `same` holds the op's digest
/// and the pass must reproduce it.
pub fn analysis_pass(
    text: &str,
    probs: &[f64],
    threads: usize,
    same: Option<&mut check::SameAsFirst>,
    r: &mut Report,
) -> Result<Spans, String> {
    let mut sp = Spans::start();
    let circuit = sp
        .time("netlist.parse_ms", || parse_bench("bench", text))
        .map_err(|e| e.to_string())?;
    let analyzer = sp.time("analyzer.new_ms", || {
        Analyzer::with_params(&circuit, params(threads))
    });
    let parts = sp.time("partition.plan_ms", || analyzer.partition_count());
    let probs = InputProbs::from_slice(probs).map_err(|e| e.to_string())?;
    let mut session = sp
        .time("session.open_ms", || analyzer.session(&probs))
        .map_err(|e| e.to_string())?;
    sp.time("observe.full_ms", || {
        session.observabilities();
    });
    sp.time("faults.estimate_ms", || {
        session.fault_estimates();
    });
    let testlen = sp.time("testlen.ms", || {
        required_test_length_fraction(session.fault_detect_probs(), 0.98, 0.98)
    });
    sp.report("traced analysis", r);
    r.set("netlist.bytes", text.len() as f64);
    r.set("faults.count", analyzer.faults().len() as f64);
    r.set("partition.count", parts as f64);
    r.set("partition.classes", analyzer.partition_class_count() as f64);
    r.set("partition.bytes", analyzer.partition_storage_bytes() as f64);
    let stats = session.stats();
    r.set("observe.node_evals", stats.obs_node_evals as f64);
    r.set("faults.evals", stats.fault_evals as f64);
    r.set_ratio(
        "observe.reuse_ratio",
        stats.obs_node_reuses,
        stats.obs_node_evals + stats.obs_node_reuses,
    );
    r.set_ratio(
        "faults.reuse_ratio",
        stats.fault_reuses,
        stats.fault_evals + stats.fault_reuses,
    );
    let node_probs = session.signal_probs().to_vec();
    let outcome = check::analysis(
        &node_probs,
        session.fault_estimates(),
        analyzer.faults().len(),
    );
    r.tally
        .record(outcome.and_then(|d| same.map_or(Ok(()), |s| s.check(d))));
    r.set(
        "testlen.patterns",
        testlen.map_or(f64::NAN, |t| t.patterns as f64),
    );
    let t = Instant::now();
    let deps = analyzer.fault_deps_bytes();
    r.set("faults.deps_ms", ms(t));
    r.set("faults.deps_bytes", deps as f64);
    Ok(sp)
}

/// `Aig::from_circuit` → `SignalProbEstimator::new` → `full_estimate`
/// (the serial sweep) on `text`: the build/sweep split that
/// `session.open` hides. Runs first in a traced process, before any op
/// has left freed memory resident, so the `VmRSS` growth across the
/// constructor is the estimator's.
pub fn estimator_split(text: &str, probs: &[f64], threads: usize, r: &mut Report) {
    let circuit = match parse_bench("bench", text) {
        Ok(c) => c,
        Err(e) => return r.tally.record(Err(e.to_string())),
    };
    let t = Instant::now();
    let aig = Aig::from_circuit(&circuit);
    r.set("aig.build_ms", ms(t));
    let ands = aig.num_ands();
    r.set("aig.and_nodes", ands as f64);
    let rss = status_mib("VmRSS");
    let t = Instant::now();
    let estimator = SignalProbEstimator::new(aig, &params(threads));
    r.set("estimator.build_ms", ms(t));
    r.set("estimator.build_rss_mb", status_mib("VmRSS") - rss);
    let t = Instant::now();
    let node_probs = std::hint::black_box(estimator.full_estimate(probs));
    let sweep = ms(t);
    r.set("estimator.sweep_ms", sweep);
    r.set("estimator.ns_per_and", sweep * 1e6 / ands.max(1) as f64);
    let valid = node_probs.iter().all(|p| (0.0..=1.0).contains(p));
    r.note(format!(
        "estimator split: aig {:.3} ms, build {:.3} ms, sweep {sweep:.3} ms over {ands} ANDs",
        r.metrics["aig.build_ms"], r.metrics["estimator.build_ms"]
    ));
    r.tally.record(if valid {
        Ok(())
    } else {
        Err("standalone sweep produced a value outside [0, 1]".to_string())
    });
}
