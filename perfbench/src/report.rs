//! Metric names and units, and the result line.
//!
//! The tables here must list the same names, in the same order, as
//! `BENCHMARK.json` (a test checks this). A run with `--trace 0` reports
//! every end-to-end metric; a run with `--trace 1` every per-layer
//! metric. A per-layer metric whose layer a workload never runs reads 0.

use std::collections::BTreeMap;

use protest_serve::Json;

use crate::check::Tally;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("detect_err_mean", "prob"),
];

/// Per-layer serve request kinds.
pub const SERVE_KINDS: [&str; 3] = ["analyze", "batch", "submit"];

/// Per-layer serve figures of each request kind: `(suffix, unit)`.
pub const SERVE_FIGURES: [(&str, &str); 6] = [
    ("rtt_p50_ms", "ms"),
    ("rtt_tail_ms", "ms"),
    ("queue_mean_us", "us"),
    ("checkout_mean_us", "us"),
    ("compute_mean_us", "us"),
    ("wire_mean_us", "us"),
];

/// Per-layer metrics other than the per-kind serve figures: `(name, unit)`.
pub const LAYERS: &[(&str, &str)] = &[
    ("netlist.parse_ms", "ms"),
    ("netlist.bytes", "bytes"),
    ("analyzer.new_ms", "ms"),
    ("faults.count", "count"),
    ("aig.build_ms", "ms"),
    ("aig.and_nodes", "count"),
    ("estimator.build_ms", "ms"),
    ("estimator.build_rss_mb", "MiB"),
    ("estimator.sweep_ms", "ms"),
    ("estimator.ns_per_and", "ns"),
    ("partition.plan_ms", "ms"),
    ("partition.count", "count"),
    ("partition.classes", "count"),
    ("partition.bytes", "bytes"),
    ("partition.analyze_ms", "ms"),
    ("partition.scatter_ms", "ms"),
    ("session.open_ms", "ms"),
    ("session.propagate_ms", "ms"),
    ("session.and_evals", "count"),
    ("session.mutations", "count"),
    ("observe.full_ms", "ms"),
    ("observe.refresh_ms", "ms"),
    ("observe.node_evals", "count"),
    ("observe.reuse_ratio", "ratio"),
    ("faults.estimate_ms", "ms"),
    ("faults.reestimate_ms", "ms"),
    ("faults.deps_ms", "ms"),
    ("faults.deps_bytes", "bytes"),
    ("faults.evals", "count"),
    ("faults.reuse_ratio", "ratio"),
    ("testlen.ms", "ms"),
    ("testlen.patterns", "patterns"),
    ("optimize.evaluations", "count"),
    ("optimize.ms_per_eval", "ms"),
    ("registry.hit_ratio", "ratio"),
    ("registry.evictions", "count"),
    ("pool.warm_ratio", "ratio"),
    ("serve.busy", "count"),
];

/// Every per-layer metric in output order: the layer table, then the
/// serve figures per kind.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &str)> = LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for kind in SERVE_KINDS {
        for (fig, unit) in SERVE_FIGURES {
            all.push((format!("serve.{kind}.{fig}"), unit));
        }
    }
    all
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    /// Checks outside the per-op tally (e.g. a non-finite accuracy).
    pub extra_failures: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable detail lines, printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// A ratio, with its base in the notes.
    pub fn set_ratio(&mut self, name: &str, part: u64, whole: u64) {
        let r = if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        };
        self.set(name, r);
        self.note(format!("{name} = {part} / {whole}"));
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// end-to-end (`trace == false`) or per-layer metrics. A metric the
    /// workload did not set reads 0; a missing end-to-end metric or a
    /// non-finite value makes the run incorrect.
    pub fn result_line(&self, trace: bool) -> String {
        let names: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut correct = self.tally.failed == 0 && self.extra_failures.is_empty();
        let mut metrics = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let value = match self.metrics.get(&name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => {
                    correct = false;
                    0.0
                }
            };
            if !value.is_finite() {
                correct = false;
            }
            let value = if value.is_finite() { value } else { 0.0 };
            metrics.push((
                name,
                Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
            ));
        }
        Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(self.tally.attempted.max(1) as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_line()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        s.len() <= 64
            && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let root = Json::parse(text).expect("BENCHMARK.json parses");
        root.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut all: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        all.extend(per_layer().into_iter().map(|(n, _)| n));
        for name in &all {
            assert!(valid_name(name), "bad metric name {name}");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for (_, unit) in END_TO_END
            .iter()
            .copied()
            .chain(per_layer().iter().map(|(_, u)| ("", *u)))
        {
            assert!(valid_unit(unit), "bad unit {unit}");
        }
        for w in crate::WORKLOADS {
            assert!(valid_name(w), "bad workload name {w}");
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
        let text = include_str!("../../BENCHMARK.json");
        let root = Json::parse(text).unwrap();
        let workloads: Vec<&str> = root
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_reports_every_declared_metric() {
        let mut r = Report::default();
        for &(n, _) in END_TO_END {
            r.set(n, 1.5);
        }
        r.tally.record(Ok(()));
        let line = Json::parse(&r.result_line(false)).unwrap();
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        let Some(Json::Obj(m)) = line.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(m.len(), END_TO_END.len());
        let traced = Json::parse(&r.result_line(true)).unwrap();
        let Some(Json::Obj(m)) = traced.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(m.len(), per_layer().len());
        r.metrics.remove("setup_s");
        let line = Json::parse(&r.result_line(false)).unwrap();
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
    }
}
