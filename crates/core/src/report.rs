//! Human-readable testability reports — the output a PROTEST user reads.

use std::fmt;

use protest_netlist::{Circuit, CircuitStats};

use crate::analyzer::{Analyzer, CircuitAnalysis};
use crate::testlen::TestLength;

/// A rendered testability report: circuit summary, detection-probability
/// distribution, least testable faults, and test lengths for requested
/// `(d, e)` targets.
#[derive(Debug, Clone)]
pub struct TestabilityReport {
    circuit_name: String,
    stats: CircuitStats,
    fault_count: usize,
    uncollapsed: usize,
    expanded: usize,
    pruned_classes: usize,
    pruned_faults: usize,
    min_detection: f64,
    median_detection: f64,
    hardest: Vec<(String, f64)>,
    test_lengths: Vec<(f64, f64, Option<TestLength>)>,
    expanded_test_lengths: Vec<(f64, f64, Option<TestLength>)>,
}

impl TestabilityReport {
    /// Assembles a report from an analysis. `targets` are `(d, e)` pairs for
    /// the test-length section; `hardest` bounds the least-testable list.
    pub fn new(
        analyzer: &Analyzer,
        analysis: &CircuitAnalysis,
        targets: &[(f64, f64)],
        hardest: usize,
    ) -> Self {
        let circuit: &Circuit = analyzer.circuit();
        let mut ps = analysis.detection_probabilities();
        ps.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let min_detection = ps.first().copied().unwrap_or(0.0);
        let median_detection = if ps.is_empty() { 0.0 } else { ps[ps.len() / 2] };
        let hardest = analysis
            .hardest_faults(hardest)
            .into_iter()
            .map(|e| (e.fault.label(circuit), e.detection))
            .collect();
        let test_lengths = targets
            .iter()
            .map(|&(d, e)| (d, e, analysis.required_test_length(d, e)))
            .collect();
        let expanded_test_lengths = targets
            .iter()
            .map(|&(d, e)| {
                (
                    d,
                    e,
                    analysis.required_test_length_expanded(analyzer.class_sizes(), d, e),
                )
            })
            .collect();
        TestabilityReport {
            circuit_name: circuit.name().to_string(),
            stats: CircuitStats::of(circuit),
            fault_count: analyzer.faults().len(),
            uncollapsed: analyzer.uncollapsed_fault_count(),
            expanded: analyzer.class_sizes().iter().map(|&c| c as usize).sum(),
            pruned_classes: analyzer.pruned_class_count(),
            pruned_faults: analyzer.pruned_fault_count(),
            min_detection,
            median_detection,
            hardest,
            test_lengths,
            expanded_test_lengths,
        }
    }

    /// The least testable faults as `(label, detection probability)`.
    pub fn hardest(&self) -> &[(String, f64)] {
        &self.hardest
    }

    /// The computed test lengths as `(d, e, result)`.
    pub fn test_lengths(&self) -> &[(f64, f64, Option<TestLength>)] {
        &self.test_lengths
    }
}

impl fmt::Display for TestabilityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "PROTEST testability report — {}", self.circuit_name)?;
        writeln!(f, "{}", "=".repeat(50))?;
        writeln!(f, "{}", self.stats)?;
        writeln!(
            f,
            "faults: {} collapsed classes ({} uncollapsed)",
            self.fault_count, self.uncollapsed
        )?;
        if self.pruned_classes > 0 {
            writeln!(
                f,
                "  {} proven-redundant classes pruned ({} faults)",
                self.pruned_classes, self.pruned_faults
            )?;
        }
        writeln!(
            f,
            "detection probability: min {:.3e}, median {:.3e}",
            self.min_detection, self.median_detection
        )?;
        if !self.hardest.is_empty() {
            writeln!(f, "\nleast testable faults:")?;
            for (label, p) in &self.hardest {
                writeln!(f, "  {label:<24} p_det = {p:.3e}")?;
            }
        }
        if !self.test_lengths.is_empty() {
            writeln!(f, "\nrequired random test lengths:")?;
            writeln!(f, "  {:>5} {:>7} {:>14}", "d", "e", "N")?;
            for (d, e, tl) in &self.test_lengths {
                match tl {
                    Some(t) => writeln!(f, "  {:>5.2} {:>7.3} {:>14}", d, e, t.patterns)?,
                    None => writeln!(f, "  {:>5.2} {:>7.3} {:>14}", d, e, "unreachable")?,
                }
            }
        }
        // The rows above treat each class as one fault; the expanded rows
        // weight every class by its member count, so `d` is a fraction of
        // the full universe. Identical when every class has one member.
        if !self.expanded_test_lengths.is_empty() && self.expanded > self.fault_count {
            writeln!(
                f,
                "\nclass-expanded test lengths ({} faults):",
                self.expanded
            )?;
            writeln!(f, "  {:>5} {:>7} {:>14}", "d", "e", "N")?;
            for (d, e, tl) in &self.expanded_test_lengths {
                match tl {
                    Some(t) => writeln!(f, "  {:>5.2} {:>7.3} {:>14}", d, e, t.patterns)?,
                    None => writeln!(f, "  {:>5.2} {:>7.3} {:>14}", d, e, "unreachable")?,
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use protest_circuits::c17;

    use crate::analyzer::Analyzer;
    use crate::params::InputProbs;

    use super::*;

    #[test]
    fn expanded_rows_appear_once_classes_have_members() {
        // comp24-style circuits collapse heavily; on c17 the collapse is
        // mild but still > 1 member per class somewhere, so the expanded
        // section renders and its N is at least the representative N (the
        // weighted product has at least every representative factor).
        let ckt = c17();
        let analyzer = Analyzer::new(&ckt);
        let analysis = analyzer.run(&InputProbs::uniform(5)).unwrap();
        let report = TestabilityReport::new(&analyzer, &analysis, &[(1.0, 0.95)], 3);
        let expanded: usize = analyzer.class_sizes().iter().map(|&c| c as usize).sum();
        assert_eq!(expanded, analyzer.uncollapsed_fault_count());
        if expanded > analyzer.faults().len() {
            let text = report.to_string();
            assert!(text.contains("class-expanded test lengths"), "{text}");
        }
    }

    #[test]
    fn report_renders() {
        let ckt = c17();
        let analyzer = Analyzer::new(&ckt);
        let analysis = analyzer.run(&InputProbs::uniform(5)).unwrap();
        let report = TestabilityReport::new(&analyzer, &analysis, &[(1.0, 0.95), (0.98, 0.98)], 5);
        let text = report.to_string();
        assert!(text.contains("c17"), "{text}");
        assert!(text.contains("least testable"), "{text}");
        assert!(text.contains("required random test lengths"), "{text}");
        assert_eq!(report.hardest().len(), 5);
        assert_eq!(report.test_lengths().len(), 2);
    }
}
