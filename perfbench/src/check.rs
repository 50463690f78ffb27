//! The correctness checks behind `failed`: every analysis result must be
//! a valid probability assignment, and every repeat of an op must be
//! `to_bits`-identical to the run's first.

use protest_core::FaultEstimate;

use crate::stats::{digest, DIGEST_INIT};

/// Checks one analysis result and returns its digest over the node
/// signal probabilities and the detection probabilities.
///
/// Fails when a value is non-finite or outside `[0, 1]`, when a fault's
/// detection probability exceeds its activation probability, or when the
/// number of estimates differs from `expected_faults`.
pub fn analysis(
    node_probs: &[f64],
    estimates: &[FaultEstimate],
    expected_faults: usize,
) -> Result<u64, String> {
    if estimates.len() != expected_faults {
        return Err(format!(
            "{} fault estimates, expected {expected_faults}",
            estimates.len()
        ));
    }
    let unit = |x: f64| x.is_finite() && (0.0..=1.0).contains(&x);
    if let Some(i) = node_probs.iter().position(|&p| !unit(p)) {
        return Err(format!("node {i} probability {}", node_probs[i]));
    }
    for (i, e) in estimates.iter().enumerate() {
        if !(unit(e.activation) && unit(e.observability) && unit(e.detection)) {
            return Err(format!("fault {i} estimate out of range: {e:?}"));
        }
        if e.detection > e.activation {
            return Err(format!("fault {i} detection exceeds activation: {e:?}"));
        }
    }
    let h = digest(DIGEST_INIT, node_probs.iter().copied());
    Ok(digest(h, estimates.iter().map(|e| e.detection)))
}

/// Remembers the first op's digest and fails every later op whose digest
/// differs from it.
#[derive(Debug, Default)]
pub struct SameAsFirst {
    first: Option<u64>,
}

impl SameAsFirst {
    pub fn check(&mut self, d: u64) -> Result<(), String> {
        match self.first {
            None => {
                self.first = Some(d);
                Ok(())
            }
            Some(f) if f == d => Ok(()),
            Some(f) => Err(format!(
                "result digest {d:016x} differs from first {f:016x}"
            )),
        }
    }

    pub fn first(&self) -> Option<u64> {
        self.first
    }
}

/// Fails unless `served` and `reference` are `to_bits`-equal.
pub fn bit_equal(what: &str, served: &[f64], reference: &[f64]) -> Result<(), String> {
    if served.len() != reference.len() {
        return Err(format!(
            "{what}: {} values served, {} expected",
            served.len(),
            reference.len()
        ));
    }
    match served
        .iter()
        .zip(reference)
        .position(|(s, r)| s.to_bits() != r.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}[{i}]: served {} != direct {}",
            served[i], reference[i]
        )),
    }
}

/// Tallies ops and failures; the first few failure messages are kept
/// for the report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(m) = outcome {
            self.failed += 1;
            if self.messages.len() < 5 {
                self.messages.push(m);
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 5 {
                self.messages.push(m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protest_core::{Analyzer, InputProbs};

    fn c17_run() -> (Vec<f64>, Vec<FaultEstimate>) {
        let c = protest_circuits::c17();
        let a = Analyzer::new(&c);
        let r = a.run(&InputProbs::uniform(c.num_inputs())).unwrap();
        (
            r.signal_probabilities().to_vec(),
            r.fault_estimates().to_vec(),
        )
    }

    #[test]
    fn accepts_a_real_analysis() {
        let (nodes, est) = c17_run();
        let d = analysis(&nodes, &est, est.len()).unwrap();
        let mut same = SameAsFirst::default();
        assert!(same.check(d).is_ok());
        assert!(same
            .check(analysis(&nodes, &est, est.len()).unwrap())
            .is_ok());
    }

    #[test]
    fn probability_above_one_fails() {
        let (mut nodes, est) = c17_run();
        nodes[3] = 1.0 + f64::EPSILON;
        assert!(analysis(&nodes, &est, est.len()).is_err());
        let (nodes, mut est) = c17_run();
        est[0].detection = f64::NAN;
        assert!(analysis(&nodes, &est, est.len()).is_err());
    }

    #[test]
    fn detection_above_activation_and_wrong_count_fail() {
        let (nodes, mut est) = c17_run();
        assert!(analysis(&nodes, &est, est.len() + 1).is_err());
        est[1].detection = est[1].activation + 1e-3;
        est[1].activation -= 2e-3;
        assert!(analysis(&nodes, &est, est.len()).is_err());
    }

    #[test]
    fn one_ulp_changes_digest_and_fails_repeat() {
        let (mut nodes, est) = c17_run();
        let mut same = SameAsFirst::default();
        same.check(analysis(&nodes, &est, est.len()).unwrap())
            .unwrap();
        nodes[5] = f64::from_bits(nodes[5].to_bits() + 1);
        let tampered = analysis(&nodes, &est, est.len()).unwrap();
        assert!(same.check(tampered).is_err());
    }

    #[test]
    fn served_value_off_by_one_ulp_fails() {
        let reference = vec![0.125, 0.5, 0.75];
        let mut served = reference.clone();
        assert!(bit_equal("detect_probs", &served, &reference).is_ok());
        served[2] = f64::from_bits(served[2].to_bits() - 1);
        assert!(bit_equal("detect_probs", &served, &reference).is_err());
        let mut t = Tally::default();
        t.record(bit_equal("detect_probs", &served, &reference));
        t.record(Ok(()));
        assert_eq!((t.attempted, t.failed), (2, 1));
    }
}
