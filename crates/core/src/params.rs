use crate::error::CoreError;

/// How branch observabilities recombine at a fanout stem (paper Sec. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObservabilityModel {
    /// The paper's first model: branches combine with
    /// `⊕(t, y) = t + y − 2ty`, i.e. a fault effect is observed when it
    /// reaches the outputs along an *odd* number of reconverging paths
    /// (models cancellation). Reproduces the paper's MULT row of Table 1.
    Parity,
    /// The paper's "alternative model for circuits with a large number of
    /// primary outputs": `s(x) = 1 − (1 − s₁)…(1 − sₘ)` (any branch
    /// observes; ignores cancellation). The default: it calibrates best
    /// against fault simulation on the paper's circuits (see the
    /// `model_calibration` bench binary) and reproduces the ALU row.
    #[default]
    AnyPath,
}

/// How a gate input pin's sensitivity (probability that the gate output
/// follows the pin) is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PinSensitivityModel {
    /// Literal transcription of the paper's formula: evaluate the gate's
    /// arithmetic multilinear extension with the pin at 0 and at 1 and
    /// combine with `⊕(t,y) = t + y − 2ty`, treating the two cofactors as
    /// independent. Identical to `BooleanDifference` on AND/OR/NAND/NOR/
    /// NOT/BUF; pessimistic on *primitive* XOR gates (the 1985 netlists had
    /// none — their XORs were NAND networks, where the formula is locally
    /// exact, which is what `BooleanDifference` provides here).
    ArithmeticXor,
    /// Exact local Boolean difference: `P(f|ₓ₌₀ ≠ f|ₓ₌₁)` computed exactly
    /// from the gate function under independent input probabilities. The
    /// default (see `model_calibration`).
    #[default]
    BooleanDifference,
}

/// How the analyzer collapses the fault universe before estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultCollapse {
    /// Structural equivalence only: every class member has the identical
    /// test set, so any member stands for the class. The default — the
    /// behavior of every analyzer version so far.
    #[default]
    Equivalence,
    /// Equivalence followed by dominance merging
    /// ([`protest_sim::collapse::dominance_collapse`]): detecting a class
    /// representative implies detecting every member, so the per-fault
    /// loop runs over fewer, harder representatives. Test lengths over the
    /// representatives are conservative for the full universe; reports
    /// expand classes by size for the corrected `N(d,e)`.
    Dominance,
}

/// Tuning parameters of the analysis (paper Sec. 2 and 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyzerParams {
    /// `MAXVERS`: maximal number of joining points conditioned on per AND
    /// node (the estimator enumerates `2^maxvers` cases, so keep it small).
    pub maxvers: usize,
    /// `MAXLIST`: maximal path length (in edges) of the backward search for
    /// joining points and of conditional re-propagation.
    ///
    /// The estimator stores positions within a conditioning cone as `u16`,
    /// so every cone must have fewer than 65,535 nodes. That always holds
    /// for AIGs under 65,535 nodes, and for any AIG when `maxlist ≤ 14`:
    /// each side's bounded cone then has fewer than 2^15 nodes. Outside
    /// that bound, building the estimator panics on a cone that does not
    /// fit ("exceeds its u16 positions") rather than truncating it. The
    /// default, 10, is what `protest serve` always uses.
    pub maxlist: usize,
    /// Stem recombination model for observability.
    pub observability: ObservabilityModel,
    /// Gate-pin sensitivity model.
    pub pin_sensitivity: PinSensitivityModel,
    /// Worker threads for the parallel analysis executor (estimation
    /// ranks, observability wavefronts, the per-fault loop and the
    /// optimizer's trial moves). `0` (the default) resolves to the
    /// `PROTEST_THREADS` environment variable if set, else the machine's
    /// available parallelism; `1` forces the serial code paths. Results
    /// are bit-identical at every setting — the parallel passes keep the
    /// serial floating-point operation order.
    pub num_threads: usize,
    /// Fault-collapsing mode (default: equivalence only, today's
    /// behavior).
    pub collapse: FaultCollapse,
    /// Decompose the circuit into connected components and analyze them
    /// independently in one-shot [`Analyzer::run`](crate::Analyzer::run)
    /// passes (default: on). Results are bit-identical to the monolithic
    /// pass — see [`partition`](crate::partition) for the decomposition
    /// conditions; circuits that don't meet them silently use the
    /// monolithic path, so the knob only matters for A/B comparisons.
    pub partition: bool,
    /// Run the redundancy prover at construction and drop
    /// proven-undetectable fault classes from the analyzed list. Sound:
    /// pruned classes have detection probability exactly 0, so removing
    /// them changes no survivor's estimate and only *corrects* test
    /// lengths (an undetectable fault makes every `N(d=1, e)` infinite).
    pub prune_redundant: bool,
    /// BDD node budget per redundancy proof (see
    /// [`staticanalysis`](crate::staticanalysis) for the budget
    /// semantics). Only consulted when `prune_redundant` is set.
    pub redundancy_budget: usize,
}

impl Default for AnalyzerParams {
    fn default() -> Self {
        AnalyzerParams {
            maxvers: 5,
            maxlist: 10,
            observability: ObservabilityModel::default(),
            pin_sensitivity: PinSensitivityModel::default(),
            num_threads: 0,
            collapse: FaultCollapse::default(),
            partition: true,
            prune_redundant: false,
            redundancy_budget: 200_000,
        }
    }
}

/// A validated vector of primary-input signal probabilities
/// (`P(input_i = 1)`).
#[derive(Debug, Clone, PartialEq)]
pub struct InputProbs(Vec<f64>);

impl InputProbs {
    /// The conventional random test: every input at probability 1/2.
    pub fn uniform(inputs: usize) -> Self {
        InputProbs(vec![0.5; inputs])
    }

    /// All inputs at the same probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProbRange`] if `p` is outside `[0, 1]`.
    pub fn constant(inputs: usize, p: f64) -> Result<Self, CoreError> {
        Self::from_slice(&vec![p; inputs])
    }

    /// Validates and wraps a probability vector.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProbRange`] if any entry is not a finite number
    /// in `[0, 1]`.
    pub fn from_slice(probs: &[f64]) -> Result<Self, CoreError> {
        for &p in probs {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(CoreError::ProbRange { value: p });
            }
        }
        Ok(InputProbs(probs.to_vec()))
    }

    /// Builds from grid indices `k/denominator` (the paper's optimizer works
    /// on the k/16 grid; Table 4 lists values like 0.63 = 10/16, 0.88 =
    /// 14/16).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProbRange`] if any `k > denominator` or the
    /// denominator is 0.
    pub fn from_grid(ks: &[u32], denominator: u32) -> Result<Self, CoreError> {
        if denominator == 0 {
            return Err(CoreError::ProbRange { value: f64::NAN });
        }
        let probs: Vec<f64> = ks.iter().map(|&k| k as f64 / denominator as f64).collect();
        Self::from_slice(&probs)
    }

    /// The probabilities.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Number of inputs covered.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Checks the vector against a circuit's input count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProbsLength`] on mismatch.
    pub fn check_len(&self, expected: usize) -> Result<(), CoreError> {
        if self.0.len() == expected {
            Ok(())
        } else {
            Err(CoreError::ProbsLength {
                got: self.0.len(),
                expected,
            })
        }
    }
}

impl AsRef<[f64]> for InputProbs {
    fn as_ref(&self) -> &[f64] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_and_constant() {
        assert_eq!(InputProbs::uniform(3).as_slice(), &[0.5, 0.5, 0.5]);
        let c = InputProbs::constant(2, 0.25).unwrap();
        assert_eq!(c.as_slice(), &[0.25, 0.25]);
        assert!(InputProbs::constant(2, 1.5).is_err());
    }

    #[test]
    fn grid_values_match_table4_style() {
        let g = InputProbs::from_grid(&[10, 9, 14, 15], 16).unwrap();
        assert_eq!(g.as_slice(), &[0.625, 0.5625, 0.875, 0.9375]);
        assert!(InputProbs::from_grid(&[17], 16).is_err());
        assert!(InputProbs::from_grid(&[1], 0).is_err());
    }

    #[test]
    fn validation() {
        assert!(InputProbs::from_slice(&[0.0, 1.0, 0.5]).is_ok());
        assert!(InputProbs::from_slice(&[f64::NAN]).is_err());
        assert!(InputProbs::from_slice(&[-0.1]).is_err());
        let p = InputProbs::uniform(2);
        assert!(p.check_len(2).is_ok());
        assert!(p.check_len(3).is_err());
    }
}
