//! Optimized input signal probabilities (paper Sec. 6).
//!
//! For a tuple `X = (p_i)` of input probabilities, `J_N(X) = Π_f
//! (1 − (1 − p_f(X))^N)` estimates the probability that `N` weighted random
//! patterns detect every fault. `J_N` is maximized "according to the hill
//! climbing principle" over a discrete grid — Table 4's optimized values
//! (0.13, 0.31, 0.38, 0.56, 0.63, 0.69, 0.75, 0.88, 0.94) are all `k/16`,
//! so the grid denominator defaults to 16.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::analyzer::Analyzer;
use crate::cancel::CancelToken;
use crate::error::CoreError;
use crate::params::InputProbs;
use crate::session::{AnalysisSession, SessionStats};
use crate::testlen::{ln_expected_undetected, ln_set_detection_probability};

/// Hill-climbing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizeParams {
    /// The numerical parameter `N` of the objective `J_N` (the paper calls
    /// it "only a numerical parameter"; thousands work well).
    pub n_target: u64,
    /// Grid denominator: probabilities move on `{1/g, …, (g−1)/g}`.
    pub grid: u32,
    /// Maximum full rounds over all inputs.
    pub max_rounds: usize,
    /// Seed for the per-round input visiting order.
    pub seed: u64,
}

impl Default for OptimizeParams {
    fn default() -> Self {
        OptimizeParams {
            n_target: 2000,
            grid: 16,
            max_rounds: 16,
            seed: 0,
        }
    }
}

/// Result of an optimization run.
#[derive(Debug, Clone)]
pub struct OptimizationResult {
    /// The optimized input probabilities.
    pub probs: InputProbs,
    /// Grid numerators (`probs[i] = grid_ks[i] / grid`).
    pub grid_ks: Vec<u32>,
    /// Climbing objective (`−ln E[#undetected]`) at the optimum.
    pub objective_ln: f64,
    /// Climbing objective at the starting point.
    pub initial_objective_ln: f64,
    /// Rounds performed.
    pub rounds: usize,
    /// Number of objective evaluations (analysis runs).
    pub evaluations: usize,
    /// Work counters of *this* climb: the driving session's work from the
    /// climb's start to its optimum, plus the net work of any cloned
    /// trial-move worker sessions a parallel executor used (for
    /// [`HillClimber::optimize_multi`] each round therefore reports its
    /// own work). The observable record of how much incremental reuse the
    /// forward, reverse and per-fault passes achieved. Totals grow
    /// somewhat with the thread count: each worker clone re-propagates
    /// accepted moves to catch up to the climb's current point, work the
    /// serial schedule performs only once on the driving session.
    pub session_stats: SessionStats,
}

/// Result of [`HillClimber::optimize_multi`]: one distribution per round
/// plus, for each fault, the round that claimed it.
#[derive(Debug, Clone)]
pub struct MultiDistributionResult {
    /// The optimized distributions, in the order they were produced.
    pub distributions: Vec<OptimizationResult>,
    /// For each fault (aligned with [`crate::Analyzer::faults`]), the index
    /// of the distribution whose pattern budget covers it, or `None` if no
    /// round reached the confidence target.
    pub covered_by: Vec<Option<usize>>,
}

impl MultiDistributionResult {
    /// Number of faults left uncovered by every distribution.
    pub fn uncovered(&self) -> usize {
        self.covered_by.iter().filter(|c| c.is_none()).count()
    }
}

/// Hill climber over the input-probability grid.
///
/// # Example
///
/// ```
/// use protest_core::{Analyzer, optimize::{HillClimber, OptimizeParams}};
/// use protest_netlist::CircuitBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::new("deep_and");
/// let xs = b.input_bus("x", 6);
/// let t = b.and_tree(&xs);
/// b.output(t, "z");
/// let ckt = b.finish()?;
/// let analyzer = Analyzer::new(&ckt);
/// let result = HillClimber::new(&analyzer, OptimizeParams::default()).optimize()?;
/// // An AND tree wants high input probabilities.
/// assert!(result.probs.as_slice().iter().all(|&p| p > 0.5));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct HillClimber {
    analyzer: Analyzer,
    params: OptimizeParams,
    cancel: CancelToken,
}

impl HillClimber {
    /// Creates a climber for an analyzer.
    ///
    /// # Panics
    ///
    /// Panics if `params.grid < 2` or `params.n_target == 0`.
    pub fn new(analyzer: &Analyzer, params: OptimizeParams) -> Self {
        assert!(params.grid >= 2, "grid must have at least two cells");
        assert!(params.n_target > 0, "objective needs N ≥ 1");
        HillClimber {
            analyzer: analyzer.clone(),
            params,
            cancel: CancelToken::never(),
        }
    }

    /// Arms the climber with a [`CancelToken`]: every trial move, accepted
    /// move and objective evaluation (including the cloned trial-move
    /// worker sessions of a parallel executor) polls the token, and a
    /// fired token aborts the climb with [`CoreError::Cancelled`].
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Optimizes starting from the uniform point (`k = grid/2`).
    ///
    /// # Errors
    ///
    /// Propagates analysis errors ([`CoreError`]).
    pub fn optimize(&self) -> Result<OptimizationResult, CoreError> {
        let n = self.analyzer.circuit().num_inputs();
        let ks = vec![self.params.grid / 2; n];
        self.optimize_from_grid(ks)
    }

    /// Optimizes from explicit grid numerators.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors ([`CoreError`]).
    ///
    /// # Panics
    ///
    /// Panics if `start.len()` does not match the circuit's input count or
    /// any numerator is outside `1..grid`.
    pub fn optimize_from_grid(&self, start: Vec<u32>) -> Result<OptimizationResult, CoreError> {
        self.optimize_masked(start, None)
    }

    /// Optimizes multiple weighted-random distributions greedily — the
    /// extension the paper's single-tuple formulation motivates (and which
    /// Wunderlich pursued in follow-up work): circuits like array dividers
    /// contain fault classes that *no single* product distribution can
    /// excite simultaneously. Round `k` optimizes a distribution for the
    /// faults not yet considered covered, then marks every fault whose
    /// estimated detection probability within `patterns_per_distribution`
    /// patterns reaches `confidence`.
    ///
    /// Stops after `max_distributions`, or earlier when everything is
    /// covered or a round makes no progress.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors ([`CoreError`]).
    ///
    /// # Panics
    ///
    /// Panics if `max_distributions == 0`, `patterns_per_distribution == 0`
    /// or `confidence` is not in `(0, 1)`.
    pub fn optimize_multi(
        &self,
        max_distributions: usize,
        patterns_per_distribution: u64,
        confidence: f64,
    ) -> Result<MultiDistributionResult, CoreError> {
        assert!(max_distributions > 0, "need at least one distribution");
        assert!(
            patterns_per_distribution > 0,
            "need a positive pattern budget"
        );
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0, 1)"
        );
        let inputs = self.analyzer.circuit().num_inputs();
        let nfaults = self.analyzer.faults().len();
        let mut covered = vec![false; nfaults];
        let mut covered_by = vec![None; nfaults];
        let mut distributions = Vec::new();
        // One incremental session serves every round: each `climb` resets
        // the inputs to the uniform start (re-propagating only what that
        // changes) and leaves the session at the round's optimum, where the
        // detection probabilities are read back directly.
        let start = vec![self.params.grid / 2; inputs];
        let mut session = self.analyzer.session_with_cancel(
            &InputProbs::from_grid(&start, self.params.grid)?,
            self.cancel.clone(),
        )?;
        for round in 0..max_distributions {
            if covered.iter().all(|&c| c) {
                break;
            }
            let mask: Vec<bool> = covered.iter().map(|&c| !c).collect();
            let result = self.climb(&mut session, start.clone(), Some(&mask))?;
            let ps = session.try_fault_detect_probs()?;
            let mut newly = 0usize;
            for (i, &p) in ps.iter().enumerate() {
                if covered[i] || p <= 0.0 {
                    continue;
                }
                let miss = (patterns_per_distribution as f64) * (-p).ln_1p();
                if 1.0 - miss.exp() >= confidence {
                    covered[i] = true;
                    covered_by[i] = Some(round);
                    newly += 1;
                }
            }
            distributions.push(result);
            if newly == 0 {
                break; // no progress: further rounds would repeat
            }
        }
        Ok(MultiDistributionResult {
            distributions,
            covered_by,
        })
    }

    /// Optimizes a distribution for a *subset* of the analyzer's faults
    /// (`active[i]` selects fault `i` of [`crate::Analyzer::faults`]).
    ///
    /// Building block for coverage-feedback loops: callers can fault-
    /// simulate each produced distribution and re-optimize for whatever
    /// remains genuinely uncovered, sidestepping estimator optimism.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors ([`CoreError`]).
    ///
    /// # Panics
    ///
    /// Panics if `active.len()` does not match the fault count or no fault
    /// is active.
    pub fn optimize_for_faults(&self, active: &[bool]) -> Result<OptimizationResult, CoreError> {
        assert_eq!(
            active.len(),
            self.analyzer.faults().len(),
            "one flag per fault"
        );
        assert!(
            active.iter().any(|&a| a),
            "at least one fault must be active"
        );
        let start = vec![self.params.grid / 2; self.analyzer.circuit().num_inputs()];
        self.optimize_masked(start, Some(active))
    }

    fn optimize_masked(
        &self,
        start: Vec<u32>,
        mask: Option<&[bool]>,
    ) -> Result<OptimizationResult, CoreError> {
        let g = self.params.grid;
        assert!(
            start.iter().all(|&k| k >= 1 && k < g),
            "grid numerators must be in 1..grid"
        );
        let mut session = self
            .analyzer
            .session_with_cancel(&InputProbs::from_grid(&start, g)?, self.cancel.clone())?;
        self.climb(&mut session, start, mask)
    }

    /// The single climbing loop shared by all four `optimize*` entry
    /// points, driven by an incremental [`AnalysisSession`]: each trial
    /// move mutates one input (or shifts all of them), and every analysis
    /// layer the objective reads refreshes from the session's shared
    /// dirty-region tracker — the forward pass re-propagates only the
    /// dirty fan-out cone, the reverse pass re-sweeps only the dirty
    /// observability region, and the fault pass recomputes only the
    /// intersected faults. Rejected moves are undone with
    /// `snapshot`/`revert` instead of a from-scratch re-run. The session is
    /// left positioned at the returned optimum.
    ///
    /// On a parallel executor the two ±1 trial moves of each input are
    /// evaluated concurrently on cloned worker sessions synced to the
    /// climb's current point (sessions are confluent: any mutation route
    /// to the same input vector yields bit-identical state, so each trial
    /// objective equals the value the serial dance produces and the climb
    /// trajectory — every accepted move, every count — is unchanged).
    fn climb(
        &self,
        session: &mut AnalysisSession,
        start: Vec<u32>,
        mask: Option<&[bool]>,
    ) -> Result<OptimizationResult, CoreError> {
        let _t = protest_telemetry::span(protest_telemetry::Site::OptimizeClimb);
        let inputs = self.analyzer.circuit().num_inputs();
        assert_eq!(start.len(), inputs, "one grid cell per input");
        let g = self.params.grid;
        let climb_base = session.stats();
        let mut ks = start;
        session.set_all(InputProbs::from_grid(&ks, g)?.as_slice())?;
        let mut evaluations = 0usize;
        let mut ps_buf: Vec<f64> = Vec::new();
        evaluations += 1;
        let mut best = self.objective_value(session, mask, &mut ps_buf)?;
        let initial = best;
        let exec = self.analyzer.exec();
        // Trial-move workers, cloned lazily on the first parallel trial.
        // `worker_base` snapshots the driving session's counters at clone
        // time so each worker's *net* work can be folded into the result.
        let mut workers: Vec<(AnalysisSession, Vec<f64>)> = Vec::new();
        let mut worker_base = SessionStats::default();
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let mut order: Vec<usize> = (0..inputs).collect();
        let mut rounds = 0usize;
        for _ in 0..self.params.max_rounds {
            self.cancel.check()?;
            rounds += 1;
            order.shuffle(&mut rng);
            let mut improved = false;
            for &i in &order {
                let k0 = ks[i];
                let cands: Vec<u32> = [k0.wrapping_sub(1), k0 + 1]
                    .into_iter()
                    .filter(|&c| (1..g).contains(&c))
                    .collect();
                let mut trials: Vec<(u32, f64)> = Vec::with_capacity(cands.len());
                if exec.parallel() && cands.len() == 2 {
                    if workers.is_empty() {
                        worker_base = session.stats();
                        workers.push((session.clone(), Vec::new()));
                        workers.push((session.clone(), Vec::new()));
                    }
                    let base = session.input_probs().to_vec();
                    let (w0, w1) = workers.split_at_mut(1);
                    let eval = |worker: &mut (AnalysisSession, Vec<f64>),
                                cand: u32|
                     -> Result<f64, CoreError> {
                        let (worker_session, ps) = worker;
                        // Catch the worker up to the climb's current point
                        // first — it then re-propagates only the moves
                        // accepted since its last trial (usually one
                        // cone), and the snapshot/revert pair keeps each
                        // trial itself O(trial cone).
                        worker_session.set_all(&base)?;
                        worker_session.snapshot();
                        let mut target = base.clone();
                        target[i] = f64::from(cand) / f64::from(g);
                        worker_session.set_all(&target)?;
                        let objective = self.objective_value(worker_session, mask, ps)?;
                        worker_session.revert();
                        Ok(objective)
                    };
                    let (j0, j1) = exec.run(|| {
                        rayon::join(|| eval(&mut w0[0], cands[0]), || eval(&mut w1[0], cands[1]))
                    });
                    evaluations += 2;
                    trials.push((cands[0], j0?));
                    trials.push((cands[1], j1?));
                } else {
                    for &cand in &cands {
                        session.snapshot();
                        session.set_input_prob(i, f64::from(cand) / f64::from(g))?;
                        evaluations += 1;
                        let j = self.objective_value(session, mask, &mut ps_buf)?;
                        session.revert();
                        trials.push((cand, j));
                    }
                }
                let mut best_move: Option<(f64, u32)> = None;
                for &(cand, j) in &trials {
                    if j > best + 1e-12 && best_move.is_none_or(|(bj, _)| j > bj) {
                        best_move = Some((j, cand));
                    }
                }
                if let Some((j, k)) = best_move {
                    ks[i] = k;
                    session.snapshot();
                    session.set_input_prob(i, f64::from(k) / f64::from(g))?;
                    best = j;
                    improved = true;
                }
            }
            // Global ±1 shifts: coordinate moves cannot follow the diagonal
            // ridge created by faults whose detection trades one input's
            // activation against every other input's propagation (e.g. a
            // wide AND: raising a single p_i hurts that input's sa1 fault,
            // while raising all of them helps every fault).
            for delta in [-1i64, 1] {
                loop {
                    let cand: Vec<u32> = ks
                        .iter()
                        .map(|&k| (k as i64 + delta).clamp(1, g as i64 - 1) as u32)
                        .collect();
                    if cand == ks {
                        break;
                    }
                    session.snapshot();
                    session.set_all(InputProbs::from_grid(&cand, g)?.as_slice())?;
                    evaluations += 1;
                    let j = self.objective_value(session, mask, &mut ps_buf)?;
                    if j > best + 1e-12 {
                        ks = cand;
                        best = j;
                        improved = true;
                    } else {
                        session.revert();
                        break;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        let probs = InputProbs::from_grid(&ks, g)?;
        let mut session_stats = session.stats().since(&climb_base);
        for (worker, _) in &workers {
            session_stats = session_stats.plus(&worker.stats().since(&worker_base));
        }
        Ok(OptimizationResult {
            probs,
            grid_ks: ks,
            objective_ln: best,
            initial_objective_ln: initial,
            rounds,
            evaluations,
            session_stats,
        })
    }

    /// The climbing objective at the session's current point:
    /// `−ln E[#undetected]` (see [`ln_expected_undetected`]), which is
    /// monotone-aligned with `J_N` but keeps a usable gradient after
    /// `ln J_N` saturates to 0 in `f64`. Detection probabilities are
    /// floored at 1e−12 so estimated-undetectable faults stay comparable
    /// instead of poisoning the sum.
    fn objective_value(
        &self,
        session: &mut AnalysisSession,
        mask: Option<&[bool]>,
        ps_buf: &mut Vec<f64>,
    ) -> Result<f64, CoreError> {
        ps_buf.clear();
        ps_buf.extend(
            session
                .try_fault_detect_probs()?
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask.is_none_or(|m| m[i]))
                .map(|(_, &p)| p.max(1e-12)),
        );
        Ok(-ln_expected_undetected(ps_buf, self.params.n_target))
    }

    /// `ln J_N` at a grid point (the paper's reported objective; not used
    /// for climbing because of its `f64` saturation).
    pub fn ln_j(&self, probs: &InputProbs) -> Result<f64, CoreError> {
        let analysis = self.analyzer.run(probs)?;
        let ps: Vec<f64> = analysis
            .detection_probabilities()
            .into_iter()
            .map(|p| p.max(1e-12))
            .collect();
        Ok(ln_set_detection_probability(&ps, self.params.n_target))
    }
}

#[cfg(test)]
mod tests {
    use protest_netlist::CircuitBuilder;

    use crate::analyzer::Analyzer;
    use crate::testlen::required_test_length;

    use super::*;

    #[test]
    fn and_tree_pushes_probabilities_up() {
        let mut b = CircuitBuilder::new("deep");
        let xs = b.input_bus("x", 8);
        let t = b.and_tree(&xs);
        b.output(t, "z");
        let ckt = b.finish().unwrap();
        let analyzer = Analyzer::new(&ckt);
        let hc = HillClimber::new(&analyzer, OptimizeParams::default());
        let res = hc.optimize().unwrap();
        assert!(res.objective_ln >= res.initial_objective_ln);
        // sa0 at the root needs all-ones patterns: optimal probabilities are
        // clearly above 1/2 (they trade off against sa1 activations).
        let mean: f64 = res.probs.as_slice().iter().sum::<f64>() / res.probs.len() as f64;
        assert!(mean > 0.6, "mean optimized probability {mean}");
    }

    #[test]
    fn nor_tree_pushes_probabilities_down() {
        let mut b = CircuitBuilder::new("nor");
        let xs = b.input_bus("x", 8);
        let t = b.or_tree(&xs); // root sa1 needs all-zero inputs
        b.output(t, "z");
        let ckt = b.finish().unwrap();
        let analyzer = Analyzer::new(&ckt);
        let hc = HillClimber::new(&analyzer, OptimizeParams::default());
        let res = hc.optimize().unwrap();
        let mean: f64 = res.probs.as_slice().iter().sum::<f64>() / res.probs.len() as f64;
        assert!(mean < 0.4, "mean optimized probability {mean}");
    }

    #[test]
    fn optimization_reduces_required_test_length() {
        // The headline claim of the paper (Table 3 → Table 5): optimized
        // weights shrink N by orders of magnitude on skewed circuits.
        let mut b = CircuitBuilder::new("skewed");
        let xs = b.input_bus("x", 12);
        let t = b.and_tree(&xs);
        b.output(t, "z");
        let ckt = b.finish().unwrap();
        let analyzer = Analyzer::new(&ckt);
        let uniform = analyzer.run(&InputProbs::uniform(12)).unwrap();
        let n_uniform = required_test_length(
            &uniform
                .detection_probabilities()
                .iter()
                .map(|p| p.max(1e-12))
                .collect::<Vec<_>>(),
            0.95,
        )
        .unwrap()
        .patterns;
        let res = HillClimber::new(&analyzer, OptimizeParams::default())
            .optimize()
            .unwrap();
        let optimized = analyzer.run(&res.probs).unwrap();
        let n_opt = required_test_length(
            &optimized
                .detection_probabilities()
                .iter()
                .map(|p| p.max(1e-12))
                .collect::<Vec<_>>(),
            0.95,
        )
        .unwrap()
        .patterns;
        assert!(
            n_opt * 4 < n_uniform,
            "optimization must reduce N substantially: {n_uniform} → {n_opt}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut b = CircuitBuilder::new("d");
        let xs = b.input_bus("x", 4);
        let t = b.and_tree(&xs);
        b.output(t, "z");
        let ckt = b.finish().unwrap();
        let analyzer = Analyzer::new(&ckt);
        let p = OptimizeParams {
            seed: 42,
            ..OptimizeParams::default()
        };
        let a = HillClimber::new(&analyzer, p).optimize().unwrap();
        let b2 = HillClimber::new(&analyzer, p).optimize().unwrap();
        assert_eq!(a.grid_ks, b2.grid_ks);
    }

    #[test]
    fn multi_distribution_covers_conflicting_fault_classes() {
        // z1 = AND(x0..x7) wants all-ones patterns; z2 = NOR(x0..x7) wants
        // all-zeros. No single product distribution detects both hard
        // faults (z1 sa0 and z2 sa0) within a small budget, but two
        // distributions do.
        let mut b = CircuitBuilder::new("conflict");
        let xs = b.input_bus("x", 8);
        let z1 = b.and(&xs);
        let z2 = b.nor(&xs);
        b.output(z1, "z1");
        b.output(z2, "z2");
        let ckt = b.finish().unwrap();
        let analyzer = Analyzer::new(&ckt);
        let params = OptimizeParams {
            n_target: 200,
            ..OptimizeParams::default()
        };
        let hc = HillClimber::new(&analyzer, params);
        // Single distribution: at least one hard fault stays uncovered at
        // the 200-pattern budget.
        let single = hc.optimize_multi(1, 200, 0.95).unwrap();
        assert!(
            single.uncovered() > 0,
            "single distribution should not suffice"
        );
        // A few distributions cover everything.
        let multi = hc.optimize_multi(4, 200, 0.95).unwrap();
        assert_eq!(
            multi.uncovered(),
            0,
            "multiple distributions must cover all"
        );
        assert!(multi.distributions.len() >= 2);
        // The rounds must pull the inputs in opposite directions.
        let mean =
            |r: &OptimizationResult| r.probs.as_slice().iter().sum::<f64>() / r.probs.len() as f64;
        let means: Vec<f64> = multi.distributions.iter().map(mean).collect();
        let hi = means.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let lo = means.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            hi - lo > 0.4,
            "distributions should polarize: means {means:?}"
        );
    }

    #[test]
    fn multi_distribution_single_round_on_easy_circuit() {
        // A parity tree is fully covered by the first (uniform-ish)
        // distribution; optimize_multi must stop after one round.
        let mut b = CircuitBuilder::new("easy");
        let xs = b.input_bus("x", 6);
        let t = b.xor_tree(&xs);
        b.output(t, "z");
        let ckt = b.finish().unwrap();
        let analyzer = Analyzer::new(&ckt);
        let hc = HillClimber::new(&analyzer, OptimizeParams::default());
        let multi = hc.optimize_multi(4, 500, 0.95).unwrap();
        assert_eq!(multi.distributions.len(), 1);
        assert_eq!(multi.uncovered(), 0);
        assert!(multi.covered_by.iter().all(|&c| c == Some(0)));
    }

    #[test]
    fn results_stay_on_grid() {
        let mut b = CircuitBuilder::new("g");
        let xs = b.input_bus("x", 3);
        let t = b.or_tree(&xs);
        b.output(t, "z");
        let ckt = b.finish().unwrap();
        let analyzer = Analyzer::new(&ckt);
        let res = HillClimber::new(&analyzer, OptimizeParams::default())
            .optimize()
            .unwrap();
        for (&k, &p) in res.grid_ks.iter().zip(res.probs.as_slice()) {
            assert!((1..16).contains(&k));
            assert!((p - k as f64 / 16.0).abs() < 1e-12);
        }
    }
}
