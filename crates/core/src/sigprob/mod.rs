//! Signal probability computation: the PROTEST estimator and the reference
//! methods it is validated against.
//!
//! * [`SignalProbEstimator`] — the paper's near-linear estimator (Sec. 2):
//!   joining-point conditioning bounded by `MAXVERS`/`MAXLIST`, with
//!   covariance-driven selection of the conditioning set.
//! * [`exhaustive_signal_probs`] — exact, by weighted enumeration of all
//!   input minterms (≤ 24 inputs).
//! * [`bdd_signal_probs`] — exact, linear in BDD size (node-budgeted).
//! * [`monte_carlo_signal_probs`] — sampled estimate (STAFAN-style
//!   extrapolation from logic simulation, the comparison tool \[AgJa84\]).
//! * [`bounds`] — the Savir–Ditlow–Bardell cutting-algorithm interval
//!   bounds \[BDS84\], the other contemporary alternative the paper cites.

mod bounds_impl;
mod estimate;
mod exact;
mod monte_carlo;

pub use bounds_impl::{signal_prob_bounds, ProbBounds};
pub(crate) use estimate::Scratch2 as EvalScratch;
pub(crate) use estimate::{lane_lit, lit_prob as lit_prob_of};
pub use estimate::{LaneSweep, Ranks, SignalProbEstimator, SweepShape};
pub(crate) use estimate::{CANCEL_CHECK_NODES, MIN_PAR_COND, MIN_PAR_WIDE};
pub use exact::{bdd_signal_probs, exhaustive_signal_probs, EXHAUSTIVE_INPUT_LIMIT};
pub use monte_carlo::monte_carlo_signal_probs;

/// Interval-bound computation (cutting algorithm).
pub mod bounds {
    pub use super::bounds_impl::{signal_prob_bounds, ProbBounds};
}
