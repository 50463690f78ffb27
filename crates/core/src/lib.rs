//! The PROTEST algorithms: probabilistic testability analysis for
//! combinational circuits.
//!
//! This crate implements the primary contribution of Wunderlich's DAC'85
//! paper:
//!
//! 1. **Signal probability estimation** (paper Sec. 2) — the joining-point
//!    conditioning estimator with the `MAXVERS`/`MAXLIST` parameters and the
//!    covariance-driven selection of conditioning nodes, implemented over an
//!    AND/inverter view of the circuit ([`sigprob`]).
//! 2. **Fault detection probability** (Sec. 3) — the signal-flow
//!    observability model with the `⊕(t,y) = t + y − 2ty` branch combiner,
//!    the multi-output OR alternative, and the exact good/faulty-miter
//!    reference ([`observe`], [`detect`]).
//! 3. **Test length computation** (Sec. 5, formula (3)) — minimal `N` with
//!    `P_F(N) = Π_f (1 − (1 − p_f)^N) ≥ e`, in log space ([`testlen`]).
//! 4. **Input probability optimization** (Sec. 6) — hill climbing over the
//!    k/16 grid maximizing `J_N(X)` ([`optimize`]).
//!
//! The [`Analyzer`] facade wires these together; [`report`] renders
//! human-readable testability reports.
//!
//! # One-shot vs incremental analysis
//!
//! [`Analyzer::run`] is the one-shot entry point: it evaluates one input
//! probability vector and returns an owned [`CircuitAnalysis`]. Workloads
//! that re-evaluate the same circuit many times while changing few inputs
//! per step — the Sec. 6 hill climber above all — should open an
//! [`AnalysisSession`] via [`Analyzer::session`] instead: mutations
//! (`set_input_prob`, `set_all`) re-propagate only the affected fan-out
//! cone, queries are lazy and cached until the next change (then one full
//! pass each), and `snapshot`/`revert` undo rejected trial moves in
//! O(dirty cone). Results are bit-identical to from-scratch runs.
//!
//! # Parallelism
//!
//! Every embarrassingly-parallel hot loop — the estimator's fanin-depth
//! ranks, the observability wavefronts, the per-fault detection loop, the
//! TPI ranking, the prover's BDD tier and the partition batches — is one
//! fan-out of independent items, one contiguous chunk per thread of a pool
//! sized by [`AnalyzerParams::num_threads`] (0 = the `PROTEST_THREADS`
//! environment variable, else the machine's available parallelism). One
//! thread, or a batch too narrow for the pool, is one chunk on the calling
//! thread through the same loop. Items never read each other's results
//! and results land in item order, so **results are bit-identical at
//! every thread count** (proven by the differential proptests in
//! `tests/parallel_differential.rs`).
//!
//! # Cancellation
//!
//! Long-running analyses can be cancelled cooperatively: arm a session
//! with a [`CancelToken`] ([`Analyzer::session_with_cancel`] or
//! [`AnalysisSession::set_cancel`]) and every hot loop polls it inside
//! each rank, wavefront and chunk, failing fast with
//! [`CoreError::Cancelled`] from the `try_*` query variants. A query
//! cancelled mid-pass leaves its cache stale, so a disarmed retry simply
//! recomputes it. Only a mutation cancelled mid-propagation leaves the
//! session inconsistent — it is then *poisoned*
//! ([`AnalysisSession::is_poisoned`]) and must be discarded, which
//! [`SessionPool`] does automatically. Disarmed tokens (the default) cost
//! one branch per check and never change results.
//!
//! # Example
//!
//! ```
//! use protest_core::{Analyzer, InputProbs};
//! use protest_netlist::CircuitBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = CircuitBuilder::new("demo");
//! let a = b.input("a");
//! let c = b.input("c");
//! let z = b.and2(a, c);
//! b.output(z, "z");
//! let ckt = b.finish()?;
//!
//! let analyzer = Analyzer::new(&ckt);
//! let analysis = analyzer.run(&InputProbs::uniform(2))?;
//! assert!((analysis.signal_probability(z) - 0.25).abs() < 1e-9);
//! // Detection probabilities for all collapsed faults are available:
//! assert!(!analysis.fault_estimates().is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aig;
mod analyzer;
mod cancel;
mod error;
mod exec;
mod params;
mod session;

pub mod detect;
pub mod failpoints;
pub mod observe;
pub mod optimize;
pub mod partition;
pub mod pool;
pub mod report;
pub mod scoap;
pub mod sigprob;
pub mod stafan;
pub mod staticanalysis;
pub mod stats;
pub mod testlen;
pub mod tpi;

pub use aig::{Aig, AigLit, AigNodeId};
pub use analyzer::{Analyzer, CircuitAnalysis, FaultEstimate};
pub use cancel::CancelToken;
pub use error::CoreError;
pub use params::{
    AnalyzerParams, FaultCollapse, InputProbs, ObservabilityModel, PinSensitivityModel,
};
pub use pool::{PoolStats, PooledSession, SessionPool};
pub use session::{AnalysisSession, SessionStats};
pub use staticanalysis::{check, CheckParams, StaticReport};
pub use testlen::TestLength;
