//! Logic and stuck-at fault simulation for combinational circuits.
//!
//! This crate is the validation substrate of the PROTEST workspace. The
//! paper validates every estimate by "static fault simulation with random
//! patterns": the per-fault detection frequency `P_SIM` is the ground truth
//! against which `P_PROT` is correlated (Table 1, Figs. 5/6), and fault
//! coverage curves (Table 6) come straight from a fault simulator.
//!
//! Contents:
//!
//! * [`LogicSim`] — levelized, 64-way bit-parallel logic simulation.
//! * [`Fault`], [`FaultUniverse`], [`collapse`] — the single stuck-at fault
//!   model on gate pins and classic structural equivalence collapsing.
//! * [`FaultSim`] — a PPSFP (parallel-pattern single-fault propagation)
//!   fault simulator with event-driven cone propagation. Two modes:
//!   detection counting (no fault dropping; yields `P_SIM`) and first-detect
//!   (fault dropping; yields coverage curves).
//! * [`serial`] — a deliberately naive reference simulator used to
//!   cross-check PPSFP in tests.
//! * [`DeductiveSim`] — deductive fault simulation (Armstrong): one pass
//!   per pattern deduces every fault's detection via fault-list algebra.
//! * [`PatternSource`] and friends — uniform, weighted, and exhaustive
//!   pattern generation. (LFSR/NLFSR hardware sources live in `protest-tpg`
//!   and implement the same trait.)
//! * [`CoverageCurve`] — fault coverage as a function of pattern count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coverage;
mod deductive;
mod fault;
mod fault_sim;
mod logic;
mod pattern_io;
mod patterns;
pub mod serial;

pub mod collapse {
    //! Structural fault collapsing.
    pub use crate::fault::{collapse_universe, dominance_collapse, CollapsedUniverse};
}

pub use coverage::{coverage_run, weighted_coverage, CoverageCheckpoint, CoverageCurve};
pub use deductive::DeductiveSim;
pub use fault::{
    collapse_universe, dominance_collapse, CollapsedUniverse, Fault, FaultSite, FaultUniverse,
    StuckAt,
};
pub use fault_sim::{DetectionCounts, FaultSim};
pub use logic::LogicSim;
pub use pattern_io::{PatternIoError, PatternSet, ReplaySource};
pub use patterns::{
    ExhaustivePatterns, PatternBlock, PatternSource, UniformRandomPatterns, WeightedRandomPatterns,
};
