//! Combinational netlist kernel for the PROTEST testability-analysis suite.
//!
//! This crate provides the circuit representation every other crate in the
//! workspace builds on:
//!
//! * [`Circuit`] — an immutable gate-level DAG with named primary inputs and
//!   outputs, supporting the standard gate library ([`GateKind`]) plus
//!   arbitrary boolean functions as truth-table components ([`TruthTable`]).
//! * [`CircuitBuilder`] — an ergonomic, validated way to construct circuits.
//! * [`Levels`] — levelization (topological order + logic depth).
//! * [`Csr`] — the compressed-sparse-row table every per-node adjacency
//!   (fanins, fanouts, level rows, and the analysis crates' rank, pin and
//!   fault-class tables) is stored in, and [`IdRows`], its gap-coded form
//!   for the largest table of ascending ids (the estimator's cone ids).
//! * [`analyze`] — fanout maps, cone extraction and the *joining point* search
//!   `V(a,b)` from Wunderlich's DAC'85 paper (the set of fanout stems with one
//!   branch on a path to `a` and another on a path to `b`).
//! * Parsers/writers for the ISCAS-85 `.bench` format ([`parse_bench`]),
//!   combinational BLIF ([`parse_blif`], the lossless path for truth-table
//!   components), and a small structural description language, PDL
//!   ([`parse_pdl`]), standing in for the structure-description language the
//!   original PASCAL tool compiled.
//! * Test-point insertion ([`insert_test_point`]) — DFT netlist editing
//!   (pseudo-inputs/outputs, control/observe gates) that preserves existing
//!   node ids and names.
//! * A CMOS transistor cost model ([`transistor_count`]) used to report circuit sizes the way the
//!   paper's Tables 7 and 8 do.
//!
//! # Example
//!
//! ```
//! use protest_netlist::{CircuitBuilder, GateKind};
//!
//! # fn main() -> Result<(), protest_netlist::NetlistError> {
//! let mut b = CircuitBuilder::new("half_adder");
//! let a = b.input("a");
//! let c = b.input("b");
//! let sum = b.xor2(a, c);
//! let carry = b.and2(a, c);
//! b.output(sum, "sum");
//! b.output(carry, "carry");
//! let circuit = b.finish()?;
//! assert_eq!(circuit.num_inputs(), 2);
//! assert_eq!(circuit.num_outputs(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze_impl;
mod builder;
pub mod csr;
mod dominators;
mod error;
mod gate;
mod insert;
mod levelize;
mod netlist;
mod nodeset;
mod parse_bench;
mod parse_blif;
mod parse_pdl;
mod stats;
mod transistor;
mod write;

pub use builder::CircuitBuilder;
pub use csr::{Csr, IdRow, IdRows};
pub use error::NetlistError;
pub use gate::{GateKind, LutId, TruthTable};
pub use insert::{
    insert_test_point, insert_test_points, InsertedPoint, TestPointKind, TestPointSpec,
};
pub use levelize::Levels;
pub use netlist::{Circuit, Node, NodeId};
pub use nodeset::NodeSet;
pub use parse_bench::parse_bench;
pub use parse_blif::parse_blif;
pub use parse_pdl::parse_pdl;
pub use stats::{CircuitStats, GateCounts};
pub use transistor::{gate_equivalents, transistor_count, transistors_for_gate};
pub use write::{to_bench, to_blif, to_pdl};

/// Analysis passes over a [`Circuit`]: fanout maps, cones, joining points,
/// dominators.
pub mod analyze {
    pub use crate::analyze_impl::{cone_of_influence, fanin_cone, Fanouts, JoiningPoints};
    pub use crate::dominators::{DominatorChain, Dominators};
}
