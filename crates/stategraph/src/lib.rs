//! # si-stategraph — explicit state graphs and the SG-based baseline
//!
//! The substrate every SG-based synthesis tool (SIS, Petrify, …) rests on:
//! the explicit [`StateGraph`] with consistent binary codes, the behavioural
//! correctness checks (consistency, semi-modularity / output persistency,
//! Complete State Coding), and the exact on/off-set synthesis flow
//! ([`synthesize_from_sg`]) used as the comparison baseline in the paper's
//! Table 1 and Figure 6.
//!
//! The explicit path deliberately suffers from state explosion — building
//! it is what makes the unfolding-based method (crate `si-synthesis`)
//! worthwhile. The [`SgEngine::Symbolic`] engine ([`SymbolicSg`]) instead
//! computes the reachable state set as a BDD fixpoint and derives the same
//! gate equations without enumerating a single state, pushing the SG
//! baseline far past the explicit state budget.
//!
//! ## Example
//!
//! ```
//! use si_stg::suite::paper_fig1;
//! use si_stategraph::{synthesize_from_sg, SgSynthesisOptions};
//!
//! # fn main() -> Result<(), si_stategraph::SgError> {
//! let stg = paper_fig1();
//! let netlist = synthesize_from_sg(&stg, &SgSynthesisOptions::default())?;
//! assert_eq!(netlist.gates[0].equation(&stg), "b = a + c");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod graph;
mod props;
mod symbolic;
mod synth;

pub use error::SgError;
pub use graph::StateGraph;
pub use props::{check_csc, check_persistency, check_usc, CscConflict, PersistencyViolation};
pub use si_bdd::ReorderPolicy;
pub use symbolic::{CoverExtraction, OrderSeed, SymbolicSg, SymbolicTuning};
pub use synth::{
    check_implementable, on_off_sets, require_csc, synthesize_from_built_sg,
    synthesize_from_classification, synthesize_from_on_off_sets, synthesize_from_sg,
    synthesize_from_symbolic_sg, GateImplementation, ImplicitOnOffSets, OnOffSets,
    SgClassification, SgEngine, SgSynthesis, SgSynthesisOptions,
};
