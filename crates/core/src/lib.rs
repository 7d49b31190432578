//! # si-synthesis — speed-independent circuit synthesis from STG-unfolding
//! segments
//!
//! The primary contribution of the reproduced paper (Semenov, Yakovlev,
//! Pastor, Peña, Cortadella, DAC 1997): derive the per-signal logic of a
//! speed-independent circuit directly from the finite STG-unfolding segment,
//! avoiding the construction of the exponentially larger state graph.
//!
//! Two modes are provided, as in the paper:
//!
//! * **exact** ([`CoverMode::Exact`]) — enumerate the cuts of the segment
//!   and recover their binary codes (§4.1). The on-/off-set
//!   [slices](slice::Slice) of all signals together cover every reachable
//!   state, so one walk over the segment classifies them all
//!   ([`exact::classify_reachable`]);
//! * **approximate** ([`CoverMode::Approximate`], the default) — build cheap
//!   ER/MR cover approximations from the concurrency relation (§4.2) and
//!   refine them until the on- and off-set covers stop intersecting (§4.3),
//!   escalating to per-slice exact enumeration when cube-level refinement
//!   stalls.
//!
//! The flagship architecture is the atomic complex gate per signal
//! ([`synthesize_from_unfolding`]); the Set/Reset excitation-function
//! architectures with a Muller C-element or RS latch are provided in
//! [`arch`]. Implementations can be independently checked against the
//! explicit state-graph oracle with [`verify_against_sg`].
//!
//! ## Example
//!
//! ```
//! use si_stg::suite::paper_fig1;
//! use si_synthesis::{synthesize_from_unfolding, verify_against_sg, SynthesisOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let stg = paper_fig1();
//! let netlist = synthesize_from_unfolding(&stg, &SynthesisOptions::default())?;
//! assert_eq!(netlist.gates[0].equation(&stg), "b = a + c");
//! verify_against_sg(&stg, &netlist, 10_000)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod arch;
pub mod covers;
mod error;
pub mod exact;
mod flow;
mod netlist;
pub mod refine;
pub mod slice;
mod synth;
mod verify;

pub use arch::{synthesize_excitation_functions, ExcitationImplementation, MemoryElement};
pub use error::SynthesisError;
pub use flow::{
    choose_flow, engine_for, FlowChoice, FlowDecision, FlowEngine, FlowError, FlowRefusal,
    FlowSynthesis, SgFlow, UnfoldingFlow,
};
pub use netlist::{excitation_to_verilog, to_eqn, to_verilog};
pub use synth::{
    synthesize_from_unfolding, CorrectnessCondition, CoverMode, SignalGate, SynthesisOptions,
    TimingBreakdown, UnfoldingSynthesis,
};
pub use verify::{verify_against_sg, verify_against_sg_with, VerifyError};
