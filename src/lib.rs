//! # si-synth — speed-independent circuit synthesis from STG-unfolding
//! segments
//!
//! A full reproduction of *"Synthesis of Speed-Independent Circuits from
//! STG-unfolding Segment"* (Semenov, Yakovlev, Pastor, Peña, Cortadella,
//! DAC 1997) as a Rust workspace. This facade crate re-exports the public
//! APIs of the member crates:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`bdd`] | Reduced ordered BDD engine: ITE, quantification, relational product |
//! | [`petri`] | 1-safe Petri net kernel, markings, explicit & symbolic reachability |
//! | [`stg`] | Signal Transition Graphs, `.g` parser/writer, generators, benchmark suite |
//! | [`cubes`] | Ternary cube/cover algebra, Espresso-style minimiser |
//! | [`stategraph`] | State graphs (explicit & symbolic engines), CSC/persistency checks, SG-based baseline synthesis |
//! | [`unfolding`] | STG-unfolding segments: occurrence nets, cutoffs, cuts, concurrency |
//! | [`synthesis`] | The paper's contribution: slices, exact & approximate covers, refinement, architectures |
//!
//! ## Quickstart
//!
//! ```
//! use si_synth::stg::suite::paper_fig1;
//! use si_synth::synthesis::{synthesize_from_unfolding, SynthesisOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = paper_fig1();
//! let netlist = synthesize_from_unfolding(&spec, &SynthesisOptions::default())?;
//! for gate in &netlist.gates {
//!     println!("{}", gate.equation(&spec)); // b = a + c
//! }
//! # Ok(())
//! # }
//! ```
//!
//! The repository README lists the workspace layout and each flow's
//! measured performance; the `si-bench` binaries `table1` and `fig6`
//! regenerate the paper's Table 1 and Figure 6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use si_bdd as bdd;
pub use si_cubes as cubes;
pub use si_petri as petri;
pub use si_stategraph as stategraph;
pub use si_stg as stg;
pub use si_synthesis as synthesis;
pub use si_unfolding as unfolding;
