//! # si-petri — 1-safe Petri net kernel
//!
//! The bottom-most substrate of the `si-synth` workspace: marked place/
//! transition nets `N = ⟨P, T, F, m₀⟩` with unit arc weights, the firing
//! rule, explicit and symbolic (BDD-based) reachability exploration, the
//! [`BitSet`] utility shared by the state-graph and unfolding crates, and the
//! [`RowIndex`] of packed state rows that every explicit walk deduplicates
//! its states with.
//!
//! Signal Transition Graphs (crate `si-stg`) are labelled 1-safe nets; the
//! STG-unfolding segment (crate `si-unfolding`) is a partial-order run of
//! such a net. Everything here assumes and enforces 1-safeness: a firing that
//! would place a second token on a place is reported as [`NetError::Unsafe`].
//!
//! ## Example
//!
//! ```
//! use si_petri::{PetriNet, ReachabilityGraph};
//!
//! # fn main() -> Result<(), si_petri::NetError> {
//! // A two-phase handshake: req alternates with ack.
//! let mut net = PetriNet::new();
//! let idle = net.add_place("idle");
//! let busy = net.add_place("busy");
//! let req = net.add_transition("req");
//! let ack = net.add_transition("ack");
//! net.add_arc_pt(idle, req);
//! net.add_arc_tp(req, busy);
//! net.add_arc_pt(busy, ack);
//! net.add_arc_tp(ack, idle);
//! net.mark_initially(idle);
//!
//! let graph = ReachabilityGraph::explore(&net, 1_000)?;
//! assert_eq!(graph.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod dot;
mod error;
mod marking;
mod net;
mod reach;
mod rows;
pub mod structural;
mod symbolic;

pub use bitset::{BitSet, Iter as BitSetIter};
pub use dot::to_dot;
pub use error::NetError;
pub use marking::Marking;
pub use net::{PetriNet, PlaceId, TransitionId};
pub use reach::ReachabilityGraph;
pub use rows::RowIndex;
pub use symbolic::{AuxAction, SymbolicOptions, SymbolicReach, SymbolicStats};
