//! # si-cubes — ternary cube and cover algebra
//!
//! The Boolean layer of the synthesis flow: product terms ([`Cube`]) over a
//! fixed signal vector, sums of products ([`Cover`]), the containment /
//! intersection / tautology algebra the paper's cover-correctness checks
//! need, and an Espresso-style two-level minimiser ([`minimize`]) used as
//! the final optimisation stage (the paper's "EspTim" column).
//!
//! ## Example
//!
//! ```
//! use si_cubes::{minimize, Cover, Cube};
//!
//! // On(b) and Off(b) of the paper's Figure 1 example.
//! let on: Cover = ["100", "101", "110", "111", "001", "011"]
//!     .into_iter()
//!     .map(Cube::from_str_cube)
//!     .collect();
//! let off: Cover = ["010", "000"].into_iter().map(Cube::from_str_cube).collect();
//! let min = minimize(&on, &off);
//! assert_eq!(min.to_expression_string(&["a", "b", "c"]), "a + c");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cover;
mod cube;
mod espresso;
pub mod fx;
pub mod implicit;
pub mod par;
mod qm;

pub use cover::Cover;
pub use cube::{Cube, Literal};
pub use espresso::minimize;
pub use implicit::{minimize_exact_implicit, minimize_implicit, ImplicitCover, ImplicitPool};
pub use qm::{minimize_exact, QmBudget};

/// The individual minimiser phases, exposed for the equivalence test suite
/// that pins them against reference implementations. Not a stable API.
#[doc(hidden)]
pub mod internals {
    pub use crate::espresso::{canonical_order, expand, irredundant, reduce};
}
