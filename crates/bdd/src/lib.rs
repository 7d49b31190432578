//! # si-bdd — reduced ordered binary decision diagrams
//!
//! The symbolic substrate for BDD-based state traversal: a classic ROBDD
//! engine with a hash-consed unique table (the same canonicity discipline as
//! `si_cubes::implicit`), a memoised complement-edge-free [`ite`] kernel,
//! existential quantification ([`exists`]) and the relational product
//! ([`and_exists`]) that image computation is built from, a variable-order
//! heuristic seeded from adjacency ([`order_from_adjacency`]), and lossless
//! conversion both ways between [`Bdd`] functions and
//! [`si_cubes::implicit::ImplicitCover`] point sets, plus a BDD-native
//! Minato–Morreale irredundant-SOP extraction
//! ([`isop`](BddManager::isop) / [`isop_implicit`](BddManager::isop_implicit))
//! that reads covers straight off the diagram.
//!
//! The pool is kept alive under memory pressure by two mechanisms built for
//! long symbolic fixpoints: refcounted root protection with mark-and-sweep
//! garbage collection ([`protect`] / [`gc`]), and Rudell-style dynamic
//! variable reordering ([`reorder_sift`], [`swap_levels`]) with a
//! growth-triggered [`AutoReorder`] policy for workloads whose static order
//! is bad. Reordering rewrites nodes in place — ids and the functions they
//! denote survive, so caller-held handles stay valid across any sift.
//!
//! Functions are identified by node handles inside a [`BddManager`]; two
//! handles from the same manager are equal iff the functions are equal, so
//! equality, emptiness and fixpoint-convergence tests are O(1).
//!
//! The node substrate is concurrent (safe Rust only): the unique table and
//! operation caches are sharded behind fine-grained locks, and
//! [`set_threads`](BddManager::set_threads) turns the `ite`/`exists`/
//! `and_exists` kernels into work-stealing parallel operations over the
//! shared tables. Long-running operations can also run *reentrant*
//! maintenance ([`set_maintenance`](BddManager::set_maintenance)): kernels
//! poll a live-node checkpoint and unwind for a GC/reorder pass mid-call
//! instead of only between driver iterations. Node ids become
//! schedule-dependent under threads, but canonicity within a run — and
//! every extracted artifact — does not.
//!
//! ## Example
//!
//! ```
//! use si_bdd::BddManager;
//!
//! let mut mgr = BddManager::new(3);
//! let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
//! let f = mgr.and(a, b);
//! let g = mgr.or(f, c); // a·b + c
//! // ∃b. (a·b + c) = a + c
//! let q = mgr.cube_vars(&[1]);
//! let h = mgr.exists(g, q);
//! let expect = mgr.or(a, c);
//! assert_eq!(h, expect);
//! ```
//!
//! [`ite`]: BddManager::ite
//! [`exists`]: BddManager::exists
//! [`and_exists`]: BddManager::and_exists
//! [`protect`]: BddManager::protect
//! [`gc`]: BddManager::gc
//! [`reorder_sift`]: BddManager::reorder_sift
//! [`swap_levels`]: BddManager::swap_levels

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convert;
mod core;
mod isop;
mod manager;
mod order;
mod par;
mod sift;

pub use convert::{ConvertError, TranslationCache};
pub use manager::{Bdd, BddManager, MaintenanceStats, OpCounts, ReentrantConfig};
pub use order::order_from_adjacency;
pub use sift::{AutoReorder, ReorderPolicy};
