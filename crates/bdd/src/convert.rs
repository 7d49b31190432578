//! Conversions between [`Bdd`] functions and
//! [`si_cubes::implicit::ImplicitCover`] point sets.
//!
//! The two representations are both canonical DAGs over Boolean point sets,
//! but they live in different pools with (possibly) different variable
//! orders, so conversion goes through semantics rather than structure
//! sharing: implicit → BDD enumerates the canonical disjoint-cube cover and
//! rebuilds it as a disjunction of cubes; BDD → implicit walks a batch of
//! diagrams once with a per-node memo, recombining children through the
//! implicit pool's cached set algebra.

use std::collections::HashMap;
use std::fmt;

use si_cubes::implicit::{ImplicitCover, ImplicitPool};
use si_cubes::{Cube, Literal};

use crate::manager::{Bdd, BddManager};

/// Error from a BDD → implicit conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvertError {
    /// The function's support contains a manager variable the variable map
    /// leaves unmapped (`var_map[var]` is `None`), so its points have no
    /// home in the implicit pool.
    UnmappedVariable {
        /// The unmapped manager variable index.
        var: usize,
    },
}

impl fmt::Display for ConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvertError::UnmappedVariable { var } => {
                write!(f, "function depends on unmapped variable {var}")
            }
        }
    }
}

impl std::error::Error for ConvertError {}

impl BddManager {
    /// Builds the BDD of an implicit point set by enumerating its canonical
    /// disjoint-cube cover. `var_map[implicit_var]` names the manager
    /// variable carrying that implicit variable.
    ///
    /// # Panics
    ///
    /// Panics if `var_map.len() != pool.width()` or any mapped variable is
    /// out of range.
    pub fn from_implicit(
        &mut self,
        pool: &ImplicitPool,
        set: ImplicitCover,
        var_map: &[usize],
    ) -> Bdd {
        assert_eq!(var_map.len(), pool.width(), "variable map width mismatch");
        let cover = pool.to_cover(set);
        let mut acc = self.zero();
        let mut literals: Vec<(usize, bool)> = Vec::new();
        for cube in cover.cubes() {
            literals.clear();
            for (v, &mapped) in var_map.iter().enumerate() {
                match cube.get(v) {
                    Literal::DontCare => {}
                    Literal::Zero => literals.push((mapped, false)),
                    Literal::One => literals.push((mapped, true)),
                }
            }
            let c = self.cube(&literals);
            acc = self.or(acc, c);
        }
        acc
    }

    /// Converts a batch of BDDs into implicit point sets over `pool`, one
    /// set per function of `fs`, in order. `var_map[manager_var]` names the
    /// implicit variable carrying that manager variable (`None` for
    /// variables the functions must not depend on — e.g. quantified-out
    /// state bits).
    ///
    /// One node memo serves the whole batch, so functions that share
    /// diagram structure (e.g. every signal's on/off pair over one
    /// reachable set) translate each shared subgraph once. The memo lives
    /// only for the call.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::UnmappedVariable`] if a function depends on
    /// a variable mapped to `None`.
    ///
    /// # Panics
    ///
    /// Panics if `var_map.len() != num_vars` or a mapped index is
    /// `>= pool.width()`.
    pub fn to_implicit(
        &self,
        fs: &[Bdd],
        pool: &mut ImplicitPool,
        var_map: &[Option<usize>],
    ) -> Result<Vec<ImplicitCover>, ConvertError> {
        assert_eq!(
            var_map.len(),
            self.num_vars(),
            "variable map width mismatch"
        );
        let mut memo = HashMap::new();
        fs.iter()
            .map(|f| self.to_implicit_rec(f.0, pool, var_map, &mut memo))
            .collect()
    }

    fn to_implicit_rec(
        &self,
        n: u32,
        pool: &mut ImplicitPool,
        var_map: &[Option<usize>],
        memo: &mut HashMap<u32, ImplicitCover>,
    ) -> Result<ImplicitCover, ConvertError> {
        if Bdd(n).is_false() {
            return Ok(pool.empty());
        }
        if Bdd(n).is_true() {
            return Ok(pool.full());
        }
        if let Some(&r) = memo.get(&n) {
            return Ok(r);
        }
        let (level, lo, hi) = self.node(n);
        let var = self.var_at(level as usize);
        let iv = var_map[var].ok_or(ConvertError::UnmappedVariable { var })?;
        let l = self.to_implicit_rec(lo, pool, var_map, memo)?;
        let h = self.to_implicit_rec(hi, pool, var_map, memo)?;
        let mut cube0 = Cube::full(pool.width());
        cube0.set(iv, Literal::Zero);
        let mut cube1 = Cube::full(pool.width());
        cube1.set(iv, Literal::One);
        let c0 = pool.cube_set(&cube0);
        let c1 = pool.cube_set(&cube1);
        let left = pool.intersect(c0, l);
        let right = pool.intersect(c1, h);
        let r = pool.union(left, right);
        memo.insert(n, r);
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_cubes::Cover;

    fn cover(cubes: &[&str]) -> Cover {
        cubes.iter().map(|s| Cube::from_str_cube(s)).collect()
    }

    /// All assignments over `width` variables.
    fn assignments(width: usize) -> impl Iterator<Item = Vec<bool>> {
        (0..(1u32 << width)).map(move |x| (0..width).map(|i| (x >> i) & 1 == 1).collect())
    }

    #[test]
    fn implicit_roundtrip_identity_map() {
        let mut pool = ImplicitPool::new(4);
        let c = cover(&["1--0", "01--", "--11"]);
        let set = pool.cover_set(&c);
        let mut mgr = BddManager::new(4);
        let map: Vec<usize> = (0..4).collect();
        let f = mgr.from_implicit(&pool, set, &map);
        for bits in assignments(4) {
            assert_eq!(mgr.eval(f, &bits), c.covers_bits(&bits), "{bits:?}");
        }
        let back_map: Vec<Option<usize>> = (0..4).map(Some).collect();
        let back = mgr
            .to_implicit(&[f], &mut pool, &back_map)
            .expect("support is mapped");
        assert_eq!(back, [set], "roundtrip lands on the same canonical set");
    }

    #[test]
    fn implicit_roundtrip_permuted_map() {
        // Implicit variable i lives on manager variable map[i], and the
        // manager itself uses a scrambled level order.
        let mut pool = ImplicitPool::new(3);
        let c = cover(&["10-", "-01"]);
        let set = pool.cover_set(&c);
        let mut mgr = BddManager::with_order(vec![4, 0, 2, 1, 3]);
        let map = [3usize, 0, 4];
        let f = mgr.from_implicit(&pool, set, &map);
        let mut back_map = vec![None; 5];
        for (iv, &mv) in map.iter().enumerate() {
            back_map[mv] = Some(iv);
        }
        let back = mgr
            .to_implicit(&[f], &mut pool, &back_map)
            .expect("support is mapped");
        assert_eq!(back, [set]);
        // Pointwise: manager assignment bits pull from implicit vars.
        for bits in assignments(3) {
            let mut mbits = vec![false; 5];
            for (iv, &mv) in map.iter().enumerate() {
                mbits[mv] = bits[iv];
            }
            assert_eq!(mgr.eval(f, &mbits), c.covers_bits(&bits), "{bits:?}");
        }
    }

    #[test]
    fn empty_and_full_sets_convert() {
        let mut pool = ImplicitPool::new(2);
        let mut mgr = BddManager::new(2);
        let map: Vec<usize> = (0..2).collect();
        let back_map: Vec<Option<usize>> = (0..2).map(Some).collect();
        let empty = pool.empty();
        let full = pool.full();
        assert!(mgr.from_implicit(&pool, empty, &map).is_false());
        assert!(mgr.from_implicit(&pool, full, &map).is_true());
        let constants = [mgr.zero(), mgr.one()];
        assert_eq!(
            mgr.to_implicit(&constants, &mut pool, &back_map)
                .expect("constants have empty support"),
            [empty, full]
        );
        assert!(mgr
            .to_implicit(&[], &mut pool, &back_map)
            .expect("an empty batch converts")
            .is_empty());
    }

    #[test]
    fn unmapped_support_variable_is_a_typed_error() {
        let mut mgr = BddManager::new(2);
        let f = mgr.var(1);
        let mut pool = ImplicitPool::new(1);
        let err = mgr
            .to_implicit(&[f], &mut pool, &[Some(0), None])
            .expect_err("support variable 1 is unmapped");
        assert_eq!(err, ConvertError::UnmappedVariable { var: 1 });
        assert_eq!(err.to_string(), "function depends on unmapped variable 1");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "garbage-collected")]
    fn converting_a_stale_handle_panics() {
        let mut mgr = BddManager::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let stale = mgr.and(a, b);
        mgr.protect(a); // keep the slot from being reused
        mgr.gc();
        let mut pool = ImplicitPool::new(3);
        let map: Vec<Option<usize>> = (0..3).map(Some).collect();
        let _ = mgr.to_implicit(&[stale], &mut pool, &map);
    }

    #[test]
    fn conversions_are_reorder_safe() {
        // `to_implicit`/`from_implicit` must query the *current* layout:
        // after sifting, the same point set comes back.
        let mut pool = ImplicitPool::new(4);
        let c = cover(&["1--0", "01--", "--11"]);
        let set = pool.cover_set(&c);
        let mut mgr = BddManager::with_order(vec![3, 1, 0, 2]);
        let map: Vec<usize> = (0..4).collect();
        let f = mgr.from_implicit(&pool, set, &map);
        mgr.protect(f);
        mgr.swap_levels(1);
        mgr.reorder_sift(BddManager::DEFAULT_MAX_GROWTH);
        let back_map: Vec<Option<usize>> = (0..4).map(Some).collect();
        assert_eq!(
            mgr.to_implicit(&[f], &mut pool, &back_map)
                .expect("support is mapped"),
            [set]
        );
        assert_eq!(mgr.from_implicit(&pool, set, &map), f);
        mgr.unprotect(f);
    }
}
