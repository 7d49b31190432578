//! BDD-native irredundant sum-of-products extraction (Minato–Morreale).
//!
//! The classic three-way cofactor recursion `isop(L, U)` computes, for a
//! pair of bounds `L ⊆ U`, a cover `C` and its function `B` with
//! `L ⊆ B ⊆ U` such that `C` is an *irredundant* SOP: every cube is needed
//! (dropping any loses a point of `L`). Called with `L = U = f` it yields an
//! irredundant cover of exactly `f` — the minimiser front end — without ever
//! enumerating the canonical disjoint-cube decomposition the
//! [`to_implicit`](crate::BddManager::to_implicit) translation path walks.
//!
//! Covers are built as a shared DAG in a manager-resident arena: node
//! `{var, lo, hi, dc}` denotes the cube set `x̅·lo ∪ x·hi ∪ dc` (with `x`
//! the branch variable), mirroring the recursion's combine step, so the
//! extraction is polynomial in diagram size even when the cube count is not.
//! The `(L, U) → (cover, B)` memo lives on the manager next to the unique
//! table: garbage collection purges entries whose operand or result ids
//! died, and reordering clears the tables outright — the recursion itself is
//! order-sensitive (bounds are split at the current top level), so memoised
//! covers from an old order would silently lose irredundancy under a new
//! one.
//!
//! Extraction runs under `&mut self` with the interruption trip disarmed: no
//! GC or reorder can run mid-extraction, so intermediate
//! `B` roots need no protection — they stay valid until the caller's next
//! maintenance point, which is exactly when the memo entries naming them are
//! purged.

use std::collections::HashMap;

use si_cubes::implicit::{ImplicitCover, ImplicitPool};
use si_cubes::{Cover, Cube, Literal};

use crate::convert::ConvertError;
use crate::core::{FxMap, ONE, ZERO};
use crate::manager::{Bdd, BddManager};

/// Cover-DAG sentinel: the empty cover.
const EMPTY_C: u32 = u32::MAX;
/// Cover-DAG sentinel: the single tautology cube.
const TAUT_C: u32 = u32::MAX - 1;

/// One cover-DAG node: the cube set `x̅·lo ∪ x·hi ∪ dc` with `x = var`.
/// Children are [`EMPTY_C`]/[`TAUT_C`] or indices into the arena; every
/// child's cubes mention only variables strictly below `var` in the order
/// that built the node (the arena never survives a reorder).
#[derive(Clone, Copy)]
struct IsopNode {
    var: u32,
    lo: u32,
    hi: u32,
    dc: u32,
}

/// Manager-resident extraction state: the cover-DAG arena plus the
/// `(L, U) → (cover ref, cover function)` memo over BDD node ids.
#[derive(Default)]
pub(crate) struct IsopTables {
    arena: Vec<IsopNode>,
    memo: FxMap<(u32, u32), (u32, u32)>,
}

impl IsopTables {
    /// Drops everything — reordering retires the level structure the
    /// memoised covers were split on.
    pub(crate) fn clear(&mut self) {
        self.arena.clear();
        self.memo.clear();
    }

    /// Purges memo entries whose operand or result ids died in a
    /// collection. Arena nodes reference no BDD ids, so they stay valid;
    /// once nothing references them any more the arena is reset wholesale.
    pub(crate) fn purge(&mut self, dead: impl Fn(u32) -> bool) {
        self.memo
            .retain(|&(l, u), &mut (_, b)| !dead(l) && !dead(u) && !dead(b));
        if self.memo.is_empty() {
            self.arena.clear();
        }
    }
}

impl BddManager {
    /// Extracts an irredundant sum-of-products cover of `f` directly on the
    /// diagram (Minato–Morreale), returning it as an implicit point set over
    /// `pool` — the BDD-native alternative to the
    /// [`to_implicit`](Self::to_implicit) disjoint-cube translation.
    /// `var_map` follows the same contract. The point set equals `f`
    /// exactly; only the internal cube decomposition differs from the
    /// translation path, and both collapse to the same canonical set.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::UnmappedVariable`] if `f` depends on a
    /// variable mapped to `None`.
    ///
    /// # Panics
    ///
    /// Panics if `var_map.len() != num_vars` or a mapped index is
    /// `>= pool.width()`.
    pub fn isop_implicit(
        &mut self,
        f: Bdd,
        pool: &mut ImplicitPool,
        var_map: &[Option<usize>],
    ) -> Result<ImplicitCover, ConvertError> {
        assert_eq!(
            var_map.len(),
            self.num_vars(),
            "variable map width mismatch"
        );
        let cover = self.isop_root(f);
        let mut memo: HashMap<u32, ImplicitCover> = HashMap::new();
        self.cover_to_implicit(cover, pool, var_map, &mut memo)
    }

    /// Extracts an irredundant sum-of-products cover of `f` as explicit
    /// cubes over the manager's variables (cube position `i` carries
    /// variable `i`). Cube enumeration expands the shared cover DAG, so this
    /// is for inspection and tests; the synthesis path uses
    /// [`isop_implicit`](Self::isop_implicit).
    pub fn isop(&mut self, f: Bdd) -> Cover {
        let cover = self.isop_root(f);
        let width = self.num_vars();
        let mut memo: HashMap<u32, Vec<Cube>> = HashMap::new();
        self.cover_to_cubes(cover, width, &mut memo)
            .into_iter()
            .collect()
    }

    /// Runs the bounded recursion with `L = U = f` and cross-checks the
    /// fundamental invariant: with tight bounds the extracted cover's
    /// function must be `f` itself.
    fn isop_root(&mut self, f: Bdd) -> u32 {
        // Disarm the mid-operation trip so the kernels this recursion leans
        // on cannot unwind; re-disarming is idempotent (public ops already
        // leave the trip disarmed on exit).
        self.core.arm_trip(usize::MAX);
        let (cover, b) = self.isop_rec(f.0, f.0);
        debug_assert_eq!(b, f.0, "isop(f, f) must cover exactly f");
        let _ = b;
        cover
    }

    /// `ite` against the core kernel (no public-op accounting: extraction
    /// is a read-out, not a driver decision, and the CI-pinned op counts
    /// must not depend on the extraction front end).
    fn isop_ite(&mut self, f: u32, g: u32, h: u32) -> u32 {
        match self.core.ite_rec(f, g, h) {
            Ok(r) => r,
            Err(_) => unreachable!("interruption is disarmed during ISOP extraction"),
        }
    }

    /// The Minato–Morreale recursion on bounds `L ⊆ U` (BDD node ids).
    /// Returns `(cover ref, B)` with `L ⊆ B ⊆ U` and the cover irredundant.
    fn isop_rec(&mut self, l: u32, u: u32) -> (u32, u32) {
        if l == ZERO {
            return (EMPTY_C, ZERO);
        }
        if u == ONE {
            return (TAUT_C, ONE);
        }
        if let Some(&r) = self.isop.memo.get(&(l, u)) {
            return r;
        }
        let level = self.core.level(l).min(self.core.level(u));
        let var = self.var_at[level as usize];
        let (l0, l1) = self.core.children_at(l, level);
        let (u0, u1) = self.core.children_at(u, level);
        // Points only reachable with an x̅ (resp. x) literal: cofactor
        // points of L that U's opposite branch cannot absorb.
        let l0_only = self.isop_ite(u1, ZERO, l0);
        let (c0, b0) = self.isop_rec(l0_only, u0);
        let l1_only = self.isop_ite(u0, ZERO, l1);
        let (c1, b1) = self.isop_rec(l1_only, u1);
        // Whatever the literal cubes left uncovered must come from cubes
        // without an x literal, admissible under both upper cofactors.
        let l0_rest = self.isop_ite(b0, ZERO, l0);
        let l1_rest = self.isop_ite(b1, ZERO, l1);
        let l_rest = self.isop_ite(l0_rest, ONE, l1_rest);
        let u_both = self.isop_ite(u0, u1, ZERO);
        let (cd, bd) = self.isop_rec(l_rest, u_both);
        let cover = if c0 == EMPTY_C && c1 == EMPTY_C {
            cd
        } else {
            let r = self.isop.arena.len() as u32;
            self.isop.arena.push(IsopNode {
                var,
                lo: c0,
                hi: c1,
                dc: cd,
            });
            r
        };
        let b0d = self.isop_ite(b0, ONE, bd);
        let b1d = self.isop_ite(b1, ONE, bd);
        let xv = self.core.mk_unchecked(level, ZERO, ONE);
        let b = self.isop_ite(xv, b1d, b0d);
        self.isop.memo.insert((l, u), (cover, b));
        (cover, b)
    }

    /// Folds a cover-DAG node into an implicit point set:
    /// `x̅·lo ∪ x·hi ∪ dc`, memoised per arena node.
    fn cover_to_implicit(
        &self,
        r: u32,
        pool: &mut ImplicitPool,
        var_map: &[Option<usize>],
        memo: &mut HashMap<u32, ImplicitCover>,
    ) -> Result<ImplicitCover, ConvertError> {
        if r == EMPTY_C {
            return Ok(pool.empty());
        }
        if r == TAUT_C {
            return Ok(pool.full());
        }
        if let Some(&s) = memo.get(&r) {
            return Ok(s);
        }
        let IsopNode { var, lo, hi, dc } = self.isop.arena[r as usize];
        let iv =
            var_map[var as usize].ok_or(ConvertError::UnmappedVariable { var: var as usize })?;
        let l = self.cover_to_implicit(lo, pool, var_map, memo)?;
        let h = self.cover_to_implicit(hi, pool, var_map, memo)?;
        let d = self.cover_to_implicit(dc, pool, var_map, memo)?;
        let mut cube0 = Cube::full(pool.width());
        cube0.set(iv, Literal::Zero);
        let mut cube1 = Cube::full(pool.width());
        cube1.set(iv, Literal::One);
        let c0 = pool.cube_set(&cube0);
        let c1 = pool.cube_set(&cube1);
        let left = pool.intersect(c0, l);
        let right = pool.intersect(c1, h);
        let lr = pool.union(left, right);
        let s = pool.union(lr, d);
        memo.insert(r, s);
        Ok(s)
    }

    /// Expands a cover-DAG node into explicit cubes (literal pushed onto
    /// every cube of the matching branch).
    fn cover_to_cubes(
        &self,
        r: u32,
        width: usize,
        memo: &mut HashMap<u32, Vec<Cube>>,
    ) -> Vec<Cube> {
        if r == EMPTY_C {
            return Vec::new();
        }
        if r == TAUT_C {
            return vec![Cube::full(width)];
        }
        if let Some(cubes) = memo.get(&r) {
            return cubes.clone();
        }
        let IsopNode { var, lo, hi, dc } = self.isop.arena[r as usize];
        let mut out = Vec::new();
        for mut cube in self.cover_to_cubes(lo, width, memo) {
            cube.set(var as usize, Literal::Zero);
            out.push(cube);
        }
        for mut cube in self.cover_to_cubes(hi, width, memo) {
            cube.set(var as usize, Literal::One);
            out.push(cube);
        }
        out.extend(self.cover_to_cubes(dc, width, memo));
        memo.insert(r, out.clone());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All assignments over `width` variables, variable-index order.
    fn assignments(width: usize) -> impl Iterator<Item = Vec<bool>> {
        (0..(1u32 << width)).map(move |x| (0..width).map(|i| (x >> i) & 1 == 1).collect())
    }

    /// Checks the two ISOP contracts pointwise: the cover equals `f`, and
    /// dropping any one cube loses at least one point of `f`.
    fn assert_isop_exact_and_irredundant(mgr: &BddManager, f: Bdd, cover: &Cover) {
        let width = mgr.num_vars();
        let cubes: Vec<Cube> = cover.cubes().to_vec();
        for bits in assignments(width) {
            let covered = cubes.iter().any(|c| c.covers_bits(&bits));
            assert_eq!(covered, mgr.eval(f, &bits), "cover ≠ f at {bits:?}");
        }
        for drop in 0..cubes.len() {
            let lost = assignments(width).any(|bits| {
                mgr.eval(f, &bits)
                    && !cubes
                        .iter()
                        .enumerate()
                        .any(|(i, c)| i != drop && c.covers_bits(&bits))
            });
            assert!(lost, "cube {drop} ({}) is redundant", cubes[drop]);
        }
    }

    #[test]
    fn isop_constants() {
        let mut mgr = BddManager::new(3);
        let zero = mgr.zero();
        let one = mgr.one();
        assert!(mgr.isop(zero).cubes().is_empty());
        let taut = mgr.isop(one);
        assert_eq!(taut.cubes().len(), 1);
        assert_eq!(taut.cubes()[0], Cube::full(3));
    }

    #[test]
    fn isop_is_exact_and_irredundant_on_small_functions() {
        for order in [vec![0, 1, 2, 3], vec![3, 1, 0, 2]] {
            let mut mgr = BddManager::with_order(order);
            let a = mgr.var(0);
            let b = mgr.var(1);
            let c = mgr.var(2);
            let d = mgr.var(3);
            let ab = mgr.and(a, b);
            let cd = mgr.and(c, d);
            let mut functions = vec![
                mgr.or(ab, cd),
                mgr.xor(a, b),
                mgr.ite(a, cd, b),
                mgr.diff(ab, d),
            ];
            let x = mgr.xor(c, d);
            functions.push(mgr.or(ab, x));
            for f in functions {
                let cover = mgr.isop(f);
                assert_isop_exact_and_irredundant(&mgr, f, &cover);
            }
        }
    }

    #[test]
    fn isop_finds_the_consensus_cube() {
        // f = a·b + a̅·c has the classic 2-cube irredundant cover (the
        // consensus cube b·c is redundant); ISOP must not emit 3 cubes.
        let mut mgr = BddManager::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let ab = mgr.and(a, b);
        let nac = mgr.diff(c, a);
        let f = mgr.or(ab, nac);
        let cover = mgr.isop(f);
        assert_eq!(cover.cubes().len(), 2);
        assert_isop_exact_and_irredundant(&mgr, f, &cover);
    }

    #[test]
    fn isop_implicit_matches_translation_path() {
        let mut mgr = BddManager::with_order(vec![2, 0, 3, 1]);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let d = mgr.nvar(3);
        let t1 = mgr.and(a, b);
        let t2 = mgr.or(c, d);
        let f = mgr.xor(t1, t2);
        let map: Vec<Option<usize>> = (0..4).map(Some).collect();
        let mut pool = ImplicitPool::new(4);
        let via_isop = mgr.isop_implicit(f, &mut pool, &map).expect("mapped");
        let via_translate = mgr.to_implicit(f, &mut pool, &map).expect("mapped");
        assert_eq!(via_isop, via_translate, "same canonical point set");
    }

    #[test]
    fn isop_memo_survives_gc_of_live_operands_and_reorder_clears_it() {
        let mut mgr = BddManager::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let ab = mgr.and(a, b);
        let f = mgr.or(ab, c);
        mgr.protect(f);
        let cover1 = mgr.isop(f);
        // A GC keeping f alive keeps the memo warm; the same extraction
        // must come back (and stay correct).
        mgr.gc();
        let cover2 = mgr.isop(f);
        assert_eq!(format!("{cover1}"), format!("{cover2}"));
        // Reordering clears the tables; extraction after a sift is rebuilt
        // against the new layout and still exact + irredundant.
        mgr.swap_levels(1);
        mgr.reorder_sift(BddManager::DEFAULT_MAX_GROWTH);
        let cover3 = mgr.isop(f);
        assert_isop_exact_and_irredundant(&mgr, f, &cover3);
        mgr.unprotect(f);
    }

    #[test]
    fn isop_after_gc_of_dead_intermediates_is_correct() {
        // Extraction memoises B-functions nothing protects; a GC kills
        // them, the purge must drop the stale entries, and a fresh
        // extraction of a surviving function must still be right.
        let mut mgr = BddManager::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let d = mgr.var(3);
        let ab = mgr.and(a, b);
        let cd = mgr.xor(c, d);
        let g = mgr.or(ab, cd);
        let _ = mgr.isop(g);
        let keep = mgr.ite(a, cd, b);
        mgr.protect(keep);
        mgr.gc();
        let cover = mgr.isop(keep);
        assert_isop_exact_and_irredundant(&mgr, keep, &cover);
        mgr.unprotect(keep);
    }
}
