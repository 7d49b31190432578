//! Implicit cover representation: canonical disjoint-cube sets.
//!
//! The explicit SG baseline materialises one full-width minterm [`Cube`] per
//! reachable state and feeds tens of thousands of them to the minimiser —
//! the state-explosion behaviour the paper's Figure 6 demonstrates. This
//! module represents the same point sets *implicitly*: a hash-consed,
//! reduced, ordered decision diagram ([`ImplicitPool`]) whose root-to-`1`
//! paths form a canonical disjoint-cube set (ZDD/BDD-style), with cached
//! union / intersection / complement / cofactor. States that agree on a
//! signal's support collapse into a single shared subgraph, so the
//! representation stays near-linear where the explicit one is exponential.
//!
//! [`minimize_implicit`] runs the Espresso-style EXPAND → IRREDUNDANT →
//! REDUCE iteration directly against the implicit on/off sets and produces
//! **byte-identical** output to [`minimize`](crate::minimize) applied to the
//! canonically ordered explicit minterm covers of the same sets (pinned by
//! the equivalence proptest suite). The key observations making that
//! possible:
//!
//! * EXPAND's raise legality ("does the raised cube still miss the
//!   off-set?") is a property of the off-set *as a set of points*, not of
//!   its cube list, so it can be answered by an implicit membership probe;
//! * the cubes EXPAND processes are exactly the successive canonically
//!   smallest minterms not yet covered by an emitted prime — which is the
//!   leftmost path of the residual implicit set;
//! * IRREDUNDANT's and REDUCE's cover-containment questions reduce to
//!   emptiness of implicit differences, and REDUCE's residue supercube is
//!   the supercube of one implicit set;
//! * the "rest of the cover" each of those questions needs is one union of
//!   two running sets — the cubes already decided, and the precomputed
//!   union of the cubes still to come — so a pass over `k` cubes costs
//!   `O(k)` unions instead of rebuilding `k - 1` cubes for every cube. The
//!   diagram is canonical, so the running union is the same point set, and
//!   every decision the same, as the rebuilt one.
//!
//! ## Example
//!
//! ```
//! use si_cubes::implicit::{minimize_implicit, ImplicitPool, MintermList};
//!
//! // On(b)/Off(b) of the paper's Figure 1, accumulated as points.
//! let mut on_list = MintermList::new(3);
//! for s in ["100", "101", "110", "111", "001", "011"] {
//!     on_list.push(s.chars().map(|c| c == '1'));
//! }
//! let mut off_list = MintermList::new(3);
//! for s in ["010", "000"] {
//!     off_list.push(s.chars().map(|c| c == '1'));
//! }
//! let mut pool = ImplicitPool::new(3);
//! let on = pool.from_minterms(&mut on_list);
//! let off = pool.from_minterms(&mut off_list);
//! let gate = minimize_implicit(&mut pool, on, off);
//! assert_eq!(gate.to_expression_string(&["a", "b", "c"]), "a + c");
//! ```

use std::cmp::Ordering;

use crate::cover::Cover;
use crate::cube::{Cube, Literal};
use crate::espresso::canonical_order;
use crate::fx::{FxMap, FxSet};
use crate::qm::{minimize_exact, QmBudget};

/// Terminal node id for the empty set (constant 0).
const EMPTY: u32 = 0;
/// Terminal node id for the full space (constant 1).
const FULL: u32 = 1;

/// A handle to a point set owned by an [`ImplicitPool`].
///
/// Copyable and cheap; all operations go through the pool. Two handles from
/// the same pool are equal iff they denote the same point set (the diagram
/// is canonical).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ImplicitCover(u32);

impl ImplicitCover {
    /// Returns `true` if this is the empty set (constant 0).
    pub fn is_empty(self) -> bool {
        self.0 == EMPTY
    }
}

/// Binary operation codes for the apply cache.
const OP_UNION: u8 = 0;
const OP_INTERSECT: u8 = 1;
const OP_DIFF: u8 = 2;
/// Unary cofactor codes (`b` in the cache key holds the variable).
const OP_COFACTOR0: u8 = 3;
const OP_COFACTOR1: u8 = 4;

/// A hash-consed pool of reduced ordered decision-diagram nodes over a
/// fixed variable width, plus an operation cache.
///
/// Node ids 0 and 1 are the terminals; every other node `(var, lo, hi)` is
/// unique (`lo != hi`), so equal point sets always share one id and
/// emptiness / equality tests are O(1).
#[derive(Debug, Clone)]
pub struct ImplicitPool {
    width: usize,
    /// `(var, lo, hi)`; entries 0/1 are terminal placeholders.
    nodes: Vec<(u32, u32, u32)>,
    unique: FxMap<(u32, u32, u32), u32>,
    cache: FxMap<(u8, u32, u32), u32>,
}

impl ImplicitPool {
    /// Creates a pool over `width` variables.
    pub fn new(width: usize) -> Self {
        ImplicitPool {
            width,
            nodes: vec![(u32::MAX, 0, 0), (u32::MAX, 1, 1)],
            unique: FxMap::default(),
            cache: FxMap::default(),
        }
    }

    /// Number of variables.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The empty set (constant 0).
    pub fn empty(&self) -> ImplicitCover {
        ImplicitCover(EMPTY)
    }

    /// The full space (constant 1).
    pub fn full(&self) -> ImplicitCover {
        ImplicitCover(FULL)
    }

    /// Total number of live non-terminal nodes in the pool.
    pub fn pool_size(&self) -> usize {
        self.nodes.len() - 2
    }

    fn var_of(&self, n: u32) -> u32 {
        if n <= FULL {
            self.width as u32
        } else {
            self.nodes[n as usize].0
        }
    }

    /// Hash-consed node constructor with the `lo == hi` reduction.
    fn mk(&mut self, var: u32, lo: u32, hi: u32) -> u32 {
        if lo == hi {
            return lo;
        }
        let key = (var, lo, hi);
        if let Some(&id) = self.unique.get(&key) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(key);
        self.unique.insert(key, id);
        id
    }

    /// Splits `n` at variable `var`: the `(lo, hi)` children if `n` branches
    /// there, `(n, n)` if `var` is unconstrained at this level.
    fn children_at(&self, n: u32, var: u32) -> (u32, u32) {
        if n > FULL && self.nodes[n as usize].0 == var {
            let (_, lo, hi) = self.nodes[n as usize];
            (lo, hi)
        } else {
            (n, n)
        }
    }

    fn apply(&mut self, op: u8, a: u32, b: u32) -> u32 {
        // Terminal short-circuits.
        match op {
            OP_UNION => {
                if a == FULL || b == FULL {
                    return FULL;
                }
                if a == EMPTY || a == b {
                    return b;
                }
                if b == EMPTY {
                    return a;
                }
            }
            OP_INTERSECT => {
                if a == EMPTY || b == EMPTY {
                    return EMPTY;
                }
                if a == FULL || a == b {
                    return b;
                }
                if b == FULL {
                    return a;
                }
            }
            OP_DIFF => {
                if a == EMPTY || b == FULL || a == b {
                    return EMPTY;
                }
                if b == EMPTY {
                    return a;
                }
            }
            _ => unreachable!("apply handles binary set ops only"),
        }
        // Union and intersection are commutative: normalise the key.
        let key = if op != OP_DIFF && a > b {
            (op, b, a)
        } else {
            (op, a, b)
        };
        if let Some(&r) = self.cache.get(&key) {
            return r;
        }
        let var = self.var_of(a).min(self.var_of(b));
        let (a0, a1) = self.children_at(a, var);
        let (b0, b1) = self.children_at(b, var);
        let lo = self.apply(op, a0, b0);
        let hi = self.apply(op, a1, b1);
        let r = self.mk(var, lo, hi);
        self.cache.insert(key, r);
        r
    }

    /// The union of two sets (cached).
    pub fn union(&mut self, a: ImplicitCover, b: ImplicitCover) -> ImplicitCover {
        ImplicitCover(self.apply(OP_UNION, a.0, b.0))
    }

    /// The intersection of two sets (cached).
    pub fn intersect(&mut self, a: ImplicitCover, b: ImplicitCover) -> ImplicitCover {
        ImplicitCover(self.apply(OP_INTERSECT, a.0, b.0))
    }

    /// The set difference `a \ b` (cached).
    pub fn diff(&mut self, a: ImplicitCover, b: ImplicitCover) -> ImplicitCover {
        ImplicitCover(self.apply(OP_DIFF, a.0, b.0))
    }

    /// The complement of `a` within the full space (cached).
    pub fn complement(&mut self, a: ImplicitCover) -> ImplicitCover {
        let full = self.full();
        self.diff(full, a)
    }

    /// Rebuilds `set` (owned by `src`) inside this pool, returning the
    /// handle of the identical point set here. Shared subgraphs are
    /// visited once, so the cost is linear in the copied diagram — this
    /// is how a batch of sets built in one shared pool is carved into
    /// per-signal pools for parallel minimisation.
    ///
    /// # Panics
    ///
    /// Panics if the two pools have different widths.
    pub fn copy_set_from(&mut self, src: &ImplicitPool, set: ImplicitCover) -> ImplicitCover {
        assert_eq!(
            self.width, src.width,
            "copying a set between pools of different widths"
        );
        let mut memo = FxMap::default();
        ImplicitCover(self.copy_rec(src, set.0, &mut memo))
    }

    fn copy_rec(&mut self, src: &ImplicitPool, n: u32, memo: &mut FxMap<u32, u32>) -> u32 {
        if n <= FULL {
            return n;
        }
        if let Some(&r) = memo.get(&n) {
            return r;
        }
        let (var, lo, hi) = src.nodes[n as usize];
        let lo = self.copy_rec(src, lo, memo);
        let hi = self.copy_rec(src, hi, memo);
        let r = self.mk(var, lo, hi);
        memo.insert(n, r);
        r
    }

    /// Returns `true` if the sets share at least one point — O(shared
    /// structure) instead of the explicit cover's quadratic cube sweep.
    pub fn intersects(&mut self, a: ImplicitCover, b: ImplicitCover) -> bool {
        !self.intersect(a, b).is_empty()
    }

    /// The Shannon cofactor of `a` with variable `var` pinned to `value`
    /// (cached). The result no longer depends on `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= width`.
    pub fn cofactor(&mut self, a: ImplicitCover, var: usize, value: bool) -> ImplicitCover {
        assert!(var < self.width, "variable {var} out of range");
        let op = if value { OP_COFACTOR1 } else { OP_COFACTOR0 };
        ImplicitCover(self.cofactor_rec(op, a.0, var as u32))
    }

    fn cofactor_rec(&mut self, op: u8, n: u32, var: u32) -> u32 {
        if n <= FULL || self.var_of(n) > var {
            return n;
        }
        let key = (op, n, var);
        if let Some(&r) = self.cache.get(&key) {
            return r;
        }
        let (v, lo, hi) = self.nodes[n as usize];
        let r = if v == var {
            if op == OP_COFACTOR1 {
                hi
            } else {
                lo
            }
        } else {
            let l = self.cofactor_rec(op, lo, var);
            let h = self.cofactor_rec(op, hi, var);
            self.mk(v, l, h)
        };
        self.cache.insert(key, r);
        r
    }

    /// The set of points covered by `cube` as an implicit set.
    pub fn cube_set(&mut self, cube: &Cube) -> ImplicitCover {
        debug_assert_eq!(cube.width(), self.width);
        let mut acc = FULL;
        for v in (0..self.width).rev() {
            match cube.get(v) {
                Literal::DontCare => {}
                Literal::Zero => acc = self.mk(v as u32, acc, EMPTY),
                Literal::One => acc = self.mk(v as u32, EMPTY, acc),
            }
        }
        ImplicitCover(acc)
    }

    /// The set of points covered by an explicit cover.
    pub fn cover_set(&mut self, cover: &Cover) -> ImplicitCover {
        let mut acc = self.empty();
        for cube in cover.cubes() {
            let c = self.cube_set(cube);
            acc = self.union(acc, c);
        }
        acc
    }

    /// Builds the set of a batch of complete minterms; duplicate rows
    /// collapse. This is the bulk entry point for state traversals, with no
    /// per-state cube allocation.
    ///
    /// Rows already in canonical order ([`cmp_minterm_rows`]) cost one
    /// linear pass to confirm the order, then each diagram node splits its
    /// sorted run of rows by binary search. Rows in any other order are
    /// sorted in place first.
    pub fn from_minterms(&mut self, list: &mut MintermList) -> ImplicitCover {
        debug_assert_eq!(list.width, self.width);
        list.sort();
        ImplicitCover(self.build_run(&list.data, list.blocks, 0))
    }

    /// Builds the set of a run of canonically sorted rows that agree on
    /// every variable before `var`.
    fn build_run(&mut self, rows: &[u64], blocks: usize, var: usize) -> u32 {
        if rows.is_empty() {
            return EMPTY;
        }
        if var == self.width {
            return FULL;
        }
        let (zeros, ones) = rows.split_at(split_run(rows, blocks, var) * blocks);
        let lo = self.build_run(zeros, blocks, var + 1);
        let hi = self.build_run(ones, blocks, var + 1);
        self.mk(var as u32, lo, hi)
    }

    /// Returns `true` if `cube` shares at least one point with `set` — the
    /// implicit form of the minimiser's innermost disjointness probe.
    /// `memo` is per-node scratch, cleared here, so that EXPAND's run of
    /// raise probes allocates it once.
    fn cube_intersects(
        &self,
        cube: &Cube,
        set: ImplicitCover,
        memo: &mut FxMap<u32, bool>,
    ) -> bool {
        debug_assert_eq!(cube.width(), self.width);
        memo.clear();
        self.cube_intersects_rec(cube, set.0, memo)
    }

    fn cube_intersects_rec(&self, cube: &Cube, n: u32, memo: &mut FxMap<u32, bool>) -> bool {
        if n == EMPTY {
            return false;
        }
        if n == FULL {
            // Remaining variables are unconstrained by the set; the cube's
            // own literals are always satisfiable.
            return true;
        }
        if let Some(&r) = memo.get(&n) {
            return r;
        }
        let (var, lo, hi) = self.nodes[n as usize];
        let r = match cube.get(var as usize) {
            Literal::Zero => self.cube_intersects_rec(cube, lo, memo),
            Literal::One => self.cube_intersects_rec(cube, hi, memo),
            Literal::DontCare => {
                self.cube_intersects_rec(cube, lo, memo) || self.cube_intersects_rec(cube, hi, memo)
            }
        };
        memo.insert(n, r);
        r
    }

    /// Number of points in the set, saturating at `u128::MAX`.
    pub fn count(&self, set: ImplicitCover) -> u128 {
        let mut memo = FxMap::default();
        let c = self.count_rec(set.0, &mut memo);
        shl_sat(c, self.var_of(set.0))
    }

    fn count_rec(&self, n: u32, memo: &mut FxMap<u32, u128>) -> u128 {
        if n == EMPTY {
            return 0;
        }
        if n == FULL {
            return 1;
        }
        if let Some(&c) = memo.get(&n) {
            return c;
        }
        let (var, lo, hi) = self.nodes[n as usize];
        let cl = self.count_rec(lo, memo);
        let ch = self.count_rec(hi, memo);
        let c = shl_sat(cl, self.var_of(lo) - var - 1)
            .saturating_add(shl_sat(ch, self.var_of(hi) - var - 1));
        memo.insert(n, c);
        c
    }

    /// Number of diagram nodes reachable from `set` (the implicit size the
    /// exact minimiser charges its budget against).
    pub fn node_count(&self, set: ImplicitCover) -> usize {
        if set.0 <= FULL {
            return 0;
        }
        let mut seen = FxSet::default();
        seen.insert(set.0);
        let mut stack = vec![set.0];
        while let Some(n) = stack.pop() {
            let (_, lo, hi) = self.nodes[n as usize];
            for c in [lo, hi] {
                if c > FULL && seen.insert(c) {
                    stack.push(c);
                }
            }
        }
        seen.len()
    }

    /// The canonically smallest minterm of the set (`0` preferred over `1`
    /// at every variable, earlier variables first), or `None` when empty.
    pub fn first_minterm(&self, set: ImplicitCover) -> Option<Vec<bool>> {
        if set.is_empty() {
            return None;
        }
        let mut bits = vec![false; self.width];
        let mut n = set.0;
        while n != FULL {
            let (var, lo, hi) = self.nodes[n as usize];
            if lo != EMPTY {
                n = lo;
            } else {
                bits[var as usize] = true;
                n = hi;
            }
        }
        Some(bits)
    }

    /// The smallest cube containing every point of the set, or `None` when
    /// the set is empty.
    pub fn supercube(&self, set: ImplicitCover) -> Option<Cube> {
        if set.is_empty() {
            return None;
        }
        let width = self.width;
        let mut can0 = vec![false; width];
        let mut can1 = vec![false; width];
        let free_between = |lo: u32, hi: u32, can0: &mut [bool], can1: &mut [bool]| {
            for v in lo..hi {
                can0[v as usize] = true;
                can1[v as usize] = true;
            }
        };
        free_between(0, self.var_of(set.0), &mut can0, &mut can1);
        if set.0 == FULL {
            // Every variable is free.
        } else {
            let mut seen = FxSet::default();
            seen.insert(set.0);
            let mut stack = vec![set.0];
            // In a canonical diagram every non-empty child edge lies on an
            // accepting path, so polarity/freeness can be read off edges.
            while let Some(n) = stack.pop() {
                let (var, lo, hi) = self.nodes[n as usize];
                if lo != EMPTY {
                    can0[var as usize] = true;
                    free_between(var + 1, self.var_of(lo), &mut can0, &mut can1);
                    if lo > FULL && seen.insert(lo) {
                        stack.push(lo);
                    }
                }
                if hi != EMPTY {
                    can1[var as usize] = true;
                    free_between(var + 1, self.var_of(hi), &mut can0, &mut can1);
                    if hi > FULL && seen.insert(hi) {
                        stack.push(hi);
                    }
                }
            }
        }
        let mut cube = Cube::full(width);
        for v in 0..width {
            match (can0[v], can1[v]) {
                (true, true) => {}
                (true, false) => cube.set(v, Literal::Zero),
                (false, true) => cube.set(v, Literal::One),
                (false, false) => unreachable!("non-empty set constrains every variable somehow"),
            }
        }
        Some(cube)
    }

    /// Materialises the set as its canonical disjoint-cube cover: one cube
    /// per root-to-`1` path (skipped variables become don't-cares), in
    /// canonical cube order.
    pub fn to_cover(&self, set: ImplicitCover) -> Cover {
        let mut out: Vec<Cube> = Vec::new();
        let mut path = Cube::full(self.width);
        self.paths_rec(set.0, &mut path, &mut out);
        let mut cover: Cover = out.into_iter().collect();
        if cover.is_empty() {
            cover = Cover::empty(self.width);
        }
        canonical_order(&mut cover);
        cover
    }

    fn paths_rec(&self, n: u32, path: &mut Cube, out: &mut Vec<Cube>) {
        if n == EMPTY {
            return;
        }
        if n == FULL {
            out.push(path.clone());
            return;
        }
        let (var, lo, hi) = self.nodes[n as usize];
        path.set(var as usize, Literal::Zero);
        self.paths_rec(lo, path, out);
        path.set(var as usize, Literal::One);
        self.paths_rec(hi, path, out);
        path.set(var as usize, Literal::DontCare);
    }

    /// Materialises the set as its explicit minterm cover, in canonical
    /// (lexicographic) order — exactly the cover the explicit enumeration
    /// path would have produced. Cost is proportional to the point count,
    /// so only call this where the explicit path would have been viable.
    pub fn minterms_cover(&self, set: ImplicitCover) -> Cover {
        let mut out: Vec<Cube> = Vec::new();
        let mut bits = vec![false; self.width];
        self.minterms_rec(set.0, 0, &mut bits, &mut out);
        let mut cover: Cover = out.into_iter().collect();
        if cover.is_empty() {
            cover = Cover::empty(self.width);
        }
        cover
    }

    fn minterms_rec(&self, n: u32, var: usize, bits: &mut Vec<bool>, out: &mut Vec<Cube>) {
        if n == EMPTY {
            return;
        }
        if var == self.width {
            out.push(Cube::minterm(bits.iter().copied()));
            return;
        }
        let (lo, hi) = self.children_at(n, var as u32);
        bits[var] = false;
        self.minterms_rec(lo, var + 1, bits, out);
        bits[var] = true;
        self.minterms_rec(hi, var + 1, bits, out);
        bits[var] = false;
    }
}

/// Saturating left shift for point counts.
fn shl_sat(x: u128, k: u32) -> u128 {
    if x == 0 {
        0
    } else if k >= 128 || x.leading_zeros() < k {
        u128::MAX
    } else {
        x << k
    }
}

/// The number of rows at the front of a canonically sorted run that have
/// `var` clear. The run's rows agree on every earlier variable, so those
/// rows come first: checking both ends settles the common one-sided run,
/// and a binary search the rest.
fn split_run(rows: &[u64], blocks: usize, var: usize) -> usize {
    let (b, m) = (var / 64, 1u64 << (var % 64));
    let clear = |row: usize| rows[row * blocks + b] & m == 0;
    let n = rows.len() / blocks;
    if !clear(0) {
        return 0;
    }
    if clear(n - 1) {
        return n;
    }
    // `clear(lo - 1)` and `!clear(hi)` hold throughout.
    let (mut lo, mut hi) = (1, n - 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if clear(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The canonical order of packed minterm rows (the [`MintermList`] layout):
/// variable 0 decides first, and 0 sorts before 1 — the order of
/// [`Cube::cmp_canonical`] on the same minterms. Rows that reach
/// [`ImplicitPool::from_minterms`] in this order are built without sorting.
pub fn cmp_minterm_rows(a: &[u64], b: &[u64]) -> Ordering {
    // Variable `i` sits at bit `i % 64` of block `i / 64`: reversing each
    // block's bits moves its first variable to the most significant place.
    a.iter()
        .map(|w| w.reverse_bits())
        .cmp(b.iter().map(|w| w.reverse_bits()))
}

/// A flat batch of complete minterms (one row of packed bit blocks per
/// point) feeding [`ImplicitPool::from_minterms`]. Rows may come in any
/// order; rows pushed in canonical order ([`cmp_minterm_rows`]) build
/// fastest.
#[derive(Debug, Clone)]
pub struct MintermList {
    width: usize,
    blocks: usize,
    data: Vec<u64>,
}

impl MintermList {
    /// Creates an empty list over `width` variables.
    pub fn new(width: usize) -> Self {
        MintermList {
            width,
            blocks: width.div_ceil(64).max(1),
            data: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len() / self.blocks
    }

    /// Returns `true` if no rows were pushed.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends one complete minterm given as variable values in index order.
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields fewer or more than `width` values.
    pub fn push<I: IntoIterator<Item = bool>>(&mut self, bits: I) {
        let start = self.data.len();
        self.data.resize(start + self.blocks, 0);
        let mut n = 0usize;
        for (i, v) in bits.into_iter().enumerate() {
            if v {
                self.data[start + i / 64] |= 1u64 << (i % 64);
            }
            n += 1;
        }
        assert_eq!(n, self.width, "minterm width mismatch");
    }

    /// Appends one minterm given as pre-packed bit blocks.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong number of blocks.
    pub fn push_blocks(&mut self, row: &[u64]) {
        assert_eq!(row.len(), self.blocks, "block count mismatch");
        self.data.extend_from_slice(row);
    }

    /// Puts the rows in canonical order: one linear pass when they already
    /// are, a sort otherwise.
    fn sort(&mut self) {
        let rows = || self.data.chunks_exact(self.blocks);
        if rows()
            .zip(rows().skip(1))
            .all(|(a, b)| cmp_minterm_rows(a, b) != Ordering::Greater)
        {
            return;
        }
        let mut sorted: Vec<&[u64]> = rows().collect();
        sorted.sort_unstable_by(|a, b| cmp_minterm_rows(a, b));
        self.data = sorted.concat();
    }
}

/// Raises `cube`'s literals in variable order, keeping each raise that
/// still misses the off-set; `memo` is the probes' shared scratch map.
fn raise_against(
    pool: &ImplicitPool,
    cube: &mut Cube,
    off: ImplicitCover,
    memo: &mut FxMap<u32, bool>,
) {
    for v in 0..pool.width() {
        let saved = cube.get(v);
        if saved == Literal::DontCare {
            continue;
        }
        cube.set(v, Literal::DontCare);
        if pool.cube_intersects(cube, off, memo) {
            cube.set(v, saved);
        }
    }
}

/// EXPAND seeded from the implicit on-set: emits exactly the primes the
/// explicit EXPAND would produce on the canonically ordered minterm cover of
/// `on` — successive canonically smallest uncovered minterms, greedily
/// raised in variable order against the off-set, with the same absorption
/// bookkeeping.
fn expand_implicit(pool: &mut ImplicitPool, on: ImplicitCover, off: ImplicitCover) -> Cover {
    let mut memo = FxMap::default();
    let mut result: Vec<Cube> = Vec::new();
    let mut remaining = on;
    while let Some(bits) = pool.first_minterm(remaining) {
        let mut cube = Cube::minterm(bits);
        raise_against(pool, &mut cube, off, &mut memo);
        let covered = pool.cube_set(&cube);
        remaining = pool.diff(remaining, covered);
        if !result.iter().any(|r| r.contains(&cube)) {
            result.retain(|r| !cube.contains(r));
            result.push(cube);
        }
    }
    result.into_iter().collect()
}

/// EXPAND over an explicit working cover (iterations after the first),
/// probing raise legality against the implicit off-set. Decision-identical
/// to the explicit blocking-structure EXPAND against the off-set's minterm
/// cover: a raise is legal iff the raised cube still misses the off-set as
/// a point set.
fn expand_cover_implicit(pool: &mut ImplicitPool, f: &mut Cover, off: ImplicitCover) {
    let mut memo = FxMap::default();
    let mut cubes: Vec<Cube> = f.cubes().to_vec();
    cubes.sort_by_key(|c| c.literal_count());
    let mut result: Vec<Cube> = Vec::with_capacity(cubes.len());
    for mut cube in cubes {
        if result.iter().any(|r| r.contains(&cube)) {
            continue;
        }
        raise_against(pool, &mut cube, off, &mut memo);
        if !result.iter().any(|r| r.contains(&cube)) {
            result.retain(|r| !cube.contains(r));
            result.push(cube);
        }
    }
    *f = result.into_iter().collect();
}

/// `after[p]` is the union of `sets[p..]`; `after[sets.len()]` is empty.
fn suffix_unions(pool: &mut ImplicitPool, sets: &[ImplicitCover]) -> Vec<ImplicitCover> {
    let mut after = vec![pool.empty(); sets.len() + 1];
    for p in (0..sets.len()).rev() {
        after[p] = pool.union(sets[p], after[p + 1]);
    }
    after
}

/// IRREDUNDANT against the implicit on-set: a cube is removable iff the
/// on-points inside it stay covered by the remaining cubes — the emptiness
/// of one implicit difference. Removal order matches the explicit phase.
/// At position `p` of that order the remaining cubes are the ones kept so
/// far plus every cube after `p`, so the rest of the cover is one union of
/// a running set and a precomputed suffix union.
fn irredundant_implicit(pool: &mut ImplicitPool, f: &mut Cover, on: ImplicitCover) {
    let mut order: Vec<usize> = (0..f.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(f.cubes()[i].literal_count()));
    let sets: Vec<ImplicitCover> = order
        .iter()
        .map(|&i| pool.cube_set(&f.cubes()[i]))
        .collect();
    let after = suffix_unions(pool, &sets);
    let mut removed = vec![false; f.len()];
    let mut kept = pool.empty();
    for (p, &i) in order.iter().enumerate() {
        let rest = pool.union(kept, after[p + 1]);
        let obliged = pool.intersect(on, sets[p]);
        if pool.diff(obliged, rest).is_empty() {
            removed[i] = true;
        } else {
            kept = pool.union(kept, sets[p]);
        }
    }
    *f = f
        .cubes()
        .iter()
        .enumerate()
        .filter(|(j, _)| !removed[*j])
        .map(|(_, c)| c.clone())
        .collect();
}

/// REDUCE against the implicit on-set: each cube shrinks onto the supercube
/// of the on-points inside it left uncovered by the rest of the cover —
/// the same landing spot as the explicit residue-supercube REDUCE. The rest
/// of the cover at cube `i` is the cubes already reduced plus the original
/// cubes after `i`: one union of a running set and a precomputed suffix
/// union.
fn reduce_implicit(pool: &mut ImplicitPool, f: &mut Cover, on: ImplicitCover) {
    let width = f.width();
    let mut cubes: Vec<Cube> = f.cubes().to_vec();
    let sets: Vec<ImplicitCover> = cubes.iter().map(|c| pool.cube_set(c)).collect();
    let after = suffix_unions(pool, &sets);
    let mut reduced = pool.empty();
    for i in 0..cubes.len() {
        let entry = cubes[i].clone();
        let rest = pool.union(reduced, after[i + 1]);
        let obliged = pool.intersect(on, sets[i]);
        let residue = pool.diff(obliged, rest);
        cubes[i] = match pool.supercube(residue) {
            // No residue: the rest already covers every obligation; the
            // greedy pins each free variable to 1.
            None => {
                let mut c = entry;
                for v in 0..width {
                    if c.get(v) == Literal::DontCare {
                        c.set(v, Literal::One);
                    }
                }
                c
            }
            Some(s) if entry.contains(&s) => s,
            // The residue sticks out: no shrink is valid.
            Some(_) => entry,
        };
        let landed = pool.cube_set(&cubes[i]);
        reduced = pool.union(reduced, landed);
    }
    *f = cubes.into_iter().collect();
}

/// Cover cost: cube count first, then literal count (lexicographic), in a
/// width-independent integer type so the implicit minterm count can be
/// compared without materialising.
fn cost(f: &Cover) -> (u128, u128) {
    (f.len() as u128, f.literal_count() as u128)
}

/// Minimises the implicit on-set against the implicit off-set, producing
/// **byte-identical** output to [`minimize`](crate::minimize) applied to
/// the canonically ordered explicit minterm covers of the same point sets
/// — without ever materialising those covers (unless no iteration improves
/// on the raw minterm cost, in which case the minterms *are* the result,
/// exactly as in the explicit path).
///
/// Points in neither set are don't-cares, as in the explicit minimiser.
///
/// # Examples
///
/// ```
/// use si_cubes::implicit::{minimize_implicit, ImplicitPool};
/// use si_cubes::{Cover, Cube};
///
/// let mut pool = ImplicitPool::new(2);
/// let on_cover: Cover = [Cube::from_str_cube("11")].into_iter().collect();
/// let off_cover: Cover = [Cube::from_str_cube("00")].into_iter().collect();
/// let on = pool.cover_set(&on_cover);
/// let off = pool.cover_set(&off_cover);
/// let min = minimize_implicit(&mut pool, on, off);
/// assert_eq!(min.literal_count(), 1); // 01/10 are DC: one literal suffices
/// ```
pub fn minimize_implicit(pool: &mut ImplicitPool, on: ImplicitCover, off: ImplicitCover) -> Cover {
    debug_assert!(
        !pool.intersects(on, off),
        "on-set and off-set must be disjoint"
    );
    let width = pool.width();
    if on.is_empty() {
        return Cover::empty(width);
    }
    let n = pool.count(on);
    // The explicit path's starting point is the minterm cover itself.
    let mut best: Option<Cover> = None;
    let mut best_cost: (u128, u128) = (n, n.saturating_mul(width as u128));
    let mut f = Cover::empty(width);
    for iteration in 0..8 {
        if iteration == 0 {
            f = expand_implicit(pool, on, off);
        } else {
            expand_cover_implicit(pool, &mut f, off);
        }
        irredundant_implicit(pool, &mut f, on);
        let c = cost(&f);
        if c < best_cost {
            best = Some(f.clone());
            best_cost = c;
        } else {
            break;
        }
        reduce_implicit(pool, &mut f, on);
    }
    let mut out = match best {
        Some(b) => b,
        // No iteration beat the raw minterm cover (XOR-like functions):
        // the explicit path returns the minterm cover itself.
        None => pool.minterms_cover(on),
    };
    canonical_order(&mut out);
    out
}

/// Exactly minimises the implicit on-set against the implicit off-set with
/// the Quine–McCluskey engine, charging [`QmBudget::max_nodes`] against the
/// implicit representation *before* materialising anything: the diagram
/// node counts are charged first, then a lower bound of the explicit
/// engine's work (`|on| · width · |off|` raise probes). If either exceeds
/// the budget the explicit search is guaranteed to give up too, so `None`
/// comes back in O(implicit size) instead of after an exponential
/// enumeration. Within budget the result is byte-identical to
/// [`minimize_exact`] on the canonically ordered minterm covers.
pub fn minimize_exact_implicit(
    pool: &mut ImplicitPool,
    on: ImplicitCover,
    off: ImplicitCover,
    budget: &QmBudget,
) -> Option<Cover> {
    debug_assert!(!pool.intersects(on, off), "on/off must be disjoint");
    let width = pool.width() as u128;
    if on.is_empty() {
        return Some(Cover::empty(pool.width()));
    }
    let max = budget.max_nodes as u128;
    let nodes = (pool.node_count(on) + pool.node_count(off)) as u128;
    if nodes > max {
        return None;
    }
    let n = pool.count(on);
    let m = pool.count(off);
    // Lower bound of the explicit engine's spend: popping the |on| seed
    // minterms charges 1 + width·(1 + |off|) work units each.
    let lower = n.saturating_mul(1 + width.saturating_mul(1 + m));
    if lower > max {
        return None;
    }
    let on_cover = pool.minterms_cover(on);
    let off_cover = pool.minterms_cover(off);
    minimize_exact(&on_cover, &off_cover, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::espresso::minimize;

    fn cover(cubes: &[&str]) -> Cover {
        cubes.iter().map(|s| Cube::from_str_cube(s)).collect()
    }

    /// All assignments over `width` variables.
    fn assignments(width: usize) -> impl Iterator<Item = Vec<bool>> {
        (0..(1u32 << width)).map(move |x| (0..width).map(|i| (x >> i) & 1 == 1).collect())
    }

    fn set_of(pool: &mut ImplicitPool, cubes: &[&str]) -> ImplicitCover {
        let c = cover(cubes);
        pool.cover_set(&c)
    }

    #[test]
    fn set_algebra_matches_pointwise() {
        let mut pool = ImplicitPool::new(4);
        let a = set_of(&mut pool, &["1--0", "01--"]);
        let b = set_of(&mut pool, &["1---", "--11"]);
        let u = pool.union(a, b);
        let i = pool.intersect(a, b);
        let d = pool.diff(a, b);
        let n = pool.complement(a);
        let ca = cover(&["1--0", "01--"]);
        let cb = cover(&["1---", "--11"]);
        for bits in assignments(4) {
            let ia = ca.covers_bits(&bits);
            let ib = cb.covers_bits(&bits);
            let m = Cube::minterm(bits.iter().copied());
            let mut p = pool.clone();
            let ms = p.cube_set(&m);
            assert_eq!(p.intersects(ms, u), ia || ib, "{bits:?} union");
            assert_eq!(p.intersects(ms, i), ia && ib, "{bits:?} intersect");
            assert_eq!(p.intersects(ms, d), ia && !ib, "{bits:?} diff");
            assert_eq!(p.intersects(ms, n), !ia, "{bits:?} complement");
        }
    }

    #[test]
    fn canonicity_equal_sets_share_ids() {
        let mut pool = ImplicitPool::new(3);
        let a = set_of(&mut pool, &["1--", "-1-"]);
        let b = set_of(&mut pool, &["-1-", "1--"]);
        assert_eq!(a, b);
        let c = set_of(&mut pool, &["11-", "10-", "01-", "-1-"]);
        assert_eq!(a, c, "same point set, different cube lists");
    }

    #[test]
    fn cofactor_matches_pointwise() {
        let mut pool = ImplicitPool::new(3);
        let a = set_of(&mut pool, &["1-0", "01-"]);
        let ca = cover(&["1-0", "01-"]);
        for var in 0..3 {
            for value in [false, true] {
                let cof = pool.cofactor(a, var, value);
                for mut bits in assignments(3) {
                    // Membership of the cofactor must not depend on `var`.
                    bits[var] = value;
                    let m = Cube::minterm(bits.iter().copied());
                    let ms = pool.cube_set(&m);
                    assert_eq!(
                        pool.intersects(ms, cof),
                        ca.covers_bits(&bits),
                        "var {var}={value:?} at {bits:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn copy_set_from_lands_on_the_same_point_set() {
        let mut src = ImplicitPool::new(4);
        // Populate the source pool with unrelated garbage first so the
        // copied ids cannot accidentally line up.
        let _ = set_of(&mut src, &["0--1", "--00"]);
        let a = set_of(&mut src, &["1--0", "01--", "--11"]);
        let mut dst = ImplicitPool::new(4);
        let b = dst.copy_set_from(&src, a);
        assert_eq!(src.minterms_cover(a).cubes(), dst.minterms_cover(b).cubes());
        // Terminals pass through unchanged.
        assert_eq!(dst.copy_set_from(&src, src.empty()), dst.empty());
        assert_eq!(dst.copy_set_from(&src, src.full()), dst.full());
        // Copying into a non-empty pool hash-conses against what is
        // already there: the same set copied twice shares one handle.
        assert_eq!(dst.copy_set_from(&src, a), b);
    }

    #[test]
    fn from_minterms_equals_per_point_union() {
        // Rows come scrambled and repeated, then canonically sorted. Width
        // 70 packs two blocks per row: points come in groups of four that
        // share variables 0..64 and differ only in the second block, so a
        // sort key that mishandled the second block would pass a mis-sorted
        // run to the builder. At width 5 every bit varies and 40 draws
        // from 32 points repeat some.
        let hash = |k: u64| k.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29) ^ k;
        for width in [5usize, 70] {
            let point = |k: u64| -> Vec<bool> {
                (0..width)
                    .map(|i| {
                        let word = if i + 6 < width { hash(k / 4) } else { hash(k) };
                        (word >> (i % 64)) & 1 == 1
                    })
                    .collect()
            };
            let n = 40u64;
            let pushes: Vec<u64> = (0..n).map(|k| k * 7 % n).chain((0..10).rev()).collect();
            let mut pool = ImplicitPool::new(width);
            let mut one_by_one = pool.empty();
            let mut list = MintermList::new(width);
            for &k in &pushes {
                let m = Cube::minterm(point(k));
                let ms = pool.cube_set(&m);
                one_by_one = pool.union(one_by_one, ms);
                list.push(point(k));
            }
            let bulk = pool.from_minterms(&mut list);
            assert_eq!(bulk, one_by_one, "width {width}");
            let mut points: Vec<Cube> = pushes.iter().map(|&k| Cube::minterm(point(k))).collect();
            points.sort_by(Cube::cmp_canonical);
            let mut sorted = MintermList::new(width);
            for c in &points {
                sorted.push((0..width).map(|v| c.get(v) == Literal::One));
            }
            assert_eq!(pool.from_minterms(&mut sorted), one_by_one, "width {width}");
            points.dedup();
            assert_eq!(
                pool.count(bulk),
                points.len() as u128,
                "duplicate rows collapse"
            );
        }
    }

    #[test]
    fn cmp_minterm_rows_matches_canonical_cube_order() {
        let hash = |k: u64| k.wrapping_mul(0xD6E8_FEB8_6659_FD93).rotate_left(17) ^ k;
        let width = 70;
        let pack = |c: &Cube| -> Vec<u64> {
            let mut row = vec![0u64; 2];
            for v in 0..width {
                if c.get(v) == Literal::One {
                    row[v / 64] |= 1 << (v % 64);
                }
            }
            row
        };
        // Groups of three share the first block and differ in the second.
        let cubes: Vec<Cube> = (0..12u64)
            .map(|k| {
                let word = |i: usize| if i < 64 { hash(k / 3) } else { hash(k) };
                Cube::minterm((0..width).map(|i| (word(i) >> (i % 64)) & 1 == 1))
            })
            .collect();
        for a in &cubes {
            for b in &cubes {
                assert_eq!(
                    cmp_minterm_rows(&pack(a), &pack(b)),
                    a.cmp_canonical(b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn first_minterm_is_canonical_min() {
        let mut pool = ImplicitPool::new(3);
        let a = set_of(&mut pool, &["11-", "-01"]);
        // Points: 110, 111, 001, 101 → canonical min (var order, 0<1): 001.
        assert_eq!(pool.first_minterm(a), Some(vec![false, false, true]));
        let empty = pool.empty();
        assert_eq!(pool.first_minterm(empty), None);
    }

    #[test]
    fn count_and_node_count() {
        let mut pool = ImplicitPool::new(10);
        let full = pool.full();
        assert_eq!(pool.count(full), 1024);
        assert_eq!(pool.node_count(full), 0);
        let a = set_of(&mut pool, &["1---------"]);
        assert_eq!(pool.count(a), 512);
        assert_eq!(pool.node_count(a), 1);
        let empty = pool.empty();
        assert_eq!(pool.count(empty), 0);
    }

    #[test]
    fn supercube_matches_explicit() {
        let mut pool = ImplicitPool::new(4);
        for cubes in [
            vec!["1100", "1010"],
            vec!["0---"],
            vec!["1111", "0000"],
            vec!["01-0", "011-"],
        ] {
            let s = set_of(&mut pool, &cubes);
            let sup = pool.supercube(s).expect("non-empty");
            // Explicit supercube over the materialised minterms.
            let minterms = pool.minterms_cover(s);
            let mut expected = minterms.cubes()[0].clone();
            for m in &minterms.cubes()[1..] {
                expected = expected.supercube(m);
            }
            assert_eq!(sup, expected, "{cubes:?}");
        }
        let empty = pool.empty();
        assert!(pool.supercube(empty).is_none());
    }

    #[test]
    fn to_cover_is_disjoint_and_exact() {
        let mut pool = ImplicitPool::new(4);
        let s = set_of(&mut pool, &["11--", "1-1-", "--01"]);
        let c = pool.to_cover(s);
        let reference = cover(&["11--", "1-1-", "--01"]);
        for bits in assignments(4) {
            assert_eq!(c.covers_bits(&bits), reference.covers_bits(&bits));
        }
        // Pairwise disjoint cubes.
        for (i, a) in c.cubes().iter().enumerate() {
            for b in &c.cubes()[i + 1..] {
                assert!(a.disjoint(b), "{a} overlaps {b}");
            }
        }
    }

    #[test]
    fn minterms_cover_is_sorted_and_complete() {
        let mut pool = ImplicitPool::new(3);
        let s = set_of(&mut pool, &["1--"]);
        let m = pool.minterms_cover(s);
        let strs: Vec<String> = m.cubes().iter().map(ToString::to_string).collect();
        assert_eq!(strs, vec!["100", "101", "110", "111"]);
    }

    #[test]
    fn minimize_implicit_fig1() {
        let mut pool = ImplicitPool::new(3);
        let on = set_of(&mut pool, &["100", "101", "110", "111", "001", "011"]);
        let off = set_of(&mut pool, &["010", "000"]);
        let min = minimize_implicit(&mut pool, on, off);
        assert_eq!(min.to_expression_string(&["a", "b", "c"]), "a + c");
    }

    #[test]
    fn minimize_implicit_matches_explicit_on_partitions() {
        // Deterministic seed sweep; the full random pin lives in the
        // proptest suite.
        for seed in [1u64, 7, 42, 0xDEAD_BEEF, 0x1234_5678_9ABC] {
            let width = 5usize;
            let mut on = Cover::empty(width);
            let mut off = Cover::empty(width);
            for x in 0..(1u32 << width) {
                let bits: Vec<bool> = (0..width).map(|i| (x >> i) & 1 == 1).collect();
                match (seed >> (x as usize % 60)) & 0b11 {
                    0 => on.push(Cube::minterm(bits)),
                    1 => off.push(Cube::minterm(bits)),
                    _ => {}
                }
            }
            canonical_order(&mut on);
            canonical_order(&mut off);
            let mut pool = ImplicitPool::new(width);
            let on_i = pool.cover_set(&on);
            let off_i = pool.cover_set(&off);
            let implicit = minimize_implicit(&mut pool, on_i, off_i);
            let explicit = if on.is_empty() {
                on.clone()
            } else {
                minimize(&on, &off)
            };
            assert_eq!(
                implicit.cubes(),
                explicit.cubes(),
                "seed {seed}: {implicit} vs {explicit}"
            );
        }
    }

    #[test]
    fn running_union_phases_match_the_explicit_phases() {
        // IRREDUNDANT and REDUCE decide each cube against a running union of
        // the rest of the cover; pin every decision against the explicit
        // phases, which rebuild the rest per cube. The covers are expanded
        // primes plus random off-set-free cubes, so IRREDUNDANT has
        // redundancy to remove and REDUCE many overlapping cubes to shrink.
        use crate::espresso::{expand, irredundant, reduce};
        let width = 7usize;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..150 {
            let seed = next();
            let mut on = Cover::empty(width);
            let mut off = Cover::empty(width);
            for x in 0..(1u32 << width) {
                let bits: Vec<bool> = (0..width).map(|i| (x >> i) & 1 == 1).collect();
                match (seed >> (x as usize % 61)) & 0b11 {
                    0 | 1 => on.push(Cube::minterm(bits)),
                    2 => off.push(Cube::minterm(bits)),
                    _ => {}
                }
            }
            if on.is_empty() {
                continue;
            }
            let mut f = on.clone();
            expand(&mut f, &off);
            for _ in 0..12 {
                let word = next();
                let cube: String = (0..width)
                    .map(|v| ['0', '1', '-', '-'][(word >> (2 * v)) as usize & 3])
                    .collect();
                let cube = Cube::from_str_cube(&cube);
                if !off.cubes().iter().any(|o| o.intersects(&cube)) {
                    f.push(cube);
                }
            }
            let mut pool = ImplicitPool::new(width);
            let on_set = pool.cover_set(&on);
            let mut implicit = f.clone();
            irredundant_implicit(&mut pool, &mut implicit, on_set);
            irredundant(&mut f, &on);
            assert_eq!(implicit.cubes(), f.cubes(), "IRREDUNDANT, seed {seed:#x}");
            reduce_implicit(&mut pool, &mut implicit, on_set);
            reduce(&mut f, &on);
            assert_eq!(implicit.cubes(), f.cubes(), "REDUCE, seed {seed:#x}");
        }
    }

    #[test]
    fn minimize_implicit_xor_returns_minterms() {
        // XOR cannot be improved: the explicit path returns the input
        // minterm cover; the implicit path must materialise the same.
        let mut pool = ImplicitPool::new(2);
        let on = set_of(&mut pool, &["10", "01"]);
        let off = set_of(&mut pool, &["11", "00"]);
        let min = minimize_implicit(&mut pool, on, off);
        let on_cover = cover(&["01", "10"]);
        let explicit = minimize(&on_cover, &cover(&["00", "11"]));
        assert_eq!(min.cubes(), explicit.cubes());
    }

    #[test]
    fn minimize_exact_implicit_within_budget_matches() {
        let mut pool = ImplicitPool::new(3);
        let on = set_of(&mut pool, &["110", "100"]);
        let off = set_of(&mut pool, &["0--", "1-1"]);
        let min = minimize_exact_implicit(&mut pool, on, off, &QmBudget::default())
            .expect("small problem");
        assert_eq!(min.len(), 1);
        assert_eq!(min.cubes()[0].to_string(), "1-0");
    }

    #[test]
    fn minimize_exact_implicit_gives_up_without_materialising() {
        // A wide on/off pair whose explicit lower bound alone blows a tiny
        // budget: the give-up must not enumerate the (large) point sets.
        let mut pool = ImplicitPool::new(40);
        let full = pool.full();
        let zero_half = {
            let c = Cube::from_str_cube(&("0".to_owned() + &"-".repeat(39)));
            pool.cube_set(&c)
        };
        let one_half = pool.diff(full, zero_half);
        let tiny = QmBudget {
            max_primes: 10,
            max_nodes: 1_000,
        };
        assert!(minimize_exact_implicit(&mut pool, one_half, zero_half, &tiny).is_none());
    }

    #[test]
    fn empty_on_set_minimises_to_empty() {
        let mut pool = ImplicitPool::new(3);
        let empty = pool.empty();
        let off = pool.full();
        assert!(minimize_implicit(&mut pool, empty, off).is_empty());
        let exact =
            minimize_exact_implicit(&mut pool, empty, off, &QmBudget::default()).expect("trivial");
        assert!(exact.is_empty());
    }
}
