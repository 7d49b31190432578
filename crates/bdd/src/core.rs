//! The node substrate: one owned node store, a unique subtable per level,
//! the memoised operation caches, and the interruptible recursive kernels
//! that run over them.
//!
//! The manager owns the only [`Core`]; kernels are `&mut self` methods over
//! plain tables:
//!
//! * **Node store.** Nodes live in one growable `Vec`. A new node pops the
//!   free list (slots released by garbage collection or reordering) or else
//!   appends, so node ids depend only on the sequence of operations.
//! * **Unique table.** One subtable per level, keyed by the children
//!   `(lo, hi)`. A growing subtable rehashes only its own level, and
//!   sifting reads a level's nodes straight from its subtable.
//! * **Operation caches.** `ite`, `exists` and `and_exists` results are
//!   memoised in direct-mapped [`LossyCache`]s: one slot per hash, a
//!   collision overwrites. Each grows with the node store to one slot per
//!   4–8 allocated nodes, between [`CACHE_FLOOR`] and [`CACHE_CAP`] slots,
//!   so cache memory stays a bounded fraction of the pool. An evicted
//!   result is recomputed to the same canonical node.
//! * **Cooperative interruption.** Kernels count their steps and every
//!   [`CHECK_INTERVAL`] steps sample the pool peak and compare the pool
//!   with the armed limit. Over it, the kernel unwinds with [`Interrupted`],
//!   and the manager collects garbage (and may reorder) at the API boundary
//!   before retrying: the reentrant maintenance that keeps one monster
//!   operation from blowing the budget between the driver's own
//!   checkpoints.

use std::collections::hash_map::Entry;

use si_cubes::fx::{FxMap, LossyCache};

/// Terminal node id for the constant 0 function.
pub(crate) const ZERO: u32 = 0;
/// Terminal node id for the constant 1 function.
pub(crate) const ONE: u32 = 1;
/// Level sentinel marking a pool slot freed by garbage collection (terminal
/// slots use `u32::MAX`, so the two are never confused).
pub(crate) const FREE: u32 = u32::MAX - 1;
/// Level stored in the terminal slots.
const TERMINAL_LEVEL: u32 = u32::MAX;

/// Node-store capacity: 2^31 slots — far above any budgeted run.
const MAX_NODES: usize = 1 << 31;

/// Kernel steps (recursive calls that miss the short-circuits, plus node
/// constructions) between interruption polls. The interval amortises the
/// poll and bounds how far past the live-node limit one operation can run
/// before maintenance fires.
const CHECK_INTERVAL: u64 = 1024;

/// Marker error unwinding an interrupted kernel to the API boundary, where
/// the manager runs reentrant maintenance and retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interrupted;

pub(crate) type OpResult = Result<u32, Interrupted>;

/// Slots each operation cache starts with (64 KB for the 16-byte `ite`
/// slots).
const CACHE_FLOOR: usize = 1 << 12;
/// Slots an operation cache never grows past (64 MB of `ite` slots, reached
/// at 16 M allocated nodes).
const CACHE_CAP: usize = 1 << 22;

/// One node slot: the branch level and the two children.
#[derive(Clone, Copy)]
struct Node {
    level: u32,
    lo: u32,
    hi: u32,
}

/// The tables every kernel runs over, owned by one manager.
pub(crate) struct Core {
    pub(crate) num_vars: usize,
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// `unique[level]`: `(lo, hi) → id` for every live node at that level.
    /// A level swap moves the lower level's subtable up whole.
    pub(crate) unique: Vec<FxMap<(u32, u32), u32>>,
    ite_cache: LossyCache<(u32, u32, u32)>,
    exists_cache: LossyCache<(u32, u32)>,
    and_exists_cache: LossyCache<(u32, u32, u32)>,
    /// Kernel steps since the trip was last armed: one operation attempt.
    steps: u64,
    /// Live-pool size above which kernels trip (`usize::MAX` = disabled).
    trip_limit: usize,
    /// Largest pool size observed at any interruption poll — the mid-op
    /// allocation peak the between-iteration statistics cannot see.
    peak_pool: usize,
}

impl Core {
    pub(crate) fn new(num_vars: usize) -> Core {
        Core::with_cache_bounds(num_vars, CACHE_FLOOR, CACHE_CAP)
    }

    fn with_cache_bounds(num_vars: usize, floor: usize, cap: usize) -> Core {
        let terminal = |id| Node {
            level: TERMINAL_LEVEL,
            lo: id,
            hi: id,
        };
        Core {
            num_vars,
            nodes: vec![terminal(ZERO), terminal(ONE)],
            free: Vec::new(),
            unique: vec![FxMap::default(); num_vars],
            ite_cache: LossyCache::new(floor, cap),
            exists_cache: LossyCache::new(floor, cap),
            and_exists_cache: LossyCache::new(floor, cap),
            steps: 0,
            trip_limit: usize::MAX,
            peak_pool: 0,
        }
    }

    /// Number of live non-terminal nodes (allocated minus freed).
    #[inline]
    pub(crate) fn pool_size(&self) -> usize {
        self.nodes.len() - 2 - self.free.len()
    }

    /// Number of pool slots ever allocated (live or freed).
    #[inline]
    pub(crate) fn allocated_size(&self) -> usize {
        self.nodes.len() - 2
    }

    /// Allocation high-water mark, terminals included: every id is below it.
    #[inline]
    pub(crate) fn slot_count(&self) -> usize {
        self.nodes.len()
    }

    /// The mid-operation pool peak sampled at interruption polls.
    pub(crate) fn peak_pool(&self) -> usize {
        self.peak_pool.max(self.pool_size())
    }

    /// Arms (or disarms, with `usize::MAX`) the mid-operation trip limit
    /// and starts a new operation attempt's step count.
    pub(crate) fn arm_trip(&mut self, limit: usize) {
        self.trip_limit = limit;
        self.steps = 0;
    }

    /// One kernel step: every [`CHECK_INTERVAL`] steps, sample the pool
    /// peak and unwind with [`Interrupted`] if the pool exceeds the armed
    /// limit.
    #[inline]
    fn tick(&mut self) -> Result<(), Interrupted> {
        self.steps += 1;
        if self.steps.is_multiple_of(CHECK_INTERVAL) {
            let pool = self.pool_size();
            self.peak_pool = self.peak_pool.max(pool);
            if pool > self.trip_limit {
                return Err(Interrupted);
            }
        }
        Ok(())
    }

    /// Raw slot read: `(level, lo, hi)` with no liveness check.
    #[inline]
    pub(crate) fn raw(&self, id: u32) -> (u32, u32, u32) {
        let Node { level, lo, hi } = self.nodes[id as usize];
        (level, lo, hi)
    }

    /// Checked node read: `(level, lo, hi)`. Every walk goes through here
    /// so a stale handle trips the assertion instead of silently reading a
    /// freed (possibly reused) slot.
    #[inline]
    pub(crate) fn node(&self, n: u32) -> (u32, u32, u32) {
        let raw = self.raw(n);
        debug_assert!(
            raw.0 != FREE,
            "stale Bdd handle: node {n} was garbage-collected"
        );
        raw
    }

    #[inline]
    pub(crate) fn level(&self, n: u32) -> u32 {
        if n <= ONE {
            self.num_vars as u32
        } else {
            self.node(n).0
        }
    }

    /// Splits `n` at `level`: its children if it branches there, `(n, n)`
    /// if the level is unconstrained.
    #[inline]
    pub(crate) fn children_at(&self, n: u32, level: u32) -> (u32, u32) {
        if n > ONE {
            let (l, lo, hi) = self.node(n);
            if l == level {
                return (lo, hi);
            }
        }
        (n, n)
    }

    /// Hash-consed node constructor with the `lo == hi` reduction and an
    /// interruption poll.
    fn mk(&mut self, level: u32, lo: u32, hi: u32) -> OpResult {
        if lo == hi {
            return Ok(lo);
        }
        self.tick()?;
        Ok(self.mk_unchecked(level, lo, hi))
    }

    /// [`mk`](Self::mk) without the interruption poll — for bounded
    /// builders (variables, cubes, reordering) that must not unwind. A new
    /// node takes the most recently freed slot, else a fresh one at the end.
    pub(crate) fn mk_unchecked(&mut self, level: u32, lo: u32, hi: u32) -> u32 {
        if lo == hi {
            return lo;
        }
        debug_assert!(
            (lo <= ONE || self.raw(lo).0 != FREE) && (hi <= ONE || self.raw(hi).0 != FREE),
            "stale Bdd handle: child of a new node was garbage-collected"
        );
        match self.unique[level as usize].entry((lo, hi)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let node = Node { level, lo, hi };
                let id = match self.free.pop() {
                    Some(id) => {
                        self.nodes[id as usize] = node;
                        id
                    }
                    None => {
                        assert!(self.nodes.len() < MAX_NODES, "BDD node store exhausted");
                        self.nodes.push(node);
                        let allocated = self.nodes.len();
                        self.ite_cache.fit(allocated);
                        self.exists_cache.fit(allocated);
                        self.and_exists_cache.fit(allocated);
                        (allocated - 1) as u32
                    }
                };
                e.insert(id);
                id
            }
        }
    }

    /// The memoised ITE kernel: `f·g + f̅·h`.
    pub(crate) fn ite_rec(&mut self, f: u32, g: u32, h: u32) -> OpResult {
        // Terminal short-circuits.
        if f == ONE {
            return Ok(g);
        }
        if f == ZERO {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g == ONE && h == ZERO {
            return Ok(f);
        }
        self.tick()?;
        let key = (f, g, h);
        if let Some(r) = self.ite_cache.get(&key) {
            return Ok(r);
        }
        let level = self.level(f).min(self.level(g)).min(self.level(h));
        let (f0, f1) = self.children_at(f, level);
        let (g0, g1) = self.children_at(g, level);
        let (h0, h1) = self.children_at(h, level);
        let lo = self.ite_rec(f0, g0, h0)?;
        let hi = self.ite_rec(f1, g1, h1)?;
        let r = self.mk(level, lo, hi)?;
        self.ite_cache.insert(key, r);
        Ok(r)
    }

    /// Existential quantification `∃ cube. f` (memoised), with the
    /// cube-skipping normalisation above `f`'s support.
    pub(crate) fn exists_rec(&mut self, f: u32, mut cube: u32) -> OpResult {
        if f <= ONE {
            return Ok(f);
        }
        // Quantifying a variable above f's support is the identity.
        while cube > ONE && self.level(cube) < self.level(f) {
            cube = self.node(cube).2;
        }
        if cube == ONE {
            return Ok(f);
        }
        self.tick()?;
        let key = (f, cube);
        if let Some(r) = self.exists_cache.get(&key) {
            return Ok(r);
        }
        let level = self.level(f);
        let (f0, f1) = self.children_at(f, level);
        let r = if self.level(cube) == level {
            let rest = self.node(cube).2;
            let lo = self.exists_rec(f0, rest)?;
            if lo == ONE {
                ONE
            } else {
                let hi = self.exists_rec(f1, rest)?;
                self.ite_rec(lo, ONE, hi)?
            }
        } else {
            let lo = self.exists_rec(f0, cube)?;
            let hi = self.exists_rec(f1, cube)?;
            self.mk(level, lo, hi)?
        };
        self.exists_cache.insert(key, r);
        Ok(r)
    }

    /// The relational product `∃ cube. f · g` in one pass (memoised).
    pub(crate) fn and_exists_rec(&mut self, f: u32, g: u32, mut cube: u32) -> OpResult {
        if f == ZERO || g == ZERO {
            return Ok(ZERO);
        }
        if f == ONE {
            return self.exists_rec(g, cube);
        }
        if g == ONE || f == g {
            return self.exists_rec(f, cube);
        }
        let top = self.level(f).min(self.level(g));
        while cube > ONE && self.level(cube) < top {
            cube = self.node(cube).2;
        }
        if cube == ONE {
            return self.ite_rec(f, g, ZERO);
        }
        self.tick()?;
        // Conjunction is commutative: normalise the key.
        let key = if f > g { (g, f, cube) } else { (f, g, cube) };
        if let Some(r) = self.and_exists_cache.get(&key) {
            return Ok(r);
        }
        let (f0, f1) = self.children_at(f, top);
        let (g0, g1) = self.children_at(g, top);
        let r = if self.level(cube) == top {
            let rest = self.node(cube).2;
            let lo = self.and_exists_rec(f0, g0, rest)?;
            if lo == ONE {
                ONE
            } else {
                let hi = self.and_exists_rec(f1, g1, rest)?;
                self.ite_rec(lo, ONE, hi)?
            }
        } else {
            let lo = self.and_exists_rec(f0, g0, cube)?;
            let hi = self.and_exists_rec(f1, g1, cube)?;
            self.mk(top, lo, hi)?
        };
        self.and_exists_cache.insert(key, r);
        Ok(r)
    }

    // ------------------------------------------------------------------
    // Maintenance support: collection and reordering.
    // ------------------------------------------------------------------

    /// Empties every operation-cache slot (reordering retires nodes
    /// without mark information, so selective purging is impossible).
    pub(crate) fn clear_caches(&mut self) {
        self.ite_cache.clear();
        self.exists_cache.clear();
        self.and_exists_cache.clear();
    }

    /// Empties the cache slots touching any id for which `dead` holds: one
    /// sweep over each table.
    pub(crate) fn purge_caches(&mut self, dead: impl Fn(u32) -> bool) {
        let alive = |n: u32| !dead(n);
        self.ite_cache
            .retain(|&(f, g, h), r| alive(f) && alive(g) && alive(h) && alive(r));
        self.exists_cache
            .retain(|&(f, cube), r| alive(f) && alive(cube) && alive(r));
        self.and_exists_cache
            .retain(|&(f, g, cube), r| alive(f) && alive(g) && alive(cube) && alive(r));
    }

    /// Relabels a slot in place (reordering only).
    #[inline]
    pub(crate) fn set_level(&mut self, id: u32, level: u32) {
        self.nodes[id as usize].level = level;
    }

    /// Rewrites all fields of a live slot in place (reordering only).
    #[inline]
    pub(crate) fn rewrite(&mut self, id: u32, level: u32, lo: u32, hi: u32) {
        self.nodes[id as usize] = Node { level, lo, hi };
    }

    /// Unlinks a live node from its level's subtable and pushes its slot
    /// onto the free list. Panics (via the debug assertion) if the table is
    /// out of sync.
    pub(crate) fn free_node(&mut self, id: u32) {
        let Node { level, lo, hi } = self.nodes[id as usize];
        let removed = self.unique[level as usize].remove(&(lo, hi));
        debug_assert_eq!(removed, Some(id), "unique table out of sync");
        self.nodes[id as usize] = Node {
            level: FREE,
            lo: 0,
            hi: 0,
        };
        self.free.push(id);
    }

    /// Shrinks every level's subtable to its live nodes. A level's table
    /// only grows on its own, and the levels do not peak together (a sift
    /// moves each subtable with its variable), so without this the tables
    /// together hold room for the sum of the per-level peaks. Measured on
    /// `benchmarks/wide_arbiter_20.g` (symbolic engine): peak RSS 152 →
    /// 148 MB at the default budget, 162 → 155 MB at `--budget 400000`.
    pub(crate) fn shrink_unique(&mut self) {
        self.unique.iter_mut().for_each(FxMap::shrink_to_fit);
    }

    /// Number of free-list entries (invariant checking).
    pub(crate) fn free_len(&self) -> usize {
        self.free.len()
    }

    /// Every node id an operation-cache slot names, operands and results
    /// alike (invariant checking).
    pub(crate) fn cached_ids(&self) -> impl Iterator<Item = u32> + '_ {
        let ite = self
            .ite_cache
            .entries()
            .flat_map(|((f, g, h), r)| [f, g, h, r]);
        let exists = self
            .exists_cache
            .entries()
            .flat_map(|((f, cube), r)| [f, cube, r]);
        let and_exists =
            (self.and_exists_cache.entries()).flat_map(|((f, g, cube), r)| [f, g, cube, r]);
        ite.chain(exists).chain(and_exists)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::BddManager;

    impl Core {
        /// A core whose operation caches stay at `slots` slots whatever
        /// the pool does, so nearly every insert evicts: the tests' way to
        /// hold a lossy table to exact results.
        pub(crate) fn with_pinned_caches(num_vars: usize, slots: usize) -> Core {
            Core::with_cache_bounds(num_vars, slots, slots)
        }

        /// Slot counts of the `ite`, `exists` and `and_exists` caches.
        fn cache_slots(&self) -> [usize; 3] {
            [
                self.ite_cache.slot_count(),
                self.exists_cache.slot_count(),
                self.and_exists_cache.slot_count(),
            ]
        }
    }

    #[test]
    fn caches_grow_with_the_node_store_within_floor_and_cap() {
        // Or-ing in a few thousand random 16-literal minterms allocates
        // tens of thousands of nodes; every cache must track them.
        let mut mgr = BddManager::new(16);
        assert_eq!(mgr.core.cache_slots(), [CACHE_FLOOR; 3]);
        let mut state = 1u32;
        let mut f = mgr.zero();
        for _ in 0..3000 {
            state = state.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            let lits: Vec<(usize, bool)> =
                (0..16).map(|v| (v, (state >> (v + 8)) & 1 == 1)).collect();
            let m = mgr.cube(&lits);
            f = mgr.or(f, m);
            let allocated = mgr.core.slot_count();
            for slots in mgr.core.cache_slots() {
                assert!(slots <= CACHE_CAP && slots <= CACHE_FLOOR.max(allocated / 4));
                assert!(slots == CACHE_CAP || allocated <= slots * 8);
            }
        }
        assert!(
            mgr.core.cache_slots()[0] > CACHE_FLOOR,
            "the pool outgrew the floor"
        );
        assert!(mgr.sat_count(f) <= 3000);
    }
}
