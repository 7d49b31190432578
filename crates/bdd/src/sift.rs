//! Dynamic variable reordering: in-place adjacent-level swaps and
//! Rudell-style sifting.
//!
//! BDD sizes are exquisitely order-sensitive, and the adjacency-seeded
//! static order ([`crate::order_from_adjacency`]) has nothing to offer when
//! the interaction graph is dense — wide arbitration and many-way choice
//! produce near-cliques whose breadth-first layout is as good as arbitrary.
//! Sifting recovers at runtime: each variable is moved through every level
//! by adjacent swaps and parked where the live pool is smallest
//! ([`BddManager::reorder_sift`]), with a growth cap aborting hopeless
//! directions early. The [`AutoReorder`] policy triggers sifting on pool
//! growth with CUDD-style doubling thresholds, so the cost amortises away
//! once a good order is found.
//!
//! A swap rewrites the two affected levels **in place**: every node keeps
//! its id and the function it denotes, so caller-held [`Bdd`] handles
//! survive arbitrary reordering. Both entry points first run
//! [`gc`](BddManager::gc) (the swap's reference counts must be exact), so
//! unprotected handles are collected — and then flush the memoised
//! operation caches: swaps retire nodes without mark information, so
//! entries cannot be purged selectively the way `gc` alone does.
//!
//! The sharded unique table is keyed globally by `(level, lo, hi)`, so the
//! per-level enumeration a swap needs comes from *level lists* — id lists
//! per level built by one pool scan at reorder entry and maintained for the
//! two levels each swap rewrites. Cascading unlinks leave stale ids in
//! deeper levels' lists; consumers filter them lazily by checking that a
//! listed node still lives at that level.

use std::time::Instant;

use crate::core::{FREE, ONE};
use crate::manager::BddManager;

/// When to run garbage collection + sifting during a symbolic fixpoint.
///
/// The policy is consumed by drivers (e.g. `si_petri::SymbolicReach`); the
/// manager itself only ever reorders when told to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReorderPolicy {
    /// Never reorder: keep the static order. Collection still runs, but a
    /// specification with no good static order will exhaust its node
    /// budget.
    #[default]
    Off,
    /// Reorder only under budget pressure: when the live pool exceeds the
    /// node budget even after collection, sift once as a last resort
    /// before giving up.
    Sift,
    /// Reorder proactively on pool growth ([`AutoReorder`] thresholds), as
    /// CUDD does — the right default when the static order might be bad.
    Auto,
}

impl ReorderPolicy {
    /// Parses the `off|sift|auto` spellings used by CLI flags.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(ReorderPolicy::Off),
            "sift" => Some(ReorderPolicy::Sift),
            "auto" => Some(ReorderPolicy::Auto),
            _ => None,
        }
    }
}

/// Growth-triggered reordering state: sift when the live pool outgrows a
/// threshold, then double the threshold so reordering amortises (the CUDD
/// `CUDD_REORDER_SIFT` discipline).
#[derive(Debug, Clone)]
pub struct AutoReorder {
    threshold: usize,
    max_growth: f64,
}

impl AutoReorder {
    /// The default initial trigger: small enough to catch a bad order
    /// before the pool gets expensive to sift.
    pub const DEFAULT_THRESHOLD: usize = 4096;

    /// Creates the policy with the given initial live-node trigger.
    pub fn new(initial_threshold: usize) -> Self {
        AutoReorder {
            threshold: initial_threshold.max(1),
            max_growth: BddManager::DEFAULT_MAX_GROWTH,
        }
    }

    /// The current live-node trigger.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Returns `true` when `live_nodes` exceeds the current trigger.
    pub fn due(&self, live_nodes: usize) -> bool {
        live_nodes > self.threshold
    }

    /// Raises the trigger after a reorder settled the pool at `live_nodes`,
    /// so the next sift only fires once the pool doubles again.
    pub fn rearm(&mut self, live_nodes: usize) {
        self.threshold = self.threshold.max(live_nodes.saturating_mul(2));
    }

    /// One policy step: if the live pool exceeds the trigger, collect; if
    /// it still does, sift and raise the trigger. Returns `true` when a
    /// sift ran.
    ///
    /// The caller must have [`protect`](BddManager::protect)ed every BDD it
    /// still needs — both steps collect garbage.
    pub fn maybe_reorder(&mut self, mgr: &mut BddManager) -> bool {
        if !self.due(mgr.pool_size()) {
            return false;
        }
        mgr.gc();
        if !self.due(mgr.pool_size()) {
            return false;
        }
        mgr.reorder_sift(self.max_growth);
        self.rearm(mgr.pool_size());
        true
    }
}

impl BddManager {
    /// The growth cap [`reorder_sift`](Self::reorder_sift) is usually run
    /// with: a variable stops moving in a direction once the pool doubles.
    pub const DEFAULT_MAX_GROWTH: f64 = 2.0;

    /// Swaps the variables at `level` and `level + 1` in place.
    ///
    /// Semantics-preserving and id-preserving: every live handle denotes
    /// the same function afterwards. Runs [`gc`](Self::gc) first (the swap
    /// maintains exact reference counts, which dead nodes would poison), so
    /// unprotected handles are collected — protect what you keep.
    ///
    /// # Panics
    ///
    /// Panics if `level + 1 >= num_vars`.
    pub fn swap_levels(&mut self, level: usize) {
        assert!(
            level + 1 < self.num_vars(),
            "level {level} has no successor to swap with"
        );
        self.gc();
        // Swaps retire nodes without mark information, so the memoised
        // results must go wholesale (gc alone purges selectively). The ISOP
        // tables go too: memoised covers were split on the old levels.
        self.core.clear_caches();
        self.isop.clear();
        let mut refs = self.compute_refs();
        let mut lists = self.level_lists();
        self.swap_adjacent(level, &mut refs, &mut lists);
    }

    /// Rudell sifting: every variable (most-populated levels first) is
    /// moved through all levels by adjacent swaps and parked where the live
    /// pool was smallest; a direction is abandoned early once the pool
    /// exceeds `max_growth` times its size at that variable's start
    /// ([`DEFAULT_MAX_GROWTH`](Self::DEFAULT_MAX_GROWTH) is the usual cap).
    /// Returns `(live_before, live_after)`.
    ///
    /// Collects garbage first, as [`gc`](Self::gc) does; unprotected
    /// handles are collected. Handles that survive keep their ids and
    /// functions — only the internal layout (and [`order`](Self::order))
    /// changes. Every call, opening collection included, counts as one
    /// reorder run in [`maintenance_stats`](Self::maintenance_stats).
    ///
    /// # Panics
    ///
    /// Panics if `max_growth < 1.0`.
    pub fn reorder_sift(&mut self, max_growth: f64) -> (usize, usize) {
        assert!(
            max_growth >= 1.0,
            "growth cap below 1.0 forbids standing still"
        );
        let start = Instant::now();
        let sizes = self.sift_all(max_growth);
        self.maint_stats.reorder_runs += 1;
        self.maint_stats.reorder_time += start.elapsed();
        sizes
    }

    /// The pass behind [`reorder_sift`](Self::reorder_sift).
    fn sift_all(&mut self, max_growth: f64) -> (usize, usize) {
        self.collect();
        self.core.clear_caches();
        self.isop.clear();
        let before = self.pool_size();
        if self.num_vars() < 2 || before == 0 {
            return (before, before);
        }
        let mut refs = self.compute_refs();
        let mut lists = self.level_lists();
        let occupancy: Vec<usize> = lists.iter().map(Vec::len).collect();
        // Densest levels first — the CUDD heuristic — with the occupancy
        // snapshot taken once (sifting itself redistributes the levels).
        let mut vars: Vec<usize> = (0..self.num_vars()).collect();
        vars.sort_by_key(|&v| (std::cmp::Reverse(occupancy[self.level_of[v] as usize]), v));
        for &v in &vars {
            self.sift_one(v, max_growth, &mut refs, &mut lists);
        }
        (before, self.pool_size())
    }

    /// Sifts one variable: walk it to the nearer end, sweep to the other,
    /// then settle on the best level seen. Pool size is a function of the
    /// order alone (dead nodes are unlinked as swaps create them), so
    /// revisited positions report consistent sizes.
    fn sift_one(
        &mut self,
        var: usize,
        max_growth: f64,
        refs: &mut Vec<u32>,
        lists: &mut [Vec<u32>],
    ) {
        let start = self.level_of[var] as usize;
        let start_size = self.pool_size();
        let limit = (start_size as f64 * max_growth) as usize;
        let mut best = (start_size, start);
        let mut level = start;
        let down_first = self.num_vars() - 1 - start <= start;
        self.sift_walk(&mut level, down_first, limit, &mut best, refs, lists);
        self.sift_walk(&mut level, !down_first, limit, &mut best, refs, lists);
        // Settle on the best position (ties break towards the position
        // visited first, which includes the starting level).
        while level < best.1 {
            self.swap_adjacent(level, refs, lists);
            level += 1;
        }
        while level > best.1 {
            self.swap_adjacent(level - 1, refs, lists);
            level -= 1;
        }
    }

    /// One directional walk of [`sift_one`], recording the live size at
    /// every visited level and aborting once it exceeds `limit`.
    #[allow(clippy::too_many_arguments)]
    fn sift_walk(
        &mut self,
        level: &mut usize,
        down: bool,
        limit: usize,
        best: &mut (usize, usize),
        refs: &mut Vec<u32>,
        lists: &mut [Vec<u32>],
    ) {
        loop {
            if down {
                if *level + 1 >= self.num_vars() {
                    return;
                }
                self.swap_adjacent(*level, refs, lists);
                *level += 1;
            } else {
                if *level == 0 {
                    return;
                }
                self.swap_adjacent(*level - 1, refs, lists);
                *level -= 1;
            }
            let s = self.pool_size();
            if s < best.0 {
                *best = (s, *level);
            }
            if s > limit {
                return;
            }
        }
    }

    /// Exact reference counts over the live pool (node child links plus
    /// protected-root pins). Call right after [`gc`](Self::gc): dead nodes
    /// would contribute phantom references.
    fn compute_refs(&self) -> Vec<u32> {
        let len = self.core.store.len();
        let mut refs = vec![0u32; len];
        for id in 2..len {
            let (level, lo, hi) = self.core.store.raw(id as u32);
            if level != FREE {
                refs[lo as usize] += 1;
                refs[hi as usize] += 1;
            }
        }
        for (&id, &count) in &self.roots {
            refs[id as usize] = refs[id as usize].saturating_add(count as u32);
        }
        refs
    }

    /// Per-level id lists from one pool scan — the per-level enumeration the
    /// sharded global unique table no longer provides directly. Maintained
    /// exactly for the two levels each swap rewrites; stale ids left at
    /// deeper levels by cascading unlinks are filtered on read.
    fn level_lists(&self) -> Vec<Vec<u32>> {
        let mut lists = vec![Vec::new(); self.num_vars()];
        for id in 2..self.core.store.len() {
            let level = self.core.store.level(id as u32);
            if level != FREE {
                lists[level as usize].push(id as u32);
            }
        }
        lists
    }

    /// The in-place unique-table exchange of levels `l` and `l + 1`.
    ///
    /// Invariant: every node id denotes the same function before and after.
    /// Nodes at the lower level keep their structure (their variable moves
    /// up with them); nodes at the upper level that depend on the lower
    /// variable are rewritten in place with fresh children one level down;
    /// upper nodes independent of it slide down unchanged. Lower nodes left
    /// unreferenced are unlinked immediately (cascading into their
    /// children), keeping `refs` and the live count exact throughout.
    fn swap_adjacent(&mut self, l: usize, refs: &mut Vec<u32>, lists: &mut [Vec<u32>]) {
        let lu = l as u32;
        let ll = (l + 1) as u32;
        // Filter the level lists down to the ids actually living at each
        // level (stale entries from earlier cascaded unlinks drop out), and
        // sort: list order must not leak into allocation order.
        let mut upper: Vec<u32> = lists[l]
            .iter()
            .copied()
            .filter(|&n| self.core.store.level(n) == lu)
            .collect();
        let mut lower: Vec<u32> = lists[l + 1]
            .iter()
            .copied()
            .filter(|&n| self.core.store.level(n) == ll)
            .collect();
        upper.sort_unstable();
        lower.sort_unstable();
        // Unregister both levels wholesale before rewriting: a lower node's
        // relabelled key could transiently collide with an upper node's
        // still-registered one.
        for &m in &lower {
            let (_, lo, hi) = self.core.node(m);
            self.core.unique_remove(ll, lo, hi, m);
        }
        for &n in &upper {
            let (_, f0, f1) = self.core.node(n);
            self.core.unique_remove(lu, f0, f1, n);
        }

        // 1. Lower nodes keep their children; their variable moves up.
        for &m in &lower {
            let (_, lo, hi) = self.core.node(m);
            self.core.store.set_level(m, lu);
            let prev = self.core.unique_insert(lu, lo, hi, m);
            debug_assert!(prev.is_none(), "duplicate key while relabelling up");
        }

        // 2. Upper nodes independent of the lower variable slide down
        //    unchanged. They must be registered before step 3 so dependent
        //    rewrites hash-cons against them.
        let mut dependent: Vec<u32> = Vec::new();
        let mut slid: Vec<u32> = Vec::new();
        for &n in &upper {
            let (_, f0, f1) = self.core.node(n);
            // Children sat strictly below level l; those now at `lu` are
            // exactly the relabelled lower nodes.
            let f0_branches = f0 > ONE && self.core.store.level(f0) == lu;
            let f1_branches = f1 > ONE && self.core.store.level(f1) == lu;
            if f0_branches || f1_branches {
                dependent.push(n);
            } else {
                self.core.store.set_level(n, ll);
                let prev = self.core.unique_insert(ll, f0, f1, n);
                debug_assert!(prev.is_none(), "duplicate key while sliding down");
                slid.push(n);
            }
        }

        // 3. Dependent upper nodes are rewritten in place:
        //    u ? (v ? f11 : f10) : (v ? f01 : f00)
        //      == v ? (u ? f11 : f01) : (u ? f10 : f00).
        let mut created: Vec<u32> = Vec::new();
        for &n in &dependent {
            let (_, f0, f1) = self.core.node(n);
            let (f00, f01) = if f0 > ONE && self.core.store.level(f0) == lu {
                let (_, a, b) = self.core.node(f0);
                (a, b)
            } else {
                (f0, f0)
            };
            let (f10, f11) = if f1 > ONE && self.core.store.level(f1) == lu {
                let (_, a, b) = self.core.node(f1);
                (a, b)
            } else {
                (f1, f1)
            };
            refs[f0 as usize] -= 1;
            refs[f1 as usize] -= 1;
            let lo = self.swap_child(ll, f00, f10, refs, &mut created);
            let hi = self.swap_child(ll, f01, f11, refs, &mut created);
            debug_assert!(lo != hi, "dependent node reduced away during swap");
            refs[lo as usize] += 1;
            refs[hi as usize] += 1;
            self.core.store.write(n, lu, lo, hi);
            let prev = self.core.unique_insert(lu, lo, hi, n);
            debug_assert!(prev.is_none(), "duplicate key at the upper level");
        }

        // 4. Lower nodes nothing references any more are dead — unlink
        //    them now so reference counts and the live size stay exact.
        for &m in &lower {
            if refs[m as usize] == 0 {
                self.unlink_dead(m, refs);
            }
        }

        // 5. The two levels trade variables, and the level lists are
        //    rebuilt exactly for the two rewritten levels (dead lower
        //    nodes drop out lazily via the level filter above).
        self.var_at.swap(l, l + 1);
        self.level_of[self.var_at[l] as usize] = lu;
        self.level_of[self.var_at[l + 1] as usize] = ll;
        let mut new_upper = lower;
        new_upper.extend_from_slice(&dependent);
        let mut new_lower = slid;
        new_lower.extend_from_slice(&created);
        lists[l] = new_upper;
        lists[l + 1] = new_lower;
    }

    /// Hash-consed child construction for [`swap_adjacent`], maintaining
    /// reference counts for newly allocated nodes and recording fresh ids
    /// for the level lists.
    fn swap_child(
        &mut self,
        level: u32,
        lo: u32,
        hi: u32,
        refs: &mut Vec<u32>,
        created: &mut Vec<u32>,
    ) -> u32 {
        if lo == hi {
            return lo;
        }
        if let Some(id) = self.core.unique_get(level, lo, hi) {
            return id;
        }
        let id = self.core.mk_unchecked(level, lo, hi);
        if id as usize >= refs.len() {
            refs.resize(id as usize + 1, 0);
        }
        refs[id as usize] = 0;
        refs[lo as usize] += 1;
        refs[hi as usize] += 1;
        created.push(id);
        id
    }

    /// Frees a dead node, cascading into children whose counts hit zero.
    fn unlink_dead(&mut self, id: u32, refs: &mut [u32]) {
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let (level, lo, hi) = self.core.node(n);
            self.core.unique_remove(level, lo, hi, n);
            self.core.release_slot(n);
            for c in [lo, hi] {
                if c > ONE {
                    refs[c as usize] -= 1;
                    if refs[c as usize] == 0 {
                        stack.push(c);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Bdd;

    /// All assignments over `width` variables, variable-index order.
    fn assignments(width: usize) -> impl Iterator<Item = Vec<bool>> {
        (0..(1u32 << width)).map(move |x| (0..width).map(|i| (x >> i) & 1 == 1).collect())
    }

    /// A 4-variable function with structure at every level.
    fn sample(mgr: &mut BddManager) -> Bdd {
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let d = mgr.nvar(3);
        let ab = mgr.and(a, b);
        let cd = mgr.xor(c, d);
        mgr.or(ab, cd)
    }

    #[test]
    fn swap_preserves_semantics_and_handles() {
        let mut mgr = BddManager::new(4);
        let f = sample(&mut mgr);
        let truth: Vec<bool> = assignments(4).map(|bits| mgr.eval(f, &bits)).collect();
        mgr.protect(f);
        for level in [0, 1, 2, 0, 2, 1, 1, 0] {
            mgr.swap_levels(level);
            mgr.assert_invariants();
            let now: Vec<bool> = assignments(4).map(|bits| mgr.eval(f, &bits)).collect();
            assert_eq!(truth, now, "after swapping level {level}");
            assert_eq!(mgr.sat_count(f), 10);
        }
        mgr.unprotect(f);
    }

    #[test]
    fn swap_is_its_own_inverse() {
        let mut mgr = BddManager::new(4);
        let f = sample(&mut mgr);
        mgr.protect(f);
        mgr.gc();
        let order = mgr.order();
        let size = mgr.pool_size();
        mgr.swap_levels(1);
        mgr.swap_levels(1);
        assert_eq!(mgr.order(), order);
        assert_eq!(mgr.pool_size(), size, "double swap must restore the pool");
        mgr.assert_invariants();
        mgr.unprotect(f);
    }

    #[test]
    fn sift_finds_the_interleaved_order() {
        // f = x0·x3 + x1·x4 + x2·x5 under the order (x0 x1 x2 x3 x4 x5) is
        // the classic exponential-vs-linear example: sifting must pull each
        // pair together and shrink the pool.
        let mut mgr = BddManager::new(6);
        let mut f = mgr.zero();
        for i in 0..3 {
            let a = mgr.var(i);
            let b = mgr.var(i + 3);
            let t = mgr.and(a, b);
            f = mgr.or(f, t);
        }
        let truth: Vec<bool> = assignments(6).map(|bits| mgr.eval(f, &bits)).collect();
        mgr.protect(f);
        mgr.gc();
        let before = mgr.pool_size();
        let (reported_before, after) = mgr.reorder_sift(BddManager::DEFAULT_MAX_GROWTH);
        assert_eq!(reported_before, before);
        assert!(after < before, "sifting must shrink {before} nodes");
        assert_eq!(after, mgr.pool_size());
        mgr.assert_invariants();
        let now: Vec<bool> = assignments(6).map(|bits| mgr.eval(f, &bits)).collect();
        assert_eq!(truth, now);
        // The interleaved order keeps each pair adjacent: 6 internal nodes.
        assert_eq!(mgr.node_count(f), 6);
        mgr.unprotect(f);
    }

    #[test]
    fn sift_never_grows_the_pool() {
        let mut mgr = BddManager::with_order(vec![2, 0, 3, 1]);
        let f = sample(&mut mgr);
        mgr.protect(f);
        mgr.gc();
        let before = mgr.pool_size();
        let (_, after) = mgr.reorder_sift(BddManager::DEFAULT_MAX_GROWTH);
        assert!(after <= before, "{after} > {before}");
        mgr.assert_invariants();
        mgr.unprotect(f);
    }

    #[test]
    fn operations_after_sift_are_consistent() {
        let mut mgr = BddManager::new(6);
        let mut f = mgr.zero();
        for i in 0..3 {
            let a = mgr.var(i);
            let b = mgr.var(i + 3);
            let t = mgr.and(a, b);
            f = mgr.or(f, t);
        }
        mgr.protect(f);
        mgr.reorder_sift(BddManager::DEFAULT_MAX_GROWTH);
        // Hash-consing still canonicalises: rebuilding f finds the same id,
        // and quantification agrees with the brute-force answer.
        let mut g = mgr.zero();
        for i in 0..3 {
            let a = mgr.var(i);
            let b = mgr.var(i + 3);
            let t = mgr.and(a, b);
            g = mgr.or(g, t);
        }
        assert_eq!(f, g);
        let q = mgr.cube_vars(&[0, 3]);
        let e = mgr.exists(f, q);
        for bits in assignments(6) {
            let mut any = false;
            for (x0, x3) in [(false, false), (false, true), (true, false), (true, true)] {
                let mut b2 = bits.clone();
                b2[0] = x0;
                b2[3] = x3;
                any |= mgr.eval(f, &b2);
            }
            assert_eq!(mgr.eval(e, &bits), any, "{bits:?}");
        }
        mgr.unprotect(f);
    }

    #[test]
    fn auto_reorder_fires_on_growth_and_rearms() {
        let mut mgr = BddManager::new(8);
        let mut auto = AutoReorder::new(4);
        assert!(!auto.maybe_reorder(&mut mgr), "empty pool: nothing due");
        // Build something bigger than the threshold.
        let mut f = mgr.zero();
        for i in 0..4 {
            let a = mgr.var(i);
            let b = mgr.var(i + 4);
            let t = mgr.and(a, b);
            f = mgr.or(f, t);
        }
        mgr.protect(f);
        let t0 = auto.threshold();
        assert!(auto.maybe_reorder(&mut mgr), "pool above threshold");
        assert!(auto.threshold() >= t0, "threshold must not shrink");
        assert_eq!(auto.threshold(), auto.threshold().max(2 * mgr.pool_size()));
        mgr.assert_invariants();
        mgr.unprotect(f);
    }

    #[test]
    fn reorder_policy_parses_cli_spellings() {
        assert_eq!(ReorderPolicy::parse("off"), Some(ReorderPolicy::Off));
        assert_eq!(ReorderPolicy::parse("sift"), Some(ReorderPolicy::Sift));
        assert_eq!(ReorderPolicy::parse("auto"), Some(ReorderPolicy::Auto));
        assert_eq!(ReorderPolicy::parse("bogus"), None);
        assert_eq!(ReorderPolicy::default(), ReorderPolicy::Off);
    }

    #[test]
    #[should_panic(expected = "no successor")]
    fn swapping_the_last_level_panics() {
        let mut mgr = BddManager::new(2);
        mgr.swap_levels(1);
    }
}
