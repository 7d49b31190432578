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
//! The unique table has one subtable per level, keyed by the children
//! alone, so a swap reads each level's nodes straight from its subtable,
//! and the nodes that move up keep their subtable whole.

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
        // results must go wholesale (gc alone purges selectively).
        self.core.clear_caches();
        let mut refs = self.compute_refs();
        self.swap_adjacent(level, &mut refs);
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
        let before = self.pool_size();
        if self.num_vars() < 2 || before == 0 {
            return (before, before);
        }
        let mut refs = self.compute_refs();
        let occupancy: Vec<usize> = self.core.unique.iter().map(|t| t.len()).collect();
        // Densest levels first — the CUDD heuristic — with the occupancy
        // snapshot taken once (sifting itself redistributes the levels).
        let mut vars: Vec<usize> = (0..self.num_vars()).collect();
        vars.sort_by_key(|&v| (std::cmp::Reverse(occupancy[self.level_of[v] as usize]), v));
        for &v in &vars {
            self.sift_one(v, max_growth, &mut refs);
        }
        (before, self.pool_size())
    }

    /// Sifts one variable: walk it to the nearer end, sweep to the other,
    /// then settle on the best level seen. Pool size is a function of the
    /// order alone (dead nodes are unlinked as swaps create them), so
    /// revisited positions report consistent sizes.
    fn sift_one(&mut self, var: usize, max_growth: f64, refs: &mut Vec<u32>) {
        let start = self.level_of[var] as usize;
        let start_size = self.pool_size();
        let limit = (start_size as f64 * max_growth) as usize;
        let mut best = (start_size, start);
        let mut level = start;
        let down_first = self.num_vars() - 1 - start <= start;
        self.sift_walk(&mut level, down_first, limit, &mut best, refs);
        self.sift_walk(&mut level, !down_first, limit, &mut best, refs);
        // Settle on the best position (ties break towards the position
        // visited first, which includes the starting level).
        while level < best.1 {
            self.swap_adjacent(level, refs);
            level += 1;
        }
        while level > best.1 {
            self.swap_adjacent(level - 1, refs);
            level -= 1;
        }
    }

    /// One directional walk of [`sift_one`], recording the live size at
    /// every visited level and aborting once it exceeds `limit`.
    fn sift_walk(
        &mut self,
        level: &mut usize,
        down: bool,
        limit: usize,
        best: &mut (usize, usize),
        refs: &mut Vec<u32>,
    ) {
        loop {
            if down {
                if *level + 1 >= self.num_vars() {
                    return;
                }
                self.swap_adjacent(*level, refs);
                *level += 1;
            } else {
                if *level == 0 {
                    return;
                }
                self.swap_adjacent(*level - 1, refs);
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
        let len = self.core.slot_count();
        let mut refs = vec![0u32; len];
        for id in 2..len {
            let (level, lo, hi) = self.core.raw(id as u32);
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

    /// The in-place unique-table exchange of levels `l` and `l + 1`.
    ///
    /// Invariant: every node id denotes the same function before and after.
    /// Nodes at the lower level keep their structure (their variable moves
    /// up with them, subtable and all); nodes at the upper level that
    /// depend on the lower variable are rewritten in place with fresh
    /// children one level down; upper nodes independent of it slide down
    /// unchanged. Lower nodes left unreferenced are unlinked immediately
    /// (cascading into their children), keeping `refs` and the live count
    /// exact throughout.
    fn swap_adjacent(&mut self, l: usize, refs: &mut Vec<u32>) {
        let lu = l as u32;
        let ll = (l + 1) as u32;
        // Both levels leave the table wholesale before rewriting, and their
        // ids are sorted: hash order must not leak into allocation order.
        let mut upper_table = std::mem::take(&mut self.core.unique[l]);
        let lower_table = std::mem::take(&mut self.core.unique[l + 1]);
        let mut upper: Vec<u32> = upper_table.values().copied().collect();
        let mut lower: Vec<u32> = lower_table.values().copied().collect();
        upper.sort_unstable();
        lower.sort_unstable();

        // 1. Lower nodes keep their children; their variable moves up, and
        //    their subtable (keyed by the children alone) with it.
        for &m in &lower {
            self.core.set_level(m, lu);
        }
        self.core.unique[l] = lower_table;
        upper_table.clear();
        self.core.unique[l + 1] = upper_table;

        // 2. Upper nodes independent of the lower variable slide down
        //    unchanged. They must be registered before step 3 so dependent
        //    rewrites hash-cons against them.
        let mut dependent: Vec<u32> = Vec::new();
        for &n in &upper {
            let (_, f0, f1) = self.core.node(n);
            // Children sat strictly below level l; those now at `lu` are
            // exactly the relabelled lower nodes.
            if self.core.level(f0) == lu || self.core.level(f1) == lu {
                dependent.push(n);
            } else {
                self.core.set_level(n, ll);
                let prev = self.core.unique[l + 1].insert((f0, f1), n);
                debug_assert!(prev.is_none(), "duplicate key while sliding down");
            }
        }

        // 3. Dependent upper nodes are rewritten in place:
        //    u ? (v ? f11 : f10) : (v ? f01 : f00)
        //      == v ? (u ? f11 : f01) : (u ? f10 : f00).
        for &n in &dependent {
            let (_, f0, f1) = self.core.node(n);
            let (f00, f01) = self.core.children_at(f0, lu);
            let (f10, f11) = self.core.children_at(f1, lu);
            refs[f0 as usize] -= 1;
            refs[f1 as usize] -= 1;
            let lo = self.swap_child(ll, f00, f10, refs);
            let hi = self.swap_child(ll, f01, f11, refs);
            debug_assert!(lo != hi, "dependent node reduced away during swap");
            refs[lo as usize] += 1;
            refs[hi as usize] += 1;
            self.core.rewrite(n, lu, lo, hi);
            let prev = self.core.unique[l].insert((lo, hi), n);
            debug_assert!(prev.is_none(), "duplicate key at the upper level");
        }

        // 4. Lower nodes nothing references any more are dead — unlink
        //    them now so reference counts and the live size stay exact.
        for &m in &lower {
            if refs[m as usize] == 0 {
                self.unlink_dead(m, refs);
            }
        }

        // 5. The two levels trade variables.
        self.var_at.swap(l, l + 1);
        self.level_of[self.var_at[l] as usize] = lu;
        self.level_of[self.var_at[l + 1] as usize] = ll;
    }

    /// Hash-consed child construction for [`swap_adjacent`], maintaining
    /// reference counts for newly allocated nodes.
    fn swap_child(&mut self, level: u32, lo: u32, hi: u32, refs: &mut Vec<u32>) -> u32 {
        if lo == hi {
            return lo;
        }
        if let Some(&id) = self.core.unique[level as usize].get(&(lo, hi)) {
            return id;
        }
        let id = self.core.mk_unchecked(level, lo, hi);
        if id as usize >= refs.len() {
            refs.resize(id as usize + 1, 0);
        }
        refs[id as usize] = 0;
        refs[lo as usize] += 1;
        refs[hi as usize] += 1;
        id
    }

    /// Frees a dead node, cascading into children whose counts hit zero.
    fn unlink_dead(&mut self, id: u32, refs: &mut [u32]) {
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let (_, lo, hi) = self.core.node(n);
            self.core.free_node(n);
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
