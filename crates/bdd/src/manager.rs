//! The node manager: hash-consed unique table, ITE kernel, quantification,
//! root protection, mark-and-sweep garbage collection, and the retry loop
//! that gives long-running operations reentrant GC/reorder checkpoints.
//!
//! The tables and kernels live in [`crate::core`], owned by the manager
//! alone; this module owns the external surface: variable order, root
//! protection, the public operations, and the maintenance policy that fires
//! when a kernel trips its live-node checkpoint mid-operation.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::core::{Core, OpResult, FREE, ONE, ZERO};
use crate::sift::ReorderPolicy;

/// A handle to a Boolean function owned by a [`BddManager`].
///
/// Copyable and cheap; all operations go through the manager. Two handles
/// from the same manager are equal iff they denote the same function (the
/// diagram is reduced and ordered, hence canonical).
///
/// A handle stays valid across [`reorder_sift`](BddManager::reorder_sift)
/// and level swaps (reordering rewrites nodes in place, preserving ids and
/// the function each id denotes), but **not** across
/// [`gc`](BddManager::gc) unless the handle was
/// [`protect`](BddManager::protect)ed: using a collected handle is a logic
/// error, caught by a debug assertion on every access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// Returns `true` if this is the constant-0 function.
    pub fn is_false(self) -> bool {
        self.0 == ZERO
    }

    /// Returns `true` if this is the constant-1 function.
    pub fn is_true(self) -> bool {
        self.0 == ONE
    }
}

/// Reentrant maintenance policy: when an operation's live pool crosses
/// `live_limit` at a kernel checkpoint, the operation unwinds, the manager
/// collects garbage (and reorders, per `reorder`), and the operation
/// retries — so one monster `and_exists` can no longer blow the node budget
/// between the driver's own fixpoint checkpoints.
#[derive(Debug, Clone, Copy)]
pub struct ReentrantConfig {
    /// Live-node count that trips a mid-operation maintenance pass.
    pub live_limit: usize,
    /// Whether maintenance may also sift (`Off` collects only).
    pub reorder: ReorderPolicy,
    /// Growth cap passed to [`BddManager::reorder_sift`] when sifting.
    pub max_growth: f64,
}

/// Deterministic per-manager operation counters: incremented once per
/// public [`ite`](BddManager::ite) / [`exists`](BddManager::exists) /
/// [`and_exists`](BddManager::and_exists) call. Every driver decision is
/// made on canonical sets, so the public call sequence — and hence these
/// counts — is the same on any machine and under any GC/reorder schedule:
/// the machine-independent perf proxy CI pins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Public ITE calls (including the `and`/`or`/`not`/`xor`/`diff`
    /// wrappers, which each cost one — `xor` two — ITEs).
    pub ite: u64,
    /// Public existential-quantification calls.
    pub exists: u64,
    /// Public relational-product calls.
    pub and_exists: u64,
}

/// Pool-maintenance totals of one manager: every [`gc`](BddManager::gc) and
/// [`reorder_sift`](BddManager::reorder_sift) is counted and timed here,
/// whether a driver called it between operations or the reentrant
/// maintenance pass ran it inside one. The times are wall clock; the counts
/// repeat exactly for a given sequence of operations and maintenance
/// policy, since the kernels are serial and allocation order is fixed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Garbage collections run. A sift's own opening collection is part of
    /// the sift and is not counted here.
    pub gc_runs: usize,
    /// Nodes reclaimed by those collections.
    pub gc_collected: usize,
    /// Wall-clock time spent in those collections.
    pub gc_time: Duration,
    /// Sifting passes run.
    pub reorder_runs: usize,
    /// Wall-clock time spent sifting, its opening collection included.
    pub reorder_time: Duration,
    /// Mid-operation maintenance passes (a collection, and a sift when the
    /// policy allows, at a kernel checkpoint); their collections and sifts
    /// are also in the totals above.
    pub mid_op_runs: usize,
}

/// A reduced ordered BDD node pool over a fixed variable count, with a
/// per-level unique table (hash-consing), memoised operation caches, an
/// external-root protection set and a mark-and-sweep collector.
///
/// Nodes branch on *levels*; the variable order maps external variable
/// indices to levels, so callers always speak in variable indices. The order
/// is seeded at construction ([`BddManager::with_order`]) and may change at
/// runtime through sifting ([`BddManager::reorder_sift`]) — every query goes
/// through [`level_of`](Self::level_of) / [`var_at`](Self::var_at), which
/// always reflect the current layout.
///
/// Dead nodes are reclaimed by [`gc`](Self::gc): callers pin the functions
/// they still need with [`protect`](Self::protect) (a refcounted root set),
/// everything unreachable from the roots is swept onto a free list and the
/// slots are reused by later allocations.
///
/// Every operation runs serially on the caller's thread. Node ids, pool
/// sizes and maintenance counts therefore repeat exactly for a given
/// sequence of calls.
pub struct BddManager {
    pub(crate) core: Core,
    /// `level_of[var]` = position of `var` in the order (0 = topmost).
    pub(crate) level_of: Vec<u32>,
    /// `var_at[level]` = variable placed at that level.
    pub(crate) var_at: Vec<u32>,
    /// External root protection: node id → protect count.
    pub(crate) roots: HashMap<u32, usize>,
    maint: Option<ReentrantConfig>,
    op_counts: OpCounts,
    pub(crate) maint_stats: MaintenanceStats,
}

impl std::fmt::Debug for BddManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BddManager")
            .field("num_vars", &self.core.num_vars)
            .field("pool_size", &self.pool_size())
            .field("allocated_size", &self.allocated_size())
            .field("protected", &self.roots.len())
            .field("order", &self.order())
            .finish()
    }
}

impl BddManager {
    /// Creates a manager over `num_vars` variables in natural order
    /// (variable `i` at level `i`).
    pub fn new(num_vars: usize) -> Self {
        Self::with_order((0..num_vars).collect())
    }

    /// Creates a manager whose variable order is `order` — `order[level]`
    /// is the variable placed at that level (level 0 is the topmost).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn with_order(order: Vec<usize>) -> Self {
        let n = order.len();
        let mut level_of = vec![u32::MAX; n];
        let mut var_at = vec![0u32; n];
        for (level, &var) in order.iter().enumerate() {
            assert!(var < n, "variable {var} out of range in order");
            assert!(
                level_of[var] == u32::MAX,
                "variable {var} appears twice in order"
            );
            level_of[var] = level as u32;
            var_at[level] = var as u32;
        }
        BddManager {
            core: Core::new(n),
            level_of,
            var_at,
            roots: HashMap::new(),
            maint: None,
            op_counts: OpCounts::default(),
            maint_stats: MaintenanceStats::default(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.core.num_vars
    }

    /// The level (order position) of `var` under the *current* order.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn level_of(&self, var: usize) -> usize {
        self.level_of[var] as usize
    }

    /// The variable placed at `level` under the *current* order.
    ///
    /// # Panics
    ///
    /// Panics if `level >= num_vars`.
    pub fn var_at(&self, level: usize) -> usize {
        self.var_at[level] as usize
    }

    /// The current variable order as a permutation: `order()[level]` is the
    /// variable at that level. Reordering changes it; reading it after
    /// [`reorder_sift`](Self::reorder_sift) shows where sifting settled.
    pub fn order(&self) -> Vec<usize> {
        self.var_at.iter().map(|&v| v as usize).collect()
    }

    /// The constant-0 function.
    pub fn zero(&self) -> Bdd {
        Bdd(ZERO)
    }

    /// The constant-1 function.
    pub fn one(&self) -> Bdd {
        Bdd(ONE)
    }

    /// Number of live non-terminal nodes in the pool. Grows with
    /// allocations and shrinks when [`gc`](Self::gc) sweeps dead nodes;
    /// nodes that became unreachable since the last collection still count
    /// until the next one.
    pub fn pool_size(&self) -> usize {
        self.core.pool_size()
    }

    /// Number of pool slots ever allocated (live or freed). Never shrinks;
    /// the gap to [`pool_size`](Self::pool_size) is the reuse headroom the
    /// collector has reclaimed.
    pub fn allocated_size(&self) -> usize {
        self.core.allocated_size()
    }

    /// Installs (or removes, with `None`) the reentrant mid-operation
    /// maintenance policy. See [`ReentrantConfig`].
    pub fn set_maintenance(&mut self, cfg: Option<ReentrantConfig>) {
        self.maint = cfg;
    }

    /// The installed reentrant maintenance policy, if any.
    pub fn maintenance(&self) -> Option<ReentrantConfig> {
        self.maint
    }

    /// Collection and reordering totals so far, mid-operation passes
    /// included (see [`MaintenanceStats`]).
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        self.maint_stats
    }

    /// Deterministic per-manager operation counters (see [`OpCounts`]).
    pub fn op_counts(&self) -> OpCounts {
        self.op_counts
    }

    /// The largest live-pool size observed at any kernel checkpoint or
    /// operation boundary — visible even when the peak occurred in the
    /// middle of one operation. The pool is sampled every 1024 kernel
    /// steps of an operation attempt, so the figure repeats exactly for a
    /// given sequence of calls.
    pub fn peak_pool(&self) -> usize {
        self.core.peak_pool()
    }

    /// Returns `true` if `f` is a terminal or a live (not collected) node.
    pub fn is_live(&self, f: Bdd) -> bool {
        f.0 <= ONE || self.core.raw(f.0).0 != FREE
    }

    /// Checked node accessor: `(level, lo, hi)`. Every walk goes through
    /// here so a stale handle trips the assertion instead of silently
    /// reading a freed (possibly reused) slot.
    #[inline]
    pub(crate) fn node(&self, n: u32) -> (u32, u32, u32) {
        self.core.node(n)
    }

    #[inline]
    pub(crate) fn level(&self, n: u32) -> u32 {
        self.core.level(n)
    }

    /// Pins `f` as an external root: it (and everything it reaches)
    /// survives [`gc`](Self::gc). Protection is refcounted — every
    /// `protect` needs a matching [`unprotect`](Self::unprotect).
    pub fn protect(&mut self, f: Bdd) {
        if f.0 > ONE {
            debug_assert!(self.is_live(f), "cannot protect a collected handle");
            *self.roots.entry(f.0).or_insert(0) += 1;
        }
    }

    /// Releases one [`protect`](Self::protect) pin on `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not currently protected.
    pub fn unprotect(&mut self, f: Bdd) {
        if f.0 <= ONE {
            return;
        }
        let entry = self.roots.get_mut(&f.0);
        assert!(entry.is_some(), "unprotect without a matching protect");
        let Some(count) = entry else { return };
        *count -= 1;
        if *count == 0 {
            self.roots.remove(&f.0);
        }
    }

    /// Number of distinct nodes currently pinned as external roots.
    pub fn protected_count(&self) -> usize {
        self.roots.len()
    }

    /// Mark-and-sweep garbage collection: every node unreachable from the
    /// [`protect`](Self::protect)ed roots is unlinked from the unique table
    /// and its slot pushed onto the free list for reuse. Operation-cache
    /// slots touching a dead id are emptied; entries over surviving nodes
    /// stay until a collision evicts them, so cross-call memoisation
    /// survives frequent collection (the fixpoint drivers rely on this).
    /// Returns the number of nodes collected.
    ///
    /// Handles to collected nodes become stale — touching one afterwards is
    /// a logic error caught by a debug assertion.
    pub fn gc(&mut self) -> usize {
        let start = Instant::now();
        let collected = self.collect();
        self.maint_stats.gc_runs += 1;
        self.maint_stats.gc_collected += collected;
        self.maint_stats.gc_time += start.elapsed();
        collected
    }

    /// The sweep behind [`gc`](Self::gc), uncounted: reordering runs it as
    /// part of its own pass.
    pub(crate) fn collect(&mut self) -> usize {
        let len = self.core.slot_count();
        let mut marked = vec![false; len];
        let mut stack: Vec<u32> = self.roots.keys().copied().collect();
        while let Some(n) = stack.pop() {
            if marked[n as usize] {
                continue;
            }
            marked[n as usize] = true;
            let (_, lo, hi) = self.core.node(n);
            for c in [lo, hi] {
                if c > ONE && !marked[c as usize] {
                    stack.push(c);
                }
            }
        }
        self.core.purge_caches(|n| n > ONE && !marked[n as usize]);
        let mut collected = 0usize;
        for (id, live) in marked.iter().enumerate().skip(2) {
            if *live || self.core.raw(id as u32).0 == FREE {
                continue;
            }
            self.core.free_node(id as u32);
            collected += 1;
        }
        self.core.shrink_unique();
        collected
    }

    /// The function of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn var(&mut self, var: usize) -> Bdd {
        assert!(var < self.num_vars(), "variable {var} out of range");
        let level = self.level_of[var];
        Bdd(self.core.mk_unchecked(level, ZERO, ONE))
    }

    /// The function of the negated variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn nvar(&mut self, var: usize) -> Bdd {
        assert!(var < self.num_vars(), "variable {var} out of range");
        let level = self.level_of[var];
        Bdd(self.core.mk_unchecked(level, ONE, ZERO))
    }

    /// If-then-else: the function `f·g + f̅·h` — the complete kernel every
    /// binary operation reduces to (memoised).
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        self.op_counts.ite += 1;
        let (f, g, h) = (f.0, g.0, h.0);
        Bdd(self.run_op([f, g, h], |core| core.ite_rec(f, g, h)))
    }

    /// Conjunction `f · g`.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, Bdd(ZERO))
    }

    /// Disjunction `f + g`.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, Bdd(ONE), g)
    }

    /// Negation `f̅`.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        self.ite(f, Bdd(ZERO), Bdd(ONE))
    }

    /// Exclusive or `f ⊕ g`.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Difference `f · g̅` — one ITE, no materialised complement.
    pub fn diff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(g, Bdd(ZERO), f)
    }

    /// The conjunction of positive literals of `vars`, used as the
    /// quantification set of [`exists`](Self::exists) /
    /// [`and_exists`](Self::and_exists).
    ///
    /// # Panics
    ///
    /// Panics if any variable is out of range.
    pub fn cube_vars(&mut self, vars: &[usize]) -> Bdd {
        self.cube(&vars.iter().map(|&v| (v, true)).collect::<Vec<_>>())
    }

    /// The conjunction of the given `(variable, value)` literals.
    ///
    /// # Panics
    ///
    /// Panics if any variable is out of range or appears twice with
    /// conflicting values (same-value duplicates collapse).
    pub fn cube(&mut self, literals: &[(usize, bool)]) -> Bdd {
        let mut lits: Vec<(u32, bool)> = literals
            .iter()
            .map(|&(v, b)| {
                assert!(v < self.num_vars(), "variable {v} out of range");
                (self.level_of[v], b)
            })
            .collect();
        lits.sort_unstable();
        lits.dedup();
        for w in lits.windows(2) {
            assert!(
                w[0].0 != w[1].0,
                "conflicting literals for variable {}",
                self.var_at[w[0].0 as usize]
            );
        }
        let mut acc = ONE;
        for &(level, value) in lits.iter().rev() {
            acc = if value {
                self.core.mk_unchecked(level, ZERO, acc)
            } else {
                self.core.mk_unchecked(level, acc, ZERO)
            };
        }
        Bdd(acc)
    }

    /// Existential quantification `∃ vars. f`, where `vars` is a positive
    /// cube from [`cube_vars`](Self::cube_vars) (memoised).
    pub fn exists(&mut self, f: Bdd, vars: Bdd) -> Bdd {
        self.op_counts.exists += 1;
        let (f, cube) = (f.0, vars.0);
        Bdd(self.run_op([f, cube, ZERO], |core| core.exists_rec(f, cube)))
    }

    /// The relational product `∃ vars. f · g` computed in one pass, without
    /// materialising the conjunction (memoised) — the workhorse of symbolic
    /// image computation.
    pub fn and_exists(&mut self, f: Bdd, g: Bdd, vars: Bdd) -> Bdd {
        self.op_counts.and_exists += 1;
        let (f, g, cube) = (f.0, g.0, vars.0);
        Bdd(self.run_op([f, g, cube], |core| core.and_exists_rec(f, g, cube)))
    }

    /// Runs one public operation's kernel to completion: when it trips its
    /// live-node checkpoint, unwind, run the reentrant maintenance pass over
    /// the operation's `operands`, raise the effective limit enough to
    /// guarantee progress, and retry against the gc'd (possibly reordered)
    /// pool. Subproblems the interrupted attempt completed are reused only
    /// where their cache slots survived the collection and later
    /// collisions; the rest are recomputed.
    fn run_op(&mut self, operands: [u32; 3], kernel: impl Fn(&mut Core) -> OpResult) -> u32 {
        let base_limit = match &self.maint {
            Some(cfg) => cfg.live_limit,
            None => usize::MAX,
        };
        let mut effective = base_limit;
        loop {
            self.core.arm_trip(effective);
            let result = kernel(&mut self.core);
            self.core.arm_trip(usize::MAX);
            match result {
                Ok(r) => return r,
                Err(_) => {
                    self.maintain_mid_op(operands);
                    // Maintenance may not reach base_limit (the operands
                    // genuinely need more); give the retry headroom to
                    // double the surviving pool so it always progresses.
                    effective = effective
                        .max(self.core.pool_size().saturating_mul(2))
                        .max(base_limit);
                }
            }
        }
    }

    /// The mid-operation maintenance pass: protect the interrupted
    /// operation's operands (nothing else pins them mid-call), collect, and
    /// — if the policy allows and the pool is still over the limit — sift.
    /// Terminal operands are harmless: `protect` ignores them.
    fn maintain_mid_op(&mut self, operands: [u32; 3]) {
        let Some(cfg) = self.maint else { return };
        for &id in &operands {
            self.protect(Bdd(id));
        }
        self.gc();
        if cfg.reorder != ReorderPolicy::Off && self.core.pool_size() > cfg.live_limit {
            self.reorder_sift(cfg.max_growth);
        }
        for &id in &operands {
            self.unprotect(Bdd(id));
        }
        self.maint_stats.mid_op_runs += 1;
    }

    /// Number of satisfying assignments over the full `2^num_vars` space,
    /// saturating at `u128::MAX`.
    pub fn sat_count(&self, f: Bdd) -> u128 {
        let mut memo: HashMap<u32, u128> = HashMap::new();
        let c = self.sat_count_rec(f.0, &mut memo);
        shl_sat(c, self.level(f.0))
    }

    fn sat_count_rec(&self, n: u32, memo: &mut HashMap<u32, u128>) -> u128 {
        if n == ZERO {
            return 0;
        }
        if n == ONE {
            return 1;
        }
        if let Some(&c) = memo.get(&n) {
            return c;
        }
        let (level, lo, hi) = self.node(n);
        let cl = self.sat_count_rec(lo, memo);
        let ch = self.sat_count_rec(hi, memo);
        let c = shl_sat(cl, self.level(lo) - level - 1)
            .saturating_add(shl_sat(ch, self.level(hi) - level - 1));
        memo.insert(n, c);
        c
    }

    /// Number of diagram nodes reachable from `f`.
    pub fn node_count(&self, f: Bdd) -> usize {
        if f.0 <= ONE {
            return 0;
        }
        let mut seen: std::collections::HashSet<u32> = std::collections::HashSet::new();
        seen.insert(f.0);
        let mut stack = vec![f.0];
        while let Some(n) = stack.pop() {
            let (_, lo, hi) = self.node(n);
            for c in [lo, hi] {
                if c > ONE && seen.insert(c) {
                    stack.push(c);
                }
            }
        }
        seen.len()
    }

    /// The variables `f` depends on, in index order.
    pub fn support(&self, f: Bdd) -> Vec<usize> {
        let mut on_level = vec![false; self.num_vars()];
        let mut seen: std::collections::HashSet<u32> = std::collections::HashSet::new();
        let mut stack = vec![f.0];
        while let Some(n) = stack.pop() {
            if n <= ONE || !seen.insert(n) {
                continue;
            }
            let (level, lo, hi) = self.node(n);
            on_level[level as usize] = true;
            stack.push(lo);
            stack.push(hi);
        }
        let mut vars: Vec<usize> = (0..self.num_vars())
            .filter(|&l| on_level[l])
            .map(|l| self.var_at[l] as usize)
            .collect();
        vars.sort_unstable();
        vars
    }

    /// Evaluates `f` at a complete assignment given in *variable index*
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != num_vars`.
    pub fn eval(&self, f: Bdd, bits: &[bool]) -> bool {
        assert_eq!(bits.len(), self.num_vars(), "assignment width mismatch");
        let mut n = f.0;
        while n > ONE {
            let (level, lo, hi) = self.node(n);
            n = if bits[self.var_at[level as usize] as usize] {
                hi
            } else {
                lo
            };
        }
        n == ONE
    }

    /// Checks every structural invariant of the pool, panicking with a
    /// description on the first violation: live nodes are reduced
    /// (`lo != hi`), reference only live strictly-deeper children, and are
    /// registered exactly once in the unique table (so no two live nodes
    /// share a `(level, lo, hi)` triple); the free list matches the freed
    /// slots; the order arrays are a consistent permutation; every
    /// protected root is live; and no operation-cache slot names a freed
    /// node. Intended for tests and debugging — cost is a full pool and
    /// cache scan.
    pub fn assert_invariants(&self) {
        let len = self.core.slot_count();
        let mut live = 0usize;
        for i in 2..len {
            let (level, lo, hi) = self.core.raw(i as u32);
            if level == FREE {
                continue;
            }
            live += 1;
            assert!(
                (level as usize) < self.num_vars(),
                "node {i}: level {level} out of range"
            );
            assert!(lo != hi, "node {i}: redundant (lo == hi == {lo})");
            for c in [lo, hi] {
                assert!(
                    c <= ONE || self.core.raw(c).0 != FREE,
                    "node {i}: references freed child {c}"
                );
                assert!(
                    self.level(c) > level,
                    "node {i}: child {c} not strictly below level {level}"
                );
            }
            assert_eq!(
                self.core.unique[level as usize].get(&(lo, hi)),
                Some(&(i as u32)),
                "node {i}: unique table misses it or maps its key elsewhere"
            );
        }
        assert_eq!(
            self.core.unique.iter().map(|t| t.len()).sum::<usize>(),
            live,
            "unique table holds entries for dead nodes"
        );
        assert_eq!(
            live + self.core.free_len(),
            len - 2,
            "free list out of sync with freed slots"
        );
        for v in 0..self.num_vars() {
            assert_eq!(
                self.var_at[self.level_of[v] as usize] as usize, v,
                "level_of/var_at are not inverse permutations at variable {v}"
            );
        }
        for &id in self.roots.keys() {
            assert!(
                id <= ONE || self.core.raw(id).0 != FREE,
                "protected root {id} was collected"
            );
        }
        for id in self.core.cached_ids() {
            assert!(
                id <= ONE || self.core.raw(id).0 != FREE,
                "operation cache names freed node {id}"
            );
        }
    }
}

/// Saturating left shift for satisfying-assignment counts.
fn shl_sat(x: u128, k: u32) -> u128 {
    if x == 0 {
        0
    } else if k >= 128 || x.leading_zeros() < k {
        u128::MAX
    } else {
        x << k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All assignments over `width` variables, variable-index order.
    fn assignments(width: usize) -> impl Iterator<Item = Vec<bool>> {
        (0..(1u32 << width)).map(move |x| (0..width).map(|i| (x >> i) & 1 == 1).collect())
    }

    #[test]
    fn boolean_ops_match_pointwise() {
        for order in [vec![0, 1, 2, 3], vec![3, 1, 0, 2]] {
            let mut mgr = BddManager::with_order(order);
            let a = mgr.var(0);
            let b = mgr.var(1);
            let c = mgr.var(2);
            let d = mgr.nvar(3);
            let ab = mgr.and(a, b);
            let f = mgr.or(ab, c);
            let g = mgr.xor(f, d);
            let h = mgr.diff(f, c);
            let nf = mgr.not(f);
            for bits in assignments(4) {
                let (va, vb, vc, vd) = (bits[0], bits[1], bits[2], !bits[3]);
                let vf = (va && vb) || vc;
                assert_eq!(mgr.eval(f, &bits), vf, "{bits:?}");
                assert_eq!(mgr.eval(g, &bits), vf ^ vd, "{bits:?}");
                assert_eq!(mgr.eval(h, &bits), vf && !vc, "{bits:?}");
                assert_eq!(mgr.eval(nf, &bits), !vf, "{bits:?}");
            }
        }
    }

    #[test]
    fn canonicity_equal_functions_share_handles() {
        let mut mgr = BddManager::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let ab = mgr.and(a, b);
        let ba = mgr.and(b, a);
        assert_eq!(ab, ba);
        // De Morgan: ¬(a·b) == ¬a + ¬b.
        let left = mgr.not(ab);
        let na = mgr.not(a);
        let nb = mgr.not(b);
        let right = mgr.or(na, nb);
        assert_eq!(left, right);
    }

    #[test]
    fn ite_matches_truth_table() {
        let mut mgr = BddManager::new(3);
        let f = mgr.var(0);
        let g = mgr.var(1);
        let h = mgr.var(2);
        let r = mgr.ite(f, g, h);
        for bits in assignments(3) {
            let expect = if bits[0] { bits[1] } else { bits[2] };
            assert_eq!(mgr.eval(r, &bits), expect, "{bits:?}");
        }
    }

    #[test]
    fn exists_quantifies_out_variables() {
        let mut mgr = BddManager::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let ab = mgr.and(a, b);
        let f = mgr.or(ab, c);
        let q = mgr.cube_vars(&[1]);
        let e = mgr.exists(f, q);
        let expect = mgr.or(a, c);
        assert_eq!(e, expect);
        // Quantifying the whole support collapses to a constant.
        let all = mgr.cube_vars(&[0, 1, 2]);
        assert!(mgr.exists(f, all).is_true());
        let zero = mgr.zero();
        assert!(mgr.exists(zero, all).is_false());
    }

    #[test]
    fn exists_over_unsupported_vars_is_identity() {
        let mut mgr = BddManager::new(4);
        let a = mgr.var(0);
        let c = mgr.var(2);
        let f = mgr.and(a, c);
        let q = mgr.cube_vars(&[1, 3]);
        assert_eq!(mgr.exists(f, q), f);
    }

    #[test]
    fn and_exists_equals_and_then_exists() {
        for order in [vec![0, 1, 2, 3, 4], vec![4, 2, 0, 3, 1]] {
            let mut mgr = BddManager::with_order(order);
            let a = mgr.var(0);
            let b = mgr.var(1);
            let c = mgr.var(2);
            let d = mgr.var(3);
            let e = mgr.var(4);
            let nb = mgr.not(b);
            let t1 = mgr.or(a, nb);
            let t2 = mgr.and(c, d);
            let f = mgr.xor(t1, t2);
            let de = mgr.and(d, e);
            let g = mgr.or(b, de);
            for q_vars in [vec![1], vec![1, 3], vec![0, 1, 2, 3, 4], vec![]] {
                let q = mgr.cube_vars(&q_vars);
                let direct = mgr.and_exists(f, g, q);
                let conj = mgr.and(f, g);
                let two_step = mgr.exists(conj, q);
                assert_eq!(direct, two_step, "vars {q_vars:?}");
            }
        }
    }

    #[test]
    fn cube_builds_the_expected_minterm_set() {
        let mut mgr = BddManager::new(3);
        let c = mgr.cube(&[(0, true), (2, false)]);
        for bits in assignments(3) {
            assert_eq!(mgr.eval(c, &bits), bits[0] && !bits[2], "{bits:?}");
        }
        assert_eq!(mgr.sat_count(c), 2);
    }

    #[test]
    #[should_panic(expected = "conflicting literals")]
    fn conflicting_cube_literals_panic() {
        let mut mgr = BddManager::new(2);
        mgr.cube(&[(0, true), (0, false)]);
    }

    #[test]
    fn sat_count_counts_minterms() {
        let mut mgr = BddManager::new(10);
        assert_eq!(mgr.sat_count(mgr.one()), 1024);
        assert_eq!(mgr.sat_count(mgr.zero()), 0);
        let a = mgr.var(0);
        assert_eq!(mgr.sat_count(a), 512);
        let b = mgr.var(9);
        let ab = mgr.and(a, b);
        assert_eq!(mgr.sat_count(ab), 256);
        let aob = mgr.or(a, b);
        assert_eq!(mgr.sat_count(aob), 768);
    }

    #[test]
    fn support_reports_dependent_variables() {
        let mut mgr = BddManager::with_order(vec![2, 0, 1]);
        let a = mgr.var(0);
        let c = mgr.var(2);
        let f = mgr.xor(a, c);
        assert_eq!(mgr.support(f), vec![0, 2]);
        assert!(mgr.support(mgr.one()).is_empty());
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_order_rejected() {
        BddManager::with_order(vec![0, 0, 1]);
    }

    #[test]
    fn gc_sweeps_unprotected_nodes_and_reuses_slots() {
        let mut mgr = BddManager::new(6);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let keep = mgr.and(a, b);
        // Garbage: a pile of intermediate results nothing pins.
        for i in 2..6 {
            let v = mgr.var(i);
            let t = mgr.xor(keep, v);
            let _ = mgr.or(t, a);
        }
        let before = mgr.pool_size();
        mgr.protect(keep);
        let collected = mgr.gc();
        assert!(collected > 0, "expected dead nodes");
        assert_eq!(mgr.pool_size(), before - collected);
        assert!(mgr.is_live(keep));
        mgr.assert_invariants();
        // The protected function still evaluates correctly and freed slots
        // are reused by new allocations.
        assert_eq!(mgr.sat_count(keep), 16);
        let allocated = mgr.allocated_size();
        let c = mgr.var(2);
        let f = mgr.or(keep, c);
        assert_eq!(mgr.allocated_size(), allocated, "slots must be reused");
        assert_eq!(mgr.sat_count(f), 40);
        mgr.unprotect(keep);
        mgr.assert_invariants();
    }

    #[test]
    fn gc_without_roots_sweeps_everything() {
        let mut mgr = BddManager::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let _ = mgr.xor(a, b);
        assert!(mgr.pool_size() > 0);
        mgr.gc();
        assert_eq!(mgr.pool_size(), 0);
        mgr.assert_invariants();
        // Terminals survive unconditionally.
        assert!(mgr.one().is_true());
        assert!(mgr.zero().is_false());
    }

    #[test]
    fn protection_is_refcounted() {
        let mut mgr = BddManager::new(2);
        let a = mgr.var(0);
        mgr.protect(a);
        mgr.protect(a);
        mgr.unprotect(a);
        mgr.gc();
        assert!(mgr.is_live(a), "still pinned once");
        mgr.unprotect(a);
        mgr.gc();
        assert!(!mgr.is_live(a));
    }

    #[test]
    #[should_panic(expected = "unprotect without a matching protect")]
    fn unbalanced_unprotect_panics() {
        let mut mgr = BddManager::new(2);
        let a = mgr.var(0);
        mgr.unprotect(a);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "garbage-collected")]
    fn stale_handle_after_gc_panics_in_sat_count() {
        let mut mgr = BddManager::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let stale = mgr.and(a, b);
        mgr.gc(); // nothing protected: `stale` is collected
        let _ = mgr.sat_count(stale);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "garbage-collected")]
    fn stale_handle_after_gc_panics_in_ops() {
        let mut mgr = BddManager::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let stale = mgr.and(a, b);
        // Keep `a` alive so the stale handle's slot is not immediately
        // reused (reuse is the one case the guard cannot see).
        mgr.protect(a);
        mgr.gc();
        let _ = mgr.and(stale, a);
    }

    #[test]
    fn gc_preserves_semantics_of_protected_dag() {
        let mut mgr = BddManager::with_order(vec![2, 0, 3, 1]);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let d = mgr.nvar(3);
        let t1 = mgr.and(a, b);
        let t2 = mgr.or(c, d);
        let f = mgr.xor(t1, t2);
        let expected: Vec<bool> = assignments(4).map(|bits| mgr.eval(f, &bits)).collect();
        mgr.protect(f);
        mgr.gc();
        mgr.assert_invariants();
        let after: Vec<bool> = assignments(4).map(|bits| mgr.eval(f, &bits)).collect();
        assert_eq!(expected, after);
        // Rebuilding the same function lands on the same (hash-consed) id.
        let a2 = mgr.var(0);
        let b2 = mgr.var(1);
        let c2 = mgr.var(2);
        let d2 = mgr.nvar(3);
        let t1b = mgr.and(a2, b2);
        let t2b = mgr.or(c2, d2);
        assert_eq!(mgr.xor(t1b, t2b), f);
        mgr.unprotect(f);
    }

    #[test]
    fn op_counts_track_public_calls() {
        let mut mgr = BddManager::new(4);
        assert_eq!(mgr.op_counts(), OpCounts::default());
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.and(a, b); // 1 ite
        let g = mgr.xor(f, a); // not + ite = 2
        let q = mgr.cube_vars(&[0]);
        let _ = mgr.exists(g, q);
        let _ = mgr.and_exists(f, g, q);
        let counts = mgr.op_counts();
        assert_eq!(counts.ite, 3);
        assert_eq!(counts.exists, 1);
        assert_eq!(counts.and_exists, 1);
    }

    #[test]
    fn reentrant_maintenance_completes_an_over_budget_op() {
        // A conjunction of xors whose intermediate results overflow a tiny
        // live limit: without reentrant maintenance the pool simply grows;
        // with it, the op must trip, collect, and still produce the right
        // function.
        let mut mgr = BddManager::new(16);
        mgr.set_maintenance(Some(ReentrantConfig {
            live_limit: 64,
            reorder: ReorderPolicy::Off,
            max_growth: BddManager::DEFAULT_MAX_GROWTH,
        }));
        let mut f = mgr.one();
        for i in 0..8 {
            let a = mgr.var(i);
            let b = mgr.var(15 - i);
            let x = mgr.xor(a, b);
            f = mgr.and(f, x);
        }
        assert_eq!(mgr.sat_count(f), 1 << 8);
        // The op counters must be unaffected by retries: 8 xor (2 ites
        // each) + 8 and = 24 public ites.
        assert_eq!(mgr.op_counts().ite, 24);
        mgr.assert_invariants();
    }

    impl BddManager {
        /// A manager over `num_vars` variables in natural order whose
        /// operation caches stay at `slots` slots.
        fn with_pinned_caches(num_vars: usize, slots: usize) -> Self {
            let mut mgr = Self::new(num_vars);
            mgr.core = Core::with_pinned_caches(num_vars, slots);
            mgr
        }
    }

    /// A linear congruential generator: the random-sequence test's only
    /// source of choices, so every run replays the same sequence.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((self.0 >> 33) as usize) % bound
        }
    }

    /// Point `x` of a truth table over `width` variables: bit `i` of `x`
    /// is variable `i`.
    fn bits_of(x: usize, width: usize) -> Vec<bool> {
        (0..width).map(|i| (x >> i) & 1 == 1).collect()
    }

    #[test]
    fn pinned_lossy_caches_keep_every_result_exact() {
        // Random ite/and/or/diff/exists/and_exists sequences with gc and
        // sifting interleaved, on managers whose caches are pinned so small
        // that nearly every insert evicts. Every result is held to a truth
        // table computed pointwise and to the same sequence replayed on a
        // fresh default manager; equal functions must share one handle.
        const VARS: usize = 8;
        const POINTS: usize = 1 << VARS;
        let table = |mgr: &BddManager, f: Bdd| -> Vec<bool> {
            (0..POINTS)
                .map(|x| mgr.eval(f, &bits_of(x, VARS)))
                .collect()
        };
        let quantify = |t: &[bool], vars: &[usize]| -> Vec<bool> {
            let mut t = t.to_vec();
            for &v in vars {
                t = (0..POINTS).map(|x| t[x] || t[x ^ (1 << v)]).collect();
            }
            t
        };
        for slots in [1, 16] {
            let mut rng = Lcg(slots as u64);
            let mut mgr = BddManager::with_pinned_caches(VARS, slots);
            let mut fresh = BddManager::new(VARS);
            // (handle in `mgr`, handle in `fresh`, truth table)
            let mut values: Vec<(Bdd, Bdd, Vec<bool>)> = Vec::new();
            for v in 0..VARS {
                let f = mgr.var(v);
                mgr.protect(f);
                let g = fresh.var(v);
                values.push((f, g, (0..POINTS).map(|x| (x >> v) & 1 == 1).collect()));
            }
            for step in 0..400 {
                let [a, b, c] = [0; 3].map(|_| values[rng.below(values.len())].clone());
                let vars: Vec<usize> = (0..VARS).filter(|_| rng.below(3) == 0).collect();
                let (q, fq) = (mgr.cube_vars(&vars), fresh.cube_vars(&vars));
                let pointwise = |op: fn(bool, bool, bool) -> bool| -> Vec<bool> {
                    (0..POINTS).map(|x| op(a.2[x], b.2[x], c.2[x])).collect()
                };
                let (r, fr, expect) = match rng.below(10) {
                    0 => (
                        mgr.ite(a.0, b.0, c.0),
                        fresh.ite(a.1, b.1, c.1),
                        pointwise(|f, g, h| if f { g } else { h }),
                    ),
                    1 => (
                        mgr.and(a.0, b.0),
                        fresh.and(a.1, b.1),
                        pointwise(|f, g, _| f && g),
                    ),
                    2 => (
                        mgr.or(a.0, b.0),
                        fresh.or(a.1, b.1),
                        pointwise(|f, g, _| f || g),
                    ),
                    3 => (
                        mgr.diff(a.0, b.0),
                        fresh.diff(a.1, b.1),
                        pointwise(|f, g, _| f && !g),
                    ),
                    4 => (
                        mgr.exists(a.0, q),
                        fresh.exists(a.1, fq),
                        quantify(&a.2, &vars),
                    ),
                    5 => (
                        mgr.and_exists(a.0, b.0, q),
                        fresh.and_exists(a.1, b.1, fq),
                        quantify(&pointwise(|f, g, _| f && g), &vars),
                    ),
                    6 => {
                        mgr.gc();
                        mgr.assert_invariants();
                        continue;
                    }
                    7 => {
                        mgr.reorder_sift(BddManager::DEFAULT_MAX_GROWTH);
                        mgr.assert_invariants();
                        continue;
                    }
                    _ => {
                        if values.len() > VARS {
                            let (f, _, _) = values.swap_remove(rng.below(values.len()));
                            mgr.unprotect(f);
                        }
                        continue;
                    }
                };
                assert_eq!(table(&mgr, r), expect, "slots {slots}, step {step}");
                assert_eq!(table(&fresh, fr), expect, "slots {slots}, step {step}");
                for (f, _, t) in &values {
                    assert_eq!(
                        *f == r,
                        *t == expect,
                        "slots {slots}, step {step}: not canonical"
                    );
                }
                mgr.protect(r);
                values.push((r, fr, expect));
            }
            mgr.assert_invariants();
        }
    }

    #[test]
    fn maintenance_stats_count_every_collection_and_sift() {
        let mut mgr = BddManager::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let _ = mgr.xor(a, b);
        let collected = mgr.gc();
        mgr.reorder_sift(BddManager::DEFAULT_MAX_GROWTH);
        mgr.gc();
        let totals = mgr.maintenance_stats();
        // The sift's opening collection belongs to the sift.
        assert_eq!(totals.gc_runs, 2);
        assert_eq!(totals.gc_collected, collected);
        assert_eq!(totals.reorder_runs, 1);
        assert_eq!(totals.mid_op_runs, 0);
    }
}
