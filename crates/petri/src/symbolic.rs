//! Symbolic (BDD-based) reachability for 1-safe nets.
//!
//! The explicit [`ReachabilityGraph`](crate::ReachabilityGraph) materialises
//! one marking at a time and hits its state budget around a few million
//! states. This module encodes markings as BDD variables — one variable per
//! place — and computes the reachable set as a fixpoint of per-transition
//! image computations ([`SymbolicReach::explore`]), so the cost tracks the
//! *diagram size* of the state set instead of its cardinality: concurrent
//! sections multiply the state count but only add to the diagram.
//!
//! The fixpoint is **chained** (Roig, Cortadella and Pastor, *Verification
//! of asynchronous circuits by BDD-based model checking of Petri nets*,
//! ICATPN 1995): within one pass the transitions fire in transition-id
//! order, each from the pass's frontier plus every state found earlier in
//! the same pass. A token can therefore run down a whole pipeline in one
//! pass, and the pass count falls far below the depth of the state graph
//! that a frontier-only breadth-first loop would need.
//!
//! The encoding is deliberately wider than bare markings: callers may attach
//! **auxiliary state variables** updated by transitions
//! ([`SymbolicOptions::aux_vars`] / [`AuxAction`]). The state-graph layer
//! uses this to carry one binary-code bit per signal, giving a relation over
//! `(marking, code)` pairs whose projections answer every question SG-based
//! synthesis asks — without ever enumerating states.
//!
//! Transitions are kept as **partitioned relations**: each transition owns a
//! small guard cube (preset places marked, aux preconditions), a
//! quantification cube (the variables it touches) and a result cube (the
//! values it writes). An image step is one relational product plus one cube
//! conjunction per transition, so locality in the net translates directly
//! into cheap BDD operations.
//!
//! ## Example
//!
//! ```
//! use si_petri::{PetriNet, SymbolicOptions, SymbolicReach};
//!
//! # fn main() -> Result<(), si_petri::NetError> {
//! let mut net = PetriNet::new();
//! let p0 = net.add_place("p0");
//! let p1 = net.add_place("p1");
//! let t = net.add_transition("t");
//! net.add_arc_pt(p0, t);
//! net.add_arc_tp(t, p1);
//! net.mark_initially(p0);
//! let reach = SymbolicReach::explore(&net, &SymbolicOptions::default())?;
//! assert_eq!(reach.state_count(), 2);
//! # Ok(())
//! # }
//! ```

use std::time::Duration;

use si_bdd::{AutoReorder, Bdd, BddManager, OpCounts, ReentrantConfig, ReorderPolicy};

use crate::error::NetError;
use crate::marking::Marking;
use crate::net::{PetriNet, PlaceId, TransitionId};

/// One auxiliary-variable effect of a transition: firing requires the
/// variable to hold `from` and rewrites it to `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuxAction {
    /// The auxiliary variable (index into `0..aux_vars`).
    pub var: usize,
    /// Required value before the firing (a guard on the relation).
    pub from: bool,
    /// Value after the firing.
    pub to: bool,
}

/// Options for [`SymbolicReach::explore`].
#[derive(Debug, Clone)]
pub struct SymbolicOptions {
    /// Number of auxiliary state variables tracked alongside the places.
    pub aux_vars: usize,
    /// Initial values of the auxiliary variables (`len == aux_vars`).
    pub aux_initial: Vec<bool>,
    /// Per-transition auxiliary effects, indexed by transition id. May be
    /// empty (no transition touches the auxiliary state) or have exactly one
    /// entry per transition.
    pub aux_actions: Vec<Vec<AuxAction>>,
    /// Variable order over the *logical* variables — places first
    /// (`0..place_count`), then auxiliaries (`place_count..place_count +
    /// aux_vars`): `order[level]` is the logical variable at that level.
    /// `None` uses the natural order. See
    /// [`si_bdd::order_from_adjacency`] for a good seed.
    pub order: Option<Vec<usize>>,
    /// Transitions excluded from the transition relation. They still get
    /// enabling sets, so callers can ask "where *would* this fire" over the
    /// restricted reachable set — the state-graph layer uses this to infer
    /// initial signal values.
    pub frozen: Vec<TransitionId>,
    /// Upper bound on **live** BDD nodes across the fixpoint: checked
    /// between iterations *after* garbage collection (and, when
    /// [`reorder`](Self::reorder) allows, after a last-resort sift), so
    /// only genuinely needed nodes count. Exceeded means
    /// [`NetError::NodeBudgetExceeded`] instead of thrashing.
    pub node_budget: usize,
    /// Dynamic variable reordering policy: `Off` keeps the static order,
    /// `Sift` reorders only as a last resort under budget pressure, `Auto`
    /// reorders proactively on pool growth (CUDD-style doubling
    /// thresholds). All policies produce the same reachable set.
    pub reorder: ReorderPolicy,
    /// Pool size (live + not-yet-collected nodes) above which garbage is
    /// collected between fixpoint iterations. `0` collects every
    /// iteration — useful for stress tests.
    pub gc_threshold: usize,
    /// Initial live-node trigger of the `Auto` reordering policy,
    /// evaluated at the checkpoints where a collection fired (pool past
    /// [`gc_threshold`](Self::gc_threshold) or the node budget) — the only
    /// points where the live size is exact. Forcing a collection every
    /// iteration just to test this trigger would cost more than sifting
    /// saves, so under a large `gc_threshold` the first sift can happen
    /// well after the pool passes this value.
    pub reorder_threshold: usize,
    /// Skip the per-iteration symbolic 1-safety check. Only set this when
    /// 1-safety is already **proven** — e.g. by a structural certificate
    /// from [`crate::structural::certify_one_safe`]. With the certificate
    /// in hand the per-transition `fresh_places ∧ reachable` tests are
    /// dead weight; without it, skipping turns an [`NetError::Unsafe`]
    /// diagnosis into a silently wrong reachable set.
    pub assume_one_safe: bool,
    /// Arm the manager's reentrant maintenance: long-running kernels poll
    /// the live-node budget at recursion checkpoints and run a GC (plus a
    /// sift, under the `Sift`/`Auto` policies) *mid-operation* instead of
    /// only between fixpoint iterations — so one monster `and_exists`
    /// cannot blow the budget before the policy gets a look. The
    /// between-iteration budget check is unchanged.
    pub reentrant: bool,
}

impl Default for SymbolicOptions {
    fn default() -> Self {
        SymbolicOptions {
            aux_vars: 0,
            aux_initial: Vec::new(),
            aux_actions: Vec::new(),
            order: None,
            frozen: Vec::new(),
            node_budget: 16_000_000,
            reorder: ReorderPolicy::Off,
            gc_threshold: 1 << 20,
            reorder_threshold: AutoReorder::DEFAULT_THRESHOLD,
            assume_one_safe: false,
            reentrant: true,
        }
    }
}

/// Collection/reordering telemetry of one [`SymbolicReach::explore`] run.
///
/// The collection and sifting totals are the manager's own
/// ([`BddManager::maintenance_stats`]): they count the passes run between
/// fixpoint passes *and* those the reentrant maintenance ran inside an
/// operation.
///
/// Every field except the two times repeats exactly for a given net and
/// options: the BDD kernels run serially and allocate nodes in a fixed
/// order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SymbolicStats {
    /// Garbage-collection passes run, between fixpoint passes or
    /// mid-operation.
    pub gc_runs: usize,
    /// Total nodes reclaimed by those passes.
    pub gc_collected: usize,
    /// Sifting passes run: auto-triggered, under budget pressure, or
    /// mid-operation.
    pub reorder_runs: usize,
    /// Wall-clock time spent collecting.
    pub gc_time: Duration,
    /// Wall-clock time spent sifting.
    pub reorder_time: Duration,
    /// Maximum *pool* size observed at the between-iteration checkpoints,
    /// after any collection/reordering that round — despite the name, not a
    /// live-node count. Checkpoints where no collection fired still count
    /// garbage, so under the default [`SymbolicOptions::gc_threshold`] this
    /// sits near the threshold even when the reachable set is a few hundred
    /// nodes (read that size off
    /// `manager().node_count(reachable())` instead). Only with
    /// `gc_threshold == 0` (collect every iteration) is this the exact live
    /// peak — the smallest [`SymbolicOptions::node_budget`] the run fits in.
    pub peak_live_nodes: usize,
    /// Deterministic operation counters: public `ite`/`exists`/`and_exists`
    /// calls issued by the fixpoint, snapshotted when it ends. Calls a
    /// caller makes afterwards through [`SymbolicReach::manager_mut`] are
    /// not counted here; the fixpoint itself never calls `and_exists`, so
    /// that counter reads 0. Identical on any machine and under any
    /// GC/reorder schedule — the machine-independent perf proxy CI pins.
    pub ops: OpCounts,
    /// Reentrant mid-operation maintenance passes (GC/reorder at a kernel
    /// checkpoint); their collections and sifts are also counted in
    /// [`gc_runs`](Self::gc_runs) and [`reorder_runs`](Self::reorder_runs).
    pub reentrant_maintenance: usize,
    /// Largest pool size sampled at kernel checkpoints or operation
    /// boundaries — visible even when the peak occurred *inside* one
    /// operation, which [`peak_live_nodes`](Self::peak_live_nodes) cannot
    /// see.
    pub peak_pool: usize,
}

/// Per-transition partitioned relation: everything an image step needs.
struct TransitionRelation {
    /// Guard: preset places marked ∧ aux preconditions.
    guard: Bdd,
    /// Quantification cube over the variables the firing rewrites.
    changed: Bdd,
    /// Values written: postset marked, consumed places cleared, aux results.
    result: Bdd,
    /// Postset places not in the preset — marked ones expose 1-safety
    /// violations.
    fresh_places: Vec<PlaceId>,
    /// Excluded from the relation ([`SymbolicOptions::frozen`]).
    frozen: bool,
}

/// The symbolically represented reachable state space of a 1-safe net:
/// the reachable set plus per-transition enabling sets, all over one BDD
/// manager whose variables are the places followed by the auxiliaries.
pub struct SymbolicReach {
    mgr: BddManager,
    reachable: Bdd,
    /// `enabling[t]` = reachable states whose *marking* enables `t`
    /// (auxiliary guards deliberately not applied — callers compare the two
    /// notions to detect guard violations).
    enabling: Vec<Bdd>,
    place_count: usize,
    aux_vars: usize,
    steps: usize,
    stats: SymbolicStats,
}

impl SymbolicReach {
    /// Computes the reachable set of `net` (plus auxiliary state) as a
    /// least fixpoint of the per-transition image relations, in chained
    /// passes.
    ///
    /// Each pass fires the non-frozen transitions once each, in
    /// transition-id order. A transition fires from the pass's frontier
    /// plus every state found earlier in the same pass, so the states one
    /// transition finds feed the next transition at once. The next
    /// frontier is every state first found in this pass, and the fixpoint
    /// ends after a pass that finds nothing. Garbage collection, sifting
    /// and the node-budget check run between passes (and, with
    /// [`SymbolicOptions::reentrant`], inside long operations).
    ///
    /// Unsafety is still caught: every firing set is checked for a marked
    /// postset place outside the preset (unless
    /// [`SymbolicOptions::assume_one_safe`]), and every reachable state
    /// meets every transition in some firing set. A state found by
    /// transition `t` meets the higher-indexed transitions later in the
    /// same pass, and all transitions in the next pass, where it is part
    /// of the frontier. A violation that only a later-indexed transition's
    /// states expose is thus reported one pass later.
    ///
    /// # Errors
    ///
    /// * [`NetError::Unsafe`] if a reachable firing would put a second
    ///   token on a place;
    /// * [`NetError::NodeBudgetExceeded`] if the *live* diagram still
    ///   exceeds [`SymbolicOptions::node_budget`] after garbage collection
    ///   (and, under the `Sift`/`Auto` policies, a last-resort reorder).
    ///
    /// # Panics
    ///
    /// Panics if the options are malformed: `aux_initial` or a non-empty
    /// `aux_actions` of the wrong length, an out-of-range [`AuxAction`]
    /// variable, or an `order` that is not a permutation of the logical
    /// variables.
    pub fn explore(net: &PetriNet, options: &SymbolicOptions) -> Result<Self, NetError> {
        let place_count = net.place_count();
        let aux_vars = options.aux_vars;
        let n = place_count + aux_vars;
        assert_eq!(
            options.aux_initial.len(),
            aux_vars,
            "aux_initial must cover every auxiliary variable"
        );
        assert!(
            options.aux_actions.is_empty() || options.aux_actions.len() == net.transition_count(),
            "aux_actions must be empty or cover every transition"
        );
        let order = options
            .order
            .clone()
            .unwrap_or_else(|| (0..n).collect::<Vec<_>>());
        assert_eq!(order.len(), n, "order must cover every logical variable");
        let mut mgr = BddManager::with_order(order);
        if options.reentrant {
            mgr.set_maintenance(Some(ReentrantConfig {
                live_limit: options.node_budget,
                reorder: options.reorder,
                max_growth: BddManager::DEFAULT_MAX_GROWTH,
            }));
        }

        // Initial state: one complete minterm over places and auxiliaries.
        let mut literals: Vec<(usize, bool)> = Vec::with_capacity(n);
        for p in net.places() {
            literals.push((p.index(), net.initial_marking().contains(p)));
        }
        for (k, &v) in options.aux_initial.iter().enumerate() {
            literals.push((place_count + k, v));
        }
        let init = mgr.cube(&literals);

        let relations = Self::build_relations(net, options, place_count, &mut mgr);
        // The relation cubes are needed live for the whole fixpoint: pin
        // them so the between-iteration collections cannot sweep them.
        for rel in &relations {
            for b in [rel.guard, rel.changed, rel.result] {
                mgr.protect(b);
            }
        }

        let mut auto = AutoReorder::new(options.reorder_threshold);
        let mut stats = SymbolicStats::default();
        let mut reachable = init;
        let mut frontier = init;
        // Reentrant maintenance can collect *mid-operation*, when the
        // manager protects only the interrupted operation's own operands.
        // Every loop-carried handle must therefore stay pinned by this
        // driver for as long as it is needed — not just across the
        // between-pass checkpoint. Intermediates (`firing`, `freed`,
        // `image`, `fresh`) need no pin: whenever one is still needed it is
        // an operand of the operation in flight.
        mgr.protect(reachable);
        mgr.protect(frontier);
        let mut steps = 0usize;
        while !frontier.is_false() {
            steps += 1;
            // `source` is the frontier plus every state this pass has found
            // so far; `found` is the states first found in this pass.
            let mut source = frontier;
            let mut found = mgr.zero();
            mgr.protect(source);
            for (ti, rel) in relations.iter().enumerate() {
                if rel.frozen {
                    continue;
                }
                let firing = mgr.and(source, rel.guard);
                if firing.is_false() {
                    continue;
                }
                // 1-safety: a postset place outside the preset must be free.
                // A structural certificate makes this test redundant.
                if !options.assume_one_safe {
                    for &p in &rel.fresh_places {
                        let occupied = mgr.var(p.index());
                        if !mgr.and(firing, occupied).is_false() {
                            return Err(NetError::Unsafe {
                                place: p,
                                name: net.place_name(p).to_owned(),
                                transition: TransitionId(ti as u32),
                            });
                        }
                    }
                }
                let freed = mgr.exists(firing, rel.changed);
                let image = mgr.and(freed, rel.result);
                let fresh = mgr.diff(image, reachable);
                if fresh.is_false() {
                    continue;
                }
                for set in [&mut reachable, &mut source, &mut found] {
                    let grown = mgr.or(*set, fresh);
                    mgr.protect(grown);
                    mgr.unprotect(*set);
                    *set = grown;
                }
            }
            mgr.unprotect(source);
            mgr.unprotect(frontier);
            frontier = found;
            Self::maintain(
                &mut mgr,
                &mut auto,
                options,
                &mut stats,
                [reachable, frontier],
            )?;
        }

        // Marking-level enabling sets, for every transition (frozen ones
        // included).
        let enabling: Vec<Bdd> = net
            .transitions()
            .map(|t| {
                let lits: Vec<(usize, bool)> =
                    net.preset(t).iter().map(|p| (p.index(), true)).collect();
                let preset = mgr.cube(&lits);
                let e = mgr.and(reachable, preset);
                // Pinned at creation: a reentrant collection during a later
                // transition's conjunction must not sweep this one. The pin
                // doubles as the permanent root the struct hands out.
                mgr.protect(e);
                e
            })
            .collect();

        // The stored sets outlive explore: `reachable` keeps its fixpoint
        // pin and every enabling set was pinned at creation, so a
        // caller-driven `gc` through `manager_mut` cannot free what the
        // struct hands out. The relation cubes are done — release them.
        for rel in &relations {
            for b in [rel.guard, rel.changed, rel.result] {
                mgr.unprotect(b);
            }
        }

        let totals = mgr.maintenance_stats();
        stats.gc_runs = totals.gc_runs;
        stats.gc_collected = totals.gc_collected;
        stats.gc_time = totals.gc_time;
        stats.reorder_runs = totals.reorder_runs;
        stats.reorder_time = totals.reorder_time;
        stats.reentrant_maintenance = totals.mid_op_runs;
        stats.ops = mgr.op_counts();
        stats.peak_pool = mgr.peak_pool();

        // The reentrant checkpoints are an explore-internal discipline:
        // this driver pins every loop-carried handle, but downstream
        // consumers (per-signal projections, consistency checks) hold
        // intermediates across op calls without pinning them, as the
        // pre-reentrant contract allowed. A mid-operation collection there
        // would sweep those handles out from under the caller, so the
        // policy must not outlive the fixpoint.
        mgr.set_maintenance(None);

        Ok(SymbolicReach {
            mgr,
            reachable,
            enabling,
            place_count,
            aux_vars,
            steps,
            stats,
        })
    }

    /// Between-iteration pool maintenance: collect on growth, sift when the
    /// reordering policy says so, and enforce the node budget against the
    /// *live* pool — garbage never kills a run, and under `Sift`/`Auto` a
    /// bad variable order does not either unless sifting cannot fix it.
    ///
    /// Collection fires on pool pressure only (`gc_threshold` or the node
    /// budget) — never on the reordering policy's account: the pool count
    /// includes garbage, and forcing a collection every iteration just to
    /// measure the live size costs more than it saves (memoised subresults
    /// of the image relations die with their intermediates). The `Auto`
    /// policy therefore evaluates its threshold at the checkpoints where a
    /// collection happened anyway, when the live size is exact.
    fn maintain(
        mgr: &mut BddManager,
        auto: &mut AutoReorder,
        options: &SymbolicOptions,
        stats: &mut SymbolicStats,
        roots: [Bdd; 2],
    ) -> Result<(), NetError> {
        let over_gc = mgr.pool_size() > options.gc_threshold;
        let over_budget = mgr.pool_size() > options.node_budget;
        for r in roots {
            mgr.protect(r);
        }
        if over_gc || over_budget {
            mgr.gc();
        }
        let live = mgr.pool_size();
        let want_sift = (over_gc || over_budget)
            && match options.reorder {
                ReorderPolicy::Off => false,
                // Last resort: only when the budget would otherwise fail.
                ReorderPolicy::Sift => live > options.node_budget,
                // Proactive, plus the same last resort.
                ReorderPolicy::Auto => auto.due(live) || live > options.node_budget,
            };
        if want_sift {
            mgr.reorder_sift(BddManager::DEFAULT_MAX_GROWTH);
            auto.rearm(mgr.pool_size());
        }
        for r in roots {
            mgr.unprotect(r);
        }
        if mgr.pool_size() > options.node_budget {
            return Err(NetError::NodeBudgetExceeded {
                budget: options.node_budget,
            });
        }
        stats.peak_live_nodes = stats.peak_live_nodes.max(mgr.pool_size());
        Ok(())
    }

    fn build_relations(
        net: &PetriNet,
        options: &SymbolicOptions,
        place_count: usize,
        mgr: &mut BddManager,
    ) -> Vec<TransitionRelation> {
        let mut frozen = vec![false; net.transition_count()];
        for &t in &options.frozen {
            frozen[t.index()] = true;
        }
        net.transitions()
            .map(|t| {
                let actions: &[AuxAction] = options
                    .aux_actions
                    .get(t.index())
                    .map(Vec::as_slice)
                    .unwrap_or(&[]);
                for a in actions {
                    assert!(
                        a.var < options.aux_vars,
                        "aux action variable {} out of range",
                        a.var
                    );
                }
                let mut guard_lits: Vec<(usize, bool)> =
                    net.preset(t).iter().map(|p| (p.index(), true)).collect();
                guard_lits.extend(actions.iter().map(|a| (place_count + a.var, a.from)));
                let guard = mgr.cube(&guard_lits);

                // Variables the firing rewrites: preset ∪ postset places and
                // acted-on auxiliaries.
                let mut changed_vars: Vec<usize> =
                    net.preset(t).iter().map(|p| p.index()).collect();
                changed_vars.extend(net.postset(t).iter().map(|p| p.index()));
                changed_vars.extend(actions.iter().map(|a| place_count + a.var));
                changed_vars.sort_unstable();
                changed_vars.dedup();
                let changed = mgr.cube_vars(&changed_vars);

                let mut result_lits: Vec<(usize, bool)> = Vec::new();
                for &p in net.postset(t) {
                    result_lits.push((p.index(), true));
                }
                for &p in net.preset(t) {
                    if !net.postset(t).contains(&p) {
                        result_lits.push((p.index(), false));
                    }
                }
                result_lits.extend(actions.iter().map(|a| (place_count + a.var, a.to)));
                let result = mgr.cube(&result_lits);

                let fresh_places: Vec<PlaceId> = net
                    .postset(t)
                    .iter()
                    .copied()
                    .filter(|p| !net.preset(t).contains(p))
                    .collect();

                TransitionRelation {
                    guard,
                    changed,
                    result,
                    fresh_places,
                    frozen: frozen[t.index()],
                }
            })
            .collect()
    }

    /// The BDD manager owning every set below. Variable `p` is place `p`;
    /// variable `place_count + k` is auxiliary `k`.
    pub fn manager(&self) -> &BddManager {
        &self.mgr
    }

    /// Mutable manager access (set algebra needs it).
    pub fn manager_mut(&mut self) -> &mut BddManager {
        &mut self.mgr
    }

    /// The reachable set over `(marking, aux)` states.
    pub fn reachable(&self) -> Bdd {
        self.reachable
    }

    /// Reachable states whose marking enables `transition` (auxiliary
    /// guards not applied; frozen transitions included).
    ///
    /// # Panics
    ///
    /// Panics if the transition id is out of range.
    pub fn enabling(&self, transition: TransitionId) -> Bdd {
        self.enabling[transition.index()]
    }

    /// Number of places (and the index of the first auxiliary variable).
    pub fn place_count(&self) -> usize {
        self.place_count
    }

    /// Number of auxiliary variables.
    pub fn aux_vars(&self) -> usize {
        self.aux_vars
    }

    /// The manager variable of `place`.
    pub fn place_var(&self, place: PlaceId) -> usize {
        place.index()
    }

    /// The manager variable of auxiliary `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= aux_vars`.
    pub fn aux_var(&self, k: usize) -> usize {
        assert!(k < self.aux_vars, "auxiliary variable {k} out of range");
        self.place_count + k
    }

    /// Number of reachable `(marking, aux)` states, saturating at
    /// `u128::MAX`.
    pub fn state_count(&self) -> u128 {
        self.mgr.sat_count(self.reachable)
    }

    /// Number of chained passes the fixpoint took, counting the last pass,
    /// which finds no new state. This is usually far below the depth of
    /// the state graph; see [`explore`](Self::explore).
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Collection/reordering telemetry of the fixpoint run.
    pub fn stats(&self) -> &SymbolicStats {
        &self.stats
    }

    /// Returns `true` if `marking` (with the given auxiliary values, which
    /// may be empty when `aux_vars == 0`) is reachable.
    ///
    /// # Panics
    ///
    /// Panics if `aux.len() != aux_vars`.
    pub fn contains(&self, marking: &Marking, aux: &[bool]) -> bool {
        assert_eq!(aux.len(), self.aux_vars, "auxiliary width mismatch");
        let mut bits = vec![false; self.place_count + self.aux_vars];
        for p in marking.iter() {
            bits[p.index()] = true;
        }
        bits[self.place_count..].copy_from_slice(aux);
        self.mgr.eval(self.reachable, &bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach::ReachabilityGraph;

    /// Two independent 2-cycles: 4 reachable markings.
    fn two_cycles() -> PetriNet {
        let mut net = PetriNet::new();
        let a0 = net.add_place("a0");
        let a1 = net.add_place("a1");
        let b0 = net.add_place("b0");
        let b1 = net.add_place("b1");
        for (x0, x1, n) in [(a0, a1, "a"), (b0, b1, "b")] {
            let fwd = net.add_transition(format!("{n}+"));
            let bwd = net.add_transition(format!("{n}-"));
            net.add_arc_pt(x0, fwd);
            net.add_arc_tp(fwd, x1);
            net.add_arc_pt(x1, bwd);
            net.add_arc_tp(bwd, x0);
        }
        net.mark_initially(a0);
        net.mark_initially(b0);
        net
    }

    /// `k` independent 2-cycles: `2^k` markings from `2k` places.
    fn independent_cycles(k: usize) -> PetriNet {
        let mut net = PetriNet::new();
        for i in 0..k {
            let p0 = net.add_place(format!("c{i}_0"));
            let p1 = net.add_place(format!("c{i}_1"));
            let fwd = net.add_transition(format!("t{i}+"));
            let bwd = net.add_transition(format!("t{i}-"));
            net.add_arc_pt(p0, fwd);
            net.add_arc_tp(fwd, p1);
            net.add_arc_pt(p1, bwd);
            net.add_arc_tp(bwd, p0);
            net.mark_initially(p0);
        }
        net
    }

    #[test]
    fn matches_explicit_exploration() {
        let net = two_cycles();
        let explicit = ReachabilityGraph::explore(&net, 100).expect("explores");
        let symbolic = SymbolicReach::explore(&net, &SymbolicOptions::default()).expect("explores");
        assert_eq!(symbolic.state_count(), explicit.len() as u128);
        for (_, m) in explicit.iter() {
            assert!(symbolic.contains(&m, &[]), "{m:?} missing symbolically");
        }
    }

    #[test]
    fn enabling_sets_match_explicit_edges() {
        let net = two_cycles();
        let explicit = ReachabilityGraph::explore(&net, 100).expect("explores");
        let symbolic = SymbolicReach::explore(&net, &SymbolicOptions::default()).expect("explores");
        for t in net.transitions() {
            let expected = explicit
                .iter()
                .filter(|(_, m)| net.is_enabled(t, m))
                .count() as u128;
            let e = symbolic.enabling(t);
            assert_eq!(symbolic.manager().sat_count(e), expected, "{t}");
        }
    }

    #[test]
    fn exponential_state_spaces_stay_small_symbolically() {
        let net = independent_cycles(40);
        let reach = SymbolicReach::explore(&net, &SymbolicOptions::default()).expect("explores");
        assert_eq!(reach.state_count(), 1u128 << 40);
        // The diagram is linear in the cycle count even though the state
        // count is 2^40 (three nodes per place-pair XOR constraint).
        assert!(
            reach.manager().node_count(reach.reachable()) <= 4 * 40,
            "diagram blew up: {} nodes",
            reach.manager().node_count(reach.reachable())
        );
    }

    #[test]
    fn unsafe_net_reported() {
        let mut net = PetriNet::new();
        let p0 = net.add_place("p0");
        let p1 = net.add_place("p1");
        let p2 = net.add_place("p2");
        let t0 = net.add_transition("t0");
        let t1 = net.add_transition("t1");
        net.add_arc_pt(p0, t0);
        net.add_arc_tp(t0, p2);
        net.add_arc_pt(p1, t1);
        net.add_arc_tp(t1, p2);
        net.mark_initially(p0);
        net.mark_initially(p1);
        assert!(matches!(
            SymbolicReach::explore(&net, &SymbolicOptions::default()),
            Err(NetError::Unsafe { place, .. }) if place == p2
        ));

        // Reversed transition order: only the state that the later-indexed
        // `t1` (a → b) finds enables `t0` (b → c), whose postset `c` is
        // already marked. `t0` fires before `t1` in every pass, so it meets
        // that state one pass later and must still report it.
        let mut net = PetriNet::new();
        let a = net.add_place("a");
        let b = net.add_place("b");
        let c = net.add_place("c");
        let t0 = net.add_transition("t0");
        let t1 = net.add_transition("t1");
        net.add_arc_pt(b, t0);
        net.add_arc_tp(t0, c);
        net.add_arc_pt(a, t1);
        net.add_arc_tp(t1, b);
        net.mark_initially(a);
        net.mark_initially(c);
        assert!(matches!(
            SymbolicReach::explore(&net, &SymbolicOptions::default()),
            Err(NetError::Unsafe { place, transition, .. }) if place == c && transition == t0
        ));
    }

    #[test]
    fn node_budget_enforced() {
        let net = independent_cycles(20);
        let options = SymbolicOptions {
            node_budget: 8,
            ..SymbolicOptions::default()
        };
        assert!(matches!(
            SymbolicReach::explore(&net, &options),
            Err(NetError::NodeBudgetExceeded { budget: 8 })
        ));
    }

    #[test]
    fn aux_variables_track_transition_parity() {
        // One 2-cycle with an aux bit toggled by the forward transition and
        // required back by the backward transition: the aux bit mirrors
        // "token in p1".
        let mut net = PetriNet::new();
        let p0 = net.add_place("p0");
        let p1 = net.add_place("p1");
        let fwd = net.add_transition("fwd");
        let bwd = net.add_transition("bwd");
        net.add_arc_pt(p0, fwd);
        net.add_arc_tp(fwd, p1);
        net.add_arc_pt(p1, bwd);
        net.add_arc_tp(bwd, p0);
        net.mark_initially(p0);
        let options = SymbolicOptions {
            aux_vars: 1,
            aux_initial: vec![false],
            aux_actions: vec![
                vec![AuxAction {
                    var: 0,
                    from: false,
                    to: true,
                }],
                vec![AuxAction {
                    var: 0,
                    from: true,
                    to: false,
                }],
            ],
            ..SymbolicOptions::default()
        };
        let reach = SymbolicReach::explore(&net, &options).expect("explores");
        assert_eq!(reach.state_count(), 2);
        let m0: Marking = [p0].into_iter().collect();
        let m1: Marking = [p1].into_iter().collect();
        assert!(reach.contains(&m0, &[false]));
        assert!(reach.contains(&m1, &[true]));
        assert!(!reach.contains(&m0, &[true]));
        assert!(!reach.contains(&m1, &[false]));
    }

    #[test]
    fn aux_guard_blocks_the_relation() {
        // Same cycle, but the backward transition demands an aux value that
        // never holds: only the forward firing happens.
        let mut net = PetriNet::new();
        let p0 = net.add_place("p0");
        let p1 = net.add_place("p1");
        let fwd = net.add_transition("fwd");
        let bwd = net.add_transition("bwd");
        net.add_arc_pt(p0, fwd);
        net.add_arc_tp(fwd, p1);
        net.add_arc_pt(p1, bwd);
        net.add_arc_tp(bwd, p0);
        net.mark_initially(p0);
        let options = SymbolicOptions {
            aux_vars: 1,
            aux_initial: vec![false],
            aux_actions: vec![
                Vec::new(),
                vec![AuxAction {
                    var: 0,
                    from: true,
                    to: true,
                }],
            ],
            ..SymbolicOptions::default()
        };
        let reach = SymbolicReach::explore(&net, &options).expect("explores");
        assert_eq!(reach.state_count(), 2);
        // bwd is marking-enabled at p1 but its aux guard never holds there.
        let e = reach.enabling(TransitionId(1));
        let m1: Marking = [p1].into_iter().collect();
        assert!(reach.contains(&m1, &[false]));
        assert_eq!(reach.manager().sat_count(e), 1);
    }

    #[test]
    fn frozen_transitions_are_skipped_but_still_get_enabling_sets() {
        let net = two_cycles();
        let options = SymbolicOptions {
            frozen: vec![TransitionId(2)], // b+ frozen: the b-cycle never moves
            ..SymbolicOptions::default()
        };
        let reach = SymbolicReach::explore(&net, &options).expect("explores");
        assert_eq!(reach.state_count(), 2);
        // b+ is still marking-enabled everywhere (b0 stays marked).
        let e = reach.enabling(TransitionId(2));
        assert_eq!(reach.manager().sat_count(e), 2);
    }

    #[test]
    fn custom_order_changes_layout_not_semantics() {
        let net = two_cycles();
        let options = SymbolicOptions {
            order: Some(vec![3, 1, 2, 0]),
            ..SymbolicOptions::default()
        };
        let reach = SymbolicReach::explore(&net, &options).expect("explores");
        assert_eq!(reach.state_count(), 4);
    }

    #[test]
    fn node_budget_binds_live_nodes_exactly() {
        // Mirror of the explicit `explore(budget)` boundary test: measure
        // the peak live pool at the between-iteration checkpoints, then
        // rerun with exactly that budget (must succeed) and one node less
        // (must fail with the structured budget error).
        let net = independent_cycles(12);
        let tight_gc = SymbolicOptions {
            gc_threshold: 0, // collect every iteration
            ..SymbolicOptions::default()
        };
        let reach = SymbolicReach::explore(&net, &tight_gc).expect("explores");
        let peak = reach.stats().peak_live_nodes;
        assert!(peak > 0);
        assert!(reach.stats().gc_runs > 0, "gc must have fired every round");

        let exact = SymbolicOptions {
            node_budget: peak,
            ..tight_gc.clone()
        };
        let at_budget = SymbolicReach::explore(&net, &exact).expect("peak live nodes fit exactly");
        assert_eq!(at_budget.state_count(), 1u128 << 12);

        let under = SymbolicOptions {
            node_budget: peak - 1,
            ..tight_gc
        };
        assert!(matches!(
            SymbolicReach::explore(&net, &under),
            Err(NetError::NodeBudgetExceeded { budget }) if budget == peak - 1
        ));
    }

    #[test]
    fn gc_alone_completes_a_run_that_cumulative_allocation_would_kill() {
        // With per-iteration collection the live pool stays far below the
        // total allocations, so a budget between the two completes — the
        // pre-GC engine (budget == cumulative pool) died here.
        let net = independent_cycles(16);
        let unbounded = SymbolicOptions {
            gc_threshold: 0,
            ..SymbolicOptions::default()
        };
        let reference = SymbolicReach::explore(&net, &unbounded).expect("explores");
        let peak = reference.stats().peak_live_nodes;
        let allocated = reference.manager().allocated_size();
        assert!(
            allocated > peak,
            "collection must have reclaimed something: {allocated} vs {peak}"
        );
        let options = SymbolicOptions {
            gc_threshold: 0,
            node_budget: peak,
            ..SymbolicOptions::default()
        };
        let reach = SymbolicReach::explore(&net, &options).expect("GC keeps the run alive");
        assert_eq!(reach.state_count(), 1u128 << 16);
        assert!(
            reach.manager().allocated_size() > peak,
            "the run allocated more than the budget overall — GC alone saved it"
        );
    }

    #[test]
    fn reorder_policies_reach_the_same_set() {
        let net = two_cycles();
        let baseline = SymbolicReach::explore(&net, &SymbolicOptions::default()).expect("explores");
        for reorder in [ReorderPolicy::Off, ReorderPolicy::Sift, ReorderPolicy::Auto] {
            let options = SymbolicOptions {
                reorder,
                gc_threshold: 0,
                reorder_threshold: 1, // sift at every opportunity under Auto
                ..SymbolicOptions::default()
            };
            let reach = SymbolicReach::explore(&net, &options).expect("explores");
            assert_eq!(reach.state_count(), baseline.state_count(), "{reorder:?}");
            for (_, m) in ReachabilityGraph::explore(&net, 100)
                .expect("explicit explores")
                .iter()
            {
                assert!(reach.contains(&m, &[]), "{reorder:?}: {m:?} missing");
            }
        }
    }

    #[test]
    fn auto_reorder_shrinks_a_bad_static_order() {
        // Reverse-interleaved order for a pipeline of cycles: the static
        // layout separates each place pair; sifting pulls them together.
        let net = independent_cycles(12);
        let n = net.place_count();
        let bad: Vec<usize> = (0..n / 2).flat_map(|i| [i, n - 1 - i]).collect();
        let off = SymbolicOptions {
            order: Some(bad.clone()),
            gc_threshold: 0,
            ..SymbolicOptions::default()
        };
        let auto = SymbolicOptions {
            order: Some(bad),
            gc_threshold: 0,
            reorder: ReorderPolicy::Auto,
            reorder_threshold: 8,
            ..SymbolicOptions::default()
        };
        let r_off = SymbolicReach::explore(&net, &off).expect("explores");
        let r_auto = SymbolicReach::explore(&net, &auto).expect("explores");
        assert_eq!(r_off.state_count(), r_auto.state_count());
        assert!(r_auto.stats().reorder_runs > 0, "auto policy must sift");
        let n_off = r_off.manager().node_count(r_off.reachable());
        let n_auto = r_auto.manager().node_count(r_auto.reachable());
        assert!(
            n_auto < n_off,
            "sifting should shrink the reachable set: {n_auto} vs {n_off}"
        );
    }

    #[test]
    fn reentrant_checkpoint_completes_an_over_budget_operation() {
        // Maximally separating each cycle's place pair (all "even" places,
        // then the "odd" ones reversed) makes every reachable-set diagram
        // exponential in the cycle count, so single operations run tens of
        // thousands of kernel steps and allocate far past the live
        // checkpoint sizes. The non-reentrant engine blows straight through
        // the budget *mid-operation* (visible in `peak_pool`); the
        // reentrant engine trips the in-kernel checkpoint, collects, and
        // completes the same fixpoint under the armed budget.
        let net = independent_cycles(12);
        let n = net.place_count();
        let bad: Vec<usize> = (0..n).step_by(2).chain((1..n).step_by(2).rev()).collect();
        let reference = SymbolicOptions {
            order: Some(bad.clone()),
            gc_threshold: 0, // collect every iteration: checkpoint peaks are exact
            reentrant: false,
            ..SymbolicOptions::default()
        };
        let r = SymbolicReach::explore(&net, &reference).expect("explores");
        let live_peak = r.stats().peak_live_nodes;
        let pool_peak = r.stats().peak_pool;
        assert!(
            pool_peak > live_peak,
            "mid-operation allocation must overshoot the checkpoint peak: \
             {pool_peak} vs {live_peak}"
        );

        // A budget the between-iteration checkpoints satisfy exactly but
        // single operations exceed mid-flight: without reentrancy this run
        // overshoots (per `pool_peak` above); with it, the kernel
        // checkpoint must fire and the run must still finish.
        let reentrant = SymbolicOptions {
            order: Some(bad),
            gc_threshold: 0,
            node_budget: live_peak,
            reentrant: true,
            ..SymbolicOptions::default()
        };
        let reach = SymbolicReach::explore(&net, &reentrant)
            .expect("reentrant maintenance keeps the run under budget");
        assert_eq!(reach.state_count(), r.state_count());
        let stats = reach.stats();
        assert!(
            stats.reentrant_maintenance > 0,
            "the in-kernel checkpoint must actually have fired"
        );
        assert!(
            stats.gc_runs >= stats.reentrant_maintenance,
            "every mid-operation collection must be counted: {} runs, {} mid-operation",
            stats.gc_runs,
            stats.reentrant_maintenance
        );
        assert_eq!(
            reach.stats().ops,
            r.stats().ops,
            "reentrant retries must not change the public op counts"
        );

        // The serial kernels make the maintenance schedule itself
        // repeatable: a second identical run reproduces every figure but
        // the wall-clock times.
        let again = SymbolicReach::explore(&net, &reentrant).expect("explores");
        let untimed = |s: &SymbolicStats| SymbolicStats {
            gc_time: Duration::ZERO,
            reorder_time: Duration::ZERO,
            ..s.clone()
        };
        assert_eq!(untimed(again.stats()), untimed(stats));
    }

    #[test]
    fn no_transitions_reaches_only_the_initial_state() {
        let mut net = PetriNet::new();
        let p = net.add_place("p");
        net.mark_initially(p);
        let reach = SymbolicReach::explore(&net, &SymbolicOptions::default()).expect("explores");
        assert_eq!(reach.state_count(), 1);
        assert_eq!(reach.steps(), 1);
    }
}
