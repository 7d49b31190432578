//! The symbolic SG engine: everything SG-based synthesis needs, derived
//! from a BDD fixpoint instead of an explicit [`StateGraph`].
//!
//! [`SymbolicSg::build`] encodes the STG's net with one BDD variable per
//! place plus one auxiliary variable per signal (the binary code bit), runs
//! [`si_petri::SymbolicReach`] over per-transition partitioned relations,
//! checks the consistent-state-assignment criterion symbolically, and
//! projects the reachable `(marking, code)` relation into each signal's
//! on/off code sets. The sets come back as
//! [`ImplicitOnOffSets`] — the exact representation the implicit-cover
//! minimiser already consumes — so gate equations are **byte-identical** to
//! the explicit engine's (pinned by the equivalence suites) while the cost
//! tracks diagram sizes instead of the state count.
//!
//! The variable order is seeded from structure
//! ([`si_bdd::order_from_adjacency`]), selected by [`OrderSeed`]: either
//! STG signal adjacency (signals that talk to each other sit at
//! neighbouring levels, with each signal's surrounding places interleaved
//! right below its code bit), or P-invariant clusters (places of one
//! token-conservation invariant chained together — the certificate the
//! structural pass computes anyway). On pipeline-style specifications both
//! keep the reachable set near-linear where the state count is
//! exponential, and gate equations are identical under either seed (pinned
//! by the equivalence suites).
//!
//! When the structural pass certifies 1-safety (every place covered by a
//! unary P-invariant holding at most one initial token), the fixpoint
//! skips its per-iteration symbolic safety check entirely — the
//! certificate *is* the proof.
//!
//! [`StateGraph`]: crate::StateGraph

use si_bdd::{order_from_adjacency, Bdd, ConvertError, ReorderPolicy, TranslationCache};
use si_cubes::implicit::{ImplicitCover, ImplicitPool};
use si_petri::structural::{certify_one_safe, SafetyCertificate};
use si_petri::{AuxAction, SymbolicOptions, SymbolicReach};
use si_stg::{BinaryCode, Polarity, SignalId, SignalTransition, Stg};

use crate::error::SgError;
use crate::synth::ImplicitOnOffSets;

/// Pool-management knobs of the symbolic engine: the node budget plus the
/// garbage-collection and dynamic-reordering policies passed through to
/// [`si_petri::SymbolicReach`]. The choices affect memory and speed only —
/// every combination produces identical gate equations (pinned by the
/// equivalence suites).
#[derive(Debug, Clone)]
pub struct SymbolicTuning {
    /// Upper bound on *live* BDD nodes (checked after collection and any
    /// last-resort reorder).
    pub node_budget: usize,
    /// Dynamic variable reordering policy; `Auto` keeps specifications
    /// alive whose statically seeded order is bad (wide arbitration,
    /// many-way choice).
    pub reorder: ReorderPolicy,
    /// Pool size above which garbage is collected between fixpoint
    /// iterations (`0` collects every iteration).
    pub gc_threshold: usize,
    /// Initial live-node trigger of the `Auto` reordering policy.
    pub reorder_threshold: usize,
    /// Which structural heuristic seeds the static variable order. Gate
    /// equations are identical under every seed (pinned by the
    /// equivalence suites); only diagram sizes differ.
    pub order_seed: OrderSeed,
    /// Worker threads for the BDD kernels (`None` = serial). Purely a
    /// wall-clock knob: equations, witnesses and operation counts are
    /// identical at any thread count.
    pub bdd_threads: Option<usize>,
    /// Minimum pool size before kernel calls dispatch to the parallel
    /// frontier decomposition (`None` = the manager default). Below the
    /// floor even multi-threaded managers run serially — forking work for
    /// tiny diagrams costs more than it saves. Tests set `Some(0)` so small
    /// specifications still exercise the parallel path.
    pub bdd_parallel_floor: Option<usize>,
}

/// The structural heuristic that seeds the static BDD variable order
/// (before any dynamic reordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderSeed {
    /// Signal adjacency: signals connected through a place sit at
    /// neighbouring levels, each followed by the places around its
    /// transitions.
    #[default]
    SignalAdjacency,
    /// P-invariant clusters: the places of each unary P-invariant (the
    /// token-conservation certificates of the structural pass) are chained
    /// together, with each signal pulled next to the places its
    /// transitions touch. Falls back to signal adjacency when the
    /// structural pass finds no invariant cover.
    PlaceInvariants,
}

/// The front end deriving each signal's implicit on/off code sets from the
/// reachable BDD. Both front ends hand the minimiser the same canonical
/// point sets, so gate equations are **byte-identical** either way (pinned
/// by the equivalence suites); only the extraction cost differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoverExtraction {
    /// Minato–Morreale ISOP recursion natively on the code BDDs
    /// ([`si_bdd::BddManager::isop_implicit`]): one memoised three-way
    /// cofactor walk per set, no disjoint-cube enumeration. The default.
    #[default]
    Isop,
    /// The historical translation path
    /// ([`si_bdd::BddManager::to_implicit`]): rebuild each code BDD's
    /// point set node by node through the implicit pool's set algebra.
    /// Kept as the cross-check ablation.
    Translate,
}

impl CoverExtraction {
    /// Parses a CLI name: `isop` or `translate`.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "isop" => Some(CoverExtraction::Isop),
            "translate" => Some(CoverExtraction::Translate),
            _ => None,
        }
    }
}

impl Default for SymbolicTuning {
    fn default() -> Self {
        let base = SymbolicOptions::default();
        SymbolicTuning {
            node_budget: base.node_budget,
            reorder: base.reorder,
            gc_threshold: base.gc_threshold,
            reorder_threshold: base.reorder_threshold,
            order_seed: OrderSeed::SignalAdjacency,
            bdd_threads: None,
            bdd_parallel_floor: None,
        }
    }
}

impl SymbolicTuning {
    /// Default tuning with the given node budget.
    pub fn with_budget(node_budget: usize) -> Self {
        SymbolicTuning {
            node_budget,
            ..SymbolicTuning::default()
        }
    }

    /// The [`SymbolicOptions`] these knobs select, with every non-tuning
    /// field at its default — the single place the two structs are kept in
    /// sync, so both reachability passes (the main fixpoint and the
    /// initial-code inference) always run under identical tuning.
    fn to_options(&self) -> SymbolicOptions {
        SymbolicOptions {
            node_budget: self.node_budget,
            reorder: self.reorder,
            gc_threshold: self.gc_threshold,
            reorder_threshold: self.reorder_threshold,
            bdd_threads: self.bdd_threads,
            bdd_parallel_floor: self.bdd_parallel_floor,
            ..SymbolicOptions::default()
        }
    }
}

/// The symbolically represented state graph of an STG: the reachable
/// `(marking, code)` relation plus the per-signal on/off code sets, ready
/// for CSC checking and two-level minimisation.
pub struct SymbolicSg {
    reach: SymbolicReach,
    width: usize,
    initial_code: BinaryCode,
    /// Per signal: the reachable codes whose implied signal value is 1 / 0,
    /// projected onto the code variables.
    on_codes: Vec<Bdd>,
    off_codes: Vec<Bdd>,
    /// Manager variable → implicit variable (code bits only).
    code_map: Vec<Option<usize>>,
}

impl SymbolicSg {
    /// Builds the symbolic state graph of `stg` under the given pool
    /// tuning (node budget, garbage collection, dynamic reordering).
    ///
    /// # Errors
    ///
    /// * [`SgError::Net`] if the net is unsafe or the *live* diagram still
    ///   outgrows the node budget after collection (and, when the tuning
    ///   allows, reordering);
    /// * [`SgError::Inconsistent`] if no consistent binary state assignment
    ///   exists (same criterion as [`StateGraph::build`], checked
    ///   symbolically).
    ///
    /// [`StateGraph::build`]: crate::StateGraph::build
    pub fn build(stg: &Stg, tuning: &SymbolicTuning) -> Result<Self, SgError> {
        let net = stg.net();
        let width = stg.signal_count();
        let place_count = net.place_count();

        // One structural pass feeds both integrations: a full certificate
        // (unary P-invariant cover) is a proof of 1-safety that lets every
        // fixpoint below skip its symbolic safety check, and its invariants
        // seed the `PlaceInvariants` variable order.
        let certificate = certify_one_safe(net);
        let assume_one_safe = certificate.certified;
        let order = variable_order(stg, tuning.order_seed, &certificate);

        let initial_code = match stg.initial_code() {
            Some(code) => code.clone(),
            None => infer_initial_code(stg, tuning, &order, assume_one_safe)?,
        };

        let aux_actions: Vec<Vec<AuxAction>> = net
            .transitions()
            .map(|t| match stg.label(t) {
                Some(SignalTransition { signal, polarity }) => vec![AuxAction {
                    var: signal.index(),
                    from: polarity.source_value(),
                    to: polarity.target_value(),
                }],
                None => Vec::new(),
            })
            .collect();

        let options = SymbolicOptions {
            aux_vars: width,
            aux_initial: (0..width)
                .map(|i| initial_code.get(SignalId(i as u32)))
                .collect(),
            aux_actions,
            order: Some(order),
            assume_one_safe,
            ..tuning.to_options()
        };
        let mut reach = SymbolicReach::explore(net, &options).map_err(SgError::Net)?;

        // Consistency, part 1: wherever a labelled transition is
        // marking-enabled, the signal's code bit must sit at the polarity's
        // source value — the symbolic form of "along every a+ edge the bit
        // goes 0 → 1".
        for t in net.transitions() {
            if let Some(SignalTransition { signal, polarity }) = stg.label(t) {
                let enabled = reach.enabling(t);
                let var = reach.aux_var(signal.index());
                let mgr = reach.manager_mut();
                let wrong = if polarity.source_value() {
                    mgr.nvar(var)
                } else {
                    mgr.var(var)
                };
                if !mgr.and(enabled, wrong).is_false() {
                    return Err(SgError::Inconsistent {
                        signal: stg.signal_name(signal).to_owned(),
                        detail: format!(
                            "transition {} is reachable with `{}` already at {}",
                            stg.transition_label_string(t),
                            stg.signal_name(signal),
                            u8::from(polarity.target_value())
                        ),
                    });
                }
            }
        }

        // Consistency, part 2: the code must be a *function* of the marking
        // — no marking may be reachable under two different codes (the
        // symbolic form of "signal-change parity agrees on every path").
        let code_vars: Vec<usize> = (0..width).map(|k| reach.aux_var(k)).collect();
        {
            let reached = reach.reachable();
            let mgr = reach.manager_mut();
            let all_codes = mgr.cube_vars(&code_vars);
            for (k, &var) in code_vars.iter().enumerate() {
                let v = mgr.var(var);
                let nv = mgr.nvar(var);
                let markings_at_1 = mgr.and_exists(reached, v, all_codes);
                let markings_at_0 = mgr.and_exists(reached, nv, all_codes);
                if !mgr.and(markings_at_1, markings_at_0).is_false() {
                    return Err(SgError::Inconsistent {
                        signal: stg.signal_name(SignalId(k as u32)).to_owned(),
                        detail: "signal-change parity differs between two paths to the \
                                 same marking"
                            .to_owned(),
                    });
                }
            }
        }

        // Per-signal implied-value partition, projected onto the code bits:
        // a state sits in On(a) iff a rise of `a` is excited there, or no
        // fall is excited and the stable bit is 1 — exactly the explicit
        // classification sweep, evaluated on sets.
        let mut rise_excited = vec![reach.manager().zero(); width];
        let mut fall_excited = vec![reach.manager().zero(); width];
        for t in net.transitions() {
            if let Some(SignalTransition { signal, polarity }) = stg.label(t) {
                let enabled = reach.enabling(t);
                let slot = signal.index();
                let mgr = reach.manager_mut();
                match polarity {
                    Polarity::Rise => rise_excited[slot] = mgr.or(rise_excited[slot], enabled),
                    Polarity::Fall => fall_excited[slot] = mgr.or(fall_excited[slot], enabled),
                }
            }
        }
        let place_vars: Vec<usize> = (0..place_count).collect();
        let reached = reach.reachable();
        let mut on_codes = Vec::with_capacity(width);
        let mut off_codes = Vec::with_capacity(width);
        {
            let mgr = reach.manager_mut();
            let places_cube = mgr.cube_vars(&place_vars);
            for k in 0..width {
                let bit = mgr.var(code_vars[k]);
                let not_falling = mgr.diff(reached, fall_excited[k]);
                let stable_on = mgr.and(not_falling, bit);
                let on_states = mgr.or(rise_excited[k], stable_on);
                let off_states = mgr.diff(reached, on_states);
                on_codes.push(mgr.exists(on_states, places_cube));
                off_codes.push(mgr.exists(off_states, places_cube));
            }
        }

        let mut code_map = vec![None; place_count + width];
        for (k, &var) in code_vars.iter().enumerate() {
            code_map[var] = Some(k);
        }

        // The projected code sets are handed out for the lifetime of the
        // struct: pin them against caller-driven collection.
        {
            let mgr = reach.manager_mut();
            for &b in on_codes.iter().chain(&off_codes) {
                mgr.protect(b);
            }
        }

        Ok(SymbolicSg {
            reach,
            width,
            initial_code,
            on_codes,
            off_codes,
            code_map,
        })
    }

    /// Number of reachable states, saturating at `u128::MAX`. Codes are a
    /// function of markings (checked during [`build`](Self::build)), so
    /// this equals the explicit state-graph size.
    pub fn state_count(&self) -> u128 {
        self.reach.state_count()
    }

    /// The initial binary code `v₀` (declared or inferred).
    pub fn initial_code(&self) -> &BinaryCode {
        &self.initial_code
    }

    /// The underlying symbolic reachability result.
    pub fn reach(&self) -> &SymbolicReach {
        &self.reach
    }

    /// The exact on/off code sets of `signal` as implicit covers — the same
    /// point sets the explicit classification sweep produces (pinned by the
    /// equivalence tests), converted out of the reachable BDD.
    ///
    /// # Panics
    ///
    /// Panics if the signal id is out of range.
    pub fn on_off_sets(&self, signal: SignalId) -> ImplicitOnOffSets {
        let mut pool = ImplicitPool::new(self.width);
        let mgr = self.reach.manager();
        let on = expect_code_set(mgr.to_implicit(
            self.on_codes[signal.index()],
            &mut pool,
            &self.code_map,
        ));
        let off = expect_code_set(mgr.to_implicit(
            self.off_codes[signal.index()],
            &mut pool,
            &self.code_map,
        ));
        ImplicitOnOffSets::from_parts(signal, pool, on, off)
    }

    /// The on/off code sets of every signal in `signals`, extracted with
    /// the selected front end into **one** shared pool (shared code
    /// subgraphs convert once across the whole batch, not once per
    /// signal) and then carved into per-signal pools ready for parallel
    /// minimisation. Both front ends produce the same point sets, so
    /// everything downstream is byte-identical (pinned by the
    /// equivalence suites).
    ///
    /// Takes `&mut self` because ISOP extraction writes the BDD
    /// manager's memo tables; the reachable relation itself is not
    /// touched.
    ///
    /// # Panics
    ///
    /// Panics if a signal id is out of range.
    pub fn extract_on_off_sets(
        &mut self,
        signals: &[SignalId],
        extraction: CoverExtraction,
    ) -> Vec<ImplicitOnOffSets> {
        let mut shared = ImplicitPool::new(self.width);
        let mut cache = TranslationCache::default();
        let mut sets = Vec::with_capacity(signals.len());
        for &signal in signals {
            let on_bdd = self.on_codes[signal.index()];
            let off_bdd = self.off_codes[signal.index()];
            let (on, off) = match extraction {
                CoverExtraction::Isop => {
                    let mgr = self.reach.manager_mut();
                    (
                        expect_code_set(mgr.isop_implicit(on_bdd, &mut shared, &self.code_map)),
                        expect_code_set(mgr.isop_implicit(off_bdd, &mut shared, &self.code_map)),
                    )
                }
                CoverExtraction::Translate => {
                    let mgr = self.reach.manager();
                    (
                        expect_code_set(mgr.to_implicit_cached(
                            on_bdd,
                            &mut shared,
                            &self.code_map,
                            &mut cache,
                        )),
                        expect_code_set(mgr.to_implicit_cached(
                            off_bdd,
                            &mut shared,
                            &self.code_map,
                            &mut cache,
                        )),
                    )
                }
            };
            // Carve the pair out of the shared pool: minimisation
            // mutates its pool, and the per-signal workers run in
            // parallel, so each signal gets a minimal pool of its own.
            let mut pool = ImplicitPool::new(self.width);
            let on = pool.copy_set_from(&shared, on);
            let off = pool.copy_set_from(&shared, off);
            sets.push(ImplicitOnOffSets::from_parts(signal, pool, on, off));
        }
        sets
    }
}

/// Unwraps a code-set conversion: the on/off code BDDs are projections
/// onto the code variables (everything else is quantified out during
/// [`SymbolicSg::build`]), so their support is mapped by construction.
fn expect_code_set(set: Result<ImplicitCover, ConvertError>) -> ImplicitCover {
    match set {
        Ok(set) => set,
        Err(e) => unreachable!("code sets live on mapped code variables: {e}"),
    }
}

/// The places-only projection of [`variable_order`], for marking-only
/// passes (`aux_vars == 0`): same relative place layout, so the
/// initial-code inference fixpoints stay as cheap as the main traversal.
fn place_order(full_order: &[usize], place_count: usize) -> Vec<usize> {
    full_order
        .iter()
        .copied()
        .filter(|&v| v < place_count)
        .collect()
}

/// Lays the state variables out for locality under the selected seed.
fn variable_order(stg: &Stg, seed: OrderSeed, certificate: &SafetyCertificate) -> Vec<usize> {
    match seed {
        OrderSeed::SignalAdjacency => adjacency_order(stg),
        OrderSeed::PlaceInvariants if certificate.invariants.is_empty() => adjacency_order(stg),
        OrderSeed::PlaceInvariants => invariant_order(stg, certificate),
    }
}

/// Signal-adjacency seed: signals ordered by the adjacency heuristic, each
/// immediately followed by the not-yet-placed places around its
/// transitions, leftovers at the end.
fn adjacency_order(stg: &Stg) -> Vec<usize> {
    let net = stg.net();
    let width = stg.signal_count();
    let place_count = net.place_count();

    // Signal adjacency: two signals are adjacent when a place connects
    // transitions labelled with them.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for p in net.places() {
        for &tin in net.place_preset(p) {
            for &tout in net.place_postset(p) {
                if let (Some(a), Some(b)) = (stg.label(tin), stg.label(tout)) {
                    if a.signal != b.signal {
                        edges.push((a.signal.index(), b.signal.index()));
                    }
                }
            }
        }
    }
    let signal_order = order_from_adjacency(width, &edges);

    let mut order = Vec::with_capacity(place_count + width);
    let mut place_done = vec![false; place_count];
    for &s in &signal_order {
        order.push(place_count + s);
        for t in stg.transitions_of(SignalId(s as u32)) {
            for &p in net.preset(t).iter().chain(net.postset(t)) {
                if !place_done[p.index()] {
                    place_done[p.index()] = true;
                    order.push(p.index());
                }
            }
        }
    }
    for (p, &done) in place_done.iter().enumerate() {
        if !done {
            order.push(p);
        }
    }
    order
}

/// P-invariant seed: the bandwidth heuristic runs over *all* state
/// variables at once, with the places of each unary invariant chained into
/// a path (token conservation makes them one correlated group) and every
/// signal's code bit tied to the places its transitions touch. The
/// resulting order interleaves invariant clusters with their signals.
fn invariant_order(stg: &Stg, certificate: &SafetyCertificate) -> Vec<usize> {
    let net = stg.net();
    let place_count = net.place_count();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for invariant in &certificate.invariants {
        for pair in invariant.windows(2) {
            edges.push((pair[0].index(), pair[1].index()));
        }
    }
    for t in net.transitions() {
        if let Some(label) = stg.label(t) {
            let code_var = place_count + label.signal.index();
            for &p in net.preset(t).iter().chain(net.postset(t)) {
                edges.push((p.index(), code_var));
            }
        } else {
            // Dummies carry no code bit; tie their surrounding places
            // directly so the cluster stays contiguous.
            for &p in net.preset(t) {
                for &q in net.postset(t) {
                    edges.push((p.index(), q.index()));
                }
            }
        }
    }
    order_from_adjacency(place_count + stg.signal_count(), &edges)
}

/// Infers the initial code the way the explicit builder does, but without
/// enumerating states: `v₀[a]` is the source value of whichever polarity of
/// `a` can fire first — read off the enabling sets of a reachability pass
/// with `a`'s transitions frozen. Signals that never fire default to 0.
fn infer_initial_code(
    stg: &Stg,
    tuning: &SymbolicTuning,
    full_order: &[usize],
    assume_one_safe: bool,
) -> Result<BinaryCode, SgError> {
    let net = stg.net();
    let order = place_order(full_order, net.place_count());
    let mut code = BinaryCode::zeros(stg.signal_count());
    for signal in stg.signals() {
        let transitions = stg.transitions_of(signal);
        if transitions.is_empty() {
            continue;
        }
        let options = SymbolicOptions {
            frozen: transitions.clone(),
            order: Some(order.clone()),
            assume_one_safe,
            ..tuning.to_options()
        };
        let reach = SymbolicReach::explore(net, &options).map_err(SgError::Net)?;
        let mut can_rise = false;
        let mut can_fall = false;
        for t in transitions {
            if !reach.enabling(t).is_false() {
                match stg.label(t).map(|l| l.polarity) {
                    Some(Polarity::Rise) => can_rise = true,
                    Some(Polarity::Fall) => can_fall = true,
                    None => unreachable!("transitions_of yields labelled transitions"),
                }
            }
        }
        match (can_rise, can_fall) {
            (true, true) => {
                return Err(SgError::Inconsistent {
                    signal: stg.signal_name(signal).to_owned(),
                    detail: format!(
                        "conflicting initial-value constraints for `{}` (both polarities \
                         can fire first)",
                        stg.signal_name(signal)
                    ),
                });
            }
            (false, true) => code.set(signal, true),
            // Rise first, or the signal never fires: starts at 0.
            (true, false) | (false, false) => {}
        }
    }
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::StateGraph;
    use crate::synth::on_off_sets_implicit;
    use si_stg::generators::{muller_pipeline, parallelizer, sequencer};
    use si_stg::suite::{paper_fig1, synthesisable, vme_read_csc};
    use si_stg::StgBuilder;

    const BUDGET: usize = 4_000_000;

    fn sym_build(stg: &si_stg::Stg, budget: usize) -> Result<SymbolicSg, SgError> {
        SymbolicSg::build(stg, &SymbolicTuning::with_budget(budget))
    }

    #[test]
    fn state_count_matches_explicit() {
        for stg in [
            paper_fig1(),
            vme_read_csc(),
            muller_pipeline(5),
            sequencer(7),
            parallelizer(3),
        ] {
            let sg = StateGraph::build(&stg, 1_000_000).expect("explicit builds");
            let sym = sym_build(&stg, BUDGET).expect("symbolic builds");
            assert_eq!(
                sym.state_count(),
                sg.len() as u128,
                "{} state counts differ",
                stg.name()
            );
        }
    }

    #[test]
    fn on_off_sets_match_explicit_point_sets() {
        for stg in [paper_fig1(), vme_read_csc(), muller_pipeline(4)] {
            let sg = StateGraph::build(&stg, 1_000_000).expect("explicit builds");
            let sym = sym_build(&stg, BUDGET).expect("symbolic builds");
            for signal in stg.implementable_signals() {
                let explicit = on_off_sets_implicit(&stg, &sg, signal).to_on_off_sets();
                let symbolic = sym.on_off_sets(signal).to_on_off_sets();
                assert_eq!(
                    explicit.on.cubes(),
                    symbolic.on.cubes(),
                    "{}: on-sets differ for {}",
                    stg.name(),
                    stg.signal_name(signal)
                );
                assert_eq!(
                    explicit.off.cubes(),
                    symbolic.off.cubes(),
                    "{}: off-sets differ for {}",
                    stg.name(),
                    stg.signal_name(signal)
                );
            }
        }
    }

    #[test]
    fn whole_suite_state_counts_match() {
        for stg in synthesisable() {
            let sg = StateGraph::build(&stg, 5_000_000).expect("explicit builds");
            let sym = sym_build(&stg, BUDGET).expect("symbolic builds");
            assert_eq!(
                sym.state_count(),
                sg.len() as u128,
                "{} state counts differ",
                stg.name()
            );
        }
    }

    #[test]
    fn initial_code_is_inferred_when_undeclared() {
        // A two-signal handshake built without declared initial values:
        // the explicit builder infers v0; the symbolic engine must agree.
        let mut b = StgBuilder::new();
        let req = b.input("req");
        let ack = b.output("ack");
        let req_p = b.rise(req);
        let ack_p = b.rise(ack);
        let req_m = b.fall(req);
        let ack_m = b.fall(ack);
        b.arc_tt(req_p, ack_p);
        b.arc_tt(ack_p, req_m);
        b.arc_tt(req_m, ack_m);
        let back = b.arc_tt(ack_m, req_p);
        b.mark(back);
        let stg = b.build().expect("valid");
        assert!(stg.initial_code().is_none());
        let sg = StateGraph::build(&stg, 1_000).expect("explicit builds");
        let sym = sym_build(&stg, BUDGET).expect("symbolic builds");
        assert_eq!(sym.initial_code(), sg.initial_code());
        assert_eq!(sym.state_count(), sg.len() as u128);
    }

    #[test]
    fn inferred_code_with_initially_high_signal() {
        // A signal whose first transition is a fall must be inferred high.
        let mut b = StgBuilder::new();
        let a = b.input("a");
        let a_m = b.fall(a);
        let a_p = b.rise(a);
        b.arc_tt(a_m, a_p);
        let back = b.arc_tt(a_p, a_m);
        b.mark(back);
        let stg = b.build().expect("valid");
        let sym = sym_build(&stg, BUDGET).expect("symbolic builds");
        assert_eq!(sym.initial_code().to_string(), "1");
        let sg = StateGraph::build(&stg, 100).expect("explicit builds");
        assert_eq!(sym.initial_code(), sg.initial_code());
    }

    #[test]
    fn inconsistent_stg_rejected() {
        // a+ fires twice in a row: no consistent assignment.
        let mut b = StgBuilder::new();
        let a = b.input("a");
        let t1 = b.rise(a);
        let t2 = b.rise(a);
        b.arc_tt(t1, t2);
        let back = b.arc_tt(t2, t1);
        b.mark(back);
        let stg = b.build().expect("structurally fine");
        assert!(matches!(
            sym_build(&stg, BUDGET),
            Err(SgError::Inconsistent { .. })
        ));
    }

    #[test]
    fn declared_code_contradiction_detected() {
        let mut b = StgBuilder::new();
        let a = b.input("a");
        let t1 = b.rise(a);
        let t2 = b.fall(a);
        b.arc_tt(t1, t2);
        let back = b.arc_tt(t2, t1);
        b.mark(back);
        b.initial_value(a, true); // contradicts a+ firing first
        let stg = b.build().expect("builds");
        assert!(matches!(
            sym_build(&stg, BUDGET),
            Err(SgError::Inconsistent { .. })
        ));
    }

    #[test]
    fn node_budget_propagates() {
        let stg = muller_pipeline(8);
        assert!(matches!(
            sym_build(&stg, 10),
            Err(SgError::Net(si_petri::NetError::NodeBudgetExceeded {
                budget: 10
            }))
        ));
    }

    #[test]
    fn invariant_seed_and_certificate_skip_preserve_state_counts() {
        // Every spec here is certified 1-safe, so each build skips the
        // dynamic safety check; the state counts must still match.
        for stg in [paper_fig1(), vme_read_csc(), muller_pipeline(5)] {
            assert!(certify_one_safe(stg.net()).certified, "{}", stg.name());
            let sg = StateGraph::build(&stg, 1_000_000).expect("explicit builds");
            for order_seed in [OrderSeed::PlaceInvariants, OrderSeed::SignalAdjacency] {
                let tuning = SymbolicTuning {
                    order_seed,
                    ..SymbolicTuning::with_budget(BUDGET)
                };
                let sym = SymbolicSg::build(&stg, &tuning).expect("symbolic builds");
                assert_eq!(
                    sym.state_count(),
                    sg.len() as u128,
                    "{} under {order_seed:?}",
                    stg.name()
                );
                assert_eq!(sym.initial_code(), sg.initial_code(), "{}", stg.name());
            }
        }
    }

    #[test]
    fn unsafe_net_still_rejected_without_certificate() {
        // Two tokens on one cycle: not 1-safe, so no certificate exists and
        // the dynamic check must still fire.
        let mut b = StgBuilder::new();
        let a = b.input("a");
        let ap = b.rise(a);
        let am = b.fall(a);
        let p = b.arc_tt(ap, am);
        let q = b.arc_tt(am, ap);
        b.mark(p);
        b.mark(q);
        // Declare v0 so the build reaches the traversal (the inference pass
        // would reject this spec as inconsistent before exploring).
        b.initial_all_zero();
        let stg = b.build().expect("structurally fine");
        assert!(matches!(
            sym_build(&stg, BUDGET),
            Err(SgError::Net(si_petri::NetError::Unsafe { .. }))
        ));
    }

    #[test]
    fn pipelines_beyond_the_explicit_budget_build() {
        // 18 stages ≈ 1 M explicit states: a 100 k explicit budget fails
        // where the symbolic engine sails through.
        let stg = muller_pipeline(18);
        assert!(StateGraph::build(&stg, 100_000).is_err());
        let sym = sym_build(&stg, BUDGET).expect("symbolic builds");
        assert_eq!(sym.state_count(), 1_048_576); // 2^20
    }
}
