//! SG-based exact synthesis — the baseline flow shared by SIS and Petrify
//! that the paper compares against.
//!
//! For every implementable signal the on-set and off-set of reachable states
//! are derived from the explicit state graph and minimised with the
//! Espresso-style optimiser. The state graph itself is still explicit (that
//! is the point of the paper's unfolding-based alternative), but the on/off
//! sets use the *implicit* cover representation ([`ImplicitOnOffSets`]):
//! states are accumulated into canonical disjoint-cube sets from the
//! per-state classification the graph records as it is built
//! ([`SgClassification`]), states identical on a signal's support collapse
//! into shared diagram structure, and the minimiser phases run against the
//! implicit sets — with gate equations byte-identical to minimising the
//! explicit minterm covers of [`on_off_sets`] (pinned by the equivalence
//! tests).

use std::sync::OnceLock;

use si_cubes::implicit::{cmp_minterm_rows, ImplicitCover, ImplicitPool, MintermList};
use si_cubes::par::par_map;
use si_cubes::{minimize_exact_implicit, minimize_implicit, Cover, Cube, QmBudget};
use si_stg::{Polarity, SignalId, Stg};

use si_bdd::ReorderPolicy;

use crate::error::SgError;
use crate::graph::StateGraph;
use crate::symbolic::{CoverExtraction, OrderSeed, SymbolicSg, SymbolicTuning};

/// The exact on-set/off-set partition of the reachable states for one
/// signal, as minterm covers over the signal vector.
#[derive(Debug, Clone)]
pub struct OnOffSets {
    /// The signal being implemented.
    pub signal: SignalId,
    /// Cover of the codes whose implied (next) value of the signal is 1.
    pub on: Cover,
    /// Cover of the codes whose implied value is 0.
    pub off: Cover,
}

/// Computes the exact on/off-sets for `signal`.
///
/// A state belongs to the on-set when the *implied value* of the signal is 1:
/// either `+a` is excited there, or the signal is stable at 1. Symmetrically
/// for the off-set. Duplicate codes are deduplicated, and both covers come
/// back in canonical cube order — hash-iteration order must not leak into
/// the minimiser, or synthesis output would vary from run to run.
///
/// # Examples
///
/// ```
/// use si_stg::suite::paper_fig1;
/// use si_stategraph::{on_off_sets, StateGraph};
///
/// # fn main() -> Result<(), si_stategraph::SgError> {
/// let stg = paper_fig1();
/// let sg = StateGraph::build(&stg, 10_000)?;
/// let b = stg.signal_by_name("b").expect("signal b");
/// let sets = on_off_sets(&stg, &sg, b);
/// assert_eq!(sets.on.len(), 6);  // the paper's On(b): 6 distinct codes
/// assert_eq!(sets.off.len(), 2); // Off(b) = {010, 000}
/// # Ok(())
/// # }
/// ```
pub fn on_off_sets(stg: &Stg, sg: &StateGraph, signal: SignalId) -> OnOffSets {
    let mut on_codes = std::collections::HashSet::new();
    let mut off_codes = std::collections::HashSet::new();
    for s in 0..sg.len() {
        let code = sg.code(s);
        let excited = sg.excited(stg, s);
        let rising = excited
            .iter()
            .any(|e| e.signal == signal && e.polarity == Polarity::Rise);
        let falling = excited
            .iter()
            .any(|e| e.signal == signal && e.polarity == Polarity::Fall);
        let implied = if rising {
            true
        } else if falling {
            false
        } else {
            code.get(signal)
        };
        let minterm = Cube::minterm(code.iter().map(|(_, v)| v));
        if implied {
            on_codes.insert(minterm);
        } else {
            off_codes.insert(minterm);
        }
    }
    let sorted = |codes: std::collections::HashSet<Cube>| -> Cover {
        let mut cubes: Vec<Cube> = codes.into_iter().collect();
        cubes.sort_by(Cube::cmp_canonical);
        cubes.into_iter().collect()
    };
    OnOffSets {
        signal,
        on: sorted(on_codes),
        off: sorted(off_codes),
    }
}

/// The exact on/off-set partition of the reachable states for one signal,
/// held as *implicit* covers: canonical disjoint-cube sets in a hash-consed
/// pool instead of one materialised minterm per state. States that agree on
/// the signal's support share diagram structure, so the representation (and
/// everything downstream of it) no longer pays the full state count.
#[derive(Debug, Clone)]
pub struct ImplicitOnOffSets {
    /// The signal being implemented.
    pub signal: SignalId,
    pool: ImplicitPool,
    on: ImplicitCover,
    off: ImplicitCover,
}

impl ImplicitOnOffSets {
    /// Assembles a set pair computed elsewhere (the symbolic engine derives
    /// the same point sets from the reachable BDD).
    pub(crate) fn from_parts(
        signal: SignalId,
        pool: ImplicitPool,
        on: ImplicitCover,
        off: ImplicitCover,
    ) -> Self {
        ImplicitOnOffSets {
            signal,
            pool,
            on,
            off,
        }
    }

    /// The pool owning both sets.
    pub fn pool(&self) -> &ImplicitPool {
        &self.pool
    }

    /// Mutable access to the pool (set operations require it).
    pub fn pool_mut(&mut self) -> &mut ImplicitPool {
        &mut self.pool
    }

    /// The implicit on-set.
    pub fn on(&self) -> ImplicitCover {
        self.on
    }

    /// The implicit off-set.
    pub fn off(&self) -> ImplicitCover {
        self.off
    }

    /// Materialises both sets as explicit minterm covers in canonical
    /// order — byte-identical to what [`on_off_sets`] returns. Costs one
    /// cube per state; intended for tests and small inspection, not for the
    /// synthesis hot path.
    pub fn to_on_off_sets(&self) -> OnOffSets {
        OnOffSets {
            signal: self.signal,
            on: self.pool.minterms_cover(self.on),
            off: self.pool.minterms_cover(self.off),
        }
    }
}

/// Per-state classification data shared by every signal's implicit on/off
/// derivation: packed binary codes plus the excited rise/fall signal masks,
/// three rows of `⌈width / 64⌉` words per state (at least one).
///
/// [`StateGraph::build`] writes one for its states in the same pass that
/// assigns their codes, and lends it out through
/// [`StateGraph::classification`]. A traversal that enumerates the
/// reachable states without building the SG fills one with
/// [`push`](SgClassification::push) instead, in any order. The first set
/// derivation sorts the states by code, once; each signal's sets then cost
/// one pass over the sorted states plus the diagram nodes they build.
/// [`on_off_sets_implicit`] is the one-signal convenience wrapper.
#[derive(Debug, Clone)]
pub struct SgClassification {
    width: usize,
    blocks: usize,
    states: usize,
    /// Per state: the packed binary code.
    codes: Vec<u64>,
    /// Per state: signals with an excited rising change.
    rise: Vec<u64>,
    /// Per state: signals with an excited falling change.
    fall: Vec<u64>,
    /// The states in canonical code order ([`cmp_minterm_rows`]), sorted
    /// on first use, so every signal's on/off rows reach
    /// [`ImplicitPool::from_minterms`] already in the order it builds from.
    /// A lock rather than a cell, because the unfolding flow derives its
    /// signals' sets from one classification on several workers.
    order: OnceLock<Vec<usize>>,
}

impl SgClassification {
    /// An empty classification over `width` signals, filled one state at a
    /// time with [`push`](Self::push) by a traversal other than the
    /// explicit SG's.
    pub fn with_width(width: usize) -> Self {
        SgClassification {
            width,
            blocks: width.div_ceil(64).max(1),
            states: 0,
            codes: Vec::new(),
            rise: Vec::new(),
            fall: Vec::new(),
            order: OnceLock::new(),
        }
    }

    /// Appends one state: its code and the signals whose rising and falling
    /// changes are excited there, each packed in [`si_stg::BinaryCode::words`]
    /// layout (`width.div_ceil(64)` words, signal `i` at bit `i % 64` of
    /// word `i / 64`). The caller pushes every reachable state exactly once.
    ///
    /// # Panics
    ///
    /// Panics if a row has the wrong number of words.
    pub fn push(&mut self, code: &[u64], rise: &[u64], fall: &[u64]) {
        let words = self.width.div_ceil(64);
        for (table, row) in [
            (&mut self.codes, code),
            (&mut self.rise, rise),
            (&mut self.fall, fall),
        ] {
            assert_eq!(row.len(), words, "state row width mismatch");
            table.extend_from_slice(row);
            // A zero-width code still takes the one block `MintermList` rows have.
            table.resize(table.len() + self.blocks - words, 0);
        }
        self.states += 1;
        self.order.take();
    }

    /// A classification of `codes.len() / blocks` states from its packed
    /// rows, `blocks = width.div_ceil(64).max(1)` words per state in each.
    pub(crate) fn from_rows(width: usize, codes: Vec<u64>, rise: Vec<u64>, fall: Vec<u64>) -> Self {
        let blocks = width.div_ceil(64).max(1);
        SgClassification {
            width,
            blocks,
            states: codes.len() / blocks,
            codes,
            rise,
            fall,
            order: OnceLock::new(),
        }
    }

    /// Number of classified states.
    pub fn len(&self) -> usize {
        self.states
    }

    /// Number of signals per code.
    pub fn width(&self) -> usize {
        self.width
    }

    /// State `s`'s packed code: signal `i` at bit `i % 64` of word `i / 64`,
    /// zero-padded to at least one word.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn code_words(&self, s: usize) -> &[u64] {
        &self.codes[s * self.blocks..(s + 1) * self.blocks]
    }

    /// The signals with an excited rising change and those with an excited
    /// falling change at state `s`, packed like
    /// [`code_words`](Self::code_words).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn excited_words(&self, s: usize) -> (&[u64], &[u64]) {
        let rows = s * self.blocks..(s + 1) * self.blocks;
        (&self.rise[rows.clone()], &self.fall[rows])
    }

    /// Returns `true` if no state has been classified.
    pub fn is_empty(&self) -> bool {
        self.states == 0
    }

    /// The implicit on/off sets of `signal`, derived from the shared sweep.
    pub fn on_off_sets(&self, signal: SignalId) -> ImplicitOnOffSets {
        let (pool, on, off) = self.sets_for(signal);
        ImplicitOnOffSets {
            signal,
            pool,
            on,
            off,
        }
    }

    /// Builds `signal`'s implicit on/off sets into a caller-held pool —
    /// the batch form of [`on_off_sets`](Self::on_off_sets): states
    /// shared between signals collapse into diagram structure **once**
    /// across the whole batch instead of being rebuilt per signal. Each
    /// side's rows stream into [`ImplicitPool::from_minterms`] in the
    /// classification's canonical code order, so the builder never sorts.
    pub fn sets_into(
        &self,
        pool: &mut ImplicitPool,
        signal: SignalId,
    ) -> (ImplicitCover, ImplicitCover) {
        let (b, m) = (signal.index() / 64, 1u64 << (signal.index() % 64));
        let mut on_list = MintermList::new(self.width);
        let mut off_list = MintermList::new(self.width);
        for &s in self.order() {
            let base = s * self.blocks;
            let row = &self.codes[base..base + self.blocks];
            let implied = if self.rise[base + b] & m != 0 {
                true
            } else if self.fall[base + b] & m != 0 {
                false
            } else {
                row[b] & m != 0
            };
            if implied {
                on_list.push_blocks(row);
            } else {
                off_list.push_blocks(row);
            }
        }
        let on = pool.from_minterms(&mut on_list);
        let off = pool.from_minterms(&mut off_list);
        (on, off)
    }

    /// Builds `signal`'s excitation regions into a caller-held pool:
    /// `ER(+a)`, the states where its rising change is excited, and
    /// `ER(-a)`, those where its falling change is. These are the points a
    /// Set and a Reset function must cover. Rows stream into
    /// [`ImplicitPool::from_minterms`] in canonical code order, as in
    /// [`sets_into`](Self::sets_into).
    pub fn excitation_sets_into(
        &self,
        pool: &mut ImplicitPool,
        signal: SignalId,
    ) -> (ImplicitCover, ImplicitCover) {
        let (b, m) = (signal.index() / 64, 1u64 << (signal.index() % 64));
        let mut rise_list = MintermList::new(self.width);
        let mut fall_list = MintermList::new(self.width);
        for &s in self.order() {
            let base = s * self.blocks;
            let row = &self.codes[base..base + self.blocks];
            if self.rise[base + b] & m != 0 {
                rise_list.push_blocks(row);
            }
            if self.fall[base + b] & m != 0 {
                fall_list.push_blocks(row);
            }
        }
        let rise = pool.from_minterms(&mut rise_list);
        let fall = pool.from_minterms(&mut fall_list);
        (rise, fall)
    }

    /// The states in canonical code order, sorted on the first call.
    fn order(&self) -> &[usize] {
        self.order.get_or_init(|| {
            let code = |s: usize| &self.codes[s * self.blocks..(s + 1) * self.blocks];
            // The first block's bit-reversed word leads the canonical order
            // and settles almost every comparison without an indirection.
            let mut keyed: Vec<(u64, usize)> = (0..self.states)
                .map(|s| (code(s)[0].reverse_bits(), s))
                .collect();
            keyed.sort_unstable_by(|a, b| {
                a.0.cmp(&b.0)
                    .then_with(|| cmp_minterm_rows(code(a.1), code(b.1)))
            });
            keyed.into_iter().map(|(_, s)| s).collect()
        })
    }

    /// Builds the implicit on/off sets of one signal: every state's code
    /// goes to the side its *implied* signal value selects (excited rise →
    /// on, excited fall → off, otherwise the stable code bit), merged into
    /// the diagram as a bulk batch.
    fn sets_for(&self, signal: SignalId) -> (ImplicitPool, ImplicitCover, ImplicitCover) {
        let mut pool = ImplicitPool::new(self.width);
        let (on, off) = self.sets_into(&mut pool, signal);
        (pool, on, off)
    }
}

/// Computes the exact on/off-sets for `signal` as implicit covers — the
/// scalable counterpart of [`on_off_sets`]. The point sets are identical
/// (pinned by the equivalence tests); only the representation differs.
///
/// The sets come from the graph's [`StateGraph::classification`], which
/// was recorded from `stg` when the graph was built, so `stg` itself is
/// not read. When deriving sets for many signals of the same SG, prefer
/// [`synthesize_from_built_sg`], which builds them all into one pool.
///
/// # Examples
///
/// ```
/// use si_stg::suite::paper_fig1;
/// use si_stategraph::{on_off_sets_implicit, StateGraph};
///
/// # fn main() -> Result<(), si_stategraph::SgError> {
/// let stg = paper_fig1();
/// let sg = StateGraph::build(&stg, 10_000)?;
/// let b = stg.signal_by_name("b").expect("signal b");
/// let sets = on_off_sets_implicit(&stg, &sg, b);
/// assert_eq!(sets.pool().count(sets.on()), 6); // On(b): 6 codes
/// assert_eq!(sets.pool().count(sets.off()), 2); // Off(b) = {010, 000}
/// # Ok(())
/// # }
/// ```
pub fn on_off_sets_implicit(_stg: &Stg, sg: &StateGraph, signal: SignalId) -> ImplicitOnOffSets {
    sg.classification().on_off_sets(signal)
}

/// The synthesised gate for one signal in the atomic-complex-gate-per-signal
/// architecture.
#[derive(Debug, Clone)]
pub struct GateImplementation {
    /// The implemented signal.
    pub signal: SignalId,
    /// Minimised cover of the on-set (the gate's SOP function).
    pub cover: Cover,
    /// `true` if the off-set was implemented instead (inverted gate) because
    /// it was simpler.
    pub inverted: bool,
}

impl GateImplementation {
    /// Total literal count of the gate (the paper's quality metric).
    pub fn literal_count(&self) -> usize {
        self.cover.literal_count()
    }

    /// Renders the gate equation, e.g. `b = a + c`.
    pub fn equation(&self, stg: &Stg) -> String {
        let names: Vec<&str> = stg.signals().map(|s| stg.signal_name(s)).collect();
        format!(
            "{}{} = {}",
            stg.signal_name(self.signal),
            if self.inverted { "'" } else { "" },
            self.cover.to_expression_string(&names)
        )
    }
}

/// The state-traversal engine behind SG-based synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SgEngine {
    /// Explicit enumeration: build the full [`StateGraph`] one marking at a
    /// time (bounded by [`SgSynthesisOptions::state_budget`]). The
    /// historical baseline; cost is linear in the state count.
    #[default]
    Explicit,
    /// Symbolic traversal: compute the reachable set as a BDD fixpoint
    /// ([`crate::SymbolicSg`], bounded by
    /// [`SgSynthesisOptions::symbolic_node_budget`]) and derive each
    /// signal's on/off sets from the reachable BDD, bypassing
    /// [`StateGraph`] construction entirely. Gate equations are
    /// byte-identical to the explicit engine's; the cost tracks diagram
    /// sizes, so pipelines far beyond the explicit state budget synthesise
    /// in seconds.
    Symbolic,
}

/// Options for SG-based synthesis.
#[derive(Debug, Clone)]
pub struct SgSynthesisOptions {
    /// State-traversal engine (explicit enumeration vs symbolic BDD
    /// fixpoint). Both produce identical gate equations.
    pub engine: SgEngine,
    /// State budget for explicit reachability exploration (the maximum
    /// number of states stored; ignored by the symbolic engine).
    pub state_budget: usize,
    /// BDD node budget for the symbolic engine: an upper bound on *live*
    /// nodes, checked between fixpoint iterations after garbage collection
    /// (ignored by the explicit engine).
    pub symbolic_node_budget: usize,
    /// Dynamic variable reordering policy of the symbolic engine: `Off`
    /// keeps the adjacency-seeded static order, `Sift` reorders as a last
    /// resort under budget pressure, `Auto` reorders proactively on pool
    /// growth. Gate equations are identical under every policy (pinned by
    /// the equivalence tests); only memory/speed differ.
    pub symbolic_reorder: ReorderPolicy,
    /// Pool size above which the symbolic engine collects garbage between
    /// fixpoint iterations (`0` collects every iteration; the stress
    /// suites use this to force collection on every step).
    pub symbolic_gc_threshold: usize,
    /// Allow implementing the complemented function when the off-set cover
    /// is cheaper (both SIS and Petrify do this); the paper's examples
    /// implement the on-set, so the default is `false`.
    pub allow_inversion: bool,
    /// Use exact (Quine–McCluskey) two-level minimisation instead of the
    /// Espresso-style heuristic — the behaviour the paper blames for the
    /// second exponent of the Figure 6 curves. Falls back to the heuristic
    /// when the exact search exceeds its budget.
    pub exact_minimization: bool,
    /// Worker threads for the per-signal on/off-set derivation and
    /// minimisation; `None` uses one per available CPU. Output is
    /// bit-identical to sequential (`Some(1)`) regardless of the count.
    /// State traversal is serial under either engine.
    pub workers: Option<usize>,
    /// Structural heuristic seeding the symbolic engine's static variable
    /// order (ignored by the explicit engine). Gate equations are
    /// byte-identical under every seed (pinned by the equivalence tests);
    /// only diagram sizes differ.
    pub symbolic_order_seed: OrderSeed,
    /// Ignored: [`CoverExtraction`] has one variant. The field stays only
    /// because the benchmark worker passes it to
    /// [`SymbolicSg::extract_on_off_sets`].
    pub extraction: CoverExtraction,
    /// Ignored: the BDD kernels are serial. The field stays so that code
    /// built against the earlier multi-threaded kernels, which set it,
    /// still compiles.
    pub bdd_threads: Option<usize>,
}

impl Default for SgSynthesisOptions {
    fn default() -> Self {
        let tuning = SymbolicTuning::default();
        SgSynthesisOptions {
            engine: SgEngine::Explicit,
            state_budget: 2_000_000,
            symbolic_node_budget: tuning.node_budget,
            symbolic_reorder: tuning.reorder,
            symbolic_gc_threshold: tuning.gc_threshold,
            allow_inversion: false,
            exact_minimization: false,
            workers: None,
            symbolic_order_seed: tuning.order_seed,
            extraction: CoverExtraction::default(),
            bdd_threads: None,
        }
    }
}

impl SgSynthesisOptions {
    /// The [`SymbolicTuning`] these options select for the symbolic engine.
    pub fn symbolic_tuning(&self) -> SymbolicTuning {
        SymbolicTuning {
            node_budget: self.symbolic_node_budget,
            reorder: self.symbolic_reorder,
            gc_threshold: self.symbolic_gc_threshold,
            order_seed: self.symbolic_order_seed,
            ..SymbolicTuning::default()
        }
    }
}

/// The result of synthesising every implementable signal from the SG.
#[derive(Debug, Clone)]
pub struct SgSynthesis {
    /// One gate per implementable signal, in signal order.
    pub gates: Vec<GateImplementation>,
}

impl SgSynthesis {
    /// Total literal count over all gates (Table 1's `LitCnt`).
    pub fn literal_count(&self) -> usize {
        self.gates
            .iter()
            .map(GateImplementation::literal_count)
            .sum()
    }
}

/// Synthesises all implementable signals of `stg` from an explicitly built
/// state graph (the SIS/Petrify-style baseline).
///
/// # Errors
///
/// * [`SgError::Net`] / [`SgError::Inconsistent`] from SG construction;
/// * [`SgError::CscViolation`] if some signal's on- and off-sets share a
///   code (exact covers intersect);
/// * [`SgError::ConstantSignal`] if an implementable signal never changes.
///
/// # Examples
///
/// ```
/// use si_stg::suite::paper_fig1;
/// use si_stategraph::{synthesize_from_sg, SgSynthesisOptions};
///
/// # fn main() -> Result<(), si_stategraph::SgError> {
/// let stg = paper_fig1();
/// let result = synthesize_from_sg(&stg, &SgSynthesisOptions::default())?;
/// assert_eq!(result.gates.len(), 1); // only `b` is an output
/// assert_eq!(result.gates[0].equation(&stg), "b = a + c");
/// # Ok(())
/// # }
/// ```
pub fn synthesize_from_sg(stg: &Stg, options: &SgSynthesisOptions) -> Result<SgSynthesis, SgError> {
    match options.engine {
        SgEngine::Explicit => {
            let sg = StateGraph::build(stg, options.state_budget)?;
            synthesize_from_built_sg(stg, &sg, options)
        }
        SgEngine::Symbolic => {
            // No pre-check here: `synthesize_from_symbolic_sg` validates
            // after the traversal, mirroring the explicit arm's error
            // precedence (net/traversal errors before `ConstantSignal`).
            let mut sym = SymbolicSg::build(stg, &options.symbolic_tuning())?;
            synthesize_from_symbolic_sg(stg, &mut sym, options)
        }
    }
}

/// Validates that every implementable signal actually changes somewhere,
/// returning the signal list synthesis will implement (in signal order).
/// Public so callers that split the flow into phases (extraction vs
/// minimisation, e.g. for timing) run the same pre-check synthesis does.
///
/// # Errors
///
/// [`SgError::ConstantSignal`] if an implementable signal never changes.
pub fn check_implementable(stg: &Stg) -> Result<Vec<SignalId>, SgError> {
    let signals = stg.implementable_signals();
    for &signal in &signals {
        if stg.transitions_of(signal).is_empty() {
            return Err(SgError::ConstantSignal {
                signal: stg.signal_name(signal).to_owned(),
            });
        }
    }
    Ok(signals)
}

/// Like [`synthesize_from_sg`] but reuses an already built state graph
/// (exposing the intermediate result per C-INTERMEDIATE).
///
/// The classification the state graph recorded while it was built
/// ([`StateGraph::classification`]) feeds every signal's implicit set
/// construction, CSC check and minimisation, so the per-signal cost tracks
/// the implicit representation size instead of the state count.
///
/// # Errors
///
/// * [`SgError::CscViolation`] if some signal's on- and off-sets share a
///   code;
/// * [`SgError::ConstantSignal`] if an implementable signal never changes.
pub fn synthesize_from_built_sg(
    stg: &Stg,
    sg: &StateGraph,
    options: &SgSynthesisOptions,
) -> Result<SgSynthesis, SgError> {
    let signals = check_implementable(stg)?;
    let class = sg.classification();
    // One shared pool for every signal's set construction: states shared
    // between signals collapse into diagram structure once instead of
    // being rebuilt from scratch per signal. The build is sequential
    // (deterministic pool), the minimisation parallel over per-signal
    // carve-outs.
    let mut shared = ImplicitPool::new(class.width);
    let handles: Vec<(SignalId, ImplicitCover, ImplicitCover)> = signals
        .iter()
        .map(|&signal| {
            let (on, off) = class.sets_into(&mut shared, signal);
            (signal, on, off)
        })
        .collect();
    let results = par_map(&handles, options.workers, |_, &(signal, on, off)| {
        let mut pool = ImplicitPool::new(class.width);
        let on = pool.copy_set_from(&shared, on);
        let off = pool.copy_set_from(&shared, off);
        implement_implicit(
            stg,
            ImplicitOnOffSets::from_parts(signal, pool, on, off),
            options,
        )
    });
    let gates = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(SgSynthesis { gates })
}

/// Synthesises all implementable signals from an already built
/// [`SymbolicSg`] — the engine-split counterpart of
/// [`synthesize_from_built_sg`], exposing the intermediate reachability
/// result so callers (the benches) can time the phases separately. Each
/// signal's on/off code sets are translated out of the reachable BDD in
/// one batch; gate equations are byte-identical to the explicit engine's.
///
/// Takes `&mut SymbolicSg` only because
/// [`SymbolicSg::extract_on_off_sets`] keeps its `&mut self` receiver for
/// the benchmark worker; nothing in `sym` is modified.
///
/// # Errors
///
/// * [`SgError::CscViolation`] if some signal's on- and off-sets share a
///   code;
/// * [`SgError::ConstantSignal`] if an implementable signal never changes.
pub fn synthesize_from_symbolic_sg(
    stg: &Stg,
    sym: &mut SymbolicSg,
    options: &SgSynthesisOptions,
) -> Result<SgSynthesis, SgError> {
    let signals = check_implementable(stg)?;
    let sets = sym.extract_on_off_sets(&signals, options.extraction);
    synthesize_from_on_off_sets(stg, sets, options)
}

/// Minimises already extracted per-signal implicit sets into gates — the
/// back half of the symbolic flow, split out so callers can time
/// extraction and minimisation separately (the `synth` CLI's `ExtTim`
/// row). Gates come back in the order of `sets`.
///
/// # Errors
///
/// [`SgError::CscViolation`] if some signal's on- and off-sets share a
/// code.
pub fn synthesize_from_on_off_sets(
    stg: &Stg,
    sets: Vec<ImplicitOnOffSets>,
    options: &SgSynthesisOptions,
) -> Result<SgSynthesis, SgError> {
    let results = par_map(&sets, options.workers, |_, sets| {
        implement_implicit(stg, sets.clone(), options)
    });
    let gates = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(SgSynthesis { gates })
}

/// The shared per-signal tail of both implicit-set engines: CSC check on
/// the implicit sets (canonically smallest shared code as the witness),
/// then minimisation, optionally of the complemented function.
fn implement_implicit(
    stg: &Stg,
    sets: ImplicitOnOffSets,
    options: &SgSynthesisOptions,
) -> Result<GateImplementation, SgError> {
    let signal = sets.signal;
    let (on, off) = (sets.on, sets.off);
    let mut pool = sets.pool;
    let shared = pool.intersect(on, off);
    if let Some(bits) = pool.first_minterm(shared) {
        return Err(SgError::CscViolation {
            signal: stg.signal_name(signal).to_owned(),
            code: Cube::minterm(bits).to_string(),
        });
    }
    let run_minimize = |pool: &mut ImplicitPool, on, off| {
        if options.exact_minimization {
            minimize_exact_implicit(pool, on, off, &QmBudget::default())
                .unwrap_or_else(|| minimize_implicit(pool, on, off))
        } else {
            minimize_implicit(pool, on, off)
        }
    };
    let on_impl = run_minimize(&mut pool, on, off);
    let (cover, inverted) = if options.allow_inversion {
        let off_impl = run_minimize(&mut pool, off, on);
        if off_impl.literal_count() < on_impl.literal_count() {
            (off_impl, true)
        } else {
            (on_impl, false)
        }
    } else {
        (on_impl, false)
    };
    Ok(GateImplementation {
        signal,
        cover,
        inverted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_cubes::{minimize, minimize_exact};
    use si_stg::generators::{muller_pipeline, sequencer};
    use si_stg::suite::{paper_fig1, vme_read_csc, vme_read_no_csc};

    /// The explicit-minterm reference flow: minimise each signal's
    /// [`on_off_sets`] cube lists directly, with the library's inversion
    /// rule and exact-minimisation fallback, or report the first signal's
    /// first shared cube as the CSC witness.
    fn explicit_reference(
        stg: &Stg,
        exact_minimization: bool,
        allow_inversion: bool,
    ) -> Result<Vec<GateImplementation>, SgError> {
        let sg = StateGraph::build(stg, 100_000).expect("builds");
        let run = |on: &Cover, off: &Cover| {
            if exact_minimization {
                minimize_exact(on, off, &QmBudget::default()).unwrap_or_else(|| minimize(on, off))
            } else {
                minimize(on, off)
            }
        };
        stg.implementable_signals()
            .into_iter()
            .map(|signal| {
                let sets = on_off_sets(stg, &sg, signal);
                if let Some(code) = sets.on.intersect(&sets.off).cubes().first() {
                    return Err(SgError::CscViolation {
                        signal: stg.signal_name(signal).to_owned(),
                        code: code.to_string(),
                    });
                }
                let on_impl = run(&sets.on, &sets.off);
                let off_impl = allow_inversion.then(|| run(&sets.off, &sets.on));
                let (cover, inverted) = match off_impl {
                    Some(off) if off.literal_count() < on_impl.literal_count() => (off, true),
                    _ => (on_impl, false),
                };
                Ok(GateImplementation {
                    signal,
                    cover,
                    inverted,
                })
            })
            .collect()
    }

    #[test]
    fn engine_default_is_explicit() {
        assert_eq!(SgSynthesisOptions::default().engine, SgEngine::Explicit);
    }

    #[test]
    fn fig1_baseline_matches_paper() {
        let stg = paper_fig1();
        let result = synthesize_from_sg(&stg, &SgSynthesisOptions::default()).expect("ok");
        assert_eq!(result.gates.len(), 1);
        assert_eq!(result.gates[0].equation(&stg), "b = a + c");
        assert_eq!(result.literal_count(), 2);
    }

    #[test]
    fn fig1_off_set_matches_paper() {
        let stg = paper_fig1();
        let sg = StateGraph::build(&stg, 1000).expect("builds");
        let b = stg.signal_by_name("b").expect("b");
        let sets = on_off_sets(&stg, &sg, b);
        let off = minimize(&sets.off, &sets.on);
        let names: Vec<&str> = stg.signals().map(|s| stg.signal_name(s)).collect();
        // The paper: C_Off = a̅c̅.
        assert_eq!(off.to_expression_string(&names), "a' c'");
    }

    #[test]
    fn vme_csc_violation_detected() {
        let stg = vme_read_no_csc();
        let err = synthesize_from_sg(&stg, &SgSynthesisOptions::default()).unwrap_err();
        assert!(matches!(err, SgError::CscViolation { .. }));
    }

    #[test]
    fn vme_with_csc_synthesises() {
        let stg = vme_read_csc();
        let result = synthesize_from_sg(&stg, &SgSynthesisOptions::default()).expect("ok");
        // lds, d, dtack, csc0 are implementable.
        assert_eq!(result.gates.len(), 4);
        assert!(result.literal_count() > 0);
        // Every gate's cover must separate on from off on reachable states.
        let sg = StateGraph::build(&stg, 10_000).expect("builds");
        for gate in &result.gates {
            let sets = on_off_sets(&stg, &sg, gate.signal);
            assert!(gate.cover.covers_cover(&sets.on));
            assert!(!gate.cover.intersects(&sets.off));
        }
    }

    #[test]
    fn muller_pipeline_c_element_equations() {
        let stg = muller_pipeline(2);
        let result = synthesize_from_sg(&stg, &SgSynthesisOptions::default()).expect("ok");
        assert_eq!(result.gates.len(), 2);
        // Each stage is a C-element: next(ci) = majority-ish function of
        // neighbours and itself; at minimum 3 literals under SOP.
        for gate in &result.gates {
            assert!(gate.literal_count() >= 3, "{}", gate.equation(&stg));
        }
    }

    #[test]
    fn implicit_sets_match_explicit_point_sets() {
        for stg in [
            paper_fig1(),
            vme_read_csc(),
            muller_pipeline(4),
            sequencer(5),
        ] {
            let sg = StateGraph::build(&stg, 100_000).expect("builds");
            for signal in stg.implementable_signals() {
                let explicit = on_off_sets(&stg, &sg, signal);
                let implicit = on_off_sets_implicit(&stg, &sg, signal).to_on_off_sets();
                assert_eq!(
                    explicit.on.cubes(),
                    implicit.on.cubes(),
                    "{}: on-sets differ for {}",
                    stg.name(),
                    stg.signal_name(signal)
                );
                assert_eq!(
                    explicit.off.cubes(),
                    implicit.off.cubes(),
                    "{}: off-sets differ for {}",
                    stg.name(),
                    stg.signal_name(signal)
                );
            }
        }
    }

    #[test]
    fn pushed_rows_in_any_order_give_the_per_state_sets() {
        // 70 signals: two words per row. States come in groups of four
        // that share the first word of their code and differ only in the
        // second, pushed out of canonical order, so the classification's
        // sort has to order the second word within each group.
        let width = 70;
        let hash = |k: u64| k.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23) ^ k;
        let n = 48u64;
        let rows: Vec<[[u64; 2]; 3]> = (0..n)
            .map(|k| k * 11 % n)
            .map(|k| {
                let code = [hash(k / 4), hash(k) & 0x3f];
                let rise = [hash(k + n), hash(k + n) & 0x3f];
                let fall = [
                    hash(k + 2 * n) & !rise[0],
                    hash(k + 2 * n) & 0x3f & !rise[1],
                ];
                [code, rise, fall]
            })
            .collect();
        let mut class = SgClassification::with_width(width);
        for [code, rise, fall] in &rows {
            class.push(code, rise, fall);
        }
        let mut pool = ImplicitPool::new(width);
        for signal in [0, 1, 31, 63, 64, 65, 69].map(SignalId) {
            let (b, m) = (signal.index() / 64, 1u64 << (signal.index() % 64));
            let (mut on, mut off) = (pool.empty(), pool.empty());
            let (mut er_rise, mut er_fall) = (pool.empty(), pool.empty());
            for [code, rise, fall] in &rows {
                let implied = rise[b] & m != 0 || (fall[b] & m == 0 && code[b] & m != 0);
                let point = pool.cube_set(&Cube::minterm(
                    (0..width).map(|i| code[i / 64] >> (i % 64) & 1 == 1),
                ));
                if implied {
                    on = pool.union(on, point);
                } else {
                    off = pool.union(off, point);
                }
                if rise[b] & m != 0 {
                    er_rise = pool.union(er_rise, point);
                }
                if fall[b] & m != 0 {
                    er_fall = pool.union(er_fall, point);
                }
            }
            assert_eq!(class.sets_into(&mut pool, signal), (on, off), "{signal:?}");
            assert_eq!(
                class.excitation_sets_into(&mut pool, signal),
                (er_rise, er_fall),
                "{signal:?}"
            );
        }
        // The rows reach the builder canonically ordered, so it never sorts.
        let code = |s: usize| &class.codes[2 * s..2 * s + 2];
        assert!(class
            .order()
            .windows(2)
            .all(|w| cmp_minterm_rows(code(w[0]), code(w[1])).is_le()));
    }

    #[test]
    fn implicit_and_explicit_paths_agree_byte_for_byte() {
        for stg in [
            paper_fig1(),
            vme_read_csc(),
            muller_pipeline(5),
            sequencer(6),
        ] {
            for exact_minimization in [false, true] {
                for allow_inversion in [false, true] {
                    let implicit = synthesize_from_sg(
                        &stg,
                        &SgSynthesisOptions {
                            exact_minimization,
                            allow_inversion,
                            ..Default::default()
                        },
                    )
                    .expect("implicit ok");
                    let explicit = explicit_reference(&stg, exact_minimization, allow_inversion)
                        .expect("explicit ok");
                    assert_eq!(implicit.gates.len(), explicit.len(), "{}", stg.name());
                    for (a, b) in implicit.gates.iter().zip(&explicit) {
                        assert_eq!(
                            a.equation(&stg),
                            b.equation(&stg),
                            "{} (exact={exact_minimization}, invert={allow_inversion})",
                            stg.name()
                        );
                        assert_eq!(a.inverted, b.inverted);
                    }
                }
            }
        }
    }

    #[test]
    fn csc_violation_witness_identical_across_paths() {
        let stg = vme_read_no_csc();
        let implicit = synthesize_from_sg(&stg, &SgSynthesisOptions::default()).unwrap_err();
        let explicit = explicit_reference(&stg, false, false).unwrap_err();
        assert_eq!(implicit, explicit, "witness code or signal differs");
    }

    #[test]
    fn budget_exhaustion_is_an_error_in_both_paths() {
        // Exceeding the state budget mid-traversal must surface as an
        // `SgError`, never a partial state graph silently synthesised into
        // a wrong gate — through the one-call flow and through the
        // build-then-synthesise split alike.
        let stg = muller_pipeline(8);
        let options = SgSynthesisOptions {
            state_budget: 100,
            ..Default::default()
        };
        let split = StateGraph::build(&stg, options.state_budget)
            .and_then(|sg| synthesize_from_built_sg(&stg, &sg, &options));
        for err in [
            synthesize_from_sg(&stg, &options).unwrap_err(),
            split.unwrap_err(),
        ] {
            assert!(
                matches!(
                    err,
                    SgError::Net(si_petri::NetError::StateBudgetExceeded { budget: 100 })
                ),
                "got {err}"
            );
        }
    }

    #[test]
    fn symbolic_engine_agrees_byte_for_byte() {
        for stg in [
            paper_fig1(),
            vme_read_csc(),
            muller_pipeline(5),
            sequencer(6),
        ] {
            for exact_minimization in [false, true] {
                for allow_inversion in [false, true] {
                    let explicit = synthesize_from_sg(
                        &stg,
                        &SgSynthesisOptions {
                            exact_minimization,
                            allow_inversion,
                            ..Default::default()
                        },
                    )
                    .expect("explicit ok");
                    let symbolic = synthesize_from_sg(
                        &stg,
                        &SgSynthesisOptions {
                            engine: SgEngine::Symbolic,
                            exact_minimization,
                            allow_inversion,
                            ..Default::default()
                        },
                    )
                    .expect("symbolic ok");
                    assert_eq!(explicit.gates.len(), symbolic.gates.len());
                    for (a, b) in symbolic.gates.iter().zip(&explicit.gates) {
                        assert_eq!(
                            a.equation(&stg),
                            b.equation(&stg),
                            "{} (exact={exact_minimization}, invert={allow_inversion})",
                            stg.name()
                        );
                        assert_eq!(a.inverted, b.inverted);
                    }
                }
            }
        }
    }

    #[test]
    fn symbolic_csc_witness_identical_to_explicit() {
        let stg = vme_read_no_csc();
        let explicit = synthesize_from_sg(&stg, &SgSynthesisOptions::default()).unwrap_err();
        let symbolic = synthesize_from_sg(
            &stg,
            &SgSynthesisOptions {
                engine: SgEngine::Symbolic,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(symbolic, explicit, "witness code or signal differs");
    }

    #[test]
    fn symbolic_engine_ignores_the_state_budget() {
        // A state budget far below the state count only binds the explicit
        // engine; the symbolic engine has its own node budget.
        let stg = muller_pipeline(8);
        let options = SgSynthesisOptions {
            engine: SgEngine::Symbolic,
            state_budget: 10,
            ..Default::default()
        };
        let symbolic = synthesize_from_sg(&stg, &options).expect("symbolic ok");
        let explicit = synthesize_from_sg(&stg, &SgSynthesisOptions::default()).expect("ok");
        for (a, b) in symbolic.gates.iter().zip(&explicit.gates) {
            assert_eq!(a.equation(&stg), b.equation(&stg));
        }
    }

    #[test]
    fn symbolic_node_budget_exhaustion_is_an_error() {
        let stg = muller_pipeline(8);
        let err = synthesize_from_sg(
            &stg,
            &SgSynthesisOptions {
                engine: SgEngine::Symbolic,
                symbolic_node_budget: 10,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SgError::Net(si_petri::NetError::NodeBudgetExceeded { budget: 10 })
        ));
    }

    #[test]
    fn inversion_option_never_worse() {
        let stg = sequencer(4);
        let plain = synthesize_from_sg(&stg, &SgSynthesisOptions::default()).expect("ok");
        let inverted = synthesize_from_sg(
            &stg,
            &SgSynthesisOptions {
                allow_inversion: true,
                ..Default::default()
            },
        )
        .expect("ok");
        assert!(inverted.literal_count() <= plain.literal_count());
    }
}
