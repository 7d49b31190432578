//! Top-level synthesis from the STG-unfolding segment: the flow of the
//! paper's Figure 5, producing an atomic-complex-gate-per-signal
//! implementation with the timing breakdown reported in Table 1.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use si_cubes::implicit::{ImplicitCover, ImplicitPool};
use si_cubes::par::par_map;
use si_cubes::{minimize, minimize_implicit, Cover, Cube};
use si_stategraph::SgClassification;
use si_stg::{SignalId, Stg};
use si_unfolding::{check_segment_persistency, StgUnfolding, UnfoldingOptions};

use crate::approx::{approximate_side, side_cover};
use crate::error::SynthesisError;
use crate::exact::{classify_reachable, cover_true_within_slices};
use crate::refine::{refine_until_disjoint, RefinementReport};
use crate::slice::side_slices;

/// How the on-/off-set covers are derived from the segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoverMode {
    /// Enumerate every reachable cut of the segment (the paper's exact
    /// approach — may explode under concurrency), classified in one walk.
    Exact,
    /// Concurrency-relation approximation with iterative refinement (the
    /// paper's main contribution).
    #[default]
    Approximate,
}

/// Which cover-correctness condition gates the refinement loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorrectnessCondition {
    /// The paper's main condition: the on- and off-set cover approximations
    /// must not intersect at all (simple, but partitions the DC-set and may
    /// cost literals — the paper's §5 remark).
    #[default]
    Strong,
    /// The paper's §6 enhancement: an intersection is tolerated as long as
    /// neither cover becomes TRUE within the slices of the opposite cover —
    /// then the intersection provably lies in the DC-set and the minimiser
    /// keeps the full optimisation freedom.
    Weak,
}

/// Options for unfolding-based synthesis.
#[derive(Debug, Clone)]
pub struct SynthesisOptions {
    /// Options for segment construction.
    pub unfolding: UnfoldingOptions,
    /// Cover derivation mode.
    pub mode: CoverMode,
    /// Budget for exact enumeration, in distinct markings reached
    /// (marking-equal cuts count once), checked each time a state is taken
    /// off its stack. In exact mode it bounds the one walk over the whole
    /// segment; in approximate mode it bounds each slice traversal of the
    /// exact fallbacks and §6 probes separately.
    pub slice_budget: usize,
    /// Cover-correctness condition (strong intersection-freedom by default).
    pub correctness: CorrectnessCondition,
    /// Worker threads for the per-signal derive/minimise stages; `None`
    /// uses one per available CPU. Output is bit-identical to sequential
    /// (`Some(1)`) regardless of the worker count.
    pub workers: Option<usize>,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            unfolding: UnfoldingOptions::default(),
            mode: CoverMode::Approximate,
            slice_budget: 2_000_000,
            correctness: CorrectnessCondition::Strong,
            workers: None,
        }
    }
}

/// The synthesised gate for one signal, with its pre-minimisation covers.
#[derive(Debug, Clone)]
pub struct SignalGate {
    /// The implemented signal.
    pub signal: SignalId,
    /// Final refined on-set cover. `None` in exact mode, whose on-set is a
    /// point set minimised without ever becoming a cube list
    /// ([`exact_side_cover`](crate::exact::exact_side_cover) materialises
    /// it).
    pub on_cover: Option<Cover>,
    /// Final refined off-set cover; `None` in exact mode, like
    /// [`on_cover`](Self::on_cover).
    pub off_cover: Option<Cover>,
    /// The minimised SOP implementing the gate (covers the on-set, disjoint
    /// from the off-set).
    pub gate: Cover,
    /// Refinement statistics (`None` in exact mode).
    pub refinement: Option<RefinementReport>,
}

impl SignalGate {
    /// Literal count of the gate — the paper's quality metric.
    pub fn literal_count(&self) -> usize {
        self.gate.literal_count()
    }

    /// Renders the gate equation, e.g. `b = a + c`.
    pub fn equation(&self, stg: &Stg) -> String {
        let names: Vec<&str> = stg.signals().map(|s| stg.signal_name(s)).collect();
        format!(
            "{} = {}",
            stg.signal_name(self.signal),
            self.gate.to_expression_string(&names)
        )
    }
}

/// Wall-clock breakdown matching Table 1's columns, with the derivation
/// phase further split into its slice and refinement portions.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimingBreakdown {
    /// `UnfTim`: constructing the STG-unfolding segment.
    pub unfold: Duration,
    /// `SynTim`: deriving the on-/off-set covers (wall clock).
    pub derive: Duration,
    /// Portion of the derivation spent building the initial covers: in
    /// approximate mode the slices and their ER/MR approximations, in exact
    /// mode the one walk over the segment plus each signal's on/off-set
    /// build. Summed over the per-signal worker tasks — CPU time, so it can
    /// exceed the wall-clock `derive` when workers run in parallel.
    pub slices: Duration,
    /// Portion of the derivation spent making the covers disjoint (the
    /// refinement loop, exact escalations and §6 weak-condition probes),
    /// summed over the per-signal worker tasks like [`slices`](Self::slices).
    pub refine: Duration,
    /// `EspTim`: two-level minimisation.
    pub minimize: Duration,
}

impl TimingBreakdown {
    /// `TotTim`: the sum of all phases ([`slices`](Self::slices) and
    /// [`refine`](Self::refine) are parts of `derive`, not extra phases).
    pub fn total(&self) -> Duration {
        self.unfold + self.derive + self.minimize
    }
}

/// The result of unfolding-based synthesis.
#[derive(Debug, Clone)]
pub struct UnfoldingSynthesis {
    /// One gate per implementable signal, in signal order.
    pub gates: Vec<SignalGate>,
    /// Timing breakdown (UnfTim / SynTim / EspTim).
    pub timing: TimingBreakdown,
    /// Number of events in the segment (including `⊥`).
    pub events: usize,
    /// Number of conditions in the segment.
    pub conditions: usize,
}

impl UnfoldingSynthesis {
    /// Total literal count over all gates (Table 1's `LitCnt`).
    pub fn literal_count(&self) -> usize {
        self.gates.iter().map(SignalGate::literal_count).sum()
    }
}

/// Synthesises every implementable signal of `stg` from its unfolding
/// segment (the paper's "PUNT ACG" flow).
///
/// # Errors
///
/// * [`SynthesisError::Unfold`] if the segment cannot be built;
/// * [`SynthesisError::NotPersistent`] if semi-modularity fails;
/// * [`SynthesisError::ConstantSignal`] for implementable signals without
///   transitions;
/// * [`SynthesisError::SliceBudgetExceeded`] if exact mode's walk reaches
///   more markings than `slice_budget` (reported before any CSC violation,
///   since the walk precedes every signal's check), or if one of
///   approximate mode's exact fallbacks does within its slice;
/// * [`SynthesisError::CscViolation`] if some signal's covers intersect
///   even after exact derivation.
///
/// # Examples
///
/// ```
/// use si_stg::suite::paper_fig1;
/// use si_synthesis::{synthesize_from_unfolding, SynthesisOptions};
///
/// # fn main() -> Result<(), si_synthesis::SynthesisError> {
/// let stg = paper_fig1();
/// let result = synthesize_from_unfolding(&stg, &SynthesisOptions::default())?;
/// assert_eq!(result.gates[0].equation(&stg), "b = a + c");
/// # Ok(())
/// # }
/// ```
pub fn synthesize_from_unfolding(
    stg: &Stg,
    options: &SynthesisOptions,
) -> Result<UnfoldingSynthesis, SynthesisError> {
    let start = Instant::now();
    let unf = StgUnfolding::build(stg, &options.unfolding)?;
    let unfold = start.elapsed();

    require_persistency(stg, &unf)?;
    let derive_start = Instant::now();
    let signals = implementable_signals(stg)?;
    // Exact mode classifies every reachable state once, up front; each
    // signal's sets are then built from that shared classification.
    let (states, walk) = match options.mode {
        CoverMode::Exact => {
            let walk_start = Instant::now();
            let states = classify_reachable(stg, &unf, options.slice_budget)?;
            (Some(states), walk_start.elapsed())
        }
        CoverMode::Approximate => (None, Duration::ZERO),
    };
    // Derive every signal's covers on the worker pool. Results come back in
    // signal order, so on failure the reported error is the same one the
    // sequential loop would have hit first.
    let mut per_signal = Vec::with_capacity(signals.len());
    for derived in par_map(&signals, options.workers, |_, &signal| match &states {
        Some(states) => exact_covers(stg, states, signal),
        None => approximate_covers(stg, &unf, signal, options),
    }) {
        per_signal.push(derived?);
    }
    let derive = derive_start.elapsed();

    let min_start = Instant::now();
    let minimized = par_map(&per_signal, options.workers, |_, entry| {
        // Derivation promised disjoint covers; re-check in release builds
        // too, because minimising an inconsistent partition returns
        // garbage. A poisoned lock only means another signal's worker
        // panicked; this signal's pool is still internally consistent, so
        // keep going.
        let mut guard = match entry.sets.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let (pool, on, off) = &mut *guard;
        let shared = pool.intersect(*on, *off);
        if let Some(bits) = pool.first_minterm(shared) {
            return Err(SynthesisError::InconsistentCovers {
                signal: stg.signal_name(entry.signal).to_owned(),
                witness: Cube::minterm(bits).to_string(),
            });
        }
        Ok(match &entry.covers {
            Some((on_cover, off_cover)) => minimize(on_cover, off_cover),
            None => minimize_implicit(pool, *on, *off),
        })
    });
    let mut gates = Vec::with_capacity(per_signal.len());
    let (mut slices_time, mut refine_time) = (walk, Duration::ZERO);
    for (entry, gate) in per_signal.into_iter().zip(minimized) {
        slices_time += entry.slices;
        refine_time += entry.refine;
        let (on_cover, off_cover) = entry.covers.unzip();
        gates.push(SignalGate {
            signal: entry.signal,
            on_cover,
            off_cover,
            gate: gate?,
            refinement: entry.refinement,
        });
    }
    let minimize_time = min_start.elapsed();

    Ok(UnfoldingSynthesis {
        gates,
        timing: TimingBreakdown {
            unfold,
            derive,
            slices: slices_time,
            refine: refine_time,
            minimize: minimize_time,
        },
        events: unf.event_count(),
        conditions: unf.condition_count(),
    })
}

/// Refinement steps per signal before the loop escalates the conflicting
/// atoms to exact enumeration.
const MAX_REFINEMENT_STEPS: usize = 200;

/// Checks semi-modularity on the segment: the first violation is reported
/// as [`SynthesisError::NotPersistent`] on the disabled signal.
pub(crate) fn require_persistency(stg: &Stg, unf: &StgUnfolding) -> Result<(), SynthesisError> {
    match check_segment_persistency(stg, unf).first() {
        Some(v) => Err(SynthesisError::NotPersistent {
            signal: stg.signal_name(v.disabled_label.signal).to_owned(),
        }),
        None => Ok(()),
    }
}

/// The implementable signals of `stg`, or [`SynthesisError::ConstantSignal`]
/// for the first one without transitions.
pub(crate) fn implementable_signals(stg: &Stg) -> Result<Vec<SignalId>, SynthesisError> {
    let signals = stg.implementable_signals();
    match signals.iter().find(|&&s| stg.transitions_of(s).is_empty()) {
        Some(&signal) => Err(SynthesisError::ConstantSignal {
            signal: stg.signal_name(signal).to_owned(),
        }),
        None => Ok(signals),
    }
}

/// Fails with [`SynthesisError::CscViolation`] when `signal`'s on- and
/// off-sets share a code, naming the canonically smallest shared code.
pub(crate) fn require_csc(
    stg: &Stg,
    pool: &mut ImplicitPool,
    signal: SignalId,
    on: ImplicitCover,
    off: ImplicitCover,
) -> Result<(), SynthesisError> {
    let shared = pool.intersect(on, off);
    match pool.first_minterm(shared) {
        Some(bits) => Err(SynthesisError::CscViolation {
            signal: stg.signal_name(signal).to_owned(),
            witness: Cube::minterm(bits).to_string(),
        }),
        None => Ok(()),
    }
}

/// The per-signal output of the derivation stage, with the CPU time spent
/// in its slice-building and refinement portions.
struct DerivedCovers {
    signal: SignalId,
    /// Approximate mode's `(on, off)` covers: structural cube
    /// approximations, not minterm sets, so the cube-level minimiser
    /// consumes them directly. `None` in exact mode, whose sets are minterm
    /// point sets minimised implicitly (byte-identical to the cube-level
    /// minimiser on the materialised canonical covers).
    covers: Option<(Cover, Cover)>,
    refinement: Option<RefinementReport>,
    /// The signal's pool with its on/off point sets, for the final
    /// consistency guard. Behind a [`Mutex`] because the minimisation stage
    /// runs on shared-reference worker tasks (only this signal's task ever
    /// locks it).
    sets: Mutex<(ImplicitPool, ImplicitCover, ImplicitCover)>,
    slices: Duration,
    refine: Duration,
}

impl DerivedCovers {
    /// Approximate-mode covers, with their point sets pooled in `pool` for
    /// the final guard. The timing fields are zero — the caller stamps
    /// them.
    fn approximate(
        signal: SignalId,
        mut pool: ImplicitPool,
        on_cover: Cover,
        off_cover: Cover,
        refinement: Option<RefinementReport>,
    ) -> Self {
        let on = pool.cover_set(&on_cover);
        let off = pool.cover_set(&off_cover);
        DerivedCovers {
            signal,
            covers: Some((on_cover, off_cover)),
            refinement,
            sets: Mutex::new((pool, on, off)),
            slices: Duration::ZERO,
            refine: Duration::ZERO,
        }
    }
}

/// Exact mode: builds one signal's on/off point sets from the shared
/// classification of every reachable state and checks them for CSC.
fn exact_covers(
    stg: &Stg,
    states: &SgClassification,
    signal: SignalId,
) -> Result<DerivedCovers, SynthesisError> {
    let sets_start = Instant::now();
    let mut pool = ImplicitPool::new(stg.signal_count());
    let (on, off) = states.sets_into(&mut pool, signal);
    let slices = sets_start.elapsed();
    require_csc(stg, &mut pool, signal, on, off)?;
    Ok(DerivedCovers {
        signal,
        covers: None,
        refinement: None,
        sets: Mutex::new((pool, on, off)),
        slices,
        refine: Duration::ZERO,
    })
}

/// Approximate mode: derives one signal's final, checked on-/off-set covers
/// from its slices, refining until they are disjoint.
fn approximate_covers(
    stg: &Stg,
    unf: &StgUnfolding,
    signal: SignalId,
    options: &SynthesisOptions,
) -> Result<DerivedCovers, SynthesisError> {
    let slices_start = Instant::now();
    let on_slices = side_slices(unf, signal, true);
    let off_slices = side_slices(unf, signal, false);
    let mut pool = ImplicitPool::new(unf.signal_count());
    let mut on_atoms = approximate_side(stg, unf, &on_slices);
    let mut off_atoms = approximate_side(stg, unf, &off_slices);
    let slices = slices_start.elapsed();
    let refine_start = Instant::now();
    // §6 weak condition, first chance: if the raw approximations intersect
    // only inside the DC-set, skip refinement entirely and keep the DC
    // freedom for the minimiser.
    if options.correctness == CorrectnessCondition::Weak {
        let on = side_cover(&on_atoms, unf.signal_count());
        let off = side_cover(&off_atoms, unf.signal_count());
        if let Some((on, off)) = accept_weak(stg, unf, &on_slices, &off_slices, on, off, options) {
            let covers = DerivedCovers::approximate(signal, pool, on, off, None);
            return Ok(DerivedCovers {
                slices,
                refine: refine_start.elapsed(),
                ..covers
            });
        }
    }
    let report = refine_until_disjoint(
        stg,
        unf,
        &on_slices,
        &off_slices,
        &mut on_atoms,
        &mut off_atoms,
        MAX_REFINEMENT_STEPS,
        options.slice_budget,
        &mut pool,
    )?;
    let on = side_cover(&on_atoms, unf.signal_count());
    let off = side_cover(&off_atoms, unf.signal_count());
    if !report.disjoint {
        return Err(csc_error(stg, signal, &on, &off));
    }
    let covers = DerivedCovers::approximate(signal, pool, on, off, Some(report));
    Ok(DerivedCovers {
        slices,
        refine: refine_start.elapsed(),
        ..covers
    })
}

/// Tries to accept intersecting covers under the weak correctness
/// condition: succeeds when the intersection is provably unreachable in
/// both sides' slices (so it lies in the DC-set); the intersection is then
/// carved out of the on-side so the minimiser sees a consistent partition.
fn accept_weak(
    stg: &Stg,
    unf: &StgUnfolding,
    on_slices: &[crate::slice::Slice],
    off_slices: &[crate::slice::Slice],
    on: Cover,
    off: Cover,
    options: &SynthesisOptions,
) -> Option<(Cover, Cover)> {
    let x = on.intersect(&off);
    if x.is_empty() {
        return Some((on, off));
    }
    let within_off = cover_true_within_slices(stg, unf, off_slices, &on, options.slice_budget);
    let within_on = cover_true_within_slices(stg, unf, on_slices, &off, options.slice_budget);
    match (within_off, within_on) {
        // Intersection ⊆ DC-set: Definition 2.1 holds after carving it out
        // of one side.
        (Ok(false), Ok(false)) => Some((on.subtract(&x), off)),
        // Reachable conflict or budget exhaustion: fall back to the strong
        // path (refinement).
        _ => None,
    }
}

fn csc_error(stg: &Stg, signal: SignalId, on: &Cover, off: &Cover) -> SynthesisError {
    let witness = on
        .intersect(off)
        .cubes()
        .first()
        .map(ToString::to_string)
        .unwrap_or_default();
    SynthesisError::CscViolation {
        signal: stg.signal_name(signal).to_owned(),
        witness,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use si_stg::generators::{muller_pipeline, sequencer};
    use si_stg::suite::{
        concurrent_fork_join, paper_fig1, paper_fig4ab, request_mux, toggle, vme_read_csc,
        vme_read_no_csc,
    };

    fn exact_options() -> SynthesisOptions {
        SynthesisOptions {
            mode: CoverMode::Exact,
            ..SynthesisOptions::default()
        }
    }

    /// `signal`'s exact `(on, off)` minterm covers from the per-slice
    /// oracle.
    fn exact_sides(stg: &Stg, unf: &StgUnfolding, signal: SignalId) -> (Cover, Cover) {
        let budget = SynthesisOptions::default().slice_budget;
        let side = |value| {
            let slices = side_slices(unf, signal, value);
            crate::exact::exact_side_cover(stg, unf, &slices, budget).expect("within budget")
        };
        (side(true), side(false))
    }

    #[test]
    fn fig1_exact_matches_paper() {
        let stg = paper_fig1();
        let result = synthesize_from_unfolding(&stg, &exact_options()).expect("ok");
        assert_eq!(result.gates.len(), 1);
        assert_eq!(result.gates[0].equation(&stg), "b = a + c");
        assert_eq!(result.literal_count(), 2);
    }

    #[test]
    fn fig1_approximate_matches_exact() {
        let stg = paper_fig1();
        let exact = synthesize_from_unfolding(&stg, &exact_options()).expect("ok");
        let approx = synthesize_from_unfolding(&stg, &SynthesisOptions::default()).expect("ok");
        assert_eq!(
            approx.gates[0].equation(&stg),
            exact.gates[0].equation(&stg)
        );
    }

    #[test]
    fn vme_csc_violation_detected_in_both_modes() {
        let stg = vme_read_no_csc();
        for options in [exact_options(), SynthesisOptions::default()] {
            let err = synthesize_from_unfolding(&stg, &options).unwrap_err();
            assert!(
                matches!(err, SynthesisError::CscViolation { .. }),
                "got {err}"
            );
        }
    }

    #[test]
    fn suite_entries_synthesise_in_both_modes() {
        for stg in [
            paper_fig1(),
            paper_fig4ab(),
            vme_read_csc(),
            request_mux(),
            concurrent_fork_join(),
            toggle(),
            muller_pipeline(3),
            sequencer(6),
        ] {
            let unf = StgUnfolding::build(&stg, &UnfoldingOptions::default()).expect("builds");
            for options in [exact_options(), SynthesisOptions::default()] {
                let result = synthesize_from_unfolding(&stg, &options)
                    .unwrap_or_else(|e| panic!("{} failed: {e}", stg.name()));
                assert!(!result.gates.is_empty(), "{}", stg.name());
                for gate in &result.gates {
                    // The defining correctness property of Definition 2.1,
                    // on the exact sets whatever covers the mode derived.
                    let (on, off) = exact_sides(&stg, &unf, gate.signal);
                    assert!(
                        gate.gate.covers_cover(&on),
                        "{}: gate does not cover the on-set",
                        stg.name()
                    );
                    assert!(
                        !gate.gate.intersects(&off),
                        "{}: gate intersects the off-set",
                        stg.name()
                    );
                    // Only approximate mode materialises its covers.
                    assert_eq!(
                        gate.on_cover.is_some() && gate.off_cover.is_some(),
                        options.mode == CoverMode::Approximate,
                        "{}",
                        stg.name()
                    );
                }
            }
        }
    }

    #[test]
    fn approximate_never_beats_exact_on_coverage_but_matches_function() {
        // On a CSC-clean STG both modes must implement the same function on
        // reachable codes (checked indirectly: both covers contain the exact
        // on-set and avoid the exact off-set).
        let stg = muller_pipeline(2);
        let unf = StgUnfolding::build(&stg, &UnfoldingOptions::default()).expect("builds");
        let exact = synthesize_from_unfolding(&stg, &exact_options()).expect("ok");
        let approx = synthesize_from_unfolding(&stg, &SynthesisOptions::default()).expect("ok");
        for (e, a) in exact.gates.iter().zip(&approx.gates) {
            assert_eq!(e.signal, a.signal);
            let (on, off) = exact_sides(&stg, &unf, e.signal);
            assert!(a.gate.covers_cover(&on));
            assert!(!a.gate.intersects(&off));
        }
    }

    #[test]
    fn timing_breakdown_is_populated() {
        let stg = muller_pipeline(3);
        let result = synthesize_from_unfolding(&stg, &SynthesisOptions::default()).expect("ok");
        assert!(result.timing.total() >= result.timing.unfold);
        // slices/refine are parts of derive, not extra phases.
        assert_eq!(
            result.timing.total(),
            result.timing.unfold + result.timing.derive + result.timing.minimize
        );
        assert!(result.events > 0);
        assert!(result.conditions > 0);
    }

    #[test]
    fn implicit_and_explicit_representations_agree_on_suite() {
        // Exact mode derives and minimises its covers as pooled diagrams and
        // never materialises them. The explicit reference materialises
        // `exact_side_cover`'s canonical minterm lists and runs the
        // cube-level minimiser on them: on every synthesisable suite entry
        // the gates must be byte-identical.
        use si_stg::suite::synthesisable;
        for stg in synthesisable() {
            let result = synthesize_from_unfolding(&stg, &exact_options())
                .unwrap_or_else(|e| panic!("{}: {e}", stg.name()));
            let unf = StgUnfolding::build(&stg, &UnfoldingOptions::default()).expect("builds");
            assert_eq!(result.gates.len(), stg.implementable_signals().len());
            for gate in &result.gates {
                assert!(gate.on_cover.is_none() && gate.off_cover.is_none());
                let (on, off) = exact_sides(&stg, &unf, gate.signal);
                assert_eq!(
                    gate.gate.cubes(),
                    minimize(&on, &off).cubes(),
                    "{}: representations disagree on {}",
                    stg.name(),
                    gate.equation(&stg)
                );
            }
        }
    }

    #[test]
    fn weak_correctness_condition_is_sound_and_never_worse() {
        use si_stg::suite::synthesisable;
        for stg in synthesisable() {
            let strong =
                synthesize_from_unfolding(&stg, &SynthesisOptions::default()).expect("strong ok");
            let weak = synthesize_from_unfolding(
                &stg,
                &SynthesisOptions {
                    correctness: CorrectnessCondition::Weak,
                    ..SynthesisOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("{}: weak failed: {e}", stg.name()));
            assert!(
                weak.literal_count() <= strong.literal_count(),
                "{}: weak condition made things worse ({} vs {})",
                stg.name(),
                weak.literal_count(),
                strong.literal_count()
            );
            crate::verify::verify_against_sg(&stg, &weak, 5_000_000)
                .unwrap_or_else(|e| panic!("{}: weak-mode netlist wrong: {e}", stg.name()));
        }
    }

    #[test]
    fn weak_condition_still_detects_genuine_csc_conflicts() {
        let stg = vme_read_no_csc();
        let err = synthesize_from_unfolding(
            &stg,
            &SynthesisOptions {
                correctness: CorrectnessCondition::Weak,
                ..SynthesisOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SynthesisError::CscViolation { .. }));
    }

    /// Two outputs in free choice: firing either `+x` or `+y` disables the
    /// other, so the spec is not persistent.
    pub(crate) fn output_choice() -> Stg {
        use si_stg::{SignalKind, StgBuilder};
        let mut b = StgBuilder::new();
        let x = b.signal("x", SignalKind::Output);
        let y = b.signal("y", SignalKind::Output);
        let px = b.place("choice");
        let x_p = b.rise(x);
        let y_p = b.rise(y);
        let x_m = b.fall(x);
        let y_m = b.fall(y);
        b.arc_pt(px, x_p);
        b.arc_pt(px, y_p);
        b.arc_tt(x_p, x_m);
        b.arc_tt(y_p, y_m);
        b.arc_tp(x_m, px);
        b.arc_tp(y_m, px);
        b.mark(px);
        b.initial_all_zero();
        b.build().expect("builds")
    }

    #[test]
    fn persistency_violation_reported() {
        let stg = output_choice();
        for options in [exact_options(), SynthesisOptions::default()] {
            let err = synthesize_from_unfolding(&stg, &options).unwrap_err();
            assert!(
                matches!(&err, SynthesisError::NotPersistent { signal } if signal == "x"),
                "got {err:?}"
            );
        }
    }
}
