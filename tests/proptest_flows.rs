//! Property-based tests over *randomly generated* STG families: for every
//! generated specification, the unfolding segment must agree with the state
//! graph, and whenever synthesis succeeds the result must verify against
//! the SG oracle.
//!
//! The generator composes independent sequencer rings (each trivially
//! consistent and 1-safe) and optionally couples adjacent rings with the
//! four-phase Muller-pair pattern — producing a rich variety of concurrency
//! and synchronisation structures that are consistent and safe by
//! construction.

use proptest::prelude::*;
use si_synth::cubes::{minimize, Cover};
use si_synth::stategraph::StateGraph;
use si_synth::stg::{Polarity, SignalKind, Stg, StgBuilder};
use si_synth::synthesis::exact::exact_side_cover;
use si_synth::synthesis::slice::side_slices;
use si_synth::synthesis::{
    synthesize_from_unfolding, verify_against_sg, CoverMode, SynthesisError, SynthesisOptions,
    UnfoldingSynthesis,
};
use si_synth::unfolding::{StgUnfolding, UnfoldingOptions};

/// Blueprint for one random specification.
#[derive(Debug, Clone)]
struct Blueprint {
    /// Signals per ring (each ≥ 1); number of rings = `rings.len()`.
    rings: Vec<usize>,
    /// Couple ring `i` with ring `i+1` via a Muller-pair cycle on their
    /// first signals.
    couple: Vec<bool>,
    /// Alternate input/output kinds with this offset.
    kind_offset: usize,
}

fn blueprint() -> impl Strategy<Value = Blueprint> {
    (
        proptest::collection::vec(1usize..4, 1..4),
        proptest::collection::vec(any::<bool>(), 3),
        0usize..2,
    )
        .prop_map(|(rings, couple, kind_offset)| Blueprint {
            rings,
            couple,
            kind_offset,
        })
}

/// Materialises a blueprint into an STG.
fn build(bp: &Blueprint) -> Stg {
    let mut b = StgBuilder::new();
    b.set_name("random-rings");
    let mut ring_transitions = Vec::new();
    for (r, &len) in bp.rings.iter().enumerate() {
        let mut rises = Vec::new();
        let mut falls = Vec::new();
        for i in 0..len {
            let kind = if (r + i + bp.kind_offset).is_multiple_of(2) {
                SignalKind::Input
            } else {
                SignalKind::Output
            };
            let s = b.signal(format!("r{r}s{i}"), kind);
            rises.push(b.transition(s, Polarity::Rise));
            falls.push(b.transition(s, Polarity::Fall));
        }
        // The ring: s0+ … s(n-1)+ s0- … s(n-1)- repeated.
        let mut order = rises.clone();
        order.extend(falls.iter().copied());
        for w in order.windows(2) {
            b.arc_tt(w[0], w[1]);
        }
        let back = b.arc_tt(order[order.len() - 1], order[0]);
        b.mark(back);
        ring_transitions.push((rises, falls));
    }
    // Optional Muller-pair couplings between adjacent rings' first signals:
    // x+ → y+ → x- → y- → x+ (last place marked).
    for r in 0..bp.rings.len().saturating_sub(1) {
        if !bp.couple.get(r).copied().unwrap_or(false) {
            continue;
        }
        let (x_rises, x_falls) = &ring_transitions[r];
        let (y_rises, y_falls) = &ring_transitions[r + 1];
        b.arc_tt(x_rises[0], y_rises[0]);
        b.arc_tt(y_rises[0], x_falls[0]);
        b.arc_tt(x_falls[0], y_falls[0]);
        let idle = b.arc_tt(y_falls[0], x_rises[0]);
        b.mark(idle);
    }
    b.initial_all_zero();
    b.build()
        .expect("blueprint yields a structurally valid STG")
}

/// The gates of a synthesis run, or `None` for a CSC conflict (any other
/// error fails the case).
fn gates_or_csc(
    result: Result<UnfoldingSynthesis, SynthesisError>,
) -> Result<Option<Vec<Cover>>, TestCaseError> {
    match result {
        Ok(r) => Ok(Some(r.gates.into_iter().map(|g| g.gate).collect())),
        Err(SynthesisError::CscViolation { .. }) => Ok(None),
        Err(other) => Err(TestCaseError::fail(format!("unexpected error: {other}"))),
    }
}

/// The explicit exact-mode reference: each implementable signal's
/// canonical minterm covers (`exact_side_cover`) through the cube-level
/// minimiser, or `None` when some signal's covers intersect.
fn explicit_exact_gates(stg: &Stg, unf: &StgUnfolding) -> Option<Vec<Cover>> {
    let budget = SynthesisOptions::default().slice_budget;
    stg.implementable_signals()
        .into_iter()
        .map(|signal| {
            let side = |value| {
                let slices = side_slices(unf, signal, value);
                exact_side_cover(stg, unf, &slices, budget).expect("small random spec")
            };
            let (on, off) = (side(true), side(false));
            (!on.intersects(&off)).then(|| minimize(&on, &off))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn segment_agrees_with_state_graph(
        bp in blueprint(),
        workers_idx in 0usize..3,
    ) {
        let stg = build(&bp);
        let unf = StgUnfolding::build(&stg, &UnfoldingOptions::default())
            .expect("by-construction consistent and safe");
        // Extension enumeration fans out on the worker pool; the segment
        // must not depend on the worker count.
        let workers = [Some(1), Some(2), None][workers_idx];
        let other = StgUnfolding::build(&stg, &UnfoldingOptions {
            workers,
            ..UnfoldingOptions::default()
        })
        .expect("by-construction consistent and safe");
        prop_assert_eq!(unf.event_count(), other.event_count());
        for (a, b) in unf.events().zip(other.events()) {
            prop_assert_eq!(unf.transition(a), other.transition(b));
            prop_assert_eq!(unf.preset(a), other.preset(b));
            prop_assert_eq!(unf.is_cutoff(a), other.is_cutoff(b));
            prop_assert_eq!(unf.code(a), other.code(b));
        }
        let sg = StateGraph::build(&stg, 1_000_000).expect("small enough");
        // Initial codes agree.
        prop_assert_eq!(unf.initial_code().to_string(), sg.initial_code().to_string());
        // Every event's final marking is reachable with the same code.
        for e in unf.events() {
            let state = sg.reachability().state_of(unf.final_marking(e));
            prop_assert!(state.is_some(), "unreachable final marking of {}", e);
            prop_assert_eq!(
                unf.code(e).to_string(),
                sg.code(state.expect("checked")).to_string()
            );
        }
        // The segment never has more events than twice the number of
        // transitions times the ring count bound (a loose linearity check
        // that guards against runaway unfolding on these loop compositions).
        prop_assert!(unf.event_count() <= 4 * stg.net().transition_count() + 1);
    }

    #[test]
    fn synthesis_verifies_or_reports_csc(bp in blueprint()) {
        let stg = build(&bp);
        for mode in [CoverMode::Approximate, CoverMode::Exact] {
            let options = SynthesisOptions { mode, ..SynthesisOptions::default() };
            match synthesize_from_unfolding(&stg, &options) {
                Ok(result) => {
                    verify_against_sg(&stg, &result, 1_000_000)
                        .expect("synthesised circuits must verify");
                }
                Err(SynthesisError::CscViolation { .. }) => {
                    // Acceptable outcome: the random composition produced a
                    // coding conflict. The SG-based flow must agree.
                    let sg_flow = si_synth::stategraph::synthesize_from_sg(
                        &stg,
                        &si_synth::stategraph::SgSynthesisOptions::default(),
                    );
                    prop_assert!(
                        matches!(sg_flow, Err(si_synth::stategraph::SgError::CscViolation { .. })),
                        "unfolding flow reported CSC but the SG flow disagrees"
                    );
                }
                Err(other) => {
                    return Err(TestCaseError::fail(format!("unexpected error: {other}")));
                }
            }
        }
    }

    #[test]
    fn representation_and_workers_never_change_the_output(bp in blueprint()) {
        // The worker count is a pure performance knob, and exact mode's
        // pooled diagrams are a representation choice: every combination
        // must produce the same gates — or the same CSC verdict — as the
        // reference (the explicit minterm covers in exact mode, the
        // sequential run in approximate mode).
        let stg = build(&bp);
        let unf = StgUnfolding::build(&stg, &UnfoldingOptions::default())
            .expect("by-construction consistent and safe");
        for mode in [CoverMode::Approximate, CoverMode::Exact] {
            let run = |workers| {
                gates_or_csc(synthesize_from_unfolding(&stg, &SynthesisOptions {
                    mode,
                    workers,
                    ..SynthesisOptions::default()
                }))
            };
            let reference = match mode {
                CoverMode::Exact => explicit_exact_gates(&stg, &unf),
                CoverMode::Approximate => run(Some(1))?,
            };
            for workers in [Some(1), Some(4)] {
                prop_assert_eq!(
                    &reference,
                    &run(workers)?,
                    "{:?} workers={:?} changed the gates",
                    mode,
                    workers
                );
            }
        }
    }

    #[test]
    fn both_flows_verify_through_the_unified_surface(bp in blueprint()) {
        // The FlowEngine trait erases the flow; whatever either flow
        // produces on a random net must pass the shared oracle, and a CSC
        // conflict must be reported by both flows or neither.
        use si_synth::synthesis::{FlowEngine, FlowError, SgFlow, UnfoldingFlow};
        let stg = build(&bp);
        let flows: [Box<dyn FlowEngine>; 2] =
            [Box::new(SgFlow::default()), Box::new(UnfoldingFlow::default())];
        let mut csc = [false, false];
        for (i, flow) in flows.iter().enumerate() {
            match flow.synthesize(&stg) {
                Ok(result) => {
                    flow.verify(&stg, &result, 1_000_000, si_synth::stategraph::SgEngine::Explicit)
                        .expect("synthesised circuits must verify");
                }
                Err(FlowError::Sg(si_synth::stategraph::SgError::CscViolation { .. }))
                | Err(FlowError::Unfolding(SynthesisError::CscViolation { .. })) => csc[i] = true,
                Err(other) => {
                    return Err(TestCaseError::fail(format!("unexpected error: {other}")));
                }
            }
        }
        prop_assert_eq!(csc[0], csc[1], "flows disagree on the CSC verdict");
    }

    #[test]
    fn exact_and_approximate_modes_agree_pointwise(bp in blueprint()) {
        let stg = build(&bp);
        let approx = synthesize_from_unfolding(&stg, &SynthesisOptions::default());
        let exact = synthesize_from_unfolding(
            &stg,
            &SynthesisOptions { mode: CoverMode::Exact, ..SynthesisOptions::default() },
        );
        match (approx, exact) {
            (Ok(a), Ok(e)) => {
                let sg = StateGraph::build(&stg, 1_000_000).expect("oracle");
                for s in 0..sg.len() {
                    let bits: Vec<bool> = sg.code(s).iter().map(|(_, v)| v).collect();
                    for (ga, ge) in a.gates.iter().zip(&e.gates) {
                        prop_assert_eq!(ga.gate.covers_bits(&bits), ge.gate.covers_bits(&bits));
                    }
                }
            }
            (Err(SynthesisError::CscViolation { .. }), Err(SynthesisError::CscViolation { .. })) => {}
            (a, e) => {
                return Err(TestCaseError::fail(format!(
                    "modes disagree: approx={:?} exact={:?}",
                    a.map(|r| r.literal_count()),
                    e.map(|r| r.literal_count())
                )));
            }
        }
    }
}
