//! Suite-wide pinning of the symbolic SG engine: on every STG in
//! `si_stg::suite` the symbolic path must produce byte-identical gate
//! equations to the explicit path — under the default pool tuning *and*
//! under adversarial garbage-collection/reordering stress — and it must
//! keep synthesising where the explicit engine's state budget ends.

use si_synth::stategraph::{
    synthesize_from_sg, synthesize_from_symbolic_sg, ReorderPolicy, SgEngine, SgSynthesisOptions,
    StateGraph, SymbolicSg, SymbolicTuning,
};
use si_synth::stg::generators::{muller_pipeline, wide_arbiter};
use si_synth::stg::suite::{synthesisable, vme_read_no_csc};

#[test]
fn whole_suite_engines_agree_byte_for_byte() {
    for stg in synthesisable() {
        let explicit = synthesize_from_sg(&stg, &SgSynthesisOptions::default())
            .unwrap_or_else(|e| panic!("{} failed explicitly: {e}", stg.name()));
        let symbolic = synthesize_from_sg(
            &stg,
            &SgSynthesisOptions {
                engine: SgEngine::Symbolic,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{} failed symbolically: {e}", stg.name()));
        assert_eq!(explicit.gates.len(), symbolic.gates.len(), "{}", stg.name());
        for (a, b) in symbolic.gates.iter().zip(&explicit.gates) {
            assert_eq!(a.equation(&stg), b.equation(&stg), "{}", stg.name());
            assert_eq!(a.inverted, b.inverted, "{}", stg.name());
        }
    }
}

/// The adversarial pool tunings the stress suite runs under: collection
/// every fixpoint iteration, and (for the reordering policies) sifting at
/// every opportunity.
fn stress_tunings() -> Vec<SymbolicTuning> {
    [ReorderPolicy::Off, ReorderPolicy::Sift, ReorderPolicy::Auto]
        .into_iter()
        .map(|reorder| SymbolicTuning {
            reorder,
            gc_threshold: 0,
            reorder_threshold: 1,
            ..SymbolicTuning::default()
        })
        .collect()
}

#[test]
fn gc_and_reorder_stress_keeps_the_whole_suite_byte_identical() {
    // Collection firing between every fixpoint iteration and sifting at
    // every opportunity exercise every GC/swap path; the gate equations
    // must not move by a byte relative to the explicit engine.
    for stg in synthesisable() {
        let explicit = synthesize_from_sg(&stg, &SgSynthesisOptions::default())
            .unwrap_or_else(|e| panic!("{} failed explicitly: {e}", stg.name()));
        for tuning in stress_tunings() {
            let mut sym = SymbolicSg::build(&stg, &tuning)
                .unwrap_or_else(|e| panic!("{} failed under {tuning:?}: {e}", stg.name()));
            let symbolic =
                synthesize_from_symbolic_sg(&stg, &mut sym, &SgSynthesisOptions::default())
                    .unwrap_or_else(|e| panic!("{} failed under {tuning:?}: {e}", stg.name()));
            assert_eq!(explicit.gates.len(), symbolic.gates.len(), "{}", stg.name());
            for (a, b) in symbolic.gates.iter().zip(&explicit.gates) {
                assert_eq!(
                    a.equation(&stg),
                    b.equation(&stg),
                    "{} under {tuning:?}",
                    stg.name()
                );
                assert_eq!(a.inverted, b.inverted, "{}", stg.name());
            }
        }
    }
}

#[test]
fn gc_stress_csc_witness_identical_to_explicit() {
    let stg = vme_read_no_csc();
    let explicit = synthesize_from_sg(&stg, &SgSynthesisOptions::default()).unwrap_err();
    for tuning in stress_tunings() {
        let mut sym = SymbolicSg::build(&stg, &tuning).expect("reachability itself succeeds");
        let err = synthesize_from_symbolic_sg(&stg, &mut sym, &SgSynthesisOptions::default())
            .expect_err("CSC violation must surface");
        assert_eq!(err, explicit, "witness drifted under {tuning:?}");
    }
}

#[test]
fn gc_options_plumb_through_synthesize_from_sg() {
    // The public options path must reach the engine: an aggressive
    // gc/reorder configuration produces the same gates as the default.
    let stg = muller_pipeline(8);
    let baseline = synthesize_from_sg(&stg, &SgSynthesisOptions::default()).expect("ok");
    let stressed = synthesize_from_sg(
        &stg,
        &SgSynthesisOptions {
            engine: SgEngine::Symbolic,
            symbolic_gc_threshold: 0,
            symbolic_reorder: ReorderPolicy::Auto,
            ..Default::default()
        },
    )
    .expect("stressed symbolic ok");
    assert_eq!(baseline.gates.len(), stressed.gates.len());
    for (a, b) in stressed.gates.iter().zip(&baseline.gates) {
        assert_eq!(a.equation(&stg), b.equation(&stg));
    }
}

#[test]
fn wide_arbiter_small_instances_agree_with_the_explicit_engine() {
    // The acceptance check of the wide-choice benchmark family: on
    // instances the explicit engine can still enumerate, both engines (and
    // every reordering policy) must produce byte-identical equations.
    for n in [3, 6] {
        let stg = wide_arbiter(n);
        let explicit = synthesize_from_sg(&stg, &SgSynthesisOptions::default())
            .unwrap_or_else(|e| panic!("wide_arbiter({n}) failed explicitly: {e}"));
        assert_eq!(explicit.gates.len(), n, "one C-element per stage");
        for tuning in stress_tunings() {
            let mut sym = SymbolicSg::build(&stg, &tuning)
                .unwrap_or_else(|e| panic!("wide_arbiter({n}) under {tuning:?}: {e}"));
            let symbolic =
                synthesize_from_symbolic_sg(&stg, &mut sym, &SgSynthesisOptions::default())
                    .expect("symbolic synthesis");
            for (a, b) in symbolic.gates.iter().zip(&explicit.gates) {
                assert_eq!(a.equation(&stg), b.equation(&stg), "wide_arbiter({n})");
            }
        }
    }
}

#[test]
fn wide_arbiter_needs_reordering_under_a_tight_budget() {
    // The wall this PR removes, in miniature: under a budget the sifted
    // diagram fits comfortably, the riffled static order must die with the
    // structured budget error while `Auto` completes.
    // Measured live peaks at n = 12: ~13 k nodes under the riffled static
    // order, ~4.8 k once sifted — 8 k sits between the two (both runs are
    // deterministic, so the margins only need to absorb code drift).
    let stg = wide_arbiter(12);
    let budget = 8_000;
    let off = SymbolicTuning {
        node_budget: budget,
        reorder: ReorderPolicy::Off,
        ..SymbolicTuning::default()
    };
    let err = SymbolicSg::build(&stg, &off)
        .err()
        .expect("static order must exhaust the budget");
    assert!(
        matches!(
            err,
            si_synth::stategraph::SgError::Net(
                si_synth::petri::NetError::NodeBudgetExceeded { budget: b },
            ) if b == budget
        ),
        "unexpected error: {err}"
    );
    let auto = SymbolicTuning {
        node_budget: budget,
        reorder: ReorderPolicy::Auto,
        ..SymbolicTuning::default()
    };
    let sym = SymbolicSg::build(&stg, &auto).expect("auto reordering survives");
    assert_eq!(sym.state_count(), 1u128 << 14);
    assert!(
        sym.reach().stats().reorder_runs > 0,
        "completion must be reordering's doing"
    );
}

#[test]
fn chained_passes_stay_far_below_the_state_graph_depth() {
    // Each pass fires every transition from the frontier plus the states
    // found earlier in the same pass, so a pipeline advances many stages
    // per pass. A frontier-only loop needs one pass per level of the state
    // graph: 106 on both specs below.
    for (stg, passes) in [(muller_pipeline(12), 8), (wide_arbiter(12), 20)] {
        let sym = SymbolicSg::build(&stg, &SymbolicTuning::default())
            .unwrap_or_else(|e| panic!("{}: {e}", stg.name()));
        assert_eq!(sym.reach().steps(), passes, "{}", stg.name());
    }
}

#[test]
fn symbolic_engine_crosses_the_explicit_budget_wall() {
    // 14 stages ≈ 65 k states: an explicit budget of 10 k states dies, the
    // symbolic engine synthesises the pipeline's C-element equations
    // unbothered.
    let stg = muller_pipeline(14);
    assert!(StateGraph::build(&stg, 10_000).is_err());
    let symbolic = synthesize_from_sg(
        &stg,
        &SgSynthesisOptions {
            engine: SgEngine::Symbolic,
            state_budget: 10_000, // ignored by the symbolic engine
            ..Default::default()
        },
    )
    .expect("symbolic engine is not bounded by states");
    assert_eq!(symbolic.gates.len(), 14);
    // Every stage is a C-element: c_i = c_{i-1} c_i + c_{i-1} c_{i+1}' +
    // c_i c_{i+1}' (3 cubes, 6 literals).
    assert_eq!(symbolic.literal_count(), 14 * 6);
}
