//! Parallel synthesis must be a pure speed-up: with any worker count, both
//! flows must produce byte-identical gates, in the same order, as the
//! sequential (`workers = Some(1)`) path — and repeated runs must agree
//! with each other (no hash-iteration order may leak into the output).

use si_synth::stategraph::{synthesize_from_sg, ReorderPolicy, SgEngine, SgSynthesisOptions};
use si_synth::stg::generators::{muller_pipeline, sequencer, wide_arbiter};
use si_synth::stg::suite::{paper_fig4ab, request_mux, vme_read_csc};
use si_synth::stg::Stg;
use si_synth::synthesis::{synthesize_from_unfolding, SynthesisOptions};
use si_synth::unfolding::{StgUnfolding, UnfoldingOptions};

fn sg_fingerprint(stg: &Stg, options: &SgSynthesisOptions) -> String {
    let result = synthesize_from_sg(stg, options).expect("synthesis succeeds");
    result
        .gates
        .iter()
        .map(|g| format!("{}|{}|{:?}\n", g.equation(stg), g.inverted, g.cover))
        .collect()
}

fn unfolding_fingerprint(stg: &Stg, options: &SynthesisOptions) -> String {
    let result = synthesize_from_unfolding(stg, options).expect("synthesis succeeds");
    result
        .gates
        .iter()
        .map(|g| {
            format!(
                "{}|{:?}|{:?}|{:?}\n",
                g.equation(stg),
                g.gate,
                g.on_cover,
                g.off_cover
            )
        })
        .collect()
}

#[test]
fn sg_parallel_output_is_byte_identical_to_sequential() {
    for stg in [
        muller_pipeline(4),
        sequencer(5),
        vme_read_csc(),
        request_mux(),
    ] {
        let sequential = sg_fingerprint(
            &stg,
            &SgSynthesisOptions {
                workers: Some(1),
                ..Default::default()
            },
        );
        for workers in [None, Some(2), Some(4), Some(8)] {
            let parallel = sg_fingerprint(
                &stg,
                &SgSynthesisOptions {
                    workers,
                    ..Default::default()
                },
            );
            assert_eq!(
                sequential,
                parallel,
                "{}: workers={workers:?} diverged from sequential",
                stg.name()
            );
        }
    }
}

#[test]
fn unfolding_parallel_output_is_byte_identical_to_sequential() {
    // Not just the gates: the full fingerprint (refined on/off covers
    // included) must agree at every worker count.
    for stg in [muller_pipeline(4), paper_fig4ab(), vme_read_csc()] {
        let sequential = unfolding_fingerprint(
            &stg,
            &SynthesisOptions {
                workers: Some(1),
                ..Default::default()
            },
        );
        for workers in [None, Some(2), Some(4)] {
            let parallel = unfolding_fingerprint(
                &stg,
                &SynthesisOptions {
                    workers,
                    ..Default::default()
                },
            );
            assert_eq!(
                sequential,
                parallel,
                "{}: workers={workers:?} diverged from sequential",
                stg.name()
            );
        }
    }
}

#[test]
fn exact_mode_gates_are_identical_across_representations_and_workers() {
    // Exact mode derives and minimises pooled diagrams; at every worker
    // count its gates must equal the explicit reference: each signal's
    // canonical minterm covers (`exact_side_cover`) through the cube-level
    // minimiser.
    use si_synth::cubes::{minimize, Cover};
    use si_synth::synthesis::exact::exact_side_cover;
    use si_synth::synthesis::slice::side_slices;
    use si_synth::synthesis::CoverMode;
    for stg in [muller_pipeline(4), paper_fig4ab(), vme_read_csc()] {
        let unf = StgUnfolding::build(&stg, &UnfoldingOptions::default()).expect("builds");
        let budget = SynthesisOptions::default().slice_budget;
        let explicit: Vec<Cover> = stg
            .implementable_signals()
            .into_iter()
            .map(|signal| {
                let side = |value| {
                    let slices = side_slices(&unf, signal, value);
                    exact_side_cover(&stg, &unf, &slices, budget).expect("within budget")
                };
                minimize(&side(true), &side(false))
            })
            .collect();
        for workers in [Some(1), None, Some(2), Some(4)] {
            let options = SynthesisOptions {
                mode: CoverMode::Exact,
                workers,
                ..Default::default()
            };
            let result = synthesize_from_unfolding(&stg, &options).expect("synthesis succeeds");
            let gates: Vec<Cover> = result.gates.into_iter().map(|g| g.gate).collect();
            assert_eq!(
                explicit,
                gates,
                "{}: workers={workers:?} diverged",
                stg.name()
            );
        }
    }
}

#[test]
fn sg_synthesis_is_deterministic_across_runs() {
    // The exact on/off-sets are deduplicated through a HashSet; the covers
    // must nevertheless come out in canonical order every run, or gate
    // content could differ between two invocations in the same process.
    let stg = muller_pipeline(3);
    let options = SgSynthesisOptions::default();
    let first = sg_fingerprint(&stg, &options);
    for _ in 0..5 {
        assert_eq!(first, sg_fingerprint(&stg, &options));
    }
}

#[test]
fn symbolic_gc_stress_is_deterministic_across_workers_and_runs() {
    // The symbolic engine under adversarial pool maintenance — collection
    // between every fixpoint iteration plus proactive sifting — must stay
    // a pure layout decision: any worker count, and repeated runs, produce
    // byte-identical gates (BDD node ids and HashMap iteration order must
    // not leak into the output).
    for stg in [muller_pipeline(5), wide_arbiter(5), vme_read_csc()] {
        let options = |workers| SgSynthesisOptions {
            engine: SgEngine::Symbolic,
            symbolic_gc_threshold: 0,
            symbolic_reorder: ReorderPolicy::Auto,
            workers,
            ..Default::default()
        };
        let sequential = sg_fingerprint(&stg, &options(Some(1)));
        for workers in [None, Some(2), Some(4)] {
            assert_eq!(
                sequential,
                sg_fingerprint(&stg, &options(workers)),
                "{}: workers={workers:?} diverged under gc stress",
                stg.name()
            );
        }
        for _ in 0..3 {
            assert_eq!(sequential, sg_fingerprint(&stg, &options(Some(1))));
        }
        // And the stressed output equals the unstressed explicit baseline.
        assert_eq!(
            sequential,
            sg_fingerprint(&stg, &SgSynthesisOptions::default()),
            "{}: gc/reorder stress changed the gates",
            stg.name()
        );
    }
}

#[test]
fn inversion_and_exact_paths_are_deterministic_in_parallel() {
    let stg = sequencer(4);
    let options = |workers| SgSynthesisOptions {
        allow_inversion: true,
        exact_minimization: true,
        workers,
        ..Default::default()
    };
    let sequential = sg_fingerprint(&stg, &options(Some(1)));
    assert_eq!(sequential, sg_fingerprint(&stg, &options(Some(4))));
}
