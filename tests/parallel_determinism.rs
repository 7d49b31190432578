//! Parallel synthesis must be a pure speed-up: with any worker count, both
//! flows must produce byte-identical gates, in the same order, as the
//! sequential (`workers = Some(1)`) path — and repeated runs must agree
//! with each other (no hash-iteration order may leak into the output).

use si_synth::stategraph::{
    synthesize_from_sg, synthesize_from_symbolic_sg, ReorderPolicy, SgEngine, SgSynthesisOptions,
    SymbolicSg,
};
use si_synth::stg::generators::{muller_pipeline, sequencer, wide_arbiter};
use si_synth::stg::suite::{paper_fig4ab, request_mux, vme_read_csc, vme_read_no_csc};
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

/// Fingerprint of a symbolic run at the given kernel thread count and pool
/// policy: gates (byte-for-byte), state count, per-signal on/off-set sat
/// counts, and the deterministic kernel operation counters. The parallel
/// dispatch floor is forced to 0 so these small specifications actually
/// exercise the work-stealing apply, not just the serial fallback.
fn symbolic_fingerprint(
    stg: &si_synth::stg::Stg,
    bdd_threads: usize,
    reorder: ReorderPolicy,
    gc_threshold: usize,
) -> String {
    let options = SgSynthesisOptions {
        engine: SgEngine::Symbolic,
        symbolic_reorder: reorder,
        symbolic_gc_threshold: gc_threshold,
        bdd_threads: Some(bdd_threads),
        ..Default::default()
    };
    let mut tuning = options.symbolic_tuning();
    tuning.bdd_parallel_floor = Some(0);
    let mut sym = SymbolicSg::build(stg, &tuning).expect("symbolic reachability succeeds");
    let stats = sym.reach().stats().clone();
    let result = synthesize_from_symbolic_sg(stg, &mut sym, &options).expect("synthesis succeeds");
    let gates: String = result
        .gates
        .iter()
        .map(|g| format!("{}|{}|{:?}\n", g.equation(stg), g.inverted, g.cover))
        .collect();
    format!(
        "{gates}states={} ops={:?} peak_live={}\n",
        sym.state_count(),
        stats.ops,
        stats.peak_live_nodes
    )
}

#[test]
fn bdd_thread_count_is_invisible_across_gc_and_sift_policies() {
    // The tentpole determinism claim, end to end at the facade level: for
    // every combination of reorder policy and GC pressure, the kernel
    // thread count changes nothing — not the gates, not the state count,
    // not the on/off sets, not even the operation counters or the live
    // peak at the fixpoint checkpoints.
    let default_gc = SgSynthesisOptions::default().symbolic_gc_threshold;
    for stg in [muller_pipeline(5), wide_arbiter(5), vme_read_csc()] {
        for reorder in [ReorderPolicy::Off, ReorderPolicy::Sift, ReorderPolicy::Auto] {
            for gc_threshold in [0, default_gc] {
                let reference = symbolic_fingerprint(&stg, 1, reorder, gc_threshold);
                for threads in [2, 4] {
                    assert_eq!(
                        reference,
                        symbolic_fingerprint(&stg, threads, reorder, gc_threshold),
                        "{}: bdd_threads={threads} reorder={reorder:?} gc={gc_threshold} \
                         diverged from single-threaded",
                        stg.name()
                    );
                }
            }
        }
    }
}

#[test]
fn csc_witness_is_identical_at_every_bdd_thread_count() {
    // A CSC failure must report the same witness code at any thread count:
    // the conflict-set pick must come from canonical diagram traversal, not
    // from whichever worker found a conflict first.
    let stg = vme_read_no_csc();
    let witness = |threads| {
        synthesize_from_sg(
            &stg,
            &SgSynthesisOptions {
                engine: SgEngine::Symbolic,
                bdd_threads: Some(threads),
                ..Default::default()
            },
        )
        .expect_err("vme_read_no_csc violates CSC")
    };
    let reference = witness(1);
    for threads in [2, 4] {
        assert_eq!(
            reference,
            witness(threads),
            "CSC witness differs at bdd_threads={threads}"
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
