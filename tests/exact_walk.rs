//! Exact mode classifies every reachable state in one walk over the
//! segment (`classify_reachable`). The walk must find exactly the state
//! graph's states, under both cutoff orders, put every state on the same
//! side of every signal as the SG baseline's implied-value rule, and give
//! every signal the state graph's excitation regions. Its budget must count
//! the walk's distinct markings through the public entry point.

use si_synth::cubes::implicit::ImplicitPool;
use si_synth::cubes::{Cover, Cube};
use si_synth::stategraph::{on_off_sets, StateGraph};
use si_synth::stg::generators::{
    counterflow_pipeline, independent_cycles, muller_pipeline, parallelizer, sequencer, token_ring,
};
use si_synth::stg::suite::synthesisable;
use si_synth::stg::{Polarity, SignalId, Stg};
use si_synth::synthesis::exact::classify_reachable;
use si_synth::synthesis::{synthesize_from_unfolding, CoverMode, SynthesisError, SynthesisOptions};
use si_synth::unfolding::{AdequateOrder, StgUnfolding, UnfoldingOptions};

fn specs() -> Vec<Stg> {
    let mut specs = synthesisable();
    specs.extend((2..=9).map(muller_pipeline));
    specs.extend((3..=10).map(token_ring));
    specs.extend((2..=8).map(independent_cycles));
    specs.extend((3..=8).map(sequencer));
    specs.extend((1..=6).map(counterflow_pipeline));
    specs.extend((1..=6).map(parallelizer));
    specs
}

#[test]
fn walk_classifies_exactly_the_state_graph() {
    for stg in specs() {
        let sg = StateGraph::build(&stg, 1_000_000).expect("oracle builds");
        for order in [AdequateOrder::McMillan, AdequateOrder::ErvLex] {
            let what = format!("{} under {order:?}", stg.name());
            let options = UnfoldingOptions {
                order,
                ..UnfoldingOptions::default()
            };
            let unf = StgUnfolding::build(&stg, &options).expect("segment builds");
            let states = classify_reachable(&stg, &unf, usize::MAX).expect("unbounded walk");
            assert_eq!(states.len(), sg.len(), "{what}: state count");
            for signal in stg.implementable_signals() {
                let expected = on_off_sets(&stg, &sg, signal);
                let got = states.on_off_sets(signal).to_on_off_sets();
                assert_eq!(got.on, expected.on, "{what}: on-set of {signal}");
                assert_eq!(got.off, expected.off, "{what}: off-set of {signal}");

                let mut pool = ImplicitPool::new(stg.signal_count());
                let (rise, fall) = states.excitation_sets_into(&mut pool, signal);
                let got = [rise, fall].map(|er| pool.minterms_cover(er));
                let expected = [Polarity::Rise, Polarity::Fall]
                    .map(|polarity| excitation_region(&stg, &sg, signal, polarity));
                assert_eq!(got, expected, "{what}: ER(+/-) of {signal}");
            }
        }
    }
}

/// The codes of the states where `signal` has an excited change of
/// `polarity`, as a minterm cover in canonical order.
fn excitation_region(stg: &Stg, sg: &StateGraph, signal: SignalId, polarity: Polarity) -> Cover {
    let mut cubes: Vec<Cube> = (0..sg.len())
        .filter(|&s| {
            sg.excited(stg, s)
                .iter()
                .any(|e| e.signal == signal && e.polarity == polarity)
        })
        .map(|s| Cube::minterm(sg.code(s).iter().map(|(_, v)| v)))
        .collect();
    cubes.sort_by(Cube::cmp_canonical);
    cubes.dedup();
    let mut cover = Cover::empty(stg.signal_count());
    for cube in cubes {
        cover.push(cube);
    }
    cover
}

#[test]
fn exact_mode_budget_counts_the_walks_markings() {
    for stg in [muller_pipeline(5), independent_cycles(6)] {
        let n = StateGraph::build(&stg, 1_000_000)
            .expect("oracle builds")
            .len();
        let run = |slice_budget| {
            let options = SynthesisOptions {
                mode: CoverMode::Exact,
                slice_budget,
                ..SynthesisOptions::default()
            };
            synthesize_from_unfolding(&stg, &options)
        };
        if let Err(e) = run(n) {
            panic!("{}: fails at budget {n}: {e}", stg.name());
        }
        assert!(
            matches!(run(n - 1), Err(SynthesisError::SliceBudgetExceeded { budget }) if budget == n - 1),
            "{}: budget {} does not fail",
            stg.name(),
            n - 1
        );
    }
}
