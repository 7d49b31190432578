//! Property-based equivalence of the symbolic reachability engine against
//! explicit enumeration, over randomly sized instances of the safe
//! generator families (`muller_pipeline`, `counterflow_pipeline`,
//! `parallelizer`): the symbolic reachable-state count must equal the
//! explicit [`ReachabilityGraph`]'s, the reachable *code set* must be the
//! same point set, and SG synthesis must produce byte-identical gate
//! equations on either engine.

use proptest::prelude::*;
use si_synth::cubes::implicit::MintermList;
use si_synth::petri::ReachabilityGraph;
use si_synth::stategraph::{
    synthesize_from_sg, synthesize_from_symbolic_sg, OrderSeed, ReorderPolicy, SgEngine,
    SgSynthesisOptions, StateGraph, SymbolicSg, SymbolicTuning,
};
use si_synth::stg::generators::{
    counterflow_pipeline, muller_pipeline, parallelizer, wide_arbiter,
};
use si_synth::stg::{SignalId, Stg};

/// One random instance drawn from the four scalable families.
#[derive(Debug, Clone)]
enum Family {
    Muller(usize),
    Counterflow(usize),
    Parallelizer(usize),
    WideArbiter(usize),
}

fn family() -> impl Strategy<Value = Family> {
    prop_oneof![
        (1usize..9).prop_map(Family::Muller),
        (1usize..6).prop_map(Family::Counterflow),
        (1usize..5).prop_map(Family::Parallelizer),
        (1usize..8).prop_map(Family::WideArbiter),
    ]
}

fn build(family: &Family) -> Stg {
    match *family {
        Family::Muller(n) => muller_pipeline(n),
        Family::Counterflow(k) => counterflow_pipeline(k),
        Family::Parallelizer(n) => parallelizer(n),
        Family::WideArbiter(n) => wide_arbiter(n),
    }
}

/// A random pool tuning: every combination must leave the results alone.
fn tuning() -> impl Strategy<Value = SymbolicTuning> {
    (0usize..3, 0usize..3, 1usize..3, 0usize..2).prop_map(|(reorder, gc, sift, seed)| {
        SymbolicTuning {
            node_budget: NODE_BUDGET,
            reorder: [ReorderPolicy::Off, ReorderPolicy::Sift, ReorderPolicy::Auto][reorder],
            gc_threshold: [0, 64, 1 << 20][gc],
            reorder_threshold: [1, 256][sift - 1],
            order_seed: [OrderSeed::SignalAdjacency, OrderSeed::PlaceInvariants][seed],
        }
    })
}

const STATE_BUDGET: usize = 2_000_000;
const NODE_BUDGET: usize = 16_000_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn symbolic_state_count_and_code_set_match_explicit(f in family()) {
        let stg = build(&f);
        let rg = ReachabilityGraph::explore(stg.net(), STATE_BUDGET).expect("safe family");
        let sg = StateGraph::build(&stg, STATE_BUDGET).expect("explicit builds");
        let sym = SymbolicSg::build(&stg, &SymbolicTuning::with_budget(NODE_BUDGET))
            .expect("symbolic builds");
        prop_assert_eq!(sym.state_count(), rg.len() as u128, "{:?}", f);

        // The reachable code set: every state is classified into exactly
        // one of On(s)/Off(s) for any signal s, so their union is the full
        // code set — compare it against the explicitly enumerated codes
        // inside one canonical pool.
        let mut sets = sym.on_off_sets(SignalId(0));
        let (on, off) = (sets.on(), sets.off());
        let pool = sets.pool_mut();
        let symbolic_codes = pool.union(on, off);
        let mut list = MintermList::new(stg.signal_count());
        for s in 0..sg.len() {
            list.push(sg.code(s).iter().map(|(_, v)| v));
        }
        let explicit_codes = pool.from_minterms(&mut list);
        prop_assert_eq!(symbolic_codes, explicit_codes, "{:?}: code sets differ", f);
    }

    #[test]
    fn engines_produce_identical_gates(f in family()) {
        let stg = build(&f);
        let explicit = synthesize_from_sg(
            &stg,
            &SgSynthesisOptions {
                state_budget: STATE_BUDGET,
                ..Default::default()
            },
        )
        .expect("explicit synthesis");
        let symbolic = synthesize_from_sg(
            &stg,
            &SgSynthesisOptions {
                engine: SgEngine::Symbolic,
                symbolic_node_budget: NODE_BUDGET,
                ..Default::default()
            },
        )
        .expect("symbolic synthesis");
        prop_assert_eq!(explicit.gates.len(), symbolic.gates.len());
        for (a, b) in symbolic.gates.iter().zip(&explicit.gates) {
            prop_assert_eq!(
                a.equation(&stg),
                b.equation(&stg),
                "{:?}: gate equations differ",
                f
            );
            prop_assert_eq!(a.inverted, b.inverted);
        }
    }

    #[test]
    fn random_pool_tunings_leave_gates_and_state_counts_alone(
        f in family(),
        t in tuning(),
    ) {
        let stg = build(&f);
        let explicit = synthesize_from_sg(
            &stg,
            &SgSynthesisOptions {
                state_budget: STATE_BUDGET,
                ..Default::default()
            },
        )
        .expect("explicit synthesis");
        let sg = StateGraph::build(&stg, STATE_BUDGET).expect("explicit builds");
        let mut sym = SymbolicSg::build(&stg, &t).expect("symbolic builds");
        prop_assert_eq!(sym.state_count(), sg.len() as u128, "{:?} under {:?}", f, t);
        let symbolic = synthesize_from_symbolic_sg(&stg, &mut sym, &SgSynthesisOptions::default())
            .expect("symbolic synthesis");
        prop_assert_eq!(explicit.gates.len(), symbolic.gates.len());
        for (a, b) in symbolic.gates.iter().zip(&explicit.gates) {
            prop_assert_eq!(
                a.equation(&stg),
                b.equation(&stg),
                "{:?} under {:?}: gate equations differ",
                f,
                t
            );
        }
    }
}
