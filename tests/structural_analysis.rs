//! Pinning of the structural-analysis engine integrations: certificate
//! soundness against explicit reachability, and byte-identical gate
//! equations when the symbolic engine runs with invariant-seeded variable
//! orders and certificate-skipped safety checks.

use si_synth::petri::structural::{certify_one_safe, structural_state_bound};
use si_synth::petri::ReachabilityGraph;
use si_synth::stategraph::{
    synthesize_from_sg, synthesize_from_symbolic_sg, OrderSeed, SgEngine, SgSynthesisOptions,
    SymbolicSg, SymbolicTuning,
};
use si_synth::stg::analysis::analyze;
use si_synth::stg::suite::synthesisable;

/// Every unary-invariant certificate must be truthful: certified places
/// hold at most one token in every explicitly reachable marking (they do by
/// construction of 1-safe exploration, but the *cover* itself must also
/// conserve tokens), and the structural state bound must dominate the real
/// state count.
#[test]
fn certificates_are_sound_on_the_whole_suite() {
    for stg in synthesisable() {
        let net = stg.net();
        let cert = certify_one_safe(net);
        assert_eq!(
            cert.certified,
            cert.covered.iter().all(|&c| c),
            "{}: certified flag must mean full cover",
            stg.name()
        );
        for inv in &cert.invariants {
            let tokens: usize = inv
                .iter()
                .filter(|&&p| net.initial_marking().contains(p))
                .count();
            assert!(
                tokens <= 1,
                "{}: unary invariant with {tokens} initial tokens",
                stg.name()
            );
        }
        let rg = ReachabilityGraph::explore(net, 5_000_000).expect("suite nets are safe");
        if let Some(bound) = structural_state_bound(net, &cert) {
            assert!(
                bound >= rg.len() as u128,
                "{}: structural bound {bound} below real state count {}",
                stg.name(),
                rg.len()
            );
        }
        // The typed analysis agrees with the direct net-level call.
        let analysis = analyze(&stg);
        assert_eq!(analysis.safety.certified, cert.certified, "{}", stg.name());
    }
}

/// The tentpole equivalence pin: invariant-seeded orders and
/// certificate-skipped safety checks (the symbolic engine skips its dynamic
/// check on every certified net) must leave every gate equation of the
/// suite untouched, byte for byte, against the explicit engine.
#[test]
fn order_seeds_and_certificate_skips_keep_equations_byte_identical() {
    for stg in synthesisable() {
        let explicit = synthesize_from_sg(&stg, &SgSynthesisOptions::default())
            .unwrap_or_else(|e| panic!("{} failed explicitly: {e}", stg.name()));
        for order_seed in [OrderSeed::SignalAdjacency, OrderSeed::PlaceInvariants] {
            let tuning = SymbolicTuning {
                order_seed,
                ..SymbolicTuning::default()
            };
            let mut sym = SymbolicSg::build(&stg, &tuning)
                .unwrap_or_else(|e| panic!("{} failed under {order_seed:?}: {e}", stg.name()));
            let symbolic = synthesize_from_symbolic_sg(
                &stg,
                &mut sym,
                &SgSynthesisOptions {
                    engine: SgEngine::Symbolic,
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("{} failed symbolically: {e}", stg.name()));
            assert_eq!(
                explicit.gates.len(),
                symbolic.gates.len(),
                "{} under {order_seed:?}",
                stg.name()
            );
            for (a, b) in symbolic.gates.iter().zip(&explicit.gates) {
                assert_eq!(
                    a.equation(&stg),
                    b.equation(&stg),
                    "{} under {order_seed:?}",
                    stg.name()
                );
                assert_eq!(a.inverted, b.inverted, "{}", stg.name());
            }
        }
    }
}

/// The option plumbing reaches the engine: `symbolic_order_seed` on
/// [`SgSynthesisOptions`] selects the seed end to end through
/// `synthesize_from_sg`.
#[test]
fn synthesis_options_carry_the_order_seed() {
    for stg in synthesisable().into_iter().take(4) {
        let adjacency = synthesize_from_sg(
            &stg,
            &SgSynthesisOptions {
                engine: SgEngine::Symbolic,
                symbolic_order_seed: OrderSeed::SignalAdjacency,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{}: {e}", stg.name()));
        let invariants = synthesize_from_sg(
            &stg,
            &SgSynthesisOptions {
                engine: SgEngine::Symbolic,
                symbolic_order_seed: OrderSeed::PlaceInvariants,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{}: {e}", stg.name()));
        for (a, b) in adjacency.gates.iter().zip(&invariants.gates) {
            assert_eq!(a.equation(&stg), b.equation(&stg), "{}", stg.name());
        }
    }
}
