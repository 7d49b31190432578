//! Structural static analysis of STGs.
//!
//! A polynomial-time pass in the spirit of the source paper's pitch —
//! answer what you can from **structure**, before any reachability engine
//! runs. The pass combines
//!
//! * the net-level machinery of [`si_petri::structural`] (incidence
//!   matrix, exact P/T-invariants, unary-invariant 1-safety certificates,
//!   siphons, net classes) applied to the STG's underlying net, and
//! * the signal-level checks of [`signal_findings`] (dead signals, rise/fall
//!   alternation on syntactic paths, polarity coverage, dummies),
//!
//! and surfaces everything two ways: as a typed [`StgAnalysis`] record for
//! engine integration (certified safety skips, invariant-seeded BDD
//! orders, structural state bounds), and as severity-ranked, stable-coded
//! [`lint`] diagnostics (`SI-E…`/`SI-W…`/`SI-I…`) with spans into the `.g`
//! source.

mod lint;
mod signals;

pub use lint::{lint, lint_text, lint_with_analysis, DiagCode, Diagnostic, LintReport, Severity};
pub use signals::{signal_findings, SignalFindings};

use si_petri::structural::{
    self, certify_deadlock, certify_one_safe, classify, connected_components, dead_by_siphon,
    duplicate_places, non_repeatable_transitions, rank_check, structural_state_bound,
    unmarked_siphon, DeadlockCertificate, Incidence, NetClass, RankCheck, SafetyCertificate,
};
use si_petri::{NetError, PlaceId, TransitionId};

use crate::error::StgError;
use crate::model::Stg;

/// Everything the structural pass can determine about an STG without
/// exploring a single marking.
#[derive(Debug, Clone)]
pub struct StgAnalysis {
    /// The incidence matrix of the underlying net.
    pub incidence: Incidence,
    /// Integer basis of the P-invariants (`None` when the exact arithmetic
    /// overflowed `i128`).
    pub p_invariants: Option<Vec<Vec<i64>>>,
    /// Integer basis of the T-invariants (`None` on overflow).
    pub t_invariants: Option<Vec<Vec<i64>>>,
    /// The unary-invariant 1-safety certificate. When
    /// [`SafetyCertificate::certified`] holds, every engine may skip its
    /// dynamic 1-safety checks for this net.
    pub safety: SafetyCertificate,
    /// Upper bound on the reachable-marking count implied by the
    /// certificate (see [`structural_state_bound`]).
    pub state_bound: Option<u128>,
    /// Structural net-class membership.
    pub class: NetClass,
    /// The maximal siphon among initially unmarked places (empty for
    /// well-formed live specifications).
    pub siphon: Vec<PlaceId>,
    /// Transitions structurally dead because they consume from
    /// [`siphon`](Self::siphon).
    pub dead_transitions: Vec<TransitionId>,
    /// Weakly connected components carrying at least one arc.
    pub components: usize,
    /// `(duplicate, original)` pairs of structurally identical places.
    pub duplicates: Vec<(PlaceId, PlaceId)>,
    /// Transitions with an empty postset: every firing drains a token.
    pub sink_transitions: Vec<TransitionId>,
    /// Places with producers but no consumer: tokens pile up.
    pub accumulator_places: Vec<PlaceId>,
    /// Transitions outside every T-invariant — they fire at most finitely
    /// often on any run (`None` on overflow).
    pub non_repeatable: Option<Vec<TransitionId>>,
    /// Structural well-formedness violations (shared rule set with
    /// [`si_petri::PetriNet::validate`]).
    pub validation: Vec<NetError>,
    /// Width mismatch of a preset initial code, if any — the rule
    /// [`Stg::validate`] enforces beyond the net-level ones.
    pub code_width: Option<StgError>,
    /// Signal-level findings.
    pub signals: SignalFindings,
    /// The structural deadlock verdict: siphon–trap deadlock-freedom
    /// certificate, certified reachable deadlock, a failing siphon witness,
    /// or no conclusion.
    pub deadlock: DeadlockCertificate,
    /// The free-choice rank-theorem data (`None` when the exact rank
    /// computation overflowed). Only meaningful for connected free-choice
    /// nets; see [`RankCheck::holds`].
    pub rank: Option<RankCheck>,
}

/// Runs the full structural pass over `stg`.
pub fn analyze(stg: &Stg) -> StgAnalysis {
    let net = stg.net();
    let incidence = Incidence::of(net);
    let safety = certify_one_safe(net);
    let state_bound = structural_state_bound(net, &safety);
    let siphon = unmarked_siphon(net);
    let dead_transitions = dead_by_siphon(net, &siphon);
    let sink_transitions = net
        .transitions()
        .filter(|&t| net.postset(t).is_empty())
        .collect();
    let accumulator_places = net
        .places()
        .filter(|&p| !net.place_preset(p).is_empty() && net.place_postset(p).is_empty())
        .collect();
    let deadlock = certify_deadlock(net, &safety);
    StgAnalysis {
        p_invariants: structural::p_invariant_basis(&incidence),
        t_invariants: structural::t_invariant_basis(&incidence),
        non_repeatable: non_repeatable_transitions(&incidence),
        incidence,
        deadlock,
        rank: rank_check(net),
        safety,
        state_bound,
        class: classify(net),
        siphon,
        dead_transitions,
        components: connected_components(net),
        duplicates: duplicate_places(net),
        sink_transitions,
        accumulator_places,
        validation: structural::validation_errors(net),
        code_width: code_width_error(stg),
        signals: signal_findings(stg),
    }
}

/// The one validation rule that lives at the STG (not net) level: a preset
/// initial code must be as wide as the signal count. Shared by
/// [`Stg::validate`] and the linter.
pub fn code_width_error(stg: &Stg) -> Option<StgError> {
    let code = stg.initial_code()?;
    (code.len() != stg.signal_count()).then(|| StgError::CodeWidthMismatch {
        expected: stg.signal_count(),
        found: code.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::StgBuilder;

    fn handshake() -> Stg {
        let mut b = StgBuilder::new();
        let req = b.input("req");
        let ack = b.output("ack");
        let rp = b.rise(req);
        let ap = b.rise(ack);
        let rm = b.fall(req);
        let am = b.fall(ack);
        b.arc_tt(rp, ap);
        b.arc_tt(ap, rm);
        b.arc_tt(rm, am);
        let back = b.arc_tt(am, rp);
        b.mark(back);
        b.initial_all_zero();
        b.must_build()
    }

    #[test]
    fn clean_handshake_analysis() {
        let a = analyze(&handshake());
        assert!(a.safety.certified);
        assert_eq!(a.state_bound, Some(4));
        assert!(a.class.marked_graph);
        assert!(a.siphon.is_empty());
        assert!(a.dead_transitions.is_empty());
        assert_eq!(a.components, 1);
        assert!(a.duplicates.is_empty());
        assert!(a.sink_transitions.is_empty());
        assert!(a.accumulator_places.is_empty());
        assert_eq!(a.non_repeatable.as_deref(), Some(&[][..]));
        assert!(a.validation.is_empty());
        assert!(a.code_width.is_none());
        assert!(a.signals.dead_signals.is_empty());
        // One P-invariant (the cycle), one T-invariant (the full cycle).
        assert_eq!(a.p_invariants.as_deref().map(<[_]>::len), Some(1));
        assert_eq!(a.t_invariants.as_deref().map(<[_]>::len), Some(1));
        // The handshake cycle is a marked graph whose single cycle is
        // initially marked: certified deadlock-free via the linear path.
        assert_eq!(a.deadlock, DeadlockCertificate::DeadlockFreeMarkedGraph);
        // A live safe marked graph satisfies the rank equation.
        assert_eq!(a.rank.map(|r| r.holds()), Some(true));
    }
}
