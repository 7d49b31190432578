//! The unified flow surface: one synthesize/verify interface over the
//! SG-based baseline and the unfolding-based flow, plus the structural
//! policy behind `--flow auto`.
//!
//! Both flows end in the same place — one SOP gate per implementable
//! signal — but their intermediate artefacts (state graphs vs unfolding
//! segments), options, and error types differ. [`FlowEngine`] erases
//! those differences so harnesses, tests, and the CLI can run either flow
//! through a single surface and verify the result against the same
//! oracle. [`choose_flow`] picks a flow from *structure alone* (the
//! 1-safety certificate's state bound and the net class), so the decision
//! costs polynomial time and can be reported before any engine runs.

use std::error::Error;
use std::fmt;

use si_petri::structural::{
    certified_deadlock_witness, certify_one_safe, classify, structural_state_bound,
};
use si_stategraph::{synthesize_from_sg, SgEngine, SgError, SgSynthesis, SgSynthesisOptions};
use si_stg::Stg;

use crate::error::SynthesisError;
use crate::synth::{synthesize_from_unfolding, SynthesisOptions, UnfoldingSynthesis};
use crate::verify::{verify_gate_functions, GateFunction, VerifyError};

/// A synthesis result from either flow.
#[derive(Debug, Clone)]
pub enum FlowSynthesis {
    /// Result of the SG-based baseline (explicit or symbolic engine).
    Sg(SgSynthesis),
    /// Result of the unfolding-based flow.
    Unfolding(UnfoldingSynthesis),
}

impl FlowSynthesis {
    /// Total literal count over all gates (Table 1's `LitCnt`).
    pub fn literal_count(&self) -> usize {
        match self {
            FlowSynthesis::Sg(s) => s.literal_count(),
            FlowSynthesis::Unfolding(s) => s.literal_count(),
        }
    }

    /// Number of synthesised gates.
    pub fn gate_count(&self) -> usize {
        match self {
            FlowSynthesis::Sg(s) => s.gates.len(),
            FlowSynthesis::Unfolding(s) => s.gates.len(),
        }
    }

    /// Renders the gate equations, one per line, in signal order.
    pub fn equations(&self, stg: &Stg) -> Vec<String> {
        match self {
            FlowSynthesis::Sg(s) => s.gates.iter().map(|g| g.equation(stg)).collect(),
            FlowSynthesis::Unfolding(s) => s.gates.iter().map(|g| g.equation(stg)).collect(),
        }
    }
}

/// A failure from either flow, preserving the flow-specific error.
#[derive(Debug)]
pub enum FlowError {
    /// The SG-based flow failed.
    Sg(SgError),
    /// The unfolding-based flow failed.
    Unfolding(SynthesisError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Sg(e) => write!(f, "{e}"),
            FlowError::Unfolding(e) => write!(f, "{e}"),
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Sg(e) => Some(e),
            FlowError::Unfolding(e) => Some(e),
        }
    }
}

impl From<SgError> for FlowError {
    fn from(e: SgError) -> Self {
        FlowError::Sg(e)
    }
}

impl From<SynthesisError> for FlowError {
    fn from(e: SynthesisError) -> Self {
        FlowError::Unfolding(e)
    }
}

/// A synthesis flow: one engine-agnostic synthesize/verify surface.
///
/// `verify` is a provided method: correctness is defined by the oracle
/// (every gate output equals the implied value in every reachable state,
/// the check [`verify_against_sg_with`](crate::verify_against_sg_with)
/// runs), not by the flow that produced the gates, so both flows share the
/// implementation.
pub trait FlowEngine {
    /// Short flow name for reports (`"sg"` / `"unfolding"`).
    fn name(&self) -> &'static str;

    /// Runs the flow on `stg`.
    ///
    /// # Errors
    ///
    /// Returns the flow's own failure wrapped in [`FlowError`].
    fn synthesize(&self, stg: &Stg) -> Result<FlowSynthesis, FlowError>;

    /// Verifies a synthesis result against the state-graph oracle.
    /// `budget` is the oracle engine's own budget (states for
    /// [`SgEngine::Explicit`], BDD nodes for [`SgEngine::Symbolic`]).
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError::Mismatch`] found, or
    /// [`VerifyError::StateGraph`] if the oracle cannot be built.
    fn verify(
        &self,
        stg: &Stg,
        synthesis: &FlowSynthesis,
        budget: usize,
        oracle: SgEngine,
    ) -> Result<(), VerifyError> {
        let gates: Vec<GateFunction<'_>> = match synthesis {
            FlowSynthesis::Sg(s) => s
                .gates
                .iter()
                .map(|g| GateFunction {
                    signal: g.signal,
                    cover: &g.cover,
                    inverted: g.inverted,
                })
                .collect(),
            FlowSynthesis::Unfolding(s) => s
                .gates
                .iter()
                .map(|g| GateFunction {
                    signal: g.signal,
                    cover: &g.gate,
                    inverted: false,
                })
                .collect(),
        };
        verify_gate_functions(stg, &gates, budget, oracle)
    }
}

/// The SG-based baseline as a [`FlowEngine`].
#[derive(Debug, Clone, Default)]
pub struct SgFlow {
    /// Options forwarded to [`synthesize_from_sg`].
    pub options: SgSynthesisOptions,
}

impl FlowEngine for SgFlow {
    fn name(&self) -> &'static str {
        "sg"
    }

    fn synthesize(&self, stg: &Stg) -> Result<FlowSynthesis, FlowError> {
        Ok(FlowSynthesis::Sg(synthesize_from_sg(stg, &self.options)?))
    }
}

/// The unfolding-based flow as a [`FlowEngine`].
#[derive(Debug, Clone, Default)]
pub struct UnfoldingFlow {
    /// Options forwarded to [`synthesize_from_unfolding`].
    pub options: SynthesisOptions,
}

impl FlowEngine for UnfoldingFlow {
    fn name(&self) -> &'static str {
        "unfolding"
    }

    fn synthesize(&self, stg: &Stg) -> Result<FlowSynthesis, FlowError> {
        Ok(FlowSynthesis::Unfolding(synthesize_from_unfolding(
            stg,
            &self.options,
        )?))
    }
}

/// What [`choose_flow`] picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowChoice {
    /// Explicit state-graph flow: the structural bound fits the budget.
    SgExplicit,
    /// Unfolding flow: the state space may be huge, but the net is
    /// choice-free, so the complete prefix stays polynomial.
    Unfolding,
    /// Symbolic state-graph flow: no structural guarantee either way.
    SgSymbolic,
}

/// A flow choice plus the structural evidence it rests on, rendered for
/// the CLI's timing header.
#[derive(Debug, Clone)]
pub struct FlowDecision {
    /// The chosen flow.
    pub choice: FlowChoice,
    /// Human-readable justification, e.g.
    /// `"structural state bound 64 ≤ budget 2000000"`.
    pub reason: String,
}

/// A structured refusal from [`choose_flow`]: the specification carries a
/// **certified reachable deadlock** (a never-marked siphon plus the
/// termination of every surviving transition — see
/// [`certified_deadlock_witness`]), so running any engine would only spend
/// a budget discovering the same dead marking dynamically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRefusal {
    /// Names of the places of the never-marked siphon witnessing the
    /// deadlock, in id order.
    pub siphon: Vec<String>,
}

impl fmt::Display for FlowRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "certified reachable deadlock: siphon {{{}}} can never be (re)marked and the \
             surviving transitions terminate; refusing to run a synthesis engine \
             (`--lint` reports this as SI-E004)",
            self.siphon.join(", ")
        )
    }
}

impl Error for FlowRefusal {}

/// Picks a flow for `stg` from structure alone, in polynomial time.
///
/// The policy, in order:
///
/// 0. If the structural pass *certifies a reachable deadlock* (never-marked
///    siphon plus termination of the surviving transitions), refuse with a
///    [`FlowRefusal`] before any engine spends a budget.
/// 1. If the unary-invariant 1-safety certificate yields a structural
///    state bound within `state_budget`, the explicit SG flow is safe and
///    exact — take it.
/// 2. Otherwise, if the net is a marked graph (choice-free), the
///    unfolding segment stays polynomial in the net size even when the
///    state count is exponential — take the unfolding flow.
/// 3. Otherwise fall back to the symbolic SG flow, which handles both
///    large state spaces and arbitration.
///
/// # Errors
///
/// Returns [`FlowRefusal`] only for certified-deadlocking specifications.
pub fn choose_flow(stg: &Stg, state_budget: usize) -> Result<FlowDecision, FlowRefusal> {
    let net = stg.net();
    let cert = certify_one_safe(net);
    if let Some(siphon) = certified_deadlock_witness(net, &cert) {
        return Err(FlowRefusal {
            siphon: siphon
                .iter()
                .map(|&p| net.place_name(p).to_owned())
                .collect(),
        });
    }
    if let Some(bound) = structural_state_bound(net, &cert) {
        if bound <= state_budget as u128 {
            return Ok(FlowDecision {
                choice: FlowChoice::SgExplicit,
                reason: format!("structural state bound {bound} <= budget {state_budget}"),
            });
        }
        if classify(net).marked_graph {
            return Ok(FlowDecision {
                choice: FlowChoice::Unfolding,
                reason: format!(
                    "structural state bound {bound} > budget {state_budget}, \
                     choice-free net keeps the prefix polynomial"
                ),
            });
        }
        return Ok(FlowDecision {
            choice: FlowChoice::SgSymbolic,
            reason: format!(
                "structural state bound {bound} > budget {state_budget}, \
                 net has choice"
            ),
        });
    }
    if classify(net).marked_graph {
        return Ok(FlowDecision {
            choice: FlowChoice::Unfolding,
            reason: "no structural state bound, choice-free net keeps the prefix polynomial"
                .to_owned(),
        });
    }
    Ok(FlowDecision {
        choice: FlowChoice::SgSymbolic,
        reason: "no structural state bound, net has choice".to_owned(),
    })
}

/// Builds the [`FlowEngine`] a [`FlowDecision`] names, from the given
/// option sets. The SG options' engine field is overridden to match the
/// decision; the unfolding options pass through unchanged.
pub fn engine_for(
    choice: FlowChoice,
    sg_options: &SgSynthesisOptions,
    unfolding_options: &SynthesisOptions,
) -> Box<dyn FlowEngine> {
    match choice {
        FlowChoice::SgExplicit => Box::new(SgFlow {
            options: SgSynthesisOptions {
                engine: SgEngine::Explicit,
                ..sg_options.clone()
            },
        }),
        FlowChoice::SgSymbolic => Box::new(SgFlow {
            options: SgSynthesisOptions {
                engine: SgEngine::Symbolic,
                ..sg_options.clone()
            },
        }),
        FlowChoice::Unfolding => Box::new(UnfoldingFlow {
            options: unfolding_options.clone(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::CoverMode;
    use si_stg::generators::{muller_pipeline, token_ring, wide_arbiter};
    use si_stg::suite::synthesisable;

    #[test]
    fn both_flows_verify_through_the_trait_surface() {
        let flows: Vec<Box<dyn FlowEngine>> = vec![
            Box::new(SgFlow::default()),
            Box::new(UnfoldingFlow::default()),
        ];
        for stg in synthesisable() {
            for flow in &flows {
                let result = flow
                    .synthesize(&stg)
                    .unwrap_or_else(|e| panic!("{} failed on {}: {e}", flow.name(), stg.name()));
                flow.verify(&stg, &result, 5_000_000, SgEngine::Explicit)
                    .unwrap_or_else(|e| {
                        panic!("{} failed verification on {}: {e}", flow.name(), stg.name())
                    });
            }
        }
    }

    #[test]
    fn exact_unfolding_matches_sg_equations_through_the_trait() {
        let sg = SgFlow::default();
        let unf = UnfoldingFlow {
            options: SynthesisOptions {
                mode: CoverMode::Exact,
                ..SynthesisOptions::default()
            },
        };
        for stg in synthesisable() {
            let a = sg.synthesize(&stg).expect("sg flow");
            let b = unf.synthesize(&stg).expect("unfolding flow");
            assert_eq!(
                a.equations(&stg),
                b.equations(&stg),
                "{}: flows disagree",
                stg.name()
            );
            assert_eq!(a.literal_count(), b.literal_count());
            assert_eq!(a.gate_count(), b.gate_count());
        }
    }

    #[test]
    fn inverted_sg_gates_pass_the_shared_oracle() {
        let flow = SgFlow {
            options: SgSynthesisOptions {
                allow_inversion: true,
                ..SgSynthesisOptions::default()
            },
        };
        for stg in synthesisable() {
            let result = flow
                .synthesize(&stg)
                .unwrap_or_else(|e| panic!("sg flow failed on {}: {e}", stg.name()));
            flow.verify(&stg, &result, 5_000_000, SgEngine::Explicit)
                .unwrap_or_else(|e| panic!("{} failed verification: {e}", stg.name()));
        }
    }

    #[test]
    fn tampered_inverted_gate_is_caught() {
        use si_cubes::Cover;
        let stg = si_stg::suite::paper_fig1();
        let flow = SgFlow {
            options: SgSynthesisOptions {
                allow_inversion: true,
                ..SgSynthesisOptions::default()
            },
        };
        let mut result = match flow.synthesize(&stg).expect("ok") {
            FlowSynthesis::Sg(s) => s,
            FlowSynthesis::Unfolding(_) => unreachable!(),
        };
        // Force an inverted constant-0 gate: output stuck at 1.
        result.gates[0].cover = Cover::empty(stg.signal_count());
        result.gates[0].inverted = true;
        let wrapped = FlowSynthesis::Sg(result);
        let err = flow
            .verify(&stg, &wrapped, 10_000, SgEngine::Explicit)
            .unwrap_err();
        assert!(matches!(err, VerifyError::Mismatch { .. }), "{err}");
    }

    #[test]
    fn auto_policy_routes_small_nets_to_explicit_sg() {
        let decision = choose_flow(&si_stg::suite::paper_fig1(), 2_000_000).expect("no refusal");
        assert_eq!(
            decision.choice,
            FlowChoice::SgExplicit,
            "{}",
            decision.reason
        );
        let decision = choose_flow(&muller_pipeline(4), 2_000_000).expect("no refusal");
        assert_eq!(
            decision.choice,
            FlowChoice::SgExplicit,
            "{}",
            decision.reason
        );
    }

    #[test]
    fn auto_policy_routes_large_marked_graphs_to_unfolding() {
        // token_ring(8)'s *reachable* count is tiny, but the structural
        // bound (a product over invariants) is conservative — the policy
        // only sees structure, and unfolding handles the net fine.
        for stg in [token_ring(8), token_ring(12), muller_pipeline(20)] {
            let decision = choose_flow(&stg, 2_000_000).expect("no refusal");
            assert_eq!(
                decision.choice,
                FlowChoice::Unfolding,
                "{}: {}",
                stg.name(),
                decision.reason
            );
        }
    }

    #[test]
    fn auto_policy_routes_large_choice_nets_to_symbolic_sg() {
        let decision = choose_flow(&wide_arbiter(16), 2_000_000).expect("no refusal");
        assert_eq!(
            decision.choice,
            FlowChoice::SgSymbolic,
            "{}",
            decision.reason
        );
    }

    #[test]
    fn certified_deadlocking_spec_is_refused_before_any_engine_runs() {
        // A terminating x+ ; x- chain beside a never-marked y-cycle: the
        // structural pass certifies a reachable dead marking, and the
        // policy must refuse instead of picking a flow.
        let mut b = si_stg::StgBuilder::new();
        let x = b.output("x");
        let y = b.output("y");
        let xp = b.rise(x);
        let xm = b.fall(x);
        let start = b.place("start");
        let done = b.place("done");
        b.arc_pt(start, xp);
        b.arc_tt(xp, xm);
        b.arc_tp(xm, done);
        b.mark(start);
        let yp = b.rise(y);
        let ym = b.fall(y);
        b.arc_tt(yp, ym);
        b.arc_tt(ym, yp);
        b.initial_all_zero();
        let stg = b.must_build();

        let refusal = choose_flow(&stg, 2_000_000).expect_err("must refuse");
        assert!(
            refusal.siphon.iter().any(|p| p.contains("y+")),
            "witness names the never-marked cycle: {refusal:?}"
        );
        assert!(refusal.to_string().contains("SI-E004"));
    }

    #[test]
    fn auto_policy_decisions_synthesise_and_verify() {
        for stg in [
            si_stg::suite::paper_fig1(),
            token_ring(8),
            muller_pipeline(6),
        ] {
            let decision = choose_flow(&stg, 2_000_000).expect("no refusal");
            let engine = engine_for(
                decision.choice,
                &SgSynthesisOptions::default(),
                &SynthesisOptions::default(),
            );
            let result = engine
                .synthesize(&stg)
                .unwrap_or_else(|e| panic!("{}: {e}", stg.name()));
            engine
                .verify(&stg, &result, 5_000_000, SgEngine::Explicit)
                .unwrap_or_else(|e| panic!("{}: {e}", stg.name()));
        }
    }
}
