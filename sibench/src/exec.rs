//! One job: spec text in, gates out, through the same public calls the
//! `synth` CLI makes for the workload's invocation. With tracing on, spans
//! wrap each call and counters are read from what the calls return.

use std::time::Instant;

use si_stategraph::{
    check_implementable, synthesize_from_built_sg, synthesize_from_on_off_sets, ReorderPolicy,
    SgEngine, SgError, SgSynthesisOptions, StateGraph, SymbolicSg,
};
use si_stg::{parse_g, Stg};
use si_synthesis::{
    choose_flow, synthesize_from_unfolding, verify_against_sg_with, CoverMode, FlowChoice,
    FlowEngine, FlowSynthesis, SgFlow, SynthesisError, SynthesisOptions, VerifyError,
};

use crate::jobs::Workload;
use crate::trace::{SpanId, Tracer};

/// The flow and engine a job ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Unfolding flow, approximate covers.
    UnfoldingApprox,
    /// Unfolding flow, exact covers.
    UnfoldingExact,
    /// SG flow, symbolic engine.
    SgSymbolic,
    /// SG flow, explicit engine.
    SgExplicit,
}

impl Route {
    /// The route a workload's invocation must take.
    pub fn expected(workload: Workload) -> Route {
        match workload {
            Workload::UnfoldMarked => Route::UnfoldingApprox,
            Workload::UnfoldExact => Route::UnfoldingExact,
            Workload::SymbolicSg => Route::SgSymbolic,
            Workload::ExplicitSg => Route::SgExplicit,
        }
    }

    /// Short name for records.
    pub fn name(self) -> &'static str {
        match self {
            Route::UnfoldingApprox => "unfolding_approx",
            Route::UnfoldingExact => "unfolding_exact",
            Route::SgSymbolic => "sg_symbolic",
            Route::SgExplicit => "sg_explicit",
        }
    }
}

/// A failed job: the layer whose call failed, and why.
#[derive(Debug)]
pub struct JobError {
    /// Layer name (`stg`, `petri`, `stategraph`, `unfolding`, `core`, ...).
    pub layer: &'static str,
    /// The error message.
    pub message: String,
}

fn fail(layer: &'static str, e: impl std::fmt::Display) -> JobError {
    JobError {
        layer,
        message: e.to_string(),
    }
}

fn sg_fail(e: SgError) -> JobError {
    match e {
        SgError::Net(_) => fail("petri", e),
        _ => fail("stategraph", e),
    }
}

fn synthesis_fail(e: SynthesisError) -> JobError {
    match e {
        SynthesisError::Unfold(_) => fail("unfolding", e),
        _ => fail("core", e),
    }
}

/// A finished job: the parsed spec and its gates, kept for verification.
pub struct Done {
    /// The route taken.
    pub route: Route,
    /// The spec as the program parsed it.
    pub stg: Stg,
    /// The synthesised gates.
    pub gates: FlowSynthesis,
}

impl Done {
    /// Total gate literals (the paper's LitCnt).
    pub fn literals(&self) -> usize {
        self.gates.literal_count()
    }

    /// FNV-1a hash of the gate equations: equal fingerprints mean
    /// byte-identical equations.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for line in self.gates.equations(&self.stg) {
            for b in line.bytes().chain(std::iter::once(b'\n')) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }
}

/// The SG options of the `synth` CLI for `--flow sg`, at `workers` threads.
fn sg_options(engine: SgEngine, workers: usize) -> SgSynthesisOptions {
    SgSynthesisOptions {
        engine,
        symbolic_reorder: ReorderPolicy::Auto,
        workers: Some(workers),
        bdd_threads: Some(workers),
        ..SgSynthesisOptions::default()
    }
}

/// Runs one job of `workload` on `text` with `workers` threads (used for
/// both the per-signal pool and the BDD kernels).
///
/// # Errors
///
/// The first failing call, attributed to its layer.
pub fn run_job(
    workload: Workload,
    text: &str,
    workers: usize,
    t: &mut Tracer,
    job: SpanId,
) -> Result<Done, JobError> {
    let s = t.begin("stg.parse", Some(job));
    let stg = parse_g(text).map_err(|e| fail("stg", e))?;
    t.end(s);
    match workload {
        Workload::UnfoldMarked => {
            let s = t.begin("core.choose_flow", Some(job));
            let state_budget = SgSynthesisOptions::default().state_budget;
            let decision = choose_flow(&stg, state_budget).map_err(|e| fail("core", e))?;
            t.end(s);
            if decision.choice != FlowChoice::Unfolding {
                return Err(fail(
                    "core",
                    format!(
                        "route: --flow auto chose {:?} ({})",
                        decision.choice, decision.reason
                    ),
                ));
            }
            unfolding(stg, CoverMode::Approximate, workers, t, job)
        }
        Workload::UnfoldExact => unfolding(stg, CoverMode::Exact, workers, t, job),
        Workload::SymbolicSg => symbolic(stg, workers, t, job),
        Workload::ExplicitSg => explicit(stg, workers, t, job),
    }
}

fn unfolding(
    stg: Stg,
    mode: CoverMode,
    workers: usize,
    t: &mut Tracer,
    job: SpanId,
) -> Result<Done, JobError> {
    let options = SynthesisOptions {
        mode,
        workers: Some(workers),
        ..SynthesisOptions::default()
    };
    let s = t.begin("core.synth", Some(job));
    let result = synthesize_from_unfolding(&stg, &options).map_err(synthesis_fail)?;
    t.end(s);
    if t.enabled() {
        let timing = result.timing;
        t.reported(s, "unfolding.build", timing.unfold);
        let derive = t.reported(s, "core.derive", timing.derive);
        t.reported(derive, "core.slices_cpu", timing.slices);
        t.reported(derive, "core.refine_cpu", timing.refine);
        t.reported(s, "core.minimize", timing.minimize);
        t.count("unfolding.events", result.events as f64);
        t.count("unfolding.conditions", result.conditions as f64);
        for report in result.gates.iter().filter_map(|g| g.refinement.as_ref()) {
            t.count("core.refine_steps", report.steps as f64);
            t.count("core.exact_fallbacks", report.exact_fallbacks as f64);
            t.count("core.refined_signals", 1.0);
        }
    }
    let route = match mode {
        CoverMode::Approximate => Route::UnfoldingApprox,
        CoverMode::Exact => Route::UnfoldingExact,
    };
    Ok(Done {
        route,
        stg,
        gates: FlowSynthesis::Unfolding(result),
    })
}

fn symbolic(stg: Stg, workers: usize, t: &mut Tracer, job: SpanId) -> Result<Done, JobError> {
    let options = sg_options(SgEngine::Symbolic, workers);
    let s = t.begin("stategraph.symbolic_build", Some(job));
    let mut sym = SymbolicSg::build(&stg, &options.symbolic_tuning()).map_err(sg_fail)?;
    t.end(s);
    if t.enabled() {
        let reach = sym.reach();
        let stats = reach.stats().clone();
        t.reported(s, "bdd.gc", stats.gc_time);
        t.reported(s, "bdd.sift", stats.reorder_time);
        t.count("petri.reach_steps", reach.steps() as f64);
        t.count("petri.states", sym.state_count() as f64);
        t.count("bdd.ite_ops", stats.ops.ite as f64);
        t.count("bdd.exists_ops", stats.ops.exists as f64);
        t.count("bdd.and_exists_ops", stats.ops.and_exists as f64);
        t.count("bdd.gc_runs", stats.gc_runs as f64);
        t.count("bdd.sift_runs", stats.reorder_runs as f64);
        // `peak_live_nodes` is the pool size at checkpoints, garbage
        // included; the reachable set's own size is reported apart.
        t.count("bdd.peak_pool_nodes", stats.peak_live_nodes as f64);
        let final_nodes = reach.manager().node_count(reach.reachable());
        t.count("bdd.final_reach_nodes", final_nodes as f64);
        t.count("bdd.sched_peak_pool_nodes", stats.peak_pool as f64);
        t.count(
            "bdd.sched_reentrant_runs",
            stats.reentrant_maintenance as f64,
        );
    }
    let s = t.begin("stategraph.extract", Some(job));
    let signals = check_implementable(&stg).map_err(sg_fail)?;
    let sets = sym.extract_on_off_sets(&signals, options.extraction);
    t.end(s);
    let s = t.begin("cubes.min_symbolic", Some(job));
    let result = synthesize_from_on_off_sets(&stg, sets, &options).map_err(sg_fail)?;
    t.end(s);
    Ok(Done {
        route: Route::SgSymbolic,
        stg,
        gates: FlowSynthesis::Sg(result),
    })
}

fn explicit(stg: Stg, workers: usize, t: &mut Tracer, job: SpanId) -> Result<Done, JobError> {
    let options = sg_options(SgEngine::Explicit, workers);
    let s = t.begin("stategraph.sg_build", Some(job));
    let sg = StateGraph::build(&stg, options.state_budget).map_err(sg_fail)?;
    t.end(s);
    t.count("stategraph.states", sg.len() as f64);
    let s = t.begin("stategraph.sg_synth", Some(job));
    let result = synthesize_from_built_sg(&stg, &sg, &options).map_err(sg_fail)?;
    t.end(s);
    Ok(Done {
        route: Route::SgExplicit,
        stg,
        gates: FlowSynthesis::Sg(result),
    })
}

/// States the explicit oracle may enumerate before verification falls back
/// to the symbolic oracle.
pub const ORACLE_STATE_BUDGET: usize = 100_000;

/// Outcome of verifying one distinct spec's gates.
pub struct Verdict {
    /// `explicit` or `symbolic`.
    pub oracle: &'static str,
    /// Wall time of the check, in milliseconds.
    pub ms: f64,
    /// The mismatch or oracle failure, if any.
    pub error: Option<String>,
}

/// Checks `done`'s gates against the state-graph oracle of an engine other
/// than the one that produced them where that engine's budget allows:
/// unfolding and symbolic-SG gates go to the explicit oracle (falling back
/// to the symbolic one past [`ORACLE_STATE_BUDGET`] states), explicit-SG
/// gates to the symbolic oracle.
pub fn verify(done: &Done) -> Verdict {
    let start = Instant::now();
    let node_budget = SgSynthesisOptions::default().symbolic_node_budget;
    let check = |engine: SgEngine, budget: usize| -> Result<(), VerifyError> {
        match &done.gates {
            FlowSynthesis::Unfolding(r) => verify_against_sg_with(&done.stg, r, budget, engine),
            sg => SgFlow::default().verify(&done.stg, sg, budget, engine),
        }
    };
    let (oracle, result) = match done.route {
        Route::SgExplicit => ("symbolic", check(SgEngine::Symbolic, node_budget)),
        _ => match check(SgEngine::Explicit, ORACLE_STATE_BUDGET) {
            Err(VerifyError::StateGraph(SgError::Net(_))) => {
                ("symbolic", check(SgEngine::Symbolic, node_budget))
            }
            other => ("explicit", other),
        },
    };
    Verdict {
        oracle,
        ms: start.elapsed().as_secs_f64() * 1e3,
        error: result.err().map(|e| e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::Family;
    use si_stg::write_g;

    fn run(workload: Workload, family: Family, size: usize, workers: usize) -> Done {
        let text = write_g(&family.generate(size));
        let mut t = Tracer::new(false);
        let job = t.begin("job", None);
        run_job(workload, &text, workers, &mut t, job).expect("job runs")
    }

    #[test]
    fn every_workload_takes_its_route_and_verifies() {
        for (w, family, size) in [
            (Workload::UnfoldMarked, Family::Muller, 8),
            (Workload::UnfoldExact, Family::TokenRing, 8),
            (Workload::SymbolicSg, Family::WideArbiter, 6),
            (Workload::ExplicitSg, Family::DiningPhilosophers, 4),
        ] {
            let done = run(w, family, size, 1);
            assert_eq!(done.route, Route::expected(w));
            let verdict = verify(&done);
            assert!(verdict.error.is_none(), "{}: {:?}", w.name(), verdict.error);
        }
    }

    #[test]
    fn worker_count_does_not_change_the_gates() {
        for w in Workload::ALL {
            let family = match w {
                Workload::SymbolicSg => Family::WideArbiter,
                _ => Family::Muller,
            };
            let a = run(w, family, 8, 1);
            let b = run(w, family, 8, 2);
            assert_eq!(a.fingerprint(), b.fingerprint(), "{}", w.name());
            assert_eq!(a.literals(), b.literals(), "{}", w.name());
        }
    }

    #[test]
    fn a_wrong_route_is_a_core_error() {
        // Small pipelines fit the explicit state budget, so `--flow auto`
        // picks the SG flow and the unfold_marked route check fires.
        let text = write_g(&Family::Muller.generate(4));
        let mut t = Tracer::new(false);
        let job = t.begin("job", None);
        let err = run_job(Workload::UnfoldMarked, &text, 1, &mut t, job)
            .err()
            .expect("route check fails");
        assert_eq!(err.layer, "core");
        assert!(err.message.contains("route"), "{}", err.message);
    }

    #[test]
    fn a_parse_error_is_an_stg_error() {
        let mut t = Tracer::new(false);
        let job = t.begin("job", None);
        let err = run_job(Workload::ExplicitSg, ".model x\n.bogus\n", 1, &mut t, job)
            .err()
            .expect("parse fails");
        assert_eq!(err.layer, "stg");
    }
}
