//! Regenerates the paper's **Figure 6**: synthesis time against signal
//! count on scalable Muller pipelines, where SG-based tools grow
//! (doubly-)exponentially and the unfolding-based flow stays polynomial,
//! plus the counterflow-pipeline data point (34 signals; the circled dot in
//! the paper's plot).
//!
//! Since the symbolic engine landed the SG series carries **two** baseline
//! columns: explicit enumeration (which dies at its state budget, as the
//! paper reports for SIS) and the BDD-based symbolic engine, which carries
//! the same byte-identical synthesis through every listed point — the
//! interesting comparison is now unfolding vs symbolic, both of which
//! sidestep state enumeration.
//!
//! Run with: `cargo run -p si-bench --release --bin fig6 [max_stages]`

use std::time::{Duration, Instant};

use si_bench::{secs, secs_opt};
use si_stategraph::{
    synthesize_from_built_sg, synthesize_from_symbolic_sg, SgEngine, SgSynthesisOptions,
    StateGraph, SymbolicSg,
};
use si_stg::generators::{counterflow_pipeline, muller_pipeline};
use si_synthesis::{synthesize_from_unfolding, SynthesisOptions};

/// Explicit SG baselines give up beyond this many explicit states, standing
/// in for "ran out of memory" in the paper.
const SG_BUDGET: usize = 2_000_000;
/// BDD node budget for the symbolic engine (it never comes close on this
/// workload: the reachable set of a Muller pipeline is near-linear in the
/// stage count under the adjacency-seeded variable order).
const SYM_BUDGET: usize = 16_000_000;
/// A baseline stops once the *predicted* time of the next instance exceeds
/// this, standing in for "taking prohibitively long" in the paper.
/// Prediction instead of run-one-over-the-limit matters because the growth
/// per series point is exponential for the explicit engine — a first run
/// past the threshold would dwarf the series.
const SG_GIVE_UP: Duration = Duration::from_secs(60);
/// Observed per-point growth factor of the explicit SG baseline on Muller
/// pipelines with implicit on/off covers (~0.2 s at 14 stages, ~1.1 s at
/// 16, ~6 s at 18). In practice the [`SG_BUDGET`] state cap stops the
/// series (20 stages ≈ 4.2 M states) before the time cutoff does — the
/// wall the symbolic engine exists to break.
const SG_GROWTH_PER_POINT: u32 = 6;
/// Observed per-point growth of the symbolic engine on the same series
/// (~2–3× per +2 stages: the diagram grows polynomially, the state count
/// 4×). With the 60 s give-up every point through 24+ stages completes.
const SYM_GROWTH_PER_POINT: u32 = 3;

fn main() {
    let max_stages: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(24);

    println!("Muller pipeline series (time in seconds):");
    println!(
        "{:>7} {:>8} {:>10} {:>12} {:>12} {:>10} {:>12} {:>12}",
        "stages",
        "signals",
        "PUNT-unf",
        "PUNT-total",
        "SG-explicit",
        "SG-states",
        "SG-symbolic",
        "Sym-states"
    );
    let mut explicit_alive = true;
    let mut symbolic_alive = true;
    let mut stages = 2;
    while stages <= max_stages {
        let spec = muller_pipeline(stages);

        let result = synthesize_from_unfolding(&spec, &SynthesisOptions::default())
            .unwrap_or_else(|e| panic!("pipeline {stages} failed: {e}"));

        let (sg_time, sg_states) = if explicit_alive {
            let r = run_explicit_baseline(&spec);
            // Stop when the *next* instance is predicted to blow the
            // give-up budget (or when this one already failed outright).
            if r.0
                .map(|t| t * SG_GROWTH_PER_POINT > SG_GIVE_UP)
                .unwrap_or(true)
            {
                explicit_alive = false;
            }
            r
        } else {
            (None, None)
        };
        let (sym_time, sym_states) = if symbolic_alive {
            let r = run_symbolic_baseline(&spec);
            if r.0
                .map(|t| t * SYM_GROWTH_PER_POINT > SG_GIVE_UP)
                .unwrap_or(true)
            {
                symbolic_alive = false;
            }
            r
        } else {
            (None, None)
        };
        println!(
            "{:>7} {:>8} {:>10} {:>12} {:>12} {:>10} {:>12} {:>12}",
            stages,
            spec.signal_count(),
            secs(result.timing.unfold),
            secs(result.timing.total()),
            secs_opt(sg_time),
            sg_states
                .map(|s| s.to_string())
                .unwrap_or_else(|| "gave-up".into()),
            secs_opt(sym_time),
            sym_states
                .map(|s| s.to_string())
                .unwrap_or_else(|| "gave-up".into()),
        );
        stages += 2;
    }

    // The counterflow pipeline: the paper's 34-signal circled dot.
    println!("\nCounterflow pipeline (34 signals):");
    let spec = counterflow_pipeline(15);
    assert_eq!(spec.signal_count(), 34);
    let start = Instant::now();
    let result = synthesize_from_unfolding(&spec, &SynthesisOptions::default());
    let unf_total = start.elapsed();
    match result {
        Ok(r) => println!(
            "  PUNT-style: {} s total ({} events, {} literals)",
            secs(unf_total),
            r.events,
            r.literal_count()
        ),
        Err(e) => println!("  PUNT-style failed: {e}"),
    }
    if explicit_alive {
        let (sg_time, sg_states) = run_explicit_baseline(&spec);
        match sg_time {
            Some(t) => println!(
                "  SG explicit: {} s ({} states)",
                secs(t),
                sg_states.unwrap_or(0)
            ),
            None => println!(
                "  SG explicit: exceeded {SG_BUDGET} states (as the paper reports for SIS)"
            ),
        }
    } else {
        println!("  SG explicit: skipped (already past the {SG_GIVE_UP:?} give-up point)");
    }
    let (sym_time, sym_states) = run_symbolic_baseline(&spec);
    match sym_time {
        Some(t) => println!(
            "  SG symbolic: {} s ({} states)",
            secs(t),
            sym_states.unwrap_or(0)
        ),
        None => println!("  SG symbolic: exceeded {SYM_BUDGET} diagram nodes"),
    }
}

fn run_explicit_baseline(spec: &si_stg::Stg) -> (Option<Duration>, Option<usize>) {
    // One state graph, timed together with the synthesis and then read for
    // the state-count column (the series reaches ~1 M states, so building
    // it twice would double the column's wall-clock).
    let start = Instant::now();
    let Ok(sg) = StateGraph::build(spec, SG_BUDGET) else {
        return (None, None);
    };
    let outcome = synthesize_from_built_sg(spec, &sg, &SgSynthesisOptions::default());
    let elapsed = start.elapsed();
    match outcome {
        Ok(_) => (Some(elapsed), Some(sg.len())),
        Err(_) => (None, None),
    }
}

fn run_symbolic_baseline(spec: &si_stg::Stg) -> (Option<Duration>, Option<u128>) {
    // One reachability fixpoint, reused for both the synthesis and the
    // state-count column — the reach phase dominates at large stage
    // counts, so rebuilding it just to count states would double the
    // column's wall-clock.
    let options = SgSynthesisOptions {
        engine: SgEngine::Symbolic,
        symbolic_node_budget: SYM_BUDGET,
        ..SgSynthesisOptions::default()
    };
    let start = Instant::now();
    let Ok(mut sym) = SymbolicSg::build(spec, &options.symbolic_tuning()) else {
        return (None, None);
    };
    let outcome = synthesize_from_symbolic_sg(spec, &mut sym, &options);
    let elapsed = start.elapsed();
    match outcome {
        Ok(_) => (Some(elapsed), Some(sym.state_count())),
        Err(_) => (None, None),
    }
}
