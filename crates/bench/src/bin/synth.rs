//! `synth` — the CLI front door: synthesise a user-supplied `.g` file with
//! either flow and print the gate equations plus a Table-1-style timing
//! breakdown, or statically lint the specification without synthesising.
//!
//! ```text
//! Usage: synth <spec.g> [options]
//!
//!   --flow sg|unfolding|auto
//!                          synthesis flow (default: unfolding); `auto`
//!                          picks from structure alone — explicit SG when
//!                          the 1-safety certificate bounds the state
//!                          count within budget, unfolding for choice-free
//!                          nets beyond it, symbolic SG otherwise — and
//!                          reports the choice in the timing breakdown
//!   --engine explicit|symbolic|auto
//!                          (sg flow) state-traversal engine: explicit
//!                          enumeration, the BDD-based symbolic engine, or
//!                          `auto` (explicit when the structural state
//!                          bound fits the budget, symbolic otherwise)
//!                          (default: explicit; symbolic/auto rejected
//!                          with --flow unfolding, which has no state
//!                          graph)
//!   --cover exact|approx   cover derivation / minimisation mode
//!                          (default: approx; for --flow sg, `exact`
//!                          selects exact Quine–McCluskey minimisation)
//!   --workers N            worker threads (default: one per CPU)
//!   --budget N             traversal budget: max states (explicit sg),
//!                          max live BDD nodes (symbolic sg) or max
//!                          distinct markings (unfolding: for the one
//!                          walk over the segment with --cover exact,
//!                          per slice for approx's exact fallbacks);
//!                          defaults: 2000000 states / 16000000 nodes /
//!                          2000000 markings
//!   --reorder off|sift|auto
//!                          (symbolic engine) dynamic variable reordering:
//!                          off keeps the statically seeded order, sift
//!                          reorders as a last resort under budget
//!                          pressure, auto reorders on pool growth
//!                          (default: auto — the front door should survive
//!                          specifications with no good static order)
//!   --order-seed adjacency|invariants
//!                          (symbolic engine) structural heuristic seeding
//!                          the static variable order: signal adjacency or
//!                          P-invariant place clusters (default:
//!                          adjacency; gate equations are identical under
//!                          either seed)
//!   --invert               (sg flow) allow implementing the complemented
//!                          function when it is cheaper
//!   --lint                 run the structural static analysis only and
//!                          print severity-ranked diagnostics (SI-E…/W…/I…)
//!                          with .g line numbers; no synthesis
//!   --lint-json            like --lint, but emit one JSON report object
//! ```
//!
//! Run with: `cargo run -p si-bench --release --bin synth -- spec.g --flow sg`
//!
//! Exit codes: 0 success, 1 usage or I/O error, 2 parse or synthesis error
//! (a malformed `.g` file is reported as a structured parse error, never a
//! panic). In lint mode: 0 when the spec is clean or carries only
//! warnings/infos, 2 when any error-severity diagnostic fires. A reader
//! that closes stdout early (`synth spec.g | head -1`) ends the run with
//! exit 0.

use std::fmt;
use std::io::{self, Write};
use std::process::{self, ExitCode};
use std::time::Instant;

use si_bench::secs;
use si_stategraph::{
    check_implementable, synthesize_from_built_sg, synthesize_from_on_off_sets, OrderSeed,
    ReorderPolicy, SgEngine, SgSynthesis, SgSynthesisOptions, StateGraph, SymbolicSg,
};
use si_stg::analysis::lint_text;
use si_stg::{parse_g, Stg};
use si_synthesis::{
    choose_flow, synthesize_from_unfolding, CoverMode, FlowChoice, SynthesisOptions,
};

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout: the one path all output takes. A reader that closed
/// the pipe (`synth spec.g | head -1`) has taken all it wants, so the run
/// ends there with exit 0, where `println!` would panic; any other write
/// error ends it as an I/O error (exit 1).
fn emit(args: fmt::Arguments) {
    let written = {
        let mut stdout = io::stdout().lock();
        stdout.write_fmt(args).and_then(|()| stdout.flush())
    };
    match written {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => process::exit(0),
        Err(e) => {
            eprintln!("cannot write to stdout: {e}");
            process::exit(1);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Sg,
    Unfolding,
    Auto,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineArg {
    Explicit,
    Symbolic,
    Auto,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LintMode {
    Off,
    Text,
    Json,
}

struct Args {
    path: String,
    flow: Flow,
    engine: EngineArg,
    exact: bool,
    workers: Option<usize>,
    budget: Option<usize>,
    reorder: ReorderPolicy,
    order_seed: OrderSeed,
    invert: bool,
    lint: LintMode,
}

fn usage() -> &'static str {
    "Usage: synth <spec.g> [--flow sg|unfolding|auto] [--engine explicit|symbolic|auto] \
     [--cover exact|approx] [--workers N] [--budget N] \
     [--reorder off|sift|auto] [--order-seed adjacency|invariants] [--invert] \
     [--lint | --lint-json]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut path = None;
    let mut flow = Flow::Unfolding;
    let mut engine = None;
    let mut exact = false;
    let mut workers = None;
    let mut budget = None;
    let mut reorder = ReorderPolicy::Auto;
    let mut order_seed = OrderSeed::SignalAdjacency;
    let mut invert = false;
    let mut lint = LintMode::Off;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--flow" => {
                flow = match args.next().as_deref() {
                    Some("sg") => Flow::Sg,
                    Some("unfolding") => Flow::Unfolding,
                    Some("auto") => Flow::Auto,
                    other => return Err(format!("--flow needs sg|unfolding|auto, got {other:?}")),
                }
            }
            "--engine" => {
                engine = match args.next().as_deref() {
                    Some("explicit") => Some(EngineArg::Explicit),
                    Some("symbolic") => Some(EngineArg::Symbolic),
                    Some("auto") => Some(EngineArg::Auto),
                    other => {
                        return Err(format!(
                            "--engine needs explicit|symbolic|auto, got {other:?}"
                        ))
                    }
                }
            }
            "--cover" => {
                exact = match args.next().as_deref() {
                    Some("exact") => true,
                    Some("approx") => false,
                    other => return Err(format!("--cover needs exact|approx, got {other:?}")),
                }
            }
            "--workers" => {
                let n = args
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--workers needs a positive integer")?;
                workers = Some(n);
            }
            "--budget" => {
                let n = args
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--budget needs a positive integer")?;
                budget = Some(n);
            }
            "--reorder" => {
                reorder = args
                    .next()
                    .as_deref()
                    .and_then(ReorderPolicy::parse)
                    .ok_or("--reorder needs off|sift|auto")?;
            }
            "--order-seed" => {
                order_seed = match args.next().as_deref() {
                    Some("adjacency") => OrderSeed::SignalAdjacency,
                    Some("invariants") => OrderSeed::PlaceInvariants,
                    other => {
                        return Err(format!(
                            "--order-seed needs adjacency|invariants, got {other:?}"
                        ))
                    }
                }
            }
            "--invert" => invert = true,
            "--lint" => lint = LintMode::Text,
            "--lint-json" => lint = LintMode::Json,
            "--help" | "-h" => return Err(usage().to_owned()),
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unexpected argument `{other}`\n{}", usage())),
        }
    }
    let path = path.ok_or_else(|| usage().to_owned())?;
    if flow == Flow::Unfolding && matches!(engine, Some(EngineArg::Symbolic | EngineArg::Auto)) {
        return Err(format!(
            "--engine symbolic|auto requires --flow sg: the unfolding flow never builds a \
             state graph, so there is no state-traversal engine to choose\n{}",
            usage()
        ));
    }
    Ok(Args {
        path,
        flow,
        engine: engine.unwrap_or(EngineArg::Explicit),
        exact,
        workers,
        budget,
        reorder,
        order_seed,
        invert,
        lint,
    })
}

fn main() -> ExitCode {
    let wall_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(1);
        }
    };
    let text = match std::fs::read_to_string(&args.path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read `{}`: {e}", args.path);
            return ExitCode::from(1);
        }
    };
    if args.lint != LintMode::Off {
        return run_lint(&text, &args);
    }
    let stg = match parse_g(&text) {
        Ok(stg) => stg,
        Err(e) => {
            eprintln!("`{}`: {e}", args.path);
            return ExitCode::from(2);
        }
    };
    outln!("{stg}");
    let state_budget = args
        .budget
        .unwrap_or(SgSynthesisOptions::default().state_budget);
    match args.flow {
        Flow::Sg => {
            let (engine, note) = match args.engine {
                EngineArg::Explicit => (SgEngine::Explicit, None),
                EngineArg::Symbolic => (SgEngine::Symbolic, None),
                EngineArg::Auto => {
                    // The flow is pinned to sg, so the structural policy
                    // only decides the traversal engine: explicit when the
                    // certificate bounds the state count within budget.
                    let decision = match choose_flow(&stg, state_budget) {
                        Ok(d) => d,
                        Err(refusal) => {
                            eprintln!("{refusal}");
                            return ExitCode::from(2);
                        }
                    };
                    let engine = match decision.choice {
                        FlowChoice::SgExplicit => SgEngine::Explicit,
                        FlowChoice::Unfolding | FlowChoice::SgSymbolic => SgEngine::Symbolic,
                    };
                    let name = match engine {
                        SgEngine::Explicit => "explicit engine",
                        SgEngine::Symbolic => "symbolic engine",
                    };
                    (engine, Some(format!("{name} ({})", decision.reason)))
                }
            };
            run_sg(&stg, &args, engine, note, wall_start)
        }
        Flow::Unfolding => run_unfolding(&stg, &args, None, wall_start),
        Flow::Auto => {
            let decision = match choose_flow(&stg, state_budget) {
                Ok(d) => d,
                Err(refusal) => {
                    eprintln!("{refusal}");
                    return ExitCode::from(2);
                }
            };
            match decision.choice {
                FlowChoice::SgExplicit => run_sg(
                    &stg,
                    &args,
                    SgEngine::Explicit,
                    Some(format!("sg flow, explicit engine ({})", decision.reason)),
                    wall_start,
                ),
                FlowChoice::SgSymbolic => run_sg(
                    &stg,
                    &args,
                    SgEngine::Symbolic,
                    Some(format!("sg flow, symbolic engine ({})", decision.reason)),
                    wall_start,
                ),
                FlowChoice::Unfolding => run_unfolding(
                    &stg,
                    &args,
                    Some(format!("unfolding flow ({})", decision.reason)),
                    wall_start,
                ),
            }
        }
    }
}

/// Lint mode: structural static analysis only, no synthesis. Warnings and
/// infos leave the exit code at 0 so CI can gate on errors alone; any
/// error-severity diagnostic (or a syntactically broken file) exits 2.
fn run_lint(text: &str, args: &Args) -> ExitCode {
    let lint_start = Instant::now();
    let report = match lint_text(text) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("`{}`: {e}", args.path);
            return ExitCode::from(2);
        }
    };
    let lint_time = lint_start.elapsed();
    match args.lint {
        LintMode::Json => outln!("{}", report.to_json()),
        _ => emit(format_args!("{}", report.render())),
    }
    // The analysis-pass timing goes to stderr so stdout stays exactly the
    // report (greppable text or one JSON object).
    eprintln!("{:>10} {:>10}", "analysis", secs(lint_time));
    if report.has_errors() {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

fn run_sg(
    stg: &Stg,
    args: &Args,
    engine: SgEngine,
    auto_note: Option<String>,
    wall_start: Instant,
) -> ExitCode {
    let defaults = SgSynthesisOptions::default();
    let options = SgSynthesisOptions {
        engine,
        state_budget: args.budget.unwrap_or(defaults.state_budget),
        symbolic_node_budget: args.budget.unwrap_or(defaults.symbolic_node_budget),
        symbolic_reorder: args.reorder,
        symbolic_order_seed: args.order_seed,
        exact_minimization: args.exact,
        allow_inversion: args.invert,
        workers: args.workers,
        ..defaults
    };
    // Phase 1 ("reach"): state-space traversal — explicit enumeration or
    // the symbolic BDD fixpoint. Phase 2 ("synth"): per-signal on/off set
    // derivation, CSC check and minimisation.
    let mut symbolic_stats = None;
    let mut extraction_time = None;
    let reach_start = Instant::now();
    let (states, reach_time, result): (String, _, Result<SgSynthesis, _>) = match engine {
        SgEngine::Explicit => {
            let sg = match StateGraph::build(stg, options.state_budget) {
                Ok(sg) => sg,
                Err(e) => {
                    // `SgError::Net` already carries the construction
                    // context in its message.
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            let reach_time = reach_start.elapsed();
            (
                format!("{} states", sg.len()),
                reach_time,
                synthesize_from_built_sg(stg, &sg, &options),
            )
        }
        SgEngine::Symbolic => {
            let mut sym = match SymbolicSg::build(stg, &options.symbolic_tuning()) {
                Ok(sym) => sym,
                Err(e) => {
                    eprintln!("symbolic reachability failed: {e}");
                    return ExitCode::from(2);
                }
            };
            let reach_time = reach_start.elapsed();
            let reach = sym.reach();
            let final_reach_nodes = reach.manager().node_count(reach.reachable());
            symbolic_stats = Some((reach.stats().clone(), final_reach_nodes));
            let states = format!("{} states, {} passes", sym.state_count(), reach.steps());
            // The synth phase, split so extraction (reachable BDD →
            // per-signal implicit sets) is timed apart from the
            // minimiser — the ExtTim row below.
            let result = check_implementable(stg).and_then(|signals| {
                let ext_start = Instant::now();
                let sets = sym.extract_on_off_sets(&signals, options.extraction);
                extraction_time = Some(ext_start.elapsed());
                synthesize_from_on_off_sets(stg, sets, &options)
            });
            (states, reach_time, result)
        }
    };
    let syn_time = reach_start.elapsed() - reach_time;
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("synthesis failed: {e}");
            return ExitCode::from(2);
        }
    };
    let engine_name = match engine {
        SgEngine::Explicit => "explicit engine",
        SgEngine::Symbolic => "symbolic engine",
    };
    outln!("\nGate equations (SG baseline, {engine_name}):");
    for gate in &result.gates {
        outln!("  {}", gate.equation(stg));
    }
    outln!("\nTiming breakdown (seconds):");
    if let Some(note) = &auto_note {
        outln!("  auto choice: {note}");
    }
    outln!("{:>10} {:>10}", "Phase", "Time");
    outln!("{:>10} {:>10}   ({states})", "reach", secs(reach_time));
    if let Some((stats, final_reach_nodes)) = &symbolic_stats {
        // Pool-maintenance slices of the reach phase (already included in
        // the reach row): how much of it went to keeping the pool small.
        outln!(
            "{:>10} {:>10}   ({} runs, {} nodes freed)",
            "gc",
            secs(stats.gc_time),
            stats.gc_runs,
            stats.gc_collected
        );
        // The checkpoint pool counts garbage not yet collected; the final
        // reachable BDD is the set the fixpoint actually built.
        outln!(
            "{:>10} {:>10}   ({} runs, checkpoint pool {} nodes, final reach {} nodes)",
            "reorder",
            secs(stats.reorder_time),
            stats.reorder_runs,
            stats.peak_live_nodes,
            final_reach_nodes
        );
        // Deterministic kernel-call counters of the fixpoint (the same on
        // any machine — the cross-machine perf proxy) plus the
        // mid-operation maintenance figures, which repeat exactly for a
        // given spec and options.
        outln!(
            "  symbolic ops: ite {} / exists {} \
             (reentrant maintenance {}, peak pool {})",
            stats.ops.ite,
            stats.ops.exists,
            stats.reentrant_maintenance,
            stats.peak_pool
        );
    }
    if let Some(ext) = extraction_time {
        // Slice of the synth row (already included there): cover
        // extraction's share of the non-reach time.
        outln!("{:>10} {:>10}", "ExtTim", secs(ext));
    }
    outln!("{:>10} {:>10}", "synth", secs(syn_time));
    outln!(
        "{:>10} {:>10}   ({} literals)",
        "total",
        secs(reach_time + syn_time),
        result.literal_count()
    );
    outln!(
        "{:>10} {:>10}   (end-to-end wall clock)",
        "Wall",
        secs(wall_start.elapsed())
    );
    ExitCode::SUCCESS
}

fn run_unfolding(
    stg: &Stg,
    args: &Args,
    auto_note: Option<String>,
    wall_start: Instant,
) -> ExitCode {
    let options = SynthesisOptions {
        mode: if args.exact {
            CoverMode::Exact
        } else {
            CoverMode::Approximate
        },
        slice_budget: args
            .budget
            .unwrap_or(SynthesisOptions::default().slice_budget),
        workers: args.workers,
        ..SynthesisOptions::default()
    };
    let result = match synthesize_from_unfolding(stg, &options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("synthesis failed: {e}");
            return ExitCode::from(2);
        }
    };
    outln!("\nGate equations (unfolding flow):");
    for gate in &result.gates {
        outln!("  {}", gate.equation(stg));
    }
    // SlcTim/RefTim split SynTim into its initial-cover and refinement
    // portions. SlcTim is slice construction and approximation with
    // --cover approx, and the one walk over the segment plus the
    // per-signal set builds with --cover exact. Both are CPU time summed
    // over worker tasks, so with --workers > 1 they can exceed the
    // wall-clock SynTim.
    outln!("\nTiming breakdown (seconds, the paper's Table 1 columns):");
    if let Some(note) = &auto_note {
        outln!("  auto choice: {note}");
    }
    outln!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "Events",
        "UnfTim",
        "SynTim",
        "SlcTim",
        "RefTim",
        "EspTim",
        "TotTim",
        "LitCnt"
    );
    outln!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
        result.events,
        secs(result.timing.unfold),
        secs(result.timing.derive),
        secs(result.timing.slices),
        secs(result.timing.refine),
        secs(result.timing.minimize),
        secs(result.timing.total()),
        result.literal_count()
    );
    outln!(
        "{:>10} {:>10}   (end-to-end wall clock)",
        "Wall",
        secs(wall_start.elapsed())
    );
    ExitCode::SUCCESS
}
