//! Ablation B: the paper's central design choice —
//! approximate covers refined on demand versus exact enumeration of every
//! reachable cut (one walk over the segment). Reports time and literal
//! count for both modes over the suite and over workloads with growing
//! concurrency, where exact enumeration blows up.
//!
//! Run with: `cargo run -p si-bench --release --bin ablation_exact_vs_approx`

use std::time::Instant;

use si_bench::secs;
use si_stg::generators::independent_cycles;
use si_stg::suite::synthesisable;
use si_stg::Stg;
use si_synthesis::{synthesize_from_unfolding, CoverMode, SynthesisOptions};

fn main() {
    println!(
        "{:<24} {:>5} | {:>10} {:>8} | {:>10} {:>8}",
        "Benchmark", "Sigs", "ApproxTim", "ApxLit", "ExactTim", "ExLit"
    );
    println!("{}", "-".repeat(78));
    for stg in synthesisable() {
        row(&stg, 2_000_000);
    }
    println!("{}", "-".repeat(78));
    println!("Concurrency stress (k independent loops; exact explodes as 2^k,");
    println!("blowing a 5000-marking exact budget by k = 14):");
    for k in [8, 10, 12, 14] {
        row(&independent_cycles(k), 5_000);
    }
}

fn row(stg: &Stg, slice_budget: usize) {
    let approx = run(stg, CoverMode::Approximate, slice_budget);
    let exact = run(stg, CoverMode::Exact, slice_budget);
    let fmt = |r: &Option<(f64, usize)>, what: fn(&(f64, usize)) -> String| {
        r.as_ref().map(what).unwrap_or_else(|| "blow-up".into())
    };
    println!(
        "{:<24} {:>5} | {:>10} {:>8} | {:>10} {:>8}",
        stg.name(),
        stg.signal_count(),
        fmt(&approx, |r| secs(std::time::Duration::from_secs_f64(r.0))),
        fmt(&approx, |r| r.1.to_string()),
        fmt(&exact, |r| secs(std::time::Duration::from_secs_f64(r.0))),
        fmt(&exact, |r| r.1.to_string()),
    );
}

fn run(stg: &Stg, mode: CoverMode, slice_budget: usize) -> Option<(f64, usize)> {
    let options = SynthesisOptions {
        mode,
        slice_budget,
        ..SynthesisOptions::default()
    };
    let start = Instant::now();
    synthesize_from_unfolding(stg, &options)
        .ok()
        .map(|r| (start.elapsed().as_secs_f64(), r.literal_count()))
}
