//! Ablation A: segment size and construction time under
//! McMillan's original cutoff order versus the finer ERV-style
//! size-lexicographic order.
//!
//! Run with: `cargo run -p si-bench --release --bin ablation_orders`

use std::time::Instant;

use si_bench::secs;
use si_stg::generators::{counterflow_pipeline, muller_pipeline};
use si_stg::suite::synthesisable;
use si_stg::Stg;
use si_unfolding::{AdequateOrder, StgUnfolding, UnfoldingOptions};

fn main() {
    println!(
        "{:<24} {:>5} | {:>8} {:>8} {:>9} | {:>8} {:>8} {:>9}",
        "Benchmark", "Sigs", "McM-ev", "McM-cond", "McM-tim", "ERV-ev", "ERV-cond", "ERV-tim"
    );
    println!("{}", "-".repeat(95));
    let mut workloads: Vec<Stg> = synthesisable();
    workloads.push(muller_pipeline(10));
    workloads.push(muller_pipeline(20));
    workloads.push(counterflow_pipeline(10));
    for stg in workloads {
        let mc = build(&stg, AdequateOrder::McMillan);
        let erv = build(&stg, AdequateOrder::ErvLex);
        println!(
            "{:<24} {:>5} | {:>8} {:>8} {:>9} | {:>8} {:>8} {:>9}",
            stg.name(),
            stg.signal_count(),
            mc.0,
            mc.1,
            secs(std::time::Duration::from_secs_f64(mc.2)),
            erv.0,
            erv.1,
            secs(std::time::Duration::from_secs_f64(erv.2)),
        );
    }
}

fn build(stg: &Stg, order: AdequateOrder) -> (usize, usize, f64) {
    let start = Instant::now();
    let unf = StgUnfolding::build(
        stg,
        &UnfoldingOptions {
            order,
            ..UnfoldingOptions::default()
        },
    )
    .unwrap_or_else(|e| panic!("{} failed to unfold: {e}", stg.name()));
    (
        unf.event_count(),
        unf.condition_count(),
        start.elapsed().as_secs_f64(),
    )
}
