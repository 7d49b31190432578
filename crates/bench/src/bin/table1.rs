//! Regenerates the paper's **Table 1**: per-benchmark synthesis breakdown
//! for the unfolding-based flow ("PUNT ACG") against the SG-based baseline
//! standing in for Petrify/SIS.
//!
//! Run with: `cargo run -p si-bench --release --bin table1`

use std::time::Duration;

use si_bench::{measure, secs, secs_opt};
use si_stg::suite::synthesisable;
use si_synthesis::CoverMode;

fn main() {
    println!(
        "{:<24} {:>5} | {:>8} {:>8} {:>8} {:>8} {:>7} | {:>9} {:>7} {:>8} {:>8}",
        "Benchmark",
        "Sigs",
        "UnfTim",
        "SynTim",
        "EspTim",
        "TotTim",
        "LitCnt",
        "SG-Tim",
        "SG-Lit",
        "States",
        "SymTim"
    );
    println!("{}", "-".repeat(121));

    let mut totals = Totals::default();
    for stg in synthesisable() {
        let row = measure(&stg, CoverMode::Approximate, 2_000_000);
        println!(
            "{:<24} {:>5} | {:>8} {:>8} {:>8} {:>8} {:>7} | {:>9} {:>7} {:>8} {:>8}",
            row.name,
            row.signals,
            secs(row.unf_time),
            secs(row.syn_time),
            secs(row.esp_time),
            secs(row.total_time()),
            row.literals,
            secs_opt(row.baseline_time),
            row.baseline_literals
                .map(|l| l.to_string())
                .unwrap_or_else(|| "-".into()),
            row.states
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into()),
            secs_opt(row.symbolic_time),
        );
        totals.add(&row);
    }

    println!("{}", "-".repeat(121));
    println!(
        "{:<24} {:>5} | {:>8} {:>8} {:>8} {:>8} {:>7} | {:>9} {:>7}",
        "Total",
        totals.signals,
        secs(totals.unf),
        secs(totals.syn),
        secs(totals.esp),
        secs(totals.unf + totals.syn + totals.esp),
        totals.literals,
        secs(totals.baseline),
        totals.baseline_literals,
    );
    println!(
        "\nShape check vs the paper: literal counts match the SG-exact baseline \
         on {}/{} benchmarks; README, \"The unfolding flow\", says why they can differ.",
        totals.matching, totals.rows
    );
}

#[derive(Default)]
struct Totals {
    signals: usize,
    unf: Duration,
    syn: Duration,
    esp: Duration,
    literals: usize,
    baseline: Duration,
    baseline_literals: usize,
    matching: usize,
    rows: usize,
}

impl Totals {
    fn add(&mut self, row: &si_bench::TableRow) {
        self.signals += row.signals;
        self.unf += row.unf_time;
        self.syn += row.syn_time;
        self.esp += row.esp_time;
        self.literals += row.literals;
        self.baseline += row.baseline_time.unwrap_or_default();
        self.baseline_literals += row.baseline_literals.unwrap_or_default();
        self.rows += 1;
        if row.baseline_literals == Some(row.literals) {
            self.matching += 1;
        }
    }
}
