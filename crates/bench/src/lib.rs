//! # si-bench — benchmark harness for the reproduced experiments
//!
//! Shared measurement helpers for the binaries that regenerate the paper's
//! evaluation:
//!
//! * `table1` — per-benchmark breakdown (signals, UnfTim, SynTim, EspTim,
//!   TotTim, LitCnt) for the unfolding flow vs the SG-based baseline;
//! * `fig6` — synthesis time vs signal count on Muller pipelines plus the
//!   counterflow-pipeline data point;
//! * `ablation_exact_vs_approx` — exact cut enumeration vs the approximate
//!   + refinement flow (design-choice ablation);
//! * `ablation_orders` — McMillan vs ERV cutoff orders (segment sizes).
//!
//! Criterion micro-benchmarks live under `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use si_stategraph::{
    synthesize_from_built_sg, synthesize_from_sg, SgEngine, SgSynthesisOptions, StateGraph,
};
use si_stg::Stg;
use si_synthesis::{synthesize_from_unfolding, CoverMode, SynthesisOptions};

/// One measured row of Table 1.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Benchmark name.
    pub name: String,
    /// Number of signals.
    pub signals: usize,
    /// Unfolding construction time.
    pub unf_time: Duration,
    /// Cover derivation time.
    pub syn_time: Duration,
    /// Minimisation time.
    pub esp_time: Duration,
    /// Literal count of the unfolding-based implementation.
    pub literals: usize,
    /// Segment size (events).
    pub events: usize,
    /// SG-baseline total time (`None` when the baseline blew its budget).
    pub baseline_time: Option<Duration>,
    /// SG-baseline literal count.
    pub baseline_literals: Option<usize>,
    /// Reachable state count of the SG baseline.
    pub states: Option<usize>,
    /// Symbolic-engine SG total time (`None` when the node budget blew).
    /// Gate equations are byte-identical to the explicit baseline's, so no
    /// separate literal column is needed.
    pub symbolic_time: Option<Duration>,
}

impl TableRow {
    /// Total unfolding-flow time (the paper's `TotTim`).
    pub fn total_time(&self) -> Duration {
        self.unf_time + self.syn_time + self.esp_time
    }
}

/// Measures one benchmark with the unfolding flow (given `mode`) and the
/// SG-based baseline.
///
/// # Panics
///
/// Panics if the unfolding flow fails — every suite entry is expected to be
/// synthesisable.
pub fn measure(stg: &Stg, mode: CoverMode, state_budget: usize) -> TableRow {
    let options = SynthesisOptions {
        mode,
        ..SynthesisOptions::default()
    };
    let result = synthesize_from_unfolding(stg, &options)
        .unwrap_or_else(|e| panic!("{} failed to synthesise: {e}", stg.name()));

    // The baseline's state graph is built once: timed together with
    // synthesis, then read for the state-count column.
    let start = Instant::now();
    let (baseline, states) = match StateGraph::build(stg, state_budget) {
        Ok(sg) => (
            synthesize_from_built_sg(stg, &sg, &SgSynthesisOptions::default()),
            Some(sg.len()),
        ),
        Err(e) => (Err(e), None),
    };
    let baseline_time = start.elapsed();

    let start = Instant::now();
    let symbolic = synthesize_from_sg(
        stg,
        &SgSynthesisOptions {
            engine: SgEngine::Symbolic,
            ..SgSynthesisOptions::default()
        },
    );
    let symbolic_time = symbolic.is_ok().then(|| start.elapsed());
    if let (Ok(a), Ok(b)) = (&baseline, &symbolic) {
        assert_eq!(
            a.literal_count(),
            b.literal_count(),
            "{}: engines disagree on literal count",
            stg.name()
        );
    }

    TableRow {
        name: stg.name().to_owned(),
        signals: stg.signal_count(),
        unf_time: result.timing.unfold,
        syn_time: result.timing.derive,
        esp_time: result.timing.minimize,
        literals: result.literal_count(),
        events: result.events,
        baseline_time: baseline.as_ref().ok().map(|_| baseline_time),
        baseline_literals: baseline.ok().map(|b| b.literal_count()),
        states,
        symbolic_time,
    }
}

/// Formats a duration in seconds with three decimals, like the paper's
/// tables.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats an optional duration, printing `-` for absent values.
pub fn secs_opt(d: Option<Duration>) -> String {
    d.map(secs).unwrap_or_else(|| "-".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_stg::suite::paper_fig1;

    #[test]
    fn measure_produces_consistent_row() {
        let stg = paper_fig1();
        let row = measure(&stg, CoverMode::Approximate, 100_000);
        assert_eq!(row.signals, 3);
        assert_eq!(row.literals, 2);
        assert_eq!(row.baseline_literals, Some(2));
        assert_eq!(row.states, Some(8));
        assert!(row.symbolic_time.is_some());
        assert!(row.total_time() >= row.unf_time);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.500");
        assert_eq!(secs_opt(None), "-");
    }
}
