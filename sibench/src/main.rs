//! `sibench-worker` — runs one workload of the si-synth benchmark in this
//! process and streams one JSON record per line to stdout. `run.py`
//! starts it under a memory and wall-time guard, restarts it past a job
//! that kills it, and turns the records into metrics.
//!
//! ```text
//! sibench-worker --workload NAME --seed N --seconds S --trace 0|1 [--exclude I,J,...]
//! ```
//!
//! Records, in order:
//! * `setup`: per-repetition set-up times, batch size, host CPUs, workers
//!   (and after each round, `resetup`: more set-up times);
//! * per job: `start` (before the job, so a crash names its job) then
//!   `job` (time, outcome, literals, equation fingerprint, and when traced
//!   the spans and counters);
//! * `rss`: the peak resident set after the timed rounds;
//! * per distinct spec: `verify` (oracle verdict, off the timed path);
//! * `end`.
//!
//! Rounds repeat the batch until the next would end after `--seconds`, and
//! at least the workload's fixed best-of count. Without `--trace 1` every
//! round runs untraced with one worker. With it,
//! traced and untraced rounds alternate (their difference is the tracing
//! overhead), and a last traced round runs at `min(nproc, 2)` workers so
//! the deterministic counters can be compared across worker counts.

mod exec;
mod jobs;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use si_stg::parse_g;

use crate::exec::{run_job, verify, Done, Route};
use crate::jobs::{plan, render, JobSpec, Workload};
use crate::trace::Tracer;

/// Set-up repetitions in one block. A block runs before the first round and
/// after each round; `run.py` reports the fastest set-up of the first
/// best-of-plus-one blocks. Spreading them over the run keeps a slow phase
/// of the host from deciding the figure.
const SETUP_REPS: usize = 10;

/// Traced and untraced rounds a traced run completes (each), alternating.
const TRACED_BEST_OF: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    exclude: Vec<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    let mut exclude = Vec::new();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => trace = value == "1",
            "--exclude" => {
                exclude = value
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().map_err(|_| format!("bad --exclude entry `{s}`")))
                    .collect::<Result<_, _>>()?
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        exclude,
    })
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in KiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// A batch: its jobs and their `.g` texts.
type Batch = (Vec<JobSpec>, Vec<String>);

/// Generates, renders and parse-checks the batch: the set-up a run pays
/// before its first timed job.
fn setup(workload: Workload, seed: u64) -> Result<Batch, String> {
    let jobs = plan(workload, seed);
    let texts = render(&jobs);
    for (job, text) in jobs.iter().zip(&texts) {
        let stg = parse_g(text)
            .map_err(|e| format!("{}: rendered spec does not parse: {e}", job.name()))?;
        if stg.signal_count() == 0 {
            return Err(format!("{}: rendered spec has no signals", job.name()));
        }
    }
    Ok((jobs, texts))
}

/// Runs [`setup`] [`SETUP_REPS`] times; returns the times (seconds, as a
/// JSON list body) and the last batch.
fn timed_setups(workload: Workload, seed: u64) -> Result<(String, Batch), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut batch = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        batch = Some(setup(workload, seed)?);
        times.push(format!("{:.9}", start.elapsed().as_secs_f64()));
    }
    Ok((times.join(","), batch.expect("SETUP_REPS > 0")))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    Traced,
    Wide,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Traced => "traced",
            Mode::Wide => "wide",
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("sibench-worker: {msg}");
            return ExitCode::from(2);
        }
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let wide_workers = host_cpus.min(2);

    let (setup_s, (jobs, texts)) = match timed_setups(args.workload, args.seed) {
        Ok(done) => done,
        Err(msg) => {
            eprintln!("sibench-worker: set-up failed: {msg}");
            return ExitCode::from(2);
        }
    };
    // Each job's time is its best over a fixed number of rounds of its
    // kind; traced runs alternate traced and untraced rounds.
    let best_of = if args.trace {
        TRACED_BEST_OF
    } else {
        args.workload.best_of()
    };
    let min_rounds = if args.trace { 2 * best_of } else { best_of };
    println!(
        "{{\"ev\":\"setup\",\"setup_s\":[{setup_s}],\"jobs\":{},\"host_cpus\":{host_cpus},\
         \"workers\":1,\"wide_workers\":{wide_workers},\"excluded\":{},\"best_of\":{best_of}}}",
        jobs.len(),
        args.exclude.len()
    );

    let expected = Route::expected(args.workload);
    let mut kept: BTreeMap<JobSpec, Done> = BTreeMap::new();
    let deadline = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut round = 0;
    loop {
        let mode = if args.trace && round % 2 == 0 {
            Mode::Traced
        } else {
            Mode::Plain
        };
        let round_start = Instant::now();
        run_round(&args, &jobs, &texts, round, mode, 1, expected, &mut kept);
        let last_round = round_start.elapsed();
        round += 1;
        if let Ok((setup_s, _)) = timed_setups(args.workload, args.seed) {
            println!("{{\"ev\":\"resetup\",\"setup_s\":[{setup_s}]}}");
        }
        // Start another round only if it is expected to end by the
        // deadline, once the minimum is in.
        if round >= min_rounds && start.elapsed() + last_round > deadline {
            break;
        }
    }
    if args.trace {
        run_round(
            &args,
            &jobs,
            &texts,
            round,
            Mode::Wide,
            wide_workers,
            expected,
            &mut kept,
        );
    }
    println!("{{\"ev\":\"rss\",\"kib\":{}}}", peak_rss_kib());

    for (spec, done) in &kept {
        let verdict = verify(done);
        println!(
            "{{\"ev\":\"verify\",\"name\":{},\"oracle\":\"{}\",\"ms\":{:.6},\"error\":{}}}",
            json_str(&spec.name()),
            verdict.oracle,
            verdict.ms,
            verdict.error.as_deref().map_or("null".to_owned(), json_str)
        );
    }
    println!("{{\"ev\":\"end\"}}");
    ExitCode::SUCCESS
}

/// Runs every non-excluded job of the batch once, printing a `start` and a
/// `job` record per job, and keeps the first result of each distinct spec
/// for verification.
#[allow(clippy::too_many_arguments)]
fn run_round(
    args: &Args,
    jobs: &[JobSpec],
    texts: &[String],
    round: usize,
    mode: Mode,
    workers: usize,
    expected: Route,
    kept: &mut BTreeMap<JobSpec, Done>,
) {
    for (idx, (spec, text)) in jobs.iter().zip(texts).enumerate() {
        if args.exclude.contains(&idx) {
            continue;
        }
        println!("{{\"ev\":\"start\",\"round\":{round},\"idx\":{idx}}}");
        let job_start = Instant::now();
        let mut tracer = Tracer::new(mode != Mode::Plain);
        let root = tracer.begin("harness.job", None);
        let outcome = run_job(args.workload, text, workers, &mut tracer, root);
        tracer.end(root);
        let elapsed = job_start.elapsed();

        let mut line = format!(
            "{{\"ev\":\"job\",\"round\":{round},\"mode\":\"{}\",\"idx\":{idx},\"name\":{},\
             \"ms\":{:.6}",
            mode.name(),
            json_str(&spec.name()),
            ms(elapsed)
        );
        match &outcome {
            Ok(done) => {
                let route_ok = done.route == expected;
                let _ = write!(
                    line,
                    ",\"ok\":{route_ok},\"route\":\"{}\",\"lits\":{},\"fp\":\"{:016x}\"",
                    done.route.name(),
                    done.literals(),
                    done.fingerprint()
                );
                if !route_ok {
                    let _ = write!(
                        line,
                        ",\"layer\":\"core\",\"error\":{}",
                        json_str(&format!(
                            "route {} instead of {}",
                            done.route.name(),
                            expected.name()
                        ))
                    );
                }
            }
            Err(e) => {
                let _ = write!(
                    line,
                    ",\"ok\":false,\"layer\":\"{}\",\"error\":{}",
                    e.layer,
                    json_str(&e.message)
                );
            }
        }
        if tracer.enabled() {
            let _ = write!(
                line,
                ",\"counters\":{},\"spans\":{}",
                tracer.counters_json(),
                tracer.spans_json()
            );
        }
        line.push('}');
        println!("{line}");
        if let Ok(done) = outcome {
            kept.entry(*spec).or_insert(done);
        }
    }
}
