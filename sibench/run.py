#!/usr/bin/env python3
"""si-synth benchmark: seeded batches of synthesis jobs, one workload per run.

    python3 sibench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 sibench/run.py --workload all [--seed N --seconds S --trace 0|1]

Run from the repository root. The script builds the worker package in
`sibench/` (into `$CARGO_TARGET_DIR`, default `.bench_build`), runs the
workload in a child process under a memory and wall-time guard, and prints
one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
with `--trace 1` its per-layer metrics. `--workload all` runs every workload
and also prints one table row per workload. NOTES.md explains the
workloads and metrics.
"""

import argparse
import json
import math
import os
import re
import resource
import select
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# The tail percentile job_tail_ms reports: every batch has at least 40
# jobs, which keeps ten jobs beyond it.
TAIL_PERCENTILE = 75
MEMORY_LIMIT_BYTES = 4 << 30  # address-space cap of the worker
# glibc raises its mmap threshold each time a mapped block is freed, so how
# much freed memory stays resident depends on which jobs ran before. A fixed
# threshold returns large blocks on free, so peak_rss_mb tracks the jobs'
# own data rather than allocator history.
WORKER_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}
IDLE_GUARD_S = 60.0  # a worker silent this long is hung
WALL_GUARD_S = 150.0  # whole-run cap, below the 180 s exit deadline
MAX_ATTEMPTS = 4  # worker launches per run (one per killed job, plus one)

METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

# Counters that must repeat exactly across rounds and worker counts.
PINNED = (
    "petri.states",
    "stategraph.states",
    "unfolding.events",
    "unfolding.conditions",
    "petri.reach_steps",
    "bdd.ite_ops",
    "bdd.exists_ops",
    "bdd.and_exists_ops",
    "core.refine_steps",
    "core.exact_fallbacks",
)
# Counters reported as the batch maximum (sizes), not the batch sum.
PEAKS = (
    "bdd.peak_pool_nodes",
    "bdd.final_reach_nodes",
    "bdd.sched_peak_pool_nodes",
)
LAYERS = ("stg", "petri", "bdd", "stategraph", "unfolding", "core", "cubes")
# The layer a wrong gate is charged to, by the route that produced it.
PRODUCER = {
    "unfolding_approx": "core",
    "unfolding_exact": "core",
    "sg_symbolic": "stategraph",
    "sg_explicit": "stategraph",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


# --------------------------------------------------------------- statistics


def percentile(values, p):
    """Linear interpolation between closest ranks (NumPy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def jobs_beyond(n, p):
    """Samples strictly above the p-th percentile rank of n samples."""
    return n - math.ceil(n * p / 100.0)


def tail_percentile(n, ladder=(50, 75, 90, 95, 99, 99.9)):
    """The highest percentile of `ladder` with at least ten samples beyond
    it, or None when even the lowest has fewer."""
    best = None
    for p in ladder:
        if jobs_beyond(n, p) >= 10:
            best = p
    return best


def self_times(spans):
    """Self time of each span: its duration minus its children's, each
    child clipped to the parent's interval.

    `spans` rows are `[name, parent, start, end]` with parent -1 at the top
    level. Siblings never overlap: measured spans run one after another and
    program-reported ones are laid end to end. A reported child can reach
    past its parent's end (a CPU time summed over workers), hence the clip.
    Returns one value per span, in the input's units.
    """
    covered = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            _, _, p_start, p_end = spans[parent]
            covered[parent] += max(0.0, min(end, p_end) - max(start, p_start))
    return [max(0.0, (end - start) - c) for (_, _, start, end), c in zip(spans, covered)]


# ------------------------------------------------------------------ building


def build():
    """Builds the worker; returns its path, or None when the build fails."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log(f"cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log("building the benchmark worker failed")
        return None
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "sibench-worker")


# --------------------------------------------------------------- containment


def _confine(pin):
    """The worker's pre-exec hook: cap its address space and, when `pin`,
    bind it to one CPU. A single-threaded job that migrates between CPUs
    loses its caches and, on a shared host, lands on CPUs of unequal speed;
    pinning removes both from the timings. Traced runs stay unpinned
    because their last round compares worker counts."""

    def hook():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))
        if pin:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    return hook


def run_child(cmd, idle_guard, deadline, pin=False):
    """Runs one worker, collecting its JSON records until it exits, stays
    silent for `idle_guard` seconds, or passes the monotonic `deadline`.

    Returns `(records, status, inflight, peak_kib)`: status is "ok",
    "crashed" or "hung"; `inflight` is the job index the worker had started
    but not finished when it stopped (None if none).
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, preexec_fn=_confine(pin),
                            env={**os.environ, **WORKER_ENV})
    fd = proc.stdout.fileno()
    records, buf, inflight, status = [], b"", None, None
    last = time.monotonic()
    while status is None:
        now = time.monotonic()
        wait = min(idle_guard - (now - last), deadline - now)
        if wait <= 0:
            status = "hung"
            break
        ready, _, _ = select.select([fd], [], [], wait)
        if not ready:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        last = time.monotonic()
        buf += chunk
        *lines, buf = buf.split(b"\n")
        for line in lines:
            if not line.strip():
                continue
            rec = json.loads(line)
            records.append(rec)
            if rec["ev"] == "start":
                inflight = rec["idx"]
            elif rec["ev"] == "job":
                inflight = None
    if status == "hung":
        proc.kill()
    _, wstatus, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(wstatus)
    proc.stdout.close()
    ended = bool(records) and records[-1]["ev"] == "end"
    if status is None:
        status = "ok" if proc.returncode == 0 and ended else "crashed"
    return records, status, inflight, usage.ru_maxrss


def run_contained(worker_cmd, workload, seed, seconds, trace,
                  idle_guard=IDLE_GUARD_S, wall_guard=WALL_GUARD_S):
    """Runs a workload to completion, restarting the worker past any job
    that kills or hangs it. Returns `(records, killed, peak_kib)`: the
    records of the last worker, and `(idx, status)` per killed job."""
    start = time.monotonic()
    deadline = start + wall_guard
    killed, records, peak = [], [], 0
    for _ in range(MAX_ATTEMPTS):
        left = seconds - (time.monotonic() - start)
        cmd = worker_cmd + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", f"{max(left, 1.0):.3f}", "--trace", "1" if trace else "0",
        ]
        if killed:
            cmd += ["--exclude", ",".join(str(i) for i, _ in killed)]
        records, status, inflight, peak = run_child(cmd, idle_guard, deadline, pin=not trace)
        if status == "ok":
            break
        log(f"{workload}: worker {status} (job {inflight})")
        if inflight is None or time.monotonic() >= deadline:
            killed.append((-1, status))
            break
        killed.append((inflight, status))
    return records, killed, peak


# --------------------------------------------------------------- aggregation


def _complete_rounds(jobs, batch, mode):
    rounds = defaultdict(list)
    for j in jobs:
        if j["mode"] == mode:
            rounds[j["round"]].append(j)
    return [rs for _, rs in sorted(rounds.items()) if len(rs) == batch]


def setup_time(blocks):
    """The fastest set-up over the given blocks.

    A set-up takes milliseconds, so any one of them, and any one block of
    them, can fall inside a slow phase of the shared host; the fastest of
    blocks spread across the run mostly does not. The caller passes a
    fixed number of blocks, as `best_times` gets a fixed number of rounds."""
    return min(t for b in blocks for t in b)


def best_times(rounds):
    """Each batch job's fastest time over the rounds, in batch order.

    On a shared host, neighbours slow a run down in phases of seconds. A
    job that runs once per round gets a chance in each round to miss them,
    so its best time is a far steadier estimate of its cost than any one
    run, or a median over runs that a long slow phase can cover. The
    caller passes a fixed number of rounds, so a slower build does not get
    fewer samples to take the best of."""
    best = {}
    for rs in rounds:
        for j in rs:
            best[j["idx"]] = min(best.get(j["idx"], math.inf), j["ms"])
    return [best[i] for i in sorted(best)]


def _trace_round(round_jobs):
    """Per-round sums of span times, self times and counters."""
    times, counters = defaultdict(float), defaultdict(float)
    for j in round_jobs:
        spans = j.get("spans", [])
        has_children = {s[1] for s in spans if s[1] >= 0}
        for i, (span, own) in enumerate(zip(spans, self_times(spans))):
            times[span[0] + "_ms"] += (span[3] - span[2]) / 1e3
            if i in has_children:
                times[span[0] + "_self_ms"] += own / 1e3
        for name, value in j.get("counters", {}).items():
            if name in PEAKS:
                counters[name] = max(counters[name], value)
            else:
                counters[name] += value
    return times, counters


def aggregate(records, killed, peak_kib, trace, spec):
    """Turns worker records into the result object."""
    problems = []
    setup = next((r for r in records if r["ev"] == "setup"), None)
    jobs = [r for r in records if r["ev"] == "job"]
    verdicts = {r["name"]: r for r in records if r["ev"] == "verify"}
    failed_jobs = set()
    layer_errors = defaultdict(int)

    # Outcome, route and verification per execution.
    for k, j in enumerate(jobs):
        if not j["ok"]:
            failed_jobs.add(k)
            layer_errors[j.get("layer", "core")] += 1
            continue
        verdict = verdicts.get(j["name"])
        if verdict is None or verdict["error"] is not None:
            failed_jobs.add(k)
            layer_errors[PRODUCER[j["route"]]] += 1

    # Determinism: equations and literals per spec, and the pinned counters
    # per spec across rounds and worker counts.
    first = {}
    for k, j in enumerate(jobs):
        if not j["ok"]:
            continue
        key = (j["lits"], j["fp"])
        pinned = tuple(j.get("counters", {}).get(c) for c in PINNED)
        ref = first.setdefault(j["name"], {"out": key, "pinned": {}})
        ok = ref["out"] == key
        if "counters" in j:
            ok = ok and ref["pinned"].setdefault("v", pinned) == pinned
        if not ok:
            failed_jobs.add(k)
            problems.append(f"{j['name']} is not deterministic (round {j['round']}, {j['mode']})")

    attempted = len(jobs) + len(killed)
    failed = len(failed_jobs) + len(killed)
    values = {}
    batch, best_of = 0, 1
    if setup is not None:
        batch = setup["jobs"] - setup["excluded"]
        best_of = setup["best_of"]
        blocks = [r["setup_s"] for r in records if r["ev"] in ("setup", "resetup")]
        values["setup_s"] = setup_time(blocks[:best_of + 1])
    plain = _complete_rounds(jobs, batch, "plain")[:best_of]
    if len(plain) < best_of:
        problems.append(f"{len(plain)} complete untraced rounds, not {best_of}")
    if plain:
        best = best_times(plain)
        values["synth_s"] = sum(best) / 1e3
        values["job_p50_ms"] = percentile(best, 50)
        values["job_tail_ms"] = percentile(best, TAIL_PERCENTILE)
        values["literals"] = sum(j.get("lits", 0) for j in plain[0])
        if (tail_percentile(len(best)) or 0) < TAIL_PERCENTILE:
            problems.append(f"only {len(best)} jobs: fewer than ten beyond p{TAIL_PERCENTILE}")
    rss = next((r["kib"] for r in records if r["ev"] == "rss"), 0) or peak_kib
    values["peak_rss_mb"] = rss / 1024.0

    if trace:
        traced = _complete_rounds(jobs, batch, "traced")[:best_of]
        wide = [j for j in jobs if j["mode"] == "wide"]
        if len(traced) < best_of:
            problems.append(f"{len(traced)} complete traced rounds, not {best_of}")
        if traced:
            per_round = [_trace_round(rs) for rs in traced]
            names = set().union(*(t.keys() for t, _ in per_round))
            for name in names:
                values[name] = statistics.median(t.get(name, 0.0) for t, _ in per_round)
            values.update(per_round[0][1])
            c = per_round[0][1]
            refined = c.get("core.refined_signals", 0.0)
            values["core.fallbacks_per_signal"] = (
                c.get("core.exact_fallbacks", 0.0) / refined if refined else 0.0
            )
            if "synth_s" in values:
                traced_ms = sum(best_times(traced))
                values["trace.overhead_ms"] = traced_ms - values["synth_s"] * 1e3
        values["core.verify_ms"] = sum(v["ms"] for v in verdicts.values())
        for layer in LAYERS:
            values[f"{layer}.errors"] = float(layer_errors.get(layer, 0))
        if setup is not None:
            values["run.host_cpus"] = float(setup["host_cpus"])
            values["run.workers"] = float(setup["workers"])
            values["run.wide_workers"] = float(setup["wide_workers"])
            values["run.batch_jobs"] = float(batch)
        if not wide:
            problems.append("no wide-worker round")

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        # Span and counter metrics a workload never touches read 0.
        value = values.get(m["name"], 0.0 if trace else None)
        if value is None:
            problems.append(f"metric {m['name']} not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for p in problems:
        log(f"problem: {p}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, values


# ---------------------------------------------------------------------- main


def table(rows):
    head = ("workload", "setup_s[s]", "synth_s[s]", "job_p50_ms[ms]",
            f"job_tail_ms[ms,p{TAIL_PERCENTILE}]", "literals[count]",
            "peak_rss_mb[MB]", "fail_frac[ratio]", "jobs")
    out = ["  ".join(f"{h:>16}" for h in head)]
    for name, result, values in rows:
        cells = [name]
        for key in ("setup_s", "synth_s", "job_p50_ms", "job_tail_ms", "literals", "peak_rss_mb"):
            v = values.get(key)
            cells.append("-" if v is None else f"{v:.4f}")
        cells.append(f"{result['failed'] / max(result['attempted'], 1):.4f}")
        cells.append(str(result["attempted"]))
        out.append("  ".join(f"{c:>16}" for c in cells))
    return "\n".join(out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        log(f"unknown workload {args.workload!r}; expected one of {names} or all")
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    worker = build()
    if worker is None:
        return 1
    rows = []
    for workload in workloads:
        records, killed, peak = run_contained([worker], workload, args.seed, seconds, bool(args.trace))
        result, values = aggregate(records, killed, peak, bool(args.trace), spec)
        rows.append((workload, result, values))
        if len(workloads) > 1:
            print(json.dumps({"workload": workload, **result}), flush=True)
    if len(workloads) > 1:
        print(table(rows), flush=True)
        return 0
    print(json.dumps(rows[0][1]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
