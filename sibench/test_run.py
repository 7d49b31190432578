"""Tests for the benchmark's own logic (statistics, spans, metric names,
failure accounting and containment). They need no build:

    python3 -m unittest discover -s sibench -p 'test_*.py'

The job-list tests live with the worker: `cargo test --manifest-path
sibench/Cargo.toml`.
"""

import os
import sys
import textwrap
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def job(idx, name, ms, rnd=0, mode="plain", lits=10, fp="aa", counters=None, ok=True, **extra):
    rec = {"ev": "job", "round": rnd, "mode": mode, "idx": idx, "name": name, "ms": ms, "ok": ok}
    if ok:
        rec.update(route="unfolding_approx", lits=lits, fp=fp)
    if counters is not None:
        rec["counters"] = counters
        rec["spans"] = [["harness.job", -1, 0.0, ms * 1e3], ["stg.parse", 0, 0.0, 100.0]]
    rec.update(extra)
    return rec


BATCH = 40
NAMES = [f"s_{i}" for i in range(BATCH)]


def records(jobs, verify_error=None, best_of=3):
    out = [{"ev": "setup", "setup_s": [0.003, 0.002, 0.004], "jobs": BATCH, "host_cpus": 2,
            "workers": 1, "wide_workers": 2, "excluded": 0, "best_of": best_of}]
    out += jobs
    out.append({"ev": "rss", "kib": 2048})
    for n in NAMES:
        out.append({"ev": "verify", "name": n, "oracle": "explicit", "ms": 1.5,
                    "error": verify_error if n == NAMES[0] else None})
    out.append({"ev": "end"})
    return out


def batch(rounds=3, mode="plain", first_round=0, counters=None):
    """`rounds` rounds of a 40-job batch; job i takes 10 + i ms, plus the
    round number, and has 1 + i % 3 literals."""
    return [job(i, NAMES[i], 10.0 + i + r, rnd=first_round + r, mode=mode,
                lits=1 + i % 3, counters=counters)
            for r in range(rounds) for i in range(BATCH)]


class Statistics(unittest.TestCase):
    def test_tail_rule_keeps_ten_jobs_beyond(self):
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50)
        self.assertEqual(run.tail_percentile(99), 75)
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(199), 90)
        self.assertEqual(run.tail_percentile(200), 95)
        self.assertEqual(run.tail_percentile(1000), 99)
        for n in range(20, 3000, 7):
            p = run.tail_percentile(n)
            self.assertGreaterEqual(run.jobs_beyond(n, p), 10, n)

    def test_percentile_interpolates(self):
        self.assertEqual(run.percentile([3, 1, 2], 50), 2)
        self.assertAlmostEqual(run.percentile([0, 10], 90), 9.0)
        self.assertEqual(run.percentile([7], 90), 7)


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(run.self_times([["a", -1, 5.0, 9.0]]), [4.0])

    def test_children_are_subtracted(self):
        spans = [["job", -1, 0.0, 100.0], ["x", 0, 10.0, 30.0], ["y", 0, 40.0, 45.0]]
        self.assertEqual(run.self_times(spans), [75.0, 20.0, 5.0])

    def test_children_are_clipped_to_the_parent(self):
        spans = [["p", -1, 10.0, 20.0], ["c", 0, 10.0, 25.0]]
        self.assertEqual(run.self_times(spans)[0], 0.0)
        spans = [["p", -1, 10.0, 20.0], ["c", 0, 0.0, 15.0]]
        self.assertEqual(run.self_times(spans)[0], 5.0)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [["job", -1, 0.0, 100.0], ["synth", 0, 0.0, 60.0],
                 ["derive", 1, 0.0, 40.0], ["slices", 2, 0.0, 30.0]]
        self.assertEqual(run.self_times(spans), [40.0, 20.0, 10.0, 30.0])


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_declared_names_are_well_formed_and_unique(self):
        names = [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        names += [w["name"] for w in self.spec["workloads"]]
        for name in names:
            self.assertRegex(name, run.METRIC_NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_emitted_names_match_the_declaration(self):
        result, _ = run.aggregate(records(batch()), [], 0, False, self.spec)
        self.assertTrue(result["correct"], result)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in self.spec["end_to_end"]])
        counters = {"unfolding.events": 3, "petri.states": 4}
        jobs = batch(rounds=2) + batch(rounds=2, mode="traced", first_round=10, counters=counters)
        jobs += batch(rounds=1, mode="wide", first_round=20, counters=counters)
        result, _ = run.aggregate(records(jobs, best_of=2), [], 0, True, self.spec)
        self.assertTrue(result["correct"], result)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in self.spec["per_layer"]])
        for name in result["metrics"]:
            self.assertRegex(name, run.METRIC_NAME)
        self.assertEqual(result["metrics"]["unfolding.events"]["value"], 3 * BATCH)


class Failures(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def aggregate(self, recs, killed=()):
        return run.aggregate(recs, list(killed), 0, False, self.spec)[0]

    def test_clean_batch_is_correct(self):
        result = self.aggregate(records(batch()))
        self.assertEqual((result["correct"], result["attempted"], result["failed"]), (True, 120, 0))
        m = {k: v["value"] for k, v in result["metrics"].items()}
        # Each job's best time is its round-0 time, 10 + i ms.
        self.assertAlmostEqual(m["synth_s"], sum(10.0 + i for i in range(BATCH)) / 1e3)
        self.assertAlmostEqual(m["job_p50_ms"], 29.5)
        self.assertAlmostEqual(m["job_tail_ms"], 39.25)
        self.assertEqual(m["literals"], sum(1 + i % 3 for i in range(BATCH)))

    def test_best_time_ignores_a_slow_round(self):
        jobs = batch()
        for j in jobs[BATCH:2 * BATCH]:
            j["ms"] *= 3
        result = self.aggregate(records(jobs))
        self.assertAlmostEqual(result["metrics"]["job_p50_ms"]["value"], 29.5)

    def test_best_time_uses_only_the_first_best_of_rounds(self):
        jobs = batch(rounds=4)
        for j in jobs[3 * BATCH:]:
            j["ms"] = 1.0
        result = self.aggregate(records(jobs))
        self.assertAlmostEqual(result["metrics"]["job_p50_ms"]["value"], 29.5)
        self.assertEqual(result["attempted"], 4 * BATCH)

    def test_too_few_rounds_is_not_correct(self):
        self.assertFalse(self.aggregate(records(batch(rounds=2)))["correct"])

    def test_setup_time_is_the_fastest_of_the_first_blocks(self):
        recs = records(batch())
        recs[1:1] = [{"ev": "resetup", "setup_s": s} for s in
                     ([0.009, 0.0015], [0.005, 0.004], [0.007, 0.006], [0.001])]
        # Only blocks 0..3 (best_of + 1 of them) count.
        self.assertAlmostEqual(self.aggregate(recs)["metrics"]["setup_s"]["value"], 0.0015)

    def test_a_small_batch_breaks_the_tail_rule(self):
        jobs = [j for j in batch() if j["idx"] < 39]
        recs = records(jobs)
        recs[0]["jobs"] = 39
        self.assertFalse(self.aggregate(recs)["correct"])

    def test_error_wrong_route_and_bad_gates_count_as_failed(self):
        jobs = batch()
        jobs[0] = job(0, NAMES[0], 10.0, ok=False, layer="core", error="route")
        self.assertEqual(self.aggregate(records(jobs))["failed"], 1)
        result = self.aggregate(records(batch(), verify_error="mismatch"))
        self.assertEqual(result["failed"], 3)
        self.assertFalse(result["correct"])

    def test_nondeterministic_output_counts_as_failed(self):
        jobs = batch()
        jobs[BATCH]["lits"] += 1
        self.assertEqual(self.aggregate(records(jobs))["failed"], 1)

    def test_pinned_counter_drift_counts_as_failed(self):
        jobs = batch()
        jobs += [job(0, NAMES[0], 10.0, rnd=7, mode="traced", lits=1, counters={"bdd.ite_ops": 5}),
                 job(0, NAMES[0], 10.0, rnd=8, mode="wide", lits=1, counters={"bdd.ite_ops": 6})]
        self.assertEqual(self.aggregate(records(jobs))["failed"], 1)

    def test_killed_jobs_count_as_attempted_and_failed(self):
        result = self.aggregate(records(batch()), killed=[(4, "crashed")])
        self.assertEqual((result["attempted"], result["failed"], result["correct"]), (121, 1, False))


FAKE_WORKER = textwrap.dedent("""
    import json, os, sys, time
    args = sys.argv[1:]
    exclude = []
    if "--exclude" in args:
        exclude = [int(i) for i in args[args.index("--exclude") + 1].split(",")]
    def emit(**rec):
        print(json.dumps(rec), flush=True)
    emit(ev="setup", setup_s=[0.001], jobs=3, host_cpus=1, workers=1, wide_workers=1,
         excluded=len(exclude), best_of=1)
    for idx in range(3):
        if idx in exclude:
            continue
        emit(ev="start", round=0, idx=idx)
        if idx == 1 and MODE == "abort":
            os.abort()
        if idx == 1 and MODE == "hang":
            time.sleep(30)
        emit(ev="job", round=0, mode="plain", idx=idx, name=f"j_{idx}", ms=1.0, ok=True,
             route="sg_explicit", lits=1, fp="00")
    emit(ev="rss", kib=100)
    emit(ev="end")
""")


class Containment(unittest.TestCase):
    def fake(self, mode):
        return [sys.executable, "-c", f"MODE = {mode!r}\n" + FAKE_WORKER]

    def test_an_aborting_job_is_counted_and_skipped(self):
        recs, killed, _ = run.run_contained(self.fake("abort"), "w", 1, 1.0, False)
        self.assertEqual(killed, [(1, "crashed")])
        self.assertEqual([r["idx"] for r in recs if r["ev"] == "job"], [0, 2])
        self.assertEqual(recs[-1]["ev"], "end")

    def test_a_hanging_job_is_killed_and_skipped(self):
        recs, killed, _ = run.run_contained(self.fake("hang"), "w", 1, 1.0, False, idle_guard=0.5)
        self.assertEqual(killed, [(1, "hung")])
        self.assertEqual(recs[-1]["ev"], "end")

    def test_a_clean_worker_runs_once(self):
        recs, killed, _ = run.run_contained(self.fake("ok"), "w", 1, 1.0, False)
        self.assertEqual(killed, [])
        self.assertEqual([r["idx"] for r in recs if r["ev"] == "job"], [0, 1, 2])


if __name__ == "__main__":
    unittest.main()
