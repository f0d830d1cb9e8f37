"""Self-test of the benchmark harness, at toy size.

    python3 perfbench/selftest.py

Checks that each workload, untraced and traced, emits exactly the metrics
BENCHMARK.json names; that a wrong reference hash and an escaped exception
each count as one failed job without ending the pass; and that the
benchmark refuses to run without the program's source.
"""

import contextlib
import json
import shutil
import subprocess
import sys
import unittest

import run
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 3


class HarnessTest(unittest.TestCase):
    def test_every_named_metric_is_emitted(self):
        names = {False: {m["name"] for m in BENCH["end_to_end"]},
                 True: {m["name"] for m in BENCH["per_layer"]}}
        self.assertEqual(names[True], set(workloads.PER_LAYER))
        self.assertEqual({w["name"] for w in BENCH["workloads"]}, set(workloads.WHY))
        for name in workloads.WHY:
            jobs = workloads.plan(name, SEED, toy=True)
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    result = run.measure(jobs, 0, trace)
                    self.assertEqual(set(result["metrics"]), names[trace])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)

    def test_wrong_reference_hash_fails_the_job(self):
        jobs = workloads.plan("spectra", SEED, toy=True)
        reference = json.loads(run.REFERENCE.read_text())
        reference[workloads.key(jobs[0]["argv"])] = "0" * 64
        result = run.measure(jobs, 0, False, reference)
        self.assertEqual((result["attempted"], result["failed"]), (len(jobs), 1))
        self.assertFalse(result["correct"])

    def test_escaped_exception_fails_one_job_and_the_pass_goes_on(self):
        # Fraction("1/0") escapes cli.main as ZeroDivisionError at the
        # commit this test was written against.
        bad = {"argv": ["zeta", "--group", "A1:cosets[1/0]", "--max-dim", "5"],
               "cache": False}
        jobs = [bad] + workloads.plan("spectra", SEED, toy=True)
        result = run.measure(jobs, 0, False)
        self.assertEqual((result["attempted"], result["failed"]), (len(jobs), 1))
        self.assertIn("wall_s", result["metrics"])

    def test_refuses_to_run_without_the_source(self):
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(run.HERE, bare / run.HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, f"{run.HERE.name}/run.py", "--workload", "ledger",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


def tearDownModule():
    with contextlib.suppress(OSError):
        run.WORK.rmdir()


if __name__ == "__main__":
    unittest.main()
