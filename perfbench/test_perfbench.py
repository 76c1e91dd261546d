#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

They build the benchmark on first use (as perfbench/run.py does) and run
each workload in the short profile, so the whole file takes about a
minute.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (perfbench/run.py)


def bench(*args):
    """Runs perfbench/run.py; returns (exit code, stdout lines)."""
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--profile", "short", "--seconds", "1", *args],
                       capture_output=True, text=True, cwd=ROOT, timeout=600)
    return r.returncode, r.stdout.strip().splitlines()


def short_args():
    """The run.py options measure() reads, for a short-profile run."""
    class Args:
        seconds = 1.0
        profile = "short"
        inject_violation = False
    return Args()


class SpecTest(unittest.TestCase):
    def test_printed_metrics_match_the_spec(self):
        spec = run.load_spec()
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            code, lines = bench("--workload", "udp_prio", "--seed", "1",
                                "--trace", trace)
            self.assertEqual(code, 0, "\n".join(lines[-20:]))
            result = json.loads(lines[-1])
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            wanted = {e["name"]: e["unit"] for e in spec[section]}
            self.assertEqual(printed, wanted)
            # Every metric is also printed by name with its unit.
            for name, unit in wanted.items():
                self.assertTrue(any(line.split()[:1] == [name]
                                    and line.split()[-1] == unit
                                    for line in lines[:-1]), name)


class DeterminismTest(unittest.TestCase):
    def test_short_profile_runs_repeat_exactly(self):
        args = short_args()
        binary = run.build()
        for workload in run.WORKLOADS:
            first = run.measure(binary, args, workload, 3, False)
            second = run.measure(binary, args, workload, 3, False)
            for doc in (first, second):
                _, failed, problems = run.gate(doc)
                self.assertEqual(problems, [], workload)
                self.assertEqual(failed, 0, workload)
            # Across processes too, and (cluster_lanes) at 1 and 2 threads:
            # each document's reference repetition ran on one thread.
            digests = {r["digest"] for r in first["reps"] + second["reps"]}
            self.assertEqual(len(digests), 1, workload)
            self.assertEqual({r["threads"] for r in first["reps"]},
                             {1, 2} if workload == "cluster_lanes" else {1})


class GateTest(unittest.TestCase):
    def test_injected_conservation_violation_fails_the_command(self):
        code, lines = bench("--workload", "udp_prio", "--seed", "1",
                            "--trace", "0", "--inject-violation")
        self.assertEqual(code, 1)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertTrue(any("class 0 background" in line for line in lines))

    def test_debug_or_sanitizer_timings_are_refused(self):
        for build_type, sanitizer in (("Debug", "none"),
                                      ("Release", "address")):
            with self.assertRaises(SystemExit) as exit_:
                run.refuse_unfit_build({"build_type": build_type,
                                        "sanitizer": sanitizer})
            self.assertEqual(exit_.exception.code, 3)
        run.refuse_unfit_build({"build_type": "Release", "sanitizer": "none"})


if __name__ == "__main__":
    unittest.main()
