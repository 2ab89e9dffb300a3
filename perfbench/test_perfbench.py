#!/usr/bin/env python3
"""Self-tests of the benchmark program.

Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds the benchmark the way run.py does, then checks that a failed
verify() is counted (bench-scale Ckpt is known to fail it, see
NOTES.md), that the result line has the agreed shape in both modes, and
that bad arguments exit 2 without a result.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BDIR = run.build_dir()
BINARY = run.build(BDIR)
OUT = os.path.join(BDIR, "test-out")


def bench(*args):
    done = subprocess.run([BINARY, "--out-dir", OUT] + list(args),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    return done.returncode, done.stdout


def result(*args):
    code, out = bench(*args)
    if code != 0:
        raise AssertionError("exit %d" % code)
    return json.loads(out.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    def test_failed_verify_counts_in_error_rate(self):
        r = result("--workload", "launch_pb_bound", "--seed", "1",
                   "--seconds", "0.1", "--trace", "1",
                   "--launches", "Ckpt/sbrp/near,Ckpt/epoch/near")
        self.assertFalse(r["correct"])
        self.assertGreaterEqual(r["attempted"], 2)
        self.assertEqual(r["failed"], r["attempted"])
        self.assertEqual(r["metrics"]["error_rate"]["value"], 1.0)

    def test_result_shape(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            r = result("--workload", "mc_sweep", "--seed", "1",
                       "--seconds", "0.1", "--trace", trace)
            self.assertEqual(set(r), {"correct", "attempted", "failed",
                                      "metrics"})
            self.assertTrue(r["correct"])
            self.assertEqual(r["failed"], 0)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            self.assertEqual(got, want)

    def test_bad_arguments_exit_2(self):
        for args in (["--workload", "nope"],
                     ["--workload", "mc_sweep", "--trace", "2"],
                     ["--workload", "mc_sweep", "--seconds", "x"],
                     ["--workload", "launch_pb_bound", "--launches",
                      "Scan/sbrp"]):
            code, out = bench(*args)
            self.assertEqual(code, 2, args)
            self.assertEqual(out, "")


if __name__ == "__main__":
    unittest.main()
