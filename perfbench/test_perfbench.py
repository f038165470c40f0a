#!/usr/bin/env python3
"""Tests of the Faro benchmark itself. From the repository root:

    python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does) and checks that the timing decorators
are transparent, that the seed changes the inputs, that a held-out seed
passes the correctness gate on every workload, and that the gate and the
build checks refuse what they must.
"""

import copy
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

# Never used while tuning the benchmark; its paths are on record like every
# seed's.
HELD_OUT_SEED = 1009


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        with open(run.EXPECTED) as f:
            cls.expected = json.load(f)

    def test_decorators_transparent_and_seed_changes_inputs(self):
        proc = subprocess.run([run.BINARY, "--selftest", "--seed", "1", "--held-out-seed",
                               str(HELD_OUT_SEED)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertEqual(sum(line.startswith("PASS") for line in lines), 4, proc.stdout)

    def test_held_out_seed_passes_gate(self):
        for workload in [w["name"] for w in self.bench["workloads"]]:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(HELD_OUT_SEED), "--seconds", "1", "--trace", "0"],
                cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
            self.assertEqual(proc.returncode, 0, workload)
            lines = proc.stdout.strip().splitlines()
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            for path in info["pool_paths"]:
                self.assertIn(str(path), self.expected[workload])
            self.assertTrue(result["correct"], workload)
            self.assertEqual(set(result["metrics"]),
                             {m["name"] for m in self.bench["end_to_end"]})

    def test_gate_rejects_a_changed_or_unrecorded_output(self):
        pool = self.expected["serve-crash-10"]
        paths = [dict(pool[k], pool_path=int(k)) for k in ("0", "5")]
        raw = {"gate": {"paths": paths, "units_identical": True, "units_diff": "",
                        "paced_matches_batch": True, "paced_diff": ""}}
        self.assertEqual(run.gate("serve-crash-10", raw), [])
        for key in run.GATE_KEYS:
            bad = copy.deepcopy(raw)
            bad["gate"]["paths"][1][key] = paths[1][key] + 1
            self.assertTrue(run.gate("serve-crash-10", bad), key)
        bad = copy.deepcopy(raw)
        bad["gate"]["paths"][0]["pool_path"] = len(pool)
        self.assertTrue(run.gate("serve-crash-10", bad))
        bad = copy.deepcopy(raw)
        bad["gate"].update(paced_matches_batch=False, paced_diff="events_processed")
        self.assertTrue(run.gate("serve-crash-10", bad))
        bad = copy.deepcopy(raw)
        bad["gate"].update(units_identical=False, units_diff="solver")
        self.assertTrue(run.gate("serve-crash-10", bad))

    def test_refuses_debug_and_sanitizer_builds(self):
        release = {"build_type": "Release", "sanitizer": "", "flags": "-O3 -DNDEBUG"}
        run.check_release(release)
        for bad in ({"build_type": "Debug"}, {"sanitizer": "address"},
                    {"flags": "-O3 -fsanitize=thread"}):
            with self.assertRaises(SystemExit):
                run.check_release(dict(release, **bad))


if __name__ == "__main__":
    unittest.main()
