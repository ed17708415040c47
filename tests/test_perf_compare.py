#!/usr/bin/env python3
"""tools/perf_compare.py on synthetic runs, without perfbench.

Each revision's tree is a stub whose perfbench/run.py prints a last line
drawn around fixed nominal values with 2% noise, so the statistics, the
pairing and the exit status are checked in a second: an A/A set flags
nothing, a set 20% worse on one metric is "worse" and exits 1, and a run
that fails exits 2 naming it.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools"))
import perf_compare  # noqa: E402

NOMINAL = {"setup_s": 0.23, "time_to_solution_s": 0.40, "request_p50_ms": 15.0,
           "request_p90_ms": 19.0, "peak_rss_mb": 33.0}

# A stub perfbench/run.py; CONFIG is the revision's behaviour.
STUB = r'''
import json, random, sys
CONFIG = %s
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
with open(CONFIG["log"], "a") as log:
    log.write("%%s %%s %%d\n" %% (args["--workload"], CONFIG["name"], seed))
if CONFIG.get("exit"):
    print("boom", file=sys.stderr)
    sys.exit(CONFIG["exit"])
if CONFIG.get("malformed"):
    print("not json")
    sys.exit(0)
rng = random.Random(seed * 31 + CONFIG["salt"])
metrics = {k: {"value": v * CONFIG["scale"].get(k, 1.0) * (1 + 0.02 * rng.gauss(0, 1)),
               "unit": "x"} for k, v in CONFIG["nominal"].items()}
print(json.dumps({"correct": CONFIG.get("correct", True), "attempted": 100, "failed": 0,
                  "metrics": metrics}))
'''


class PerfCompare(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.log = os.path.join(self.tmp.name, "runs.log")
        self.revisions = {}
        self.saved = perf_compare.resolve, perf_compare.extract
        perf_compare.resolve = lambda rev: rev
        perf_compare.extract = self.extract

    def tearDown(self):
        perf_compare.resolve, perf_compare.extract = self.saved
        self.tmp.cleanup()

    def extract(self, commit, dest):
        os.makedirs(os.path.join(dest, "perfbench"))
        config = dict(self.revisions[commit], name=commit, log=self.log, nominal=NOMINAL)
        with open(os.path.join(dest, "perfbench", "run.py"), "w") as f:
            f.write(STUB % json.dumps(config))

    def compare(self, base, change, pairs=10):
        self.revisions = {"base": base, "change": change}
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = perf_compare.main(["--base", "base", "--change", "change", "--pairs",
                                        str(pairs), "--seed", "40"])
        return status, out.getvalue(), err.getvalue()

    def verdicts(self, out):
        """{(workload, metric): verdict}"""
        rows = [line.split() for line in out.splitlines()
                if line.startswith(("figures ", "service_cold "))]
        return {(row[0], row[1]): row[-1] for row in rows}

    def test_a_a_flags_nothing(self):
        status, out, _ = self.compare({"salt": 1, "scale": {}}, {"salt": 2, "scale": {}})
        self.assertEqual(status, 0, out)
        verdicts = self.verdicts(out)
        self.assertEqual({metric for _, metric in verdicts}, set(NOMINAL) | {"failed_share"}, out)
        self.assertEqual(len(verdicts), 2 * (len(NOMINAL) + 1), out)
        self.assertEqual(set(verdicts.values()), {"ok"}, out)

    def test_pairs_share_seeds_and_alternate_the_first_side(self):
        self.compare({"salt": 1, "scale": {}}, {"salt": 2, "scale": {}}, pairs=3)
        with open(self.log) as f:
            runs = f.read().splitlines()
        self.assertEqual(runs, ["figures base 40", "figures change 40",
                                "service_cold base 40", "service_cold change 40",
                                "figures change 41", "figures base 41",
                                "service_cold change 41", "service_cold base 41",
                                "figures base 42", "figures change 42",
                                "service_cold base 42", "service_cold change 42"])

    def test_twenty_percent_worse_is_worse_and_exits_one(self):
        status, out, _ = self.compare({"salt": 1, "scale": {}},
                                      {"salt": 2, "scale": {"peak_rss_mb": 1.2}})
        self.assertEqual(status, 1, out)
        verdicts = self.verdicts(out)
        self.assertEqual(verdicts.pop(("figures", "peak_rss_mb")), "worse", out)
        self.assertEqual(verdicts.pop(("service_cold", "peak_rss_mb")), "worse", out)
        self.assertEqual(set(verdicts.values()), {"ok"}, out)

    def test_slowdown_within_the_bound_is_ok_but_its_ci_excludes_one(self):
        status, out, _ = self.compare({"salt": 1, "scale": {}},
                                      {"salt": 2, "scale": {"time_to_solution_s": 1.2}})
        self.assertEqual(status, 0, out)
        row = next(line for line in out.splitlines()
                   if line.startswith("service_cold ") and "time_to_solution_s" in line)
        self.assertIn("]*", row)
        self.assertEqual(row.split()[-1], "ok", row)
        self.assertIn(" 0/10 ", row)

    def test_spread_wider_than_the_bound_is_unresolved(self):
        judged = perf_compare.judge({"name": "m", "unit": "s", "better": "lower", "bound": 0.1},
                                    [1.0, 1.3, 0.8, 1.2, 0.9, 1.0], [1.0] * 6)
        self.assertEqual(judged["verdict"], "unresolved")

    def test_failed_runs_exit_two_and_are_named(self):
        for change in ({"exit": 1}, {"malformed": True}, {"correct": False}):
            status, out, err = self.compare({"salt": 1, "scale": {}},
                                            dict(change, salt=2, scale={}))
            self.assertEqual(status, 2, (change, out, err))
            self.assertIn("change run of figures, seed 40", err)


if __name__ == "__main__":
    unittest.main()
