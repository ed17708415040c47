#!/usr/bin/env python3
"""Failure accounting of the benchmark's client: a malformed request and a
request refused by admission control must both count as failed attempts.

    python3 perfbench/test_accounting.py      # from the checkout root

Builds the benchmark like run.py does, then drives a ckptsimd started with
--max-queue 1 through perfbench_driver's client.
"""

import json
import os
import shutil
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class FailureAccounting(unittest.TestCase):
    def test_malformed_and_over_admission_are_failures(self):
        driver, daemon = run.build()
        workdir = os.path.join(run.WORK, "test-accounting-%d" % os.getpid())
        os.makedirs(workdir, exist_ok=True)
        try:
            # Two sweeps pipelined on one connection: the first (a
            # paper-default point, tens of ms) holds the only queue slot
            # when the second arrives, so the second is rejected.  The
            # malformed line draws an id-less error.
            reqs = [run.request_line("long", "interval", [15, 30], spec={"seed": 7}),
                    run.request_line("over", "interval", [60], spec={"seed": 8}),
                    '{"op":"sweep","id":']
            reqfile = os.path.join(workdir, "requests.jsonl")
            run.write_lines(reqfile, reqs)
            records = os.path.join(workdir, "records.jsonl")
            d = run.Daemon(daemon, os.path.join(workdir, "cache.jsonl"), workdir, "test",
                           extra=("--max-queue", "1"))
            try:
                run.run_tool([driver, "client", "--port", str(d.port), "--conns", "1",
                              "--window", "2", "--requests", reqfile, "--out", records])
                d.shutdown()
            finally:
                d.close()
            with open(records) as f:
                recs = [json.loads(line) for line in f]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.assertEqual([r["terminal"] for r in recs], ["done", "rejected", "error"])
        self.assertEqual([r["failed"] for r in recs], [False, True, True])
        self.assertEqual(run.failure_counts(recs), (3, 2))


if __name__ == "__main__":
    unittest.main()
