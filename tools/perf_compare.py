#!/usr/bin/env python3
"""Paired end-to-end benchmark comparison of two revisions of ckptsim.

    python3 tools/perf_compare.py --base REV --change REV --pairs N [--seed S]

Each revision is extracted with `git archive` into its own temporary
directory, and every run is that tree's own `perfbench/run.py --workload W
--seed S+k --seconds T`, where T is BENCHMARK.json's run_seconds.  Pair k
runs both sides on seed S+k, for every workload of BENCHMARK.json, and the
side that runs first alternates from pair to pair.  For each workload and
each end-to-end metric it prints:

  - the base and change medians with their quartiles;
  - the ratio of the medians (change / base);
  - how many of the N pairs the change won, ties counting for neither side;
  - a paired bootstrap 95% CI of that ratio, with a fixed resampling seed
    (marked "*" when it excludes 1).

A metric is "worse" when the change median is worse than the base median by
more than the metric's bound, and "unresolved" when the base runs' quartile
spread, (q3 - q1) / median, exceeds the bound.  Each workload's failed
operations are compared as shares of those attempted; a larger share on the
change side is "worse" too.

Exit status: 0, or 1 when any metric is worse, or 2 when a run fails (exits
non-zero, prints a malformed last line or reports "correct": false); the
failed run is named.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 2005


class RunFailed(Exception):
    pass


def quartiles(values):
    """(q1, median, q3), as perfbench/run.py reports its set-up samples."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def ratio(change, base):
    if base == 0:
        return 1.0 if change == 0 else math.inf
    return change / base


def bootstrap_ci(base, change):
    """95% CI of the median ratio, resampling whole pairs."""
    rng = random.Random(BOOTSTRAP_SEED)
    n = len(base)
    ratios = []
    for _ in range(BOOTSTRAP_RESAMPLES):
        picks = [rng.randrange(n) for _ in range(n)]
        ratios.append(ratio(statistics.median(change[i] for i in picks),
                            statistics.median(base[i] for i in picks)))
    ratios.sort()
    return (ratios[int(0.025 * BOOTSTRAP_RESAMPLES)],
            ratios[int(0.975 * BOOTSTRAP_RESAMPLES) - 1])


def judge(metric, base, change):
    """One metric's row, from the two sides' values in pair order."""
    lower = metric["better"] == "lower"
    bq, cq = quartiles(base), quartiles(change)
    r = ratio(cq[1], bq[1])
    bound = metric["bound"]
    spread = 0.0 if bq[2] == bq[0] else ratio(bq[2] - bq[0], abs(bq[1]))
    worse = r > 1 + bound if lower else r < 1 - bound
    verdict = "worse" if worse else "unresolved" if spread > bound else "ok"
    wins = sum(1 for b, c in zip(base, change) if c != b and (c < b) == lower)
    return {"metric": metric["name"], "unit": metric["unit"], "base": bq, "change": cq,
            "ratio": r, "wins": wins, "pairs": len(base), "ci": bootstrap_ci(base, change),
            "verdict": verdict}


def compare(results, bench):
    """Rows for every workload of `results` ({workload: {"base": [run...],
    "change": [run...]}}, runs in pair order) and the exit status."""
    rows = []
    for workload, sides in results.items():
        for metric in bench["end_to_end"]:
            name = metric["name"]
            row = judge(metric, [run["metrics"][name] for run in sides["base"]],
                        [run["metrics"][name] for run in sides["change"]])
            rows.append(dict(row, workload=workload))
        shares = [sum(run["failed"] for run in sides[side]) /
                  max(1, sum(run["attempted"] for run in sides[side]))
                  for side in ("base", "change")]
        rows.append({"workload": workload, "metric": "failed_share", "shares": shares,
                     "verdict": "worse" if shares[1] > shares[0] else "ok"})
    return rows, 1 if any(row["verdict"] == "worse" for row in rows) else 0


def format_rows(rows):
    lines = ["%-13s %-19s %-28s %-28s %6s %6s %-17s %s" % (
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "ratio",
        "wins", "95% CI of ratio", "verdict")]
    for row in rows:
        if row["metric"] == "failed_share":
            lines.append("%-13s %-19s %-28.6g %-28.6g %6s %6s %-17s %s" % (
                row["workload"], row["metric"], row["shares"][0], row["shares"][1], "", "", "",
                row["verdict"]))
            continue
        side = ["%.4g [%.4g, %.4g] %s" % (q[1], q[0], q[2], row["unit"])
                for q in (row["base"], row["change"])]
        lo, hi = row["ci"]
        ci = "[%.3f, %.3f]%s" % (lo, hi, "*" if lo > 1 or hi < 1 else "")
        lines.append("%-13s %-19s %-28s %-28s %6.3f %6s %-17s %s" % (
            row["workload"], row["metric"], side[0], side[1], row["ratio"],
            "%d/%d" % (row["wins"], row["pairs"]), ci, row["verdict"]))
    return "\n".join(lines)


def resolve(rev):
    p = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        raise SystemExit("perf_compare: not a revision: %s" % rev)
    return p.stdout.strip()


def extract(commit, dest):
    """The tree of `commit` under `dest`, through git archive."""
    os.makedirs(dest)
    git = subprocess.Popen(["git", "-C", ROOT, "archive", commit], stdout=subprocess.PIPE)
    tar = subprocess.run(["tar", "-x", "-C", dest], stdin=git.stdout)
    git.stdout.close()
    if git.wait() != 0 or tar.returncode != 0:
        raise SystemExit("perf_compare: cannot extract %s" % commit)


def run_once(name, tree, workload, seed, seconds):
    """One perfbench run of `tree`: its metrics and operation counts."""
    label = "%s run of %s, seed %d" % (name, workload, seed)
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each tree builds into its own .bench_build
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds)],
                       cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0:
        raise RunFailed("%s exited %d: %s" % (label, p.returncode, p.stderr.strip()[-2000:]))
    try:
        last = json.loads(lines[-1])
        run = {"correct": last["correct"], "attempted": int(last["attempted"]),
               "failed": int(last["failed"]),
               "metrics": {k: float(v["value"]) for k, v in last["metrics"].items()}}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        raise RunFailed("%s printed a malformed last line: %r"
                        % (label, lines[-1] if lines else "")) from None
    if run["correct"] is not True:
        raise RunFailed("%s reported correct: false" % label)
    return run


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="parent revision")
    ap.add_argument("--change", required=True, help="revision under test")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1, help="pair k runs seed S+k (default 1)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    commits = {"base": resolve(args.base), "change": resolve(args.change)}
    for side, commit in commits.items():
        print("%-6s %s" % (side, commit))
    results = {w: {"base": [], "change": []} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="perf_compare_") as work:
        trees = {side: os.path.join(work, side) for side in commits}
        for side, commit in commits.items():
            extract(commit, trees[side])
        try:
            for k in range(args.pairs):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                for workload in workloads:
                    for side in order:
                        run = run_once(side, trees[side], workload, args.seed + k,
                                       bench["run_seconds"])
                        results[workload][side].append(run)
                        print("pair %d/%d %s %s: %s" % (
                            k + 1, args.pairs, workload, side,
                            " ".join("%s=%.4g" % kv for kv in run["metrics"].items())),
                            file=sys.stderr, flush=True)
        except RunFailed as e:
            print("perf_compare: %s" % e, file=sys.stderr)
            return 2
    rows, status = compare(results, bench)
    print("%d pairs, seeds %d-%d, %d s runs" % (args.pairs, args.seed,
                                                args.seed + args.pairs - 1, bench["run_seconds"]))
    print(format_rows(rows))
    return status


if __name__ == "__main__":
    sys.exit(main())
