#!/usr/bin/env python3
"""End-to-end benchmark of ckptsim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a ckptsim checkout.  It builds the library, the
ckptsimd daemon and perfbench_driver from source (into $CARGO_TARGET_DIR, or
.bench_build), runs one workload of fixed, seeded work, checks every output
against a reference, and prints a readable summary followed, as the last
line, by one JSON object:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

Workloads (NOTES.md says why each exists):
  figures       every series of Figures 4a-8 through ckptsim::sweep
  service_cold  closed loop of cache-missing 2-point sweeps against ckptsimd
  service_warm  closed loop of 64-point sweeps the prepared cache holds
                (not in BENCHMARK.json: too unsteady on a shared VM)

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 makes
the traced run instead and reports the per-layer metrics, writing the span
file and a per-layer self-time summary under <build>/perfbench/trace/.
--seconds sizes the fixed work list through constants calibrated on a
4-core machine; the run then measures that list however long it takes.
A failed check prints the failure, reports no metrics and exits 1.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
WORK = os.path.join(BUILD, "perfbench")
JOBS = len(os.sched_getaffinity(0))

WORKLOADS = ("figures", "service_cold", "service_warm")

# Set-up is sampled many times per run and reported as the median: single
# start-ups spread 20-25% (IQR/median) on a 4-core VM.
FIGURE_SETUP_SAMPLES = 201
DAEMON_SETUP_SAMPLES = 11
# Each run does its fixed work several times over and reports the median
# time to solution, so one slow stretch of a noisy machine does not decide
# it.  Figures: at least three passes, so that per-series p90 has >= 10
# samples beyond it.  Service: SERVICE_REPETITIONS equal request lists.
FIGURE_MIN_PASSES = 3
FIGURE_PASS_SECONDS = 6.0
SERVICE_REPETITIONS = 6
# Cold and warm requests per measured second, on 4 cores.
COLD_RATE = 23
WARM_RATE = 380
# The prepared result cache: 320 interval scans of 64 points each.
PREP_SCANS = 320
SCAN_POINTS = 64
CHEAP_SPEC = {"reps": 2, "horizon_hours": 20, "transient_hours": 2}
PREP_MTTF_YEARS = (0.5, 1, 2, 4, 8)
PAPER_INTERVALS = (15, 30, 60, 120, 240)
PAPER_PROCESSORS = (8192, 16384, 32768, 65536, 131072, 262144)
PAPER_REPS = 5
PING_SAMPLES = 200
TIMEOUT = 170


class CheckFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def quantile(values, q):
    """Nearest-rank quantile."""
    v = sorted(values)
    return v[max(0, min(len(v) - 1, math.ceil(q * len(v)) - 1))]


# ---------------------------------------------------------------- build ----

def build():
    bdir = os.path.join(BUILD, "cmake")
    os.makedirs(BUILD, exist_ok=True)
    logpath = os.path.join(BUILD, "perfbench-build.log")
    with open(logpath, "w") as logf:
        steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", bdir, "-j", str(JOBS),
                  "--target", "perfbench_driver", "ckptsimd"]]
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT).returncode != 0:
                with open(logpath) as f:
                    log(f.read()[-4000:])
                log("perfbench: build failed (log: %s)" % logpath)
                sys.exit(2)
    return (os.path.join(bdir, "perfbench_driver"), os.path.join(bdir, "tools", "ckptsimd"))


def run_tool(cmd):
    """Run a driver subcommand; return its stdout lines."""
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                       timeout=TIMEOUT)
    sys.stderr.write(p.stderr)
    if p.returncode != 0:
        raise CheckFailed("%s exited %d" % (" ".join(cmd[:2]), p.returncode))
    return p.stdout.splitlines()


# ------------------------------------------------------------- figures ----

def plan_startup(driver):
    """Seconds from spawning the figures driver to its 'ready' line."""
    t0 = time.perf_counter()
    p = subprocess.Popen([driver, "plan"], stdout=subprocess.PIPE, text=True)
    line = p.stdout.readline()
    t1 = time.perf_counter()
    p.stdout.close()
    p.wait(timeout=TIMEOUT)
    if not line.startswith("ready") or p.returncode != 0:
        raise CheckFailed("figure plans did not build")
    return t1 - t0


def figures_run(driver, seed, seconds, trace):
    setups = [plan_startup(driver) for _ in range(FIGURE_SETUP_SAMPLES)]
    passes = max(FIGURE_MIN_PASSES, round(seconds / FIGURE_PASS_SECONDS))
    cmd = [driver, "figures", "--root", ROOT, "--passes", str(passes), "--seed", str(seed),
           "--jobs", str(JOBS)]
    trace_dir = None
    if trace:
        trace_dir = os.path.join(WORK, "trace", "figures-seed%d" % seed)
        cmd += ["--trace-dir", trace_dir]
    lines = run_tool(cmd)
    res = json.loads(lines[0])
    if res["mismatches"]:
        raise CheckFailed("%d figure point(s) differ from the committed CSVs" % res["mismatches"])
    if res["replications"] != PAPER_REPS * (res["points"] - res["failed"]):
        raise CheckFailed("figures ran %d replications for %d points"
                          % (res["replications"], res["points"]))
    run = {
        "attempted": res["points"], "failed": res["failed"],
        "setup": setups, "tts": res["time_to_solution_s"], "tts_reps": res["pass_seconds"],
        "latencies_ms": [res["series_ms"]],
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "counts": {"points": res["points"], "model.replications": res["replications"]},
        "record": {"passes": passes, "series": res["series"], "points": res["points"]},
    }
    if trace:
        m = json.loads(lines[1])
        if m.pop("replay_mismatches"):
            raise CheckFailed("traced figures pass or replay disagrees with the sweep")
        run["layers"] = m
        run["trace_dir"] = trace_dir
        run["counts"]["model.events"] = m["model.events"]
    return run


# ------------------------------------------------------------- service ----

def request_line(rid, axis, values, params=None, spec=None):
    req = {"op": "sweep", "id": rid, "axis": axis, "values": list(values)}
    if params:
        req["params"] = params
    if spec:
        req["spec"] = spec
    return json.dumps(req, separators=(",", ":"))


def prep_scans(seed):
    """The interval scans the prepared cache holds, as request lines."""
    rng = random.Random("prep/%d" % seed)
    xs = [round(15 + k * 225 / (SCAN_POINTS - 1), 3) for k in range(SCAN_POINTS)]
    seeds = rng.sample(range(1, 2**31), PREP_SCANS)
    scans = []
    for k in range(PREP_SCANS):
        n = len(PAPER_PROCESSORS)
        params = {"processors": PAPER_PROCESSORS[k % n],
                  "mttf_years": PREP_MTTF_YEARS[(k // n) % len(PREP_MTTF_YEARS)]}
        scans.append(request_line("p%d" % k, "interval", xs, params,
                                  dict(CHEAP_SPEC, seed=seeds[k])))
    return scans


# Every pair of x-values of the paper's interval and processor axes.
COLD_PAIRS = ([("interval", (a, b)) for i, a in enumerate(PAPER_INTERVALS)
               for b in PAPER_INTERVALS[i + 1:]] +
              [("processors", (a, b)) for i, a in enumerate(PAPER_PROCESSORS)
               for b in PAPER_PROCESSORS[i + 1:]])


def cold_requests(seed, rounds):
    """2-point paper-default sweeps with fresh seeds: `rounds` rounds, each
    holding every pair of COLD_PAIRS once in a seeded order, so the work
    per run does not depend on the draw."""
    rng = random.Random("cold/%d" % seed)
    order = [c for _ in range(rounds) for c in rng.sample(COLD_PAIRS, len(COLD_PAIRS))]
    # Seeds distinct from each other and from every prepared scan's.
    seeds = rng.sample(range(2**31, 2**32), len(order))
    return [request_line("c%d" % i, axis, xs, spec={"seed": seeds[i]})
            for i, (axis, xs) in enumerate(order)]


def warm_requests(seed, count, scans):
    """Resubmissions of prepared scans: every scan equally often (as far
    as the count allows), in a seeded order."""
    rng = random.Random("warm/%d" % seed)
    order = []
    while len(order) < count:
        order += rng.sample(range(len(scans)), len(scans))
    reqs = []
    for i, k in enumerate(order[:count]):
        req = json.loads(scans[k])
        req["id"] = "w%d" % i
        reqs.append(json.dumps(req, separators=(",", ":")))
    return reqs


def service_requests(kind, seed, seconds):
    """The run's fixed request list, split into SERVICE_REPETITIONS equal
    parts."""
    reps = SERVICE_REPETITIONS
    if kind == "service_cold":
        rounds = max(1, round(COLD_RATE * seconds / (reps * len(COLD_PAIRS))))
        per_rep = rounds * len(COLD_PAIRS)
        reqs = cold_requests(seed, rounds * reps)
    else:
        per_rep = max(1, round(WARM_RATE * seconds / reps))
        reqs = warm_requests(seed, per_rep * reps, prep_scans(seed))
    return [reqs[k * per_rep:(k + 1) * per_rep] for k in range(reps)]


def write_lines(path, lines):
    with open(path, "w") as f:
        f.write("".join(line + "\n" for line in lines))


class Daemon:
    """One ckptsimd process on an ephemeral port."""

    def __init__(self, daemon, cache, workdir, tag, extra=()):
        self.metrics_path = os.path.join(workdir, "metrics-%s.json" % tag)
        self.errlog = open(os.path.join(workdir, "daemon-%s.log" % tag), "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [daemon, "--port", "0", "--cache", cache, "--jobs", str(JOBS),
             "--metrics-out", self.metrics_path, *extra],
            stdout=subprocess.PIPE, stderr=self.errlog, text=True)
        try:
            banner = self.proc.stdout.readline()
            if "listening on 127.0.0.1:" not in banner:
                raise CheckFailed("ckptsimd did not start: %r" % banner)
            self.port = int(banner.rsplit(":", 1)[1])
            self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=TIMEOUT)
            self.reader = self.sock.makefile("r")
            if self.call({"op": "ping"})["type"] != "pong":
                raise CheckFailed("ckptsimd did not answer ping")
            self.setup_s = time.perf_counter() - t0
        except BaseException:
            self.close()
            raise

    def call(self, req):
        self.sock.sendall((json.dumps(req) + "\n").encode())
        return json.loads(self.reader.readline())

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise CheckFailed("no VmHWM for ckptsimd")

    def shutdown(self):
        """Stop via the protocol; return the daemon's metrics snapshot."""
        bye = self.call({"op": "shutdown"})
        self.proc.wait(timeout=TIMEOUT)
        self.close()
        if bye["type"] != "bye" or self.proc.returncode != 0:
            raise CheckFailed("ckptsimd did not shut down cleanly")
        with open(self.metrics_path) as f:
            return json.load(f)

    def close(self):
        for closer in ("reader", "sock"):
            if hasattr(self, closer):
                getattr(self, closer).close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.errlog.close()


def prepared_cache(tools, seed):
    """The prepared result-cache file of `seed`, built once per build tree
    (and scan list) by sending the cheap scans through ckptsimd itself."""
    driver, daemon = tools
    scans = prep_scans(seed)
    digest = hashlib.sha256("\n".join(scans).encode()).hexdigest()[:16]
    path = os.path.join(WORK, "prepared", "seed-%d-%s.jsonl" % (seed, digest))
    if os.path.exists(path):
        return path
    tmpdir = os.path.join(WORK, "prepared", "tmp-%d-%d" % (seed, os.getpid()))
    os.makedirs(tmpdir, exist_ok=True)
    try:
        cache = os.path.join(tmpdir, "cache.jsonl")
        reqs = os.path.join(tmpdir, "requests.jsonl")
        write_lines(reqs, scans)
        d = Daemon(daemon, cache, tmpdir, "prep")
        try:
            run_tool([driver, "client", "--port", str(d.port), "--conns", str(JOBS),
                      "--requests", reqs, "--out", os.path.join(tmpdir, "records.jsonl")])
            d.shutdown()
        finally:
            d.close()
        with open(cache) as f:
            entries = sum(1 for _ in f)
        if entries != PREP_SCANS * SCAN_POINTS:
            raise CheckFailed("prepared cache holds %d entries" % entries)
        os.replace(cache, path)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return path


def fresh_copy(prepared, path):
    """A copy of the prepared cache, fsync'd so that no writeback of it
    overlaps a timed start-up."""
    shutil.copyfile(prepared, path)
    with open(path, "rb+") as f:
        os.fsync(f.fileno())
    return path


def fresh_daemon(daemon, prepared, workdir, tag):
    """A daemon on a fresh copy of the prepared cache."""
    return Daemon(daemon, fresh_copy(prepared, os.path.join(workdir, "cache-%s.jsonl" % tag)),
                  workdir, tag)


def live_pass(tools, prepared, reqfiles, workdir, tag, conns, pings=0, keep_points=False):
    """Start a daemon on a fresh copy of the prepared cache, run each
    request file through a client with `conns` connections in turn, stop
    the daemon."""
    driver, daemon = tools
    d = fresh_daemon(daemon, prepared, workdir, tag)
    recs, tts, pings_us = [], [], []
    points = os.path.join(workdir, "points-%s.jsonl" % tag)
    try:
        before = d.call({"op": "stats"})
        for rep, reqfile in enumerate(reqfiles):
            records = os.path.join(workdir, "records-%s-%d.jsonl" % (tag, rep))
            cmd = [driver, "client", "--port", str(d.port), "--conns", str(conns),
                   "--requests", reqfile, "--out", records,
                   "--pings", str(pings if rep == 0 else 0)]
            if keep_points:
                cmd += ["--points", "%s.%d" % (points, rep)]
            pings_us += json.loads(run_tool(cmd)[-1])["pings_us"]
            with open(records) as f:
                part = [dict(json.loads(line), rep=rep) for line in f]
            for r in part:
                r["i"] += len(recs)
            recs += part
            tts.append(tts_of(part))
        after = d.call({"op": "stats"})
        rss = d.peak_rss_mb()
        metrics = d.shutdown()
    finally:
        d.close()
    if keep_points:
        with open(points, "w") as out:
            for rep in range(len(reqfiles)):
                with open("%s.%d" % (points, rep)) as f:
                    out.write(f.read())
    delta = {k: after[k] - before[k] for k in ("cache_hits", "cache_misses", "replications_run")}
    return {"records": recs, "tts_reps": tts, "stats": delta, "peak_rss_mb": rss,
            "pings_us": pings_us, "busy_s": sum(w["busy_seconds"] for w in metrics["workers"]),
            "workers": len(metrics["workers"]), "setup_s": d.setup_s,
            "points_file": points if keep_points else None}


def check_service(kind, reqs, live):
    """The correctness gate on one live pass (point bytes are compared
    separately)."""
    recs = live["records"]
    n_points = sum(len(json.loads(r)["values"]) for r in reqs)
    ok = [r for r in recs if not r["failed"]]
    if any(r["points"] != len(json.loads(reqs[r["i"]])["values"]) for r in ok):
        raise CheckFailed("a completed request is missing point lines")
    if kind == "service_warm":
        if any(r["cached_points"] != r["points"] for r in recs):
            raise CheckFailed("a warm point was not served from the cache")
        expect = {"cache_hits": n_points, "cache_misses": 0, "replications_run": 0}
    else:
        if any(r["cached_points"] for r in recs):
            raise CheckFailed("a cold point was served from the cache")
        expect = {"cache_hits": 0, "cache_misses": n_points,
                  "replications_run": PAPER_REPS * n_points}
    if not any(r["failed"] for r in recs) and live["stats"] != expect:
        raise CheckFailed("stats op counters %s, expected %s" % (live["stats"], expect))


def compare_points(points_file, expected_file):
    with open(points_file) as f:
        got = sorted(f.read().splitlines())
    with open(expected_file) as f:
        want = sorted(f.read().splitlines())
    if got != want:
        bad = len(set(got) ^ set(want))
        raise CheckFailed("%d cold point line(s) differ from the library replay" % bad)


def client_conns(kind):
    """nproc connections for cold traffic.  Warm traffic gets nproc / 2: a
    warm request is ~2 ms of lock-holding work, and nproc client threads
    plus nproc daemon connection threads oversubscribe the CPUs, so that
    p90 measured guest scheduling (10.6-20.5 ms over four runs at 4
    connections, 5.3-6.1 ms at 2, on a 4-core VM).  Two requests in flight
    still contend for the server lock."""
    return JOBS if kind == "service_cold" else max(1, JOBS // 2)


def failure_counts(recs):
    """(attempted, failed): a request fails unless its terminal line is
    "done" with no failed point; error, rejected, draining, cancelled and a
    lost connection all count."""
    return len(recs), sum(1 for r in recs if r["failed"])


def tts_of(recs):
    sent = [r for r in recs if r["send_ns"]]
    return (max(r["done_ns"] for r in sent) - min(r["send_ns"] for r in sent)) * 1e-9


def service_run(kind, tools, seed, seconds, trace):
    driver, daemon = tools
    workdir = os.path.join(WORK, "runs", "%s-%d-%d" % (kind, seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        prepared = prepared_cache(tools, seed)
        parts = service_requests(kind, seed, seconds)
        reqs = [r for part in parts for r in part]
        reqfile = os.path.join(workdir, "requests.jsonl")
        write_lines(reqfile, reqs)
        reqfiles = []
        for k, part in enumerate(parts):
            reqfiles.append(os.path.join(workdir, "requests-%d.jsonl" % k))
            write_lines(reqfiles[-1], part)
        # Start-up samples share one fresh copy: a daemon that serves only
        # pings never writes its cache file.
        setups = []
        cache = fresh_copy(prepared, os.path.join(workdir, "cache-setup.jsonl"))
        for k in range(DAEMON_SETUP_SAMPLES - 1):
            d = Daemon(daemon, cache, workdir, "setup%d" % k)
            try:
                setups.append(d.setup_s)
                d.shutdown()
            finally:
                d.close()
        cold = kind == "service_cold"
        live = live_pass(tools, prepared, reqfiles, workdir, "timed", client_conns(kind),
                         keep_points=cold)
        setups.append(live["setup_s"])
        check_service(kind, reqs, live)
        recs = live["records"]
        attempted, failed = failure_counts(recs)
        run = {
            "attempted": attempted, "failed": failed,
            "setup": setups, "tts": statistics.median(live["tts_reps"]),
            "tts_reps": live["tts_reps"],
            "latencies_ms": [[(r["done_ns"] - r["send_ns"]) * 1e-6 for r in recs if r["rep"] == k]
                             for k in range(len(reqfiles))],
            "peak_rss_mb": live["peak_rss_mb"],
            "counts": dict(live["stats"], requests=len(reqs)),
            "record": {"connections": client_conns(kind), "requests": len(reqs),
                       "points": sum(len(json.loads(r)["values"]) for r in reqs),
                       "prepared_entries": PREP_SCANS * SCAN_POINTS},
        }
        expected = None
        if cold:
            expected = os.path.join(workdir, "expected.jsonl")
            run_tool([driver, "replay", "--requests", reqfile, "--out", expected,
                      "--jobs", str(JOBS)])
            compare_points(live["points_file"], expected)
        if not trace:
            return run
        run.update(service_trace(kind, tools, seed, prepared, reqs, reqfiles, workdir, expected))
        run["counts"].update({k: run["layers"][k] for k in ("model.replications", "model.events")})
        return run
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def service_trace(kind, tools, seed, prepared, reqs, reqfiles, workdir, expected):
    """Traced pass on a fresh daemon, then the single-threaded library
    replay of the first repetition's requests with a span around every
    call.  (Replaying all of them on one thread would take about four
    times the run.)"""
    driver, _ = tools
    cold = kind == "service_cold"
    live = live_pass(tools, prepared, reqfiles, workdir, "traced", client_conns(kind),
                     pings=PING_SAMPLES, keep_points=cold)
    check_service(kind, reqs, live)
    if cold:
        compare_points(live["points_file"], expected)
    trace_dir = os.path.join(WORK, "trace", "%s-seed%d" % (kind, seed))
    os.makedirs(trace_dir, exist_ok=True)
    cache = os.path.join(workdir, "cache-replay.jsonl")
    shutil.copyfile(prepared, cache)
    replayed = os.path.join(workdir, "replayed.jsonl")
    m = json.loads(run_tool([driver, "replay", "--requests", reqfiles[0], "--out", replayed,
                             "--cache", cache, "--trace-dir", trace_dir])[-1])
    if cold:
        compare_points(live["points_file"] + ".0", replayed)
    with open(os.path.join(trace_dir, "pre_accept_us.txt")) as f:
        pre_accept_ms = [float(x) * 1e-3 for x in f.read().split()]

    recs = live["records"]
    first = [r for r in recs if r["rep"] == 0]
    wall = sum(live["tts_reps"])
    accepted = [(r["accepted_ns"] - r["send_ns"]) * 1e-6 for r in recs]
    # Client-side spans: each request, split at its "accepted" line.
    with open(os.path.join(trace_dir, "client_spans.jsonl"), "w") as f:
        for r in recs:
            top = 3 * r["i"] + 1
            for k, (name, a, b) in enumerate((("client.request", r["send_ns"], r["done_ns"]),
                                              ("svc.admission", r["send_ns"], r["accepted_ns"]),
                                              ("svc.stream", r["accepted_ns"], r["done_ns"]))):
                f.write(json.dumps({"name": name, "start_ns": a, "end_ns": b, "id": top + k,
                                    "parent": 0 if k == 0 else top,
                                    "request": r["i"] + 1}) + "\n")
    m.update({
        "core.worker_busy_ratio": 0.0,
        "core.parallel_efficiency": m["replay_seconds"] / (live["workers"] * live["tts_reps"][0]),
        "svc.worker_busy_ratio": live["busy_s"] / (live["workers"] * wall),
        "svc.first_point_ms_p50": statistics.median(
            (r["first_point_ns"] - r["send_ns"]) * 1e-6 for r in recs),
        "svc.accepted_ms_p50": quantile(accepted, 0.5),
        "svc.accepted_ms_p90": quantile(accepted, 0.9),
        "svc.admission_wait_ms": statistics.median(
            (r["accepted_ns"] - r["send_ns"]) * 1e-6 - pre_accept_ms[r["i"]] for r in first),
        "svc.ping_rtt_us": statistics.median(live["pings_us"]),
        "svc.cache_hits": live["stats"]["cache_hits"],
        "svc.cache_misses": live["stats"]["cache_misses"],
        "svc.replications_run": live["stats"]["replications_run"],
        "traced_time_to_solution_s": statistics.median(live["tts_reps"]),
    })
    return {"layers": m, "trace_dir": trace_dir}


# ------------------------------------------------------------- reporting ----

def check_counts(key, counts):
    """Counts of the same fixed work must repeat exactly across runs."""
    path = os.path.join(WORK, "counts.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    prev = seen.setdefault(key, {})
    for name, value in counts.items():
        if name in prev and prev[name] != value:
            raise CheckFailed("%s: %s = %s, an earlier run of the same work had %s"
                              % (key, name, value, prev[name]))
        prev[name] = value
    tmp = path + ".%d" % os.getpid()
    with open(tmp, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    tools = build()
    os.makedirs(WORK, exist_ok=True)
    try:
        if args.workload == "figures":
            run = figures_run(tools[0], args.seed, args.seconds, args.trace)
        else:
            run = service_run(args.workload, tools, args.seed, args.seconds, args.trace)
        check_counts("%s/seed=%d/seconds=%d" % (args.workload, args.seed, args.seconds),
                     run["counts"])
    except (CheckFailed, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log("perfbench: CHECK FAILED: %s" % e)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    lat = run["latencies_ms"]
    n_lat = sum(len(part) for part in lat)
    tts = run["tts"]
    values = {
        "setup_s": (statistics.median(run["setup"]), len(run["setup"])),
        "time_to_solution_s": (tts, len(run["tts_reps"])),
        "request_p50_ms": (statistics.median(quantile(part, 0.5) for part in lat), n_lat),
        "request_p90_ms": (statistics.median(quantile(part, 0.9) for part in lat), n_lat),
        "peak_rss_mb": (run["peak_rss_mb"], 1),
    }
    print("workload %s  seed %d  seconds %d  jobs %d  %s"
          % (args.workload, args.seed, args.seconds, JOBS,
             "  ".join("%s %s" % kv for kv in run["record"].items())))
    print("failed_ratio %.6f ratio  (%d failed of %d attempted)"
          % (run["failed"] / run["attempted"], run["failed"], run["attempted"]))
    for m in spec["end_to_end"]:
        value, n = values[m["name"]]
        print("%-20s %14.6f %-3s (n=%d)" % (m["name"], value, m["unit"], n))
    q = statistics.quantiles(run["setup"], n=4)
    print("setup_s samples: q1 %.6f  median %.6f  q3 %.6f" % (q[0], q[1], q[2]))
    print("time_to_solution_s per repetition: %s"
          % " ".join("%.4f" % t for t in run["tts_reps"]))
    if args.trace:
        layers = run["layers"]
        traced = layers["traced_time_to_solution_s"]
        with open(os.path.join(run["trace_dir"], "layers.json")) as f:
            self_s = json.load(f)["self_seconds"]
        summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "record": run["record"], "untraced_time_to_solution_s": tts,
                   "traced_time_to_solution_s": traced, "tracing_overhead_s": traced - tts,
                   "self_seconds": self_s, "layers": layers}
        with open(os.path.join(run["trace_dir"], "summary.json"), "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
        for layer, sec in sorted(self_s.items()):
            print("self time %-8s %12.6f s" % (layer, sec))
        print("trace: %s  (tracing overhead %+.4f s)" % (run["trace_dir"], traced - tts))
        metrics = {m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": float(values[m["name"]][0]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": True, "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
