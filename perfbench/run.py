#!/usr/bin/env python3
"""Service benchmark entry point.

Builds the benchmark (perfbench/CMakeLists.txt over the repository's
src/ tree) and runs one workload:

    python3 perfbench/run.py --workload cold_small_noise --seed 1 \
        --seconds 10 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1
the per-layer ones. Two more modes:

    python3 perfbench/run.py --selftest
        the benchmark's own checks (percentiles, self time, seeded
        sequences, cache construction);
    python3 perfbench/run.py --steadiness [--workload NAME ...]
        runs each workload in two sets of ten runs, seeds 1..10, and
        writes the median and quartile spread of every end-to-end metric
        against its bound, and the drift between the two sets' medians,
        to perfbench/STEADINESS.md. It exits nonzero if a spread or the
        drift exceeds the metric's bound.

Everything the benchmark writes goes under the build directory
($CARGO_TARGET_DIR, default .bench_build) of the checkout it runs in.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["cold_small_noise", "warm_small_noise", "restart_med",
             "ingest_small_noise"]
RUN_TIMEOUT_S = 170
STEADY_RUNS = 10  # runs per set, seeds 1..STEADY_RUNS
STEADY_SETS = 2


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return os.path.join(path, "perfbench")


def build(targets):
    """Configures once, then builds `targets`; build output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine",
                                       "reclaim_service.h")):
        fail("no src/ tree at " + ROOT + ": nothing to build")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", out, "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    out = build_dir()
    run_dir = os.path.join(out, "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--run-dir", run_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, text = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        # run() has killed and reaped the child; no result line is printed.
        code, text = 124, ""
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
    spans = os.path.join(run_dir, "spans.json")
    if os.path.isfile(spans):
        keep = os.path.join(out, "spans")
        os.makedirs(keep, exist_ok=True)
        shutil.move(spans, os.path.join(
            keep, "%s-seed%d.json" % (workload, seed)))
    shutil.rmtree(run_dir, ignore_errors=True)
    return code, text


def last_json(text):
    lines = [l for l in text.strip().splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def detail(text):
    for line in text.splitlines():
        if line.startswith("# detail "):
            return json.loads(line[len("# detail "):])
    return {}


def selftest():
    out = build(["perfbench", "perfbench_selftest"])
    if subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode:
        fail("selftest: unit checks failed")
    binary = os.path.join(out, "perfbench")
    runs = {}
    for name, workload in [("warm_a", "warm_small_noise"),
                           ("warm_b", "warm_small_noise"),
                           ("cold", "cold_small_noise")]:
        code, text = run_once(binary, workload, 7, 1, 0)
        result = last_json(text)
        if code != 0 or result is None or not result["correct"]:
            fail("selftest: %s run failed" % name)
        runs[name] = (result, detail(text))
    (wa, da), (wb, db) = runs["warm_a"], runs["warm_b"]
    checks = [
        ("same seed, same operation sequence",
         da["ops_digest"] == db["ops_digest"]),
        ("same seed, same eis_mean",
         wa["metrics"]["eis_mean"]["value"] ==
         wb["metrics"]["eis_mean"]["value"]),
        ("warm: every timed request hits",
         da["cache_misses"] == 0 and da["cache_hits"] == da["ops"]),
        ("cold: every timed request misses",
         runs["cold"][1]["cache_hits"] == 0 and
         runs["cold"][1]["cache_misses"] == runs["cold"][1]["ops"]),
    ]
    ok = True
    for name, passed in checks:
        print("%-40s %s" % (name, "ok" if passed else "FAILED"))
        ok &= passed
    if not ok:
        sys.exit(1)
    print("selftest passed")


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else 0


def drift(a, b, better):
    """How much worse the worse of two medians is, as a share of the
    better one; the same whichever set ran first."""
    best = min(a, b) if better == "lower" else max(a, b)
    return abs(a - b) / best if best else 0


def steadiness(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    metrics = config["end_to_end"]
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    binary = os.path.join(build(["perfbench"]), "perfbench")
    lines = ["# Steadiness runs", "",
             "`python3 perfbench/run.py --steadiness`: %d sets of %d runs, "
             "run_seconds %d, seeds 1..%d. A run's spread is (q3 - q1) / "
             "median; the drift is |median 1 - median 2| / the better "
             "median. Both must stay within the metric's bound." % (
                 STEADY_SETS, STEADY_RUNS, config["run_seconds"],
                 STEADY_RUNS), ""]
    stamp = None
    ok = True
    for workload in workloads:
        sets = []
        for s in range(STEADY_SETS):
            values = {m["name"]: [] for m in metrics}
            values["host_calib_ms"] = []
            for seed in range(1, STEADY_RUNS + 1):
                started = time.monotonic()
                code, text = run_once(binary, workload, seed,
                                      config["run_seconds"], 0)
                result = last_json(text)
                if code != 0 or result is None or not result["correct"]:
                    fail("%s seed %d failed" % (workload, seed))
                stamp = stamp or detail(text).get("env")
                values["host_calib_ms"].append(
                    statistics.mean(detail(text)["host_calib_ms"]))
                for m in metrics:
                    values[m["name"]].append(
                        result["metrics"][m["name"]]["value"])
                print("%s set %d seed %d done in %.1f s" % (
                    workload, s, seed, time.monotonic() - started),
                      file=sys.stderr)
            sets.append(values)
        lines += ["## " + workload, "",
                  "| metric | bound | set | median | q1 | q3 | spread or drift | "
                  "/ bound |", "|---|---|---|---|---|---|---|---|"]
        for m in metrics:
            for s, values in enumerate(sets):
                med, q1, q3, sp = spread(values[m["name"]])
                ratio = sp / m["bound"]
                if sp > m["bound"]:
                    ok = False
                lines.append("| %s | %.2f | %d | %.6g | %.6g | %.6g | %.4f "
                             "| %.2f |" % (m["name"], m["bound"], s + 1, med,
                                           q1, q3, sp, ratio))
            d = drift(statistics.median(sets[0][m["name"]]),
                      statistics.median(sets[1][m["name"]]), m["better"])
            if d > m["bound"]:
                ok = False
            lines.append("| %s | %.2f | drift | | | | %.4f | %.2f |" % (
                m["name"], m["bound"], d, d / m["bound"]))
        calib = ", ".join("%.3f" % statistics.median(v["host_calib_ms"])
                          for v in sets)
        lines += ["", "Median `host_calib_ms` per set: " + calib, ""]
    lines += ["Environment: `%s`" % json.dumps(stamp), ""]
    with open(os.path.join(BENCH_DIR, "STEADINESS.md"), "w") as f:
        f.write("\n".join(lines))
    print("\n".join(lines))
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--steadiness", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.steadiness:
        return steadiness(args)
    if not args.workload or len(args.workload) != 1:
        fail("give exactly one --workload (one of %s)" % ", ".join(WORKLOADS))
    if args.workload[0] not in WORKLOADS:
        fail("unknown workload " + args.workload[0])
    binary = os.path.join(build(["perfbench"]), "perfbench")
    code, text = run_once(binary, args.workload[0], args.seed, args.seconds,
                          args.trace)
    sys.stdout.write(text)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
