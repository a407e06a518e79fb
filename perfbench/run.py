#!/usr/bin/env python3
"""scorpio benchmark runner.

Run one measurement (from the repository root):

    python3 perfbench/run.py --workload sobel_tiles --seed 1 --seconds 20 --trace 0

builds the benchmark binary from source with the repository's own CMake
project (into $CARGO_TARGET_DIR, default .bench_build), runs the workload
in a fresh process and prints every metric by name and unit.  The last
stdout line is the JSON result.  Every run is appended to
perfbench/history.jsonl, stamped with host, compiler, flags, SIMD width,
workers, git sha and seeds.  --trace 1 writes a Chrome trace and a flat
per-layer summary to perfbench/out/.

Steadiness (K fresh untraced processes per workload, seeds 1..K, each
measuring BENCHMARK.json's run_seconds):

    python3 perfbench/run.py steady --runs 10

prints each end-to-end metric's median, quartiles, IQR/median and
(max-min)/median, and flags a spread above a third of the metric's bound in
BENCHMARK.json.

Reference digests of the merged reports (perfbench/reference_digests.json):

    python3 perfbench/run.py digests --seeds 0-63
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "scorpio_perfbench"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_json(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench-cmake")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the scorpio sources (CMakeLists.txt, src/) are not next to "
             "perfbench/; run from a full checkout")
    bdir = build_dir()
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != ROOT:
            shutil.rmtree(bdir)
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", ROOT, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_PROJECT_scorpio_INCLUDE="
                      + os.path.join(HERE, "perfbench.cmake")])
    steps.append(["cmake", "--build", bdir, "--target", TARGET, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-6000:])
            fail("build step failed: " + " ".join(cmd), 3)
    return os.path.join(bdir, TARGET)


def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    return p.stdout.strip() if p.returncode == 0 else "none"


def tmp_root():
    """Scratch directory for shard and cache files, inside the checkout."""
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                        or ".bench_build", "perfbench-tmp",
                        "run-%d" % os.getpid())


def measure(argv):
    ap = argparse.ArgumentParser(description="run one benchmark workload")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args(argv)
    names = [w["name"] for w in load_json("../BENCHMARK.json")["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (one of %s)" % (args.workload,
                                                  ", ".join(names)))
    exe = build()
    tmp = tmp_root()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--tmp-dir", tmp,
           "--out-dir", os.path.join(HERE, "out"),
           "--history", os.path.join(HERE, "history.jsonl"),
           "--coverage-tolerance",
           str(load_json("layers.json")["span_coverage_tolerance"]),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    digest = load_json("reference_digests.json").get(
        args.workload, {}).get(str(args.seed))
    if digest:
        cmd += ["--expect-digest", digest]
    child = None

    def on_signal(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    try:
        child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True)
        try:
            out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            fail("workload did not finish within %d s" % RUN_TIMEOUT_S, 4)
        sys.stdout.write(out)
        sys.stdout.flush()
        if child.returncode != 0:
            fail("scorpio_perfbench exited with code %d" % child.returncode, 5)
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(tmp, ignore_errors=True)


def run_child(workload, seed, seconds):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("run of %s seed %d failed" % (workload, seed), 6)
    return json.loads(lines[-1])


def spread_table(values):
    """median, q1, q3, IQR/median, (max-min)/median of a list."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    rel = (lambda x: x / med) if med else (lambda x: float("nan"))
    return med, q1, q3, rel(q3 - q1), rel(max(values) - min(values))


def steady(argv):
    ap = argparse.ArgumentParser(description="steadiness of the end-to-end "
                                 "metrics: K fresh untraced runs per "
                                 "workload, seeds 1..K")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    bench = load_json("../BENCHMARK.json")
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    build()
    for name in [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in range(1, args.runs + 1):
            t0 = time.time()
            r = run_child(name, seed, seconds)
            runs.append(r)
            print("%s seed %d: correct=%s attempted=%d failed=%d (%.1f s)"
                  % (name, seed, r["correct"], r["attempted"], r["failed"],
                     time.time() - t0), flush=True)
        report[name] = {}
        print("\n%-28s %12s %12s %12s %9s %9s  %s" % (
            name, "median", "q1", "q3", "iqr/med", "rng/med", "bound/3"))
        for metric in runs[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            med, q1, q3, iqr, rng = spread_table(vals)
            bound = bounds[metric]
            flag = "%.4f %s" % (bound / 3, "ok" if iqr < bound / 3
                                else "WIDE")
            print("%-28s %12.6g %12.6g %12.6g %9.4f %9.4f  %s  [%s]" % (
                metric, med, q1, q3, iqr, rng, flag, unit))
            report[name][metric] = {"values": vals, "median": med,
                                    "q1": q1, "q3": q3, "iqr_rel": iqr,
                                    "range_rel": rng, "unit": unit}
        print(flush=True)
        if not all(r["correct"] and r["failed"] == 0 for r in runs):
            print("NOT CORRECT: some runs of %s failed" % name)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", "steady-%d.json" % int(time.time()))
    with open(path, "w") as f:
        json.dump({"runs": args.runs, "seconds": seconds,
                   "workloads": report}, f, indent=1)
    print("wrote " + os.path.relpath(path, ROOT))


def digests(argv):
    ap = argparse.ArgumentParser(description="regenerate reference digests")
    ap.add_argument("--seeds", default="0-63")
    args = ap.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    exe = build()
    names = [w["name"] for w in load_json("../BENCHMARK.json")["workloads"]]
    out = {}
    for name in names:
        out[name] = {}
        for seed in range(lo, hi + 1):
            tmp = tmp_root()
            try:
                p = subprocess.run(
                    [exe, "--workload", name, "--seed", str(seed),
                     "--setups", "1", "--tmp-dir", tmp, "--print-digest"],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True)
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            if p.returncode != 0:
                fail("digest of %s seed %d failed" % (name, seed), 6)
            out[name][str(seed)] = p.stdout.split()[-1]
            print(name, seed, out[name][str(seed)], flush=True)
    with open(os.path.join(HERE, "reference_digests.json"), "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "steady":
        steady(argv[1:])
    elif argv and argv[0] == "digests":
        digests(argv[1:])
    else:
        measure(argv)


if __name__ == "__main__":
    main()
