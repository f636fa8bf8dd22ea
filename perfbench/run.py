#!/usr/bin/env python3
"""Archytas benchmark: builds the benchmark binary from this checkout, runs one
workload, checks its outputs and prints its metrics (perfbench/README.md).

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --compare BASE_DIR CAND_DIR
    python3 perfbench/run.py --self-test

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Every run also writes a result
record, with its provenance manifest, under .bench_build/perfbench/results.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import analysis  # noqa: E402

ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = BUILD_DIR / "results"
BINARY = BUILD_DIR / "archytas_perfbench"
BUILD_TYPE = "RelWithDebInfo"   # the repository's default build type
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Sources whose digest identifies the code under test.
DIGEST_ROOTS = ("CMakeLists.txt", "src", "perfbench")


def threads():
    """ARCHYTAS_THREADS for every run: min(nproc, 4)."""
    return min(os.cpu_count() or 1, 4)


def build():
    """Configures (until a configure succeeds) and builds the benchmark binary;
    returns False on failure after copying the build log to standard
    error."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    steps = []
    # CMake writes the Makefile only when configuring succeeded; later
    # builds re-run CMake themselves when a build file changes.
    if not (BUILD_DIR / "Makefile").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "archytas_perfbench", "-j", str(threads())])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                print("perfbench: build failed: %s" % err, file=sys.stderr)
                return False
            if done.returncode != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                print("perfbench: build failed (%s)" % " ".join(cmd),
                      file=sys.stderr)
                return False
    return BINARY.exists()


def cmake_cache():
    cache = {}
    path = BUILD_DIR / "CMakeCache.txt"
    if path.exists():
        for line in path.read_text().splitlines():
            if line.startswith(("#", "//")) or "=" not in line:
                continue
            key, _, value = line.partition("=")
            if ":" in key:
                cache[key.split(":")[0]] = value
    return cache


def source_digest():
    h = hashlib.sha256()
    for root in DIGEST_ROOTS:
        path = ROOT / root
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*")
            if p.is_file() and "__pycache__" not in p.parts)
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def manifest(raw, args):
    cache = cmake_cache()
    return {
        "benchmark": "archytas-perfbench-1",
        "workload": raw["workload"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "contracts": raw["contracts"],
        "sanitizer": cache.get("ARCHYTAS_SANITIZE") or "none",
        "telemetry_compiled": raw["telemetry_compiled"],
        "simd_backend": raw["simd_backend"],
        "archytas_threads": raw["threads"],
        "nproc": os.cpu_count(),
        "compiler": "%s %s" % (cache.get("CMAKE_CXX_COMPILER", "c++"),
                               raw["compiler"]),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_workload(workload, args):
    """Runs one workload; returns (Result, manifest) or None on a crash."""
    env = dict(os.environ, ARCHYTAS_THREADS=str(threads()))
    cmd = [str(BINARY), workload, "--seed", str(args.seed),
           "--seconds", repr(float(args.seconds)), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        print("perfbench: %s exited with %d" % (workload, done.returncode),
              file=sys.stderr)
        return None
    raw = json.loads(done.stdout.strip().splitlines()[-1])
    res = analysis.RESULT_OF[workload](raw, threads())
    listed = analysis.PER_LAYER if args.trace else analysis.END_TO_END
    for entry in listed:
        value = res.metrics.get(entry[0], (None,))[0]
        res.check("reports %s" % entry[0],
                  value is not None and math.isfinite(value))
    bad_names = [n for n in res.metrics if not analysis.valid_metric_name(n)]
    res.check("metric names valid", not bad_names, ", ".join(bad_names))
    return res, manifest(raw, args)


def print_report(workload, res):
    print("== %s ==" % workload)
    for name in sorted(res.metrics):
        value, unit, clock = res.metrics[name]
        note = res.notes.get(name, "")
        print("  %-34s %14.6g %-13s %-5s %s"
              % (name, value, unit, clock, note))
    for name, ok, detail in res.checks:
        if not ok:
            print("  CHECK FAILED: %s %s" % (name, detail))
    print("  checks: %d/%d passed; frames attempted %d, failed %d"
          % (sum(ok for _, ok, _ in res.checks), len(res.checks),
             res.attempted, res.failed))


def save(workload, res, man):
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    record = {
        "manifest": man,
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {n: {"value": v, "unit": u, "clock": c}
                    for n, (v, u, c) in res.metrics.items()},
        "checks": [{"name": n, "ok": ok, "detail": d}
                   for n, ok, d in res.checks],
    }
    path = RESULTS_DIR / ("%s-seed%d-trace%d-%d.json"
                          % (workload, man["seed"], man["trace"],
                             time.time_ns()))
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def run(args):
    if not build():
        return 1
    workloads = analysis.WORKLOADS if args.workload == "all" else (
        args.workload,)
    results = []
    for workload in workloads:
        outcome = run_workload(workload, args)
        if outcome is None:
            return 1
        res, man = outcome
        print_report(workload, res)
        save(workload, res, man)
        results.append((workload, res))

    metrics = {}
    for workload, res in results:
        for name, m in analysis.contract_metrics(res, args.trace).items():
            key = name if len(results) == 1 else workload + "." + name
            metrics[key] = m
    correct = all(res.correct for _, res in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(res.attempted for _, res in results),
        "failed": sum(res.failed for _, res in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def load_records(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def compare(base_path, cand_path):
    """Pools each side per (workload, trace) and prints medians, quartiles
    and the candidate/base ratio of every metric."""
    base, cand = load_records(base_path), load_records(cand_path)

    def groups(records):
        out = {}
        for r in records:
            key = (r["manifest"]["workload"], r["manifest"]["trace"])
            out.setdefault(key, []).append(r)
        return out

    gb, gc = groups(base), groups(cand)
    if not gb or set(gb) != set(gc):
        print("perfbench: the two sides ran different workloads",
              file=sys.stderr)
        return 2
    for key in sorted(gb):
        try:
            analysis.check_comparable(gb[key], gc[key])
        except analysis.ManifestMismatch as err:
            print("perfbench: %s: %s" % (key[0], err), file=sys.stderr)
            return 2
        print("== %s (trace %d): %d runs per side ==" % (key[0], key[1],
                                                          len(gb[key])))
        for name in sorted(gb[key][0]["metrics"]):
            b = [r["metrics"][name]["value"] for r in gb[key]]
            c = [r["metrics"][name]["value"] for r in gc[key]
                 if name in r["metrics"]]
            if len(c) != len(b):
                continue
            mb, qb1, qb3 = analysis.spread(b)
            mc, qc1, qc3 = analysis.spread(c)
            ratio = mc / mb if mb else float("nan")
            print("  %-34s base %12.6g [%.6g, %.6g]  cand %12.6g "
                  "[%.6g, %.6g]  ratio %.4f %s"
                  % (name, mb, qb1, qb3, mc, qc1, qc3, ratio,
                     gb[key][0]["metrics"][name]["unit"]))
    return 0


def self_test():
    suite = unittest.defaultTestLoader.discover(str(BENCH_DIR),
                                                pattern="test_*.py")
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=analysis.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CAND"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
