#!/usr/bin/env python3
"""Faro benchmark: builds perfbench/faro_perfbench from source, runs one
workload and prints the result as the last line of standard output.

    python3 perfbench/run.py --workload serve-crash-10 --seed 1 --seconds 40 --trace 0

Run from the repository root. The build goes to .bench_build/perfbench (a
Release build of src/ plus faro_perfbench; nothing else of the repository is
built). Before any timing is reported the build's provenance is read from the
CMake cache and compiler -- a sanitizer or non-Release build is refused.

A run does a fixed amount of work, sized to take about BENCHMARK.json's
run_seconds; --seconds is accepted for the harness interface and does not
change the work. The seed chooses the run's sample paths from a fixed pool
per workload.

The last line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json; with --trace 1 the per_layer metrics, and the run also writes
a Chrome trace and a per-layer self-time table to .bench_out/.

Correctness gate (a failure prints correct=false and exits 1): every unit
measured twice must equal itself; lost utility, SLO violation rate, simulated
events, objective evaluations and Decide() calls of every path of the run
must equal the values perfbench/expected.json records for that pool path
(a path without a record fails); and the serve workload's paced run must
equal its batch run. --record re-runs every pool path of the workload and
rewrites its entry in expected.json (for intended behaviour changes only).
"""

import argparse
import fcntl
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "faro_perfbench")
EXPECTED = os.path.join(HERE, "expected.json")
GATE_KEYS = ("lost_utility", "slo_violation_rate", "sim.events", "optim.evals",
             "core.decide_calls")
# A run must end within 180 s (plus the build, in a fresh checkout).
RUN_TIMEOUT_S = 165


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: run from a full checkout of the repository")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "faro_perfbench", "-j", jobs])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True)
            if proc.returncode != 0:
                log(proc.stdout[-4000:])
                fail("build failed: " + " ".join(cmd))


def cmake_cache():
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Za-z0-9_]+):[A-Z]+=(.*)$", line.rstrip("\n"))
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def source_digest():
    """sha256 over src/ and perfbench/ sources: identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def provenance():
    """Read from outside the program: CMake cache, compile flags, compiler."""
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    flags = ""
    flags_make = os.path.join(BUILD, "CMakeFiles", "faro_perfbench.dir", "flags.make")
    if os.path.isfile(flags_make):
        with open(flags_make) as f:
            for line in f:
                if line.startswith("CXX_FLAGS = "):
                    flags = line[len("CXX_FLAGS = "):].strip()
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True).stdout.strip() or "none"
    except OSError:
        sha = "none"
    return {
        "git_sha": sha,
        "source_digest": source_digest(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "compiler": compiler,
        "compiler_version": version,
        "flags": flags,
        "sanitizer": cache.get("FARO_SANITIZE", ""),
        "nproc": os.cpu_count(),
    }


def check_release(prov):
    if prov["build_type"] != "Release":
        fail("refusing to report timings from a %r build" % prov["build_type"])
    if prov["sanitizer"] or "-fsanitize" in prov["flags"]:
        fail("refusing to report timings from a sanitizer build")


def gate(workload, raw):
    """Returns the correctness failures of one run."""
    g = raw["gate"]
    errors = []
    if not g["units_identical"]:
        errors.append("units on the same path differ in " + g["units_diff"])
    if not g["paced_matches_batch"]:
        errors.append("paced run differs from batch run in " + g["paced_diff"])
    recorded = {}
    if os.path.isfile(EXPECTED):
        with open(EXPECTED) as f:
            recorded = json.load(f).get(workload, {})
    for path in g["paths"]:
        want = recorded.get(str(path["pool_path"]))
        if want is None:
            errors.append("pool path %d of %s has no record" % (path["pool_path"], workload))
            continue
        for key in GATE_KEYS:
            if path[key] != want[key]:
                errors.append("pool path %d: %s = %r, recorded %r"
                              % (path["pool_path"], key, path[key], want[key]))
    return errors


def record(workload):
    """Runs every pool path of `workload` and rewrites its expected.json entry."""
    proc = subprocess.run([BINARY, "--workload", workload, "--record-pool", "--out-dir", OUT],
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail("faro_perfbench --record-pool exited with %d" % proc.returncode)
    pool = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = {}
    if os.path.isfile(EXPECTED):
        with open(EXPECTED) as f:
            expected = json.load(f)
    expected[workload] = {k: {key: v[key] for key in GATE_KEYS} for k, v in pool.items()}
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    log("perfbench: recorded %d pool paths of %s" % (len(pool), workload))


def self_time_table(raw):
    rows = raw["self_time_s"]
    wall = raw["wall_s"]
    lines = ["%-22s %10s %7s" % ("layer", "self_s", "share")]
    for name, secs in sorted(rows.items(), key=lambda kv: -kv[1]):
        lines.append("%-22s %10.4f %6.1f%%" % (name, secs, 100.0 * secs / wall))
    rest = wall - sum(rows.values())
    lines.append("%-22s %10.4f %6.1f%%" % ("(unaccounted)", rest, 100.0 * rest / wall))
    lines.append("%-22s %10.4f" % ("wall", wall))
    lines.append("%-22s %10.4f" % ("trace overhead/unit", raw["per_layer"]["trace.overhead_s"]))
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the workload's gate values in expected.json")
    args = parser.parse_args()
    if not args.record and (args.seed is None or args.seconds is None):
        parser.error("--seed and --seconds are required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload %r" % args.workload)

    build()
    prov = provenance()
    check_release(prov)
    os.makedirs(OUT, exist_ok=True)
    if args.record:
        record(args.workload)
        return

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", OUT]
    stem = "%s-seed%d" % (args.workload, args.seed)
    if args.trace:
        cmd += ["--trace-out", os.path.join(OUT, "trace-%s.json" % stem)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded its time budget")
    if proc.returncode != 0:
        fail("faro_perfbench exited with %d" % proc.returncode)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    errors = gate(args.workload, raw)
    for e in errors:
        log("perfbench: correctness: " + e)
    host = raw["per_layer"]
    print(json.dumps({
        "provenance": prov,
        "workload": args.workload, "seed": args.seed, "units": raw["units"],
        "unit_wall_s": raw["unit_wall_s"],
        "pool_paths": [p["pool_path"] for p in raw["gate"]["paths"]],
        "decide_samples": raw["decide_samples"], "scrape_samples": raw["scrape_samples"],
        "host": {k: host[k] for k in ("host.ref_ms", "host.ref_ms_end", "host.mem_ref_ms",
                                      "host.mem_ref_ms_end")},
        "gate": {k: raw["gate"][k] for k in GATE_KEYS},
    }))
    if args.trace:
        table = self_time_table(raw)
        log(table)
        with open(os.path.join(OUT, "selftime-%s.txt" % stem), "w") as f:
            f.write(json.dumps(prov) + "\n" + table + "\n")

    section = "per_layer" if args.trace else "end_to_end"
    values = raw[section]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in bench[section]}
    print(json.dumps({
        "correct": not errors,
        "attempted": raw["decide_attempted"] + raw["scrape_attempted"],
        "failed": raw["decide_failed"] + raw["scrape_failed"],
        "metrics": metrics,
    }))
    if errors:
        sys.exit(1)


if __name__ == "__main__":
    main()
