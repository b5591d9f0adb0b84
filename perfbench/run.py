#!/usr/bin/env python3
"""End-to-end benchmark of the jigsaw reproduction.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles ../src) on
first use, runs one workload, checks its outputs, and prints each metric
by name with its unit; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload optimize_fig1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

--workload all runs every workload in turn, each in its own processes,
and ends with one JSON object mapping each workload to its result.

--trace 0 reports the end-to-end metrics. The workload runs in one
process; setup_s is the median cold time to first answer over that
process and 4 to 20 further fresh processes, half of them started
before it and half after. --trace 1 runs the workload again with spans
around every layer call and reports the per-layer metrics instead
(perfbench/README.md lists them).

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout; results, with the stamp of the measured tree, go to
<build>/perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("optimize_fig1", "join_1e6", "serve_mixed", "chain_fig5")
END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)
# Fresh processes that only set up and answer once, for setup_s, run in
# two batches, one before the workload run and one after it, so that
# their median spans the run's time. Each batch takes at least
# MIN_PROBES, then more while PROBE_BUDGET_S lasts, at most MAX_PROBES.
MIN_PROBES, MAX_PROBES, PROBE_BUDGET_S = 2, 10, 2.0
# Every run must end well inside 180 seconds.
RUN_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30

ROOT = Path(__file__).resolve().parent.parent


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    cmake_dir = build_dir() / "cmake"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(cmake_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for attempt in range(2):
        ok = True
        if not (cmake_dir / "CMakeCache.txt").exists():
            ok = subprocess.run(configure, stdout=sys.stderr,
                                stderr=sys.stderr).returncode == 0
        if ok:
            ok = subprocess.run(
                ["cmake", "--build", str(cmake_dir), "--target", target,
                 "-j", jobs], stdout=sys.stderr,
                stderr=sys.stderr).returncode == 0
        if ok:
            return cmake_dir / target
        if attempt == 0 and (cmake_dir / "CMakeCache.txt").exists():
            log("perfbench: build failed; reconfiguring from scratch")
            shutil.rmtree(cmake_dir, ignore_errors=True)
            continue
        break
    return None


def run_binary(binary, args, timeout):
    """Runs the benchmark binary; returns its JSON report or None."""
    try:
        proc = subprocess.run([str(binary)] + args, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {' '.join(args)} timed out after {timeout}s")
        return None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        log("perfbench: unreadable report: " + lines[-1][:200])
        return None


def git(*args):
    try:
        proc = subprocess.run(["git", "-C", str(ROOT)] + list(args),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def tree_digest():
    """SHA-256 over the measured sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def stamp(report):
    commit = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = git("status", "--porcelain") if commit else None
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "tree_sha256": tree_digest(),
        "compiler": report.get("compiler"),
        "build_type": report.get("build_type"),
        "nproc": nproc,
    }


def run_probes(binary, common):
    """One batch of cold set-up probes; None if one fails."""
    probes, started = [], time.monotonic()
    while len(probes) < MAX_PROBES and (
            len(probes) < MIN_PROBES
            or time.monotonic() - started < PROBE_BUDGET_S):
        probe = run_binary(binary, common + ["--seconds", "1", "--trace", "0",
                                             "--setup-only"], PROBE_TIMEOUT_S)
        if probe is None:
            return None
        probes.append(probe)
    return probes


def selftest():
    """Runs the C++ tests, then checks that short runs report the metrics
    BENCHMARK.json declares, with the same units: trace 0 on every
    workload (the end-to-end metrics this script passes on), trace 1 on
    one (every traced run reports the same per-layer list)."""
    test = build("perfbench_test")
    binary = build("perfbench")
    if test is None or binary is None:
        return 2
    if subprocess.run([str(test)]).returncode != 0:
        return 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    end_to_end = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    if list(END_TO_END) != end_to_end:
        failures.append(f"end_to_end: BENCHMARK.json declares {end_to_end}, "
                        f"run.py reports {list(END_TO_END)}")
    runs = [(w, 0, end_to_end) for w in WORKLOADS]
    runs.append(("chain_fig5", 1,
                 [(m["name"], m["unit"]) for m in declared["per_layer"]]))
    for workload, trace, want in runs:
        report = run_binary(binary, ["--workload", workload, "--seed", "1",
                                     "--seconds", "0.2", "--trace",
                                     str(trace)], RUN_TIMEOUT_S)
        got = {k: v["unit"] for k, v in (report or {}).get(
            "metrics", {}).items()}
        if trace:
            ok = list(got.items()) == want
        else:
            ok = all(got.get(name) == unit for name, unit in want)
        if not ok:
            failures.append(f"{workload} trace {trace}: BENCHMARK.json "
                            f"declares {want}, the run reports {got}")
    for failure in failures:
        log("perfbench selftest: " + failure)
    if not failures:
        print("perfbench selftest: metrics match BENCHMARK.json")
    return 1 if failures else 0


def run_all(args):
    results, rc = {}, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[workload] = json.loads(lines[-1]) if lines else None
        rc = rc or proc.returncode or (results[workload] is None)
    print(json.dumps(results))
    return int(rc)


def fmt(value):
    return f"{value:.6g}" if abs(value) < 1e6 else f"{value:.0f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0x5160534A00000001)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)

    binary = build("perfbench")
    if binary is None:
        log("perfbench: build failed")
        return 2

    out_dir = build_dir() / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    started = time.monotonic()

    probes = [] if args.trace else run_probes(binary, common)
    if probes is None:
        log("perfbench: set-up probe failed")
        return 1

    main_args = common + ["--seconds", str(args.seconds), "--trace",
                          str(args.trace)]
    if args.trace:
        main_args += ["--spans", str(out_dir / f"spans-{args.workload}.tsv")]
    report = run_binary(binary, main_args, RUN_TIMEOUT_S)
    if report is None:
        log("perfbench: the workload run produced no report")
        return 1
    after = [] if args.trace else run_probes(binary, common)
    if after is None:
        log("perfbench: set-up probe failed")
        return 1
    probes += after

    attempted = report["attempted"] + sum(p["attempted"] for p in probes)
    failed = report["failed"] + sum(p["failed"] for p in probes)
    errors = list(report["errors"])
    for i, probe in enumerate(probes):
        errors += probe["errors"]
        if probe["failed"] == 0 and probe["first_digest"] != report["first_digest"]:
            failed += 1
            errors.append(f"set-up probe {i}: first answer digest "
                          f"{probe['first_digest']} != {report['first_digest']}")

    metrics = report["metrics"]
    if args.trace:
        names = list(metrics)
    else:
        setup_samples = [report["setup_s"]] + [p["setup_s"] for p in probes]
        metrics["setup_s"] = {"value": statistics.median(setup_samples),
                              "unit": "s"}
        names = [name for name, _ in END_TO_END]
    final_metrics = {}
    for name in names:
        m = metrics.get(name)
        if m is None or m["value"] is None:
            failed += 1
            errors.append(f"metric {name} was not measured")
            continue
        final_metrics[name] = {"value": m["value"], "unit": m["unit"]}
    correct = failed == 0

    tree = stamp(report)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("  measured tree: " + ", ".join(f"{k}={v}" for k, v in tree.items()))
    for name, m in final_metrics.items():
        line = f"  {name:<28} {fmt(m['value']):>14} {m['unit']}"
        if name == "latency_p50_ms":
            line += (f"   ({int(metrics['latency_samples']['value'])} "
                     "operations, first excluded)")
        if name == "setup_s":
            samples = ", ".join(f"{s:.4g}" for s in sorted(setup_samples))
            line += f"   (median of {len(setup_samples)} cold processes: {samples})"
        print(line)
    if not args.trace:
        p99 = metrics.get("latency_p99_ms")
        if p99 is not None:
            print(f"  {'latency_p99_ms':<28} {fmt(p99['value']):>14} ms")
        else:
            print(f"  {'latency_p99_ms':<28} {'-':>14}      (not reported: "
                  "fewer than 10 operations beyond the 99th percentile)")
    for note in report["notes"]:
        print("  note: " + note)
    for error in errors:
        print("  FAILED: " + error)
    print(f"  checks: {attempted} operations attempted, {failed} failed")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": final_metrics}
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "stamp": tree,
              "elapsed_s": time.monotonic() - started, "run": report,
              "setup_probes": probes, "errors": errors, "result": result}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
