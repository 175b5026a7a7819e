#!/usr/bin/env python3
"""Repo benchmark: builds the workload driver from source, runs one workload
and prints its metrics (perfbench/README.md).

    python3 perfbench/run.py --workload olap_resident --seed 1 \\
        --seconds 15 --trace 0

Run it from the repository root. With --trace 0 the last stdout line
carries the end-to-end metrics of BENCHMARK.json; with --trace 1 the
per-layer metrics. The lines before it give provenance and the sample
count behind each metric. Every run also writes its metrics, provenance
and (traced runs) spans to .bench_build/perfbench/results/. The exit code
is 0 only when every request and correctness check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
# A run is PROCESSES driver processes, each with its own set-up and a
# window of --seconds / PROCESSES; their windows are pooled and setup_s is
# the median of their set-ups. Separate processes average over the
# per-process performance regimes of a shared host and keep one set-up's
# allocator state out of the next one.
PROCESSES = 3
# Pooled queries a run must hold so that ten lie beyond p95.
MIN_QUERIES = 200
# A hung driver process fails the run; three timeouts stay under 3 min.
DRIVER_TIMEOUT_S = 55

sys.path.insert(0, HERE)
import metrics  # noqa: E402


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "perfbench_driver", "-j", jobs],
                   stdout=sys.stderr, check=True)


def source_digest():
    """SHA-256 over the engine and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def host_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_driver(args, seconds, min_queries):
    # Engine knobs stay at their shipped defaults: no SGXBENCH_* variable
    # from the caller's environment reaches the driver.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SGXBENCH_")}
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--min-queries", str(min_queries)]
    r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                       timeout=DRIVER_TIMEOUT_S)
    if r.returncode != 0:
        raise RuntimeError(f"driver exited with {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def run_workload(args):
    seconds = args.seconds / PROCESSES
    min_queries = -(-MIN_QUERIES // PROCESSES)
    return metrics.merge([run_driver(args, seconds, min_queries)
                          for _ in range(PROCESSES)])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = metrics.validate_spec(spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        problems.append(f"unknown workload {args.workload}")
    if problems:
        log("\n".join(problems))
        return 2

    build()
    doc = run_workload(args)

    attempted, failed = metrics.error_counts(doc)
    if args.trace:
        computed = metrics.per_layer(doc, attempted, failed)
        spec_metrics = spec["per_layer"]
    else:
        computed = metrics.end_to_end(doc)
        spec_metrics = spec["end_to_end"]
    problems = metrics.validate_metrics(computed, spec_metrics)
    if problems:
        log("\n".join(problems))
        return 2

    n_lat = computed["latency_p95_ms"][1] if not args.trace else None
    if n_lat is not None and not metrics.supports_percentile(n_lat, 95):
        log(f"warning: only {metrics.samples_beyond(n_lat, 95)} samples "
            f"beyond p95 ({n_lat} queries)")
    for check in doc["checks"]:
        if not check["ok"]:
            log(f"check failed: {check['what']}")

    units = {m["name"]: m["unit"] for m in spec_metrics}
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "host_model": host_model(),
        **doc["facts"],
        "samples": {name: n for name, (_, n) in computed.items()},
    }
    record = {
        "provenance": provenance,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]}
                    for name, (v, _) in computed.items()},
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out_path = os.path.join(
        RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as f:
        json.dump({**record, "spans": doc["spans"]}, f)

    for name, (value, n) in computed.items():
        print(f"{name:34s} {value:14.4f} {units[name]:12s} n={n}")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # On SIGTERM, subprocess.run kills and reaps the child it is waiting
    # for before the exit propagates, so no driver outlives a stopped run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        sys.exit(2)
