"""Metric derivation for the repo benchmark (see perfbench/README.md).

The workload driver (driver.cc) reports raw observations: set-up times,
every timed request with its latency and outcome, and in traced windows
the counter deltas, phases and planner decision of each query. This
module pools the documents of a run's driver processes, turns the pooled
document into the end-to-end metrics (untraced windows) or the per-layer
metrics (traced windows), with the number of samples behind each value,
and validates metric sets against BENCHMARK.json.
"""

import math
import re
import statistics

MIB = float(1 << 20)

# Metric names and units accepted in BENCHMARK.json.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# --- Statistics --------------------------------------------------------------

def percentile_rank(n, p):
    """1-based nearest rank of the p-th percentile (integer p) of n samples."""
    if n < 1:
        raise ValueError("no samples")
    return max(1, -(-p * n // 100))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of all
    samples at or below it."""
    ordered = sorted(values)
    return ordered[percentile_rank(len(ordered), p) - 1]


def samples_beyond(n, p):
    """How many of n samples lie strictly beyond the p-th percentile's rank."""
    return n - percentile_rank(n, p) if n > 0 else 0


def supports_percentile(n, p, beyond=10):
    """A percentile is reported only with at least `beyond` samples past it."""
    return samples_beyond(n, p) >= beyond


def median(values):
    return statistics.median(values) if values else 0.0


# --- Pooling the driver processes of one run ---------------------------------

# Facts that are per-process totals; the others are the same in every process.
SUMMED_FACTS = ("versions_created", "versions_reclaimed", "acked_rows")


def merge_windows(windows):
    """One window holding the requests and summed time of `windows`; extra
    counters add up, except maxima (`*_max`)."""
    extra = {}
    for w in windows:
        for key, value in w["extra"].items():
            if key.endswith("_max"):
                extra[key] = max(extra.get(key, value), value)
            else:
                extra[key] = extra.get(key, 0) + value
    return {"traced": windows[0]["traced"],
            "elapsed_s": sum(w["elapsed_s"] for w in windows),
            "extra": extra,
            "requests": [r for w in windows for r in w["requests"]]}


def merge(docs):
    """Pools the documents of a run's driver processes into one."""
    out = dict(docs[0])
    for key in ("setup_s", "generate_s", "build_s", "checks"):
        out[key] = [v for d in docs for v in d[key]]
    for key in ("peak_rss_mb", "enclave_heap_peak_mb"):
        out[key] = max(d[key] for d in docs)
    out["facts"] = dict(docs[0]["facts"])
    for key in SUMMED_FACTS:
        if key in out["facts"]:
            out["facts"][key] = sum(d["facts"][key] for d in docs)
    out["windows"] = [merge_windows([d["windows"][i] for d in docs])
                      for i in range(len(docs[0]["windows"]))]
    out["spans"] = [d["spans"] for d in docs]
    return out


# --- Outcome counting --------------------------------------------------------

def error_counts(doc):
    """(attempted, failed) over every timed request and every correctness
    check. A request fails when the call failed or was rejected, or when its
    output differed from the expectation."""
    attempted = failed = 0
    for window in doc["windows"]:
        for r in window["requests"]:
            attempted += 1
            failed += not (r["ok"] and r["correct"])
    for check in doc["checks"]:
        attempted += 1
        failed += not check["ok"]
    return attempted, failed


def error_rate(attempted, failed):
    return failed / attempted if attempted else 1.0


# --- End-to-end metrics (untraced window) ------------------------------------

def _queries(window):
    """Successful queries; in a traced window each carries its detail."""
    return [r for r in window["requests"] if r["kind"] == "q" and r["ok"]]


def _batches(window):
    return [r for r in window["requests"] if r["kind"] == "u"]


def _qps(window):
    return len(_queries(window)) / window["elapsed_s"]


def end_to_end(doc):
    """{name: (value, samples)} for the end-to-end metrics."""
    window = doc["windows"][0]
    lat = [r["latency_ns"] / 1e6 for r in _queries(window)]
    n = len(lat)
    return {
        "qps": (_qps(window), n),
        "latency_p50_ms": (percentile(lat, 50), n),
        "latency_p95_ms": (percentile(lat, 95), n),
        "enclave_heap_peak_mb": (doc["enclave_heap_peak_mb"],
                                 len(doc["setup_s"])),
        "setup_s": (median(doc["setup_s"]), len(doc["setup_s"])),
    }


# --- Per-layer metrics (traced window) ---------------------------------------

def _phase_ms(query, pred):
    """Milliseconds of the query's phases whose name satisfies `pred`
    (QueryReport::ToJson renders each phase as {name: ns})."""
    return sum(ns for phase in query["detail"]["report"]["phases"]
               for name, ns in phase.items() if pred(name)) / 1e6


def _is_fused(name):
    return re.match(r"^q[0-9a-z]*\.", name) is not None


def _is_join(name, *parts):
    return name.startswith("join_") and any(p in name for p in parts)


PHASE_GROUPS = {
    "exec.fused_ms": _is_fused,
    "scan.filter_ms": lambda n: n.startswith(("filter_", "refine_")),
    "join.partition_ms": lambda n: _is_join(n, ".hist", ".copy"),
    "join.build_ms": lambda n: n.startswith("join_") and n.endswith(".build"),
    "join.probe_ms": lambda n: n.startswith("join_") and n.endswith(".probe"),
    "tpch.gather_ms": lambda n: n.startswith("gather_"),
    "tpch.group_ms": lambda n: n.startswith("group_by_"),
}

# name -> (report field, divisor) for per-query means of report deltas.
REPORT_MEANS = {
    "sgx.ecalls_per_query": ("ecalls", 1),
    "sgx.transition_cycles_per_query": ("transition_cycles", 1),
    "sgx.mutex_parks_per_query": ("mutex_parks", 1),
    "sgx.mutex_park_ms_per_query": ("mutex_park_ns", 1e6),
    "sgx.edmm_pages_per_query": ("edmm_pages_added", 1),
    "mem.arena_mb_per_query": ("arena_bytes", MIB),
    "exec.morsels_per_query": ("morsels", 1),
    "tpch.materialized_mb_per_query": ("bytes_materialized", MIB),
    "storage.reloads_per_query": ("partitions_reloaded", 1),
    "storage.prefetch_loads_per_query": ("storage_prefetch_loads", 1),
    "storage.decrypt_mb_per_query": ("storage_decrypt_bytes", MIB),
    "storage.evictions_per_query": ("partitions_evicted", 1),
    "storage.pin_waits_per_query": ("storage_pin_waits", 1),
}


def _share(part, whole):
    return part / whole if whole else 0.0


def qerror(estimate, actual):
    """Symmetric estimation error, >= 1; both sides clamped at one row."""
    e, a = max(estimate, 1.0), max(actual, 1.0)
    return max(e, a) / min(e, a)


def per_layer(doc, attempted, failed):
    """{name: (value, samples)} for the per-layer metrics. Layers a
    workload does not reach report 0."""
    untraced, traced = doc["windows"][0], doc["windows"][1]
    queries = _queries(traced)
    n = len(queries)
    if n == 0:
        raise ValueError("traced window completed no query")
    reports = [q["detail"]["report"] for q in queries]

    def total(field):
        return sum(r[field] for r in reports)

    out = {"error_rate": (error_rate(attempted, failed), attempted)}

    # Writer: commit latency from each batch's due time, untraced window.
    batches = _batches(untraced)
    commit = [b["latency_ns"] / 1e6 for b in batches if b["ok"]]
    rows = sum(b["count"] for b in batches if b["ok"])
    writer_s = untraced["extra"].get("writer_window_s", 0)
    out["commit_p50_ms"] = (percentile(commit, 50) if commit else 0.0,
                            len(commit))
    out["commit_p99_ms"] = (percentile(commit, 99) if commit else 0.0,
                            len(commit))
    out["commit_rows_per_s"] = (rows / writer_s if writer_s else 0.0,
                                len(batches))

    for name, (field, div) in REPORT_MEANS.items():
        out[name] = (total(field) / div / n, n)
    out["mem.peak_rss_mb"] = (doc["peak_rss_mb"], len(doc["setup_s"]))
    out["mem.pool_hit_rate"] = (
        _share(total("pool_hits"), total("pool_hits") + total("pool_misses")),
        n)
    out["exec.steal_share"] = (_share(total("morsel_steals"),
                                      total("morsels")), n)
    for name, pred in PHASE_GROUPS.items():
        out[name] = (sum(_phase_ms(q, pred) for q in queries) / n, n)
    out["tpch.phase_residual_ms"] = (
        sum(q["detail"]["report"]["wall_ns"] / 1e6 - _phase_ms(q, bool)
            for q in queries) / n, n)

    plans = [q["detail"]["plan"] for q in queries]
    out["plan.decide_us"] = (median([p["decide_ns"] / 1e3 for p in plans]),
                             n)
    out["plan.fused_share"] = (sum(p["fused"] for p in plans) / n, n)
    out["plan.root_qerror_p50"] = (
        median([qerror(q["detail"]["plan"]["root_est_rows"], q["count"])
                for q in queries]), n)

    facts = doc["facts"]
    loads = total("partitions_reloaded") + total("storage_prefetch_loads")
    out["storage.build_s"] = (median(doc["build_s"]), len(doc["build_s"]))
    out["storage.compression_ratio"] = (facts.get("compression_ratio", 0.0),
                                        1 if "compression_ratio" in facts
                                        else 0)
    out["storage.prefetch_share"] = (_share(total("storage_prefetch_loads"),
                                            loads),
                                     n)

    extra = traced["extra"]
    traced_writer_s = extra.get("writer_window_s", 0)
    traced_batches = _batches(traced)
    out["txn.versions_per_s"] = (
        _share(extra.get("versions_created", 0), traced_writer_s),
        len(traced_batches))
    out["txn.cow_mb_per_s"] = (
        _share(extra.get("cow_bytes", 0) / MIB, traced_writer_s),
        len(traced_batches))
    out["txn.reclaimed_share"] = (
        _share(facts.get("versions_reclaimed", 0),
               facts.get("versions_created", 0)),
        1 if "versions_created" in facts else 0)
    out["txn.retired_pending_max"] = (extra.get("retired_pending_max", 0),
                                      len(traced_batches))
    exec_ms = [b["detail"]["exec_ns"] / 1e6 for b in traced_batches]
    out["txn.commit_exec_ms_p99"] = (
        percentile(exec_ms, 99) if exec_ms else 0.0, len(exec_ms))

    served = [q for q in queries if "queue_ns" in q["detail"]]
    queue_ms = [q["detail"]["queue_ns"] / 1e6 for q in served]
    exec_q_ms = [q["detail"]["exec_ns"] / 1e6 for q in served]
    out["serve.queue_ms_p50"] = (percentile(queue_ms, 50) if served else 0.0,
                                 len(served))
    out["serve.queue_ms_p95"] = (percentile(queue_ms, 95) if served else 0.0,
                                 len(served))
    out["serve.exec_ms_p95"] = (percentile(exec_q_ms, 95) if served else 0.0,
                                len(served))
    out["serve.granted_threads_mean"] = (
        _share(sum(q["detail"]["granted_threads"] for q in served),
               len(served)), len(served))
    out["serve.rejected"] = (
        sum(w["extra"].get("rejected", 0) for w in doc["windows"]),
        len(served))

    late = [b["detail"]["late_ns"] / 1e6
            for w in doc["windows"] for b in _batches(w)]
    out["load.writer_late_ms_max"] = (max(late) if late else 0.0, len(late))
    out["setup.generate_s"] = (median(doc["generate_s"]),
                               len(doc["generate_s"]))
    out["trace.overhead_ratio"] = (_qps(traced) / _qps(untraced), n)
    return out


# --- Validation against BENCHMARK.json ---------------------------------------

def validate_spec(spec):
    """Problems with the metric and workload names of BENCHMARK.json."""
    problems = []
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            name = entry["name"]
            if not NAME_RE.match(name):
                problems.append(f"{section}: bad name {name!r}")
            if name in seen:
                problems.append(f"{section}: duplicate name {name!r}")
            seen.add(name)
            if "unit" in entry and not UNIT_RE.match(entry["unit"]):
                problems.append(f"{name}: bad unit {entry['unit']!r}")
    return problems


def validate_metrics(metrics, spec_metrics):
    """Problems with a computed {name: (value, samples)} against one
    BENCHMARK.json metric list: every name present, no extra, finite."""
    problems = []
    expected = {m["name"] for m in spec_metrics}
    for name in sorted(expected - metrics.keys()):
        problems.append(f"missing metric {name}")
    for name in sorted(metrics.keys() - expected):
        problems.append(f"unexpected metric {name}")
    for name, (value, _) in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} is not a finite number: {value}")
    return problems
