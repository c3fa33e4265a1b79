#!/usr/bin/env python3
"""Serving benchmark of PITEX: runs one named workload and prints its
metrics as one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--keep]

Run from the repository root (or any checkout of it). The first run
builds the benchmark binary into .bench_build/perfbench. Each workload's
parameters are fixed constants of the binary (documented in
perfbench/spec.json). --trace 0 prints the end-to-end metrics, --trace 1
the per-layer ledger. Raw measurements and, with --trace 1, the span
file stay under .bench_out/ with --keep.
"""

import argparse
import csv
import json
import os
import shutil
import signal
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import stats  # noqa: E402

ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "pitex_perfbench"
RUN_TIMEOUT_S = 170
WORKLOADS = ("index_zipf", "lazy_batch", "update_mix")
# The stated limit on |publish.residual_ratio|: the publish parts must
# account for the measured ApplyUpdates time to within this share.
PUBLISH_RESIDUAL_LIMIT = 0.25

# Per-layer spans whose durations are reported, with the unit scale.
SPAN_METRICS = {
    "admission.try_admit_ns": ("admission.try_admit", 1.0),
    "cache.lookup_ns": ("cache.lookup", 1.0),
    "cache.insert_ns": ("cache.insert", 1.0),
    "core.engine_bind_ms": ("core.engine_bind", 1e-6),
    "index.estimate_us": ("index.estimate", 1e-3),
    "dynamic_index.repair_ms": ("dynamic_index.repair", 1e-6),
    "sampling.estimate_us": ("sampling.estimate", 1e-3),
    "wal.append_us": ("wal.append", 1e-3),
    "wal.sync_ms": ("wal.sync", 1e-6),
    "wal.read_after_ms": ("wal.read_after", 1e-6),
    "snapshot.freeze_ms": ("snapshot.freeze", 1e-6),
    "snapshot.swap_us": ("snapshot.swap", 1e-3),
    "recovery.checkpoint_ms": ("recovery.checkpoint", 1e-6),
    "repl.encode_us": ("repl.encode", 1e-3),
    "repl.decode_us": ("repl.decode", 1e-3),
    "repl.follower_apply_ms": ("repl.follower_apply", 1e-6),
}
# Children of a replayed publish: the parts of one ApplyUpdates call.
PUBLISH_PARTS = {"wal.append", "wal.sync", "dynamic_index.repair",
                 "snapshot.freeze", "snapshot.swap", "recovery.checkpoint"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no PITEX sources next to perfbench/ (expected src/)")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(BUILD_DIR), "--target", "pitex_perfbench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def span_durations(path):
    """Durations (ns) by span name, and the replayed publishes' parts."""
    durations = defaultdict(list)
    rows = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            duration = int(row["end_ns"]) - int(row["start_ns"])
            durations[row["name"]].append(duration)
            rows[row["id"]] = (row["name"], row["parent"], row["request"],
                               duration)
    service_publish = {}
    replay_parts = defaultdict(int)
    for name, parent, request, duration in rows.values():
        if name == "publish":
            service_publish[request] = duration
        elif name in PUBLISH_PARTS and parent in rows \
                and rows[parent][0] == "publish.replay":
            replay_parts[request] += duration
    return durations, service_publish, replay_parts


def publish_residual(service_publish, replay_parts):
    """Share of the measured ApplyUpdates time the publish parts leave
    unaccounted, over the publishes both sides recorded; None if none."""
    joined = [r for r in service_publish if r in replay_parts]
    if not joined:
        return None
    return 1.0 - (sum(replay_parts[r] for r in joined)
                  / sum(service_publish[r] for r in joined))


def median_or_zero(values, scale=1.0):
    return stats.percentile(values, 50) * scale if values else 0.0


def mean_or_zero(values):
    return sum(values) / len(values) if values else 0.0


def end_to_end(raw):
    series, scalars = raw["series"], raw["scalars"]
    return {
        "setup_s": (stats.percentile(series["setup_s"], 50), "s"),
        "cpu_us_per_op": (sum(series["closed_loop.cpu_s"]) * 1e6
                          / sum(series["closed_loop.queries"]), "us"),
        "peak_rss_mb": (
            (scalars["peak_rss_kb"] - scalars["rss_baseline_kb"]) / 1024.0,
            "MiB"),
    }


def per_layer(raw, durations, residual):
    series, scalars = raw["series"], raw["scalars"]
    slo_ms = scalars["slo_ms"]
    ok = len(series.get("query.sojourn_ms", []))
    attempted = scalars.get("queries.attempted", 0)
    sojourn = series.get("query.sojourn_ms", [])
    met = sum(1 for s in sojourn if s <= slo_ms)
    pruned = sum(series.get("core.sets_pruned", []))
    evaluated = sum(series.get("core.sets_evaluated", []))
    queue_wait = series.get("scheduler.queue_wait_ms", [])
    solve = series.get("core.solve_ms", [])
    publish = series.get("publish.ms", [])
    lateness = series.get("loadgen.lateness_ms", [])
    wall_s = sum(series.get("closed_loop.wall_s", []))
    m = {
        "query_qps": (sum(series.get("closed_loop.queries", [])) / wall_s
                      if wall_s else 0.0, "1/s"),
        "query_p50_ms": (stats.windowed_percentile(sojourn, 50), "ms"),
        "query_p99_ms": (stats.windowed_percentile(sojourn, 99), "ms"),
        "admission.shed_ratio": (
            scalars.get("queries.shed", 0) / attempted if attempted else 0.0,
            "ratio"),
        "scheduler.queue_wait_p50_ms": (median_or_zero(queue_wait), "ms"),
        "scheduler.queue_wait_p99_ms": (
            stats.percentile(queue_wait, 99) if queue_wait else 0.0, "ms"),
        "scheduler.steal_ratio": (
            scalars.get("queries.stolen", 0) / ok if ok else 0.0, "ratio"),
        "cache.hit_ratio": (
            scalars.get("queries.cache_hits", 0) / ok if ok else 0.0,
            "ratio"),
        "core.solve_p50_ms": (median_or_zero(solve), "ms"),
        "core.solve_p99_ms": (
            stats.percentile(solve, 99) if solve else 0.0, "ms"),
        "core.bounds_per_query": (mean_or_zero(series.get("core.bounds", [])),
                                  "count"),
        "core.sets_evaluated_per_query": (
            mean_or_zero(series.get("core.sets_evaluated", [])), "count"),
        "core.pruned_ratio": (
            pruned / (pruned + evaluated) if pruned + evaluated else 0.0,
            "ratio"),
        "index.edges_per_query": (
            mean_or_zero(series.get("index.edges", [])), "count"),
        "index.size_mb": (scalars.get("index.size_bytes", 0) / 2**20, "MiB"),
        "sampling.samples_per_query": (
            mean_or_zero(series.get("sampling.samples", [])), "count"),
        "sampling.edges_per_query": (
            mean_or_zero(series.get("sampling.edges", [])), "count"),
        "publish.residual_ratio": (residual or 0.0, "ratio"),
        "publish.p50_ms": (median_or_zero(publish), "ms"),
        "publish.p90_ms": (
            stats.percentile(publish, 90) if publish else 0.0, "ms"),
        "loadgen.lateness_p99_ms": (
            stats.percentile(lateness, 99) if lateness else 0.0, "ms"),
        "failed_ratio": (raw["failed"] / raw["attempted"]
                         if raw["attempted"] else 0.0, "ratio"),
        "query_slo_miss_ratio": (1.0 - met / attempted if attempted else 0.0,
                                 "ratio"),
    }
    for name, (span, scale) in SPAN_METRICS.items():
        unit = name.rsplit("_", 1)[1]
        m[name] = (median_or_zero(durations.get(span, []), scale), unit)
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--keep", action="store_true")
    args = parser.parse_args()
    if args.workload not in WORKLOADS:
        fail("unknown workload %r (known: %s)"
             % (args.workload, ", ".join(WORKLOADS)))

    build()
    work = OUT_DIR / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--out", str(work)]
    try:
        # Its own session: the binary forks, and a timeout must stop both.
        proc = subprocess.Popen(command, start_new_session=True)
        try:
            returncode = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail("pitex_perfbench exceeded %d s" % RUN_TIMEOUT_S)
        if returncode != 0:
            fail("pitex_perfbench exited with code %d" % returncode)
        raw = json.loads((work / "raw.json").read_text())
        e2e = end_to_end(raw)
        checks = list(raw["checks"])
        metrics = e2e
        if args.trace:
            durations, service_publish, replay_parts = span_durations(
                work / "spans.csv")
            residual = publish_residual(service_publish, replay_parts)
            metrics = per_layer(raw, durations, residual)
            if residual is not None:
                checks.append({
                    "name": "publish_parts_account_for_apply_updates",
                    "ok": abs(residual) <= PUBLISH_RESIDUAL_LIMIT,
                    "detail": "residual %.4f of the ApplyUpdates time "
                              "(stated limit %.2f)"
                              % (residual, PUBLISH_RESIDUAL_LIMIT)})
    finally:
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)

    failed_checks = [c for c in checks if not c["ok"]]
    for c in failed_checks:
        print("perfbench: check failed: %s: %s" % (c["name"], c["detail"]),
              file=sys.stderr)
    print("perfbench: %s seed=%d end-to-end: %s" % (
        args.workload, args.seed,
        ", ".join("%s=%.6g" % (k, v) for k, (v, _) in e2e.items())),
        file=sys.stderr)
    print(json.dumps({
        "correct": not failed_checks,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
