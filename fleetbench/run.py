#!/usr/bin/env python3
"""Build and run the fleet-engine benchmark (see README.md here).

Usage, from the repository root:

  python3 fleetbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds this directory's CMake package (the
engine sources under src/ plus the `fleetbench` program) into
$CARGO_TARGET_DIR/fleetbench, default .bench_build/fleetbench; later calls
only rebuild what changed. Build output goes to stderr, so the last stdout
line is the JSON result. With --trace 1 the program writes each traced
run's Chrome trace; this script reduces them with tools/trace_summary.py
into the trace metrics, deletes them, and adds the metrics to the result.
Exits non-zero, printing no result, when the build or the run fails.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stream_chain", "stream_grid", "closed_oligopoly")
ADDR_NO_RANDOMIZE = 0x0040000  # <sys/personality.h>
# Span name -> metric name of its summed self time.
SELF_TIME_METRICS = {
    "shard.window": "core.fleet_shard.window_self_s",
    "shard.drain": "core.fleet_shard.drain_s",
    "market.clear": "core.spot_market.clear_s",
    "comarket.clear": "core.competitive_market.clear_s",
    "coord.exchange": "core.fleet_shard.exchange_s",
    "coord.arrivals": "core.fleet_shard.arrivals_s",
    "coord.flush": "core.fleet_shard.flush_s",
    "coord.merge": "core.fleet_shard.merge_s",
}
# Span name -> metric name of its share of the self time over all lanes.
SHARE_METRICS = {
    "shard.window": "core.fleet_shard.window_self_share",
    "market.clear": "core.spot_market.clear_share",
    "comarket.clear": "core.competitive_market.clear_share",
}


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "fleetbench"


def build(out: Path) -> None:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=850)


def fixed_layout() -> None:
    """Turn off address-space randomization for the exec'd program, as
    `setarch -R` does. With it on, each process draws its own heap and stack
    placement, and set-up times split into two modes about 1.8x apart from
    one process to the next. Best effort: the program runs either way and
    reports the setting in its provenance line."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(0xFFFFFFFF)
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                 "--short", "HEAD"], capture_output=True,
                                text=True, env=env, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() or "unknown"


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def reduce_trace(path: Path, since_us: float, run_s: float,
                 trace_summary) -> tuple[dict[str, float], list[str]]:
    """Trace metrics of one traced run, and the trace's validation errors.

    Self time per span comes from trace_summary's containment stacks. The
    critical path is the coordinator lane's self time plus, for each window
    phase, the slowest shard lane's top-level span: every shard lane runs
    exactly one window (or drain round) per phase."""
    events = trace_summary.load_events(path)
    errors = trace_summary.validate(events)
    coordinator = {tid for tid, name in trace_summary.lane_names(events).items()
                   if name == "coordinator"}
    self_s: dict[str, float] = defaultdict(float)
    lane_self_s: dict[int, float] = {}
    phases: list[list[float]] = []  # per shard lane, top-level span durations
    for tid, lane in trace_summary.spans_by_lane(events).items():
        lane = [ev for ev in lane if ev["ts"] >= since_us]
        busy_us = 0.0
        for ev, self_us in trace_summary.self_times(lane):
            self_s[ev["name"]] += 1e-6 * self_us
            busy_us += self_us
        lane_self_s[tid] = 1e-6 * busy_us
        if tid in coordinator:
            continue
        tops: list[float] = []
        end = float("-inf")
        for ev in lane:
            if ev["ts"] >= end - 1e-9:
                tops.append(ev.get("dur", 0))
                end = ev["ts"] + ev.get("dur", 0)
        phases.append(tops)
    shard_self = [v for tid, v in lane_self_s.items() if tid not in coordinator]
    coordinator_s = sum(v for tid, v in lane_self_s.items()
                        if tid in coordinator)
    total_s = sum(lane_self_s.values())
    critical_us = sum(max(lane[k] for lane in phases if k < len(lane))
                      for k in range(max(map(len, phases), default=0)))
    out = {metric: self_s.get(span, 0.0)
           for span, metric in SELF_TIME_METRICS.items()}
    out.update({metric: ratio(self_s.get(span, 0.0), total_s)
                for span, metric in SHARE_METRICS.items()})
    out["util.thread_pool.lane_imbalance"] = ratio(
        max(shard_self, default=0.0),
        ratio(sum(shard_self), len(shard_self)))
    out["util.thread_pool.coordinator_share"] = ratio(coordinator_s, run_s)
    out["trace.critical_path_share"] = ratio(
        coordinator_s + 1e-6 * critical_us, run_s)
    out["trace.wall_s"] = run_s
    return out, errors


def add_trace_metrics(result: dict) -> None:
    """Replace the program's "traces" list with the medians of their trace
    metrics; a trace that fails validation fails its run."""
    sys.path.insert(0, str(ROOT / "tools"))
    import trace_summary  # noqa: E402 (the repository's trace reader)

    samples: dict[str, list[float]] = defaultdict(list)
    for trace in result.pop("traces"):
        path = Path(trace["path"])
        try:
            values, errors = reduce_trace(path, trace["since_us"],
                                          trace["run_s"], trace_summary)
        finally:
            path.unlink(missing_ok=True)
        for err in errors:
            print(f"fleetbench: {path.name}: {err}", file=sys.stderr)
        if errors:
            result["failed"] += 1
            result["correct"] = False
        for name, value in values.items():
            samples[name].append(value)
    for name, values in samples.items():
        unit = "ratio" if name.endswith(("_share", "_imbalance")) else "s"
        result["metrics"][name] = {"value": statistics.median(values),
                                   "unit": unit}
        print(f"{name:<40} {statistics.median(values):.6g} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.
                                     RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"fleetbench: build failed: {err}", file=sys.stderr)
        return 1

    traces = out / "traces"
    if args.trace == 1:
        traces.mkdir(exist_ok=True)
    command = [str(out / "fleetbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--trace-dir", str(traces),
               "--git-sha", git_sha()]
    try:
        run = subprocess.run(command, preexec_fn=fixed_layout,
                             stdout=subprocess.PIPE, text=True,
                             timeout=max(150.0, 4 * args.seconds))
    except (OSError, subprocess.SubprocessError) as err:
        print(f"fleetbench: run failed: {err}", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        print(run.stdout, end="", file=sys.stderr)
        return run.returncode or 1
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    if args.trace == 1:
        add_trace_metrics(result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
