#!/usr/bin/env python3
"""trace_summary: summarize / validate a VTM Chrome trace_event JSON file.

The fleet engine (util/trace.hpp, DESIGN.md §16) records RAII spans ("X"
complete events) and instant markers ("i") on one track per lane (tid =
shard index, the last tid is the coordinator). This tool digests the export
without opening Perfetto:

  summary (default)
      Per-span-name aggregate over all lanes: count, total wall time, and
      *self* time (total minus the time covered by nested spans on the same
      lane — the quantity that ranks where the run actually went), plus a
      per-lane utilisation breakdown and the instant-marker counts.

  --validate
      Machine check for CI: the file must be a Chrome trace_event object
      with well-formed events (known phases, named, non-negative durations,
      per-lane spans properly nested), contain at least one span, and keep
      the engine's structural invariants (every "stream.flush" instant sits
      on a lane named "coordinator"; a lane with market.clear or
      comarket.clear spans also ran shard.window spans). Exit 0 when clean,
      1 with a reason per violation. tools/trace_fixtures/ holds one valid
      trace and one trace per violation.

Both modes check every event first: a malformed one (not an object, an
unknown phase, no string name, a non-integer tid, non-object args, a span
without a numeric ts or with a negative or non-numeric dur) is reported as
"trace_summary: INVALID: ..." with exit 1.

Usage:
  trace_summary.py TRACE.json [--top N] [--validate]
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

KNOWN_PHASES = {"X", "i", "M"}


def load_events(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("not a Chrome trace: missing top-level traceEvents")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents is not a list")
    return events


def lane_names(events: list[dict]) -> dict[int, str]:
    names = {}
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            names[ev.get("tid", 0)] = ev.get("args", {}).get("name", "?")
    return names


def spans_by_lane(events: list[dict]) -> dict[int, list[dict]]:
    lanes: dict[int, list[dict]] = defaultdict(list)
    for ev in events:
        if ev.get("ph") == "X":
            lanes[ev.get("tid", 0)].append(ev)
    for lane in lanes.values():
        # Parents first on ties: longer spans open before their children.
        lane.sort(key=lambda e: (e["ts"], -e.get("dur", 0)))
    return lanes


def self_times(lane: list[dict]) -> list[tuple[dict, float]]:
    """(event, self_time_us) per span, via a containment stack: a span's
    self time is its duration minus the durations of its direct children."""
    out = []
    stack: list[list] = []  # [end_ts, event, child_total]
    for ev in lane:
        ts, dur = ev["ts"], ev.get("dur", 0)
        while stack and ts >= stack[-1][0] - 1e-9:
            end, done, child = stack.pop()
            out.append((done, done.get("dur", 0) - child))
        if stack:
            stack[-1][2] += dur
        stack.append([ts + dur, ev, 0.0])
    while stack:
        end, done, child = stack.pop()
        out.append((done, done.get("dur", 0) - child))
    return out


def summarize(events: list[dict], top: int) -> None:
    names = lane_names(events)
    lanes = spans_by_lane(events)
    agg: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    lane_busy: dict[int, float] = defaultdict(float)
    for tid, lane in sorted(lanes.items()):
        for ev, self_us in self_times(lane):
            row = agg[ev["name"]]
            row[0] += 1
            row[1] += ev.get("dur", 0)
            row[2] += self_us
            lane_busy[tid] += self_us
    instants: dict[str, int] = defaultdict(int)
    for ev in events:
        if ev.get("ph") == "i":
            instants[ev["name"]] += 1

    total_self = sum(lane_busy.values()) or 1.0
    print(f"{'span':<24} {'count':>8} {'total ms':>10} {'self ms':>10} "
          f"{'self %':>7}")
    ranked = sorted(agg.items(), key=lambda kv: -kv[1][2])
    for name, (count, tot, self_us) in ranked[:top]:
        print(f"{name:<24} {int(count):>8} {tot / 1000.0:>10.3f} "
              f"{self_us / 1000.0:>10.3f} {100.0 * self_us / total_self:>6.1f}%")
    if len(ranked) > top:
        print(f"... {len(ranked) - top} more span name(s)")

    print("\nper-lane self time:")
    for tid in sorted(lanes):
        label = names.get(tid, f"tid {tid}")
        print(f"  {label:<14} {lane_busy[tid] / 1000.0:>10.3f} ms "
              f"({len(lanes[tid])} spans)")
    if instants:
        print("\ninstant markers:")
        for name in sorted(instants):
            print(f"  {name:<24} {instants[name]}")


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def event_errors(events: list) -> list[str]:
    """One reason per malformed event. Every other pass, the summary's
    included, indexes events as well-formed objects, so both modes run this
    first and stop when it finds anything."""
    errors = []
    for idx, ev in enumerate(events):
        if not isinstance(ev, dict):
            errors.append(f"event {idx}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in KNOWN_PHASES:
            errors.append(f"event {idx}: unknown phase {ph!r}")
            continue
        name = ev.get("name")
        if not name:
            errors.append(f"event {idx}: missing name")
        elif not isinstance(name, str):
            errors.append(f"event {idx}: non-string name {name!r}")
        if "tid" in ev and not is_integer(ev["tid"]):
            errors.append(f"event {idx}: non-integer tid {ev['tid']!r}")
        if "args" in ev and not isinstance(ev["args"], dict):
            errors.append(f"event {idx}: args is not an object")
        if ph == "X":
            if "ts" not in ev:
                errors.append(f"event {idx}: span without ts")
            elif not is_number(ev["ts"]):
                errors.append(f"event {idx}: span {ev.get('name')!r} has a "
                              "non-numeric ts")
            dur = ev.get("dur", -1)
            if not is_number(dur):
                errors.append(f"event {idx}: span {ev.get('name')!r} has a "
                              "non-numeric dur")
            elif dur < 0:
                errors.append(f"event {idx}: span {ev.get('name')!r} has "
                              "negative or missing dur")
    return errors


def validate(events: list[dict]) -> list[str]:
    errors = event_errors(events)
    if not any(isinstance(ev, dict) and ev.get("ph") == "X" for ev in events):
        errors.append("no complete ('X') spans — instrumentation recorded "
                      "nothing")
    if errors:
        return errors

    # Per-lane spans must nest: recording is single-threaded per lane and
    # spans are RAII scopes, so overlap without containment is a writer bug.
    lanes = spans_by_lane(events)
    for tid, lane in sorted(lanes.items()):
        open_ends: list[float] = []
        for ev in lane:
            ts, end = ev["ts"], ev["ts"] + ev.get("dur", 0)
            while open_ends and ts >= open_ends[-1] - 1e-9:
                open_ends.pop()
            if open_ends and end > open_ends[-1] + 1e-9:
                errors.append(
                    f"lane {tid}: span {ev['name']!r} at ts {ts} crosses its "
                    "enclosing span's end — spans must nest")
                break
            open_ends.append(end)

    # Structural invariants of the fleet engine's instrumentation. Markets
    # clear only inside a shard's window (or drain round, which follows its
    # windows), so a lane that cleared must also have run windows.
    for tid, lane in sorted(lanes.items()):
        span_names = {ev.get("name") for ev in lane}
        if (span_names & {"market.clear", "comarket.clear"}
                and "shard.window" not in span_names):
            errors.append(f"lane {tid}: market clearing spans but no "
                          "shard.window span — clearings run inside shard "
                          "windows")
    names = lane_names(events)
    coord_tids = {tid for tid, n in names.items() if n == "coordinator"}
    for idx, ev in enumerate(events):
        if ev.get("ph") == "i" and ev.get("name") == "stream.flush":
            if ev.get("tid") not in coord_tids:
                errors.append(f"event {idx}: stream.flush instant on lane "
                              f"{ev.get('tid')}, which is not named "
                              "\"coordinator\" — flushes are coordinator-"
                              "only")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trace", type=Path, help="Chrome trace JSON file")
    parser.add_argument("--top", type=int, default=12,
                        help="span names to list in the summary (default 12)")
    parser.add_argument("--validate", action="store_true",
                        help="CI mode: check well-formedness, exit 1 on any "
                             "violation")
    args = parser.parse_args()

    try:
        events = load_events(args.trace)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"trace_summary: {args.trace}: {err}", file=sys.stderr)
        return 1

    errors = validate(events) if args.validate else event_errors(events)
    for err in errors:
        print(f"trace_summary: INVALID: {err}")
    if errors:
        return 1
    if args.validate:
        spans = sum(1 for e in events if e.get("ph") == "X")
        instants = sum(1 for e in events if e.get("ph") == "i")
        print(f"trace_summary: OK ({spans} spans, {instants} instants, "
              f"{len(lane_names(events))} lanes)")
        return 0

    summarize(events, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
