#!/usr/bin/env python3
"""Diff two BENCH_*.json artifacts and report throughput movement.

The bench binaries emit one JSON object per row::

    {"bench": "<heading>", "label": "<row label>", "value": "<text>"}

This tool joins two such files on (bench, label), keeps the rows whose
values parse as numbers and whose labels look like throughput or speedup
metrics (states/s, nets/s, speedup, ... — configurable with --metric), and
prints old vs new with the relative change.  With --fail-below PCT the exit
status is 1 when any tracked metric regressed by more than PCT percent,
which makes the script usable both as a local trajectory viewer::

    tools/bench_diff.py /tmp/prev/BENCH_scaling.json BENCH_scaling.json

and as a CI regression tripwire alongside the hard speedup gates::

    tools/bench_diff.py old.json new.json --fail-below 30

Rows present in only one artifact are reported informationally (added /
removed) and never fail the run: benches grow and retire rows across PRs,
and a diff spanning such a change must still compare what it can.  A second
label class, --info-metric (engine-health rows like probe rate or the obs
idle overhead, and the "row B/state" footprint rows, where lower is
better), is displayed with deltas but exempt from --fail-below — those
metrics legitimately move both ways, so a drop is not a regression.
"""

from __future__ import annotations

import argparse
import json
import re
import sys


def load_rows(path: str) -> dict[tuple[str, str], float]:
    """(bench, label) -> numeric value, for every parseable row."""
    rows: dict[tuple[str, str], float] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if not isinstance(row, dict):
                    continue
                bench = row.get("bench")
                label = row.get("label")
                value = row.get("value")
                if not isinstance(bench, str) or not isinstance(label, str):
                    continue
                try:
                    rows[(bench, label)] = float(value)
                except (TypeError, ValueError):
                    continue
    except OSError as error:
        sys.exit(f"bench_diff: cannot read {path}: {error}")
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Diff throughput rows across two BENCH_*.json artifacts."
    )
    parser.add_argument("old", help="baseline artifact (e.g. from the previous run)")
    parser.add_argument("new", help="current artifact")
    parser.add_argument(
        "--metric",
        default=(
            r"(states/s|nets/s|nodes/s|st/s|requests/s|mutants/s|nets/second"
            r"|/second|speedup|throughput|reduction ratio|spill identical)"
        ),
        help="regex selecting the labels to track (default: throughput-ish rows "
        "— which includes the external-memory 'spill states/s @…' series — "
        "the stubborn-reduction ratios, and the spill bit-identity row)",
    )
    parser.add_argument(
        "--info-metric",
        default=(
            r"(probe rate|shard imbalance|overhead pct|dedupe? hit rate|latency ms"
            r"|row B/state)"
        ),
        metavar="REGEX",
        help="regex selecting labels shown with deltas but exempt from "
        "--fail-below (default: the obs engine-health and service latency "
        "rows, and the bytes-per-state rows, where lower is better); empty "
        "disables",
    )
    parser.add_argument(
        "--fail-below",
        type=float,
        metavar="PCT",
        help="exit 1 when any tracked metric drops by more than PCT percent",
    )
    args = parser.parse_args()

    metric = re.compile(args.metric)
    info = re.compile(args.info_metric) if args.info_metric else None

    def classify(label: str) -> str | None:
        """'info' beats 'tracked': health rows stay exempt even when they
        also look like throughput (e.g. "obs idle overhead pct")."""
        if info is not None and info.search(label):
            return "info"
        if metric.search(label):
            return "tracked"
        return None

    old_rows = load_rows(args.old)
    new_rows = load_rows(args.new)

    common = sorted(
        key for key in (old_rows.keys() & new_rows.keys()) if classify(key[1])
    )
    added = sorted(
        key for key in (new_rows.keys() - old_rows.keys()) if classify(key[1])
    )
    removed = sorted(
        key for key in (old_rows.keys() - new_rows.keys()) if classify(key[1])
    )
    if not common and not added and not removed:
        print("bench_diff: no tracked metrics in either artifact")
        return 0

    width = max(len(label) for _, label in common + added + removed)
    width = max(width, len("metric"))
    regressions: list[tuple[str, float]] = []
    print(f"{'metric':<{width}} {'old':>14} {'new':>14} {'delta':>9}")
    for bench, label in common:
        old = old_rows[(bench, label)]
        new = new_rows[(bench, label)]
        delta = (new - old) / old * 100.0 if old != 0 else float("inf")
        suffix = "   (info)" if classify(label) == "info" else ""
        print(f"{label:<{width}} {old:>14.2f} {new:>14.2f} {delta:>+8.1f}%{suffix}")
        if (
            classify(label) == "tracked"
            and args.fail_below is not None
            and delta < -args.fail_below
        ):
            regressions.append((label, delta))

    # One-sided rows are informational: a freshly added or just-retired row
    # has no trajectory to judge, so it can never fail the run.
    for bench, label in added:
        print(f"{label:<{width}} {'-':>14} {new_rows[(bench, label)]:>14.2f}    added")
    for bench, label in removed:
        print(f"{label:<{width}} {old_rows[(bench, label)]:>14.2f} {'-':>14}  removed")

    if regressions:
        print()
        for label, delta in regressions:
            print(f"REGRESSION: {label} fell {delta:+.1f}% "
                  f"(threshold -{args.fail_below}%)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
