"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds records appended by ``run.py --out`` (any mix of workloads,
seeds and traced or untraced runs).  For every workload the comparison
prints each end-to-end metric's median and quartiles on both sides with a
verdict, then each per-layer metric's median on both sides and the delta.

An end-to-end verdict follows the bound in ``BENCHMARK.json``:

* ``unresolved`` — the base runs spread (quartile distance over median)
  wider than the bound, so the sets cannot tell a regression from noise,
  unless every change run reads better than every base run (``better``);
* ``regressed`` — the change median is worse than the base median by more
  than the bound;
* ``improved`` — better by more than the base quartile distance, with the
  change run better in at least nine of every ten pairs;
* ``unchanged`` — otherwise.

Runs pair up by seed when both sides ran the same seeds (run them in
alternating order, base and change back to back), else every base run pairs
with every change run.  The machine's speed drifts between sets run minutes
apart, so only alternated pairs support an ``improved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path) -> dict:
    """``{(workload, traced): {metric: {seed: value}}}`` plus the stamps seen."""
    groups: dict = {}
    stamps = set()
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        key = (record["workload"], bool(record["trace"]))
        for name, value in record["metrics"].items():
            groups.setdefault(key, {}).setdefault(name, {})[record["seed"]] = float(value)
        stamp = record.get("stamp", {})
        stamps.add((stamp.get("commit", "?")[:12], stamp.get("host", "?")))
    return {"groups": groups, "stamps": sorted(stamps)}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as the benchmark's bounds use them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: dict, change: dict, bound: float, better: str) -> str:
    """End-to-end verdict of one metric on one workload (see module docstring).

    ``base`` and ``change`` map seed -> value.
    """
    b1, b2, b3 = quartiles(list(base.values()))
    _, c2, _ = quartiles(list(change.values()))
    sign = 1.0 if better == "lower" else -1.0
    if (b3 - b1) / abs(b2) > bound:
        wins = all(sign * c < sign * b for c in change.values() for b in base.values())
        return "better" if wins else "unresolved"
    worse_by = sign * (c2 - b2) / abs(b2)
    if worse_by > bound:
        return "regressed"
    if set(base) == set(change):
        pairs = [sign * (change[seed] - base[seed]) for seed in base]
    else:
        pairs = [sign * (c - b) for c in change.values() for b in base.values()]
    if -sign * (c2 - b2) > b3 - b1 and sum(p < 0 for p in pairs) >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def compare(base: dict, change: dict, spec: dict) -> list[str]:
    """Lines of the comparison report."""
    lines = [f"base:   {base['stamps']}", f"change: {change['stamps']}"]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = sorted({w for w, _ in base["groups"]} | {w for w, _ in change["groups"]})
    for workload in workloads:
        lines.append(f"\n== {workload}")
        b = base["groups"].get((workload, False), {})
        c = change["groups"].get((workload, False), {})
        for name, metric in e2e.items():
            if name not in b or name not in c:
                continue
            bq, cq = quartiles(list(b[name].values())), quartiles(list(c[name].values()))
            delta = (cq[1] - bq[1]) / abs(bq[1])
            lines.append(
                f"  {name:16s} base {bq[1]:11.4g} [{bq[0]:.4g}, {bq[2]:.4g}] n={len(b[name])}"
                f"  change {cq[1]:11.4g} [{cq[0]:.4g}, {cq[2]:.4g}] n={len(c[name])}"
                f"  {delta:+7.1%} {units[name]:5s} "
                f"{verdict(b[name], c[name], metric['bound'], metric['better'])}")
        b = base["groups"].get((workload, True), {})
        c = change["groups"].get((workload, True), {})
        for name in sorted(set(b) & set(c)):
            bm, cm = statistics.median(b[name].values()), statistics.median(c[name].values())
            if bm == 0 and cm == 0:
                continue
            share = f"{(cm - bm) / abs(bm):+7.1%}" if bm else "    new"
            lines.append(f"  {name:40s} {bm:11.4g} -> {cm:11.4g}  {cm - bm:+11.4g} "
                         f"{share} {units.get(name, '')}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("\n".join(compare(load(args.base), load(args.change), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
