"""Summarise one result set, or compare two (parent first, change second).

Usage:

    python3 perfbench/compare.py SET            # spread of each metric
    python3 perfbench/compare.py PARENT CHANGE  # verdict per (metric, workload)

A set is a directory of ``<workload>.jsonl`` files as written by sweep.py.
Metrics, directions and bounds come from BENCHMARK.json. Runs of the two
sets are paired by seed.

For every (end-to-end metric, workload) pair the comparison prints each
side's median and quartiles, the share of pairs the change won (ties count
for neither side) and one verdict:

- ``unresolved``: a side's quartile spread, as a share of its median, is
  wider than the bound, and not every change run beats every parent run;
- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``better``: the change won at least 9/10 of the pairs and the medians
  differ by more than the parent's quartile distance;
- ``within bound``: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(directory: Path) -> dict:
    """workload -> list of {"seed", "result"} in file order."""
    return {p.stem: [json.loads(line) for line in p.read_text().splitlines() if line.strip()]
            for p in sorted(Path(directory).glob("*.jsonl"))}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(runs: list, metric: str) -> dict:
    """seed -> value for runs that report the metric."""
    out = {}
    for run in runs:
        m = run["result"]["metrics"].get(metric)
        if m is not None and m["value"] is not None:
            out[run["seed"]] = m["value"]
    return out


def failed_share(runs: list) -> tuple:
    return (sum(r["result"]["failed"] for r in runs),
            sum(r["result"]["attempted"] for r in runs))


def spread(q: tuple) -> float:
    return (q[2] - q[0]) / q[1] if q[1] else float("inf")


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple:
    sign = 1.0 if better == "lower" else -1.0   # positive = worse
    qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
    pairs = [(a[s], b[s]) for s in a if s in b]
    won = sum(1 for x, y in pairs if sign * (y - x) < 0)
    share = won / len(pairs) if pairs else 0.0
    all_better = all(sign * (y - x) < 0 for x in a.values() for y in b.values())
    if max(spread(qa), spread(qb)) > bound and not all_better:
        word = "unresolved"
    elif sign * (qb[1] - qa[1]) > bound * abs(qa[1]):
        word = "worse"
    elif pairs and share >= 0.9 and sign * (qb[1] - qa[1]) < 0 and \
            abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        word = "better"
    else:
        word = "within bound"
    return qa, qb, won, len(pairs), word


def _fmt(q: tuple) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def summarise(sets: dict, spec: dict):
    print(f"{'workload':14s} {'metric':20s} {'n':>3s} {'median [q1, q3]':>32s} "
          f"{'spread':>7s} {'bound':>6s}")
    for workload, runs in sets.items():
        for m in spec["end_to_end"]:
            v = list(values(runs, m["name"]).values())
            if not v:
                continue
            q = quartiles(v)
            print(f"{workload:14s} {m['name']:20s} {len(v):3d} {_fmt(q):>32s} "
                  f"{spread(q):7.3f} {m['bound']:6.3f}"
                  f"{'' if spread(q) <= m['bound'] / 3 else '  (above a third of the bound)'}")
        f, n = failed_share(runs)
        print(f"{workload:14s} {'failed':20s} {f}/{n}")


def compare(parent: dict, change: dict, spec: dict) -> int:
    print(f"{'workload':14s} {'metric':20s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'won':>6s}  verdict")
    worse = 0
    for workload in sorted(set(parent) & set(change)):
        for m in spec["end_to_end"]:
            a, b = values(parent[workload], m["name"]), values(change[workload], m["name"])
            if not a or not b:
                continue
            qa, qb, won, pairs, word = verdict(a, b, m["better"], m["bound"])
            worse += word == "worse"
            print(f"{workload:14s} {m['name']:20s} {_fmt(qa):>30s} {_fmt(qb):>30s} "
                  f"{won:>2d}/{pairs:<3d}  {word}")
        fa, fb = failed_share(parent[workload]), failed_share(change[workload])
        print(f"{workload:14s} {'failed':20s} {fa[0]}/{fa[1]:<28} {fb[0]}/{fb[1]}")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    sets = [load(Path(p)) for p in argv]
    if len(sets) == 1:
        summarise(sets[0], spec)
        return 0
    return compare(sets[0], sets[1], spec)


if __name__ == "__main__":
    sys.exit(main())
