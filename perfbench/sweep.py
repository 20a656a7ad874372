"""Run the benchmark over many seeds and collect result sets for compare.py.

Usage:

    python3 perfbench/sweep.py --seeds 1-10 [--workloads band-reach,...] \
        [--set NAME=CHECKOUT ...]

Each ``--set NAME=CHECKOUT`` names a checkout (a tree holding src/ and
perfbench/) to run; the default is one set, ``this``, for the checkout this
file is in. Runs are made one at a time. With several sets, every seed runs
each set once, and the order of the sets rotates from seed to seed so that
neither side always runs first. Results are appended, one JSON line per
run, to ``.perfbench_out/sets/NAME/<workload>.jsonl`` of this checkout.
Every run is untraced (``--trace 0``): compare.py reads the end-to-end
metrics only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETS = HERE.parent / ".perfbench_out" / "sets"


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--set", action="append", default=[], metavar="NAME=CHECKOUT")
    args = parser.parse_args(argv)

    sets = [tuple(s.split("=", 1)) for s in args.set] or [("this", str(HERE.parent))]
    for k, seed in enumerate(_seeds(args.seeds)):
        order = sets[k % len(sets):] + sets[:k % len(sets)]
        for workload in args.workloads.split(","):
            for name, checkout in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0"]
                proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{name} {workload} seed {seed}: exit {proc.returncode}",
                          file=sys.stderr)
                    return 1
                target = SETS / name
                target.mkdir(parents=True, exist_ok=True)
                with open(target / f"{workload}.jsonl", "a") as fh:
                    fh.write(json.dumps({"seed": seed, "result": json.loads(lines[-1])}) + "\n")
                print(f"{name} {workload} seed {seed}: {lines[-1]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
