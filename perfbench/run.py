"""liftreach benchmark: one run of one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload {band-reach,tangent-reach,certify}
                             --seed N --seconds S --trace {0,1}

The seed makes the workload's scenario files; the program only sees those
files, parsed and run through ``parse_scenario`` and ``runner.run`` as a
user's ``liftreach run`` would. Each round runs in a fresh interpreter.

``--trace 0`` repeats whole rounds while another round still fits in S
seconds (at least one) and reports the end-to-end metrics as medians over
rounds. ``--trace 1`` runs one untraced reference round and two traced
rounds, checks that tracing changed no artifact byte and no count, and
reports the per-layer metrics.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5   # setup_s is the median of at least this many fresh setups
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "time_to_verdict_s": "s", "cpu_s": "s",
                    "peak_rss_mib": "MiB"}
EXTRA_LAYER_UNITS = {"runner.artifact_bytes": "bytes", "tracing.overhead_s": "s"}


class BenchError(Exception):
    pass


class Rounds:
    """Spawns worker rounds one at a time, each waited for, under one deadline."""

    def __init__(self, work: Path, plan_path: Path, scenarios: dict, seed: int):
        self.work, self.plan_path, self.scenarios, self.seed = work, plan_path, scenarios, seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def spawn(self, mode: str) -> dict:
        self.count += 1
        tag = f"{mode}-{self.count}"
        job = {"src": str(SRC), "mode": mode, "seed": self.seed, "scenarios": self.scenarios,
               "plan": str(self.plan_path), "out": str(self.work / tag),
               "result": str(self.work / f"{tag}.result.json"),
               "spans": str(self.work / f"{tag}.spans.npz")}
        job_path = self.work / f"{tag}.job.json"
        job_path.write_text(json.dumps(job))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the round started")
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                                  cwd=ROOT, stdout=sys.stderr, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} round exceeded the run deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} round exited with status {proc.returncode}")
        result = json.loads(Path(job["result"]).read_text())
        result["wall_s"] = time.perf_counter() - start
        return result


def timed(rounds: Rounds, seconds: float):
    """Whole rounds while another fits in `seconds`; end-to-end medians."""
    done = []
    begin = time.perf_counter()
    while True:
        done.append(rounds.spawn("timed"))
        if time.perf_counter() - begin + done[-1]["wall_s"] > seconds:
            break
    setups = [r["setup_s"] for r in done]
    while len(setups) < SETUP_SAMPLES:
        setups.append(rounds.spawn("setup")["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "time_to_verdict_s": statistics.median(r["time_to_verdict_s"] for r in done),
        "cpu_s": statistics.median(r["cpu_s"] for r in done),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in done),
    }
    samples = {"setup_s": len(setups)} | {k: len(done) for k in metrics if k != "setup_s"}
    return done, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, samples, []


def traced(rounds: Rounds):
    """Reference round, then two traced rounds; per-layer metrics."""
    ref = rounds.spawn("timed")
    runs = [rounds.spawn("traced"), rounds.spawn("traced")]
    problems = []
    for k, r in enumerate(runs, 1):
        if r["artifacts"] != ref["artifacts"]:
            diff = sorted(p for p in set(r["artifacts"]) | set(ref["artifacts"])
                          if r["artifacts"].get(p) != ref["artifacts"].get(p))
            problems.append(f"traced round {k} changed artifacts: {diff}")
    units = {name: unit for name, (unit, _) in tracing.METRICS.items()} | EXTRA_LAYER_UNITS
    metrics = {}
    for name, unit in units.items():
        if name == "runner.artifact_bytes":
            values = [r["artifact_bytes"] for r in runs]
        elif name == "tracing.overhead_s":
            values = [r["time_to_verdict_s"] - ref["time_to_verdict_s"] for r in runs]
        else:
            values = [r["layers"][name] for r in runs]
        if unit == "s":
            value = None if None in values else statistics.median(values)
        else:
            value = values[0]
            if values[0] != values[1]:
                problems.append(f"{name} differs between traced rounds: {values}")
        metrics[name] = (value, unit)
    for hook in runs[0]["missing_hooks"]:
        print(f"perfbench: hook target {hook} is absent", file=sys.stderr)
    samples = {name: 2 for name in metrics}
    return [ref] + runs, metrics, samples, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "liftreach" / "__init__.py").is_file():
        print(f"perfbench: no liftreach package under {SRC}", file=sys.stderr)
        return 2
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = workloads.build(args.workload, args.seed, SRC / "liftreach" / "data")
        scenarios = plan.write(work / "scenarios")
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(dataclasses.asdict(plan)))
        rounds = Rounds(work, plan_path, scenarios, args.seed)
        if args.trace:
            done, metrics, samples, problems = traced(rounds)
        else:
            done, metrics, samples, problems = timed(rounds, args.seconds)
    except (workloads.WorkloadError, BenchError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems += [f for r in done for f in r["failures"]]
    for p in problems:
        print(f"perfbench: FAILED CHECK {p}", file=sys.stderr)
    attempted = plan.operations() * len(done)
    failed = sum(r["failed"] for r in done)
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(done)}  "
          f"operations {attempted}  failed {failed}  checks "
          f"{'ok' if not problems else f'{len(problems)} failed'}")
    if not args.trace:
        print("  rounds' time_to_verdict_s: "
              + " ".join(f"{r['time_to_verdict_s']:.3f}" for r in done))
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:28s} {shown:>12s} {unit:10s} (n={samples[name]})")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
