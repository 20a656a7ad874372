"""One benchmark round in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json

A round is what a user pays for ``liftreach run`` on each of the
workload's generated scenarios: import, parse, run every experiment with
an output directory, in a new process, so no state survives from an
earlier round. The job file names the mode:

- ``setup``: import liftreach and parse the scenarios only;
- ``timed``: also run, then check the outputs;
- ``traced``: as timed, with layer hooks installed before parsing.

An operation is one experiment together with the checks on it. It fails
when its scenario's run raised or when any check on it failed.

The result (timings, counts, failed operations and checks, artifact
digests) is written as JSON to the path the job names.
"""

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_seconds() -> float:
    """User plus system time of this process and of any children it reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _artifacts(out: Path) -> dict:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def main(job_path: str) -> int:
    t0 = time.perf_counter()
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    import liftreach  # noqa: F401  (loads every submodule the hooks bind to)

    tracer = None
    if job["mode"] == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    from liftreach import parse_scenario, runner

    parsed = {stem: parse_scenario(path) for stem, path in job["scenarios"].items()}
    result = {"setup_s": time.perf_counter() - t0}
    if job["mode"] != "setup":
        result.update(_run(job, parsed, runner, tracer))
    Path(job["result"]).write_text(json.dumps(result))
    return 0


def _run(job: dict, parsed: dict, runner, tracer) -> dict:
    plan = json.loads(Path(job["plan"]).read_text())
    out = Path(job["out"])
    if tracer is not None:
        tracer.exp_id = tracer.RUN
    raised = {}
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    for stem, scenario in parsed.items():
        try:
            runner.run(scenario, seed=job["seed"], out_dir=out / stem)
        except Exception as exc:  # its experiments count as failed operations
            traceback.print_exc()
            raised[stem] = f"{type(exc).__name__}: {exc}"
    wall1, cpu1 = time.perf_counter(), _cpu_seconds()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks
    import workloads

    if tracer is not None:
        tracer.exp_id = tracer.CHECKS
    checker = checks.Checker(workloads.Plan(**plan), parsed, {s: out / s for s in parsed},
                             job["seed"])
    checker.run(raised)
    artifacts = _artifacts(out)
    result = {
        "time_to_verdict_s": wall1 - wall0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mib": peak_rss_mib,
        "failed": len(checker.failed_operations()),
        "failures": checker.messages(),
        "artifacts": artifacts,
        "artifact_bytes": sum((out / p).stat().st_size for p in artifacts),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["missing_hooks"] = tracer.missing
        tracer.write(job["spans"])
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
