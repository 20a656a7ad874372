"""The benchmark's layer trace wraps library functions by name from outside the
package; a renamed or deleted target silently turns its metrics into null.
Every target must exist and every layer that a metric needs be installed."""

import json
import os
import subprocess
import sys
from pathlib import Path

import liftreach

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SCRIPT = """
import json, liftreach, tracing
t = tracing.Tracer()
t.install()
needed = sorted({layer for _, layers in tracing.METRICS.values() for layer in layers})
print(json.dumps({"missing": t.missing, "absent": [l for l in needed if l not in t.installed]}))
"""


def test_every_trace_hook_target_exists():
    src = str(Path(liftreach.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PERFBENCH), src]))
    done = subprocess.run([sys.executable, "-c", SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"missing": [], "absent": []}
