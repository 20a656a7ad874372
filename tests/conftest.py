"""Shared fixtures: built-in scenarios are parsed and run once per session.

Property tests draw the same examples on every run and keep no example
database, so a run is reproducible. hypothesis still caches the constants
it reads from the source; that cache goes to a directory removed at exit,
so a run leaves no .hypothesis/ behind.
"""

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from liftreach.runner import run
from liftreach.scenario import builtin_scenario_names, load_builtin

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@pytest.fixture(scope="session")
def scenarios():
    return {name: load_builtin(name) for name in builtin_scenario_names()}


@pytest.fixture(scope="session")
def scenario_runs(scenarios, tmp_path_factory):
    out_root = tmp_path_factory.mktemp("runs")
    return {
        name: run(s, seed=0, out_dir=out_root / name)
        for name, s in scenarios.items()
    }
