"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

All numeric tolerances are pinned here; loosening them is not allowed.
"""

import time

import numpy as np
import pytest

from liftreach.geometry import VectorField, interval_atlas
from liftreach.morphisms import (
    _metric_of,
    kernel_projector,
    verify_trajectory_preserving,
)
from liftreach.reach import reach
from liftreach.systems import (
    GeneratedSystem,
    Schedule,
    control_system_from_tcs,
    integrate,
    tcs_from_control_system,
)


def _report(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _experiment(result, name):
    return next(e for e in result.experiments if e["name"] == name)


def _scenario_morphisms(s):
    """Every constructed morphism paired with the system it lifts."""
    pairs = []
    for mname, spec in s.raw.get("morphisms", {}).items():
        pairs.append((mname, s.morphisms[mname], s.system(spec["target_system"])))
    for lname, spec in s.raw.get("so_lifts", {}).items():
        pairs.append((lname, s.morphisms[lname], s.system(spec["source"] + ".tcs")))
    return pairs


def test_criterion_1_pushforward_residuals(scenarios):
    """Pointwise lift identity over 10^3 samples for every morphism, with
    tolerance 1e-9 (analytic Jacobians) / 1e-6 (finite differences) and a
    10-second budget per scenario."""
    worst_overall = 0.0
    ok = True
    for name, s in scenarios.items():
        t0 = time.perf_counter()
        for mname, m, target in _scenario_morphisms(s):
            report = verify_trajectory_preserving(m, target, samples=1000,
                                                  schedules=0, seed=0)
            tol = 1e-9 if m.phi.analytic else 1e-6
            ok = ok and report["worst_residual"] <= tol
            worst_overall = max(worst_overall, report["worst_residual"])
        elapsed = time.perf_counter() - t0
        ok = ok and elapsed < 10.0
    _report(1, f"pushforward residual suite (worst {worst_overall:.2e}, "
               "1e-9 analytic / 1e-6 FD, <10s per scenario)", ok)


def test_criterion_2_mobius_end_to_end(scenario_runs):
    """Mobius scenario: downstairs coverage >= 0.99 on 100 cells, 5-sample
    fiber reachability set, upstairs coverage >= 0.99 on 40x40 from 5
    starts, all within 60 seconds."""
    result = scenario_runs["mobius"]
    down = _experiment(result, "reach-downstairs")
    band = _experiment(result, "reach-band")
    fiber = _experiment(result, "fiber-reach-set")
    ok = (
        down["verdict"] and down["metrics"]["grid"] == 100
        and min(down["metrics"]["coverage"]) >= 0.99
        and band["verdict"] and band["metrics"]["grid"] == 40
        and len(band["metrics"]["coverage"]) == 5
        and min(band["metrics"]["coverage"]) >= 0.99
        and fiber["verdict"] and fiber["metrics"]["pairs_total"] == 25
        and result.wall_clock < 60.0
    )
    _report(2, f"Mobius fiber-reachability pipeline "
               f"(upstairs coverage {min(band['metrics']['coverage']):.3f}, "
               f"{result.wall_clock:.1f}s < 60s)", ok)


def test_criterion_3_kernel_mode_independence(scenario_runs):
    """The chartwise projected frame and a user-supplied global generator
    give the same fiber-reachability verdict in the projection scenario."""
    result = scenario_runs["projection"]
    chartwise = _experiment(result, "reach-set-chartwise")["metrics"]
    user = _experiment(result, "reach-set-user")["metrics"]
    ok = (chartwise["mutually_reachable"] == user["mutually_reachable"]
          and chartwise["mutually_reachable"] is True)
    _report(3, "kernel frame mode independence (chartwise == user-supplied)", ok)


def test_criterion_4_global_in_time_counterexample(scenario_runs):
    """The improper scenario must fail the escape-time comparison (upstairs
    escapes before the horizon, downstairs completes) at tolerance 2h,
    h = 1e-3; the Mobius scenario passes the same check."""
    bad = _experiment(scenario_runs["improper"], "escape-mismatch")["metrics"]
    good = _experiment(scenario_runs["mobius"], "global-mlift")["metrics"]
    ok = (
        bad["global_in_time"] is False
        and bad["tolerance"] == pytest.approx(2e-3)
        and bad["max_escape_gap"] > 2e-3
        and good["global_in_time"] is True
    )
    _report(4, f"global-in-time counterexample (escape gap "
               f"{bad['max_escape_gap']:.3f} > 2e-3; Mobius passes)", ok)


def test_criterion_5_roundtrips_and_liftability(scenario_runs, scenarios):
    """tcs <-> control-system round trips are exact; the lifted system is
    liftable with a verified morphism; the x^3 non-submersion is not."""
    s = scenarios["projection"]
    exact = True
    for sys_name in ("daff", "dsym", "dplus"):
        sys = s.system(sys_name)
        back = tcs_from_control_system(control_system_from_tcs(sys))
        exact = exact and back.generators == sys.generators
    result = scenario_runs["projection"]
    affine = _experiment(result, "liftable-affine")
    cube = _experiment(result, "liftable-cube")
    ok = (
        exact
        and _experiment(result, "roundtrip-daff")["verdict"]
        and affine["metrics"]["liftable"] is True
        and affine["metrics"]["verify_pass"] is True
        and cube["metrics"]["liftable"] is False
    )
    _report(5, "round trips exact; lifted system liftable with verified "
               "morphism; cubic non-submersion rejected", ok)


def test_criterion_6_stlc_transfer(scenario_runs):
    """Symmetric scalar system: STLC true downstairs and on the augmented
    lift; one-sided system: false at both levels."""
    result = scenario_runs["projection"]
    checks = {
        "stlc-down-sym": [True, True],
        "stlc-up-sym": [True],
        "stlc-down-plus": [False],
        "stlc-up-plus": [False],
    }
    ok = True
    for name, want in checks.items():
        e = _experiment(result, name)
        ok = ok and e["verdict"] and e["metrics"]["stlc"] == want
    _report(6, "STLC transfer (symmetric true both levels, one-sided false "
               "both levels)", ok)


def test_criterion_7_second_order_suite(scenario_runs):
    """Second-order predicate holds for lifted drifts; tangent-map
    relatedness residual <= 1e-9; fiber-tangent reachability on 5 samples;
    1-D geodesic matches the closed form within 1e-6 on [0, 1]."""
    di = scenario_runs["double-integrator"]
    conn = scenario_runs["connection-1d"]
    verify = _experiment(di, "verify-dil")["metrics"]
    fiber = _experiment(di, "fiber-tangent-reach")["metrics"]
    geo = _experiment(conn, "geodesic-closed-form")["metrics"]
    ok = (
        _experiment(di, "second-order-down")["verdict"]
        and _experiment(di, "second-order-up")["verdict"]
        and _experiment(conn, "second-order-spray")["verdict"]
        and verify["worst_residual"] <= 1e-9
        and fiber["mutually_reachable"] is True
        and fiber["pairs_total"] == 25
        and max(geo["times"]) == 1.0
        and geo["max_error"] <= 1e-6
    )
    _report(7, f"second-order suite (relatedness residual "
               f"{verify['worst_residual']:.2e}, geodesic error "
               f"{geo['max_error']:.2e})", ok)


def test_criterion_8_numerical_hygiene(scenarios):
    """RK4 order factor in [10, 22] on the exponential flow; kernel
    projector idempotence <= 1e-9; reach monotone in the horizon on every
    scenario."""
    # RK4 order on x' = x over [0, 1]
    atlas = interval_atlas(-4, 4)
    expo = GeneratedSystem(atlas, (VectorField(atlas, lambda cid, c: np.array([c[0]])),))
    start = atlas.normalize("c0", [0.5])
    exact = 0.5 * np.e

    def err(h):
        traj = integrate(expo, start, Schedule.of((0, 1.0)), h)
        return abs(traj.endpoint.coords[0] - exact)

    factor = err(0.05) / err(0.025)
    order_ok = 10.0 <= factor <= 22.0

    # projector idempotence across every constructed submersion morphism
    rng = np.random.default_rng(0)
    proj_worst = 0.0
    for s in scenarios.values():
        for m in s.morphisms.values():
            metric = _metric_of(m.phi)
            for p in m.phi.source.sample(rng, 20):
                P = kernel_projector(m.phi, metric, p.chart_id, p.coords)
                proj_worst = max(proj_worst, float(np.max(np.abs(P @ P - P))))
    proj_ok = proj_worst <= 1e-9

    # horizon monotonicity: one representative system per scenario
    probes = {
        "circle": ("rotsys", ("c0", [0.1])),
        "mobius": ("mlift.augmented", ("c0", [0.5, 0.5])),
        "bundle": ("blift.augmented", ("c0", [1.0, 1.0])),
        "projection": ("liftsym.augmented", ("c0", [0.0, 0.0])),
        "improper": ("badlift.system", ("a", [-1.0, 0.2])),
        "double-integrator": ("dil.augmented", ("c0", [0.0, 0.0, 0.2, 0.2])),
        "connection-1d": ("conn.spray.drift", ("c0", [-0.5, 1.0])),
    }
    mono_ok = True
    for name, (sys_name, (cid, coords)) in probes.items():
        sys = scenarios[name].system(sys_name)
        x0 = sys.atlas.normalize(cid, coords)
        small = reach(sys, x0, grid=8, dwell=0.3, horizon=0.6)
        large = reach(sys, x0, grid=8, dwell=0.3, horizon=1.2)
        mono_ok = mono_ok and set(small.arrivals) <= set(large.arrivals)

    _report(8, f"numerical hygiene (RK4 factor {factor:.1f} in [10,22], "
               f"projector defect {proj_worst:.2e} <= 1e-9, reach horizon "
               "monotone on all scenarios)", order_ok and proj_ok and mono_ok)
