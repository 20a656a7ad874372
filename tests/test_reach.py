"""Grid cells, BFS reachability, reachability sets, and the STLC probe."""

import csv
import importlib
import itertools
from collections import deque

import numpy as np
import pytest

from liftreach.errors import Escape
from liftreach.geometry import (VectorField, box_atlas, circle_atlas, mobius_atlas,
                                torus_atlas, union_atlas)
from liftreach.reach import Grid, is_reachability_set, reach, stlc_probe
from liftreach.second_order import tangent_atlas
from liftreach.systems import GeneratedSystem, flow_field

from constructions import center_point, is_valid


def _plane_system(fields):
    atlas = box_atlas([[-1, 1], [-1, 1]])
    gens = tuple(VectorField(atlas, f) for f in fields)
    return GeneratedSystem(atlas, gens)


RIGHT = lambda cid, c: np.zeros_like(c) + [1.0, 0.0]
LEFT = lambda cid, c: np.zeros_like(c) + [-1.0, 0.0]
UP = lambda cid, c: np.zeros_like(c) + [0.0, 1.0]
DOWN = lambda cid, c: np.zeros_like(c) + [0.0, -1.0]


def test_grid_cell_of_and_center():
    atlas = box_atlas([[-1, 1], [-1, 1]])
    g = Grid(atlas, 10)
    p = atlas.normalize("c0", [-0.95, 0.95])
    assert g.cell_of(p) == ("c0", 0, 9)
    center = center_point(g, ("c0", 0, 9)).coords
    np.testing.assert_allclose(center, [-0.9, 0.9])


def test_grid_counts_each_point_once_on_overlaps():
    """Overlapping union boxes must not double count shared cells."""
    atlas = union_atlas({"a": [[-1, 0.5]], "b": [[-0.5, 1]]})
    g = Grid(atlas, 10)
    cells = g.all_valid_cells()
    assert len(cells) == len(set(cells))
    # total covered length is 2.0, cell width 0.15: valid a cells cover
    # (-1, 0.5), valid b cells only the remainder
    assert sum(1 for c in cells if c[0] == "a") == 10


def test_mobius_neighbors_flip_across_seam():
    """Stepping left out of column 0 lands in column g-1 with the row flipped."""
    g = Grid(mobius_atlas(), 8)
    nbrs = g.neighbors(("c0", 0, 2))
    assert ("c0", 7, 8 - 1 - 2) in nbrs
    assert ("c0", 1, 2) in nbrs  # plain right neighbor, no flip


def test_reach_marks_cells_along_the_flow():
    sys = _plane_system([RIGHT])
    start = sys.atlas.normalize("c0", [-0.9, 0.0])
    rep = reach(sys, start, grid=10, dwell=0.4, horizon=2.0)
    row = [key for key in rep.arrivals if key[2] == 5]
    assert len(row) == 10  # the whole x-row at the start's y is swept
    assert rep.coverage == pytest.approx(10 / 100)


def test_reach_arrival_times_track_travel_time():
    sys = _plane_system([RIGHT])
    start = sys.atlas.normalize("c0", [-0.9, 0.0])
    rep = reach(sys, start, grid=10, dwell=0.4, horizon=2.0)
    # the far end of the row is 1.7 units of travel away at unit speed;
    # cell-center representatives can save up to half a cell width per hop
    far = rep.arrivals[("c0", 9, 5)]
    assert 1.0 <= far <= 1.8
    assert rep.arrivals[g_start(rep, sys)] == 0.0


def g_start(rep, sys):
    return Grid(sys.atlas, rep.grid).cell_of(rep.start)


def test_reach_horizon_monotone():
    sys = _plane_system([RIGHT, UP])
    start = sys.atlas.normalize("c0", [0.0, 0.0])
    small = reach(sys, start, grid=10, dwell=0.3, horizon=0.6)
    large = reach(sys, start, grid=10, dwell=0.3, horizon=1.2)
    assert set(small.arrivals) <= set(large.arrivals)


def test_reach_full_coverage_with_four_directions():
    sys = _plane_system([RIGHT, LEFT, UP, DOWN])
    start = sys.atlas.normalize("c0", [0.0, 0.0])
    rep = reach(sys, start, grid=10, dwell=0.3, horizon=6.0)
    assert rep.coverage == 1.0


def test_reach_rejects_bad_parameters():
    sys = _plane_system([RIGHT])
    start = sys.atlas.normalize("c0", [0.0, 0.0])
    with pytest.raises(ValueError):
        reach(sys, start, grid=10, dwell=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        reach(sys, start, grid=10, dwell=0.1, horizon=-1.0)


def test_circle_reach_wraps_around():
    atlas = circle_atlas()
    rot = VectorField(atlas, lambda cid, c: np.ones_like(c))
    sys = GeneratedSystem(atlas, (rot,))
    start = atlas.normalize("c0", [0.0])
    rep = reach(sys, start, grid=20, dwell=0.5, horizon=8.0)
    assert rep.coverage == 1.0


def test_is_reachability_set_detects_one_way_flow():
    sys = _plane_system([RIGHT])
    pts = [sys.atlas.normalize("c0", [-0.5, 0.0]),
           sys.atlas.normalize("c0", [0.5, 0.0])]
    ok, witness = is_reachability_set(sys, pts, dwell=0.4, horizon=3.0, grid=10)
    assert not ok
    assert witness[0, 1] and not witness[1, 0]


def test_is_reachability_set_symmetric_case():
    sys = _plane_system([RIGHT, LEFT])
    pts = [sys.atlas.normalize("c0", [-0.5, 0.0]),
           sys.atlas.normalize("c0", [0.5, 0.0])]
    ok, witness = is_reachability_set(sys, pts, dwell=0.4, horizon=3.0, grid=10)
    assert ok and witness.all()


def test_stlc_probe_true_and_false():
    sym = _plane_system([RIGHT, LEFT, UP, DOWN])
    start = sym.atlas.normalize("c0", [0.0, 0.0])
    assert stlc_probe(sym, start, [0.5], grid=10) == [True]
    oneway = _plane_system([RIGHT, UP])
    assert stlc_probe(oneway, start, [0.5], grid=10) == [False]


def test_report_csv_schema(tmp_path):
    sys = _plane_system([RIGHT])
    start = sys.atlas.normalize("c0", [0.0, 0.0])
    rep = reach(sys, start, grid=5, dwell=0.4, horizon=1.0)
    path = tmp_path / "report.csv"
    rep.to_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["chart_id", "i0", "i1", "arrival_time"]
    assert len(rows) == 1 + len(rep.arrivals)
    for row in rows[1:]:
        assert row[0] == "c0"
        int(row[1]), int(row[2])
        assert float(row[3]) <= 1.0


def test_report_summary_fields():
    sys = _plane_system([RIGHT])
    start = sys.atlas.normalize("c0", [0.0, 0.0])
    rep = reach(sys, start, grid=5, dwell=0.4, horizon=1.0)
    s = rep.summary()
    assert set(s) == {"coverage", "visited_cells", "total_cells", "horizon",
                      "dwell", "grid"}
    assert s["total_cells"] == 25


# -- expansions shared between reach calls on one system ----------------------
#
# A warm system must give exactly the arrivals of a freshly built one and of
# the plain BFS below, which integrates every expansion point by point and
# cell by cell: same cells, same floats, same insertion order. The row
# counter shows that the warm call really replayed stored expansions
# instead of integrating again.

SWIRL = (
    # a fixed point at the grid-9 centre cell
    lambda cid, c: np.stack([-c[..., 1], c[..., 0]], axis=-1),
    lambda cid, c: np.stack([np.ones_like(c[..., 0]), 0.5 * np.sin(3.0 * c[..., 0])], axis=-1),
    lambda cid, c: np.stack([np.full_like(c[..., 0], -0.7), -0.4 * c[..., 0] - 0.2], axis=-1),
)


def _reference_arrivals(sys, start, grid, dwell, horizon, substeps=10):
    """Grid BFS that integrates every expansion afresh, with no sharing."""
    g = Grid(sys.atlas, grid)
    h, eps = dwell / substeps, 1e-12
    start_key = g.cell_of(start)
    arrivals, reps, queue = {start_key: 0.0}, {start_key: start}, deque([start_key])
    while queue:
        key = queue.popleft()
        t0 = arrivals[key]
        if t0 >= horizon - eps:
            continue
        rep = reps[key]
        for func in (sys.resolve(selector).func for selector in sys.flows()):
            if float(np.max(np.abs(func(rep.chart_id, rep.coords)))) < 1e-13:
                continue
            hits = []
            try:
                flow_field(sys.atlas, func, rep, dwell, h,
                           record=lambda t, p: hits.append((t, p)))
            except Escape:
                pass
            for t, p in hits:
                if t0 + t > horizon + eps:
                    break
                cell = g.cell_of(p)
                if cell not in arrivals:
                    arrivals[cell] = t0 + t
                    center = center_point(g, cell)
                    canonical = center is not None and g.cell_of(center) == cell
                    reps[cell] = center if canonical else p
                    queue.append(cell)
    return arrivals


@pytest.fixture
def flow_calls(monkeypatch):
    """One entry per row reach hands to integrate_requests: one cell under one flow."""
    # the package's `reach` attribute is the function, so fetch the module
    reach_module = importlib.import_module("liftreach.reach")
    calls = []
    real = reach_module.integrate_requests

    def counting(requests, stats=None):
        calls.extend([1] * sum(len(req.schedules) for req in requests))
        return real(requests, stats)

    monkeypatch.setattr(reach_module, "integrate_requests", counting)
    return calls


def _warm_and_cold(make_sys, warmup, start, kw, flow_calls):
    """Flow counts of one reach call on a warmed system and on a fresh one.

    Both must give exactly the reference arrivals.
    """
    sys = make_sys()
    warmup(sys)
    before = len(flow_calls)
    warm = reach(sys, start(sys), **kw)
    warm_flows = len(flow_calls) - before
    fresh = make_sys()
    before = len(flow_calls)
    cold = reach(fresh, start(fresh), **kw)
    cold_flows = len(flow_calls) - before
    expected = list(_reference_arrivals(fresh, start(fresh), **kw).items())
    assert list(cold.arrivals.items()) == expected
    assert list(warm.arrivals.items()) == expected
    assert warm.total_cells == cold.total_cells
    return warm_flows, cold_flows


def _at(*coords):
    return lambda sys: sys.atlas.normalize(sys.atlas.charts[0].chart_id, list(coords))


def _swirl():
    return _plane_system(SWIRL)


def test_memo_second_start_matches_cold_run(flow_calls):
    kw = dict(grid=9, dwell=0.3, horizon=2.5)
    warm, cold = _warm_and_cold(
        _swirl, lambda s: reach(s, _at(-0.6, -0.2)(s), **kw), _at(0.35, 0.55), kw,
        flow_calls)
    assert warm < cold


def test_memo_truncates_stored_expansions_at_each_horizon(flow_calls):
    long_kw = dict(grid=9, dwell=0.3, horizon=4.0)
    for horizon in (0.45, 0.9, 1.3):
        warm, cold = _warm_and_cold(
            _swirl, lambda s: reach(s, _at(-0.6, -0.2)(s), **long_kw), _at(0.35, 0.55),
            dict(grid=9, dwell=0.3, horizon=horizon), flow_calls)
        assert warm < cold
    # a long horizon after a short one
    warm, cold = _warm_and_cold(
        _swirl, lambda s: reach(s, _at(-0.6, -0.2)(s), grid=9, dwell=0.3, horizon=0.6),
        _at(0.35, 0.55), long_kw, flow_calls)
    assert warm < cold


def test_memo_keeps_dwells_and_substeps_apart(flow_calls):
    start = _at(-0.6, -0.2)
    settings = [dict(grid=9, dwell=0.3, horizon=2.0),
                dict(grid=9, dwell=0.2, horizon=2.0),
                dict(grid=9, dwell=0.3, horizon=2.0, substeps=4)]
    for kw in settings:
        def warmup(s, others=[other for other in settings if other is not kw]):
            for other in others:
                reach(s, start(s), **other)
        warm, cold = _warm_and_cold(_swirl, warmup, start, kw, flow_calls)
        assert warm == cold  # nothing stored under another setting is replayed


def test_memo_replays_hit_points_of_non_canonical_cells(flow_calls):
    """A cell of chart b whose centre normalizes into chart a keeps its hit point.

    Starting off-centre in the last cell of a enters that b cell at another
    point than the warm-up did, so its expansion must not be shared.
    """
    def make():
        atlas = union_atlas({"a": [[-1, 0.5]], "b": [[-0.5, 1]]})
        fields = (lambda cid, c: 0.5 + c ** 2,
                  lambda cid, c: np.full_like(c, -0.8))
        return GeneratedSystem(atlas, tuple(VectorField(atlas, f) for f in fields))

    kw = dict(grid=10, dwell=0.3, horizon=2.0, substeps=6)
    warm, cold = _warm_and_cold(make, lambda s: reach(s, _at(0.0)(s), **kw), _at(0.44),
                                kw, flow_calls)
    assert warm < cold
    sys = make()
    rep = reach(sys, _at(0.44)(sys), **kw)
    g = Grid(sys.atlas, 10)
    assert any(not is_valid(g, cell) for cell in rep.arrivals)


def test_rows_crossing_charts_mid_dwell_match_reference():
    """Rows that cross into another chart of a union mid-dwell step on under
    the field of that chart, as one point at a time does."""
    def make():
        atlas = union_atlas({"a": [[-1, 0.5], [-1, 1]], "b": [[-0.5, 1], [-1, 0.3]]})
        fields = (lambda cid, c: np.zeros_like(c) + [0.8, 0.4 if cid == "b" else -0.3],
                  lambda cid, c: np.zeros_like(c) + [-0.6, 0.2])
        return GeneratedSystem(atlas, tuple(VectorField(atlas, f) for f in fields))

    kw = dict(grid=6, dwell=0.4, horizon=1.5)
    sys = make()
    rep = reach(sys, _at(-0.8, -0.5)(sys), **kw)
    assert list(rep.arrivals.items()) == \
        list(_reference_arrivals(make(), _at(-0.8, -0.5)(sys), **kw).items())
    assert {key[0] for key in rep.arrivals} == {"a", "b"}


def test_mixed_pointwise_and_array_native_fields_match_reference(flow_calls):
    """A lambda generator beside compiled and kernel fields."""
    from liftreach.expressions import compile_vector

    def make():
        atlas = box_atlas([[-1, 1], [-1, 1]])
        compiled = compile_vector(["0.6 - x**2", "0.4*sin(3*x)"], ["x", "y"])
        kernel = compile_vector(["0", "1 + x/2"], ["x", "y"])
        gens = (VectorField(atlas, lambda cid, c: np.stack([-c[..., 1], c[..., 0] - 0.3], -1)),
                VectorField(atlas, lambda cid, c: compiled(c)))
        kers = (VectorField(atlas, lambda cid, c: kernel(c)),)
        base = VectorField(atlas, lambda cid, c: np.zeros_like(c) + [0.1, 0.0])
        return GeneratedSystem(atlas, gens, kernel_fields=kers, kernel_base=base)

    kw = dict(grid=9, dwell=0.3, horizon=2.0)
    warm, cold = _warm_and_cold(make, lambda s: reach(s, _at(0.7, 0.1)(s), **kw),
                                _at(-0.35, 0.55), kw, flow_calls)
    assert warm < cold


VALID_CELL_ATLASES = {
    "box": (box_atlas([[-1, 1], [0, 2]]), 5),
    "circle": (circle_atlas(), 12),
    "torus": (torus_atlas(), 6),
    "mobius": (mobius_atlas(), 7),
    "union": (union_atlas({"a": [[-1, 0.5], [-1, 1]], "b": [[-0.5, 1], [-1, 1]]}), 6),
    "tangent": (tangent_atlas(mobius_atlas(), v_bound=1.0).atlas, 3),
}


@pytest.mark.parametrize("kind", sorted(VALID_CELL_ATLASES))
def test_all_valid_cells_matches_per_cell_check(kind):
    atlas, n = VALID_CELL_ATLASES[kind]
    g = Grid(atlas, n)
    want = [(chart.chart_id, *idx) for chart in atlas.charts
            for idx in itertools.product(range(n), repeat=atlas.dim)
            if is_valid(g, (chart.chart_id, *idx))]
    assert g.all_valid_cells() == want


def test_stlc_probe_drops_only_per_horizon_expansions():
    sys = _plane_system([RIGHT, LEFT, UP, DOWN])
    start = sys.atlas.normalize("c0", [0.1, -0.2])
    reach(sys, start, grid=10, dwell=0.3, horizon=1.0)
    found = set(sys._memo[10].outcomes)
    first = stlc_probe(sys, start, [0.2, 0.4, 0.6], grid=10)
    assert set(sys._memo[10].outcomes) == found
    shared = stlc_probe(sys, start, [0.2, 0.4, 0.6], grid=10, dwell=0.3, substeps=10)
    assert set(sys._memo[10].outcomes) == found
    # an explicit dwell no earlier call used: its table stays for later calls
    own = stlc_probe(sys, start, [0.2, 0.4, 0.6], grid=10, dwell=0.2, substeps=10)
    assert set(sys._memo[10].outcomes) == found | {(0.2, 10)}
    kept = dict(sys._memo[10].outcomes[0.2, 10])
    assert kept
    warm = reach(sys, start, grid=10, dwell=0.2, horizon=1.0)
    assert all(sys._memo[10].outcomes[0.2, 10][c] is o for c, o in kept.items())
    cold = reach(_plane_system([RIGHT, LEFT, UP, DOWN]), start, grid=10, dwell=0.2,
                 horizon=1.0)
    assert list(warm.arrivals.items()) == list(cold.arrivals.items())
    assert stlc_probe(sys, start, [0.2, 0.4, 0.6], grid=10) == first
    assert stlc_probe(sys, start, [0.2, 0.4, 0.6], grid=10, dwell=0.3, substeps=10) == shared
    assert stlc_probe(sys, start, [0.2, 0.4, 0.6], grid=10, dwell=0.2, substeps=10) == own
    assert stlc_probe(_plane_system([RIGHT, LEFT, UP, DOWN]), start, [0.2, 0.4, 0.6],
                      grid=10, dwell=0.2, substeps=10) == own
    fresh = _plane_system([RIGHT, LEFT, UP, DOWN])
    assert stlc_probe(fresh, start, [0.2, 0.4, 0.6], grid=10) == first
    assert not fresh._memo[10].outcomes
    assert sys._memo[10].outcomes.keys() == found | {(0.2, 10)}


def test_escaped_rows_stop_where_they_leave():
    """A flow that leaves the box and would come back records nothing after it left."""
    def make():
        atlas = box_atlas([[-1, 1], [-1, 1]])
        orbit = VectorField(atlas, lambda cid, c: np.stack([-c[..., 1], c[..., 0] - 0.85], -1))
        return GeneratedSystem(atlas, (orbit,))

    sys = make()
    start = sys.atlas.normalize("c0", [0.85, -0.45])
    kw = dict(grid=10, dwell=2.5, horizon=5.0, substeps=25)
    with pytest.raises(Escape):
        flow_field(sys.atlas, sys.generators[0].func, start, kw["dwell"], 0.1)
    assert list(reach(sys, start, **kw).arrivals.items()) == \
        list(_reference_arrivals(make(), start, **kw).items())
