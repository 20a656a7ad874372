"""Atlas normalization, transitions, smooth maps, and vector fields."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from liftreach.errors import DimensionMismatch, OutOfAtlas
from liftreach.geometry import (
    Point,
    SmoothMap,
    VectorField,
    box_atlas,
    circle_atlas,
    combine_fields,
    differential_rank,
    finite_difference_jacobian,
    interval_atlas,
    mobius_atlas,
    overlap_residual,
    torus_atlas,
    union_atlas,
)
from liftreach.second_order import tangent_atlas

from constructions import canonical, identity_map


def test_box_atlas_identity_normalization():
    atlas = box_atlas([[-1, 1], [0, 2]])
    p = atlas.normalize("c0", [0.5, 1.0])
    assert p.chart_id == "c0"
    assert_allclose(p.coords, [0.5, 1.0])
    with pytest.raises(OutOfAtlas):
        atlas.normalize("c0", [1.5, 1.0])
    with pytest.raises(DimensionMismatch):
        atlas.normalize("c0", [0.5])


@pytest.mark.parametrize("atlas, coords", [
    (box_atlas([[-1, 1], [0, 2]]), [0.5, 1.0]),
    (circle_atlas(), [1.0]),
    (mobius_atlas(), [0.25, 0.5]),
    (union_atlas({"a": [[-1, 0.5]], "b": [[-0.5, 1]]}), [0.75]),
    (tangent_atlas(interval_atlas(-1, 1)).atlas, [0.5, 0.25]),
])
def test_normalize_shares_no_memory_with_its_input(atlas, coords):
    """The coords of Atlas.normalize are a copy, also where the gluing is the
    identity and normalize_rows hands back its input."""
    c = np.array(coords)
    p = atlas.normalize(atlas.charts[0].chart_id, c)
    assert not np.shares_memory(p.coords, c)
    assert np.array_equal(p.coords, coords)


def test_circle_wraps_modulo_period():
    atlas = circle_atlas()
    p = atlas.normalize("c0", [2 * np.pi + 0.3])
    assert_allclose(p.coords, [0.3], atol=1e-14)
    q = atlas.normalize("c0", [-0.3])
    assert_allclose(q.coords, [2 * np.pi - 0.3], atol=1e-14)


def test_circle_distance_uses_aliases():
    atlas = circle_atlas()
    p = atlas.normalize("c0", [0.1])
    q = atlas.normalize("c0", [2 * np.pi - 0.1])
    assert atlas.distance(p, q) == pytest.approx(0.2, abs=1e-12)


def test_torus_wraps_both_axes():
    atlas = torus_atlas()
    p = atlas.normalize("c0", [7.0, -1.0])
    assert_allclose(p.coords, [7.0 - 2 * np.pi, 2 * np.pi - 1.0], atol=1e-12)


def test_mobius_wrap_flips_second_coordinate():
    atlas = mobius_atlas()
    p = atlas.normalize("c0", [1.25, 0.3])
    assert_allclose(p.coords, [0.25, 0.7], atol=1e-14)
    q = atlas.normalize("c0", [-0.25, 0.3])
    assert_allclose(q.coords, [0.75, 0.7], atol=1e-14)
    # even wrap counts restore orientation
    r = atlas.normalize("c0", [2.25, 0.3])
    assert_allclose(r.coords, [0.25, 0.3], atol=1e-14)


def test_mobius_transition_jacobian_sign():
    atlas = mobius_atlas()
    assert_allclose(atlas.transition_jacobian("c0", np.array([1.25, 0.3])),
                    np.diag([1.0, -1.0]))
    assert_allclose(atlas.transition_jacobian("c0", np.array([0.25, 0.3])),
                    np.eye(2))


def test_union_atlas_picks_first_containing_chart():
    atlas = union_atlas({"a": [[-2, 0], [-2, 2]], "b": [[-2, 2], [-2, 0.5]]})
    p = atlas.normalize("a", [-1.0, 0.2])  # in both boxes -> canonical chart a
    assert p.chart_id == "a"
    q = atlas.normalize("a", [1.0, 0.2])  # only in b
    assert q.chart_id == "b"
    with pytest.raises(OutOfAtlas):
        atlas.normalize("a", [1.0, 1.0])  # in the deleted corner
    assert [cid for cid, _ in atlas.aliases(p)] == ["b"]


def test_union_distance_compares_across_charts():
    """The charts of a union share one coordinate system: points in charts
    that do not overlap there, as on both sides of a chart edge, are at
    their coordinate distance, not at inf; so are those of its tangent atlas."""
    atlas = union_atlas({"l": [[-2, 0.5]], "r": [[0, 2]]})
    p, q = atlas.normalize("l", [0.3]), atlas.normalize("l", [0.9])
    assert (p.chart_id, q.chart_id) == ("l", "r")
    assert atlas.distance(p, q) == atlas.distance(q, p) == pytest.approx(0.6, abs=1e-15)
    below, above = atlas.normalize("l", [0.5 - 1e-12]), atlas.normalize("l", [0.5 + 1e-12])
    assert (below.chart_id, above.chart_id) == ("l", "r")
    assert atlas.distance(below, above) == pytest.approx(2e-12, rel=1e-3)
    tangent = tangent_atlas(atlas, v_bound=1.0).atlas
    tp, tq = tangent.normalize("l", [0.3, 0.1]), tangent.normalize("l", [0.9, -0.2])
    assert (tp.chart_id, tq.chart_id) == ("l", "r")
    assert tangent.distance(tp, tq) == pytest.approx(np.hypot(0.6, 0.3), abs=1e-15)
    # charts that do not share coordinates still compare only in p's chart
    assert not circle_atlas().shared_coords and not mobius_atlas().shared_coords


def test_sample_stays_canonical():
    atlas = mobius_atlas()
    rng = np.random.default_rng(3)
    for p in atlas.sample(rng, 50):
        q = atlas.normalize(p.chart_id, p.coords)
        assert q.chart_id == p.chart_id
        assert_allclose(q.coords, p.coords)


def test_finite_difference_jacobian_quadratic():
    J = finite_difference_jacobian(
        lambda c: np.array([c[0] ** 2 + c[1], 3 * c[1]]), np.array([1.0, 2.0]), 2
    )
    assert_allclose(J, [[2.0, 1.0], [0.0, 3.0]], atol=1e-8)


def test_smooth_map_jacobian_includes_normalization():
    """Crossing the Mobius seam composes the raw Jacobian with diag(1, -1)."""
    band = mobius_atlas()
    shift = SmoothMap(
        source=band, target=band,
        raw=lambda cid, coords: (cid, coords + np.array([0.5, 0.0])),
        raw_jacobian=lambda cid, c: np.broadcast_to(np.eye(2), np.shape(c)[:-1] + (2, 2)),
    )
    p = band.normalize("c0", [0.75, 0.3])  # maps to raw x=1.25 -> wraps
    assert_allclose(shift.jacobian(p), np.diag([1.0, -1.0]))


def test_pushforward_linear_map():
    plane = box_atlas([[-2, 2], [-2, 2]])
    line = interval_atlas(-4, 4)
    f = SmoothMap(
        source=plane, target=line,
        raw=lambda cid, coords: ("c0", coords[..., :1] + 2 * coords[..., 1:]),
    )
    p = plane.normalize("c0", [0.5, 0.25])
    v = f.jacobian(p) @ VectorField(plane, lambda cid, c: np.ones_like(c)).at(p)
    assert_allclose(v, [3.0], atol=1e-8)


def test_differential_rank_drops_at_critical_point():
    plane = box_atlas([[-2, 2], [-2, 2]])
    line = interval_atlas(-9, 9)
    cube = SmoothMap(
        source=plane, target=line,
        raw=lambda cid, coords: ("c0", coords[..., :1] ** 3),
        raw_jacobian=lambda cid, coords: np.stack(
            [3 * coords[..., :1] ** 2, np.zeros_like(coords[..., :1])], axis=-1),
    )

    def rank(coords):
        return differential_rank(cube, plane.stack([plane.normalize("c0", coords)]))[0]

    assert rank([1.0, 0.0]) == 1
    assert rank([0.0, 0.0]) == 0


def test_overlap_residual_detects_ungluable_field():
    """d/dy on the Mobius band reverses across the seam; the residual sees it."""
    band = mobius_atlas()
    dy = VectorField(band, lambda cid, c: np.zeros_like(c) + [0.0, 1.0])
    near_seam = [band.normalize("c0", [0.01, 0.4])]
    assert overlap_residual(dy, near_seam) == pytest.approx(2.0)
    dx = VectorField(band, lambda cid, c: np.zeros_like(c) + [1.0, 0.0])
    assert overlap_residual(dx, near_seam) == pytest.approx(0.0)


def test_combine_fields_linear_combination():
    atlas = box_atlas([[-1, 1]])
    f = VectorField(atlas, lambda cid, c: np.full_like(c, 2.0))
    g = VectorField(atlas, lambda cid, c: 1.0 * c)
    h = combine_fields([f, g], [0.5, 3.0])
    p = atlas.normalize("c0", [0.25])
    assert_allclose(h.at(p), [1.0 + 0.75])


def test_identity_map_roundtrip():
    atlas = circle_atlas()
    f = identity_map(atlas)
    p = atlas.normalize("c0", [1.0])
    assert f.value(p) == p
    assert_allclose(f.jacobian(p), np.eye(1))


# -- invariants of every atlas kind ----------------------------------------------

INVARIANT_ATLASES = {
    "box": box_atlas([[-1, 1], [0, 2]]),
    "circle": circle_atlas(),
    "torus": torus_atlas(),
    "mobius": mobius_atlas(),
    "union": union_atlas({"a": [[-1, 0.5], [-1, 1]], "b": [[-0.5, 1], [-1, 0.3]]}),
    "tangent-mobius": tangent_atlas(mobius_atlas(), v_bound=1.0).atlas,
    "tangent-union": tangent_atlas(union_atlas({"a": [[-1, 0.5]], "b": [[-0.5, 1]]}),
                                   v_bound=1.0).atlas,
}


def _canonical(atlas):
    """Canonical points from raw coordinates of any chart: wrapped axes run
    over three periods each way, with tiny offsets from a chart edge."""
    def axis(lo, hi, wrapped):
        width = hi - lo
        if not wrapped:
            return st.floats(lo, hi)
        edge = st.sampled_from([lo, hi]).flatmap(
            lambda e: st.sampled_from([-1e-20, -5e-324, 0.0, 5e-324, 1e-20]).map(lambda t: e + t))
        return st.one_of(st.floats(lo - 3 * width, hi + 3 * width), edge)

    def point(chart):
        coords = st.tuples(*(axis(lo, hi, w) for (lo, hi), w in zip(chart.box, chart.wrap)))
        return coords.map(lambda c: canonical(atlas, chart.chart_id, np.array(c)))

    return st.sampled_from(atlas.charts).flatmap(point).filter(
        lambda out: out is not None).map(lambda out: Point(out[0], np.asarray(out[1], float)))


@pytest.mark.parametrize("kind", sorted(INVARIANT_ATLASES))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_atlas_invariants(kind, data):
    """normalize is idempotent; distance is symmetric (to 1e-12 of the
    larger of 1 and the distance) and never exceeds the direct coordinate
    distance of points in one chart, or in any charts of shared coordinates."""
    atlas = INVARIANT_ATLASES[kind]
    p, q = data.draw(_canonical(atlas)), data.draw(_canonical(atlas))
    for x in (p, q):
        again = atlas.normalize(x.chart_id, x.coords)
        assert again.chart_id == x.chart_id
        assert again.coords.tobytes() == x.coords.tobytes()
    d, back = atlas.distance(p, q), atlas.distance(q, p)
    assert abs(d - back) <= 1e-12 * max(1.0, d)
    if p.chart_id == q.chart_id or atlas.shared_coords:
        assert d <= np.linalg.norm(p.coords - q.coords)
