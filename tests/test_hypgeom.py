import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypspectra.hypgeom import (GeometryError, acosh1p, corner_angles, coshm1,
                                hexagon_centroid_distances, hexagon_seam_length,
                                midline_lengths, triangle_areas,
                                validate_triangle_lengths)
from oracles import (FROZEN, HEXAGON_R, close, geodesic_direction, geodesic_point,
                     hyp_distance, minkowski_dot, right_angled_hexagon)

side = st.floats(min_value=0.3, max_value=3.0, allow_nan=False)
coord = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
cuff = st.floats(min_value=0.5, max_value=4.0, allow_nan=False)


def lift(x1, x2):
    return np.array([math.sqrt(1.0 + x1 * x1 + x2 * x2), x1, x2])


def triangle_sides(draw_a, draw_b, draw_c):
    """Three side draws shaped into a valid triangle or None."""
    a, b, c = draw_a, draw_b, draw_c
    big = max(a, b, c)
    if b + c - a <= 1e-6 * big or c + a - b <= 1e-6 * big or a + b - c <= 1e-6 * big:
        return None
    return a, b, c


# -- frozen high-precision values ------------------------------------------

def test_equilateral_angle_frozen():
    alpha = float(corner_angles(np.array([1.0, 1.0, 1.0]))[0])
    assert close(alpha, FROZEN["alpha_111"])
    assert close(math.cos(alpha), FROZEN["cos_alpha_111"])


def test_equilateral_area_frozen():
    assert close(float(triangle_areas(np.array([1.0, 1.0, 1.0]))), FROZEN["area_111"])


def test_equilateral_midline_frozen():
    mids = midline_lengths(np.array([1.0, 1.0, 1.0]))
    assert np.all(np.abs(mids - FROZEN["midline_111"]) <= 1e-13)


def test_seam_lengths_frozen():
    assert close(hexagon_seam_length(2.0, 2.0, 2.0), FROZEN["seam_222"])
    assert close(hexagon_seam_length(1.0, 2.0, 3.0), FROZEN["seam_123"])
    assert close(hexagon_seam_length(2.0, 3.0, 1.0), FROZEN["seam_231"])
    assert close(hexagon_seam_length(3.0, 1.0, 2.0), FROZEN["seam_312"])


# -- dual-route identities ---------------------------------------------------

@given(side, side, side)
def test_angle_half_angle_vs_cosine_form(a, b, c):
    sides = triangle_sides(a, b, c)
    if sides is None:
        return
    a, b, c = sides
    alpha = float(corner_angles(np.array([a, b, c]))[0])
    rhs = (math.cosh(b) * math.cosh(c) - math.cosh(a)) / (math.sinh(b) * math.sinh(c))
    assert abs(math.cos(alpha) - rhs) <= 1e-12


@given(side, side, side)
def test_area_four_factor_vs_angle_defect(a, b, c):
    sides = triangle_sides(a, b, c)
    if sides is None:
        return
    lengths = np.array(sides)
    defect = math.pi - corner_angles(lengths).sum()
    assert abs(triangle_areas(lengths) - defect) <= 1e-10


@given(coord, coord, coord, coord, coord, coord)
def test_midline_formula_vs_coordinates(x1, y1, x2, y2, x3, y3):
    p, q, r = lift(x1, y1), lift(x2, y2), lift(x3, y3)
    a = hyp_distance(q, r)
    b = hyp_distance(r, p)
    c = hyp_distance(p, q)
    if min(a, b, c) < 1e-3:
        return
    mids = midline_lengths(np.array([a, b, c]))
    mp = lambda u, v: geodesic_point(u, geodesic_direction(u, v), hyp_distance(u, v) / 2)
    direct = np.array([
        hyp_distance(mp(r, p), mp(p, q)),   # midline parallel to side a
        hyp_distance(mp(p, q), mp(q, r)),
        hyp_distance(mp(q, r), mp(r, p)),
    ])
    assert np.all(np.abs(mids - direct) <= 1e-10 * (1.0 + direct))


@given(st.floats(min_value=1e-12, max_value=100.0))
def test_acosh1p_coshm1_inverse_pair(u):
    assert close(float(coshm1(acosh1p(u))), u, rel=1e-12)


def test_acosh1p_matches_acosh_away_from_one():
    for u in (1e-4, 0.1, 1.0, 7.5):
        assert close(float(acosh1p(u)), math.acosh(1.0 + u), rel=1e-14)


# -- reference checks in the hyperboloid model --------------------------------

@given(coord, coord, coord, coord)
def test_midpoint_is_equidistant(x1, y1, x2, y2):
    p, q = lift(x1, y1), lift(x2, y2)
    d = hyp_distance(p, q)
    if d < 1e-6:
        return
    m = geodesic_point(p, geodesic_direction(p, q), d / 2)
    assert abs(hyp_distance(p, m) - d / 2) <= 1e-10
    assert abs(hyp_distance(m, q) - d / 2) <= 1e-10


# -- hexagons ---------------------------------------------------------------

def hexagon_sides(l1, l2, l3):
    return [l1 / 2, hexagon_seam_length(l1, l2, l3),
            l2 / 2, hexagon_seam_length(l2, l3, l1),
            l3 / 2, hexagon_seam_length(l3, l1, l2)]


@given(cuff, cuff, cuff)
@settings(max_examples=25, deadline=None)
def test_seam_triples_close_a_right_angled_hexagon(l1, l2, l3):
    sides = hexagon_sides(l1, l2, l3)
    corners, frame = right_angled_hexagon(sides)
    assert np.max(np.abs(frame - np.eye(3))) <= 1e-9 * np.max(np.abs(frame))
    for k in range(6):
        d = hyp_distance(corners[k], corners[(k + 1) % 6])
        assert abs(d - sides[k]) <= 1e-9 * max(1.0, sides[k])
    total = corners.sum(axis=0)
    centroid = total / math.sqrt(minkowski_dot(total, total))
    walked = hyp_distance(centroid, corners)
    assert np.all(np.abs(hexagon_centroid_distances(sides) - walked) <= 1e-9 * walked)


@pytest.mark.parametrize("cuffs", sorted(HEXAGON_R))
def test_hexagon_centroid_distances_frozen(cuffs):
    r = hexagon_centroid_distances(hexagon_sides(*cuffs))
    assert np.all(np.abs(r - HEXAGON_R[cuffs]) <= 1e-13 * np.array(HEXAGON_R[cuffs]))


def test_hexagon_rejects_bad_sides():
    with pytest.raises(GeometryError):
        hexagon_centroid_distances([1.0] * 5)
    with pytest.raises(GeometryError):
        hexagon_centroid_distances([1.0, 1.0, 1.0, 0.0, 1.0, 1.0])
    with pytest.raises(GeometryError):
        hexagon_centroid_distances([500.0] * 6)


@pytest.mark.parametrize("cuffs", [(1.0, 1.0, 1500.0), (1500.0, 1.0, 1.0),
                                   (1000.0, 1000.0, 1.0), (1e-160, 1e-160, 1.0),
                                   (1e-170, 1e-170, 1.0)])
def test_seam_out_of_float_range_is_a_geometry_error(cuffs):
    with pytest.raises(GeometryError, match="float64"):
        hexagon_seam_length(*cuffs)


# -- validation --------------------------------------------------------------

def test_degenerate_triangles_rejected():
    with pytest.raises(GeometryError):
        validate_triangle_lengths(1.0, 1.0, 2.0)
    with pytest.raises(GeometryError):
        validate_triangle_lengths(1.0, -1.0, 1.0)
    with pytest.raises(GeometryError):
        corner_angles(np.array([3.0, 1.0, 1.0]))
    with pytest.raises(GeometryError):
        triangle_areas(np.array([3.0, 1.0, 1.0]))
