"""Independent geometry oracles for the tests.

Axes of loxodromics from their fixed points, common perpendiculars and
complex distances between geodesics, all read from boundary endpoints.
The program never reads geometry back this way (the hexagon construction
keeps its frames), but these routes are independent of it, so the tests
check the construction against them where the endpoints are still
accurate (small R).

The quasigeodesic inequality is also checked here the direct way, on
every vertex pair of a path, against which the program's log-height
bound is tested.
"""

from __future__ import annotations

import cmath

import numpy as np

from goodpants.geom import (
    INFINITY,
    ComplexDistance,
    MoebiusMap,
    OrientedGeodesic,
    complex_translation_length,
    mobius_apply,
    normalize_to_axis,
    _Infinity,
    _same_boundary_point,
)
from goodpants.lemmalab import _pair_distances


class SharedEndpointError(ValueError):
    """Raised when two geodesics share a boundary endpoint."""


class IntersectingError(ValueError):
    """Raised when a common perpendicular is requested of intersecting geodesics."""


def _axis_coshd(g1: OrientedGeodesic, g2: OrientedGeodesic) -> complex:
    """cosh of the complex distance, with g1 normalized to the axis."""
    m = normalize_to_axis(g1)
    u = mobius_apply(m, g2.source)
    v = mobius_apply(m, g2.target)
    if isinstance(u, _Infinity) or isinstance(v, _Infinity):
        raise SharedEndpointError("geodesics share a boundary endpoint")
    if abs(u - v) < 1e-14 * max(1.0, abs(u)):
        raise SharedEndpointError("image endpoints coincide")
    w = (u + v) / (u - v)
    # Flush signed zeros so acosh picks the upper side of its branch cut.
    return complex(w.real + 0.0, w.imag + 0.0)


def complex_distance(g1: OrientedGeodesic, g2: OrientedGeodesic) -> ComplexDistance:
    """Complex distance between oriented geodesics along their perpendicular.

    The real part is the hyperbolic distance (zero when they cross), the
    imaginary part the oriented angle; reversing either orientation
    shifts the angle by pi.
    """
    for a in (g1.source, g1.target):
        for b in (g2.source, g2.target):
            if _same_boundary_point(a, b):
                raise SharedEndpointError("geodesics share a boundary endpoint")
    coshd = _axis_coshd(g1, g2)
    d = cmath.acosh(coshd)
    if d.real < 0:
        d = -d
    return ComplexDistance(d)


def common_perpendicular(g1: OrientedGeodesic, g2: OrientedGeodesic) -> OrientedGeodesic:
    """The unique geodesic meeting two disjoint geodesics orthogonally.

    Oriented from its foot on g1 toward its foot on g2.
    """
    for a in (g1.source, g1.target):
        for b in (g2.source, g2.target):
            if _same_boundary_point(a, b):
                raise SharedEndpointError("geodesics share a boundary endpoint")
    m = normalize_to_axis(g1)
    u = mobius_apply(m, g2.source)
    v = mobius_apply(m, g2.target)
    if isinstance(u, _Infinity) or isinstance(v, _Infinity):
        raise SharedEndpointError("geodesics share a boundary endpoint")
    coshd = (u + v) / (u - v)
    # Real cosh in (-1, 1) means the geodesics intersect.
    if abs(coshd.imag) < 1e-12 and abs(coshd.real) < 1.0 - 1e-12:
        raise IntersectingError("geodesics intersect; no common perpendicular")
    w = cmath.sqrt(u * v)
    # The perpendiculars of the vertical axis are the geodesics (-w, w);
    # w^2 = uv makes it perpendicular to (u, v) as well.  Orient from the
    # axis toward g2: the foot on (u, v) is on the side of w closer to it.
    minv = m.inverse()
    cand = OrientedGeodesic(mobius_apply(minv, -w), mobius_apply(minv, w))
    # Fix the orientation so the perpendicular points from g1 to g2:
    # in normalized coordinates its foot on the axis is at height |w| and
    # the target endpoint should be the one on g2's side of the axis.
    mid = (u + v) / 2.0
    if abs(w - mid) > abs(-w - mid):
        cand = cand.reversed()
    return cand


def axis_of(m: MoebiusMap) -> OrientedGeodesic:
    """Axis of a loxodromic, oriented from repelling to attracting point."""
    complex_translation_length(m)  # raises NotLoxodromicError if unsuitable
    if abs(m.c) < 1e-14:
        # Fixed points: infinity and b / (d - a).
        if abs(m.a) > abs(m.d):
            return OrientedGeodesic(m.b / (m.d - m.a), INFINITY)
        return OrientedGeodesic(INFINITY, m.b / (m.d - m.a))
    disc = cmath.sqrt(m.trace() ** 2 - 4.0)
    p1 = (m.a - m.d + disc) / (2.0 * m.c)
    p2 = (m.a - m.d - disc) / (2.0 * m.c)
    # Attracting fixed point: |derivative| = 1 / |cz + d|^2 < 1.
    if abs(m.c * p1 + m.d) > 1.0:
        return OrientedGeodesic(p2, p1)
    return OrientedGeodesic(p1, p2)



def quasigeodesic_on_full_net(z, t, delta: float) -> bool:
    """The (1 + delta, delta) quasigeodesic inequality on every vertex pair.

    Measures all n (n - 1) / 2 distances of the path through (z, t), takes
    the walk from the neighbour pairs among them, and checks
    gap / (1 + delta) - delta <= dist <= (1 + delta) gap + delta on each
    pair i < j, up to 1e-12.  O(n^2) for a path of n vertices.
    """
    n = len(t) - 1
    j, i = np.tril_indices(n + 1, -1)
    dist = _pair_distances(z, t, i, j)
    # pairs are ordered by j, so the pair (k, k + 1) sits at (k + 1) (k + 2) / 2 - 1
    neighbours = np.arange(2, n + 2) * np.arange(1, n + 1) // 2 - 1
    walk = np.concatenate(([0.0], np.cumsum(dist[neighbours])))
    gap = np.abs(walk[i] - walk[j])
    lower_ok = np.all(dist >= gap / (1.0 + delta) - delta - 1e-12)
    upper_ok = np.all(dist <= (1.0 + delta) * gap + delta + 1e-12)
    return bool(lower_ok and upper_ok)
