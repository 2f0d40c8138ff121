"""Independent geometry oracles for the tests.

Axes of loxodromics from their fixed points, common perpendiculars and
complex distances between geodesics, all read from boundary endpoints.
The program never reads geometry back this way (the hexagon construction
keeps its frames), but these routes are independent of it, so the tests
check the construction against them where the endpoints are still
accurate (small R).
"""

from __future__ import annotations

import cmath

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

