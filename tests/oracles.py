"""Independent geometry oracles for the tests.

Axes of loxodromics from their fixed points, common perpendiculars and
complex distances between geodesics, all read from boundary endpoints,
and half-turns about geodesics as conjugated matrix products.
The program never reads geometry back this way (the hexagon construction
keeps its frames), but these routes are independent of it, so the tests
check the construction against them where the endpoints are still
accurate (small R).

The quasigeodesic inequality is also checked here the direct way, on
every vertex pair of a path, against which the program's log-height
bound is tested.

sigma is also computed here on the book's full presentation, page
classes included, as the program computed it before it dropped them.

MoebiusMap's sign rule is also applied here the plain way: every entry
through complex(), and cmath.phase of the first entry above 1e-14
compared with +-math.pi / 2 computed in place.

The Smith normal form's unimodular certificates are checked with the
exact integer product and determinant here; the program needs neither.

Complexes joined only across singular circles are built here, for the
tests to develop and take the homology of: two copies of X_3 sharing a
singular circle, and finite covers along singular roots (with no
voltages), which the program does not build.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from goodpants.complexes import Pants, PantsComplex, build_xp
from goodpants.geom import (
    INFINITY,
    MoebiusMap,
    OrientedGeodesic,
    complex_translation_length,
    mobius_apply,
    normalize_to_axis,
    reduce_angle,
    _HALF_TURN,
    _Infinity,
    _same_boundary_point,
)
from goodpants.homology import IntegerMatrix, cokernel
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


def maps_close(m: MoebiusMap, n: MoebiusMap, tol: float = 1e-9) -> bool:
    """Whether two maps agree modulo sign within an absolute entrywise tolerance."""
    plus = max(abs(x - y) for x, y in zip(m.entries(), n.entries()))
    minus = max(abs(x + y) for x, y in zip(m.entries(), n.entries()))
    return min(plus, minus) <= tol


def half_turn(g: OrientedGeodesic) -> MoebiusMap:
    """Rotation by pi about a geodesic."""
    m = normalize_to_axis(g)
    return m.inverse() * _HALF_TURN * m


def complex_distance(g1: OrientedGeodesic, g2: OrientedGeodesic) -> complex:
    """Complex distance between oriented geodesics along their perpendicular.

    The real part is the hyperbolic distance (zero when they cross), the
    imaginary part the oriented angle in (-pi, pi]; reversing either
    orientation shifts the angle by pi.
    """
    for a in (g1.source, g1.target):
        for b in (g2.source, g2.target):
            if _same_boundary_point(a, b):
                raise SharedEndpointError("geodesics share a boundary endpoint")
    coshd = _axis_coshd(g1, g2)
    d = cmath.acosh(coshd)
    if d.real < 0:
        d = -d
    return complex(d.real, reduce_angle(d.imag))


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
        cand = OrientedGeodesic(cand.target, cand.source)
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


def sigma_with_pages(p: int, genus: int) -> int:
    """sigma on e_1..e_2g, c1, c2, with every page class in the lattice.

    The boundary image is spanned by the unit columns e_i, p*c1 and
    c1 + c2, and the presentation adds p(c1 - c2); the order of
    w = c1 - c2 in the quotient is |Tor G| / |Tor(G / <w>)|, and sigma is
    its gcd with p.  Both cokernels have 2g + 2 generators, so this costs
    time and memory linear in the genus.
    """
    n = 2 * genus + 2
    lattice = [{i: 1} for i in range(2 * genus)]
    lattice += [{n - 2: p}, {n - 2: 1, n - 1: 1}, {n - 2: p, n - 1: -p}]
    before = cokernel(lattice, n)
    after = cokernel(lattice + [{n - 2: 1, n - 1: -1}], n)
    if after.rank < before.rank:
        raise ArithmeticError("torsion generator outside lattice span")
    return math.gcd(math.prod(before.torsion) // math.prod(after.torsion), p)


def integer_matmul(m: IntegerMatrix, n: IntegerMatrix) -> IntegerMatrix:
    """The exact product m @ n."""
    if m.cols != n.rows:
        raise ValueError("shape mismatch")
    cols = list(zip(*n.entries))
    return IntegerMatrix(
        tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in m.entries)
    )


def integer_determinant(m: IntegerMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(r) for r in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def moebius_entries_by_phase(a, b, c, d, unit_det=False):
    """MoebiusMap's entries, its sign chosen by cmath.phase on every entry."""
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    if not unit_det:
        s = cmath.sqrt(a * d - b * c)
        a, b, c, d = a / s, b / s, c / s, d / s
    for entry in (a, b, c, d):
        if abs(entry) > 1e-14:
            arg = cmath.phase(entry)
            if arg <= -math.pi / 2 or arg > math.pi / 2:
                a, b, c, d = -a, -b, -c, -d
            break
    return a, b, c, d


def two_chains(share_singular):
    """Two copies of build_xp(1, 3), disjoint or sharing singular circle 0.

    Shared, the complex is connected, but only across a singular circle.
    """
    one = build_xp(1, 3)
    shared = 1 if share_singular else 0
    shift = len(one.circles) - shared
    other = tuple(
        Pants(
            slots=tuple(c if c < shared else c + shift for c in p.slots),
            orientations=p.orientations,
        )
        for p in one.pants
    )
    circles = one.circles + one.circles[shared:]
    return PantsComplex(pants=one.pants + other, circles=circles)


def root_cover(x: PantsComplex, m: int, circles) -> PantsComplex:
    """The m-fold cover of x whose roots of the named circles map to 1 in Z/m.

    It is m copies of x.  Each named circle, whose degree d must be
    divisible by m, is shared by all the copies at degree d/m, keeping its
    id and k; every other circle gets its own copy in each copy of x,
    copy 0 keeping the ids of x.
    """
    out = list(x.circles)
    for c in circles:
        circle = x.circles[c]
        if circle.d % m:
            raise ValueError(f"circle {c} has degree {circle.d}, not divisible by {m}")
        out[c] = circle._replace(d=circle.d // m)
    pants = list(x.pants)
    for _ in range(1, m):
        ids = {}
        for c, circle in enumerate(x.circles):
            if c not in circles:
                ids[c] = len(out)
                out.append(circle)
        pants += [p._replace(slots=tuple(ids.get(c, c) for c in p.slots)) for p in x.pants]
    return PantsComplex(pants=tuple(pants), circles=tuple(out))
