"""Upper half-space model of hyperbolic 3-space.

Interior points are (horizontal complex coordinate, height > 0); the
boundary sphere is C together with a distinguished point at infinity.
Isometries are 2x2 complex matrices of determinant 1 modulo sign.  A
length and the angle that pairs up with it are one plain complex number
(length + i * angle) with the angle reduced to (-pi, pi].
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

__all__ = [
    "INFINITY",
    "BoundaryPoint",
    "DegenerateError",
    "MoebiusMap",
    "NotLoxodromicError",
    "OrientedGeodesic",
    "Point",
    "complex_translation_length",
    "hexagon_solve",
    "hyperbolic_point_distance",
    "mobius_apply",
    "translate_along",
]

_DET_TOL = 1e-12
_PARABOLIC_TOL = 1e-10
_HALF_PI = math.pi / 2


class DegenerateError(ArithmeticError, ValueError):
    """Raised when a hexagon or pants construction degenerates numerically.

    As an ArithmeticError it fails the construction (the command line
    exits 3); callers that catch ValueError catch it too.
    """


class NotLoxodromicError(DegenerateError):
    """Raised when a translation length is requested of a non-loxodromic map."""


class _Infinity:
    """The point at infinity on the boundary sphere (a singleton tag)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()

# A boundary point is either a complex number or the INFINITY tag.
BoundaryPoint = complex | _Infinity


def reduce_angle(theta: float) -> float:
    """Reduce an angle to the canonical interval (-pi, pi]."""
    theta = math.fmod(theta, 2.0 * math.pi)
    if theta > math.pi:
        theta -= 2.0 * math.pi
    elif theta <= -math.pi:
        theta += 2.0 * math.pi
    return theta


class MoebiusMap:
    """An element of PSL(2, C): a unit-determinant matrix modulo sign.

    Construction normalizes the determinant to 1 and fixes the sign by
    making the first nonzero entry (in a, b, c, d order) have argument
    in (-pi/2, pi/2].  That sign is part of every product's entries, and
    it picks the branch of each logarithm read from them: foot_of's
    2 log a and complex_translation_length's eigenvalue.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d, _unit_det=False):
        if not type(a) is type(b) is type(c) is type(d) is complex:
            a, b, c, d = complex(a), complex(b), complex(c), complex(d)
        if not _unit_det:
            det = a * d - b * c
            if abs(det) < _DET_TOL:
                raise ValueError("singular matrix is not a Moebius map")
            s = cmath.sqrt(det)
            a, b, c, d = a / s, b / s, c / s, d / s
        # Sign convention: first nonzero entry gets argument in (-pi/2, pi/2].
        for entry in (a, b, c, d):
            if abs(entry) > 1e-14:
                arg = cmath.phase(entry)
                if arg <= -_HALF_PI or arg > _HALF_PI:
                    a, b, c, d = -a, -b, -c, -d
                break
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls(1, 0, 0, 1)

    def __mul__(self, other: "MoebiusMap") -> "MoebiusMap":
        # Factors are unit determinant already, so the product is too;
        # recomputing ad - bc here would cancel catastrophically when
        # entries are large (e.g. long translations) and only add error.
        # _unit_det goes by position: passed by keyword, it costs the call
        # about a sixth of a product.
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            True,
        )

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a, True)

    def trace(self) -> complex:
        return self.a + self.d

    def entries(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return (
            f"MoebiusMap({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"
        )


class _OrientedGeodesic(NamedTuple):
    source: BoundaryPoint
    target: BoundaryPoint


class OrientedGeodesic(_OrientedGeodesic):
    """A geodesic of H^3 given by its ordered endpoints on the boundary."""

    __slots__ = ()

    def __new__(cls, source: BoundaryPoint, target: BoundaryPoint):
        if _same_boundary_point(source, target):
            raise ValueError("geodesic endpoints must be distinct")
        return tuple.__new__(cls, (source, target))

    def apply(self, m: MoebiusMap) -> "OrientedGeodesic":
        return OrientedGeodesic(mobius_apply(m, self.source), mobius_apply(m, self.target))


class _Point(NamedTuple):
    horizontal: complex
    height: float


class Point(_Point):
    """An interior point of H^3: horizontal complex coordinate plus height."""

    __slots__ = ()

    def __new__(cls, horizontal: complex, height: float):
        if not height > 0:
            raise ValueError("interior points need positive height")
        return tuple.__new__(cls, (horizontal, height))


def _same_boundary_point(p: BoundaryPoint, q: BoundaryPoint) -> bool:
    p_inf = isinstance(p, _Infinity)
    q_inf = isinstance(q, _Infinity)
    if p_inf or q_inf:
        return p_inf and q_inf
    # not p == q, which holds for two equal infinite complex numbers
    return abs(p - q) == 0.0


def mobius_apply(m: MoebiusMap, z: BoundaryPoint) -> BoundaryPoint:
    """Apply (az+b)/(cz+d) to a boundary point, infinity included."""
    if isinstance(z, _Infinity):
        if m.c == 0:
            return INFINITY
        return m.a / m.c
    z = complex(z)
    denom = m.c * z + m.d
    if denom == 0:
        return INFINITY
    return (m.a * z + m.b) / denom


def apply_to_point(m: MoebiusMap, p: Point) -> Point:
    """Apply a Moebius map to an interior point (quaternionic action)."""
    z, t = p.horizontal, p.height
    w = m.c * z + m.d
    denom = abs(w) ** 2 + abs(m.c) ** 2 * t * t
    z_new = ((m.a * z + m.b) * w.conjugate() + m.a * m.c.conjugate() * t * t) / denom
    return Point(z_new, t / denom)


def normalize_to_axis(g: OrientedGeodesic) -> MoebiusMap:
    """A map sending g to the upward-oriented axis (0, infinity).

    The normalization along the axis is arbitrary but deterministic.
    """
    s, t = g.source, g.target
    if isinstance(s, _Infinity):
        return MoebiusMap(0, 1, 1, -t)
    if isinstance(t, _Infinity):
        return MoebiusMap(1, -s, 0, 1)
    return MoebiusMap(1, -s, 1, -t)


def complex_translation_length(m: MoebiusMap) -> complex:
    """Complex length of a loxodromic: translation distance + i * rotation.

    The trace satisfies tr = +/- 2 cosh(l / 2); we extract l from the
    expanding eigenvalue so the real part is positive.
    """
    tr = m.trace()
    tr2 = tr * tr
    if (
        abs(tr2.imag) <= _PARABOLIC_TOL
        and -_PARABOLIC_TOL <= tr2.real <= 4.0 + _PARABOLIC_TOL
    ):
        raise NotLoxodromicError(f"trace^2 = {tr2} lies in [0, 4]")
    disc = cmath.sqrt(tr2 - 4.0)
    lam1 = (tr + disc) / 2.0
    lam2 = (tr - disc) / 2.0
    lam = lam1 if abs(lam1) >= abs(lam2) else lam2
    v = 2.0 * cmath.log(lam)
    return complex(v.real, reduce_angle(v.imag))


def hexagon_solve(a: complex, b: complex, c: complex) -> tuple[complex, complex, complex]:
    """Solve a right-angled skew hexagon with alternating sides a, b, c.

    Returns the dual sides, the i-th one opposite the i-th side (joining
    the other two), via the hexagonal cosine law
    cosh sigma_c = (cosh c + cosh a cosh b) / (sinh a sinh b)
    and its cyclic permutations.  Raises OverflowError when a product
    sinh a sinh b leaves double range.
    """
    a, b, c = complex(a), complex(b), complex(c)
    sides = (a, b, c)
    sinhs = [cmath.sinh(s) for s in sides]
    coshs = [cmath.cosh(s) for s in sides]
    for s in sinhs:
        if abs(s) < 1e-12:
            raise DegenerateError("vanishing sinh in hexagon data")
    duals = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        # cosh sigma - 1 without cancellation:
        # cosh a cosh b - sinh a sinh b = cosh(a - b) exactly, so the
        # huge leading terms never meet in floating point.  Recover
        # sigma through sinh^2(sigma/2) = (cosh sigma - 1)/2, which
        # stays accurate when sigma is exponentially small.
        denominator = sinhs[j] * sinhs[k]
        if not cmath.isfinite(denominator):
            # past about 355 per side the product is inf and sigma
            # would silently read 0
            raise OverflowError("hexagon sides too long for double precision")
        x = (coshs[i] + cmath.cosh(sides[j] - sides[k])) / denominator
        sigma = 2.0 * cmath.asinh(cmath.sqrt(x / 2.0))
        if sigma.real < 0:
            sigma = -sigma
        duals.append(complex(sigma.real, reduce_angle(sigma.imag)))
    return tuple(duals)


def _screw(d: complex) -> MoebiusMap:
    """The screw motion along (0, infinity) by complex distance d."""
    half = cmath.exp(complex(d) / 2.0)
    return MoebiusMap(half, 0, 0, 1.0 / half)


# axis reversal z -> 1/z: the half-turn about (-1, 1) that swaps the
# ends of (0, infinity)
_FLIP = MoebiusMap(0, 1j, 1j, 0)

# the half-turn about (0, infinity), z -> -z, written exactly
_HALF_TURN = MoebiusMap(1j, 0, 0, -1j)


def translate_along(g: OrientedGeodesic, d: complex) -> MoebiusMap:
    """The loxodromic with axis g and complex translation length d."""
    d = complex(d)
    if not d.real > 0:
        raise ValueError("translation length must have positive real part")
    m = normalize_to_axis(g)
    return m.inverse() * _screw(d) * m


def hyperbolic_point_distance(x: Point, y: Point) -> float:
    """Distance between interior points: cosh d = 1 + (|dz|^2 + dh^2) / (2 h1 h2)."""
    dz2 = abs(x.horizontal - y.horizontal) ** 2 + (x.height - y.height) ** 2
    return math.acosh(1.0 + dz2 / (2.0 * x.height * y.height))


def point_to_geodesic_distance(p: Point, g: OrientedGeodesic) -> float:
    """Distance from an interior point to a geodesic."""
    m = normalize_to_axis(g)
    q = apply_to_point(m, p)
    return math.asinh(abs(q.horizontal) / q.height)
