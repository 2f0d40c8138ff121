"""Upper half-space model of hyperbolic 3-space.

Points are (horizontal complex coordinate, height > 0); the boundary
sphere is C together with a distinguished point at infinity.  Isometries
are 2x2 complex matrices of determinant 1 modulo sign.  All lengths and
angles that pair up naturally are packed into a single complex number
(length + i * angle) with the angle reduced to (-pi, pi].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = [
    "INFINITY",
    "BoundaryPoint",
    "ComplexDistance",
    "DegenerateError",
    "HexagonData",
    "IntersectingError",
    "MoebiusMap",
    "NotLoxodromicError",
    "NotNormalError",
    "OrientedGeodesic",
    "Point",
    "SharedEndpointError",
    "Vector",
    "common_perpendicular",
    "complex_distance",
    "complex_translation_length",
    "hexagon_solve",
    "hyperbolic_point_distance",
    "mobius_apply",
    "translate_along",
]

_DET_TOL = 1e-12
_RESIDUAL_TOL = 1e-9
_PARABOLIC_TOL = 1e-10


class NotLoxodromicError(ValueError):
    """Raised when a translation length is requested of a non-loxodromic map."""


class SharedEndpointError(ValueError):
    """Raised when two geodesics share a boundary endpoint."""


class IntersectingError(ValueError):
    """Raised when a common perpendicular is requested of intersecting geodesics."""


class DegenerateError(ValueError):
    """Raised when a hexagon or pants construction degenerates numerically."""


class NotNormalError(ValueError):
    """Raised when a supplied frame vector is not orthogonal to its arc."""


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


@dataclass(frozen=True)
class ComplexDistance:
    """A hyperbolic length together with a rotation angle.

    The real part is a length in R, the imaginary part an angle reduced
    to (-pi, pi].
    """

    value: complex

    def __post_init__(self):
        object.__setattr__(
            self,
            "value",
            complex(self.value.real, reduce_angle(self.value.imag)),
        )

    @property
    def length(self) -> float:
        return self.value.real

    @property
    def angle(self) -> float:
        return self.value.imag

    def __complex__(self) -> complex:
        return self.value

    def __repr__(self):
        return f"ComplexDistance({self.value!r})"


class MoebiusMap:
    """An element of PSL(2, C): a unit-determinant matrix modulo sign.

    Construction normalizes the determinant to 1 and fixes the sign by
    making the first nonzero entry (in a, b, c, d order) have argument
    in (-pi/2, pi/2], so equality tests are stable.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d, *, _unit_det=False):
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
                if arg <= -math.pi / 2 or arg > math.pi / 2:
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
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            _unit_det=True,
        )

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a, _unit_det=True)

    def trace(self) -> complex:
        return self.a + self.d

    def __call__(self, z: BoundaryPoint) -> BoundaryPoint:
        return mobius_apply(self, z)

    def entries(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)

    def distance_to_identity(self) -> float:
        """Max-entry distance to +/- identity; the modulo-sign identity test."""
        plus = max(
            abs(self.a - 1), abs(self.b), abs(self.c), abs(self.d - 1)
        )
        minus = max(
            abs(self.a + 1), abs(self.b), abs(self.c), abs(self.d + 1)
        )
        return min(plus, minus)

    def is_close_to(self, other: "MoebiusMap", tol: float = 1e-9) -> bool:
        """Equality modulo sign within an absolute entrywise tolerance."""
        plus = max(
            abs(self.a - other.a),
            abs(self.b - other.b),
            abs(self.c - other.c),
            abs(self.d - other.d),
        )
        minus = max(
            abs(self.a + other.a),
            abs(self.b + other.b),
            abs(self.c + other.c),
            abs(self.d + other.d),
        )
        return min(plus, minus) <= tol

    def __eq__(self, other):
        if not isinstance(other, MoebiusMap):
            return NotImplemented
        return self.is_close_to(other, tol=1e-12)

    def __repr__(self):
        return (
            f"MoebiusMap({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"
        )


@dataclass(frozen=True)
class OrientedGeodesic:
    """A geodesic of H^3 given by its ordered endpoints on the boundary."""

    source: BoundaryPoint
    target: BoundaryPoint

    def __post_init__(self):
        if _same_boundary_point(self.source, self.target):
            raise ValueError("geodesic endpoints must be distinct")

    def reversed(self) -> "OrientedGeodesic":
        return OrientedGeodesic(self.target, self.source)

    def apply(self, m: MoebiusMap) -> "OrientedGeodesic":
        return OrientedGeodesic(mobius_apply(m, self.source), mobius_apply(m, self.target))


@dataclass(frozen=True)
class Point:
    """An interior point of H^3: horizontal complex coordinate plus height."""

    horizontal: complex
    height: float

    def __post_init__(self):
        if not self.height > 0:
            raise ValueError("interior points need positive height")


@dataclass(frozen=True)
class Vector:
    """A tangent vector at an interior point, in Euclidean coordinates.

    The model metric is conformal to the Euclidean one, so angles between
    Vectors at a common point are plain Euclidean angles.
    """

    horizontal: complex
    vertical: float

    def euclidean_norm(self) -> float:
        return math.hypot(abs(self.horizontal), self.vertical)


@dataclass(frozen=True)
class HexagonData:
    """Alternating side lengths of a right-angled skew hexagon.

    ``sides`` are the three prescribed sides; ``duals[i]`` is the side
    opposite ``sides[i]`` (joining the other two).
    """

    sides: tuple[complex, complex, complex]
    duals: tuple[complex, complex, complex]


def _same_boundary_point(p: BoundaryPoint, q: BoundaryPoint, tol: float = 0.0) -> bool:
    p_inf = isinstance(p, _Infinity)
    q_inf = isinstance(q, _Infinity)
    if p_inf or q_inf:
        return p_inf and q_inf
    return abs(p - q) <= tol


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


def direction_toward(p: Point, zeta: BoundaryPoint) -> Vector:
    """Unit tangent vector at p of the geodesic ray ending at zeta."""
    if isinstance(zeta, _Infinity):
        return Vector(0j, 1.0)
    u_full = complex(zeta) - p.horizontal
    d = abs(u_full)
    if d < 1e-300:
        return Vector(0j, -1.0)
    u = u_full / d
    r = (d * d + p.height * p.height) / (2.0 * d)
    return Vector((p.height / r) * u, (d - r) / r)


def geodesic_through(p: Point, q: Point) -> OrientedGeodesic:
    """The geodesic through two interior points, oriented from p to q."""
    dz = q.horizontal - p.horizontal
    d = abs(dz)
    if d < 1e-14:
        if abs(q.height - p.height) < 1e-300:
            raise ValueError("coincident points span no geodesic")
        if q.height > p.height:
            return OrientedGeodesic(p.horizontal, INFINITY)
        return OrientedGeodesic(INFINITY, p.horizontal)
    u = dz / d
    x = (d * d + q.height ** 2 - p.height ** 2) / (2.0 * d)
    r = math.hypot(x, p.height)
    fwd = p.horizontal + (x + r) * u
    back = p.horizontal + (x - r) * u
    return OrientedGeodesic(back, fwd)


def normalize_to_axis(g: OrientedGeodesic, anchor: Point | None = None) -> MoebiusMap:
    """A map sending g to the upward-oriented axis (0, infinity).

    If ``anchor`` lies on g it is sent to height 1; otherwise the
    normalization along the axis is arbitrary but deterministic.
    """
    s, t = g.source, g.target
    if isinstance(s, _Infinity):
        m = MoebiusMap(0, 1, 1, -t)
    elif isinstance(t, _Infinity):
        m = MoebiusMap(1, -s, 0, 1)
    else:
        m = MoebiusMap(1, -s, 1, -t)
    if anchor is not None:
        h = apply_to_point(m, anchor).height
        m = MoebiusMap(1.0 / math.sqrt(h), 0, 0, math.sqrt(h)) * m
    return m


def complex_translation_length(m: MoebiusMap) -> ComplexDistance:
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
    return ComplexDistance(2.0 * cmath.log(lam))


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


def hexagon_solve(a: complex, b: complex, c: complex) -> HexagonData:
    """Solve a right-angled skew hexagon with alternating sides a, b, c.

    Returns the dual sides via the hexagonal cosine law
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
    return HexagonData(sides=sides, duals=tuple(duals))


def _screw(d: complex) -> MoebiusMap:
    """The screw motion along (0, infinity) by complex distance d."""
    half = cmath.exp(complex(d) / 2.0)
    return MoebiusMap(half, 0, 0, 1.0 / half)


# axis reversal z -> 1/z: the half-turn about (-1, 1) that swaps the
# ends of (0, infinity)
_FLIP = MoebiusMap(0, 1j, 1j, 0)

# the half-turn about (0, infinity), z -> -z, written exactly
_HALF_TURN = MoebiusMap(1j, 0, 0, -1j)


def translate_along(g: OrientedGeodesic, d: ComplexDistance | complex) -> MoebiusMap:
    """The loxodromic with axis g and complex translation length d."""
    d = complex(d)
    if not d.real > 0:
        raise ValueError("translation length must have positive real part")
    m = normalize_to_axis(g)
    return m.inverse() * _screw(d) * m


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


def hyperbolic_point_distance(x: Point, y: Point) -> float:
    """Distance between interior points: cosh d = 1 + (|dz|^2 + dh^2) / (2 h1 h2)."""
    dz2 = abs(x.horizontal - y.horizontal) ** 2 + (x.height - y.height) ** 2
    return math.acosh(1.0 + dz2 / (2.0 * x.height * y.height))


def point_to_geodesic_distance(p: Point, g: OrientedGeodesic) -> float:
    """Distance from an interior point to a geodesic."""
    m = normalize_to_axis(g)
    q = apply_to_point(m, p)
    return math.asinh(abs(q.horizontal) / q.height)


def half_turn(g: OrientedGeodesic) -> MoebiusMap:
    """Rotation by pi about a geodesic."""
    m = normalize_to_axis(g)
    return m.inverse() * _HALF_TURN * m
