"""Skew pairs of pants from prescribed complex half-lengths.

A pair of pants group is generated by two loxodromics whose product's
inverse is the third cuff.  We build it from a right-angled skew hexagon:
the three seams (common perpendiculars of the cuff axes) carry half-turns
whose pairwise products are the cuff elements, and the complex distance
between the two seam feet on a cuff is its half-length.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

from .geom import (
    INFINITY,
    ComplexDistance,
    DegenerateError,
    MoebiusMap,
    OrientedGeodesic,
    axis_of,
    common_perpendicular,
    complex_translation_length,
    half_turn,
    hexagon_solve,
    normalize_to_axis,
    reduce_angle,
    _screw,
)

__all__ = [
    "HalfNormalCoordinate",
    "LatticeMismatchError",
    "PantsRep",
    "build_pants_rep",
    "cuff_frame",
    "foot_of",
    "halflength_tolerance",
    "is_good_pants",
    "measured_halflength",
    "seam_axes",
    "seam_halflength",
    "shear",
]


class LatticeMismatchError(ValueError):
    """Raised when two half normal coordinates live on different lattices."""


@dataclass(frozen=True)
class HalfNormalCoordinate:
    """A point of the half normal bundle of a cuff.

    The coordinate lives in C modulo the lattice hl*Z + 2*pi*i*Z; the
    stored value is the canonical representative with real part in
    [0, Re(hl)) and imaginary part in [0, 2*pi).
    """

    value: complex
    hl: complex

    def __post_init__(self):
        if not self.hl.real > 0:
            raise ValueError("half-length must have positive real part")
        z = self.value
        k = math.floor(z.real / self.hl.real)
        z = z - k * self.hl
        # Snap lattice-boundary roundoff so representatives are stable.
        if z.real >= self.hl.real - 1e-9:
            z -= self.hl
        elif z.real < -1e-9:
            z += self.hl
        re = 0.0 if abs(z.real) < 1e-9 else z.real
        im = z.imag % (2.0 * math.pi)
        if im > 2.0 * math.pi - 1e-9 or im < 1e-9:
            im = 0.0
        object.__setattr__(self, "value", complex(re, im))


@dataclass(frozen=True)
class PantsRep:
    """Holonomy of a skew pair of pants.

    gen1 and gen2 are the first two cuff elements; the third cuff is
    (gen1 * gen2)^-1.  halflengths stores the requested complex
    half-lengths of the three cuffs.
    """

    gen1: MoebiusMap
    gen2: MoebiusMap
    halflengths: tuple[ComplexDistance, ComplexDistance, ComplexDistance]

    def cuff(self, i: int) -> MoebiusMap:
        if i == 0:
            return self.gen1
        if i == 1:
            return self.gen2
        if i == 2:
            return (self.gen1 * self.gen2).inverse()
        raise IndexError(f"cuff index {i} out of range")

    def cuff_axis(self, i: int) -> OrientedGeodesic:
        return axis_of(self.cuff(i))

    def conjugated(self, g: MoebiusMap) -> "PantsRep":
        return PantsRep(
            g * self.gen1 * g.inverse(),
            g * self.gen2 * g.inverse(),
            self.halflengths,
        )

    @cached_property
    def _seams_from_cuff(self) -> tuple[tuple[OrientedGeodesic, OrientedGeodesic], ...]:
        """Per cuff, its (previous, next) seams by index, both pointing away.

        seam_axes orients seam j from the lower-indexed of its two cuffs
        to the higher, so it is reversed on the cuff that is its target.
        The pants are immutable, so the seams are found once.
        """
        seams = seam_axes(self)
        pairs = []
        for cuff in range(3):
            # the previous seam joins this cuff to cuff + 1, the next seam
            # to cuff + 2; the seam joining two cuffs has the third index
            pair = []
            for other in ((cuff + 1) % 3, (cuff + 2) % 3):
                seam = seams[3 - cuff - other]
                pair.append(seam.reversed() if cuff > other else seam)
            pairs.append(tuple(pair))
        return tuple(pairs)

    @cached_property
    def _cuff_frames(self) -> tuple[MoebiusMap, MoebiusMap, MoebiusMap]:
        """The canonical frame of every cuff; see cuff_frame."""
        frames = []
        for cuff in range(3):
            frame = normalize_to_axis(self.cuff_axis(cuff))
            anchor = _foot_in_frame(frame, self._seams_from_cuff[cuff][0])
            correction = MoebiusMap(cmath.exp(-anchor / 2), 0, 0, cmath.exp(anchor / 2))
            frames.append(correction * frame)
        return tuple(frames)


def build_pants_rep(hl1, hl2, hl3) -> PantsRep:
    """Construct the skew pants with the given complex half-lengths.

    Normalized position: cuff 1 on the upward axis (0, infinity) with the
    foot of its first seam at height 1 pointing in the +1 direction.
    """
    hl = [complex(h) for h in (hl1, hl2, hl3)]
    for h in hl:
        if not h.real > 0:
            raise DegenerateError("half-lengths must have positive real part")
    hx = hexagon_solve(hl[0], hl[1], hl[2])
    sigma = hx.duals  # sigma[i] is the seam length opposite halflength i

    # All half-turn axes are reached from the base seam eta3 = (-1, 1) by
    # screw motions, so the generators are plain matrix products; no
    # boundary endpoints are ever extracted (those collapse when the
    # seams are exponentially short).
    eta3 = OrientedGeodesic(-1 + 0j, 1 + 0j)
    to_eta3 = normalize_to_axis(eta3).inverse()
    rho3 = half_turn(eta3)
    # gen1 = rho2 * rho3 with eta2 at complex distance hl1 up the cuff;
    # the product collapses to the pure screw by 2 hl1 along (0, inf).
    gen1 = _screw(2.0 * hl[0])
    # Cuff 2 is the image of (0, inf) under the screw by sigma[2] along
    # eta3; the seam eta1 sits at complex distance hl2 along it from the
    # foot of eta3, so rho1 is a conjugated half-turn of eta3.
    along_eta3 = to_eta3 * _screw(sigma[2]) * to_eta3.inverse()
    along_cuff2 = along_eta3 * _screw(hl[1]) * along_eta3.inverse()
    rho1 = along_cuff2 * rho3 * along_cuff2.inverse()
    gen2 = rho3 * rho1
    return PantsRep(
        gen1,
        gen2,
        (ComplexDistance(hl[0]), ComplexDistance(hl[1]), ComplexDistance(hl[2])),
    )


def halflength_tolerance(hl1, hl2, hl3) -> float:
    """Achievable absolute accuracy of half-lengths measured from matrices.

    Thin skew hexagons force holonomy matrices whose entries reach
    exp(sigma + hl/2) while their traces cancel down to 2 cosh(hl); the
    cancelled digits are unrecoverable in 64-bit floats no matter how
    the matrices are produced.  Returns 1e-9 plus that forced loss, so a
    round-trip check can tell a construction bug from conditioning.
    """
    hx = hexagon_solve(complex(hl1), complex(hl2), complex(hl3))
    amp = math.exp(min(350.0, hx.duals[2].real + complex(hl2).real / 2))
    g1 = math.exp(min(350.0, complex(hl1).real))
    least = min(complex(h).real for h in (hl1, hl2, hl3))
    return 1e-9 + 1e-15 * amp * amp * max(1.0, g1) / max(1.0, math.sinh(least))


def seam_axes(p: PantsRep) -> tuple[OrientedGeodesic, OrientedGeodesic, OrientedGeodesic]:
    """The three seams; seam i joins the cuff axes other than i.

    Each seam is oriented from the lower-indexed cuff toward the higher.
    """
    axes = [p.cuff_axis(i) for i in range(3)]
    try:
        return (
            common_perpendicular(axes[1], axes[2]),
            common_perpendicular(axes[0], axes[2]),
            common_perpendicular(axes[0], axes[1]),
        )
    except ValueError as exc:
        raise DegenerateError(f"degenerate seam configuration: {exc}") from exc


def _foot_in_frame(frame: MoebiusMap, seam: OrientedGeodesic) -> complex:
    """log-height + i*angle of a seam foot on the normalized axis.

    The seam must meet the axis orthogonally; in frame coordinates its
    endpoints are +/- h e^{i theta} and the foot coordinate is
    log h + i theta, theta toward the endpoint the seam points at.
    """
    u = frame(seam.source)
    v = frame(seam.target)
    if u is INFINITY or v is INFINITY:
        raise DegenerateError("seam passes through the frame's infinity")
    if abs(u + v) > 1e-6 * max(abs(u), abs(v)):
        raise DegenerateError("seam is not orthogonal to the cuff axis")
    return cmath.log(v)


def measured_halflength(p: PantsRep, cuff: int) -> ComplexDistance:
    """Half-length of a cuff read off the holonomy.

    Half the complex translation length of the cuff element.  The trace
    determines the half-length modulo pi*i; the representative with
    imaginary part in (-pi/2, pi/2] is returned, which is exact whenever
    the cuff's rotation per half-length stays under a quarter turn (all
    good pants do).
    """
    half = complex(complex_translation_length(p.cuff(cuff))) / 2.0
    if half.imag > math.pi / 2:
        half -= math.pi * 1j
    elif half.imag <= -math.pi / 2:
        half += math.pi * 1j
    return ComplexDistance(half)


def seam_halflength(p: PantsRep, cuff: int) -> ComplexDistance:
    """Half-length measured geometrically between the two seam feet.

    Agrees with measured_halflength without the modulo-pi*i ambiguity,
    but needs the seam endpoints and so loses accuracy when half-lengths
    get large (seams exponentially short).
    """
    frame = normalize_to_axis(p.cuff_axis(cuff))
    prev_seam, next_seam = p._seams_from_cuff[cuff]
    z_prev = _foot_in_frame(frame, prev_seam)
    z_next = _foot_in_frame(frame, next_seam)
    delta = z_prev - z_next
    if delta.real < 0:
        delta = -delta
    return ComplexDistance(complex(delta.real, reduce_angle(delta.imag)))


def cuff_frame(p: PantsRep, cuff: int) -> MoebiusMap:
    """The pants' canonical frame on a cuff axis.

    Maps the axis to (0, infinity) with the foot of the cuff's preceding
    seam at height 1 pointing in the +1 direction, so that foot
    coordinates measured in this frame are conjugation invariant.
    """
    return p._cuff_frames[cuff]


def foot_of(p: PantsRep, cuff: int, frame: MoebiusMap | None = None) -> HalfNormalCoordinate:
    """The foot of the pants on a cuff, as a half normal bundle point.

    The two seam feet on the cuff differ by exactly the half-length, so
    they define one point of C/(hl*Z + 2*pi*i*Z).  With the default
    (pants-canonical) frame the coordinate is 0 by construction; pass an
    explicit frame taking the cuff axis to (0, infinity) to compare feet
    of different pants glued along one circle.
    """
    if frame is None:
        frame = p._cuff_frames[cuff]
    z = _foot_in_frame(frame, p._seams_from_cuff[cuff][0])
    hl = complex(measured_halflength(p, cuff))
    return HalfNormalCoordinate(z, hl)


def shear(foot_left: HalfNormalCoordinate, foot_right: HalfNormalCoordinate) -> complex:
    """Shearing parameter between two pants glued along a circle.

    s = foot_left - foot_right - pi*i as a canonical lattice
    representative; both feet must be measured in one shared frame on the
    circle (with the right-hand frame axis-reversed).
    """
    if abs(foot_left.hl - foot_right.hl) > 1e-9:
        raise LatticeMismatchError(
            f"half-lengths differ: {foot_left.hl} vs {foot_right.hl}"
        )
    s = foot_left.value - foot_right.value - math.pi * 1j
    return HalfNormalCoordinate(s, foot_left.hl).value


def is_good_pants(p: PantsRep, R: float, eps: float) -> bool:
    """Whether all three half-lengths are within eps of R/2."""
    return all(
        abs(complex(measured_halflength(p, i)) - R / 2) < eps for i in range(3)
    )
