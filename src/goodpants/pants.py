"""Skew pairs of pants from prescribed complex half-lengths.

A pair of pants group is generated by two loxodromics whose product's
inverse is the third cuff.  We build it from a right-angled skew hexagon:
the three seams (common perpendiculars of the cuff axes) carry half-turns
whose pairwise products are the cuff elements, and the complex distance
between the two seam feet on a cuff is its half-length.

The construction reaches every seam from one base seam through known
screw motions, and it keeps those products: each cuff's canonical frame
is stored with the pants, and a seam foot is the parameter of a screw
between two frames.  Nothing here reads a seam or an axis back from
matrix fixed points, whose boundary endpoints collapse once the seams
are exponentially short (large R).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .geom import (
    ComplexDistance,
    DegenerateError,
    MoebiusMap,
    OrientedGeodesic,
    complex_translation_length,
    half_turn,
    hexagon_solve,
    normalize_to_axis,
    _FLIP,
    _HALF_TURN,
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
    half-lengths of the three cuffs, and frames[i] the canonical frame
    of cuff i (see cuff_frame), both as the hexagon construction made
    them.
    """

    gen1: MoebiusMap
    gen2: MoebiusMap
    halflengths: tuple[ComplexDistance, ComplexDistance, ComplexDistance]
    frames: tuple[MoebiusMap, MoebiusMap, MoebiusMap]

    def cuff(self, i: int) -> MoebiusMap:
        if i == 0:
            return self.gen1
        if i == 1:
            return self.gen2
        if i == 2:
            return (self.gen1 * self.gen2).inverse()
        raise IndexError(f"cuff index {i} out of range")

    def conjugated(self, g: MoebiusMap) -> "PantsRep":
        g_inv = g.inverse()
        return PantsRep(
            g * self.gen1 * g_inv,
            g * self.gen2 * g_inv,
            self.halflengths,
            tuple(frame * g_inv for frame in self.frames),
        )


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
    if any(cmath.exp(s / 2.0) == 1.0 for s in sigma):
        # the screw along a seam rounds to the identity: all three cuffs
        # would land on one axis
        raise DegenerateError("seam length is below double precision; the pants collapse")

    # All half-turn axes are reached from the base seam eta3 = (-1, 1) by
    # screw motions, so the generators and the cuff frames are plain
    # matrix products; no boundary endpoints are ever extracted (those
    # collapse when the seams are exponentially short).
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
    # Each cuff's frame puts its preceding seam on (-1, 1), pointing at
    # +1; for cuff 1 that seam is eta3 itself.  Cuff 2 is brought back
    # along eta3 onto (0, inf), reversed and turned so that eta3 points
    # at -1; eta1 then lies hl2 below eta3, and the screw by hl2 lifts it
    # to height 1.  Cuff 3 is reached up cuff 1 by hl1 to eta2 and then
    # along eta2 by sigma[1]; undoing that, reversing and turning puts
    # eta2 on (-1, 1).
    along_eta2 = _screw(hl[0]) * to_eta3 * _screw(sigma[1]) * to_eta3.inverse()
    frames = (
        MoebiusMap.identity(),
        _screw(hl[1]) * _HALF_TURN * _FLIP * along_eta3.inverse(),
        _HALF_TURN * _FLIP * along_eta2.inverse(),
    )
    return PantsRep(
        gen1,
        gen2,
        (ComplexDistance(hl[0]), ComplexDistance(hl[1]), ComplexDistance(hl[2])),
        frames,
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


def cuff_frame(p: PantsRep, cuff: int) -> MoebiusMap:
    """The pants' canonical frame on a cuff axis.

    Maps the axis to (0, infinity) with the foot of the cuff's preceding
    seam at height 1 pointing in the +1 direction, so that foot
    coordinates measured in this frame are conjugation invariant.  The
    frame is the product of screws that build_pants_rep followed to
    reach the seam, carried along by conjugation; no axis or seam is
    read back from the matrices.
    """
    return p.frames[cuff]


def foot_of(p: PantsRep, cuff: int, frame: MoebiusMap | None = None) -> HalfNormalCoordinate:
    """The foot of the pants on a cuff, as a half normal bundle point.

    The two seam feet on the cuff differ by exactly the half-length, so
    they define one point of C/(hl*Z + 2*pi*i*Z), with hl the half-length
    the pants were built with.  A frame taking the cuff axis to
    (0, infinity) differs from the canonical one by a screw,
    frame * cuff_frame^-1 = diag(a, 1/a); the foot is its parameter
    2 log a.  With the default (canonical) frame it is 0; pass another
    frame to compare feet of different pants glued along one circle.
    Raises DegenerateError when the frame does not keep the axis on
    (0, infinity): |b| or |c| above 1e-6 * max(|a|, |d|).
    """
    hl = complex(p.halflengths[cuff])
    if frame is None:
        return HalfNormalCoordinate(0j, hl)
    a, b, c, d = (frame * p.frames[cuff].inverse()).entries()
    if max(abs(b), abs(c)) > 1e-6 * max(abs(a), abs(d)):
        raise DegenerateError("frame does not map the cuff axis to (0, infinity)")
    return HalfNormalCoordinate(2.0 * cmath.log(a), hl)


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
