"""Holonomy representations of pants complexes: the development only.

build_rho places one skew pair of pants per vertex of the complex,
glued along the regular circles with prescribed half-lengths and
shearing parameters, and assigns loxodromic root holonomies to the
singular circles.  The perturbation family is parametrized by tau in
[0, 1]: at tau = 0 every half-length is R/2 and every shear is 1, and
at tau = 1 the per-circle offsets (xi, eta) are fully switched on.
verify's array checks, the QI sampler and the word scan, live in
``elementwise``, so this module imports no numpy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .complexes import PantsComplex, graph_of
from .geom import (
    DegenerateError,
    MoebiusMap,
    NotLoxodromicError,
    complex_translation_length,
    _FLIP,
    _screw,
)
from .pants import HalfNormalCoordinate, PantsRep, build_pants_rep, foot_of, measured_halflength
from .pants import shear

__all__ = [
    "RepParams",
    "ViableRep",
    "build_rho",
    "check_p_separated",
    "development_residual",
    "measured_shear",
]

class RepParams(NamedTuple):
    """Perturbation data for a representation of a pants complex.

    Circle c gets half-length R/2 + tau*xi[c]/R and shear
    1 + tau*eta[c]/R**2.
    """

    R: float
    tau: float
    xi: tuple[float, ...]
    eta: tuple[float, ...]

    def halflength(self, c: int) -> complex:
        return complex(self.R / 2.0 + self.tau * self.xi[c] / self.R)

    def shear_of(self, c: int) -> complex:
        return complex(1.0 + self.tau * self.eta[c] / self.R**2)

    @classmethod
    def zero(cls, x: PantsComplex, R: float, tau: float = 0.0) -> "RepParams":
        n = len(x.circles)
        return cls(R=R, tau=tau, xi=(0.0,) * n, eta=(0.0,) * n)

    @classmethod
    def random(
        cls, x: PantsComplex, R: float, tau: float, seed: int, scale: float = 0.1
    ) -> "RepParams":
        """xi, then eta, uniform in [-scale, scale) from the stream of seed.

        The draws are numpy's ``Generator.uniform(-scale, scale, n)``
        twice on ``default_rng(SeedSequence(seed))``.
        """
        # streams loads only where random parameters are drawn (build at
        # tau = 0 never does), and scalar reads step these 2n words in
        # Python ints, so build loads no numpy at any tau
        from .streams import Stream

        n = len(x.circles)
        uniform = Stream(seed).uniform
        draws = [uniform(-scale, scale) for _ in range(2 * n)]
        return cls(R=R, tau=tau, xi=tuple(draws[:n]), eta=tuple(draws[n:]))


class ViableRep(NamedTuple):
    """A pants complex developed in hyperbolic 3-space.

    base_reps[i] is pants i built in its own normalized position (pants
    with equal half-lengths share one), and conjugators[i] places it:
    the placed pants' generators are conjugators[i] * gen *
    conjugators[i]^-1, which nothing stores.
    measure_frames[c] holds, for every circle, one frame per attachment,
    in attachments_of(c) order; each takes that attachment's base_reps
    copy to the circle's axis on (0, infinity), reversed if flipped.
    singular_base[c] is the root holonomy of a singular circle next to
    the base_reps copy of its first attachment's pants; as for the
    pants, nothing stores the placed root.
    """

    complex: PantsComplex
    params: RepParams
    conjugators: tuple[MoebiusMap, ...]
    base_reps: tuple[PantsRep, ...]
    measure_frames: dict
    singular_base: dict

    def halflength_at(self, pants: int, slot: int) -> complex:
        """Half-length of a cuff read back from the holonomy.

        Measured on the unconjugated copy; the placed copy carries the
        same traces but with entries too large to read them stably.
        """
        return measured_halflength(self.base_reps[pants], slot)

    def singular_length(self, c: int) -> complex:
        """Complex translation length of a singular circle's root.

        Measured on the base-frame copy for the same reason as
        halflength_at: the placed copy's entries are too large to read
        the trace stably.
        """
        return complex_translation_length(self.singular_base[c])


def build_rho(x: PantsComplex, params: RepParams) -> ViableRep:
    """Develop the complex: glue pants along circles by shear-and-paste.

    A breadth-first walk from pants 0 takes each circle the first time
    it reaches it, from pants u through slot su.  It records one
    measuring frame per attachment, in attachments_of(c) order, and
    places a pants not yet placed from its frame.  u's frame is its base
    frame.  A regular circle's far side goes onto the axis reversed, its
    foot at -/+(shear + pi*i).  Attachment j of a singular circle has its
    foot at (j - j_u) * (2*hl + 2*pi*i*k) / D, D = degree_sum(c); it is
    reversed, its foot negated, where its slot orientation differs from
    u's, so its placed cuff is u's to the power o_u * o_v.  Regular
    circles are reversed whatever their orientations: grown complexes
    have equal ones on some regular circles (20 of 143 at L = 16), as
    walks._Growth.surger pastes the donor's orientations unchanged, and
    reading them would develop those complexes differently.  Singular
    circles carry the d-th root loxodromic of the adjacent cuff (rotated
    by k extra turns), so its d-th power is the cuff holonomy.

    graph_of refuses an invalid complex; DegenerateError refuses a
    circle whose half-length is not positive, and a pants that
    build_pants_rep cannot build re-raises its ArithmeticError, of the
    same class, naming R and the pants.
    """
    graph_of(x)
    for c in range(len(x.circles)):
        # R/2 + tau*xi/R with |xi| < 0.1 can reach 0 below R of about 0.45
        if not (hl := params.halflength(c).real) > 0:
            raise DegenerateError(
                f"circle {c} has half-length {hl!r} <= 0 at R = {params.R!r}:"
                " the perturbation tau*xi/R outweighs R/2"
            )
    # pants with one half-length triple share one immutable PantsRep: at
    # tau = 0 every pants reads (R/2, R/2, R/2), so one build serves all.
    # Half-lengths have positive real part and zero imaginary part, so
    # equal keys have equal bits.
    base = []
    built: dict[tuple[complex, ...], PantsRep] = {}
    for i, p in enumerate(x.pants):
        hl = tuple(params.halflength(c) for c in p.slots)
        if hl not in built:
            try:
                built[hl] = build_pants_rep(*hl)
            except ArithmeticError as exc:
                raise type(exc)(f"at R = {params.R!r} pants {i} cannot be built: {exc}") from exc
        base.append(built[hl])
    conj: list[MoebiusMap | None] = [None] * len(x.pants)
    conj[0] = MoebiusMap.identity()
    measure_frames, singular_base = {}, {}

    # the placed pants in breadth-first order; the loop reads those it adds
    order = [0]
    for u in order:
        for su, c in enumerate(x.pants[u].slots):
            if c in measure_frames:
                continue
            atts = x.attachments_of(c)
            j_u = atts.index((u, su))
            regular = x.is_regular(c)
            if regular:
                step = params.shear_of(c) + math.pi * 1j
            else:
                circle = x.circles[c]
                root = 2.0 * params.halflength(c) + 2.0 * circle.k * math.pi * 1j
                step = root / x.degree_sum(c)
                F = base[atts[0][0]].frames[atts[0][1]]
                singular_base[c] = F.inverse() * _screw(root / circle.d) * F
            # only base frames are read, as the placed matrices are too
            # large to read back.  The shared frame (reversed for a flipped
            # side) times a side's conjugator is G0 on u's side and
            # Screw(delta) * B on the others
            G0 = base[u].frames[su]
            frames = []
            for j, (v, sv) in enumerate(atts):
                flip = regular or x.pants[v].orientations[sv] != x.pants[u].orientations[su]
                delta = -(j - j_u) * step if flip else (j - j_u) * step
                B = base[v].frames[sv]
                frames.append(G0 if j == j_u else _screw(delta) * B)
                if conj[v] is None:
                    G = G0 * conj[u].inverse()
                    conj[v] = ((_FLIP * G) if flip else G).inverse() * _screw(delta) * B
                    order.append(v)
            measure_frames[c] = tuple(frames)
    return ViableRep(
        complex=x,
        params=params,
        conjugators=tuple(conj),
        base_reps=tuple(base),
        measure_frames=measure_frames,
        singular_base=singular_base,
    )


def measured_shear(rho: ViableRep, c: int) -> complex:
    """The shear of a regular circle read back off the developed pants."""
    (pa, sa), (pb, sb) = rho.complex.attachments_of(c)
    frame_left, frame_right = rho.measure_frames[c]
    foot_left = foot_of(rho.base_reps[pa], sa, frame=frame_left)
    foot_right = foot_of(rho.base_reps[pb], sb, frame=frame_right)
    return shear(foot_left, foot_right)


def development_residual(rho: ViableRep) -> float:
    """Largest gap between the requested and the developed parameters.

    Compares the half-length of every pants slot and the shear of every
    regular circle with rho.params, shears as the canonical lattice
    representatives that shear returns; singular root lengths are not read.
    """
    x, params = rho.complex, rho.params
    residual = 0.0
    # pants with one half-length triple share one PantsRep, so each
    # distinct rep's cuffs are measured once; a rep is the same object
    # for every pants that shares it, and base_reps keeps it alive
    measured_of: dict[int, list[complex]] = {}
    for i, (pants, rep) in enumerate(zip(x.pants, rho.base_reps)):
        measured = measured_of.get(id(rep))
        if measured is None:
            measured = measured_of[id(rep)] = []
            for slot in range(3):
                try:
                    measured.append(measured_halflength(rep, slot))
                except NotLoxodromicError as exc:
                    raise NotLoxodromicError(
                        f"at R = {params.R!r} the cuff of pants {i} slot {slot} is too short"
                        f" to measure: {exc}"
                    ) from exc
        for slot, c in enumerate(pants.slots):
            residual = max(residual, abs(measured[slot] - params.halflength(c)))
    for c in x.regular_circles():
        requested = HalfNormalCoordinate(params.shear_of(c), params.halflength(c)).value
        residual = max(residual, abs(measured_shear(rho, c) - requested))
    return residual


def check_p_separated(rho: ViableRep, p: int) -> bool:
    """Whether the feet on every singular circle are 2*pi/p separated.

    Foot j is the angle of attachment j's foot in its measuring frame
    times its slot orientation, which undoes a flipped foot's negation.
    The d-fold rotational symmetry spreads each foot into d copies; the
    circle passes iff all circular gaps between copies are at least
    2*pi/p and no two feet coincide, both up to a tolerance of 1e-9.
    """
    x = rho.complex
    for c in x.singular_circles():
        thetas = [
            x.pants[pi].orientations[slot]
            * foot_of(rho.base_reps[pi], slot, frame=frame).value.imag
            for (pi, slot), frame in zip(x.attachments_of(c), rho.measure_frames[c])
        ]
        if not _feet_separated(thetas, x.circles[c].d, p):
            return False
    return True


def _feet_separated(thetas, d: int, p: int) -> bool:
    """The separation test of check_p_separated on one circle's foot angles.

    The d copies of each foot repeat every 2*pi/d, so their circular
    gaps are those of the angles reduced modulo 2*pi/d, on a circle of
    that length: the work and memory grow with the feet, not with d.
    """
    tol = 1e-9
    period = 2.0 * math.pi / d
    residues = sorted(theta % period for theta in thetas)
    gaps = [b - a for a, b in zip(residues, residues[1:])]
    # the wrap-around gap; a lone foot's copies are period apart
    gaps.append(residues[0] + period - residues[-1] if len(residues) > 1 else period)
    if d * len(thetas) > 1 and min(gaps) < tol:
        return False
    return not min(gaps) < 2.0 * math.pi / p - tol


def __getattr__(name):
    # perfbench/workloads.py's trace_pass and tests/test_acceptance.py read
    # the two checks from here; everything else imports them from elementwise
    if name in ("certify_qi", "nontriviality_scan"):
        from . import elementwise

        return getattr(elementwise, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
