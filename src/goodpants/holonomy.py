"""Holonomy representations of pants complexes.

build_rho places one skew pair of pants per vertex of the complex,
glued along the regular circles with prescribed half-lengths and
shearing parameters, and assigns loxodromic root holonomies to the
singular circles.  The perturbation family is parametrized by tau in
[0, 1]: at tau = 0 every half-length is R/2 and every shear is 1, and
at tau = 1 the per-circle offsets (xi, eta) are fully switched on.
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
    "QiReport",
    "RepParams",
    "ScanReport",
    "ViableRep",
    "build_rho",
    "certify_qi",
    "check_p_separated",
    "development_residual",
    "measured_shear",
    "nontriviality_scan",
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
        # tau = 0 never does), and its fresh-stream reader steps these
        # 2n words in Python ints, so build loads no numpy at any tau
        from .streams import fresh_uniform

        n = len(x.circles)
        draws = fresh_uniform(seed, -scale, scale, 2 * n)
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


class QiReport(NamedTuple):
    """Outcome of the broken-path chord-length certification."""

    R: float
    p: int
    samples: int
    violations: int
    min_margin: float
    min_ratio: float
    max_ratio: float
    seed: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


# Samples evaluated together as arrays by certify_qi.  A path has at most
# five segments.  The peak is set by the 128-bit products of the slice's
# streams, uint64 arrays of 512 x 14: about 680 KB for one slice and
# 900 KB with the previous slice's draws still held (tracemalloc),
# whatever the number of samples.
_QI_SLICE = 512

# most segments of a sampled path: n_seg = Generator.integers(2, 6)
_QI_MAX_SEG = 5

# tilt(alpha), the rotation by alpha about the horizontal axis through
# the base point, is to_horizontal^-1 * Screw(i alpha) * to_horizontal
_SQRT_HALF = 1 / math.sqrt(2.0)
_TO_HORIZONTAL = MoebiusMap(_SQRT_HALF, _SQRT_HALF, _SQRT_HALF, -_SQRT_HALF)


def _path_chords(n_seg, draws):
    """Chord and length of broken paths from the base point (0, 1).

    Row i is a path of n_seg[i] segments; draws[i, 3 j] is the length of
    its segment j, and draws[i, 3 j + 1] and draws[i, 3 j + 2] the bend
    and spin after it, for each j + 1 < n_seg[i]; entries past those do
    not count (a path that has ended keeps its frame).  The path leaves
    the base point up the axis (0, infinity); at each vertex it spins by
    its spin about the incoming segment and turns by pi - bend, so a
    bend of pi goes straight on and a bend of 0 backtracks.  The products
    are the scalar ones (frame * Screw(length), then * Screw(i spin) *
    tilt(pi - bend)) made elementwise, so each chord has the bits of the
    scalar evaluation.  Raises OverflowError or ZeroDivisionError where
    an entry leaves double range.
    """
    # numpy and elementwise load only where the QI sampler and the word
    # scan run: build never does
    import numpy as np

    from . import elementwise as ew

    # ew.python_floats, entered afresh: one errstate object cannot be
    # entered twice, and a caller may already be inside it
    with np.errstate(over="ignore", invalid="ignore"):
        ones, zeros = np.ones(len(n_seg)), np.zeros(len(n_seg))
        frame = ((ones, zeros), (zeros, zeros), (zeros, zeros), (ones, zeros))
        total = np.zeros(len(n_seg))
        to_horizontal = ew.pairs(_TO_HORIZONTAL)
        from_horizontal = ew.pairs(_TO_HORIZONTAL.inverse())
        for j in range(int(np.max(n_seg))):
            active = j < n_seg
            length = draws[:, 3 * j]
            total += np.where(active, length, 0.0)
            step = ew.matmul(frame, ew.screw((length, 0.0)))
            if j + 1 < _QI_MAX_SEG:
                bend, spin = draws[:, 3 * j + 1], draws[:, 3 * j + 2]
                tilt = ew.matmul(
                    ew.matmul(from_horizontal, ew.screw(ew.scale((0.0, 1.0), math.pi - bend))),
                    to_horizontal,
                )
                turned = ew.matmul(ew.matmul(step, ew.screw(ew.scale((0.0, 1.0), spin))), tilt)
                step = _select(j + 1 < n_seg, turned, step)
            frame = _select(active, step, frame)
        z, t = ew.apply_to_point(frame, (0.0, 0.0), 1.0)
        if not np.all(t > 0.0):
            # Point refuses the height: the frame's entries left double range
            raise OverflowError("interior points need positive height")
        return ew.point_distance((0.0, 0.0), 1.0, z, t), total


def _select(keep, new, old):
    """Entries of the 2x2 matrices new where keep holds, of old elsewhere."""
    import numpy as np

    return tuple(
        (np.where(keep, n[0], o[0]), np.where(keep, n[1], o[1])) for n, o in zip(new, old)
    )


def _qi_margins(R: float, chord, total):
    """Margins chord - (total / 2 - R / 4), and which paths violate a bound.

    A path violates the bounds when its margin is negative or its chord
    exceeds its length by more than 1e-9.  A margin that is not finite
    (a chord of nan, which compares false to both, or of inf) decides
    nothing, so it counts as a violation too.
    """
    import numpy as np

    margin = chord - (total / 2.0 - R / 4.0)
    return margin, (margin < 0) | (chord > total + 1e-9) | ~np.isfinite(margin)


def certify_qi(R: float, p: int, samples: int = 10000, seed: int = 0) -> QiReport:
    """Sample admissible broken geodesic paths and check their chords.

    A path has 2 to 5 segments of length in [R/2, 3R] meeting at angles
    in [2*pi/p, pi]; its chord must be at least half its length minus
    R/4 and at most its length.

    Sample i draws from its own stream, numpy's PCG64 on child i of
    SeedSequence(seed): its segment count, then its lengths, bends and
    spins in path order, as numpy's Generator draws them.  The samples
    are evaluated in slices of at most _QI_SLICE as arrays: one
    ``streams.spawned_words`` call gives a slice's streams, and
    _path_chords its chords, with the bits of one-at-a-time
    evaluation.  The chords of long paths leave double range at large R
    (from R = 60 some are inf, which counts as a violation); where an
    entry overflows, OverflowError names R.
    """
    import numpy as np

    if p < 3:
        raise ValueError("need p >= 3 for admissible bends")
    if not 0.0 < R < math.inf:
        raise ValueError("need a finite R > 0")
    from .streams import first_integers, spawned_words, uniform_doubles, unit_doubles

    # bounds of the draws in path order: length, then bend and spin
    # before each further segment
    low = np.tile([R / 2.0, 2.0 * math.pi / p, 0.0], _QI_MAX_SEG)
    high = np.tile([3.0 * R, math.pi, 2.0 * math.pi], _QI_MAX_SEG)
    violations = 0
    min_margin = math.inf
    min_ratio = math.inf
    max_ratio = -math.inf
    for start in range(0, samples, _QI_SLICE):
        count = min(_QI_SLICE, samples - start)
        # words 1..14 of child start + row of SeedSequence(seed), for
        # each row: numpy's integers(2, 6) takes word 1, and the unit
        # draws take words 2..
        words = spawned_words(seed, range(start, start + count), 3 * _QI_MAX_SEG - 1)
        n_seg = first_integers(words[:, 0], 2, _QI_MAX_SEG + 1)
        unit = np.zeros((count, 3 * _QI_MAX_SEG))
        unit[:, : 3 * _QI_MAX_SEG - 2] = unit_doubles(words[:, 1:])
        # a path of n segments reads 3n - 2 draws; the rest stay 0
        unit[np.arange(3 * _QI_MAX_SEG) >= 3 * n_seg[:, None] - 2] = 0.0
        # Generator.uniform(low, high), scaled for the whole slice at once
        draws = uniform_doubles(low, high, unit)
        try:
            chord, total = _path_chords(n_seg, draws)
        except (OverflowError, ZeroDivisionError) as exc:
            raise OverflowError(
                f"R = {R!r} is too large for double precision: the QI sampler's"
                " path products leave double range"
            ) from exc
        margin, violated = _qi_margins(R, chord, total)
        ratio = chord / total
        # np.fmin and np.fmax skip nan, as min and max of floats did
        min_margin = float(np.fmin.reduce(margin, initial=min_margin))
        min_ratio = float(np.fmin.reduce(ratio, initial=min_ratio))
        max_ratio = float(np.fmax.reduce(ratio, initial=max_ratio))
        violations += int(np.count_nonzero(violated))
    return QiReport(
        R=R,
        p=p,
        samples=samples,
        violations=violations,
        min_margin=min_margin,
        min_ratio=min_ratio,
        max_ratio=max_ratio,
        seed=seed,
    )


class ScanReport(NamedTuple):
    """Outcome of the near-identity word scan."""

    max_length: int
    n_generators: int
    total_words: int
    violations: tuple[tuple[int, ...], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _scan_alphabet(rho: ViableRep) -> list[MoebiusMap]:
    """Generators of up to four pairwise non-adjacent pants.

    Non-adjacent pants share no circle, so no two alphabet letters
    satisfy a short gluing relation; reduced words over the alphabet are
    nontrivial in the fundamental group.
    """
    x = rho.complex
    chosen = []
    used_circles = set()
    for i, p in enumerate(x.pants):
        if used_circles.intersection(p.slots):
            continue
        chosen.append(i)
        used_circles.update(p.slots)
        if len(chosen) == 4:
            break
    gens = []
    for i in chosen:
        g, g_inv = rho.conjugators[i], rho.conjugators[i].inverse()
        gens.append(g * rho.base_reps[i].gen1 * g_inv)
        gens.append(g * rho.base_reps[i].gen2 * g_inv)
    return gens


# Words per slice of the depth-first scan.  A slice's children are
# visited whenever _SCAN_CHUNK of them are waiting, so each level on the
# stack holds fewer than 2 * _SCAN_CHUNK words, whatever the alphabet
# size; per-letter temporaries stay at 64 KiB.
_SCAN_CHUNK = 4096


def _near_identity(a, b, c, d, threshold: float):
    """Indices of the matrices [[a, b], [c, d]] within threshold of +/- I.

    The distance to +/- I is the largest entry of |m -/+ I|.  Both
    distances share the off-diagonal entries, so |b| and |c| below the
    threshold is the first, cheap part of the rule, and the diagonal is
    read only on the few matrices that pass it.  nan is never below the
    threshold and np.maximum and np.minimum propagate it, so inf and nan
    entries are never flagged.
    """
    import numpy as np

    idx = np.flatnonzero((np.abs(b) < threshold) & (np.abs(c) < threshold))
    a, d = a[idx], d[idx]
    err_plus = np.maximum(np.abs(a - 1), np.abs(d - 1))
    err_minus = np.maximum(np.abs(a + 1), np.abs(d + 1))
    return idx[np.minimum(err_plus, err_minus) < threshold]


def _scan_words(
    letters, max_length: int, threshold: float
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Count the reduced words up to max_length; flag those near +/- I.

    letters is a sequence of 2x2 complex matrices in which letter l^1 is
    the inverse of letter l.  A word's matrix is the product of its
    letters from left to right.  Returns the number of words and the
    flagged words, by length and then by the word read backwards.
    """
    import numpy as np

    mats = np.asarray(letters, dtype=complex).reshape(-1, 2, 2)
    n_letters = len(mats)
    if max_length < 1:
        return 0, ()
    la, lb, lc, ld = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]
    inverse = np.arange(n_letters) ^ 1
    violations = [(int(i),) for i in _near_identity(la, lb, lc, ld, threshold)]
    total = n_letters

    def extend(words, a, b, c, d):
        # words (m, k) of one length k < max_length with their matrices:
        # classify every reduced one-letter extension and, below the last
        # length, gather them letter by letter and visit them whenever
        # _SCAN_CHUNK are waiting and after the last letter
        nonlocal total
        last = words[:, -1]
        leaf = words.shape[1] + 1 == max_length
        children, waiting = [], 0
        for l in range(n_letters):
            keep = last != inverse[l]
            total += int(np.count_nonzero(keep))
            # long words overflow float range at large R; inf and nan
            # stay in their row and are never flagged
            with np.errstate(over="ignore", invalid="ignore"):
                if leaf:
                    # a word that is not extended further needs its other
                    # entries only if the new b already passes the filter
                    keep &= np.abs(a * lb[l] + b * ld[l]) < threshold
                rows = np.flatnonzero(keep)
                if leaf and not rows.size:
                    continue
                ar, br, cr, dr = a[rows], b[rows], c[rows], d[rows]
                a2 = ar * la[l] + br * lc[l]
                b2 = ar * lb[l] + br * ld[l]
                c2 = cr * la[l] + dr * lc[l]
                d2 = cr * lb[l] + dr * ld[l]
            for i in _near_identity(a2, b2, c2, d2, threshold):
                violations.append((*words[rows[i]].tolist(), l))
            if leaf:
                continue
            child = np.empty((len(rows), words.shape[1] + 1), dtype=words.dtype)
            child[:, :-1] = words[rows]
            child[:, -1] = l
            children.append((child, a2, b2, c2, d2))
            waiting += len(rows)
            if waiting >= _SCAN_CHUNK or l == n_letters - 1:
                batch = [np.concatenate(parts) for parts in zip(*children)]
                children, waiting = [], 0
                # hold only the batch while its words are extended
                del ar, br, cr, dr, a2, b2, c2, d2, child
                visit(*batch)

    def visit(words, a, b, c, d):
        for s in range(0, len(words), _SCAN_CHUNK):
            part = slice(s, s + _SCAN_CHUNK)
            extend(words[part], a[part], b[part], c[part], d[part])

    if max_length > 1:
        words = np.arange(n_letters, dtype=np.int16).reshape(-1, 1)
        visit(words, la, lb, lc, ld)
    violations.sort(key=lambda w: (len(w), w[::-1]))
    return total, tuple(violations)


def nontriviality_scan(rho: ViableRep, max_length: int = 6) -> ScanReport:
    """Check that no short reduced word has holonomy near the identity.

    Enumerates all freely reduced words up to the given length over the
    bounded alphabet and flags any whose matrix is within 1e-6 of +/-
    identity.  Words are reported as tuples of letter indices
    (letter 2i is generator i, letter 2i+1 its inverse), ordered by
    length and then by the word read backwards.

    The words are enumerated depth-first: a slice of at most _SCAN_CHUNK
    words is extended letter by letter, and the scan recurses on the
    children whenever _SCAN_CHUNK of them are waiting and after the last
    letter.  Live memory is bounded by about 2 x max_length x _SCAN_CHUNK
    words, not by the number of words or of letters.  Each
    product is kept as four complex arrays and multiplied by a letter
    on the right with elementwise arithmetic; no BLAS call is made on
    this path, so the products may differ from a matmul in the last
    bits.
    """
    import numpy as np

    gens = _scan_alphabet(rho)
    letters = []
    for g in gens:
        letters.append(np.array(g.entries(), dtype=complex).reshape(2, 2))
        letters.append(np.array(g.inverse().entries(), dtype=complex).reshape(2, 2))
    total, violations = _scan_words(letters, max_length, 1e-6)
    return ScanReport(
        max_length=max_length,
        n_generators=len(gens),
        total_words=total,
        violations=violations,
    )
