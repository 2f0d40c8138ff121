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
from dataclasses import dataclass

import numpy as np

from .complexes import PantsComplex, validate
from .geom import (
    MoebiusMap,
    Point,
    apply_to_point,
    complex_translation_length,
    hyperbolic_point_distance,
    _FLIP,
    _screw,
)
from .pants import PantsRep, build_pants_rep, cuff_frame, foot_of, measured_halflength, shear

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

@dataclass(frozen=True)
class RepParams:
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
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        n = len(x.circles)
        return cls(
            R=R,
            tau=tau,
            xi=tuple(rng.uniform(-scale, scale, n)),
            eta=tuple(rng.uniform(-scale, scale, n)),
        )


@dataclass(frozen=True)
class ViableRep:
    """A pants complex developed in hyperbolic 3-space.

    base_reps[i] is pants i built in its own normalized position, and
    conjugators[i] places it: the placed pants is
    base_reps[i].conjugated(conjugators[i]), which nothing stores.
    measure_frames[c] holds, for each regular circle, one frame per side,
    in the order of complex.attachments_of(c); each takes that side's
    base_reps copy to the circle's axis on (0, infinity), the right
    side's with the axis reversed.  singular_holonomy[c] is the root
    holonomy of a singular circle, and singular_base[c] the same root
    next to its unplaced pants.
    """

    complex: PantsComplex
    params: RepParams
    conjugators: tuple[MoebiusMap, ...]
    base_reps: tuple[PantsRep, ...]
    measure_frames: dict
    singular_holonomy: dict
    singular_base: dict

    def halflength_at(self, pants: int, slot: int):
        """Half-length of a cuff read back from the holonomy.

        Measured on the unconjugated copy; the placed copy carries the
        same traces but with entries too large to read them stably.
        """
        return measured_halflength(self.base_reps[pants], slot)

    def singular_length(self, c: int):
        """Complex translation length of a singular circle's root.

        Measured on the base-frame copy for the same reason as
        halflength_at: the placed copy's entries are too large to read
        the trace stably.
        """
        return complex_translation_length(self.singular_base[c])


def build_rho(x: PantsComplex, params: RepParams) -> ViableRep:
    """Develop the complex: glue pants along circles by shear-and-paste.

    A breadth-first spanning tree of the graph is traversed from pants
    0.  Each tree circle places the pants on its far side: that pants'
    cuff goes onto the circle's axis, reversed, with its foot at the
    circle's shear from the near side's foot.  Every regular circle,
    in the tree or not, records its two measuring frames.  Singular
    circles carry the d-th root loxodromic of the adjacent cuff
    (rotated by k extra turns), so its d-th power is the cuff holonomy.
    """
    bad = validate(x)
    if bad:
        raise ValueError(f"invalid complex: {bad[0]}")
    base = [
        build_pants_rep(*(params.halflength(c) for c in p.slots)) for p in x.pants
    ]
    n = len(x.pants)
    conj: list[MoebiusMap | None] = [None] * n
    conj[0] = MoebiusMap.identity()
    measure_frames = {}

    visited = {0}
    queue = [0]
    while queue:
        u = queue.pop(0)
        for su, c in enumerate(x.pants[u].slots):
            if not x.is_regular(c) or c in measure_frames:
                continue
            (pa, sa), (pb, sb) = x.attachments_of(c)
            u_is_left = (pa, sa) == (u, su)
            v, sv = (pb, sb) if u_is_left else (pa, sa)
            s = params.shear_of(c) + math.pi * 1j
            delta = -s if u_is_left else s
            # frames of the placed copy are the base frames transported
            # by the conjugator, so only the base copies' frames are read:
            # build_pants_rep made them as screw products, and the placed
            # matrices are too large to read anything back from.  The
            # per-side measuring frames collapse to cancellation-free
            # products: the shared frame times the side's conjugator is
            # cuff_frame(base) on the placed side and
            # Screw(delta) * cuff_frame(base) on the new side.
            G0 = cuff_frame(base[u], su)
            B = cuff_frame(base[v], sv)
            frame_v = _screw(delta) * B
            measure_frames[c] = (G0, frame_v) if u_is_left else (frame_v, G0)
            if v not in visited:
                # v's cuff goes onto u's axis reversed, foot at delta
                G = G0 * conj[u].inverse()
                conj[v] = (_FLIP * G).inverse() * _screw(delta) * B
                visited.add(v)
                queue.append(v)
    if len(visited) < n:
        raise ValueError("complex is not connected")

    singular = {}
    singular_base = {}
    for c in x.singular_circles():
        d = x.circles[c].d
        k = x.circles[c].k
        (pi, slot) = x.attachments_of(c)[0]
        F = cuff_frame(base[pi], slot)
        root_length = (2.0 * params.halflength(c) + 2.0 * k * math.pi * 1j) / d
        root = F.inverse() * _screw(root_length) * F
        singular_base[c] = root
        singular[c] = conj[pi] * root * conj[pi].inverse()
    return ViableRep(
        complex=x,
        params=params,
        conjugators=tuple(conj),
        base_reps=tuple(base),
        measure_frames=measure_frames,
        singular_holonomy=singular,
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
    regular circle with rho.params; singular root lengths are not read.
    """
    x, params = rho.complex, rho.params
    residual = 0.0
    for i, pants in enumerate(x.pants):
        for slot, c in enumerate(pants.slots):
            residual = max(
                residual,
                abs(complex(rho.halflength_at(i, slot)) - params.halflength(c)),
            )
    for c in x.regular_circles():
        residual = max(residual, abs(measured_shear(rho, c) - params.shear_of(c)))
    return residual


def check_p_separated(rho: ViableRep, p: int, tol: float = 1e-9) -> bool:
    """Whether the feet on every singular circle are 2*pi/p separated.

    The d-fold rotational symmetry spreads each foot into d copies; the
    circle passes iff all circular gaps between copies are at least
    2*pi/p and no two feet coincide.
    """
    x = rho.complex
    for c in x.singular_circles():
        d = x.circles[c].d
        F = None
        angles = []
        for pi, slot in x.attachments_of(c):
            if F is None:
                # frame from the first attachment; its own foot angle is 0
                first = pi
                F = cuff_frame(rho.base_reps[pi], slot) * rho.conjugators[pi].inverse()
            frame = (
                cuff_frame(rho.base_reps[pi], slot)
                if pi == first
                else F * rho.conjugators[pi]
            )
            theta = foot_of(rho.base_reps[pi], slot, frame=frame).value.imag
            angles.extend((theta + 2.0 * math.pi * l / d) % (2.0 * math.pi) for l in range(d))
        angles.sort()
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        gaps.append(angles[0] + 2.0 * math.pi - angles[-1])
        if len(angles) > 1 and min(gaps) < tol:
            return False
        if min(gaps) < 2.0 * math.pi / p - tol:
            return False
    return True


@dataclass(frozen=True)
class QiReport:
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


def certify_qi(R: float, p: int, samples: int = 10000, seed: int = 0) -> QiReport:
    """Sample admissible broken geodesic paths and check their chords.

    A path has segments of length in [R/2, 3R] meeting at angles in
    [2*pi/p, pi]; its chord must be at least half its length minus R/4
    and at most its length.
    """
    if p < 3:
        raise ValueError("need p >= 3 for admissible bends")
    base = Point(0j, 1.0)
    # rotation by alpha about the horizontal axis through the base point
    sqrt2 = math.sqrt(2.0)
    to_horizontal = MoebiusMap(1 / sqrt2, 1 / sqrt2, 1 / sqrt2, -1 / sqrt2)

    def tilt(alpha):
        return to_horizontal.inverse() * _screw(1j * alpha) * to_horizontal

    root = np.random.SeedSequence(seed)
    children = root.spawn(samples)
    violations = 0
    min_margin = math.inf
    min_ratio = math.inf
    max_ratio = -math.inf
    for child in children:
        rng = np.random.default_rng(child)
        n_seg = int(rng.integers(2, 6))
        frame = MoebiusMap.identity()
        total = 0.0
        for i in range(n_seg):
            length = float(rng.uniform(R / 2.0, 3.0 * R))
            total += length
            frame = frame * _screw(complex(length))
            if i + 1 < n_seg:
                bend = float(rng.uniform(2.0 * math.pi / p, math.pi))
                spin = float(rng.uniform(0.0, 2.0 * math.pi))
                frame = frame * _screw(1j * spin) * tilt(math.pi - bend)
        chord = hyperbolic_point_distance(base, apply_to_point(frame, base))
        margin = chord - (total / 2.0 - R / 4.0)
        ratio = chord / total
        min_margin = min(min_margin, margin)
        min_ratio = min(min_ratio, ratio)
        max_ratio = max(max_ratio, ratio)
        if margin < 0 or chord > total + 1e-9:
            violations += 1
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


@dataclass(frozen=True)
class ScanReport:
    """Outcome of the near-identity word scan."""

    max_length: int
    n_generators: int
    total_words: int
    violations: tuple[tuple[int, ...], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _scan_alphabet(rho: ViableRep, cap: int = 4) -> list[MoebiusMap]:
    """Generators of up to `cap` pairwise non-adjacent pants.

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
        if len(chosen) == cap:
            break
    gens = []
    for i in chosen:
        placed = rho.base_reps[i].conjugated(rho.conjugators[i])
        gens.append(placed.gen1)
        gens.append(placed.gen2)
    return gens


# Words per slice of the depth-first scan.  Each level on the stack
# holds the children of one slice, at most letters * _SCAN_CHUNK words,
# whatever the word length; per-letter temporaries stay at 64 KiB.
_SCAN_CHUNK = 4096


def _near_identity(a, b, c, d, threshold: float) -> np.ndarray:
    """Indices of the matrices [[a, b], [c, d]] within threshold of +/- I.

    The distance to +/- I is the largest entry of |m -/+ I|.  Both
    distances share the off-diagonal entries, so |b| and |c| below the
    threshold is the first, cheap part of the rule, and the diagonal is
    read only on the few matrices that pass it.  nan is never below the
    threshold and np.maximum and np.minimum propagate it, so inf and nan
    entries are never flagged.
    """
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
        # classify every reduced one-letter extension and return them,
        # or None when they are as long as the scan goes
        nonlocal total
        last = words[:, -1]
        leaf = words.shape[1] + 1 == max_length
        children = []
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
            if not leaf:
                child = np.empty((len(rows), words.shape[1] + 1), dtype=words.dtype)
                child[:, :-1] = words[rows]
                child[:, -1] = l
                children.append((child, a2, b2, c2, d2))
        if leaf:
            return None
        return [np.concatenate(parts) for parts in zip(*children)]

    def visit(words, a, b, c, d):
        for s in range(0, len(words), _SCAN_CHUNK):
            part = slice(s, s + _SCAN_CHUNK)
            children = extend(words[part], a[part], b[part], c[part], d[part])
            if children is not None:
                visit(*children)

    if max_length > 1:
        words = np.arange(n_letters, dtype=np.int16).reshape(-1, 1)
        visit(words, la, lb, lc, ld)
    violations.sort(key=lambda w: (len(w), w[::-1]))
    return total, tuple(violations)


def nontriviality_scan(
    rho: ViableRep, max_length: int = 6, threshold: float = 1e-6
) -> ScanReport:
    """Check that no short reduced word has holonomy near the identity.

    Enumerates all freely reduced words up to the given length over the
    bounded alphabet and flags any whose matrix is within threshold of
    +/- identity.  Words are reported as tuples of letter indices
    (letter 2i is generator i, letter 2i+1 its inverse), ordered by
    length and then by the word read backwards.

    The words are enumerated depth-first: a slice of at most _SCAN_CHUNK
    words is extended by every letter, and the scan recurses on slices
    of the children.  Live memory is bounded by about max_length x
    letters x _SCAN_CHUNK words, not by the number of words.  Each
    product is kept as four complex arrays and multiplied by a letter
    on the right with elementwise arithmetic; no BLAS call is made on
    this path, so the products may differ from a matmul in the last
    bits.
    """
    gens = _scan_alphabet(rho)
    letters = []
    for g in gens:
        letters.append(np.array(g.entries(), dtype=complex).reshape(2, 2))
        letters.append(np.array(g.inverse().entries(), dtype=complex).reshape(2, 2))
    total, violations = _scan_words(letters, max_length, threshold)
    return ScanReport(
        max_length=max_length,
        n_generators=len(gens),
        total_words=total,
        violations=violations,
    )
