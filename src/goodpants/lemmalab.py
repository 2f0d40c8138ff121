"""Sampling-based numerical checks of the quantitative geometry bounds.

Each check constructs explicit configurations in upper half-space,
measures the quantity of interest with the geometry primitives, and
compares against the claimed bound.  Results are collected into
SweepReport records that serialize to canonical JSON and CSV; a report
row passes exactly when its measured value does not exceed its bound.
The records and the hexagon sweep, which needs no numpy, live in
``sweeps`` and are re-exported here, so this module offers all four
sweeps.

The sampled sweeps evaluate their samples in slices of at most
``_SLICE`` as numpy arrays, so their memory does not grow with the
sample count.  Their kernels are built from ``elementwise``, which
repeats the scalar geometry of ``geom`` bit for bit, so a sweep's
report is the same as when it measured one sample at a time.
Each sampled sweep reads one ``streams.Stream``: numpy's SeedSequence/PCG64
words, with the draws numpy's Generator makes from them.
"""

from __future__ import annotations

import math

import numpy as np

from . import elementwise as ew
from .geom import (
    DegenerateError,
    OrientedGeodesic,
    Point,
    apply_to_point,
    normalize_to_axis,
    _FLIP,
    _screw,
)
from .streams import Stream, uniform_doubles
from .sweeps import SweepReport, SweepRow, hexagon_asymptotics_check

__all__ = [
    "SweepReport",
    "SweepRow",
    "angle_change_check",
    "hexagon_asymptotics_check",
    "quasigeodesic_stability_check",
    "two_planes_angle_check",
]


# samples evaluated together as arrays in each sampled sweep
_SLICE = 4096


# the geodesic (-1, 1), which crosses the axis (0, infinity) orthogonally
# at height 1; and the axis frame that angle-change measures in: the
# upward unit vector and the binormal i, both parallel along the axis
_NORMAL = OrientedGeodesic(-1.0 + 0j, 1.0 + 0j)
_UP = ((0.0, 0.0), 1.0)
_BINORMAL = ((0.0, 1.0), 0.0)


@ew.python_floats
def _segment_angles(xt, y, yt):
    """theta and phi of segments from (0, xt) on the axis to the points (y, yt)."""
    e = ew.direction((0.0, 0.0), xt, y, yt)
    return ew.angle_between(e, _UP), ew.angle_between(e, _BINORMAL)


def _pair_distances(z: np.ndarray, t: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Hyperbolic distances between the points (z, t) at index pairs (i, j)."""
    sq = np.abs(z[i] - z[j]) ** 2 + (t[i] - t[j]) ** 2
    coshd = 1.0 + sq / (2.0 * (t[i] * t[j]))
    return np.arccosh(np.maximum(coshd, 1.0))


# A computed distance _pair_distances(z, t, i, j) lies within 2^-26 + 1e-13
# of the exact distance between the two float points, as long as that
# distance is below 65 and the heights lie within e^+-265 (so no product or
# square overflows, and one that underflows moves cosh d by less than
# 2^-300).  The relative errors of |dz|^2 + dt^2 and of t_i t_j, about
# 8 eps, move d by at most 8 eps tanh(d/2); arccosh adds a few ulp of 65;
# and rounding cosh d = 1 + x to a double moves it by at most 2^-53 near 1,
# which moves d by at most arccosh(1 + 2^-53) = 2^-26, since arccosh is
# concave and steepest at 1.  ln t, the walk's partial sums and the
# inequality's own arithmetic round by ulps of values below 512: less than
# 1e-12 together, which the inequality's slack of 1e-12 absorbs.  _TAU
# covers one distance with about 1e-10 to spare.
_TAU = 1.5e-8


def _is_quasigeodesic(z: np.ndarray, t: np.ndarray, delta: float) -> bool:
    """Whether the path through the points (z, t) is a (1 + delta, delta)
    quasigeodesic on its net of vertex pairs.

    Every pair i < j must satisfy, up to 1e-12,
    gap / (1 + delta) - delta <= dist <= (1 + delta) gap + delta, where gap
    is the walk along the path between them.  A log-height bound decides
    in O(n).  In upper half-space cosh d = 1 + (|dz|^2 + dt^2) / (2 t_i t_j)
    >= cosh(ln t_j - ln t_i), so the lower inequality holds on every pair,
    with _TAU to spare for the rounding of dist, when
    f = ln t - walk / (1 + delta) never falls more than delta - _TAU below
    its running maximum.  The upper one holds by the triangle inequality
    once delta covers the rounding of the distances along the walk and
    across it, len(t) * _TAU.  _TAU's bound needs a walk of at most 64 and
    |ln t[0]| <= 200.  When the bound cannot decide (nan included), the
    full net of pairs is measured and decides.
    """
    k = np.arange(len(t) - 1)
    walk = np.concatenate(([0.0], np.cumsum(_pair_distances(z, t, k, k + 1))))
    f = np.log(t) - walk / (1.0 + delta)
    if (
        walk[-1] <= 64.0
        and abs(f[0]) <= 200.0
        and delta >= len(t) * _TAU
        and np.max(np.maximum.accumulate(f) - f) <= delta - _TAU
    ):
        return True
    j, i = np.tril_indices(len(t), -1)
    dist = _pair_distances(z, t, i, j)
    gap = np.abs(walk[i] - walk[j])
    lower_ok = np.all(dist >= gap / (1.0 + delta) - delta - 1e-12)
    upper_ok = np.all(dist <= (1.0 + delta) * gap + delta + 1e-12)
    return bool(lower_ok and upper_ok)


def quasigeodesic_stability_check(
    delta: float, samples: int = 10000, seed: int = 0
) -> SweepReport:
    """Random quasigeodesics stay in the claimed chord neighborhood.

    Generates zigzag paths along the axis (0, infinity): vertices every
    0.1 of arclength, displaced transversally with alternating direction
    and near-maximal amplitude.  Every path is verified to satisfy the
    multiplicative-additive quasigeodesic inequality on its net of vertex
    pairs before use; paths failing the pre-check are counted as rejected
    and regenerated at reduced amplitude.  The pre-check
    (_is_quasigeodesic) decides each path in O(n) by a log-height bound,
    with a rounding margin _TAU = 1.5e-8, for delta from about 3e-6 up;
    below that, or when the bound cannot decide, it measures every pair
    i < j, and its verdict is the full net's either way.  At delta = 1e-4
    and 100000 samples the pre-check takes about 0.07 s (2-core Xeon),
    where measuring every pair took 0.42 s.  The measured quantity is the
    largest distance of any net point to the axis, the bound is
    5 * delta**(1/5).

    This sweep cannot fail.  A vertex displaced by amplitude u sits at
    (e^s tanh u, e^s / cosh u), whose distance to the axis is
    arcsinh(tanh u cosh u) = u; so the measured value is the largest
    amplitude drawn, at most min(eta/4, 0.5 h sqrt(delta)) < eta.  It
    reports the path generator's own amplitude (0.5 h sqrt(delta), up to
    rounding, whenever an unscaled path passes the pre-check), not a
    consequence of the quasigeodesic inequality.
    """
    if not 0.0 < delta <= 1e-2:
        raise ValueError("delta must lie in (0, 1e-2]")
    if samples < 1:
        raise ValueError("need at least one sample")
    eta = 5.0 * delta**0.2
    h = 0.1
    base_amp = min(eta / 4.0, 0.5 * h * math.sqrt(delta))
    stream = Stream((seed, 0x6C5))
    n_points = 0
    rejected = 0
    measured = 0.0
    while n_points < samples:
        span = stream.uniform(12.0, 20.0)
        n = int(span / h)
        s = np.arange(n + 1) * h
        draw = stream.uniform(0.0, 1.0)
        # stress bias: mostly maximal amplitude, a few tame or straight
        if draw < 0.05:
            scale = 0.0
        elif draw < 0.25:
            scale = stream.uniform(0.0, 1.0)
        else:
            scale = 1.0
        amp = base_amp * scale
        psi = (
            stream.uniform(0.0, 2.0 * math.pi)
            + np.arange(n + 1) * math.pi
            + stream.uniform(-0.3, 0.3, n + 1)
        )
        for _ in range(60):
            u = np.full(n + 1, amp)
            u[0] = u[-1] = 0.0
            z = np.exp(s) * np.tanh(u) * np.exp(1j * psi)
            t = np.exp(s) / np.cosh(u)
            if _is_quasigeodesic(z, t, delta):
                break
            rejected += 1
            amp *= 0.6
        else:
            raise RuntimeError("could not generate an admissible path")
        deviation = np.arcsinh(np.abs(z) / t)
        measured = max(measured, float(deviation.max()))
        n_points += n + 1
    row = SweepRow(params=(("delta", delta),), measured=measured, bound=eta)
    return SweepReport(
        name="quasigeodesic-stability",
        rows=(row,),
        samples=n_points,
        rejected=rejected,
        stats=(("eta", eta),),
    )


@ew.python_floats
def _two_planes_angles(b, d, xi):
    """beta and the two psi routes of the two-planes samples (b, d, xi).

    The right triangle has its corner at (0, 1), the leg b along
    _NORMAL to B and the leg d up the axis to C = (0, e^d).
    """
    # B = apply_to_point(translate_along(_NORMAL, b), corner), where
    # translate_along is m^-1 * _screw(b) * m
    m = normalize_to_axis(_NORMAL)
    push = ew.matmul(ew.matmul(ew.pairs(m.inverse()), ew.screw((b, 0.0))), ew.pairs(m))
    corner = (0.0, 0.0)
    B, Bt = ew.apply_to_point(push, corner, 1.0)
    Ct = ew.floats(math.exp, d)
    hyp = ew.point_distance(B, Bt, corner, Ct)
    toward_corner = ew.direction(B, Bt, corner, 1.0)
    toward_far = ew.direction(B, Bt, corner, Ct)
    beta = ew.angle_between(toward_corner, toward_far)

    sin_beta = ew.floats(math.sinh, d) / ew.floats(math.sinh, hyp)
    sin_xi = ew.floats(math.sin, xi)
    cos_xi = ew.floats(math.cos, xi)
    denominator = 1.0 - sin_beta * sin_beta * ew.square(cos_xi)
    if np.any(denominator == 0.0):
        # sin beta and cos xi both round to 1, as on legs b < 1e-8
        raise ZeroDivisionError("float division by zero")
    s2 = sin_xi * sin_xi / denominator
    root = ew.floats(math.sqrt, s2)
    psi_formula = ew.floats(math.asin, np.where(root < 1.0, root, 1.0))

    # direct route on the unit tangent sphere, with the measured beta:
    # rotate the vertical normal by xi about the leg direction, then
    # follow the tilted plane's great circle for the turn at B
    turn = ew.floats(math.atan2, sin_xi * ew.floats(math.sin, beta), ew.floats(math.cos, beta))
    cos_turn = ew.floats(math.cos, turn)
    # the angle whose cosine is cos(xi) cos(turn), read off through
    # its sine to stay accurate when both factors are close to 1
    psi_direct = ew.floats(
        math.atan2,
        ew.floats(math.hypot, sin_xi * cos_turn, ew.floats(math.sin, turn)),
        cos_xi * cos_turn,
    )
    return beta, psi_formula, psi_direct


def two_planes_angle_check(
    eps: float, R: float, samples: int = 1000, seed: int = 0
) -> SweepReport:
    """Dihedral angle between two nearly-coplanar half-planes is small.

    Each sample builds a hyperbolic right triangle with legs b and d
    meeting orthogonally, measures the angle beta at the far end of leg
    b with tangent vectors, and compares two computations of the
    dihedral angle psi of the plane tilted by xi along that leg: the
    closed form sin^2 psi = sin^2 xi / (1 - sin^2 beta cos^2 xi) against
    a direct construction of the tilted normal on the unit tangent
    sphere.  Every psi must stay below 10 * eps / R and the two routes
    must agree to 1e-9.  From about R = 355 a leg d near R overflows
    (e^(2d)), and from R = 74 a leg b under 1e-8 can round the closed
    form's denominator to 0; OverflowError then names R.
    """
    if not 0.0 < eps < 0.1:
        raise ValueError("eps must lie in (0, 0.1)")
    if R < 10.0:
        raise ValueError("R must be at least 10")
    if samples < 1:
        raise ValueError("need at least one sample")
    stream = Stream((seed, 0x2B1))
    xi_max = 4.0 * eps / R * math.exp(-R / 4.0)
    # each sample draws uniform b, d, xi in turn, as rows of Generator.random
    low = np.array([math.exp(-R / 4.0), 1.0, -xi_max])
    high = np.array([2.0, R, xi_max])
    max_psi = 0.0
    max_disagreement = 0.0
    for done in range(0, samples, _SLICE):
        u = stream.random(3 * min(_SLICE, samples - done)).reshape(-1, 3)
        b, d, xi = uniform_doubles(low, high, u).T
        try:
            _, psi_formula, psi_direct = _two_planes_angles(b, d, xi)
        except (OverflowError, ZeroDivisionError) as exc:
            raise OverflowError(
                f"R = {R!r} is too large for double precision: a two-planes"
                " triangle overflows or rounds to a degenerate one"
            ) from exc
        max_psi = max(max_psi, float(psi_formula.max()))
        max_disagreement = max(
            max_disagreement, float(np.abs(psi_direct - psi_formula).max())
        )
    rows = (
        SweepRow(
            params=(("eps", eps), ("R", R), ("check", "dihedral-bound")),
            measured=max_psi,
            bound=10.0 * eps / R,
        ),
        SweepRow(
            params=(("eps", eps), ("R", R), ("check", "route-agreement")),
            measured=max_disagreement,
            bound=1e-9,
        ),
    )
    return SweepReport(
        name="two-planes-angle", rows=rows, samples=samples
    )


_BASE_POINT = Point(0j, 1.0)


def _axis_letters(rho, c: int) -> list:
    """The letters of angle-change's words on circle c: gen1, gen2 of each side, then inverses.

    They are the generators of the pants on both sides of the circle,
    written in its left-oriented axis coordinates; words mixing the two
    sides feel the bending of the deformed gluing.  A generator that is
    the circle's own cuff (gen1 on slot 0, gen2 on slot 1) is built as
    the exact screw along the axis, by twice the slot's half-length,
    reversed on the right side: the conjugated product rounds off the
    axis, and words in such letters would then leave it.
    """
    placed = []
    for idx, (pi, slot) in enumerate(rho.complex.attachments_of(c)):
        frame = rho.measure_frames[c][idx]
        rep = rho.base_reps[pi]
        for gen, g in enumerate((rep.gen1, rep.gen2)):
            if gen == slot:
                hl = rep.halflengths[slot]
                placed.append(_screw(2.0 * hl if idx == 0 else -2.0 * hl))
                continue
            m = frame * g * frame.inverse()
            if idx == 1:
                m = _FLIP * m * _FLIP
            placed.append(m)
    return placed + [g.inverse() for g in placed]


def _word_images(word_mats, word):
    """The base point's image under the word, for each representation.

    A row of ``ends``: (real, imag, height) of each image in turn.
    """
    row = []
    for mats in word_mats:
        m = mats[word[0]]
        for letter in word[1:]:
            m = m * mats[letter]
        y = apply_to_point(m, _BASE_POINT)
        row += [y.horizontal.real, y.horizontal.imag, y.height]
    return row


def _draw_attempts(stream, k, cutoff, R, n_letters):
    """The next k attempts' axis heights and reduced words.

    An attempt draws t in (cutoff, R) and a sign, for the axis point at
    height e^(sign t); then a length from 1 to 3 and that many letters,
    each drawn again while it would cancel the letter before it.
    """
    uniform, integers = stream.uniform, stream.integers
    heights = []
    words = []
    for _ in range(k):
        t = uniform(cutoff, R)
        sign = 1.0 if uniform(0.0, 1.0) < 0.5 else -1.0
        heights.append(math.exp(sign * t))
        word = []
        for _ in range(integers(1, 4)):
            letter = integers(0, n_letters)
            while word and letter == (word[-1] + n_letters // 2) % n_letters:
                letter = integers(0, n_letters)
            word.append(letter)
        words.append(tuple(word))
    return heights, words


def _distances(xt, end):
    """Distances from the axis points (0, xt) to ends (real, imag, height)."""
    return ew.point_distance((0.0, 0.0), xt, (end[:, 0], end[:, 1]), end[:, 2])


@ew.python_floats
def _near(xt, ends, R):
    """Whether the axis point (0, xt[k]) lies within R/2 of either end.

    Decided as any() decides it: the second end is measured only where
    the first is not near, so only there can its distance overflow.
    """
    near = _distances(xt, ends[:, :3]) < R / 2.0
    far = ~near
    near[far] = _distances(xt[far], ends[far, 3:]) < R / 2.0
    return near


@ew.python_floats
def _angle_shifts(xt, ends):
    """Largest theta shift, phi defect and combined shift over a slice.

    Segment k runs from (0, xt[k]) to each representation's base-point
    image; ends[k] holds the two images, each as (real, imag, height).
    """
    theta0, phi0 = _segment_angles(xt, (ends[:, 0], ends[:, 1]), ends[:, 2])
    theta1, phi1 = _segment_angles(xt, (ends[:, 3], ends[:, 4]), ends[:, 5])
    d_theta = np.abs(theta0 - theta1)
    return (
        float(d_theta.max()),
        float(np.abs(phi1 - math.pi / 2.0).max()),
        float(np.maximum(d_theta, np.abs(phi0 - phi1)).max()),
    )


def angle_change_check(
    rep_pair, p: int, samples: int = 1000, seed: int = 0
) -> SweepReport:
    """Angle coordinates barely move between two developed complexes.

    Both representations must develop the same complex at the same R;
    segments leave a shared cuff axis at matched points and end at the
    images of the base point under matched holonomy words.  The circle,
    the complex's first regular circle (ValueError when it has none),
    sits on the axis (0, infinity) in its left-oriented coordinates, so
    the angles are measured in the axis frame (_UP, _BINORMAL).  The theta
    shift and the phi defect from pi/2 are each bounded by 1/(4p), their
    maximum by 1/p.  Samples whose endpoints are closer than R/2 are
    rejected and redrawn.  Words in the circle's own cuff letters alone
    map the base point onto the axis (see _axis_letters), so their
    segments run along it in both developments; they count as samples
    and shift no angle.  DegenerateError names a word whose holonomy
    rounds to a singular matrix, as happens past double precision, and
    OverflowError names R when a word image lies too far out for the
    rejection test to measure (as at R = 130).

    The attempts come from one stream.  Each slice of up to _SLICE
    accepted samples is filled in rounds that draw as many attempts as
    the slice still lacks and test them as arrays, so no attempt is
    drawn past the one that completes the sample count, and an error is
    raised at the attempt where testing one attempt at a time raises it:
    a new word's images first, then that attempt's rejection test, then
    RuntimeError after 50 * samples attempts.
    """
    rho0, rho1 = rep_pair
    if rho0.complex != rho1.complex:
        raise ValueError("representations must develop the same complex")
    R = rho0.params.R
    if rho1.params.R != R:
        raise ValueError("representations must share R")
    if p < 2:
        raise ValueError("need p >= 2")
    if samples < 1:
        raise ValueError("need at least one sample")
    cutoff = 1.0 / (10000.0 * p * p)
    regular = rho0.complex.regular_circles()
    if not regular:
        raise ValueError("the complex has no regular circle to measure the angles along")
    word_mats = [_axis_letters(rho, regular[0]) for rho in (rho0, rho1)]
    n_letters = len(word_mats[0])

    # per reduced word seen (at most 8 + 8 * 7 + 8 * 7^2 with eight
    # letters): its row of `ends`, the base point's images under both
    # representations as (real, imag, height) * 2
    words = {}
    ends = []
    stream = Stream((seed, 0x3A7))
    maxima = (0.0, 0.0, 0.0)
    accepted = 0
    rejected = 0
    budget = 50 * samples
    while accepted < samples:
        size = min(_SLICE, samples - accepted)
        heights = np.empty(0)
        word_rows = np.empty(0, dtype=np.intp)
        while len(heights) < size:
            # each round draws only attempts that this slice still needs,
            # so none lies past the attempt that completes the sample count
            k = min(size - len(heights), budget)
            if k == 0:
                raise RuntimeError("could not draw enough admissible samples")
            budget -= k
            xt, drawn = _draw_attempts(stream, k, cutoff, R, n_letters)
            # rows of the attempts' words, up to a new word whose images
            # fail; the attempts before it are still tested, in order
            rows = []
            failed = None
            for word in drawn:
                if word not in words:
                    try:
                        ends.append(_word_images(word_mats, word))
                    except (ArithmeticError, ValueError) as exc:
                        failed = (word, exc)
                        break
                    words[word] = len(ends) - 1
                rows.append(words[word])
            xt = np.array(xt[: len(rows)])
            rows = np.array(rows, dtype=np.intp)
            try:
                near = _near(xt, np.array(ends).reshape(-1, 6)[rows], R)
            except OverflowError as exc:
                raise OverflowError(
                    f"R = {R!r} is too large for double precision: a word image's"
                    " distance from the base point overflows"
                ) from exc
            if failed is not None:
                word, exc = failed
                if isinstance(exc, ZeroDivisionError):
                    raise DegenerateError(
                        f"R = {R!r} is too large for double precision: the holonomy"
                        f" of word {list(word)} rounds to a singular matrix"
                    ) from None
                raise exc
            rejected += int(near.sum())
            heights = np.concatenate((heights, xt[~near]))
            word_rows = np.concatenate((word_rows, rows[~near]))
        shifts = _angle_shifts(heights, np.array(ends)[word_rows])
        maxima = tuple(map(max, maxima, shifts))
        accepted += size
    max_theta, max_phi, max_combined = maxima
    rows = (
        SweepRow(
            params=(("p", p), ("R", R), ("check", "theta-shift")),
            measured=max_theta,
            bound=1.0 / (4.0 * p),
        ),
        SweepRow(
            params=(("p", p), ("R", R), ("check", "phi-orthogonality")),
            measured=max_phi,
            bound=1.0 / (4.0 * p),
        ),
        SweepRow(
            params=(("p", p), ("R", R), ("check", "combined")),
            measured=max_combined,
            bound=1.0 / p,
        ),
    )
    return SweepReport(
        name="angle-change",
        rows=rows,
        samples=accepted,
        rejected=rejected,
    )
