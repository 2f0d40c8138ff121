"""verify's array checks, and the elementwise kernels they are built from.

The QI sampler (``certify_qi``) and the word scan (``nontriviality_scan``)
run on numpy arrays; ``holonomy`` develops the complex they read.  Each
kernel repeats the operations of its scalar counterpart in ``geom`` one
for one and gives the same bits on every element.  Complex numbers are
(real, imaginary) pairs of float arrays, multiplied and divided as
CPython's complex type does it; every transcendental function is
``math``'s, mapped over the array through Python floats (``floats``).
numpy's own complex multiply, divide and abs, and its exp, sinh, acos,
acosh, ... differ from those in the last bit on some inputs; its sqrt
and hypot are the C library's, as in CPython's complex abs and
cmath.sqrt.  ``modulus``, ``square`` and ``exp`` raise OverflowError
where abs, ``**`` and cmath.exp do, and so do the kernels built on
them (``apply_to_point``, ``point_distance``, ``screw``).  Points are
(horizontal pair, height), as separate arguments.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .geom import MoebiusMap
from .streams import first_integers, spawned_words, uniform_doubles, unit_doubles

if TYPE_CHECKING:
    from .holonomy import ViableRep

__all__ = [
    "QiReport",
    "ScanReport",
    "add",
    "apply_to_point",
    "certify_qi",
    "div",
    "exp",
    "floats",
    "matmul",
    "modulus",
    "mul",
    "nontriviality_scan",
    "normalize",
    "pairs",
    "point_distance",
    "quot",
    "scale",
    "screw",
    "sqrt",
    "square",
    "sub",
]


def floats(f, *columns):
    """``f`` applied elementwise to broadcast float arrays, through Python floats."""
    columns = np.broadcast_arrays(*columns)
    flat = map(f, *(np.ravel(c).tolist() for c in columns))
    return np.fromiter(flat, float, count=columns[0].size).reshape(columns[0].shape)


def square(x):
    """``x ** 2`` as CPython computes it: libm's pow, which is not always x * x."""
    return floats(pow, x, 2.0)


def mul(a, b):
    """CPython's complex product."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def add(a, b):
    return a[0] + b[0], a[1] + b[1]


def sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def scale(a, x):
    """Complex times float: CPython multiplies by complex(x, 0.0)."""
    return mul(a, (x, 0.0))


def div(a, x):
    """Complex over nonzero float: CPython's complex division by complex(x, 0.0)."""
    ratio = 0.0 / x
    denom = x + 0.0 * ratio
    return (a[0] + a[1] * ratio) / denom, (a[1] - a[0] * ratio) / denom


def quot(a, b):
    """CPython's complex quotient a / b (``_Py_c_quot``).

    It divides top and bottom by the larger part of b, real or
    imaginary; a zero divisor raises ZeroDivisionError, as it does.
    """
    return _divide(a, _divisor(b))


def _divisor(b):
    """What _Py_c_quot derives from the divisor alone: branch, ratio, denom."""
    br, bi = np.broadcast_arrays(*b)
    if np.any((br == 0.0) & (bi == 0.0)):
        raise ZeroDivisionError("complex division by zero")
    by_real = np.abs(br) >= np.abs(bi)
    # a nan part selects the imaginary branch, whose result is nan too
    big = np.where(by_real, br, bi)
    small = np.where(by_real, bi, br)
    ratio = small / big
    return by_real, ratio, big + small * ratio


def _divide(a, divisor):
    by_real, ratio, denom = divisor
    return (
        np.where(by_real, a[0] + a[1] * ratio, a[0] * ratio + a[1]) / denom,
        np.where(by_real, a[1] - a[0] * ratio, a[1] * ratio - a[0]) / denom,
    )


def modulus(a):
    """abs() of complex numbers: hypot, raising where CPython's abs raises.

    That is an OverflowError when finite parts have a modulus past double
    range; infinite parts give inf and nan parts nan, silently.
    """
    r = np.hypot(*a)
    if np.any(np.isinf(r) & np.isfinite(a[0]) & np.isfinite(a[1])):
        raise OverflowError("absolute value too large")
    return r


# cmath.exp takes exp(x - 1) * e past this real part, so that exp(x)
# alone need not be finite for a finite product with cos or sin
_LOG_LARGE_DOUBLE = math.log(sys.float_info.max / 4.0)


def exp(z):
    """cmath.exp of finite complex numbers, raising OverflowError as it does."""
    x, y = z
    large = x > _LOG_LARGE_DOUBLE
    r = floats(math.exp, np.where(large, x - 1.0, x))
    real = r * floats(math.cos, y)
    imag = r * floats(math.sin, y)
    real = np.where(large, real * math.e, real)
    imag = np.where(large, imag * math.e, imag)
    if np.any(np.isinf(real) | np.isinf(imag)):
        raise OverflowError("math range error")
    return real, imag


def sqrt(z):
    """cmath.sqrt of finite complex numbers: the principal root.

    The root of the larger part is taken from |z| scaled by 1/8, or by
    2**53 when both parts are subnormal-small, as cmath does, and a zero
    keeps the sign of its imaginary part.
    """
    x, y = np.broadcast_arrays(*z)
    ax, ay = np.abs(x), np.abs(y)
    tiny = (ax < sys.float_info.min) & (ay < sys.float_info.min)
    up = np.ldexp(ax, 53)
    s = np.where(
        tiny,
        np.ldexp(np.sqrt(up + np.hypot(up, np.ldexp(ay, 53))), -27),
        2.0 * np.sqrt(ax / 8.0 + np.hypot(ax / 8.0, ay / 8.0)),
    )
    zero = (x == 0.0) & (y == 0.0)
    # a zero never divides: its s is 0, and its parts are set below
    d = ay / (2.0 * np.where(zero, 1.0, s))
    right = x >= 0.0
    real = np.where(zero, 0.0, np.where(right, s, d))
    imag = np.where(zero, y, np.copysign(np.where(right, d, s), y))
    return real, imag


def pairs(m):
    """The entries of a MoebiusMap as pairs."""
    return tuple((e.real, e.imag) for e in m.entries())


def matmul(m, n):
    """MoebiusMap.__mul__ on pairs, without its sign convention.

    The convention negates a product or not; negation is exact, and no
    point image depends on the sign of the matrix.
    """
    a, b, c, d = m
    p, q, r, s = n
    return (
        add(mul(a, p), mul(b, r)),
        add(mul(a, q), mul(b, s)),
        add(mul(c, p), mul(d, r)),
        add(mul(c, q), mul(d, s)),
    )


def normalize(m):
    """MoebiusMap's determinant normalization, without its sign convention.

    Divides the entries by the principal root of ad - bc; a determinant
    below 1e-12 in modulus raises ValueError, as the constructor does.
    """
    a, b, c, d = m
    det = sub(mul(a, d), mul(b, c))
    if np.any(modulus(det) < 1e-12):
        raise ValueError("singular matrix is not a Moebius map")
    s = _divisor(sqrt(det))
    return _divide(a, s), _divide(b, s), _divide(c, s), _divide(d, s)


def screw(z):
    """geom._screw elementwise: the screw along (0, infinity) by z.

    Without the sign convention, like normalize.
    """
    half = exp(div(z, 2.0))
    zero = (0.0, 0.0)
    return normalize((half, zero, zero, quot((1.0, 0.0), half)))


def apply_to_point(m, z, t):
    """geom.apply_to_point elementwise: returns the image's (z, t).

    Raises where the scalar function raises on its arithmetic: abs() or
    a square past double range, and a zero denominator.  The height
    check of Point is left to the caller.
    """
    a, b, c, d = m
    w = add(mul(c, z), d)
    denom = square(modulus(w)) + square(modulus(c)) * t * t
    if np.any(denom == 0.0):
        raise ZeroDivisionError("float division by zero")
    top = add(
        mul(add(mul(a, z), b), (w[0], -w[1])),
        scale(scale(mul(a, (c[0], -c[1])), t), t),
    )
    return div(top, denom), t / denom


def point_distance(z1, t1, z2, t2):
    """geom.hyperbolic_point_distance elementwise."""
    dz2 = square(modulus(sub(z1, z2))) + square(t1 - t2)
    return floats(math.acosh, 1.0 + dz2 / (2.0 * t1 * t2))


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
    # Python floats overflow to inf and turn inf - inf into nan silently;
    # under this errstate the elementwise kernels neither warn nor stop
    # there either
    with np.errstate(over="ignore", invalid="ignore"):
        ones, zeros = np.ones(len(n_seg)), np.zeros(len(n_seg))
        frame = ((ones, zeros), (zeros, zeros), (zeros, zeros), (ones, zeros))
        total = np.zeros(len(n_seg))
        to_horizontal = pairs(_TO_HORIZONTAL)
        from_horizontal = pairs(_TO_HORIZONTAL.inverse())
        for j in range(int(np.max(n_seg))):
            active = j < n_seg
            length = draws[:, 3 * j]
            total += np.where(active, length, 0.0)
            step = matmul(frame, screw((length, 0.0)))
            if j + 1 < _QI_MAX_SEG:
                bend, spin = draws[:, 3 * j + 1], draws[:, 3 * j + 2]
                tilt = matmul(
                    matmul(from_horizontal, screw(scale((0.0, 1.0), math.pi - bend))),
                    to_horizontal,
                )
                turned = matmul(matmul(step, screw(scale((0.0, 1.0), spin))), tilt)
                step = _select(j + 1 < n_seg, turned, step)
            frame = _select(active, step, frame)
        z, t = apply_to_point(frame, (0.0, 0.0), 1.0)
        if not np.all(t > 0.0):
            # Point refuses the height: the frame's entries left double range
            raise OverflowError("interior points need positive height")
        return point_distance((0.0, 0.0), 1.0, z, t), total


def _select(keep, new, old):
    """Entries of the 2x2 matrices new where keep holds, of old elsewhere."""
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
    if p < 3:
        raise ValueError("need p >= 3 for admissible bends")
    if not 0.0 < R < math.inf:
        raise ValueError("need a finite R > 0")
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
