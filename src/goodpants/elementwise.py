"""Elementwise counterparts of ``geom``'s scalar primitives on numpy arrays.

Each function repeats the operations of its scalar counterpart one for
one and gives the same bits on every element.  Complex numbers are
(real, imaginary) pairs of float arrays, multiplied and divided as
CPython's complex type does it; every transcendental function is
``math``'s, mapped over the array through Python floats (``floats``).
numpy's own complex multiply, divide and abs, and its exp, sinh, acos,
acosh, ... differ from those in the last bit on some inputs; its sqrt
and hypot are the C library's, as in CPython's complex abs and
cmath.sqrt.  ``modulus``, ``square`` and ``exp`` raise OverflowError
where abs, ``**`` and cmath.exp do, and so do the kernels built on
them (``apply_to_point``, ``point_distance``, ``screw``).  Points are
(horizontal pair, height), as separate arguments.  The QI sampler and
the word scan are built from these kernels.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "add",
    "apply_to_point",
    "div",
    "exp",
    "floats",
    "matmul",
    "modulus",
    "mul",
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
