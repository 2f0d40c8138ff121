"""Elementwise counterparts of ``geom``'s scalar primitives on numpy arrays.

Each function repeats the operations of its scalar counterpart one for
one and gives the same bits on every element.  Complex numbers are
(real, imaginary) pairs of float arrays, multiplied and divided as
CPython's complex type does it; every transcendental function is
``math``'s, mapped over the array through Python floats (``floats``).
numpy's own complex multiply and abs, and its exp, sinh, acos, acosh,
... differ from those in the last bit on some inputs.  Points are
(horizontal pair, height) and tangent vectors (horizontal pair,
vertical), as separate arguments or tuples.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "add",
    "angle_between",
    "apply_to_point",
    "direction",
    "div",
    "floats",
    "matmul",
    "mul",
    "norm",
    "pairs",
    "point_distance",
    "python_floats",
    "scale",
    "square",
]


def floats(f, *columns):
    """``f`` applied elementwise to broadcast float arrays, through Python floats."""
    columns = np.broadcast_arrays(*columns)
    flat = map(f, *(np.ravel(c).tolist() for c in columns))
    return np.fromiter(flat, float, count=columns[0].size).reshape(columns[0].shape)


# Python floats overflow to inf and turn inf - inf into nan silently;
# kernels built from these functions run under this errstate, so that
# they neither warn nor stop there either
python_floats = np.errstate(over="ignore", invalid="ignore")


def square(x):
    """``x ** 2`` as CPython computes it: libm's pow, which is not always x * x."""
    return floats(pow, x, 2.0)


def mul(a, b):
    """CPython's complex product."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def add(a, b):
    return a[0] + b[0], a[1] + b[1]


def scale(a, x):
    """Complex times float: CPython multiplies by complex(x, 0.0)."""
    return mul(a, (x, 0.0))


def div(a, x):
    """Complex over nonzero float: CPython's complex division by complex(x, 0.0)."""
    ratio = 0.0 / x
    denom = x + 0.0 * ratio
    return (a[0] + a[1] * ratio) / denom, (a[1] - a[0] * ratio) / denom


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


def apply_to_point(m, z, t):
    """geom.apply_to_point elementwise: returns the image's (z, t)."""
    a, b, c, d = m
    w = add(mul(c, z), d)
    denom = square(np.hypot(*w)) + square(np.hypot(*c)) * t * t
    top = add(
        mul(add(mul(a, z), b), (w[0], -w[1])),
        scale(scale(mul(a, (c[0], -c[1])), t), t),
    )
    return div(top, denom), t / denom


def point_distance(z1, t1, z2, t2):
    """geom.hyperbolic_point_distance elementwise."""
    dz2 = square(np.hypot(z1[0] - z2[0], z1[1] - z2[1])) + square(t1 - t2)
    return floats(math.acosh, 1.0 + dz2 / (2.0 * t1 * t2))


def direction(p, pt, q, qt):
    """Unit tangent at p of the geodesic through p and q, pointing to q.

    When q lies straight above or below p (horizontal offset under
    1e-14) the geodesic is vertical.  Otherwise it is the semicircle
    over the line from p's foot toward q's, and the tangent is taken
    toward its forward endpoint; an endpoint that rounds onto p's own
    foot gives the downward ray.  Returns (horizontal pair, vertical).
    """
    dz = (q[0] - p[0], q[1] - p[1])
    d = np.hypot(*dz)
    vertical = d < 1e-14
    if np.any(vertical & (np.abs(qt - pt) < 1e-300)):
        raise ValueError("coincident points span no geodesic")
    up = vertical & (qt > pt)
    d = np.where(vertical, 1.0, d)
    u = div(dz, d)
    x = (d * d + square(qt) - square(pt)) / (2.0 * d)
    r = floats(math.hypot, x, pt)
    forward = add(p, scale(u, x + r))
    v = (forward[0] - p[0], forward[1] - p[1])
    dv = np.hypot(*v)
    down = vertical | (dv < 1e-300)
    dv = np.where(down, 1.0, dv)
    rv = (dv * dv + pt * pt) / (2.0 * dv)
    h = scale(div(v, dv), pt / rv)
    return (
        (np.where(down, 0.0, h[0]), np.where(down, 0.0, h[1])),
        np.where(up, 1.0, np.where(down, -1.0, (dv - rv) / rv)),
    )


def norm(v):
    """Euclidean length of tangent vectors (horizontal pair, vertical)."""
    return floats(math.hypot, np.hypot(*v[0]), v[1])


def angle_between(v, w):
    """Angle between tangent vectors (horizontal pair, vertical) at one point.

    The model metric is conformal to the Euclidean one, so this is the
    Euclidean angle.
    """
    dot = mul(v[0], (w[0][0], -w[0][1]))[0] + v[1] * w[1]
    dot = dot / (norm(v) * norm(w))
    # max(-1.0, min(1.0, dot)), which keeps 1.0 for a nan
    clipped = np.where(dot < 1.0, dot, 1.0)
    return floats(math.acos, np.where(clipped > -1.0, clipped, -1.0))
