"""Sweep reports and the hexagon sweep, in the standard library.

The numpy-free half of ``lemmalab``: the report records every sweep
returns, which serialize to canonical JSON and CSV, and the hexagon
sweep, which measures a handful of exact configurations with ``geom``.
``lemmalab`` re-exports all three, and ``lemma hexagon`` imports this
module alone, so it starts without numpy.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import NamedTuple

from .geom import (
    INFINITY,
    OrientedGeodesic,
    Point,
    apply_to_point,
    hexagon_solve,
    hyperbolic_point_distance,
    point_to_geodesic_distance,
    translate_along,
)

__all__ = ["SweepReport", "SweepRow", "hexagon_asymptotics_check"]


class SweepRow(NamedTuple):
    """One grid point of a sweep: parameters, worst measurement, bound."""

    params: tuple[tuple[str, object], ...]
    measured: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.bound


class SweepReport(NamedTuple):
    """Outcome of one sweep; passes when every row does."""

    name: str
    rows: tuple[SweepRow, ...]
    samples: int = 0
    rejected: int = 0
    stats: tuple[tuple[str, float], ...] = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_json(self) -> str:
        obj = {
            "version": 1,
            "name": self.name,
            "samples": self.samples,
            "rejected": self.rejected,
            "stats": dict(self.stats),
            "rows": [
                {
                    "params": dict(r.params),
                    "measured": r.measured,
                    "bound": r.bound,
                    "pass": r.passed,
                }
                for r in self.rows
            ],
            "pass": self.passed,
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    def to_csv(self) -> str:
        keys = sorted({k for r in self.rows for k, _ in r.params})
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(keys + ["measured", "bound", "pass"])
        for r in self.rows:
            d = dict(r.params)
            writer.writerow(
                [d.get(k, "") for k in keys]
                + [repr(r.measured), repr(r.bound), str(r.passed).lower()]
            )
        return out.getvalue()


def _least_squares_slope(xs, ys) -> float:
    """Slope of the least-squares line through the points (xs, ys).

    Computed exactly in rationals from the floats and rounded once, so
    it is the correctly rounded slope; the xs must not all be equal and
    the ys must be finite.
    """
    # fractions loads decimal, about 0.5 MB; the sampled sweeps, which
    # import this module through lemmalab, never need it
    from fractions import Fraction

    xs = [Fraction(x) for x in xs]
    ys = [Fraction(y) for y in ys]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    sxx = sum(x * x for x in xs)
    return float((n * sxy - sx * sy) / (n * sxx - sx * sx))


def _hexagon_residuals(R: float) -> tuple[float, float, float]:
    """The d1-identity, d2-identity and chord residuals at one R."""
    d1 = hexagon_solve(R / 2.0, R / 2.0, R / 2.0)[0].real
    target1 = math.cosh(R / 2.0) / (math.cosh(R / 2.0) - 1.0)
    res1 = abs(math.cosh(d1) - target1) / max(1.0, abs(target1))

    perpendicular = OrientedGeodesic(-1.0 + 0j, 1.0 + 0j)
    push = translate_along(perpendicular, d1)
    gamma1 = OrientedGeodesic(0j, INFINITY).apply(push)
    y1 = Point(0j, math.exp(R))
    d2 = point_to_geodesic_distance(y1, gamma1)
    target2 = math.sinh(d1) * math.cosh(R)
    res2 = abs(math.sinh(d2) - target2) / max(1.0, abs(target2))

    y2 = apply_to_point(translate_along(gamma1, R), y1)
    chord = hyperbolic_point_distance(y1, y2)
    return res1, res2, abs(chord - 2.5 * R)


def hexagon_asymptotics_check(R_values) -> SweepReport:
    """Exact identities and the 5R/2 asymptotic for the hexagon spine.

    For each R the symmetric right-angled hexagon with alternating sides
    R/2 yields a perpendicular of length d1; a geodesic is placed at
    distance d1 from the axis point, giving d2 at height R, and the
    chord between the two height-R points is compared to 5R/2.  The two
    closed forms (cosh d1 and sinh d2) are identity rows with bound
    1e-9 on the relative residual; the chord rows are bounded by a
    fitted constant times exp(-R/2).  The stats report the slope of the
    least-squares line through the points (R, ln residual), exactly
    rounded, when at least two R values differ.  From about R = 177.5
    the chord leaves double range, and OverflowError names R.
    """
    R_values = [float(R) for R in R_values]
    if not R_values:
        raise ValueError("need at least one R value")
    if any(R < 2.0 for R in R_values):
        raise ValueError("R values must be at least 2")
    rows = []
    chords = []
    for R in R_values:
        try:
            res1, res2, res3 = _hexagon_residuals(R)
        except OverflowError:
            res3 = math.nan
        if math.isnan(res3):
            # the chord's far end lies at height about e^(2R): its square
            # overflows from R = 177.5, and from R = 355 the height is inf
            # and the distance reads inf / inf
            raise OverflowError(
                f"R = {R!r} is too large for double precision: the chord between"
                " the hexagon's height-R points leaves double range"
            )
        rows.append(
            SweepRow(params=(("R", R), ("check", "d1-identity")), measured=res1, bound=1e-9)
        )
        rows.append(
            SweepRow(params=(("R", R), ("check", "d2-identity")), measured=res2, bound=1e-9)
        )
        chords.append((R, res3))
    fitted = max(res * math.exp(R / 2.0) for R, res in chords)
    for R, res in chords:
        rows.append(
            SweepRow(
                params=(("R", R), ("check", "chord-asymptotic")),
                measured=res,
                bound=fitted * math.exp(-R / 2.0) * (1.0 + 1e-12),
            )
        )
    stats = [("fitted_constant", fitted)]
    if len(set(R_values)) >= 2:
        slope = _least_squares_slope(
            [R for R, _ in chords], [math.log(max(res, 1e-300)) for _, res in chords]
        )
        stats.append(("log_residual_slope", slope))
    return SweepReport(
        name="hexagon-asymptotics",
        rows=tuple(rows),
        samples=len(R_values),
        stats=tuple(stats),
    )
