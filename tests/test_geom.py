import cmath
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from goodpants.geom import (
    INFINITY,
    DegenerateError,
    MoebiusMap,
    NotLoxodromicError,
    OrientedGeodesic,
    Point,
    complex_translation_length,
    hexagon_solve,
    hyperbolic_point_distance,
    mobius_apply,
    reduce_angle,
    translate_along,
)
from oracles import (
    IntersectingError,
    SharedEndpointError,
    axis_of,
    common_perpendicular,
    complex_distance,
    maps_close,
    moebius_entries_by_phase,
)


def random_moebius(rng):
    while True:
        try:
            return MoebiusMap(
                *(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4))
            )
        except ValueError:
            pass


parts = st.floats(min_value=-1e6, max_value=1e6)
signs = st.sampled_from([1.0, -1.0])


@st.composite
def sign_entries(draw):
    """Four entries whose first above 1e-14 lies on, near or away from
    the imaginary axis, with |imag|/|real| at and either side of 2^40
    (a phase about 2^-40 from +-pi/2); entries before it lie below
    1e-14, and the others are anything, ints and floats included."""
    imag = draw(st.floats(min_value=1e-12, max_value=1e6)) * draw(signs)
    kind = draw(st.sampled_from(["axis", "ratio", "near", "any"]))
    if kind == "axis":
        first = complex(draw(st.sampled_from([0.0, -0.0])), imag)
    elif kind == "ratio":
        ratio = 2.0**40 * draw(st.sampled_from([1 - 2**-40, 1 - 2**-52, 1.0, 1 + 2**-52, 1 + 2**-40]))
        first = complex(draw(signs) * abs(imag) / ratio, imag)
    elif kind == "near":
        first = complex(draw(signs) * abs(imag) * 2.0 ** -draw(st.floats(20, 60)), imag)
    else:
        first = complex(draw(parts), draw(parts))
    tiny = st.builds(complex, parts, parts).map(lambda z: z * 1e-21)
    before = draw(st.lists(tiny, max_size=3))
    rest = st.one_of(st.builds(complex, parts, parts), st.integers(-3, 3), parts)
    return before + [first] + draw(st.lists(rest, min_size=3 - len(before), max_size=3 - len(before)))


def random_geodesic(rng):
    while True:
        a = complex(rng.gauss(0, 2), rng.gauss(0, 2))
        b = complex(rng.gauss(0, 2), rng.gauss(0, 2))
        if abs(a - b) > 1e-3:
            return OrientedGeodesic(a, b)


class TestMobiusApply:
    def test_identity(self):
        assert mobius_apply(MoebiusMap.identity(), 3 + 1j) == 3 + 1j

    def test_pole_goes_to_infinity(self):
        m = MoebiusMap(0, 1, -1, 0)
        assert mobius_apply(m, 0j) is INFINITY

    def test_diagonal_scaling(self):
        m = MoebiusMap(math.e, 0, 0, 1 / math.e)
        assert abs(mobius_apply(m, 1 + 0j) - math.e**2) < 1e-12

    def test_infinity_maps_to_a_over_c(self):
        m = MoebiusMap(2, 1, 1, 1)
        assert abs(mobius_apply(m, INFINITY) - 2) < 1e-12


class TestMoebiusMap:
    def test_determinant_normalized(self):
        m = MoebiusMap(3, 1, 1, 2)
        a, b, c, d = m.entries()
        assert abs(a * d - b * c - 1) < 1e-12

    def test_equality_modulo_sign(self):
        # m and -m are one map, and the sign convention gives them one
        # set of entries
        m = MoebiusMap(2, 1, 1, 1)
        n = MoebiusMap(-2, -1, -1, -1)
        assert maps_close(m, n, tol=1e-12)
        assert m.entries() == n.entries()

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            MoebiusMap(1, 1, 1, 1)

    @settings(max_examples=500, deadline=None)
    @given(entries=sign_entries(), unit_det=st.booleans())
    def test_sign_rule_matches_the_phase_loop(self, entries, unit_det):
        # the same bits, signed zeros included, as choosing the sign by
        # cmath.phase on the first entry above 1e-14
        try:
            m = MoebiusMap(*entries, _unit_det=unit_det)
        except ValueError:
            assume(False)
        assert repr(m.entries()) == repr(moebius_entries_by_phase(*entries, unit_det=unit_det))

    def test_inverse(self):
        rng = random.Random(0)
        for _ in range(50):
            m = random_moebius(rng)
            assert maps_close(m * m.inverse(), MoebiusMap.identity(), 1e-9)


def test_numeric_failures_are_arithmetic_errors():
    # the command line exits 3 on an ArithmeticError; existing callers
    # still catch DegenerateError as a ValueError
    assert issubclass(DegenerateError, ArithmeticError) and issubclass(DegenerateError, ValueError)
    assert issubclass(NotLoxodromicError, DegenerateError)


class TestComplexTranslationLength:
    def test_real_diagonal(self):
        m = MoebiusMap(math.e, 0, 0, 1 / math.e)
        val = complex_translation_length(m)
        assert abs(val - 2) < 1e-12

    def test_complex_diagonal(self):
        half = cmath.exp((3 + math.pi * 1j) / 2)
        m = MoebiusMap(half, 0, 0, 1 / half)
        val = complex_translation_length(m)
        assert abs(val - (3 + math.pi * 1j)) < 1e-9

    def test_elliptic_rejected(self):
        with pytest.raises(NotLoxodromicError):
            complex_translation_length(MoebiusMap(0, 1, -1, 0))

    def test_identity_rejected(self):
        with pytest.raises(NotLoxodromicError):
            complex_translation_length(MoebiusMap.identity())

    def test_parabolic_rejected(self):
        with pytest.raises(NotLoxodromicError):
            complex_translation_length(MoebiusMap(1, 1, 0, 1))

    def test_conjugation_invariant(self):
        # 1000 random loxodromic m, random conjugators g
        rng = random.Random(7)
        count = 0
        while count < 1000:
            m = random_moebius(rng)
            g = random_moebius(rng)
            try:
                l0 = complex_translation_length(m)
            except NotLoxodromicError:
                continue
            l1 = complex_translation_length(g * m * g.inverse())
            assert abs(l0 - l1) < 1e-9
            count += 1


class TestComplexDistance:
    def test_orthogonal_intersection(self):
        g1 = OrientedGeodesic(0j, INFINITY)
        g2 = OrientedGeodesic(-1 + 0j, 1 + 0j)
        val = complex_distance(g1, g2)
        assert abs(val - (math.pi / 2) * 1j) < 1e-12

    def test_disjoint_pair(self):
        g1 = OrientedGeodesic(0j, INFINITY)
        g2 = OrientedGeodesic(2 + 0j, 1 + 0j)
        val = complex_distance(g1, g2)
        assert abs(val - math.acosh(3)) < 1e-12

    def test_orientation_reversal_adds_pi(self):
        g1 = OrientedGeodesic(0j, INFINITY)
        g2 = OrientedGeodesic(1 + 0j, 2 + 0j)
        val = complex_distance(g1, g2)
        assert abs(val - (math.acosh(3) + math.pi * 1j)) < 1e-12

    def test_shared_endpoint_rejected(self):
        g1 = OrientedGeodesic(0j, INFINITY)
        g2 = OrientedGeodesic(0j, 1 + 0j)
        with pytest.raises(SharedEndpointError):
            complex_distance(g1, g2)

    def test_symmetry_and_reversal_on_random_pairs(self):
        # real part symmetric; reversing one orientation adds pi mod 2pi
        rng = random.Random(3)
        count = 0
        while count < 1000:
            g1, g2 = random_geodesic(rng), random_geodesic(rng)
            try:
                d = complex_distance(g1, g2)
                dr = complex_distance(g1, OrientedGeodesic(g2.target, g2.source))
                ds = complex_distance(g2, g1)
            except SharedEndpointError:
                continue
            count += 1
            assert abs(d.real - ds.real) < 1e-9
            assert abs(d.real - dr.real) < 1e-9
            diff = (d.imag - dr.imag) % (2 * math.pi)
            assert abs(diff - math.pi) < 1e-9

    def test_conjugation_invariant(self):
        rng = random.Random(11)
        count = 0
        while count < 300:
            g1, g2 = random_geodesic(rng), random_geodesic(rng)
            g = random_moebius(rng)
            try:
                d0 = complex_distance(g1, g2)
                d1 = complex_distance(g1.apply(g), g2.apply(g))
            except SharedEndpointError:
                continue
            count += 1
            assert abs(d0 - d1) < 1e-7


class TestCommonPerpendicular:
    def test_symmetric_example(self):
        g1 = OrientedGeodesic(0j, INFINITY)
        g2 = OrientedGeodesic(1 + 0j, 2 + 0j)
        perp = common_perpendicular(g1, g2)
        ends = sorted([perp.source, perp.target], key=lambda z: z.real)
        assert abs(ends[0] + math.sqrt(2)) < 1e-9
        assert abs(ends[1] - math.sqrt(2)) < 1e-9

    def test_intersecting_rejected(self):
        g1 = OrientedGeodesic(0j, INFINITY)
        g2 = OrientedGeodesic(-2 + 0j, 2 + 0j)
        with pytest.raises(IntersectingError):
            common_perpendicular(g1, g2)

    def test_shared_endpoint_rejected(self):
        g1 = OrientedGeodesic(0j, INFINITY)
        g2 = OrientedGeodesic(0j, 1 + 0j)
        with pytest.raises(SharedEndpointError):
            common_perpendicular(g1, g2)

    def test_orthogonality_on_random_pairs(self):
        rng = random.Random(5)
        count = 0
        while count < 300:
            g1, g2 = random_geodesic(rng), random_geodesic(rng)
            try:
                if complex_distance(g1, g2).real < 1e-3:
                    continue
                perp = common_perpendicular(g1, g2)
            except (SharedEndpointError, IntersectingError):
                continue
            count += 1
            for g in (g1, g2):
                a = complex_distance(perp, g)
                assert abs(a.real) < 1e-9
                assert abs(abs(a.imag) - math.pi / 2) < 1e-9


class TestHexagonSolve:
    def test_unit_symmetric(self):
        expect = math.acosh(math.cosh(1) / (math.cosh(1) - 1))
        for d in hexagon_solve(1, 1, 1):
            assert abs(d - expect) < 1e-9

    def test_long_symmetric_asymptotic(self):
        # dual side of the symmetric R/2 hexagon is about 2 e^{-R/4}
        h = hexagon_solve(10, 10, 10)
        assert abs(h[0].real - 2 * math.exp(-5)) / (2 * math.exp(-5)) < 0.05

    def test_sides_to_infinity(self):
        assert hexagon_solve(40, 40, 40)[0].real < 1e-4

    def test_sides_past_double_range(self):
        # sinh(350)^2 is still finite; sinh(400)^2 is not, and the dual
        # side would silently read 0
        assert hexagon_solve(350, 350, 350)[0].real > 0
        with pytest.raises(OverflowError):
            hexagon_solve(400, 400, 400)

    def test_residuals_on_random_skew_data(self):
        rng = random.Random(2)
        for _ in range(200):
            sides = [complex(rng.uniform(0.5, 6), rng.uniform(-0.5, 0.5)) for _ in range(3)]
            duals = hexagon_solve(*sides)
            for i in range(3):
                j, k = (i + 1) % 3, (i + 2) % 3
                lhs = cmath.cosh(duals[i])
                rhs = (
                    cmath.cosh(sides[i]) + cmath.cosh(sides[j]) * cmath.cosh(sides[k])
                ) / (cmath.sinh(sides[j]) * cmath.sinh(sides[k]))
                assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    def test_symmetric_closed_form_grid(self):
        for R in (2, 6, 10, 20, 40):
            h = hexagon_solve(R / 2, R / 2, R / 2)
            closed = math.acosh(math.cosh(R / 2) / (math.cosh(R / 2) - 1))
            assert abs(h[0].real - closed) < 1e-9
            assert abs(h[0].imag) < 1e-9


class TestTranslateAlong:
    def test_vertical_axis_real_length(self):
        m = translate_along(OrientedGeodesic(0j, INFINITY), 2)
        assert maps_close(m, MoebiusMap(math.e, 0, 0, 1 / math.e))

    def test_vertical_axis_complex_length(self):
        d = 3 + math.pi * 1j
        m = translate_along(OrientedGeodesic(0j, INFINITY), d)
        assert abs(complex_translation_length(m) - d) < 1e-9

    def test_conjugated_axis_round_trip(self):
        m = translate_along(OrientedGeodesic(1 + 0j, -1 + 0j), 2)
        assert abs(complex_translation_length(m) - 2) < 1e-9
        ax = axis_of(m)
        assert abs(ax.source - 1) < 1e-9
        assert abs(ax.target + 1) < 1e-9

    def test_round_trip_on_random_axes(self):
        rng = random.Random(13)
        for _ in range(300):
            g = random_moebius(rng)
            d = complex(rng.uniform(0.1, 5), rng.uniform(-3, 3))
            ax = OrientedGeodesic(mobius_apply(g, 0j), mobius_apply(g, INFINITY))
            m = translate_along(ax, d)
            want = complex(d.real, reduce_angle(d.imag))
            assert abs(complex_translation_length(m) - want) < 1e-8
            ax2 = axis_of(m)
            assert abs(ax2.source - ax.source) < 1e-6 * max(1.0, abs(ax.source))
            assert abs(ax2.target - ax.target) < 1e-6 * max(1.0, abs(ax.target))


class TestPointDistance:
    def test_vertical_segment(self):
        assert abs(hyperbolic_point_distance(Point(0j, 1), Point(0j, math.e)) - 1) < 1e-12

    def test_zero(self):
        assert hyperbolic_point_distance(Point(0j, 1), Point(0j, 1)) == 0

    def test_horizontal_offset(self):
        d = hyperbolic_point_distance(Point(0j, 1), Point(3 + 0j, 1))
        assert abs(d - math.acosh(1 + 9 / 2)) < 1e-12

    def test_symmetric_and_triangle(self):
        rng = random.Random(17)
        for _ in range(100):
            pts = [
                Point(complex(rng.gauss(0, 1), rng.gauss(0, 1)), rng.uniform(0.1, 3))
                for _ in range(3)
            ]
            dab = hyperbolic_point_distance(pts[0], pts[1])
            dba = hyperbolic_point_distance(pts[1], pts[0])
            assert abs(dab - dba) < 1e-12
            dbc = hyperbolic_point_distance(pts[1], pts[2])
            dac = hyperbolic_point_distance(pts[0], pts[2])
            assert dac <= dab + dbc + 1e-12
