import cmath
import math
import random

import pytest

from goodpants.geom import (
    INFINITY,
    IntersectingError,
    MoebiusMap,
    NotLoxodromicError,
    OrientedGeodesic,
    Point,
    SharedEndpointError,
    axis_of,
    common_perpendicular,
    complex_distance,
    complex_translation_length,
    hexagon_solve,
    hyperbolic_point_distance,
    mobius_apply,
    reduce_angle,
    translate_along,
)


def random_moebius(rng):
    while True:
        try:
            return MoebiusMap(
                *(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4))
            )
        except ValueError:
            pass


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
        m = MoebiusMap(2, 1, 1, 1)
        n = MoebiusMap(-2, -1, -1, -1)
        assert m == n

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            MoebiusMap(1, 1, 1, 1)

    def test_inverse(self):
        rng = random.Random(0)
        for _ in range(50):
            m = random_moebius(rng)
            assert (m * m.inverse()).distance_to_identity() < 1e-9


class TestComplexTranslationLength:
    def test_real_diagonal(self):
        m = MoebiusMap(math.e, 0, 0, 1 / math.e)
        val = complex(complex_translation_length(m))
        assert abs(val - 2) < 1e-12

    def test_complex_diagonal(self):
        half = cmath.exp((3 + math.pi * 1j) / 2)
        m = MoebiusMap(half, 0, 0, 1 / half)
        val = complex(complex_translation_length(m))
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
                l0 = complex(complex_translation_length(m))
            except NotLoxodromicError:
                continue
            l1 = complex(complex_translation_length(g * m * g.inverse()))
            assert abs(l0 - l1) < 1e-9
            count += 1


class TestComplexDistance:
    def test_orthogonal_intersection(self):
        g1 = OrientedGeodesic(0j, INFINITY)
        g2 = OrientedGeodesic(-1 + 0j, 1 + 0j)
        val = complex(complex_distance(g1, g2))
        assert abs(val - (math.pi / 2) * 1j) < 1e-12

    def test_disjoint_pair(self):
        g1 = OrientedGeodesic(0j, INFINITY)
        g2 = OrientedGeodesic(2 + 0j, 1 + 0j)
        val = complex(complex_distance(g1, g2))
        assert abs(val - math.acosh(3)) < 1e-12

    def test_orientation_reversal_adds_pi(self):
        g1 = OrientedGeodesic(0j, INFINITY)
        g2 = OrientedGeodesic(1 + 0j, 2 + 0j)
        val = complex(complex_distance(g1, g2))
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
                d = complex(complex_distance(g1, g2))
                dr = complex(complex_distance(g1, g2.reversed()))
                ds = complex(complex_distance(g2, g1))
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
                d0 = complex(complex_distance(g1, g2))
                d1 = complex(complex_distance(g1.apply(g), g2.apply(g)))
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
                if complex(complex_distance(g1, g2)).real < 1e-3:
                    continue
                perp = common_perpendicular(g1, g2)
            except (SharedEndpointError, IntersectingError):
                continue
            count += 1
            for g in (g1, g2):
                a = complex(complex_distance(perp, g))
                assert abs(a.real) < 1e-9
                assert abs(abs(a.imag) - math.pi / 2) < 1e-9


class TestHexagonSolve:
    def test_unit_symmetric(self):
        h = hexagon_solve(1, 1, 1)
        expect = math.acosh(math.cosh(1) / (math.cosh(1) - 1))
        for d in h.duals:
            assert abs(d - expect) < 1e-9

    def test_long_symmetric_asymptotic(self):
        # dual side of the symmetric R/2 hexagon is about 2 e^{-R/4}
        h = hexagon_solve(10, 10, 10)
        assert abs(h.duals[0].real - 2 * math.exp(-5)) / (2 * math.exp(-5)) < 0.05

    def test_sides_to_infinity(self):
        assert hexagon_solve(40, 40, 40).duals[0].real < 1e-4

    def test_sides_past_double_range(self):
        # sinh(350)^2 is still finite; sinh(400)^2 is not, and the dual
        # side would silently read 0
        assert hexagon_solve(350, 350, 350).duals[0].real > 0
        with pytest.raises(OverflowError):
            hexagon_solve(400, 400, 400)

    def test_residuals_on_random_skew_data(self):
        rng = random.Random(2)
        for _ in range(200):
            a, b, c = (
                complex(rng.uniform(0.5, 6), rng.uniform(-0.5, 0.5)) for _ in range(3)
            )
            h = hexagon_solve(a, b, c)
            for i in range(3):
                j, k = (i + 1) % 3, (i + 2) % 3
                lhs = cmath.cosh(h.duals[i])
                rhs = (
                    cmath.cosh(h.sides[i]) + cmath.cosh(h.sides[j]) * cmath.cosh(h.sides[k])
                ) / (cmath.sinh(h.sides[j]) * cmath.sinh(h.sides[k]))
                assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    def test_symmetric_closed_form_grid(self):
        for R in (2, 6, 10, 20, 40):
            h = hexagon_solve(R / 2, R / 2, R / 2)
            closed = math.acosh(math.cosh(R / 2) / (math.cosh(R / 2) - 1))
            assert abs(h.duals[0].real - closed) < 1e-9
            assert abs(h.duals[0].imag) < 1e-9


class TestTranslateAlong:
    def test_vertical_axis_real_length(self):
        m = translate_along(OrientedGeodesic(0j, INFINITY), 2)
        assert m.is_close_to(MoebiusMap(math.e, 0, 0, 1 / math.e))

    def test_vertical_axis_complex_length(self):
        d = 3 + math.pi * 1j
        m = translate_along(OrientedGeodesic(0j, INFINITY), d)
        assert abs(complex(complex_translation_length(m)) - d) < 1e-9

    def test_conjugated_axis_round_trip(self):
        m = translate_along(OrientedGeodesic(1 + 0j, -1 + 0j), 2)
        assert abs(complex(complex_translation_length(m)) - 2) < 1e-9
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
            assert abs(complex(complex_translation_length(m)) - want) < 1e-8
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
