import math

import pytest

from goodpants.complexes import build_xp, graph_of, grow_until
from goodpants.geom import Point, complex_translation_length, point_to_geodesic_distance
from goodpants.holonomy import (
    RepParams,
    build_rho,
    certify_qi,
    check_p_separated,
    lift_skeleton,
    measured_shear,
    nontriviality_scan,
)
from goodpants.pants import measured_halflength


def round_trip_errors(x, params):
    rho = build_rho(x, params)
    errs = []
    for i, p in enumerate(x.pants):
        for slot, c in enumerate(p.slots):
            errs.append(
                abs(complex(rho.halflength_at(i, slot)) - params.halflength(c))
            )
    for c in x.regular_circles():
        errs.append(abs(measured_shear(rho, c) - params.shear_of(c)))
    return rho, max(errs)


class TestBuildRho:
    def test_round_trip_standard(self):
        x = build_xp(1, 3)
        for tau in (0.0, 0.5, 1.0):
            params = RepParams.random(x, R=20.0, tau=tau, seed=3)
            _, err = round_trip_errors(x, params)
            assert err < 1e-9

    def test_round_trip_random_perturbations(self):
        x = build_xp(1, 3)
        for seed in range(20):
            params = RepParams.random(x, R=20.0, tau=1.0, seed=seed)
            assert all(abs(v) < 0.1 for v in params.xi + params.eta)
            _, err = round_trip_errors(x, params)
            assert err < 1e-9

    def test_round_trip_bigger_complex(self):
        x = build_xp(2, 5)
        params = RepParams.random(x, R=16.0, tau=1.0, seed=11)
        _, err = round_trip_errors(x, params)
        assert err < 1e-9

    def test_singular_root_power_is_cuff(self):
        import cmath

        from goodpants.geom import _screw
        from goodpants.pants import cuff_frame

        x = build_xp(1, 3)
        params = RepParams.zero(x, R=20.0)
        rho = build_rho(x, params)
        for c in x.singular_circles():
            d = x.circles[c].d
            k = x.circles[c].k
            (pi, slot) = x.attachments_of(c)[0]
            # the root holonomy conjugated back next to its pants; the
            # placed copy is the same matrices pushed out by conj[pi]
            B = cuff_frame(rho.base_reps[pi], slot)
            root = (2.0 * params.halflength(c) + 2.0 * k * cmath.pi * 1j) / d
            t = B.inverse() * _screw(root) * B
            power = t
            for _ in range(d - 1):
                power = power * t
            residual = power * rho.base_reps[pi].cuff(slot).inverse()
            assert residual.distance_to_identity() < 1e-9
            want = rho.conjugators[pi] * t * rho.conjugators[pi].inverse()
            got = rho.singular_holonomy[c]
            scale = max(abs(e) for e in want.entries())
            assert all(
                abs(a - b) < 1e-7 * scale
                for a, b in zip(got.entries(), want.entries())
            ) or all(
                abs(a + b) < 1e-7 * scale
                for a, b in zip(got.entries(), want.entries())
            )

    def test_singular_root_length(self):
        x = build_xp(1, 3)
        params = RepParams.zero(x, R=20.0)
        rho = build_rho(x, params)
        t = rho.singular_holonomy[0]
        length = complex(complex_translation_length(t))
        want = (20.0 + 2.0 * math.pi * 1j) / 3.0
        assert abs(length - want) < 1e-9

    def test_stable_letters_exist(self):
        x = build_xp(1, 3)
        g = graph_of(x)
        rho = build_rho(x, RepParams.zero(x, R=20.0))
        # graph rank = E - V + 1 independent cycles, one stable letter each
        assert len(rho.redeveloped) == len(g.edges) - g.n_vertices + 1

    def test_disconnected_input_rejected(self):
        from goodpants.complexes import Circle, Pants, PantsComplex

        x = PantsComplex(
            pants=(
                Pants(slots=(0, 1, 1)),
                Pants(slots=(0, 1, 1), orientations=(-1, -1, 1)),
                Pants(slots=(2, 3, 3)),
                Pants(slots=(2, 3, 3), orientations=(-1, -1, 1)),
            ),
            circles=(Circle(), Circle(), Circle(), Circle()),
        )
        with pytest.raises(ValueError):
            build_rho(x, RepParams.zero(x, R=10.0))


class TestPSeparated:
    def test_standard_model_is_separated(self):
        x = build_xp(1, 3)
        rho = build_rho(x, RepParams.zero(x, R=20.0, tau=0.0))
        assert check_p_separated(rho, 3)

    def test_separated_for_various_p(self):
        for p in (3, 4, 5):
            x = build_xp(1, p)
            rho = build_rho(x, RepParams.zero(x, R=20.0))
            assert check_p_separated(rho, p)
            # d-fold symmetric feet have gaps 2*pi/d, too narrow for the
            # half-turn separation demanded at p = 2
            assert not check_p_separated(rho, 2)


class TestLiftSkeleton:
    def test_contains_own_axes(self):
        x = build_xp(1, 3)
        rho = build_rho(x, RepParams.zero(x, R=12.0))
        radius = 8.0
        lifts = lift_skeleton(rho, radius)
        base = Point(0j, 1.0)
        for rep in rho.reps:
            for cuff in range(3):
                axis = rep.cuff_axis(cuff)
                if point_to_geodesic_distance(base, axis) <= radius:
                    assert any(
                        _same_geodesic(axis, l) for l in lifts
                    )

    def test_equivariance(self):
        x = build_xp(1, 3)
        rho = build_rho(x, RepParams.zero(x, R=12.0))
        radius = 8.0
        lifts = lift_skeleton(rho, radius)
        base = Point(0j, 1.0)
        gens = [rho.reps[0].gen1, rho.reps[1].gen2]
        for g in gens:
            for axis in lifts:
                image = axis.apply(g)
                if point_to_geodesic_distance(base, image) <= radius:
                    assert any(_same_geodesic(image, l) for l in lifts)


def _same_geodesic(a, b):
    def enc(e):
        if isinstance(e, complex):
            return (round(e.real, 5), round(e.imag, 5))
        return ("inf",)

    return {enc(a.source), enc(a.target)} == {enc(b.source), enc(b.target)}


class TestCertifyQi:
    def test_standard_parameters_pass(self):
        report = certify_qi(R=20.0, p=3, samples=500, seed=1)
        assert report.passed
        assert report.min_margin > 0
        assert report.max_ratio <= 1.0 + 1e-12

    def test_deterministic(self):
        a = certify_qi(R=20.0, p=3, samples=100, seed=5)
        b = certify_qi(R=20.0, p=3, samples=100, seed=5)
        assert a == b

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            certify_qi(R=20.0, p=2, samples=10, seed=0)


class TestNontrivialityScan:
    def test_model_complex_clean(self):
        x = build_xp(1, 3)
        rho = build_rho(x, RepParams.zero(x, R=20.0))
        report = nontriviality_scan(rho, max_length=4)
        assert report.passed
        assert report.total_words > 0

    def test_grown_complex_clean_short(self):
        x = grow_until(build_xp(1, 3), 6)
        rho = build_rho(x, RepParams.zero(x, R=20.0))
        report = nontriviality_scan(rho, max_length=3)
        assert report.passed
        assert report.n_generators == 8
