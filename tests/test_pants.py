import cmath
import math
import random

import pytest

from goodpants.geom import (
    DegenerateError,
    MoebiusMap,
    OrientedGeodesic,
    complex_translation_length,
    mobius_apply,
    normalize_to_axis,
    _FLIP,
    _screw,
)
from goodpants.pants import (
    HalfNormalCoordinate,
    LatticeMismatchError,
    PantsRep,
    build_pants_rep,
    foot_of,
    halflength_tolerance,
    measured_halflength,
    shear,
)
from oracles import axis_of, common_perpendicular, half_turn


def random_moebius(rng):
    while True:
        try:
            return MoebiusMap(
                *(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4))
            )
        except ValueError:
            pass


def lattice_distance(a: HalfNormalCoordinate, b: HalfNormalCoordinate) -> float:
    best = math.inf
    for kr in (-1, 0, 1):
        for ki in (-1, 0, 1):
            best = min(best, abs(a.value - b.value + kr * a.hl + ki * 2j * math.pi))
    return best


def relative_error(got: MoebiusMap, want: MoebiusMap) -> float:
    """Largest entry gap modulo sign, over the largest entry of want."""
    plus = max(abs(a - b) for a, b in zip(got.entries(), want.entries()))
    minus = max(abs(a + b) for a, b in zip(got.entries(), want.entries()))
    return min(plus, minus) / max(abs(e) for e in want.entries())


def endpoint_frames(p):
    """The cuff frames found again from the matrices' boundary endpoints.

    An oracle for the frames build_pants_rep keeps: each cuff axis from
    the fixed points of its matrix, each seam as the common perpendicular
    of two axes, and the frame normalized so that the cuff's preceding
    seam (the one to cuff i + 1) lands on (-1, 1).  The endpoints lose
    digits as the seams shorten, so it is only good for small R.
    """
    axes = [axis_of(p.cuff(i)) for i in range(3)]
    # seam j joins the two cuffs other than j, lower index to higher
    seams = (
        common_perpendicular(axes[1], axes[2]),
        common_perpendicular(axes[0], axes[2]),
        common_perpendicular(axes[0], axes[1]),
    )
    frames = []
    for cuff in range(3):
        other = (cuff + 1) % 3
        seam = seams[3 - cuff - other]
        if cuff > other:
            seam = OrientedGeodesic(seam.target, seam.source)
        frame = normalize_to_axis(axes[cuff])
        u, v = mobius_apply(frame, seam.source), mobius_apply(frame, seam.target)
        assert abs(u + v) <= 1e-6 * max(abs(u), abs(v)), "seam not orthogonal"
        z = cmath.log(v)
        frames.append(MoebiusMap(cmath.exp(-z / 2), 0, 0, cmath.exp(z / 2)) * frame)
    return frames


def seam_half_turns(p):
    """The half-turns about the three seams, from the generators.

    gen1 = rho2 rho3 and gen2 = rho3 rho1 with rho3 the half-turn about
    (-1, 1), so rho1 = rho3 gen2 and rho2 = gen1 rho3.
    """
    rho3 = half_turn(OrientedGeodesic(-1 + 0j, 1 + 0j))
    return (rho3 * p.gen2, p.gen1 * rho3, rho3)


def conjugated(p, g):
    """The pants moved by g: its generators conjugated, its frames carried along."""
    g_inv = g.inverse()
    return PantsRep(
        g * p.gen1 * g_inv,
        g * p.gen2 * g_inv,
        p.halflengths,
        tuple(frame * g_inv for frame in p.frames),
    )


def random_good_pants(rng, R_low, R_high, spread=0.5):
    R = rng.uniform(R_low, R_high)
    hls = [
        complex(R / 2 + rng.uniform(-spread, spread), rng.uniform(-spread, spread))
        for _ in range(3)
    ]
    return hls, build_pants_rep(*hls)


class TestBuildPantsRep:
    def test_fuchsian_pants_has_real_traces(self):
        p = build_pants_rep(1, 1, 1)
        for i in range(3):
            assert abs(p.cuff(i).trace().imag) < 1e-9

    def test_symmetric_round_trip(self):
        p = build_pants_rep(10, 10, 10)
        for i in range(3):
            assert abs(measured_halflength(p, i) - 10) < 1e-9

    def test_skew_round_trip(self):
        p = build_pants_rep(10 + 0.01j, 10, 10)
        hl1 = measured_halflength(p, 0)
        assert abs(hl1.imag - 0.01) < 1e-9
        assert abs(hl1.real - 10) < 1e-9

    def test_cuff_length_is_twice_halflength(self):
        p = build_pants_rep(5 + 0.1j, 6 - 0.2j, 7 + 0.05j)
        for i, want in enumerate((5 + 0.1j, 6 - 0.2j, 7 + 0.05j)):
            length = complex_translation_length(p.cuff(i))
            delta = length - 2 * want
            # equal mod 2 pi i
            assert abs(delta.real) < 1e-9
            assert min(abs(delta.imag % (2 * math.pi)), 2 * math.pi - delta.imag % (2 * math.pi)) < 1e-9

    def test_round_trip_500_random(self):
        # Re(hl) in [1, 30], |Im| <= 0.5.  Thin hexagons force matrices
        # whose traces cancel below double precision, so the tolerance
        # is the per-sample conditioning bound (1e-9 when achievable).
        rng = random.Random(9)
        for _ in range(500):
            hls = [
                complex(rng.uniform(1, 30), rng.uniform(-0.5, 0.5)) for _ in range(3)
            ]
            p = build_pants_rep(*hls)
            tol = halflength_tolerance(*hls)
            if tol > 0.1:
                continue  # conditioning leaves no measurable digits
            for i in range(3):
                assert abs(measured_halflength(p, i) - hls[i]) < tol

    def test_round_trip_good_pants_regime(self):
        # balanced triples round-trip to 1e-9 outright
        rng = random.Random(10)
        for _ in range(200):
            R = rng.uniform(4, 24)
            hls = [
                complex(R / 2 + rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
                for _ in range(3)
            ]
            p = build_pants_rep(*hls)
            for i in range(3):
                assert abs(measured_halflength(p, i) - hls[i]) < 1e-9

    def test_seam_measurement_agrees(self):
        # in each cuff's frame the preceding seam is (-1, 1) and the next
        # one sits one measured half-length further up the axis
        rng = random.Random(12)
        pants = [build_pants_rep(5 + 0.1j, 6 - 0.2j, 7 + 0.05j)]
        pants += [random_good_pants(rng, 4, 20)[1] for _ in range(50)]
        for p in pants:
            rhos = seam_half_turns(p)
            for i in range(3):
                F = p.frames[i]
                prev_seam, next_seam = rhos[(i + 2) % 3], rhos[(i + 1) % 3]
                hl = measured_halflength(p, i)
                assert relative_error(F * prev_seam * F.inverse(), _FLIP) < 1e-9
                moved = _screw(hl) * _FLIP * _screw(-hl)
                assert relative_error(F * next_seam * F.inverse(), moved) < 1e-9

    def test_conjugation_covariance(self):
        # the carried frames are the frames of the conjugated matrices
        p = build_pants_rep(5 + 0.1j, 6 - 0.2j, 7 + 0.05j)
        rng = random.Random(4)
        for _ in range(100):
            g = random_moebius(rng)
            q = conjugated(p, g)
            oracle = endpoint_frames(q)
            for i in range(3):
                assert abs(measured_halflength(q, i) - measured_halflength(p, i)) < 1e-9
                zero = HalfNormalCoordinate(0j, p.halflengths[i])
                assert lattice_distance(foot_of(q, i, frame=oracle[i]), zero) < 1e-7


class TestFrames:
    def test_frames_match_endpoint_oracle(self):
        # The oracle's own error grows with R: at R = 12 it puts the
        # seam half-turns 2e-11 off (-1, 1), the frames 3e-13 off
        # (test_seam_measurement_agrees), so the two agree to 1e-11.
        rng = random.Random(21)
        for _ in range(200):
            _, p = random_good_pants(rng, 2, 12)
            for i, want in enumerate(endpoint_frames(p)):
                assert relative_error(p.frames[i], want) < 1e-11

    @pytest.mark.parametrize("R_low, R_high, tol", [(4, 30, 1e-9), (30, 60, 1e-6)])
    def test_frame_takes_cuff_to_screw(self, R_low, R_high, tol):
        rng = random.Random(22)
        for _ in range(100):
            hls, p = random_good_pants(rng, R_low, R_high, spread=0.1)
            for i in range(3):
                F = p.frames[i]
                assert relative_error(F * p.cuff(i) * F.inverse(), _screw(2 * hls[i])) < tol

    def test_builds_past_the_endpoint_limit(self):
        # R = 38 and 60 exhausted the endpoint route; the frames still
        # conjugate every cuff onto its screw
        for R in (38.0, 40.0, 60.0):
            p = build_pants_rep(R / 2, R / 2 + 0.01, R / 2 - 0.01j)
            for i in range(3):
                F = p.frames[i]
                want = _screw(2 * p.halflengths[i])
                assert relative_error(F * p.cuff(i) * F.inverse(), want) < 1e-6

    def test_collapsed_seams_refused(self):
        # at R = 200 the seams are 4e-22 long: the screw along one rounds
        # to the identity and the cuffs would share an axis
        with pytest.raises(DegenerateError):
            build_pants_rep(100, 100, 100)


class TestFootSensitivity:
    @pytest.mark.parametrize(
        "tilt",
        [
            MoebiusMap(1, 1e-3, 0, 1),  # moves the axis end 0
            MoebiusMap(1, 0, 1e-3, 1),  # moves the axis end infinity
            # a small rotation about the horizontal axis through height 1
            MoebiusMap(1, 1, 1, -1).inverse() * _screw(1e-4j) * MoebiusMap(1, 1, 1, -1),
        ],
    )
    def test_tilted_frame_raises(self, tilt):
        p = build_pants_rep(5 + 0.1j, 6 - 0.2j, 7 + 0.05j)
        for i in range(3):
            foot_of(p, i, frame=p.frames[i])  # the untilted frame reads
            with pytest.raises(DegenerateError):
                foot_of(p, i, frame=tilt * p.frames[i])

    def test_screw_shifts_the_foot(self):
        p = build_pants_rep(5 + 0.1j, 6 - 0.2j, 7 + 0.05j)
        rng = random.Random(23)
        for _ in range(50):
            z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            for i in range(3):
                got = foot_of(p, i, frame=_screw(z) * p.frames[i])
                want = HalfNormalCoordinate(z, p.halflengths[i])
                assert got.hl == want.hl
                assert lattice_distance(got, want) < 1e-9


class TestFootOf:
    def test_real_pants_feet_are_real(self):
        p = build_pants_rep(2.0, 2.0, 3.0)
        oracle = endpoint_frames(p)
        for i in range(3):
            assert foot_of(p, i, frame=p.frames[i]).value == 0
            assert abs(foot_of(p, i, frame=oracle[i]).value.imag) < 1e-9
            assert all(abs(e.imag) < 1e-12 for e in p.frames[i].entries())

    def test_symmetric_cuffs_have_equal_feet(self):
        p = build_pants_rep(2.0, 2.0, 3.0)
        oracle = endpoint_frames(p)
        assert lattice_distance(
            foot_of(p, 0, frame=oracle[0]), foot_of(p, 1, frame=oracle[1])
        ) < 1e-9

    def test_canonical_representative_ranges(self):
        c = HalfNormalCoordinate(-3.7 + 9.1j, 2 + 0.1j)
        assert 0 <= c.value.real < 2
        assert 0 <= c.value.imag < 2 * math.pi

    def test_lattice_wrap_is_stable(self):
        # values a hair past the lattice boundary snap to zero
        hl = 5 + 0.1j
        assert HalfNormalCoordinate(hl + 1e-12 * 1j, hl).value == 0
        assert HalfNormalCoordinate(2j * math.pi - 1e-12j, hl).value == 0


class TestShear:
    def test_direct_substitution(self):
        hl = 10 + 0j
        right = HalfNormalCoordinate(0.5 + 0.2j, hl)
        left = HalfNormalCoordinate(right.value + math.pi * 1j + 1, hl)
        assert abs(shear(left, right) - 1) < 1e-12

    def test_equal_feet(self):
        hl = 10 + 0j
        f = HalfNormalCoordinate(0.5 + 0.2j, hl)
        # -pi i canonicalized into Re in [0, Re hl), Im in [0, 2 pi)
        assert abs(shear(f, f) - math.pi * 1j) < 1e-12

    def test_lattice_mismatch(self):
        with pytest.raises(LatticeMismatchError):
            shear(HalfNormalCoordinate(0, 10 + 0j), HalfNormalCoordinate(0, 10.1 + 0j))


class TestIsGoodPants:
    """Goodness read back from the holonomy: every half-length within eps of R/2."""

    @staticmethod
    def worst_gap(p, R):
        return max(abs(measured_halflength(p, i) - R / 2) for i in range(3))

    def test_exact_halflengths(self):
        p = build_pants_rep(10, 10, 10)
        assert self.worst_gap(p, 20) < 1e-6

    def test_off_by_two_eps(self):
        p = build_pants_rep(10 + 0.02, 10, 10)
        assert not self.worst_gap(p, 20) < 0.01

    def test_eps_over_r_condition(self):
        eps, R = 0.01, 20
        p = build_pants_rep(R / 2 + eps / R * (0.5 + 0.5j), R / 2, R / 2)
        assert self.worst_gap(p, R) < eps / R
