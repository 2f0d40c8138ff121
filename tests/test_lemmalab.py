import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import goodpants
from goodpants import lemmalab
from goodpants.complexes import build_xp
from goodpants.geom import (
    INFINITY,
    OrientedGeodesic,
    Point,
    apply_to_point,
    hyperbolic_point_distance,
    normalize_to_axis,
    translate_along,
)
from goodpants.holonomy import RepParams, build_rho
from goodpants.lemmalab import (
    SweepReport,
    SweepRow,
    angle_change_check,
    hexagon_asymptotics_check,
    quasigeodesic_stability_check,
    two_planes_angle_check,
)
from oracles import quasigeodesic_on_full_net

AXIS = OrientedGeodesic(0j, INFINITY)
NORMAL = OrientedGeodesic(-1.0 + 0j, 1.0 + 0j)


# The scalar route, one sample at a time: the oracle that the array
# kernels must match bit for bit.


@dataclass(frozen=True)
class Vector:
    horizontal: complex
    vertical: float

    def euclidean_norm(self) -> float:
        return math.hypot(abs(self.horizontal), self.vertical)


def direction_toward(p, zeta):
    """Unit tangent vector at p of the geodesic ray ending at zeta."""
    if zeta is INFINITY:
        return Vector(0j, 1.0)
    u_full = complex(zeta) - p.horizontal
    d = abs(u_full)
    if d < 1e-300:
        return Vector(0j, -1.0)
    u = u_full / d
    r = (d * d + p.height * p.height) / (2.0 * d)
    return Vector((p.height / r) * u, (d - r) / r)


def geodesic_through(p, q):
    """The geodesic through two interior points, oriented from p to q."""
    dz = q.horizontal - p.horizontal
    d = abs(dz)
    if d < 1e-14:
        if abs(q.height - p.height) < 1e-300:
            raise ValueError("coincident points span no geodesic")
        if q.height > p.height:
            return OrientedGeodesic(p.horizontal, INFINITY)
        return OrientedGeodesic(INFINITY, p.horizontal)
    u = dz / d
    x = (d * d + q.height ** 2 - p.height ** 2) / (2.0 * d)
    r = math.hypot(x, p.height)
    fwd = p.horizontal + (x + r) * u
    back = p.horizontal + (x - r) * u
    return OrientedGeodesic(back, fwd)


def angle_between(v, w):
    dot = (v.horizontal * w.horizontal.conjugate()).real + v.vertical * w.vertical
    dot /= v.euclidean_norm() * w.euclidean_norm()
    return math.acos(max(-1.0, min(1.0, dot)))


def scalar_angle_coordinates(gamma, alpha, segment):
    x, y = segment
    m = normalize_to_axis(gamma)
    b = complex(alpha.apply(m).target)
    chi = math.atan2(b.imag, b.real)
    x0 = Point(0j, apply_to_point(m, x).height)
    y_img = apply_to_point(m, y)
    e = direction_toward(x0, geodesic_through(x0, y_img).target)
    theta = angle_between(e, Vector(0j, 1.0))
    binormal = Vector(1j * complex(math.cos(chi), math.sin(chi)), 0.0)
    return theta, angle_between(e, binormal)


def scalar_two_planes(b, d, xi):
    corner = Point(0j, 1.0)
    B = apply_to_point(translate_along(NORMAL, b), corner)
    C = Point(0j, math.exp(d))
    hyp = hyperbolic_point_distance(B, C)
    toward_corner = direction_toward(B, geodesic_through(B, corner).target)
    toward_far = direction_toward(B, geodesic_through(B, C).target)
    beta = angle_between(toward_corner, toward_far)
    sin_beta = math.sinh(d) / math.sinh(hyp)
    sin_xi = math.sin(xi)
    s2 = sin_xi * sin_xi / (1.0 - sin_beta * sin_beta * math.cos(xi) ** 2)
    psi_formula = math.asin(min(1.0, math.sqrt(s2)))
    turn = math.atan2(sin_xi * math.sin(beta), math.cos(beta))
    psi_direct = math.atan2(
        math.hypot(sin_xi * math.cos(turn), math.sin(turn)),
        math.cos(xi) * math.cos(turn),
    )
    return beta, psi_formula, psi_direct


class TestSweepReport:
    def report(self):
        rows = (
            SweepRow(params=(("R", 2.0), ("check", "a")), measured=0.5, bound=1.0),
            SweepRow(params=(("R", 4.0), ("check", "b")), measured=2.0, bound=1.0),
        )
        return SweepReport(name="demo", rows=rows, samples=7, stats=(("k", 1.5),))

    def test_pass_recomputable(self):
        rep = self.report()
        assert rep.rows[0].passed and not rep.rows[1].passed
        assert not rep.passed

    def test_json_canonical(self):
        rep = self.report()
        obj = json.loads(rep.to_json())
        assert obj["name"] == "demo"
        assert obj["rows"][1]["pass"] is False
        assert rep.to_json() == rep.to_json()
        # canonical ordering: serialized keys are sorted
        assert rep.to_json() == json.dumps(
            obj, sort_keys=True, separators=(",", ":")
        )

    def test_csv(self):
        text = self.report().to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "R,check,measured,bound,pass"
        assert len(lines) == 3
        assert lines[2].endswith("false")


def axis_frame_angles(x, y):
    """theta and phi of the segment from x on the axis to y, by the sweep's kernel."""
    z = y.horizontal
    theta, phi = lemmalab._segment_angles(
        np.array([x.height]), (np.array([z.real]), np.array([z.imag])), np.array([y.height])
    )
    return float(theta[0]), float(phi[0])


class TestAngleCoordinates:
    """The angle-change sweep's angles, measured in the axis frame."""

    def test_along_gamma_theta_zero(self):
        x, y = Point(0j, 2.0), Point(0j, 5.0)
        theta, phi = axis_frame_angles(x, y)
        assert (theta, phi) == scalar_angle_coordinates(AXIS, NORMAL, (x, y))
        assert abs(theta) < 1e-12
        assert abs(phi - math.pi / 2.0) < 1e-12

    def test_in_plane_phi_is_right_angle(self):
        x, y = Point(0j, 2.0), Point(3.0 + 0j, 1.0)
        theta, phi = axis_frame_angles(x, y)
        assert (theta, phi) == scalar_angle_coordinates(AXIS, NORMAL, (x, y))
        assert abs(phi - math.pi / 2.0) < 1e-12
        assert 0.0 < theta < math.pi

    def test_out_of_plane(self):
        # (0.6i, 0.8) lies on the unit semicircle over the imaginary
        # axis, so the segment leaves x straight along the binormal
        x, y = Point(0j, 1.0), Point(0.6j, 0.8)
        theta, phi = axis_frame_angles(x, y)
        assert (theta, phi) == scalar_angle_coordinates(AXIS, NORMAL, (x, y))
        assert abs(phi) < 1e-12
        assert abs(theta - math.pi / 2.0) < 1e-12

    def test_conjugation_invariance(self):
        # a translation along gamma carries the axis frame along with
        # the segment, so neither angle moves
        import random

        rng = random.Random(4)
        x = Point(0j, 3.0)
        y = Point(2.0 + 1.5j, 0.7)
        want = axis_frame_angles(x, y)
        for _ in range(10):
            m = translate_along(AXIS, rng.uniform(0.1, 10.0))
            if rng.random() < 0.5:
                m = m.inverse()
            got = axis_frame_angles(apply_to_point(m, x), apply_to_point(m, y))
            assert abs(got[0] - want[0]) < 1e-9
            assert abs(got[1] - want[1]) < 1e-9


class TestQuasigeodesicStability:
    def test_small_delta_bound_value(self):
        rep = quasigeodesic_stability_check(1e-5, samples=500, seed=0)
        assert abs(dict(rep.stats)["eta"] - 0.5) < 1e-12
        assert rep.rows[0].bound == dict(rep.stats)["eta"]

    @pytest.mark.parametrize("delta", [1e-5, 1e-4, 1e-3, 1e-2])
    def test_no_violations(self, delta):
        rep = quasigeodesic_stability_check(delta, samples=2000, seed=1)
        assert rep.passed
        assert rep.samples >= 2000
        assert rep.rows[0].measured >= 0.0

    def test_deterministic(self):
        a = quasigeodesic_stability_check(1e-3, samples=500, seed=9)
        b = quasigeodesic_stability_check(1e-3, samples=500, seed=9)
        assert a.to_json() == b.to_json()

    def test_rejects_large_delta(self):
        with pytest.raises(ValueError):
            quasigeodesic_stability_check(0.5, samples=10, seed=0)


DELTAS = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12]


def zigzag(n, amp, seed):
    """A path like the delta sweep's: n + 1 vertices every 0.1 up the axis,
    displaced by amplitude amp in alternating directions."""
    rng = np.random.default_rng(seed)
    s = np.arange(n + 1) * 0.1
    psi = rng.uniform(0.0, 2.0 * math.pi) + np.arange(n + 1) * math.pi + rng.uniform(-0.3, 0.3, n + 1)
    u = np.full(n + 1, amp)
    u[0] = u[-1] = 0.0
    return np.exp(s) * np.tanh(u) * np.exp(1j * psi), np.exp(s) / np.cosh(u)


@pytest.fixture()
def full_nets(monkeypatch):
    """Counts the calls that measure a path's full net of vertex pairs."""
    calls = []
    pair_distances = lemmalab._pair_distances

    def counting(z, t, i, j):
        if len(i) >= len(t):
            calls.append(len(t))
        return pair_distances(z, t, i, j)

    monkeypatch.setattr(lemmalab, "_pair_distances", counting)
    return calls


class TestQuasigeodesicNet:
    def test_walk_is_the_net_walk(self):
        # the O(n) walk has the bits of the full net's neighbour pairs
        z, t = zigzag(150, 5e-4, seed=3)
        k = np.arange(150)
        j, i = np.tril_indices(151, -1)
        dist = lemmalab._pair_distances(z, t, i, j)
        net = dist[(i + 1 == j)]
        assert np.array_equal(lemmalab._pair_distances(z, t, k, k + 1), net)

    @pytest.mark.parametrize("delta", DELTAS)
    def test_sweep_verdicts_match_the_full_net(self, monkeypatch, delta):
        verdicts = []
        helper = lemmalab._is_quasigeodesic

        def both(z, t, d):
            verdicts.append((helper(z, t, d), quasigeodesic_on_full_net(z, t, d)))
            return verdicts[-1][0]

        monkeypatch.setattr(lemmalab, "_is_quasigeodesic", both)
        quasigeodesic_stability_check(delta, samples=2000, seed=4)
        assert verdicts and all(got == want for got, want in verdicts)

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("factor", [0.0, 1.0, 1.5, 3.0, 10.0, 100.0])
    def test_verdict_matches_the_full_net(self, delta, factor):
        # factor 1 is the sweep's largest amplitude; from about 1.5 up the
        # zigzag's walk outgrows its chords and the full net rejects it
        amp = factor * 0.05 * math.sqrt(delta)
        for seed, n in ((0, 120), (1, 160), (2, 200)):
            z, t = zigzag(n, amp, seed)
            want = quasigeodesic_on_full_net(z, t, delta)
            assert lemmalab._is_quasigeodesic(z, t, delta) == want
            if factor >= 3.0:
                assert not want

    def test_bound_decides_the_benchmark_delta(self, full_nets):
        rep = quasigeodesic_stability_check(1e-4, samples=5000, seed=2)
        assert rep.passed and full_nets == []

    def test_full_net_decides_below_the_margin(self, full_nets):
        # 1e-10 < len(t) * _TAU: the rounding of the walk could hide a
        # violation of the upper inequality, so every path is measured
        quasigeodesic_stability_check(1e-10, samples=2000, seed=2)
        assert len(full_nets) >= 10

    def test_fold_back_along_the_axis_is_rejected(self, full_nets):
        s = np.concatenate((np.arange(0.0, 1.0, 0.1), np.arange(1.0, 0.45, -0.1)))
        z, t = np.zeros(len(s), dtype=complex), np.exp(s)
        for delta in (1e-2, 1e-4):
            assert not quasigeodesic_on_full_net(z, t, delta)
            assert not lemmalab._is_quasigeodesic(z, t, delta)
        assert len(full_nets) == 2

    def test_vertex_far_off_the_axis_is_rejected(self, full_nets):
        z, t = zigzag(150, 0.0, seed=0)
        z[70], t[70] = math.exp(7.0) * math.tanh(1.0), math.exp(7.0) / math.cosh(1.0)
        for delta in (1e-2, 1e-4):
            assert not quasigeodesic_on_full_net(z, t, delta)
            assert not lemmalab._is_quasigeodesic(z, t, delta)
        assert len(full_nets) == 2

    def test_geodesic_over_the_top_passes_on_the_full_net(self, full_nets):
        # along the geodesic (-1, 1) by arclength the height rises and
        # falls, so the log-height bound cannot decide; the full net can
        s = np.arange(-10, 11) * 0.1
        z, t = np.tanh(s) + 0j, 1.0 / np.cosh(s)
        assert quasigeodesic_on_full_net(z, t, 1e-4)
        assert lemmalab._is_quasigeodesic(z, t, 1e-4)
        assert full_nets == [len(t)]

    def test_chord_that_rounds_to_zero_is_rejected(self, full_nets):
        # the chord from (0, 1) to (0, 1 + 1.4e-8) computes as 0, its
        # exact length 1.4e-8 less than 2^-26; the walk through the middle
        # vertex makes the lower inequality ask for 4e-11 > 1e-12, so the
        # full net rejects the path.  Its log-height drawdown lies within
        # delta - 1e-9: a margin below the 2^-26 rounding would admit it
        delta = 1e-6
        z, t = np.array([0.0, 5e-7, 0.0], dtype=complex), np.array([1.0, 1.0 + 7e-9, 1.0 + 1.4e-8])
        walk = np.concatenate(([0.0], np.cumsum(lemmalab._pair_distances(z, t, [0, 1], [1, 2]))))
        f = np.log(t) - walk / (1.0 + delta)
        assert np.max(np.maximum.accumulate(f) - f) <= delta - 1e-9
        assert lemmalab._pair_distances(z, t, [0], [2])[0] == 0.0
        assert not quasigeodesic_on_full_net(z, t, delta)
        assert not lemmalab._is_quasigeodesic(z, t, delta)
        assert full_nets == [3]

    @pytest.mark.parametrize("delta, admitted", [(1e-6, False), (2e-6, True), (1e-5, True)])
    def test_walk_that_rounds_to_zero(self, full_nets, delta, admitted):
        # 200 steps of 1e-8 up the axis each compute as 0, the chord over
        # all of them as 2e-6: the upper inequality fails for delta < 2e-6
        # although every step passes, so below len(t) * _TAU = 3e-6 the
        # full net decides
        z, t = np.zeros(201, dtype=complex), np.exp(np.arange(201) * 1e-8)
        k = np.arange(200)
        assert not lemmalab._pair_distances(z, t, k, k + 1).any()
        assert quasigeodesic_on_full_net(z, t, delta) == admitted
        assert lemmalab._is_quasigeodesic(z, t, delta) == admitted
        assert full_nets == ([] if delta >= 201 * lemmalab._TAU else [201])

    @pytest.mark.parametrize("start, n", [(0.0, 700), (-201.0, 150), (201.0, 150), (300.0, 150)])
    def test_outside_the_rounding_bound_the_full_net_decides(self, full_nets, start, n):
        # _TAU's bound covers walks up to 64 from heights e^+-200; a longer
        # walk or a path further out is measured pair by pair
        z, t = np.zeros(n + 1, dtype=complex), np.exp(start + np.arange(n + 1) * 0.1)
        assert quasigeodesic_on_full_net(z, t, 1e-4)
        assert lemmalab._is_quasigeodesic(z, t, 1e-4)
        assert full_nets == [n + 1]

    def test_nan_goes_to_the_full_net(self, full_nets):
        z, t = zigzag(120, 5e-4, seed=0)
        z[60] = complex(math.nan, 0.0)
        assert not lemmalab._is_quasigeodesic(z, t, 1e-4)
        assert full_nets == [len(t)]

    def test_rejected_paths_are_redrawn_smaller(self, monkeypatch):
        # a pre-check that admits only half the sweep's amplitude: a
        # full-amplitude path is rejected at amp and 0.6 amp, then drawn
        # again at 0.36 amp, from the same random draws
        base = 0.05 * math.sqrt(1e-4)
        full = quasigeodesic_stability_check(1e-4, samples=3000, seed=0)
        monkeypatch.setattr(
            lemmalab, "_is_quasigeodesic", lambda z, t, d: np.arcsinh(np.abs(z) / t).max() <= 0.5 * base
        )
        rep = quasigeodesic_stability_check(1e-4, samples=3000, seed=0)
        assert full.rejected == 0 and rep.rejected > 0
        assert rep.samples == full.samples
        assert 0.3 * base < rep.rows[0].measured <= 0.5 * base

    def test_no_admissible_path_raises(self, monkeypatch):
        monkeypatch.setattr(lemmalab, "_is_quasigeodesic", lambda z, t, d: False)
        with pytest.raises(RuntimeError, match="admissible path"):
            quasigeodesic_stability_check(1e-4, samples=10, seed=0)


class TestHexagonAsymptotics:
    def test_identities_tight(self):
        rep = hexagon_asymptotics_check([2.0, 6.0, 10.0, 20.0, 40.0])
        assert rep.passed
        for row in rep.rows:
            d = dict(row.params)
            if d["check"].endswith("identity"):
                assert row.measured < 1e-9

    def test_d1_closed_form_small_R(self):
        rep = hexagon_asymptotics_check([2.0])
        # arccosh(cosh 1 / (cosh 1 - 1)) ~ 1.705
        want = math.acosh(math.cosh(1.0) / (math.cosh(1.0) - 1.0))
        assert abs(want - 1.705) < 1e-3
        row = [r for r in rep.rows if dict(r.params)["check"] == "d1-identity"][0]
        assert row.measured < 1e-12

    def test_residual_decreasing(self):
        rep = hexagon_asymptotics_check([10.0, 20.0, 30.0])
        chords = [
            r.measured
            for r in rep.rows
            if dict(r.params)["check"] == "chord-asymptotic"
        ]
        assert chords[0] <= 1.0
        assert chords[0] > chords[1] > chords[2]

    def test_regression_slope(self):
        rep = hexagon_asymptotics_check([10, 14, 18, 22, 26, 30, 34])
        slope = dict(rep.stats)["log_residual_slope"]
        assert -0.55 <= slope <= -0.45

    def test_rejects_tiny_R(self):
        with pytest.raises(ValueError):
            hexagon_asymptotics_check([1.0])


class TestTwoPlanesAngle:
    @pytest.mark.parametrize("eps", [0.005, 0.01])
    @pytest.mark.parametrize("R", [15.0, 20.0, 30.0])
    def test_sweep_passes(self, eps, R):
        rep = two_planes_angle_check(eps, R, samples=200, seed=2)
        assert rep.passed
        bound_row = [
            r for r in rep.rows if dict(r.params)["check"] == "dihedral-bound"
        ][0]
        assert bound_row.bound == 10.0 * eps / R

    def test_routes_agree(self):
        rep = two_planes_angle_check(0.01, 20.0, samples=200, seed=3)
        agree = [
            r for r in rep.rows if dict(r.params)["check"] == "route-agreement"
        ][0]
        assert agree.measured < 1e-9

    def test_deterministic(self):
        a = two_planes_angle_check(0.01, 20.0, samples=100, seed=5)
        b = two_planes_angle_check(0.01, 20.0, samples=100, seed=5)
        assert a.to_json() == b.to_json()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            two_planes_angle_check(0.5, 20.0, samples=10, seed=0)
        with pytest.raises(ValueError):
            two_planes_angle_check(0.01, 5.0, samples=10, seed=0)


class TestAngleChange:
    def setup_method(self):
        self.x = build_xp(1, 3)
        self.rho0 = build_rho(self.x, RepParams.zero(self.x, R=20.0, tau=0.0))

    def test_identical_pair_is_exact_zero(self):
        rep = angle_change_check((self.rho0, self.rho0), p=3, samples=50, seed=1)
        assert all(r.measured == 0.0 for r in rep.rows)

    def test_zero_offsets_match_standard(self):
        rho1 = build_rho(self.x, RepParams.zero(self.x, R=20.0, tau=1.0))
        rep = angle_change_check((self.rho0, rho1), p=3, samples=50, seed=1)
        assert all(r.measured < 1e-9 for r in rep.rows)

    def test_deformed_within_bounds(self):
        rho1 = build_rho(
            self.x, RepParams.random(self.x, R=20.0, tau=1.0, seed=3)
        )
        rep = angle_change_check((self.rho0, rho1), p=3, samples=300, seed=5)
        assert rep.passed
        by_check = {dict(r.params)["check"]: r for r in rep.rows}
        assert by_check["theta-shift"].bound == pytest.approx(1.0 / 12.0)
        assert by_check["theta-shift"].measured > 0.0
        assert by_check["combined"].bound == pytest.approx(1.0 / 3.0)

    def test_mismatched_complexes_rejected(self):
        y = build_xp(2, 3)
        other = build_rho(y, RepParams.zero(y, R=20.0, tau=1.0))
        with pytest.raises(ValueError):
            angle_change_check((self.rho0, other), p=3, samples=10, seed=0)


class TestArrayKernels:
    """The sliced kernels against the scalar route, sample by sample."""

    def test_two_planes_matches_scalar_route(self):
        rng = np.random.default_rng(11)
        b, d, xi = [], [], []
        # at R = 300 some forward endpoints lie past 1e154: their squares
        # overflow to inf, silently, on both routes
        for R in (10.0, 20.0, 40.0, 150.0, 300.0):
            xi_max = 4.0 * 0.01 / R * math.exp(-R / 4.0)
            b += list(rng.uniform(math.exp(-R / 4.0), 2.0, 150))
            d += list(rng.uniform(1.0, R, 150))
            xi += list(rng.uniform(-xi_max, xi_max, 150))
        # legs under 1e-14 put B straight under the corner, so both
        # geodesics from B are vertical; with xi this small the closed
        # form would divide by zero, so tilt by more
        b += list(np.exp(rng.uniform(-46.0, -33.0, 50)))
        d += list(rng.uniform(1.0, 20.0, 50))
        xi += list(rng.uniform(0.01, 0.1, 50))
        got = lemmalab._two_planes_angles(np.array(b), np.array(d), np.array(xi))
        want = np.array([scalar_two_planes(*s) for s in zip(b, d, xi)]).T
        for g, w in zip(got, want):
            assert g.tolist() == w.tolist()
        assert set(got[0][-50:].tolist()) == {math.pi}

    def test_two_planes_divides_by_zero_where_the_scalar_route_does(self):
        with pytest.raises(ZeroDivisionError):
            scalar_two_planes(1e-20, 5.0, 1e-20)
        with pytest.raises(ZeroDivisionError):
            lemmalab._two_planes_angles(
                np.array([0.5, 1e-20]), np.array([5.0, 5.0]), np.array([1e-20, 1e-20])
            )

    def test_segment_angles_match_scalar_route(self):
        rng = np.random.default_rng(12)
        n = 600
        xt = np.exp(rng.uniform(-15.0, 15.0, n))
        y = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.exp(
            rng.uniform(-15.0, 15.0, n)
        )
        yt = np.exp(rng.uniform(-15.0, 15.0, n))
        # straight up, straight down (|dz| < 1e-14), and an end whose
        # forward endpoint rounds onto the foot of x: directly below it
        specials = [(2.0, 3e-15 + 0j, 9.0), (2.0, 0j, 0.5), (1.0, 1e-9 + 0j, 0.5)]
        for k, (a, z, h) in enumerate(specials):
            xt[k], y[k], yt[k] = a, z, h
        x0, below = Point(0j, 1.0), Point(1e-9 + 0j, 0.5)
        assert direction_toward(x0, geodesic_through(x0, below).target) == Vector(0j, -1.0)
        theta, phi = lemmalab._segment_angles(xt, (y.real, y.imag), yt)
        want = [
            scalar_angle_coordinates(AXIS, NORMAL, (Point(0j, a), Point(z, h)))
            for a, z, h in zip(xt.tolist(), y.tolist(), yt.tolist())
        ]
        assert theta.tolist() == [w[0] for w in want]
        assert phi.tolist() == [w[1] for w in want]
        assert theta[0] == 0.0 and theta[1] == math.pi and theta[2] == math.pi

    @pytest.mark.parametrize("sweep", ["two-planes", "angle-change"])
    def test_state_carries_across_slices(self, sweep, monkeypatch):
        if sweep == "two-planes":
            def run():
                return two_planes_angle_check(0.01, 20.0, samples=100, seed=4).to_json()
        else:
            x = build_xp(1, 3)
            rho0 = build_rho(x, RepParams.zero(x, R=20.0, tau=0.0))
            rho1 = build_rho(x, RepParams.random(x, R=20.0, tau=1.0, seed=0))

            def run():
                return angle_change_check((rho0, rho1), p=3, samples=100, seed=0).to_json()

        whole = run()
        monkeypatch.setattr(lemmalab, "_SLICE", 7)
        assert run() == whole

    def test_word_cache_holds_one_entry_per_reduced_word(self, monkeypatch):
        x = build_xp(1, 3)
        rho0 = build_rho(x, RepParams.zero(x, R=20.0, tau=0.0))
        rho1 = build_rho(x, RepParams.random(x, R=20.0, tau=1.0, seed=0))
        seen = []
        word_images = lemmalab._word_images

        def counting(word_mats, word):
            seen.append(tuple(word))
            return word_images(word_mats, word)

        monkeypatch.setattr(lemmalab, "_word_images", counting)
        angle_change_check((rho0, rho1), p=3, samples=3000, seed=0)
        assert len(seen) == len(set(seen))
        # eight letters, inverses four apart: 8 + 8 * 7 + 8 * 7 * 7 words
        assert all((a - b) % 8 != 4 for w in seen for a, b in zip(w, w[1:]))
        assert 400 < len(seen) <= 456


def _peak_rss_kb(argv):
    """ru_maxrss of a fresh interpreter that runs the CLI on argv."""
    code = (
        "import resource, sys\n"
        "from goodpants.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, code)\n"
    )
    src = str(Path(goodpants.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    ).stdout
    rss, code = out.splitlines()[-1].split()
    assert code == "0"
    return int(rss)


def test_two_planes_memory_does_not_grow_with_samples():
    argv = ["lemma", "two-planes", "--eps", "0.01", "--R", "20", "--seed", "1", "--samples"]
    small = _peak_rss_kb(argv + ["10000"])
    large = _peak_rss_kb(argv + ["2000000"])
    assert large - small <= 2048
