"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single ``[criterion NN] name: PASS/FAIL`` line so the
whole gate can be read off a verbose run at a glance.  Tolerances and
time budgets are pinned here on purpose; loosening them is an interface
change, not a test fix.
"""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager

import pytest

import goodpants.cli as cli
from goodpants.complexes import (
    _middle_dart_counts,
    build_xp,
    complexity,
    graph_of,
    grow_until,
    make_donor,
    surger,
)
from goodpants.holonomy import (
    RepParams,
    build_rho,
    certify_qi,
    check_p_separated,
    measured_shear,
    nontriviality_scan,
)
from goodpants.homology import (
    IntegerMatrix,
    book_of_i_bundles_h1,
    h1_of_complex,
    sigma,
    smith_normal_form,
)
from goodpants.lemmalab import (
    hexagon_asymptotics_check,
    quasigeodesic_stability_check,
    two_planes_angle_check,
)
from oracles import integer_determinant, integer_matmul
from test_complexes import brute_force_complexity


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] {name}: FAIL")
        raise
    print(f"[criterion {number:02d}] {name}: PASS")


def rows_by_check(report):
    out = {}
    for row in report.rows:
        out.setdefault(dict(row.params)["check"], []).append(row)
    return out


def test_criterion_01_hexagon_identities():
    with criterion(1, "hexagon identities"):
        t0 = time.perf_counter()
        report = hexagon_asymptotics_check([2.0, 6.0, 10.0, 20.0, 40.0])
        elapsed = time.perf_counter() - t0
        rows = rows_by_check(report)
        for check in ("d1-identity", "d2-identity"):
            assert len(rows[check]) == 5
            for row in rows[check]:
                assert row.measured < 1e-9, (check, dict(row.params))
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_02_chord_asymptotic_slope():
    with criterion(2, "chord asymptotic slope"):
        t0 = time.perf_counter()
        report = hexagon_asymptotics_check([10, 14, 18, 22, 26, 30, 34])
        elapsed = time.perf_counter() - t0
        slope = dict(report.stats)["log_residual_slope"]
        assert -0.55 <= slope <= -0.45, f"slope {slope}"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_03_quasigeodesic_stability():
    with criterion(3, "quasigeodesic stability sweep"):
        t0 = time.perf_counter()
        for delta in (1e-5, 1e-4, 1e-3, 1e-2):
            report = quasigeodesic_stability_check(delta, samples=10000, seed=0)
            assert report.samples >= 10000
            row = report.rows[0]
            eta = 5.0 * delta ** 0.2
            assert row.bound == pytest.approx(eta, rel=1e-12)
            assert row.measured <= row.bound, (delta, row.measured, row.bound)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_04_two_planes_angles():
    with criterion(4, "two-planes dihedral bound"):
        t0 = time.perf_counter()
        for eps, R in itertools.product((0.005, 0.01), (15.0, 20.0, 30.0)):
            report = two_planes_angle_check(eps, R, samples=1000, seed=0)
            rows = rows_by_check(report)
            bound_row = rows["dihedral-bound"][0]
            assert bound_row.bound == pytest.approx(10.0 * eps / R, rel=1e-12)
            assert bound_row.measured <= bound_row.bound, (eps, R)
            assert rows["route-agreement"][0].measured < 1e-9, (eps, R)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_05_chord_length_bounds():
    with criterion(5, "broken-path chord bounds"):
        t0 = time.perf_counter()
        report = certify_qi(R=20.0, p=3, samples=10000, seed=0)
        elapsed = time.perf_counter() - t0
        assert report.samples == 10000
        assert report.violations == 0
        assert report.min_margin >= 0.0  # chord >= length/2 - R/4
        assert report.max_ratio <= 1.0 + 1e-12  # chord <= length
        assert report.passed
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def _development_residual(x, rho, params):
    residual = 0.0
    for i, pants in enumerate(x.pants):
        for slot, c in enumerate(pants.slots):
            residual = max(
                residual,
                abs(complex(rho.halflength_at(i, slot)) - params.halflength(c)),
            )
    for c in x.regular_circles():
        residual = max(residual, abs(measured_shear(rho, c) - params.shear_of(c)))
    for c in x.singular_circles():
        d, k = x.circles[c].d, x.circles[c].k
        want = (2.0 * params.halflength(c) + 2.0 * k * math.pi * 1j) / d
        got = complex(rho.singular_length(c))
        residual = max(residual, abs(got - want))
    return residual


def test_criterion_06_construction_round_trip():
    with criterion(6, "construction round trip"):
        x = build_xp(1, 3)
        for tau in (0.0, 0.5, 1.0):
            params = RepParams.zero(x, R=20.0, tau=tau)
            rho = build_rho(x, params)
            assert _development_residual(x, rho, params) < 1e-9, tau
        for seed in range(20):
            params = RepParams.random(x, R=20.0, tau=1.0, seed=seed, scale=0.1)
            assert all(abs(v) < 0.1 for v in params.xi + params.eta)
            rho = build_rho(x, params)
            assert _development_residual(x, rho, params) < 1e-9, seed
        rho0 = build_rho(x, RepParams.zero(x, R=20.0, tau=0.0))
        assert check_p_separated(rho0, 3)


def test_criterion_07_surgery_monotonicity():
    with criterion(7, "surgery monotonicity"):
        for run in range(100):
            rng = random.Random(run)
            p = (2, 3, 5, 7)[run % 4]
            x = build_xp(1, p)
            g = graph_of(x)
            prev = complexity(g)
            while True:
                if g.n_vertices <= 12:
                    assert brute_force_complexity(g) == prev, run
                l, _, counts = _middle_dart_counts(g)
                if l > 32:
                    break
                admissible = [d for d, c in enumerate(counts) if c]
                assert admissible, run
                dart = rng.choice(admissible)
                x = surger(x, g.edges[dart // 2][0], make_donor())
                g = graph_of(x)
                cur = complexity(g)
                assert cur > prev, (run, prev, cur)
                prev = cur
            assert prev[0] > 32, run


def test_criterion_08_homology():
    with criterion(8, "homology groups"):
        t0 = time.perf_counter()
        for g, p in itertools.product((1, 2, 3), range(2, 8)):
            assert h1_of_complex(build_xp(g, p)).torsion == (p,), (g, p)
        for g, p in itertools.product((1, 2, 3), range(2, 8)):
            h = book_of_i_bundles_h1(g, p)
            assert h.rank == 2 * g + 1 and h.torsion == (p,), (g, p)
        assert sigma(3) == 3 and sigma(4) == 2 and sigma(5) == 5 and sigma(6) == 3
        rng = random.Random(0)
        for _ in range(1000):
            r = rng.randrange(1, 7)
            c = rng.randrange(1, 7)
            m = IntegerMatrix.from_rows(
                [[rng.randrange(-30, 31) for _ in range(c)] for _ in range(r)]
            )
            d, u, v = smith_normal_form(m)
            assert abs(integer_determinant(u)) == 1
            assert abs(integer_determinant(v)) == 1
            assert integer_matmul(integer_matmul(u, m), v) == d
            diag = [entry for entry in d.diagonal() if entry != 0]
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_09_nontriviality_scan():
    with criterion(9, "nontriviality scan"):
        t0 = time.perf_counter()
        x = grow_until(build_xp(1, 3), 32)
        for params in (
            RepParams.zero(x, R=20.0, tau=0.0),
            RepParams.random(x, R=20.0, tau=1.0, seed=0),
        ):
            rho = build_rho(x, params)
            scan = nontriviality_scan(rho, max_length=6)
            assert scan.max_length == 6
            assert scan.violations == (), params.tau
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_10_determinism(tmp_path, monkeypatch, capsys):
    with criterion(10, "thread-count determinism"):
        complex_path = tmp_path / "x.json"
        assert cli.main(["build", "--L", "0", "--out", str(complex_path)]) == 0
        capsys.readouterr()
        commands = {
            "verify": [
                "verify", "--complex", str(complex_path), "--seed", "7",
                "--samples", "500", "--words", "3",
            ],
            "delta": ["lemma", "delta", "--delta", "1e-4", "--samples", "500",
                      "--seed", "7"],
            "hexagon": ["lemma", "hexagon", "--R", "10,20,30"],
            "two-planes": ["lemma", "two-planes", "--eps", "0.01", "--R", "20",
                           "--samples", "200", "--seed", "7"],
            "angle-change": ["lemma", "angle-change", "--p", "3", "--R", "20",
                             "--samples", "50", "--seed", "7"],
        }
        for name, argv in commands.items():
            outputs = []
            for threads in ("1", "8"):
                monkeypatch.setenv("GOODPANTS_THREADS", threads)
                code = cli.main(argv)
                out, err = capsys.readouterr()
                assert code == 0, (name, threads, err)
                outputs.append(out.encode())
            assert outputs[0] == outputs[1], name
            json.loads(outputs[0])  # reports stay machine readable
