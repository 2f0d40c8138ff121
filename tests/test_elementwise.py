"""The elementwise kernels give the bits of their scalar counterparts."""

import cmath
import math
import random

import numpy as np
import pytest

from goodpants import elementwise as ew
from goodpants.geom import MoebiusMap, _screw


def quiet():
    """The errstate that callers of the kernels run them under."""
    return np.errstate(over="ignore", invalid="ignore")


def columns(zs):
    """Complex numbers as a (real, imaginary) pair of float arrays."""
    return np.array([z.real for z in zs]), np.array([z.imag for z in zs])


def same_bits(got, want):
    """Whether arrays of pairs hold the bits of the Python complex numbers."""
    got_bits = np.stack([np.asarray(g, float) for g in got]).view(np.int64).T.tolist()
    want_bits = np.array([[w.real, w.imag] for w in want]).view(np.int64).tolist()
    return got_bits == want_bits


def same_map_bits(got, m):
    """Whether elementwise entries equal a MoebiusMap's entries up to one sign."""
    got = [complex(float(e[0][0]), float(e[1][0])) for e in got]
    bits = np.array([[g.real, g.imag] for g in got]).view(np.int64)
    for sign in (1, -1):
        want = np.array([[sign * w.real, sign * w.imag] for w in m.entries()])
        if (bits == want.view(np.int64)).all():
            return True
    return False


def wide(rng):
    """A float from across double range, often an edge value."""
    if rng.random() < 0.15:
        return rng.choice(
            [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
             1e300, -1e300, 1.7e308]
        )
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 307)


class TestQuot:
    def test_matches_complex_division(self):
        rng = random.Random(1)
        a = [complex(wide(rng), wide(rng)) for _ in range(5000)]
        b = [complex(wide(rng), wide(rng)) or 1j for _ in range(5000)]
        # both branches, and ties between the parts of the divisor
        a += [3 + 4j, -2.5 + 1e-3j, 1 + 0j, 7.0 - 0.0j, 1.0 + 0j]
        b += [1e-3 + 7j, -2 - 9j, 1 + 1j, -3 + 3j, 1e-300 - 1e300j]
        assert sum(abs(w.imag) > abs(w.real) for w in b) > 1000
        with quiet():
            got = ew.quot(columns(a), columns(b))
        assert same_bits(got, [x / y for x, y in zip(a, b)])

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            ew.quot((np.ones(2), np.ones(2)), (np.array([1.0, 0.0]), np.array([0.0, -0.0])))


class TestSqrt:
    def test_matches_cmath(self):
        rng = random.Random(2)
        zs = [complex(wide(rng), wide(rng)) for _ in range(5000)]
        # negative real parts, signed zeros and subnormal parts
        edges = (0.0, -0.0, 1.0, -1.0, -4.0, 5e-324, -5e-324, 1e-310)
        zs += [complex(x, y) for x in edges for y in edges]
        assert sum(z.real < 0 for z in zs) > 2000
        with quiet():
            got = ew.sqrt(columns(zs))
        assert same_bits(got, [cmath.sqrt(z) for z in zs])


class TestExp:
    def test_matches_cmath(self):
        rng = random.Random(3)
        zs = [complex(rng.uniform(-745.0, 708.0), rng.uniform(-20.0, 20.0)) for _ in range(3000)]
        # past log(DBL_MAX / 4), where cmath scales by e, short of overflow
        zs += [complex(rng.uniform(708.4, 709.7), rng.uniform(-1.4, 1.4)) for _ in range(500)]
        zs += [0j, -0.0 + 0j, 1j * math.pi, complex(20.0, -0.0)]
        with quiet():
            got = ew.exp(columns(zs))
        assert same_bits(got, [cmath.exp(z) for z in zs])

    @pytest.mark.parametrize("z", [710.0 + 0j, 709.9 + 0.1j, 711.0 - 3j, 800.0 + 0j])
    def test_overflow_raises_as_cmath_does(self, z):
        with pytest.raises(OverflowError):
            cmath.exp(z)
        with quiet(), pytest.raises(OverflowError):
            ew.exp(columns([1 + 0j, z]))


class TestModulus:
    def test_matches_abs(self):
        rng = random.Random(4)
        zs = [complex(wide(rng), wide(rng)) for _ in range(5000)]
        zs = [z for z in zs if math.isfinite(math.hypot(z.real, z.imag))]
        zs += [complex(math.inf, 1.0), complex(math.nan, 1.0), complex(math.inf, math.nan)]
        with quiet():
            got = ew.modulus(columns(zs))
        want = np.array([abs(z) for z in zs])
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_overflow_raises_as_abs_does(self):
        z = complex(1.5e308, 1.5e308)
        with pytest.raises(OverflowError):
            abs(z)
        with quiet(), pytest.raises(OverflowError):
            ew.modulus(columns([1 + 0j, z]))


class TestNormalizeAndScrew:
    def test_normalize_matches_moebius_map(self):
        rng = random.Random(5)
        for _ in range(500):
            entries = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(4)]
            # determinants far from 1, both ways
            scale = 10.0 ** rng.randint(-5, 5)
            entries[0] *= scale
            entries[3] /= rng.choice([1.0, scale])
            try:
                m = MoebiusMap(*entries)
            except ValueError:
                continue
            with quiet():
                got = ew.normalize(tuple(columns([e]) for e in entries))
            assert same_map_bits(got, m)

    def test_normalize_refuses_a_singular_matrix(self):
        with pytest.raises(ValueError, match="singular matrix"):
            ew.normalize(tuple(columns([e]) for e in (1 + 1j, 2 + 2j, 1 + 0j, 2 + 0j)))

    def test_screw_matches(self):
        rng = random.Random(6)
        zs = [complex(rng.uniform(-100, 100), rng.uniform(-10, 10)) for _ in range(500)]
        zs += [complex(0.0, rng.uniform(0, 2 * math.pi)) for _ in range(500)]
        zs += [complex(rng.uniform(10, 180), 0.0) for _ in range(500)]
        for z in zs:
            with quiet():
                got = ew.screw(columns([z]))
            assert same_map_bits(got, _screw(z)), z
