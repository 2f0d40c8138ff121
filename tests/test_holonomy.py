import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goodpants import cli, geom, holonomy, pants
from goodpants.complexes import PantsComplex, build_xp, graph_of, grow_until
from goodpants.geom import complex_translation_length
from goodpants.holonomy import (
    RepParams,
    build_rho,
    certify_qi,
    check_p_separated,
    development_residual,
    measured_shear,
    _scan_words,
    nontriviality_scan,
)


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

    def test_stable_letters_exist(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        assert cli.main(["build", "--L", "6", "--out", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        g = graph_of(PantsComplex.from_json(path.read_text()))
        # graph rank = E - V + 1 independent cycles, one stable letter each
        assert report["stable_letters"] == len(g.edges) - g.n_vertices + 1

    def test_seams_found_once_per_pants(self):
        # build_pants_rep finds each pants' seams, once, as screw
        # products; developing the complex reads its frames and never
        # maps, extracts or joins a boundary endpoint
        x = grow_until(build_xp(1, 3), 16)
        built = []

        def record(*hls):
            built.append(pants.build_pants_rep(*hls))
            return built[-1]

        refuse = mock.Mock(side_effect=AssertionError("boundary endpoint read"))
        with mock.patch.object(holonomy, "build_pants_rep", record), mock.patch.multiple(
            geom, axis_of=refuse, common_perpendicular=refuse, mobius_apply=refuse
        ):
            rho = build_rho(x, RepParams.random(x, R=20.0, tau=1.0, seed=5))
            assert development_residual(rho) < 1e-9
            check_p_separated(rho, 3)
            nontriviality_scan(rho, max_length=2)
        assert refuse.call_count == 0
        assert len(built) == len(x.pants)
        for rep, base in zip(built, rho.base_reps):
            assert rep is base
            assert all(pants.cuff_frame(base, i) is base.frames[i] for i in range(3))

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
    def test_memory_does_not_hold_a_word_length(self):
        x = grow_until(build_xp(1, 3), 16)
        rho = build_rho(x, RepParams.zero(x, R=20.0))
        tracemalloc.start()
        try:
            report = nontriviality_scan(rho, max_length=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.total_words == 867856
        assert report.passed
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"

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


def bfs_scan(letters, max_length, threshold=1e-6):
    """Reference scan: the breadth-first kernel the chunked scan replaced.

    Holds every word of one length at once, multiplies by each letter
    with one stacked matmul, and tests every matrix against +/- I in
    full.  Words come out by length and then by the word read backwards.
    """
    n_letters = len(letters)
    eye = np.eye(2)
    violations = []
    total = 0
    mats = np.stack(letters)
    words = np.arange(n_letters, dtype=np.int8).reshape(-1, 1)
    for depth in range(1, max_length + 1):
        total += len(mats)
        err_plus = np.abs(mats - eye).max(axis=(1, 2))
        err_minus = np.abs(mats + eye).max(axis=(1, 2))
        bad = np.minimum(err_plus, err_minus) < threshold
        for w in words[bad]:
            violations.append(tuple(int(a) for a in w))
        if depth == max_length:
            break
        last = words[:, -1]
        next_mats = []
        next_words = []
        for l in range(n_letters):
            mask = last != (l ^ 1)
            if not mask.any():
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                next_mats.append(mats[mask] @ letters[l])
            block = np.empty((int(mask.sum()), depth + 1), dtype=np.int8)
            block[:, :depth] = words[mask]
            block[:, depth] = l
            next_words.append(block)
        mats = np.concatenate(next_mats)
        words = np.concatenate(next_words)
    return total, tuple(violations)


def random_sl2(rng):
    """A det-1 complex matrix with entries of moderate size."""
    a = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    b, c = rng.normal(size=2) + 1j * rng.normal(size=2)
    return np.array([[a, b], [c, (1.0 + b * c) / a]])


def sl2_inverse(g):
    (a, b), (c, d) = g
    return np.array([[d, -b], [-c, a]])


def alphabet(gens):
    """Letters 2i = gens[i] and 2i+1 = its inverse."""
    letters = []
    for g in gens:
        letters += [g, sl2_inverse(g)]
    return letters


# b = c = 0 passes the off-diagonal filter, yet is far from +/- I
_DIAGONAL = np.diag([2.0 * np.exp(0.7j), 0.5 * np.exp(-0.7j)])
# a = d = 1 on every power: only the off-diagonal entries keep them off I
_UPPER = np.array([[1.0, 0.3 + 0.4j], [0.0, 1.0]])
_LOWER = np.array([[1.0, 0.0], [-0.2 + 0.5j, 1.0]])
# powers overflow to inf, and inf - inf gives nan
_HUGE = np.array([[1e200, 1e200], [0.0, 1e-200]], dtype=complex)
_PLANTS = ("duplicate", "product", "negative", "diagonal", "upper", "lower", "overflow")


def planted_alphabet(gens, plants):
    """Letters over gens plus planted ones, and the planted trivial words.

    plants is a sequence of (kind, i, j) with i, j indices into gens:
    a duplicate h = g_i (so g_i h^-1 = I), a product u = g_i g_j (so
    u g_j^-1 g_i^-1 = I), a negative v = -g_i (so v g_i^-1 = -I), a
    diagonal letter, upper and lower triangular unipotent letters, and
    a letter whose products overflow.
    """
    gens = list(gens)
    planted = []
    extra = {"diagonal": _DIAGONAL, "upper": _UPPER, "lower": _LOWER, "overflow": _HUGE}
    for kind, i, j in plants:
        k = len(gens)
        if kind == "duplicate":
            gens.append(gens[i].copy())
            planted.append((2 * i, 2 * k + 1))
        elif kind == "product":
            gens.append(gens[i] @ gens[j])
            planted.append((2 * k, 2 * j + 1, 2 * i + 1))
        elif kind == "negative":
            gens.append(-gens[i])
            planted.append((2 * k, 2 * i + 1))
        else:
            gens.append(extra[kind])
    return alphabet(gens), planted


@st.composite
def planted_alphabets(draw):
    """One or two random det-1 generators and up to three plants."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_base = draw(st.integers(1, 2))
    base = [random_sl2(rng) for _ in range(n_base)]
    index = st.integers(0, n_base - 1)
    plants = draw(
        st.lists(st.tuples(st.sampled_from(_PLANTS), index, index), max_size=4 - n_base)
    )
    return planted_alphabet(base, plants)


def _every_plant(seed):
    """Two random generators and one plant of every kind."""
    rng = np.random.default_rng(seed)
    return planted_alphabet(
        [random_sl2(rng), random_sl2(rng)], [(kind, 1, 0) for kind in _PLANTS]
    )


class TestScanWords:
    @settings(max_examples=60, deadline=None)
    @given(
        case=planted_alphabets(),
        max_length=st.integers(1, 5),
        chunk=st.sampled_from([3, 64, holonomy._SCAN_CHUNK]),
    )
    @example(case=_every_plant(1), max_length=3, chunk=3)
    @example(case=_every_plant(2), max_length=4, chunk=holonomy._SCAN_CHUNK)
    def test_matches_breadth_first_oracle(self, case, max_length, chunk):
        letters, planted = case
        with mock.patch.object(holonomy, "_SCAN_CHUNK", chunk):
            total, violations = _scan_words(letters, max_length, 1e-6)
        assert (total, violations) == bfs_scan(letters, max_length)
        for word in planted:
            if len(word) <= max_length:
                assert word in violations

    def test_overflow_never_flagged(self):
        # h h'^-1 and h'^-1 h are both trivial in the group; the second
        # product is exactly I, the first is nan from inf - inf
        letters = alphabet([_HUGE, _HUGE.copy()])
        total, violations = _scan_words(letters, 4, 1e-6)
        assert total == 4 + 12 + 36 + 108
        assert (3, 0) in violations
        assert (0, 3) not in violations
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(letters[0] @ letters[3]).any()
            for word in violations:
                product = np.eye(2, dtype=complex)
                for l in word:
                    product = product @ letters[l]
                assert np.isfinite(product).all()
        assert (total, violations) == bfs_scan(letters, 4)

    def test_no_words(self):
        assert _scan_words([np.eye(2, dtype=complex)] * 2, 0, 1e-6) == (0, ())
        assert _scan_words([], 3, 1e-6) == (0, ())
