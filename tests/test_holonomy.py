import functools
import json
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goodpants import cli, geom, holonomy, pants
from goodpants.complexes import PantsComplex, build_xp, graph_of, grow_until
from goodpants.complexes import Circle
from goodpants.geom import (
    MoebiusMap,
    Point,
    _screw,
    apply_to_point,
    hyperbolic_point_distance,
)
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
from oracles import maps_close, root_cover, two_chains


def placed_cuff(rho, i, slot):
    """The cuff of pants i on slot, conjugated into its placed position."""
    g = rho.conjugators[i]
    return g * rho.base_reps[i].cuff(slot) * g.inverse()


def orientation_error(rho, c):
    """Largest relative gap from cuff_v = cuff_u^(o_u * o_v) on circle c.

    u is c's first attachment and v each other one; maps are compared
    modulo sign, relative to the largest entry of the wanted cuff.
    """
    x = rho.complex
    (u, su), *others = x.attachments_of(c)
    cuff_u = placed_cuff(rho, u, su)
    worst = 0.0
    for v, sv in others:
        same = x.pants[u].orientations[su] == x.pants[v].orientations[sv]
        want = np.array((cuff_u if same else cuff_u.inverse()).entries())
        got = np.array(placed_cuff(rho, v, sv).entries())
        gap = min(np.abs(got - want).max(), np.abs(got + want).max())
        worst = max(worst, gap / np.abs(want).max())
    return worst


def round_trip_errors(x, params):
    rho = build_rho(x, params)
    errs = []
    for i, p in enumerate(x.pants):
        for slot, c in enumerate(p.slots):
            errs.append(
                abs(rho.halflength_at(i, slot) - params.halflength(c))
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
        x = build_xp(1, 3)
        params = RepParams.zero(x, R=20.0)
        rho = build_rho(x, params)
        for c in x.singular_circles():
            d = x.circles[c].d
            (pi, slot) = x.attachments_of(c)[0]
            # the root next to its pants: its d-th power is that cuff
            t = rho.singular_base[c]
            power = t
            for _ in range(d - 1):
                power = power * t
            residual = power * rho.base_reps[pi].cuff(slot).inverse()
            assert maps_close(residual, MoebiusMap.identity(), 1e-9)

    def test_singular_root_length(self):
        x = build_xp(1, 3)
        params = RepParams.zero(x, R=20.0)
        rho = build_rho(x, params)
        length = rho.singular_length(0)
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
        # maps a boundary endpoint (axes and perpendiculars read from
        # endpoints exist only as test oracles)
        x = grow_until(build_xp(1, 3), 16)
        built = []

        def record(*hls):
            built.append(pants.build_pants_rep(*hls))
            return built[-1]

        refuse = mock.Mock(side_effect=AssertionError("boundary endpoint read"))
        with mock.patch.object(holonomy, "build_pants_rep", record), mock.patch.multiple(
            geom, mobius_apply=refuse
        ):
            rho = build_rho(x, RepParams.random(x, R=20.0, tau=1.0, seed=5))
            assert development_residual(rho) < 1e-9
            check_p_separated(rho, 3)
            nontriviality_scan(rho, max_length=2)
        assert refuse.call_count == 0
        assert len(built) == len(x.pants)
        for rep, base in zip(built, rho.base_reps):
            assert rep is base

    def test_equal_halflengths_share_one_build(self):
        # at tau = 0 every pants reads (R/2, R/2, R/2): one build serves
        # them all, with the bits that building each pants alone gives
        x = grow_until(build_xp(1, 3), 16)
        calls = []

        def record(*hls):
            calls.append(hls)
            return pants.build_pants_rep(*hls)

        with mock.patch.object(holonomy, "build_pants_rep", record):
            rho = build_rho(x, RepParams.zero(x, R=20.0))
        assert calls == [(10 + 0j,) * 3]
        assert all(rep is rho.base_reps[0] for rep in rho.base_reps)
        alone = pants.build_pants_rep(10.0, 10.0, 10.0)
        assert repr(rho.base_reps[0]) == repr(alone)
        # at tau = 1 every circle has its own half-length
        params = RepParams.random(x, R=20.0, tau=1.0, seed=5)
        calls.clear()
        with mock.patch.object(holonomy, "build_pants_rep", record):
            build_rho(x, params)
        assert len(calls) == len(set(calls)) == len(x.pants)

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_residual_measures_each_shared_rep_once(self, tau):
        # the residual of every slot read afresh, as one loop over the
        # pants slots and one over the regular circles
        def per_slot_residual(rho):
            x, params = rho.complex, rho.params
            residual = 0.0
            for i, p in enumerate(x.pants):
                for slot, c in enumerate(p.slots):
                    measured = rho.halflength_at(i, slot)
                    residual = max(residual, abs(measured - params.halflength(c)))
            for c in x.regular_circles():
                requested = pants.HalfNormalCoordinate(
                    params.shear_of(c), params.halflength(c)
                ).value
                residual = max(residual, abs(measured_shear(rho, c) - requested))
            return residual

        x = grow_until(build_xp(1, 3), 16)
        rho = build_rho(x, RepParams.random(x, R=20.0, tau=tau, seed=5))
        calls = []

        def record(rep, cuff):
            calls.append((id(rep), cuff))
            return pants.measured_halflength(rep, cuff)

        with mock.patch.object(holonomy, "measured_halflength", record):
            residual = development_residual(rho)
        assert residual.hex() == per_slot_residual(rho).hex()
        distinct = {id(rep) for rep in rho.base_reps}
        assert len(distinct) == (1 if tau == 0.0 else len(x.pants))
        assert sorted(calls) == sorted((r, cuff) for r in distinct for cuff in range(3))

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

    def test_singular_join_is_placed(self):
        from goodpants.complexes import Circle, Pants, PantsComplex, validate

        # connected, but only across the singular circle 0
        x = PantsComplex(
            pants=(Pants(slots=(0, 1, 1)), Pants(slots=(0, 2, 2))),
            circles=(Circle(d=2), Circle(), Circle()),
        )
        assert validate(x) == []
        rho = build_rho(x, RepParams.zero(x, R=10.0))
        assert None not in rho.conjugators
        assert orientation_error(rho, 0) < 1e-12


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

    def test_wedge_fails_below_its_feet(self):
        # two X_3 sharing circle 0, of degree 3 with two attachments: its
        # D = 6 feet are 2*pi/6 apart
        x = two_chains(share_singular=True)
        rho = build_rho(x, RepParams.zero(x, R=20.0))
        assert not check_p_separated(rho, 3)
        assert check_p_separated(rho, 6)

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    @pytest.mark.parametrize("sign", [1, -1], ids=["equal", "mixed"])
    @pytest.mark.parametrize("base", ["wedge", "cover"])
    def test_placement_is_a_representation(self, base, tau, sign):
        # circle 0 of the wedge (D = 6) or of the 3-fold root cover of X_3
        # (D = 3), with its second attachment's orientation times sign
        if base == "wedge":
            x = two_chains(share_singular=True)
        else:
            x = root_cover(build_xp(1, 3), 3, [0])
        _, (v, sv), *_ = x.attachments_of(0)
        orientations = list(x.pants[v].orientations)
        orientations[sv] *= sign
        changed = list(x.pants)
        changed[v] = x.pants[v]._replace(orientations=tuple(orientations))
        x = PantsComplex(pants=tuple(changed), circles=x.circles)
        rho = build_rho(x, RepParams.random(x, R=20.0, tau=tau, seed=4))
        assert orientation_error(rho, 0) < 1e-12
        # a flipped foot is negated and read back times its orientation,
        # so the D feet stay evenly spread
        D = x.degree_sum(0)
        assert check_p_separated(rho, D)
        assert not check_p_separated(rho, D - 1)

    def test_rotated_foot_fails(self):
        # the 3-fold root cover of X_3: its lifted root has d = 1 and three
        # feet 2*pi/3 apart; turning one by 0.3 rad brings two closer
        x = root_cover(build_xp(1, 3), 3, [0])
        rho = build_rho(x, RepParams.random(x, R=20.0, tau=1.0, seed=0))
        assert check_p_separated(rho, 3)
        frames = list(rho.measure_frames[0])
        frames[1] = _screw(0.3j) * frames[1]
        planted = rho._replace(measure_frames={**rho.measure_frames, 0: tuple(frames)})
        assert not check_p_separated(planted, 3)


def list_separated(thetas, d, p):
    """The separation test as it was: every one of the d copies of each foot."""
    tol = 1e-9
    angles = []
    for theta in thetas:
        angles.extend((theta + 2.0 * math.pi * l / d) % (2.0 * math.pi) for l in range(d))
    angles.sort()
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    gaps.append(angles[0] + 2.0 * math.pi - angles[-1])
    if len(angles) > 1 and min(gaps) < tol:
        return False
    if min(gaps) < 2.0 * math.pi / p - tol:
        return False
    return True


class TestFeetSeparated:
    def test_matches_the_list_of_copies(self):
        rng = random.Random(8)
        results = set()
        for _ in range(3000):
            d, p = rng.randint(1, 7), rng.randint(2, 8)
            thetas = [rng.uniform(-math.pi, math.pi) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.2:
                # a foot on a copy of another: they coincide
                thetas.append(thetas[0] + 2.0 * math.pi * rng.randint(-3, 3) / d)
            want = list_separated(thetas, d, p)
            assert holonomy._feet_separated(thetas, d, p) == want, (thetas, d, p)
            results.add(want)
        assert results == {True, False}

    def test_memory_does_not_grow_with_d(self):
        # circle 0 of the model is singular, with one attachment
        x = build_xp(1, 3)
        circles = (Circle(d=1000003, k=1),) + x.circles[1:]
        x = PantsComplex(pants=x.pants, circles=circles)
        rho = build_rho(x, RepParams.zero(x, R=20.0))
        tracemalloc.start()
        try:
            separated = check_p_separated(rho, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert separated is False
        assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


@functools.lru_cache(maxsize=None)
def scalar_sample(R, p, seed, i):
    """Chord and length of QI sample i, one scalar product at a time.

    The loop body of certify_qi before it evaluated slices as arrays: the
    oracle that the array evaluation must match bit for bit.
    """
    base = Point(0j, 1.0)
    # rotation by alpha about the horizontal axis through the base point
    sqrt2 = math.sqrt(2.0)
    to_horizontal = MoebiusMap(1 / sqrt2, 1 / sqrt2, 1 / sqrt2, -1 / sqrt2)

    def tilt(alpha):
        return to_horizontal.inverse() * _screw(1j * alpha) * to_horizontal

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
    n_seg = int(rng.integers(2, 6))
    frame = MoebiusMap.identity()
    total = 0.0
    for i in range(n_seg):
        length = float(rng.uniform(R / 2.0, 3.0 * R))
        total += length
        frame = frame * _screw(complex(length))
        if i + 1 < n_seg:
            bend = float(rng.uniform(2.0 * math.pi / p, math.pi))
            spin = float(rng.uniform(0.0, 2.0 * math.pi))
            frame = frame * _screw(1j * spin) * tilt(math.pi - bend)
    chord = hyperbolic_point_distance(base, apply_to_point(frame, base))
    return chord, total


def scalar_certify_qi(R, p, samples, seed):
    """certify_qi one sample at a time, the oracle of its array slices.

    A margin that is not finite (a nan or inf chord) is a violation.
    """
    violations = 0
    min_margin = math.inf
    min_ratio = math.inf
    max_ratio = -math.inf
    for i in range(samples):
        chord, total = scalar_sample(R, p, seed, i)
        margin = chord - (total / 2.0 - R / 4.0)
        ratio = chord / total
        min_margin = min(min_margin, margin)
        min_ratio = min(min_ratio, ratio)
        max_ratio = max(max_ratio, ratio)
        if margin < 0 or chord > total + 1e-9 or not math.isfinite(margin):
            violations += 1
    return holonomy.QiReport(
        R=R,
        p=p,
        samples=samples,
        violations=violations,
        min_margin=min_margin,
        min_ratio=min_ratio,
        max_ratio=max_ratio,
        seed=seed,
    )


def path(lengths, bends, spins):
    """One broken path as a row of _path_chords' draws."""
    row = np.zeros(3 * holonomy._QI_MAX_SEG)
    row[0 : 3 * len(lengths) : 3] = lengths
    row[1 : 3 * len(bends) : 3] = bends
    row[2 : 3 * len(spins) : 3] = spins
    return row


class TestCertifyQi:
    @pytest.mark.parametrize("R", [12.0, 20.0, 30.0, 40.0, 60.0, 70.0])
    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_matches_scalar_oracle(self, R, p):
        slice_ = holonomy._QI_SLICE
        seed = int(R) + p
        for samples in (1, slice_ - 1, slice_, slice_ + 1, 3 * slice_ + 7):
            want = scalar_certify_qi(R, p, samples, seed)
            assert certify_qi(R, p, samples, seed) == want, samples

    def test_inf_chords_are_violations_as_before(self):
        # long paths at R = 60 leave double range: the parent's report too
        report = certify_qi(R=60.0, p=3, samples=300, seed=2)
        assert report == scalar_certify_qi(60.0, 3, 300, 2)
        assert report.max_ratio == math.inf and report.violations == 2

    @pytest.mark.parametrize("R, samples", [(80.0, 100), (90.0, 1)])
    def test_overflow_names_the_sampler(self, R, samples):
        with pytest.raises(OverflowError):
            scalar_certify_qi(R, 3, samples, 0)
        with pytest.raises(
            OverflowError,
            match=rf"^R = {R} is too large for double precision: the QI sampler's",
        ):
            certify_qi(R, 3, samples, 0)

    def test_backtracking_path_is_a_violation(self):
        R = 20.0
        # bend 0: the second segment runs back along the first
        chord, total = holonomy._path_chords(np.array([2]), path([R, R], [0.0], [1.3])[None])
        margin, violated = holonomy._qi_margins(R, chord, total)
        assert chord[0] < 1e-6 and total[0] == 2 * R
        assert margin[0] < 0 and violated.tolist() == [True]

    @pytest.mark.parametrize("gap, violated", [(0.01, True), (-0.01, False)])
    def test_margin_sign_decides(self, gap, violated):
        # two segments of length R whose chord is gap short of the bound
        # total / 2 - R / 4, by the law of cosines for the bend
        R = 20.0
        chord = R - R / 4.0 - gap
        bend = math.acos((math.cosh(R) ** 2 - math.cosh(chord)) / math.sinh(R) ** 2)
        got, total = holonomy._path_chords(np.array([2]), path([R, R], [bend], [2.0])[None])
        margin, violations = holonomy._qi_margins(R, got, total)
        assert got[0] == pytest.approx(chord, abs=1e-4)
        assert margin[0] == pytest.approx(-gap, abs=1e-4)
        assert violations.tolist() == [violated]

    @pytest.mark.parametrize("n_seg", [2, 5])
    def test_straight_path_has_its_length_as_chord(self, n_seg):
        R = 20.0
        lengths = [R / 2.0 + 7.0 * j for j in range(n_seg)]
        draws = path(lengths, [math.pi] * (n_seg - 1), [0.4 + j for j in range(n_seg - 1)])
        chord, total = holonomy._path_chords(np.array([n_seg]), draws[None])
        margin, violated = holonomy._qi_margins(R, chord, total)
        assert abs(chord[0] - total[0]) < 1e-9
        assert violated.tolist() == [False]

    def test_rejects_non_positive_R(self):
        for R in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite R > 0"):
                certify_qi(R=R, p=3, samples=1, seed=0)

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

    @pytest.mark.parametrize(
        "seed, min_margin, min_ratio, max_ratio",
        [
            (0, 16.641652150545568, 0.9934015327142993, 0.9999982229462596),
            (7, 15.751932269681909, 0.9914940835481173, 0.9999984126126881),
        ],
    )
    def test_pinned_reports(self, seed, min_margin, min_ratio, max_ratio):
        # read from the implementation that spawned every child seed
        # sequence up front; the lazily made children draw the same
        assert certify_qi(R=20.0, p=3, samples=300, seed=seed) == holonomy.QiReport(
            R=20.0,
            p=3,
            samples=300,
            violations=0,
            min_margin=min_margin,
            min_ratio=min_ratio,
            max_ratio=max_ratio,
            seed=seed,
        )

    def test_memory_does_not_grow_with_samples(self):
        # spawning every child up front costs about 350 B a sample
        # (1.65 MB more at 5000 samples than at 500)
        peaks = []
        for samples in (500, 5000):
            tracemalloc.start()
            try:
                certify_qi(R=20.0, p=3, samples=samples, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 500_000


class TestNontrivialityScan:
    def test_memory_does_not_hold_a_word_length(self):
        # each depth holds fewer than 2 * _SCAN_CHUNK words, so one more
        # letter, with 15x the words, stays under the same bound
        x = grow_until(build_xp(1, 3), 16)
        rho = build_rho(x, RepParams.zero(x, R=20.0))
        for max_length, total_words in [(5, 867856), (6, 13017856)]:
            tracemalloc.start()
            try:
                report = nontriviality_scan(rho, max_length=max_length)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert report.total_words == total_words
            assert report.passed
            assert peak < 4 * 2**20, f"{max_length} letters: peak {peak / 2**20:.1f} MiB"

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


def _eight_generators(seed):
    """Eight generators, as many as the scan's alphabet has: six random
    ones, a duplicate and a product."""
    rng = np.random.default_rng(seed)
    gens = [random_sl2(rng) for _ in range(6)]
    return planted_alphabet(gens, [("duplicate", 4, 0), ("product", 2, 5)])


class TestScanWords:
    @settings(max_examples=60, deadline=None)
    @given(
        case=planted_alphabets(),
        max_length=st.integers(1, 5),
        chunk=st.sampled_from([1, 3, 5, 64, holonomy._SCAN_CHUNK]),
    )
    @example(case=_every_plant(1), max_length=3, chunk=3)
    @example(case=_every_plant(2), max_length=4, chunk=holonomy._SCAN_CHUNK)
    # one-word slices: the word of the second-last letter has no child by
    # the last letter, so that letter keeps no rows with nothing waiting
    @example(case=_every_plant(3), max_length=3, chunk=1)
    @example(case=_eight_generators(4), max_length=4, chunk=5)
    # a slice of words that all end in the second-last letter: the last
    # letter keeps no rows while the other letters' children wait
    @example(case=_eight_generators(5), max_length=4, chunk=64)
    @example(case=_eight_generators(6), max_length=4, chunk=holonomy._SCAN_CHUNK)
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
