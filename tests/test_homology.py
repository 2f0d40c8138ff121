import random
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from goodpants.complexes import (
    Circle,
    Pants,
    PantsComplex,
    _connected,
    build_xp,
    grow_until,
    validate,
)
from goodpants.homology import (
    AbelianGroup,
    IntegerMatrix,
    book_of_i_bundles_h1,
    cokernel,
    free_product_h1,
    h1_of_complex,
    mv_torsion_embedding,
    sigma,
    smith_normal_form,
)
from goodpants.holonomy import RepParams, build_rho, check_p_separated, development_residual
from oracles import integer_determinant, integer_matmul, sigma_with_pages


def dense_h1(x: PantsComplex) -> AbelianGroup:
    """Reference H1 on the full graph-of-groups presentation.

    It factors the dense attachments x generators matrix with
    smith_normal_form, not with cokernel, so it checks cokernel's sparse
    elimination rather than reusing it.

    Generators: a, b per pants (the third cuff is -a-b) and one class
    per circle; one relation per attachment saying the cuff class equals
    the signed d-th multiple of its circle's class; one free stable
    letter per independent cycle of the attachment graph.
    """
    cuff = {0: (1, 0), 1: (0, 1), 2: (-1, -1)}
    n_p = len(x.pants)
    n_c = len(x.circles)
    n_gens = 2 * n_p + n_c
    columns = []
    for pi, p in enumerate(x.pants):
        for slot, c in enumerate(p.slots):
            col = [0] * n_gens
            col[2 * pi], col[2 * pi + 1] = cuff[slot]
            col[2 * n_p + c] -= p.orientations[slot] * x.circles[c].d
            columns.append(col)
    group = dense_cokernel([[col[i] for col in columns] for i in range(n_gens)])
    stable = len(columns) - (n_p + n_c) + 1
    return AbelianGroup(rank=group.rank + stable, torsion=group.torsion)


def dense_cokernel(rows) -> AbelianGroup:
    """Z^len(rows) / (column span) from the dense Smith normal form.

    It reads the diagonal of smith_normal_form, whose unimodular
    certificate TestSmithNormalForm checks, and shares no code with
    cokernel's elimination.
    """
    d, _, _ = smith_normal_form(IntegerMatrix.from_rows(rows))
    diag = [x for x in d.diagonal() if x != 0]
    return AbelianGroup(
        rank=len(rows) - len(diag), torsion=tuple(x for x in diag if x > 1)
    )


@st.composite
def connected_complexes(draw):
    """Random valid connected complexes of 1-12 pants.

    Slots are dealt out to circles in a random order: each circle takes
    1-4 slots, a regular circle exactly two.  Singular circles have
    d in {2, 3, 4, 6}; a circle may take two slots of one pants
    (self-glued), and every orientation is random.
    """
    n_p = draw(st.integers(1, 12))
    slots = draw(st.permutations([(pi, s) for pi in range(n_p) for s in range(3)]))
    circles = []
    owner = {}
    i = 0
    while i < len(slots):
        left = len(slots) - i
        if draw(st.booleans()) and left >= 2:
            take, d = 2, 1
        else:
            take = draw(st.integers(1, min(4, left)))
            d = draw(st.sampled_from([2, 3, 4, 6]))
        for slot in slots[i : i + take]:
            owner[slot] = len(circles)
        circles.append(Circle(d=d, k=1))
        i += take
    pants = tuple(
        Pants(
            slots=tuple(owner[(pi, s)] for s in range(3)),
            orientations=tuple(draw(st.sampled_from([1, -1])) for _ in range(3)),
        )
        for pi in range(n_p)
    )
    x = PantsComplex(pants=pants, circles=tuple(circles))
    assume(_connected(x))
    assert not validate(x)
    return x


class TestDevelopsEveryComplex:
    @settings(max_examples=200, deadline=None)
    @given(connected_complexes(), st.sampled_from([0.0, 1.0]))
    def test_places_every_pants(self, x, tau):
        # many drawn complexes meet only across singular circles, and their
        # circles take several attachments of mixed orientations
        rho = build_rho(x, RepParams.random(x, R=20.0, tau=tau, seed=len(x.pants)))
        assert None not in rho.conjugators
        assert development_residual(rho) < 1e-9
        assert isinstance(check_p_separated(rho, 3), bool)


def assert_snf_contract(m):
    d, u, v = smith_normal_form(m)
    assert abs(integer_determinant(u)) == 1
    assert abs(integer_determinant(v)) == 1
    product = integer_matmul(integer_matmul(u, m), v)
    assert product == d
    diag = d.diagonal()
    for i, row in enumerate(d.entries):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    nonzero = [x for x in diag if x != 0]
    assert all(x > 0 for x in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # no zero sandwiched before a nonzero entry
    seen_zero = False
    for x in diag:
        if x == 0:
            seen_zero = True
        else:
            assert not seen_zero
    return d


class TestSmithNormalForm:
    def test_identity(self):
        d = assert_snf_contract(IntegerMatrix.identity(4))
        assert d.diagonal() == (1, 1, 1, 1)

    def test_zero(self):
        m = IntegerMatrix.from_rows([[0, 0], [0, 0]])
        d = assert_snf_contract(m)
        assert d.diagonal() == (0, 0)

    def test_known_example(self):
        m = IntegerMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        d = assert_snf_contract(m)
        assert d.diagonal() == (2, 2, 156)

    def test_rectangular(self):
        m = IntegerMatrix.from_rows([[2, 0, 0, 3], [0, 4, 0, 0]])
        assert_snf_contract(m)

    def test_random_matches_sympy(self):
        from sympy import Matrix
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(13)
        for _ in range(50):
            r = rng.randrange(1, 5)
            c = rng.randrange(1, 5)
            rows = [[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)]
            m = IntegerMatrix.from_rows(rows)
            d = assert_snf_contract(m)
            want = sympy_snf(Matrix(rows))
            got_diag = [abs(x) for x in d.diagonal() if x != 0]
            want_diag = [abs(want[i, i]) for i in range(min(r, c)) if want[i, i] != 0]
            assert got_diag == want_diag

    def test_random_contract_many(self):
        rng = random.Random(99)
        for _ in range(200):
            r = rng.randrange(1, 7)
            c = rng.randrange(1, 7)
            rows = [[rng.randrange(-30, 31) for _ in range(c)] for _ in range(r)]
            assert_snf_contract(IntegerMatrix.from_rows(rows))


@st.composite
def integer_matrices(draw):
    """Integer matrices up to 8 x 8 with entries in {0, +-1, +-2, 3, 4, 6}.

    Zero rows and zero columns are drawn on purpose: a zero row is a free
    generator, a zero column an empty relation.
    """
    n_r = draw(st.integers(0, 8))
    n_c = draw(st.integers(0, 8))
    entry = st.sampled_from([0, 1, -1, 2, -2, 3, 4, 6])
    zero_rows = draw(st.sets(st.integers(0, 7), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 7), max_size=2))
    return [
        [0 if i in zero_rows or j in zero_cols else draw(entry) for j in range(n_c)]
        for i in range(n_r)
    ]


class TestCokernel:
    @settings(max_examples=500, deadline=None)
    @given(integer_matrices())
    def test_matches_dense_smith_form(self, rows):
        n_c = len(rows[0]) if rows else 0
        columns = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(n_c)]
        assert cokernel(columns, len(rows)) == dense_cokernel(rows)

    def test_zero_coefficients_and_absent_generators(self):
        # generator 2 appears in no relation; zero entries are ignored
        group = cokernel([{0: 2, 1: 0}, {1: 1, 0: 0}], 3)
        assert group == AbelianGroup(rank=1, torsion=(2,))

    def test_non_cyclic_torsion(self):
        # no unit pivot: the whole matrix is the remainder
        assert cokernel([{0: 2}, {1: 4}, {2: 6}], 3) == AbelianGroup(0, (2, 2, 12))

    def test_generator_out_of_range(self):
        with pytest.raises(ValueError):
            cokernel([{3: 1}], 3)


class TestAbelianGroup:
    def test_divisor_chain_enforced(self):
        with pytest.raises(ValueError):
            AbelianGroup(rank=0, torsion=(4, 6))
        with pytest.raises(ValueError):
            AbelianGroup(rank=0, torsion=(1,))

    def test_negative_rank_refused(self):
        with pytest.raises(ValueError, match="^rank must be non-negative, got -3$"):
            AbelianGroup(rank=-3)

    def test_describe(self):
        assert AbelianGroup(rank=2, torsion=(3,)).describe() == "Z^2 + Z/3"
        assert AbelianGroup(rank=0).describe() == "0"


class TestH1OfComplex:
    @pytest.mark.parametrize("genus", [1, 2, 3])
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7])
    def test_torsion_is_p(self, genus, p):
        x = build_xp(genus, p)
        h = h1_of_complex(x)
        assert h.torsion == (p,)
        assert h == dense_h1(x)

    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_rank(self, genus):
        h = h1_of_complex(build_xp(genus, 3))
        assert h.rank == 4 * genus + 1

    def test_grown_complex_keeps_torsion(self):
        x = grow_until(build_xp(1, 3), 16)
        assert len(x.pants) == 96
        assert h1_of_complex(x) == AbelianGroup(rank=97, torsion=(3,))

    def test_large_complex_is_fast(self):
        x = grow_until(build_xp(1, 3), 128)
        assert len(x.pants) == 768
        t0 = time.perf_counter()
        h = h1_of_complex(x)
        elapsed = time.perf_counter() - t0
        assert h == AbelianGroup(rank=769, torsion=(3,))
        assert elapsed < 1.0, f"took {elapsed:.2f}s"

    @settings(max_examples=300, deadline=None)
    @given(connected_complexes())
    def test_matches_dense_presentation(self, x):
        assert h1_of_complex(x) == dense_h1(x)

    def test_self_glued_circles(self):
        # one pants with slots 0 and 1 on one circle: with equal signs the
        # circle's entry is 2, with opposite signs it is 0
        for o, want in (((1, 1, 1), AbelianGroup(2)), ((1, -1, 1), AbelianGroup(2, (3,)))):
            x = PantsComplex(
                pants=(Pants(slots=(0, 0, 1), orientations=o),),
                circles=(Circle(), Circle(d=3)),
            )
            assert h1_of_complex(x) == dense_h1(x) == want

    def test_disconnected_complex_rejected(self):
        one = build_xp(1, 3)
        shift = len(one.circles)
        other = tuple(
            Pants(slots=tuple(c + shift for c in p.slots), orientations=p.orientations)
            for p in one.pants
        )
        x = PantsComplex(pants=one.pants + other, circles=one.circles * 2)
        assert validate(x) == ["complex is not connected"]
        # one stable letter per independent cycle holds for one component
        # only: here it would give Z^9 + Z/3 + Z/3, not the direct sum
        # Z^10 + Z/3 + Z/3
        with pytest.raises(ValueError, match="complex is not connected"):
            h1_of_complex(x)

    def test_invalid_complex_rejected(self):
        x = PantsComplex(
            pants=(Pants(slots=(0, 1, 7)),),
            circles=(Circle(d=2), Circle(d=2)),
        )
        with pytest.raises(ValueError):
            h1_of_complex(x)


class TestBookOfIBundles:
    @pytest.mark.parametrize("genus", [1, 2, 3])
    @pytest.mark.parametrize("p", [2, 3, 5, 6])
    def test_group_shape(self, genus, p):
        h = book_of_i_bundles_h1(genus, p)
        assert h == AbelianGroup(rank=2 * genus + 1, torsion=(p,))


class TestSigma:
    def test_known_values(self):
        assert sigma(3) == 3
        assert sigma(4) == 2
        assert sigma(5) == 5
        assert sigma(6) == 3

    @pytest.mark.parametrize("p", range(2, 20))
    def test_closed_form(self, p):
        assert sigma(p) == (p if p % 2 else p // 2)

    @pytest.mark.parametrize("genus", range(1, 51))
    def test_values_for_every_genus(self, genus):
        # every genus gives the closed form, and so does the computation
        # that keeps the page classes in the lattice
        for p in range(2, 31):
            expected = sigma_with_pages(p, genus)
            assert expected == (p if p % 2 else p // 2), (p, genus)
            assert sigma(p, genus) == expected, (p, genus)
            torsion = (expected,) if expected > 1 else ()
            assert mv_torsion_embedding(p, genus) == AbelianGroup(0, torsion), (p, genus)

    def test_large_genus(self):
        assert sigma(4, 500) == 2
        assert sigma(9, 500) == 9
        # no work grows with the genus
        tracemalloc.start()
        try:
            assert sigma(3, 10**8) == 3
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_mv_embedding(self):
        assert mv_torsion_embedding(5) == AbelianGroup(rank=0, torsion=(5,))
        assert mv_torsion_embedding(4) == AbelianGroup(rank=0, torsion=(2,))
        assert mv_torsion_embedding(2) == AbelianGroup(rank=0)


class TestFreeProduct:
    def test_coprime_torsion_merges(self):
        g = free_product_h1(
            [AbelianGroup(0, (2,)), AbelianGroup(0, (3,)), AbelianGroup(1)]
        )
        assert g == AbelianGroup(rank=1, torsion=(6,))

    def test_common_factor_stays(self):
        g = free_product_h1([AbelianGroup(0, (2,)), AbelianGroup(0, (4,))])
        assert g == AbelianGroup(rank=0, torsion=(2, 4))

    def test_empty(self):
        assert free_product_h1([]) == AbelianGroup(rank=0)
