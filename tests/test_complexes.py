import functools
import hashlib
import math
import random
import time
from collections import Counter
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodpants import complexes
from goodpants.complexes import (
    Circle,
    DisconnectedResultError,
    NoEssentialPathError,
    NotOnShortestPathError,
    Pants,
    PantsComplex,
    PantsGraph,
    _middle_dart_counts,
    build_xp,
    complexity,
    graph_of,
    grow_until,
    make_donor,
    surger,
    validate,
)
from goodpants.walks import _dart_lists, _Growth, _Search
from test_homology import connected_complexes


def brute_force_walks(g: PantsGraph):
    """Enumerate the shortest essential marked-to-marked walks directly.

    Walks are non-backtracking with unmarked interior vertices; closed
    walks must also be cyclically reduced (last dart is not the reverse
    of the first).  Yields each walk as a list of darts, dart 2e and
    2e+1 being the two directions of edge e; yields nothing if there is
    no essential walk.
    """
    from collections import deque

    darts = []
    for ei, (_, a, b) in enumerate(g.edges):
        darts.append((a, b))
        darts.append((b, a))
    n_darts = len(darts)

    def admissible(walk, start):
        at = darts[walk[-1]][1]
        if at not in g.marked:
            return False
        return not (at == start and walk[-1] == walk[0] ^ 1)

    # shortest completable suffix from each dart to a marked vertex
    # (relaxed: ignores cyclic reduction, so it is a valid lower bound)
    suffix = [None] * n_darts
    queue = deque()
    for d in range(n_darts):
        if darts[d][1] in g.marked:
            suffix[d] = 1
            queue.append(d)
    while queue:
        d = queue.popleft()
        for d2 in range(n_darts):
            if suffix[d2] is None and d != d2 ^ 1 and darts[d2][1] == darts[d][0]:
                if darts[d2][1] not in g.marked:  # may only pass unmarked
                    suffix[d2] = suffix[d] + 1
                    queue.append(d2)
        # darts straight into a marked vertex were seeded above

    # exact shortest admissible walk length: breadth-first search over
    # dart states, once per possible first dart
    best = None
    for s in range(n_darts):
        if darts[s][0] not in g.marked:
            continue
        dist = {s: 1}
        queue = deque([s])
        while queue:
            d = queue.popleft()
            if best is not None and dist[d] >= best:
                continue
            if darts[d][1] in g.marked:
                if not (darts[d][1] == darts[s][0] and d == s ^ 1):
                    if best is None or dist[d] < best:
                        best = dist[d]
                continue  # may only pass unmarked vertices
            for d2 in range(n_darts):
                if d2 not in dist and d2 != d ^ 1 and darts[d2][0] == darts[d][1]:
                    dist[d2] = dist[d] + 1
                    queue.append(d2)
    if best is None:
        return

    def dfs(walk, start, limit):
        if len(walk) == limit:
            if admissible(walk, start):
                yield walk
            return
        at = darts[walk[-1]][1]
        if at in g.marked:
            return  # interior vertices must be unmarked
        for d in range(n_darts):
            if darts[d][0] != at or d == walk[-1] ^ 1:
                continue
            if suffix[d] is not None and len(walk) + suffix[d] <= limit:
                yield from dfs(walk + [d], start, limit)

    for v in g.marked:
        for d in range(n_darts):
            if darts[d][0] != v:
                continue
            if suffix[d] is not None and suffix[d] <= best:
                yield from dfs([d], v, best)


def brute_force_complexity(g: PantsGraph):
    """(l, -n) from brute_force_walks, or None without essential walks."""
    l, count = None, 0
    for walk in brute_force_walks(g):
        l, count = len(walk), count + 1
    return None if l is None else (l, -(count // 2))


def shortest_essential_walk(g: PantsGraph) -> list[int]:
    """One shortest essential walk, as a list of darts."""
    l, _ = complexity(g)
    tail, head = [], []
    for _, a, b in g.edges:
        tail.extend((a, b))
        head.extend((b, a))
    by_vertex = [[] for _ in range(g.n_vertices)]
    for d in range(len(tail)):
        by_vertex[tail[d]].append(d)

    def extend(walk):
        if len(walk) == l:
            if head[walk[-1]] not in g.marked:
                return None
            if head[walk[-1]] == tail[walk[0]] and walk[-1] == walk[0] ^ 1:
                return None  # closed but not cyclically reduced
            return walk
        if head[walk[-1]] in g.marked:
            return None  # interior vertices must be unmarked
        for d2 in by_vertex[head[walk[-1]]]:
            if d2 != walk[-1] ^ 1:
                got = extend(walk + [d2])
                if got is not None:
                    return got
        return None

    for d in sorted(
        range(len(tail)), key=lambda d: (tail[d] not in g.marked, d)
    ):
        if tail[d] in g.marked:
            got = extend([d])
            if got is not None:
                return got
    raise NoEssentialPathError("no essential marked path")


def random_graph(rng):
    n = rng.randrange(1, 13)
    n_edges = rng.randrange(0, 2 * n)
    edges = tuple(
        (i, rng.randrange(n), rng.randrange(n)) for i in range(n_edges)
    )
    marked = frozenset(
        v for v in range(n) if rng.random() < 0.3
    )
    return PantsGraph(n_vertices=n, edges=edges, marked=marked)


def dart_arrays(g: PantsGraph):
    """(tail, marked mask) as numpy arrays, for the scatter oracle.

    Darts 2e and 2e+1 are the two directions of edge e, so the head of
    dart d is tail[d ^ 1].
    """
    tail = np.array([v for _, a, b in g.edges for v in (a, b)], dtype=np.intp)
    marked = np.zeros(g.n_vertices, dtype=bool)
    marked[list(g.marked)] = True
    return tail, marked


def scatter_walk_layers(tail, head, marked, dtype, n_vertices):
    """Every non-backtracking walk counted, one layer per walk length.

    Layer t has one row per seed (the darts leaving marked vertices, in
    dart order): row i counts the walks of t darts from seeds[i] to each
    dart that pass only unmarked vertices in between.  Each layer is
    scattered onto the vertices: a walk continues past an unmarked head
    vertex into every dart leaving it, minus the reverse of the dart it
    arrived by.
    """
    n_darts = len(tail)
    seeds = np.flatnonzero(marked[tail])
    rows = np.arange(len(seeds))
    flip = np.arange(n_darts) ^ 1
    blocked = marked[head]
    cur = np.zeros((len(seeds), n_darts), dtype=dtype)
    cur[rows, seeds] = 1
    while True:
        yield cur
        ext = np.where(blocked[None, :], 0, cur)
        by_vertex = np.zeros((len(seeds), n_vertices), dtype=dtype)
        np.add.at(by_vertex, (rows[:, None], head[None, :]), ext)
        cur = by_vertex[:, tail] - ext[:, flip]


def exact_walks(g: PantsGraph):
    """(l, n, k, counts) from the scatter oracle's layers in Python
    integers, or None without essential walks.

    l is the first layer with a walk from seed i to the reverse of seed
    j != i; the middle-dart counts are formed by subtraction, which is
    exact in integers.
    """
    tail, marked = dart_arrays(g)
    flip = np.arange(len(tail)) ^ 1
    starts = np.flatnonzero(marked[tail])
    if not len(starts):
        return None
    others = ~np.eye(len(starts), dtype=bool)
    layers = scatter_walk_layers(tail, tail[flip], marked, object, g.n_vertices)
    bound = 2 * (g.n_vertices + len(g.edges)) + 1
    seen = []
    for layer in islice(layers, bound):
        seen.append(layer)
        total = layer[:, starts ^ 1][others].sum()
        if total:
            break
    else:
        return None
    l = len(seen)
    k = (l + 2) // 2
    fwd = seen[k - 1]
    back = seen[l - k][:, flip]
    counts = fwd.sum(axis=0) * back.sum(axis=0) - (fwd * back).sum(axis=0)
    return l, total, k, counts.tolist()


def brute_force_counts(g: PantsGraph):
    """(l, n, k, counts) tallied from brute_force_walks, or None."""
    l, tally = None, Counter()
    for walk in brute_force_walks(g):
        l = len(walk)
        tally[walk[(l + 2) // 2 - 1]] += 1
    if l is None:
        return None
    counts = [tally[d] for d in range(2 * len(g.edges))]
    return l, sum(counts), (l + 2) // 2, counts


def search(g: PantsGraph):
    """The walks of a fresh search of a graph, or None when it has no
    essential walk."""
    _, mask, out, succ = _dart_lists(g)
    try:
        return _Search(mask, out, succ).walks()
    except NoEssentialPathError:
        return None


def chain_complex(k):
    """2k + 2 pants in a row, joined alternately by one circle and by
    two, with two d = 2 circles on each end pants.

    The essential paths run from end to end: 2**k of them are shortest,
    of length 2k + 1, one for each choice of circle at each double join.
    """
    circles = [Circle(d=2)] * 2
    slots = [[0, 1]]
    for i in range(2 * k + 1):
        joins = list(range(len(circles), len(circles) + 1 + i % 2))
        circles += [Circle()] * len(joins)
        slots[-1] += joins
        slots.append(list(joins))
    slots[-1] += [len(circles), len(circles) + 1]
    circles += [Circle(d=2)] * 2
    return PantsComplex(
        pants=tuple(Pants(slots=tuple(s)) for s in slots), circles=tuple(circles)
    )


@functools.cache
def grown(threshold):
    """grow_until(build_xp(1, 3), threshold), grown once per module."""
    return grow_until(build_xp(1, 3), threshold)


def random_complex(rng):
    """Pants whose slots name any circle id, some of them missing."""
    n_circles = rng.randrange(1, 9)
    pants = tuple(
        Pants(slots=tuple(rng.randrange(-2, n_circles + 2) for _ in range(3)))
        for _ in range(rng.randrange(1, 13))
    )
    circles = tuple(Circle(d=rng.randrange(1, 4)) for _ in range(n_circles))
    return PantsComplex(pants=pants, circles=circles)


class TestBuildXp:
    def test_shape_genus_one(self):
        x = build_xp(1, 3)
        assert len(x.pants) == 4
        assert len(x.circles) == 7
        assert validate(x) == []
        assert x.singular_circles() == [0, 1]
        assert x.circles[0].d == 3 and x.circles[1].d == 3

    def test_graph_genus_one(self):
        g = graph_of(build_xp(1, 3))
        assert g.n_vertices == 4
        assert len(g.edges) == 5
        assert g.marked == {0, 3}
        degree = [0] * 4
        for _, a, b in g.edges:
            degree[a] += 1
            degree[b] += 1
        assert degree[0] == 2 and degree[3] == 2
        assert degree[1] == 3 and degree[2] == 3

    def test_complexity_genus_one(self):
        assert complexity(graph_of(build_xp(1, 3))) == (2, -2)

    @pytest.mark.parametrize("genus", [1, 2, 3])
    @pytest.mark.parametrize("p", [2, 5])
    def test_general_shape(self, genus, p):
        x = build_xp(genus, p)
        assert len(x.pants) == 4 * genus
        assert validate(x) == []
        g = graph_of(x)
        assert len(g.marked) == 2
        degree = [0] * g.n_vertices
        for _, a, b in g.edges:
            degree[a] += 1
            degree[b] += 1
        for v in range(g.n_vertices):
            assert degree[v] == (2 if v in g.marked else 3)

    def test_regular_circles_have_balanced_orientations(self):
        x = build_xp(2, 3)
        for c in x.regular_circles():
            signs = [
                x.pants[pi].orientations[si] for pi, si in x.attachments_of(c)
            ]
            assert sorted(signs) == [-1, 1]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_xp(0, 3)
        with pytest.raises(ValueError):
            build_xp(1, 1)


class TestValidate:
    def test_missing_circle(self):
        x = PantsComplex(
            pants=(Pants(slots=(0, 1, 5)),),
            circles=(Circle(d=2), Circle(d=2), Circle(d=2)),
        )
        assert any("missing circle" in s for s in validate(x))

    def test_unattached_circle(self):
        x = PantsComplex(
            pants=(Pants(slots=(0, 0, 0)),),
            circles=(Circle(d=2), Circle()),
        )
        assert any("no attachment" in s for s in validate(x))

    def test_low_degree_sum(self):
        x = PantsComplex(
            pants=(Pants(slots=(0, 1, 2)),),
            circles=(Circle(d=2), Circle(d=2), Circle(d=1)),
        )
        assert any("D = 1 < 2" in s for s in validate(x))

    def test_bad_orientation(self):
        x = PantsComplex(
            pants=(Pants(slots=(0, 0, 0), orientations=(1, 0, 1)),),
            circles=(Circle(d=2),),
        )
        assert any("orientation" in s for s in validate(x))

    def test_no_pants(self):
        assert validate(PantsComplex(pants=(), circles=())) == ["complex has no pants"]

    def test_disconnected(self):
        x = PantsComplex(
            pants=(Pants(slots=(0, 1, 1)), Pants(slots=(2, 3, 3))),
            circles=(Circle(d=2), Circle(), Circle(d=2), Circle()),
        )
        assert validate(x) == ["complex is not connected"]
        with pytest.raises(ValueError, match="^invalid complex: complex is not connected$"):
            graph_of(x)

    def test_joined_across_a_singular_circle(self):
        x = PantsComplex(
            pants=(Pants(slots=(0, 1, 1)), Pants(slots=(0, 2, 2))),
            circles=(Circle(d=2), Circle(), Circle()),
        )
        assert validate(x) == []

    def test_k_coprime_to_d(self):
        def with_k(k, d=6):
            return PantsComplex(pants=(Pants(slots=(0, 0, 0)),), circles=(Circle(d=d, k=k),))

        for k in (1, 5, 7, -1, -5):
            assert validate(with_k(k)) == []
        for k in (0, 2, 3, 4, 6, -2):
            assert validate(with_k(k)) == [f"circle 0 has k = {k} not coprime to d = 6"]
        # k is ignored when d = 1
        assert validate(with_k(0, d=1)) == []


class TestIncidence:
    def test_attachments_match_direct_scan(self):
        rng = random.Random(7)
        for _ in range(300):
            x = random_complex(rng)
            for c in range(-3, len(x.circles) + 3):
                want = [
                    (pi, si)
                    for pi, p in enumerate(x.pants)
                    for si, slot in enumerate(p.slots)
                    if slot == c
                ]
                assert x.attachments_of(c) == want
                if 0 <= c < len(x.circles):
                    assert x.degree_sum(c) == x.circles[c].d * len(want)
                    assert x.is_regular(c) == (x.circles[c].d == 1 and len(want) == 2)


class TestSerialization:
    def test_round_trip(self):
        x = build_xp(2, 5)
        assert PantsComplex.from_json(x.to_json()) == x

    def test_byte_stable(self):
        x = build_xp(1, 3)
        text = x.to_json()
        assert PantsComplex.from_json(text).to_json() == text

    def test_version_check(self):
        with pytest.raises(ValueError):
            PantsComplex.from_json('{"version": 2}')


class TestComplexity:
    def test_self_loop(self):
        g = PantsGraph(n_vertices=1, edges=((0, 0, 0),), marked=frozenset({0}))
        assert complexity(g) == (1, -1)

    def test_two_marked_path(self):
        g = PantsGraph(
            n_vertices=3,
            edges=((0, 0, 1), (1, 1, 2)),
            marked=frozenset({0, 2}),
        )
        assert complexity(g) == (2, -1)

    def test_parallel_edges(self):
        g = PantsGraph(
            n_vertices=2, edges=((0, 0, 1), (1, 0, 1)), marked=frozenset({0})
        )
        # around the bigon and back: one essential loop of length 2
        assert complexity(g) == (2, -1)

    def test_no_marked_vertices(self):
        g = PantsGraph(n_vertices=2, edges=((0, 0, 1),), marked=frozenset())
        with pytest.raises(NoEssentialPathError):
            complexity(g)

    def test_marked_tree_has_no_essential_path(self):
        g = PantsGraph(n_vertices=2, edges=((0, 0, 1),), marked=frozenset({0}))
        with pytest.raises(NoEssentialPathError):
            complexity(g)

    def test_matches_brute_force(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(300):
            g = random_graph(rng)
            want = brute_force_complexity(g) if g.marked else None
            if want is None:
                with pytest.raises(NoEssentialPathError):
                    complexity(g)
            else:
                assert complexity(g) == want
                checked += 1
        assert checked > 100

    def test_middle_dart_counts_match_brute_force(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(300):
            g = random_graph(rng)
            want = brute_force_counts(g)
            if want is None:
                with pytest.raises(NoEssentialPathError):
                    _middle_dart_counts(g)
                continue
            assert g._walks == want
            checked += 1
        assert checked > 100


class TestWalkKernel:
    @staticmethod
    def assert_levels_match_scatter(g, n_layers):
        """Each seed's search levels against the Python-int scatter
        oracle: level t holds the darts that layer t reaches first, with
        the layer's counts, and dist maps each of them to t."""
        if not g.marked:
            return
        tail, marked = dart_arrays(g)
        _, mask, out, succ = _dart_lists(g)
        seeds = np.flatnonzero(marked[tail])
        layers = scatter_walk_layers(tail, tail[np.arange(len(tail)) ^ 1], marked, object, g.n_vertices)
        search = _Search(mask, out, succ)
        assert search.seeds == seeds.tolist()
        reached = np.zeros((len(seeds), len(tail)), dtype=bool)
        for t, layer in enumerate(islice(layers, n_layers), 1):
            for i in range(len(seeds)):
                first = np.flatnonzero((layer[i] != 0) & ~reached[i])
                assert search.level(i, t) == {int(d): layer[i][d] for d in first}
                reached[i, first] = True
        for dist, levels in zip(search.dist, search.levels):
            assert dist == {d: t for t, level in enumerate(levels, 1) for d in level}

    def test_matches_scatter_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(300):
            g = random_graph(rng)
            self.assert_levels_match_scatter(g, 2 * (g.n_vertices + len(g.edges)) + 1)

    def test_matches_scatter_on_grown_graph(self):
        # the levels a count reads, and as many again
        g = graph_of(grown(64))
        l, _ = complexity(g)
        self.assert_levels_match_scatter(g, l + 2)

    # graphs too large for brute force
    @pytest.mark.parametrize(
        "genus, p, threshold", [(1, 3, 64), (1, 3, 128), (2, 5, 24), (3, 7, 40), (1, 2, 100)]
    )
    def test_counts_match_the_scatter_oracle(self, genus, p, threshold):
        g = graph_of(grow_until(build_xp(genus, p), threshold))
        exact = exact_walks(g)
        assert search(g) == exact
        # the walk grow_until handed to the frozen complex's graph
        assert g._walks == exact

    def test_counts_stay_exact_past_2_53_at_l128(self):
        # the layered counts pass 2**53 before the level a count reads
        # (about 2**119 at the start's own reversed seed); the search
        # counts only the walks that reach a dart first, and its counts
        # are the exact ones of the test above
        g = graph_of(grown(128))
        tail, marked = dart_arrays(g)
        l, k, counts = _middle_dart_counts(g)
        layers = scatter_walk_layers(tail, tail[np.arange(len(tail)) ^ 1], marked, object, g.n_vertices)
        assert max(layer.max() for layer in islice(layers, l)) > 2**53
        assert max(counts) < 2**53

    def test_bouquet_counts_stay_exact(self):
        # marked 0 joins a bouquet of six loops at 1 and a path of m edges
        # to marked m + 1: walks into the bouquet number about 11**t, but
        # the search reaches each bouquet dart once, and only the walk out
        # along the path and the walk back are shortest
        m = 700
        loops = [(0, 0, 1)] + [(e, 1, 1) for e in range(1, 7)]
        stops = [0, *range(2, m + 2)]
        path = [(7 + i, a, b) for i, (a, b) in enumerate(zip(stops, stops[1:]))]
        g = PantsGraph(n_vertices=m + 2, edges=tuple(loops + path), marked=frozenset({0, m + 1}))
        search = _Search(*_dart_lists(g)[1:])
        assert search.seeds == [0, 14, 2 * (7 + m - 1) + 1]
        for i in range(3):
            # the whole search, to its first empty level
            t = 1
            while level := search.level(i, t):
                assert max(level.values()) < 2**6
                t += 1
        l, k, counts = _middle_dart_counts(g)
        assert complexity(g) == (m, -1)
        crossed = [d for d, c in enumerate(counts) if c]
        assert crossed == sorted([2 * (7 + k - 1), 2 * (7 + m - k) + 1])
        assert [counts[d] for d in crossed] == [1, 1]

    @settings(max_examples=200, deadline=None)
    @given(connected_complexes())
    def test_matches_brute_force_on_complexes(self, x):
        g = graph_of(x)
        assert search(g) == brute_force_counts(g)


def counted_walks():
    """Patch _Search.walks to count its calls, each one walk of a graph."""
    return mock.patch.object(_Search, "walks", autospec=True, side_effect=_Search.walks)


class TestChainCounts:
    @pytest.mark.parametrize("k", [40, 51, 52, 62, 63])
    def test_exact_complexity(self, k):
        # 2**(k + 1) ordered walks, past 2**53 from k = 52 on: one search
        # counts them in Python integers
        with counted_walks() as walk:
            g = graph_of(chain_complex(k))
            assert complexity(g) == (2 * k + 1, -(2**k))
        assert walk.call_count == 1
        l, _, counts = _middle_dart_counts(g)
        assert sum(counts) == 2 ** (k + 1)

    def test_small_chains_match_brute_force(self):
        for k in range(4):
            g = graph_of(chain_complex(k))
            assert complexity(g) == brute_force_complexity(g) == (2 * k + 1, -(2**k))


class TestOneWalk:
    def test_graph_is_cached(self):
        x = build_xp(1, 3)
        assert graph_of(x) is graph_of(x)

    def test_grow_walks_each_graph_once(self):
        with counted_walks() as walk:
            x = grow_until(build_xp(1, 3), 64)
            complexity(graph_of(x))
        # 95 surgeries of 4 pants each: 96 graphs, one walk each; the
        # frozen result's graph takes the last one
        assert len(x.pants) == 384
        assert walk.call_count == 96

    def test_surger_reuses_the_counts(self):
        x = build_xp(1, 3)
        _middle_dart_counts(graph_of(x))
        with counted_walks() as walk:
            surger(x, 2, make_donor())
        assert walk.call_count == 0


def most_walked(walks):
    """The edge grow_until cuts: that of the first most-walked dart."""
    counts = walks[3]
    return counts.index(max(counts)) // 2


def loop_complex():
    """One marked pants with a loop, the shortest essential path."""
    return PantsComplex(
        pants=(Pants(slots=(0, 1, 1), orientations=(1, 1, -1)),),
        circles=(Circle(d=3), Circle()),
    )


def singular_donor():
    """make_donor with d = 2 on its handle circle 5, so every surgery adds
    a marked pants and with it new seeds."""
    donor = make_donor()
    return PantsComplex(pants=donor.pants, circles=donor.circles[:5] + (Circle(d=2),))


class Reads(list):
    """A successor table that counts its reads: a search reads succ[d]
    once for each dart d it visits."""

    reads = 0

    def __getitem__(self, d):
        self.reads += 1
        return super().__getitem__(d)


class TestGrowthState:
    @staticmethod
    def walk_and_compare(growth):
        """The state's walks, after checking the state against its frozen
        complex validated, graphed and walked from scratch."""
        walks = growth.walks()
        x = growth.freeze()
        assert validate(x) == []
        g = graph_of(x)
        assert growth.circle_ids == [c for c, _, _ in g.edges]
        tail, mask, out, succ = _dart_lists(g)
        assert growth.tail == tail
        assert growth.mask == mask
        assert growth.out == out
        assert growth.succ == succ
        assert walks == _Search(mask, out, succ).walks()
        return walks

    def test_every_step_to_l64_matches_the_rebuilt_complex(self):
        growth = _Growth(build_xp(1, 3), make_donor())
        surgeries = 0
        while (walks := self.walk_and_compare(growth))[0] <= 64:
            growth.surger(most_walked(walks))
            surgeries += 1
        assert surgeries == 95
        assert growth.freeze().to_json() == grown(64).to_json()

    def test_cut_loop_reroutes_its_later_slot(self):
        growth = _Growth(loop_complex(), make_donor())
        walks = self.walk_and_compare(growth)
        assert walks[:2] == (1, 2) and growth.circle_ids == [1]
        assert growth.tail == [0, 0]
        growth.surger(0)
        assert growth.pants[0].slots == (0, 1, 2)
        while (walks := self.walk_and_compare(growth))[0] <= 12:
            growth.surger(most_walked(walks))

    def test_singular_donor_circle_marks_its_pants(self):
        growth = _Growth(build_xp(1, 3), singular_donor())
        for _ in range(12):
            walks = self.walk_and_compare(growth)
            growth.surger(most_walked(walks))
        self.walk_and_compare(growth)
        assert sum(growth.mask) == 2 + 12


    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(g, p) for g in (1, 2) for p in (2, 3, 5, 7)] + ["loop"]),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_resumed_search_matches_a_fresh_one(self, start, singular, rng):
        # random admissible cuts, as criterion 7 makes them, each followed
        # by a comparison with a fresh search of the rebuilt complex; the
        # singular donor changes the seeds at every step, and the loop
        # start cuts a loop at its marked pants
        x = loop_complex() if start == "loop" else build_xp(*start)
        growth = _Growth(x, singular_donor() if singular else make_donor())
        for _ in range(24):
            walks = self.walk_and_compare(growth)
            if walks[0] > 16:
                break
            admissible = [d for d, c in enumerate(walks[3]) if c]
            growth.surger(rng.choice(admissible) // 2)

    def test_resumed_search_visits_few_darts(self):
        # a return to one whole-graph search per step visits 20 times as
        # many darts as the resumed search
        growth = _Growth(build_xp(1, 3), make_donor())
        growth.succ = Reads(growth.succ)
        fresh = 0
        while True:
            search = _Search(growth.mask, growth.out, Reads(growth.succ))
            assert search.walks() == (walks := growth.walks())
            fresh += search.succ.reads
            if walks[0] > 256:
                break
            growth.surger(most_walked(walks))
        assert len(growth.pants) == 1536
        assert fresh > 800_000
        assert growth.succ.reads < 0.05 * fresh


class TestSurger:
    def test_middle_edge_increases_complexity(self):
        x = build_xp(1, 3)
        before = complexity(graph_of(x))
        y = surger(x, 2, make_donor())
        assert validate(y) == []
        assert complexity(graph_of(y)) > before

    def test_rejects_off_path_edge(self):
        # circle 4 is the single edge between the two middle pants; no
        # shortest essential path (the end bigons) passes through it
        with pytest.raises(NotOnShortestPathError):
            surger(build_xp(1, 3), 4, make_donor())

    def test_rejects_singular_circle(self):
        with pytest.raises(NotOnShortestPathError):
            surger(build_xp(1, 3), 0, make_donor())

    @pytest.mark.parametrize("edge", [99, -1])
    def test_rejects_missing_circle(self, edge):
        with pytest.raises(NotOnShortestPathError, match=f"circle {edge} is not in"):
            surger(build_xp(1, 3), edge, make_donor())

    def test_separating_donor_circle(self):
        donor = PantsComplex(
            pants=(
                Pants(slots=(0, 1, 1)),
                Pants(slots=(0, 2, 2), orientations=(-1, 1, -1)),
            ),
            circles=(Circle(), Circle(), Circle()),
        )
        with pytest.raises(DisconnectedResultError):
            surger(build_xp(1, 3), 2, donor)

    def test_preserves_singular_circles(self):
        x = build_xp(1, 3)
        y = surger(x, 2, make_donor())
        assert y.singular_circles() == [0, 1]
        assert y.circles[0].d == 3


class TestGrowUntil:
    def test_reaches_threshold(self):
        x = grow_until(build_xp(1, 3), 6)
        assert validate(x) == []
        l, _ = complexity(graph_of(x))
        assert l > 6

    def test_complexity_strictly_increases(self):
        x = build_xp(1, 3)
        seen = [complexity(graph_of(x))]
        while seen[-1][0] <= 5:
            g = graph_of(x)
            walk = shortest_essential_walk(g)
            l = seen[-1][0]
            k = (l + 2) // 2
            edge = g.edges[walk[k - 1] // 2][0]
            x = surger(x, edge, make_donor())
            c = complexity(graph_of(x))
            assert c > seen[-1]
            seen.append(c)
        assert len(seen) > 2

    def test_stalled_growth_raises(self, monkeypatch):
        # a surgery that changes nothing would otherwise loop for ever
        monkeypatch.setattr(_Growth, "surger", lambda self, e: None)
        t0 = time.perf_counter()
        with pytest.raises(ArithmeticError, match="did not rise"):
            grow_until(build_xp(1, 3), 16)
        assert time.perf_counter() - t0 < 1.0

    def test_growth_is_byte_identical(self):
        # the complex the benchmark grows at L=16 (96 pants); a change in
        # which edge is cut first changes this digest
        x = grow_until(build_xp(1, 3), 16)
        assert len(x.pants) == 96
        digest = hashlib.sha256((x.to_json() + "\n").encode()).hexdigest()
        assert digest == "312a578a28c91f6b6adca7512ee16817bb1b36f30e790d3dd949d0f82fd81802"

    def test_growth_to_128_is_byte_identical(self):
        x = grown(128)
        assert len(x.pants) == 768
        assert complexity(graph_of(x)) == (129, -1)
        digest = hashlib.sha256((x.to_json() + "\n").encode()).hexdigest()
        assert digest == "3818abe837636f194553d8677d45539f4f9d376bc0508ea28a7050b5600668a2"

    def test_one_connectivity_search_per_surgery(self):
        # validate searches the start complex, the donor and the result
        # once each, when graph_of builds their graphs; the surgeries edit
        # a working state and search nothing
        for threshold, surgeries in ((16, 23), (64, 95)):
            with mock.patch.object(
                complexes, "_connected", wraps=complexes._connected
            ) as search:
                x = grow_until(build_xp(1, 3), threshold)
                complexity(graph_of(x))
            assert (len(x.pants) - 4) // 4 == surgeries
            assert search.call_count == 3

    def test_refuses_invalid_start(self):
        missing = PantsComplex(pants=(Pants(slots=(0, 1, 7)),), circles=(Circle(), Circle()))
        with pytest.raises(ValueError, match="^invalid complex: .* missing circle 7$"):
            grow_until(missing, 16)
        # X_3 beside a closed donor surface whose circles are renumbered
        x, donor = build_xp(1, 3), make_donor()
        shift = len(x.circles)
        apart = PantsComplex(
            pants=x.pants
            + tuple(
                Pants(slots=tuple(c + shift for c in q.slots), orientations=q.orientations)
                for q in donor.pants
            ),
            circles=x.circles + donor.circles,
        )
        with pytest.raises(ValueError, match="^invalid complex: complex is not connected$"):
            grow_until(apart, 16)

    def test_refuses_invalid_donor(self):
        donor = make_donor()
        # the last handle pants names circle 9, which the donor lacks
        broken = PantsComplex(
            pants=donor.pants[:3] + (Pants(slots=(4, 5, 9), orientations=(-1, 1, -1)),),
            circles=donor.circles,
        )
        with pytest.raises(ValueError, match="^invalid complex: .* missing circle 9$"):
            surger(build_xp(1, 3), 2, broken)
        with mock.patch.object(complexes, "make_donor", return_value=broken):
            with pytest.raises(ValueError, match="^invalid complex: .* missing circle 9$"):
                grow_until(build_xp(1, 3), 16)

    def test_deterministic(self):
        a = grow_until(build_xp(1, 3), 5)
        b = grow_until(build_xp(1, 3), 5)
        assert a.to_json() == b.to_json()
