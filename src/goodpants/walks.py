"""Walk counts on the darts of a pants graph, in plain Python.

The walking half of ``complexes``: the dart lists of a graph and their
non-backtracking successor table, the per-seed breadth-first search
that finds the shortest essential length with its middle-dart counts,
and the growth state that surgery edits in place, search included: a
surgery makes the next walk redo only the levels it can reach.  Every
count is a Python int, so every count is exact.  ``complexes`` imports
this module only where it walks a graph or grows a complex.  It is not
folded into ``complexes`` because verify, homology and lemma
angle-change read a complex but never walk one: a ``verify --words 5
--samples 2000`` child that also imports this module peaks 0.06 to 0.11
MB higher (medians of 8 and of 12 alternating pairs).
"""

from __future__ import annotations

import bisect

from .complexes import (
    Circle,
    DisconnectedResultError,
    NoEssentialPathError,
    Pants,
    PantsComplex,
    PantsGraph,
    _separates,
    graph_of,
)


def _dart_lists(g: PantsGraph):
    """(tail, mask, out, succ) of a graph, as lists.

    Darts 2e and 2e+1 are the two directions of edge e, so the head of
    dart d is tail[d ^ 1].  mask[v] says whether v is marked, out[v]
    lists the darts leaving v in dart order, and succ[d] the darts a walk
    may take just after d (see _set_successors).
    """
    tail = [v for _, a, b in g.edges for v in (a, b)]
    mask = [False] * g.n_vertices
    for v in g.marked:
        mask[v] = True
    out = [[] for _ in range(g.n_vertices)]
    for d, v in enumerate(tail):
        out[v].append(d)
    succ = [None] * len(tail)
    for v in range(g.n_vertices):
        _set_successors(succ, out, mask, v)
    return tail, mask, out, succ


def _set_successors(succ, out, mask, v):
    """Set succ[d] for every dart d into v (d ^ 1 leaves v): the darts a
    walk may take just after d are those leaving v other than d ^ 1, or
    none when v is marked (a walk may only continue past an unmarked
    vertex)."""
    leaving = out[v]
    for o in leaving:
        succ[o ^ 1] = [] if mask[v] else [p for p in leaving if p != o]


class _Search:
    """The breadth-first search from each seed dart, kept between walks.

    The seeds are the darts leaving marked vertices.  levels[i][t - 1]
    maps each dart first reached by walks of t darts from seed i (walks
    that never reverse a dart and pass only unmarked vertices in between)
    to the number of those walks, and dist[i] maps it to t.  Each such
    walk comes through a dart first reached at level t - 1, so each level
    sums the previous one (shortest-path counting, as in Brandes 2001).
    A level depends only on the levels before it and on their darts'
    successors, so when some darts' successors change, cut keeps each
    seed's levels up to the first that holds one of them, and the next
    walk extends them (incremental search, as in Ramalingam-Reps 1996).
    """

    def __init__(self, mask, out, succ):
        if not any(mask):
            raise NoEssentialPathError("no marked vertices")
        self.succ = succ
        self.seeds = sorted(d for v, marked in enumerate(mask) if marked for d in out[v])
        self.levels = [[{seed: 1}] for seed in self.seeds]
        self.dist = [{seed: 1} for seed in self.seeds]
        self.apart = 0  # no two seeds meet at levels 1 .. apart

    def level(self, i: int, t: int) -> dict[int, int]:
        """Seed i's level t, searched from its last kept level on."""
        levels, dist = self.levels[i], self.dist[i]
        while len(levels) < t:
            nxt = {}
            for d, count in levels[-1].items():
                for e in self.succ[d]:
                    if e not in dist:
                        nxt[e] = nxt.get(e, 0) + count
            levels.append(nxt)
            dist.update(dict.fromkeys(nxt, len(levels)))
        return levels[t - 1]

    def cut(self, darts) -> None:
        """Forget the levels after the first that holds one of darts."""
        for levels, dist in zip(self.levels, self.dist):
            keep = min((dist[d] for d in darts if d in dist), default=len(levels))
            for level in levels[keep:]:
                for d in level:
                    del dist[d]
            del levels[keep:]
            self.apart = min(self.apart, keep)

    def walks(self) -> tuple[int, int, int, list[int]]:
        """(l, n, k, counts): the shortest essential walks, by middle dart.

        An essential walk is non-backtracking, its interior vertices are
        unmarked, and when closed it is also cyclically reduced (its last
        dart is not the reverse of its first): a closed walk failing that
        is an out-and-back excursion, homotopic to a loop missing the
        marked vertex, so not a path between marked vertices.

        An essential walk starts with a seed i and ends with the reverse
        of another seed j, so, cut at its dart d, it is a walk from seed
        i to d glued to the reverse of a walk from seed j to d ^ 1.  l is
        the least dist_i(d) + dist_j(d ^ 1) - 1 over darts d and seeds
        i != j.  Every walk of length at most 2t - 1 has a dart within t
        of both ends, so it is met by level t; a pair of seeds that first
        meets at level t has a walk of length at most 2t - 1, so the
        first level at which any pair meets gives l.

        n is the number of ordered essential walks of length l (a walk
        and its reverse are both counted; no such walk is its own
        reverse), k = ceil((l + 1)/2), and counts[d] the number of them
        whose k-th dart is d.  Such a walk reaches d first at level k
        from seed i and d ^ 1 first at level l - k + 1 from seed j, or a
        shorter one would exist, so counts[d] = sum over i of the level-k
        count of d from i times the sum over j != i of the
        level-(l - k + 1) count of d ^ 1 from j.
        """
        while True:
            t = self.apart + 1
            fronts = [self.level(i, t) for i in range(len(self.seeds))]
            # seed i reached d at this level, and seed j had reached d ^ 1
            meets = []
            for i, front in enumerate(fronts):
                flipped = [d ^ 1 for d in front]
                for j, dist in enumerate(self.dist):
                    if j != i and not dist.keys().isdisjoint(flipped):
                        meets += [t + s - 1 for d in flipped if (s := dist.get(d, t + 1)) <= t]
            if meets:
                break
            if not any(fronts):
                raise NoEssentialPathError("no essential marked path")
            self.apart = t
        l = min(meets)
        k = (l + 1 + 1) // 2  # ceil((l + 1)/2), 1-based position
        fwd = [levels[k - 1] for levels in self.levels]
        back = [levels[l - k] for levels in self.levels]
        counts = [0] * len(self.succ)
        for i, ends in enumerate(fwd):
            for d, count in ends.items():
                others = sum(b.get(d ^ 1, 0) for j, b in enumerate(back) if j != i)
                counts[d] += count * others
        return l, sum(counts), k, counts


class _Growth:
    """A complex under surgery, edited in place and frozen at the end.

    It keeps what the walk needs, as lists: the pants and circles, the
    regular circles' ids in edge order, the darts' tails (dart d's head
    is the tail of d ^ 1), the marked mask, the darts leaving each
    vertex, the successor table and the search.  One surgery changes
    only the pants and circles it touches, so it edits those entries and
    cuts the search (afresh when the seeds change) instead of rebuilding,
    re-validating and re-searching the whole complex.  The start complex
    and the donor pass validate (through graph_of), and the donor is read
    once into a template that each surgery shifts by the ids in use;
    cutting a regular edge of a connected complex and pasting in a donor
    that circle 0 does not cut apart keeps it valid and connected, which
    graph_of checks again when the frozen result is first used.
    """

    def __init__(self, x: PantsComplex, donor: PantsComplex):
        g = graph_of(x)
        h = graph_of(donor)
        # the edges are in circle-id order
        if not (h.edges and h.edges[0][0] == 0):
            raise ValueError("donor circle 0 must be regular")
        if _separates(donor, 0):
            raise DisconnectedResultError("donor circle separates the donor")
        # circle 0's first attachment, the one that keeps the cut circle
        self.da = h.edges[0][1]
        self.da_slot = donor.pants[self.da].slots.index(0)
        self.donor_pants = donor.pants
        self.donor_circles = (Circle(), *donor.circles[1:])
        self.donor_ids = [j for j, _, _ in h.edges]
        self.donor_tail, self.donor_mask, _, _ = _dart_lists(h)
        self.pants = list(x.pants)
        self.circles = list(x.circles)
        self.circle_ids = [c for c, _, _ in g.edges]
        self.tail, self.mask, self.out, self.succ = _dart_lists(g)
        self.search = None

    def walks(self) -> tuple[int, int, int, list[int]]:
        """The search's walks of the current graph, resumed from the last."""
        if self.search is None:
            self.search = _Search(self.mask, self.out, self.succ)
        return self.search.walks()

    def surger(self, e: int) -> None:
        """Cut the regular circle of edge e and paste the donor in."""
        edge = self.circle_ids[e]
        xb = self.tail[2 * e + 1]
        # the successors change only of the darts into xb (dart 2e among
        # them) and the donor's, which no level holds; the seeds change
        # when xb or a donor pants is marked
        if self.mask[xb] or any(self.donor_mask):
            self.search = None
        elif self.search:
            self.search.cut([o ^ 1 for o in self.out[xb]])
        # xb's attachment is the later one when the edge is a loop
        xb_slot = 2 - self.pants[xb].slots[::-1].index(edge)
        n_pants, n_circles, n_darts = len(self.pants), len(self.circles), len(self.tail)
        # donor pants q becomes n_pants + q and donor circle j becomes
        # n_circles + j; x's first side keeps circle `edge` and joins the
        # donor's first side, and x's second side and the donor's second
        # side share the fresh circle n_circles, donor circle 0's place
        slots = list(self.pants[xb].slots)
        slots[xb_slot] = n_circles
        self.pants[xb] = Pants(slots=tuple(slots), orientations=self.pants[xb].orientations)
        for qi, q in enumerate(self.donor_pants):
            slots = tuple(
                edge if (qi, si) == (self.da, self.da_slot) else n_circles + c
                for si, c in enumerate(q.slots)
            )
            self.pants.append(Pants(slots=slots, orientations=q.orientations))
        self.circles += self.donor_circles

        # the cut circle's edge moves its second end in place, from xb to
        # pa = n_pants + da: dart 2e + 1 now leaves pa; the donor's edges
        # follow in circle-id order, the fresh circle's from xb, not pa
        new_tail = [v + n_pants for v in self.donor_tail]
        self.tail[2 * e + 1], new_tail[0] = new_tail[0], xb
        self.tail += new_tail
        self.circle_ids += [n_circles + j for j in self.donor_ids]
        self.mask += self.donor_mask
        self.out[xb].remove(2 * e + 1)
        self.out += [[] for _ in self.donor_pants]
        for d in range(n_darts, len(self.tail)):
            self.out[self.tail[d]].append(d)
        bisect.insort(self.out[self.tail[2 * e + 1]], 2 * e + 1)

        # succ[d] changes only when the darts leaving d's head change:
        # those are the darts into xb and the donor's pants (the edge's
        # first end keeps dart 2e)
        self.succ += [None] * len(new_tail)
        for v in (xb, *range(n_pants, len(self.pants))):
            _set_successors(self.succ, self.out, self.mask, v)

    def freeze(self) -> PantsComplex:
        return PantsComplex(pants=tuple(self.pants), circles=tuple(self.circles))
