"""Combinatorial 2-complexes built from pants and circles.

A complex is a set of three-holed-sphere records whose boundary slots
are attached to circles; each circle carries a rotation degree d >= 1.
Circles with exactly two attachments and degree 1 are regular (the
complex looks like a surface there); everything else is singular.  The
graph of the complex has the pants as vertices and the regular circles
as edges, and its complexity is (shortest essential path length, minus
the number of such paths), measured between the singular-adjacent
(marked) vertices.  The walks that count those paths are a per-seed
breadth-first search in plain Python, in ``walks``; this module imports
it only where it walks a graph or grows a complex.  No part of reading,
checking, walking or growing a complex loads numpy.
"""

from __future__ import annotations

import bisect
import json
import math
from functools import cached_property
from typing import NamedTuple


class NoEssentialPathError(ValueError):
    """Raised when a graph has no essential path between marked vertices."""


class NotOnShortestPathError(ValueError):
    """Raised when a surgery edge is not mid-position on a shortest path."""


class DisconnectedResultError(ValueError):
    """Raised when cut-and-paste surgery would disconnect the complex."""


class Circle(NamedTuple):
    """A circle of the complex with its rotation degree.

    k is the rotation numerator; validate refuses a circle with d > 1
    and k not coprime to d.  holonomy.build_rho reads it on every
    singular circle, d = 1 included; JSON omits it where d = 1, so it
    reads back as 1 there.
    """

    d: int = 1
    k: int = 1


class Pants(NamedTuple):
    """Three boundary slots, each attached to a circle with a sign."""

    slots: tuple[int, int, int]
    orientations: tuple[int, int, int] = (1, 1, 1)


class _PantsComplex(NamedTuple):
    pants: tuple[Pants, ...]
    circles: tuple[Circle, ...]


class PantsComplex(_PantsComplex):
    """Pants glued along circles: the complex every command reads.

    A NamedTuple with an instance dict (no __slots__): its cached tables
    (_incidence, _graph) live in that dict, and the fields stay read-only.
    """

    @cached_property
    def _incidence(self) -> dict[int, list[tuple[int, int]]]:
        """The (pants, slot) attachments of every slot id, in one pass.

        Keyed by the ids the slots name, so ids of missing circles are
        kept too; the complex is immutable, so this is built once.
        """
        table: dict[int, list[tuple[int, int]]] = {}
        for pi, p in enumerate(self.pants):
            for si, c in enumerate(p.slots):
                table.setdefault(c, []).append((pi, si))
        return table

    @cached_property
    def _graph(self) -> "PantsGraph":
        """The pants graph, built once per (immutable) complex."""
        bad = validate(self)
        if bad:
            raise ValueError(f"invalid complex: {bad[0]}")
        edges = []
        marked = set()
        for ci, circle in enumerate(self.circles):
            atts = self._incidence.get(ci, ())
            if circle.d == 1 and len(atts) == 2:
                (pa, _), (pb, _) = atts
                edges.append((ci, pa, pb))
            else:
                for pi, _ in atts:
                    marked.add(pi)
        return PantsGraph(
            n_vertices=len(self.pants), edges=tuple(edges), marked=frozenset(marked)
        )

    def attachments_of(self, circle: int) -> list[tuple[int, int]]:
        return list(self._incidence.get(circle, ()))

    def degree_sum(self, circle: int) -> int:
        """D_C = d_C times the number of attachments."""
        return self.circles[circle].d * len(self._incidence.get(circle, ()))

    def is_regular(self, circle: int) -> bool:
        return self.degree_sum(circle) == 2 and self.circles[circle].d == 1

    def regular_circles(self) -> list[int]:
        return [c for c in range(len(self.circles)) if self.is_regular(c)]

    def singular_circles(self) -> list[int]:
        return [c for c in range(len(self.circles)) if not self.is_regular(c)]

    def to_json(self) -> str:
        doc = {
            "version": 1,
            "pants": [{"slots": list(p.slots)} for p in self.pants],
            "circles": [
                {"id": i, "d": c.d, **({"k": c.k} if c.d > 1 else {})}
                for i, c in enumerate(self.circles)
            ],
            "orientations": [list(p.orientations) for p in self.pants],
            "markings": self.singular_circles(),
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "PantsComplex":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("a complex document must be a JSON object")
        if doc.get("version") != 1:
            raise ValueError(f"unsupported document version {doc.get('version')}")
        records = sorted(doc["circles"], key=lambda c: _integer(c["id"], "circle id"))
        if [c["id"] for c in records] != list(range(len(records))):
            raise ValueError(f"circle ids must be exactly 0..{len(records) - 1}")
        circles = tuple(
            Circle(d=_integer(c["d"], "d"), k=_integer(c.get("k", 1), "k"))
            for c in records
        )
        if len(doc["orientations"]) != len(doc["pants"]):
            raise ValueError(
                f"{len(doc['orientations'])} orientation records"
                f" for {len(doc['pants'])} pants"
            )
        pants = tuple(
            Pants(
                slots=tuple(_integer(v, "slot") for v in p["slots"]),
                orientations=tuple(_integer(v, "orientation") for v in o),
            )
            for p, o in zip(doc["pants"], doc["orientations"])
        )
        return cls(pants=pants, circles=circles)


def _integer(value, what: str) -> int:
    """A JSON integer; bools and floats are refused."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def validate(x: PantsComplex) -> list[str]:
    """All violations of the complex, empty iff valid.

    A valid complex is connected, across singular or regular circles.
    """
    issues = [] if x.pants else ["complex has no pants"]
    n_circles = len(x.circles)
    for pi, p in enumerate(x.pants):
        if len(p.slots) != 3:
            issues.append(f"pants {pi} has {len(p.slots)} slots")
            continue
        for si, c in enumerate(p.slots):
            if not (0 <= c < n_circles):
                issues.append(f"pants {pi} slot {si} attached to missing circle {c}")
        if len(p.orientations) != 3:
            issues.append(f"pants {pi} has {len(p.orientations)} orientations")
        for si, o in enumerate(p.orientations):
            if o not in (1, -1):
                issues.append(f"pants {pi} slot {si} has orientation {o}")
    for ci, c in enumerate(x.circles):
        if c.d < 1:
            issues.append(f"circle {ci} has degree {c.d} < 1")
            continue
        if c.d > 1 and math.gcd(c.k, c.d) != 1:
            issues.append(f"circle {ci} has k = {c.k} not coprime to d = {c.d}")
        atts = x._incidence.get(ci, ())
        if not atts:
            issues.append(f"circle {ci} has no attachment")
        elif c.d * len(atts) < 2:
            issues.append(f"circle {ci} has D = {c.d * len(atts)} < 2")
    if x.pants and not _connected(x):
        issues.append("complex is not connected")
    return issues


def build_xp(genus: int, p: int) -> PantsComplex:
    """The model complex: a pants chain whose two end circles carry d = p.

    4*genus pants in a chain, consecutive pants sharing alternately two
    circles and one circle (double, single, ..., double); the first and
    last pants each keep one slot for a singular circle of degree p.
    The two singular attachments get opposite orientations so the two
    singular circles are homologous.
    """
    if genus < 1:
        raise ValueError("genus must be at least 1")
    if p < 2:
        raise ValueError("rotation degree must be at least 2")
    n = 4 * genus
    # circles 0, 1 are the singular ones
    circles = [Circle(d=p, k=1), Circle(d=p, k=1)]
    pants = []
    prev = None  # circles shared with the previous pants
    for i in range(n):
        slots = []
        if i == 0:
            slots.append(0)
        elif i == n - 1:
            slots.append(1)
        else:
            slots.extend(prev)
        gap = 2 if i % 2 == 0 else 1  # circles shared with the next pants
        if i == n - 1:
            slots.extend(prev)
            gap = 0
        nxt = []
        for _ in range(gap):
            circles.append(Circle())
            nxt.append(len(circles) - 1)
        slots.extend(nxt)
        prev = nxt
        orientations = tuple(
            -1 if (i > 0 and c in pants[i - 1].slots) or c == 1 else 1
            for c in slots
        )
        pants.append(Pants(slots=tuple(slots), orientations=orientations))
    return PantsComplex(pants=tuple(pants), circles=tuple(circles))


class _PantsGraph(NamedTuple):
    n_vertices: int
    edges: tuple[tuple[int, int, int], ...]  # (circle id, vertex, vertex)
    marked: frozenset[int]


class PantsGraph(_PantsGraph):
    """Pants as vertices, regular circles as (multi-)edges."""

    @cached_property
    def _walks(self) -> tuple[int, int, int, list[int]]:
        """The first walk of a search of the graph; it is immutable, so
        walked once."""
        from .walks import _dart_lists, _Search

        _, mask, out, succ = _dart_lists(self)
        return _Search(mask, out, succ).walks()


def graph_of(x: PantsComplex) -> PantsGraph:
    """The pants graph of a valid complex; ValueError names a violation."""
    return x._graph


def complexity(g: PantsGraph) -> tuple[int, int]:
    """(l, -n): shortest essential path length and minus their number.

    Essential paths have both endpoints marked and are not null
    homotopic; the shortest ones are exactly the non-backtracking edge
    walks between marked vertices with unmarked interior, cyclically
    reduced when closed (a walk and its reverse count once).

    The walks are counted by a breadth-first search from each dart that
    leaves a marked vertex, to about half the shortest length, in Python
    integers, so n is exact however large.
    """
    l, total, _, _ = g._walks
    return l, -(total // 2)


def _middle_dart_counts(g: PantsGraph) -> tuple[int, int, list[int]]:
    """Per-dart count of shortest essential walks crossing it midway.

    Returns (l, k, counts) where k = ceil((l + 1)/2) and counts[d] is
    the number of shortest walks whose k-th dart is d.
    """
    l, _, k, counts = g._walks
    return l, k, list(counts)


def _middle_edge_circles(x: PantsComplex) -> set[int]:
    """Circles that occur as the mid-position edge of a shortest path."""
    g = graph_of(x)
    _, _, counts = _middle_dart_counts(g)
    return {g.edges[d // 2][0] for d, c in enumerate(counts) if c}


def make_donor() -> PantsComplex:
    """A closed four-pants surface with circle 0 distinguished.

    Two bridge pants share circles 0 and 1; each also carries a handle
    pants closed up by a self-glued circle.  All circles are regular,
    and circle 0 is non-separating.  Cutting circle 0 leaves circle 1
    as the unique shortest route between its two former attachments, so
    surgery along this donor replaces the cut edge by a single length-3
    path instead of a pair of parallel ones; this keeps the number of
    shortest essential paths from doubling at every surgery, which is
    what makes repeated growth to large thresholds tractable.
    """
    return PantsComplex(
        pants=(
            Pants(slots=(0, 1, 2), orientations=(1, 1, 1)),
            Pants(slots=(2, 3, 3), orientations=(-1, 1, -1)),
            Pants(slots=(0, 1, 4), orientations=(-1, -1, 1)),
            Pants(slots=(4, 5, 5), orientations=(-1, 1, -1)),
        ),
        circles=(Circle(), Circle(), Circle(), Circle(), Circle(), Circle()),
    )


def surger(x: PantsComplex, edge: int, donor: PantsComplex) -> PantsComplex:
    """Cut along a mid-path circle of x and a donor circle, cross-paste.

    edge is a regular circle sitting at position ceil((l+1)/2) on some
    shortest essential path; the donor's circle 0 must be regular and
    non-separating.  Each former attachment of the cut circle is joined
    to one former attachment of the donor circle, so every path through
    the old edge now has to cross the donor.
    """
    if not 0 <= edge < len(x.circles):
        raise NotOnShortestPathError(
            f"circle {edge} is not in the complex (ids 0..{len(x.circles) - 1})"
        )
    if not x.is_regular(edge):
        raise NotOnShortestPathError(f"circle {edge} is not regular")
    if edge not in _middle_edge_circles(x):
        raise NotOnShortestPathError(
            f"circle {edge} is not the middle edge of any shortest essential path"
        )
    from .walks import _Growth

    growth = _Growth(x, donor)
    # the edges are in circle-id order
    growth.surger(bisect.bisect_left(growth.circle_ids, edge))
    return growth.freeze()


def _separates(x: PantsComplex, circle: int) -> bool:
    """Whether cutting the complex along a circle disconnects it."""
    n = len(x.pants)
    if n <= 1:
        return False
    n_circles = len(x.circles)
    crossed = {circle}
    reached = {0}
    stack = [0]
    while stack:
        for c in x.pants[stack.pop()].slots:
            if c in crossed or not 0 <= c < n_circles:
                continue
            crossed.add(c)
            for pi, _ in x._incidence[c]:
                if pi not in reached:
                    reached.add(pi)
                    stack.append(pi)
    return len(reached) < n


def _connected(x: PantsComplex) -> bool:
    return not _separates(x, -1)


def grow_until(x: PantsComplex, threshold: int) -> PantsComplex:
    """Surger along shortest-path middle edges until l(G) > threshold.

    One search lasts the whole growth: after each surgery the walk redoes
    only the levels the surgery can reach (walks._Search).  Terminates
    because each step strictly increases (l, -n) lexicographically and n
    is bounded for fixed l; a step that does not raises ArithmeticError
    rather than looping.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    from .walks import _Growth

    growth = _Growth(x, make_donor())
    walks = growth.walks()
    while walks[0] <= threshold:
        # of the admissible mid-path darts, cut the one carried by the
        # most shortest walks: one surgery then retires a whole family;
        # index takes the first maximum, the smallest such dart
        counts = walks[3]
        growth.surger(counts.index(max(counts)) // 2)
        before, walks = walks, growth.walks()
        if (walks[0], -walks[1]) <= (before[0], -before[1]):
            raise ArithmeticError(
                f"a surgery took (l, n) from ({before[0]}, {before[1]}) to"
                f" ({walks[0]}, {walks[1]}): (l, -n) did not rise, so growth would not end"
            )
    x = growth.freeze()
    del growth  # drop the search before graph_of builds the result's graph
    # graph_of validates the result; its darts are the state's, so its
    # cached walk is this one and is not walked again
    graph_of(x).__dict__["_walks"] = walks
    return x
