"""Combinatorial 2-complexes built from pants and circles.

A complex is a set of three-holed-sphere records whose boundary slots
are attached to circles; each circle carries a rotation degree d >= 1.
Circles with exactly two attachments and degree 1 are regular (the
complex looks like a surface there); everything else is singular.  The
graph of the complex has the pants as vertices and the regular circles
as edges, and its complexity is (shortest essential path length, minus
the number of such paths), measured between the singular-adjacent
(marked) vertices.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class NoEssentialPathError(ValueError):
    """Raised when a graph has no essential path between marked vertices."""


class NotOnShortestPathError(ValueError):
    """Raised when a surgery edge is not mid-position on a shortest path."""


class DisconnectedResultError(ValueError):
    """Raised when cut-and-paste surgery would disconnect the complex."""


@dataclass(frozen=True)
class Circle:
    """A circle of the complex with its rotation degree.

    k is the rotation numerator for singular circles; validate refuses
    a circle with d > 1 and k not coprime to d.  It is carried through
    to the holonomy builder and ignored when d = 1.
    """

    d: int = 1
    k: int = 1


@dataclass(frozen=True)
class Pants:
    """Three boundary slots, each attached to a circle with a sign."""

    slots: tuple[int, int, int]
    orientations: tuple[int, int, int] = (1, 1, 1)


@dataclass(frozen=True)
class PantsComplex:
    pants: tuple[Pants, ...]
    circles: tuple[Circle, ...]

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


@dataclass(frozen=True)
class PantsGraph:
    """Pants as vertices, regular circles as (multi-)edges."""

    n_vertices: int
    edges: tuple[tuple[int, int, int], ...]  # (circle id, vertex, vertex)
    marked: frozenset[int]

    @cached_property
    def _walks(self) -> tuple[int, int, int, list[int]]:
        """_shortest_walks of the graph; it is immutable, so walked once."""
        return _shortest_walks(_dart_arrays(self))


def graph_of(x: PantsComplex) -> PantsGraph:
    """The pants graph of a valid complex; ValueError names a violation."""
    return x._graph


def _dart_arrays(g: PantsGraph):
    """(tail, head, marked mask) as arrays.

    Darts 2e and 2e+1 are the two directions of edge e.
    """
    ends = np.array([(a, b) for _, a, b in g.edges], dtype=np.intp).reshape(-1, 2)
    marked = np.zeros(g.n_vertices, dtype=bool)
    marked[list(g.marked)] = True
    return ends.ravel(), ends[:, ::-1].ravel(), marked


# float64 holds every integer below 2**53 exactly
_EXACT = 2**53


def _predecessors(tail, head, marked):
    """Padded table of the darts a walk may take just before each dart.

    Column d lists the darts into tail[d] other than d ^ 1, or nothing
    when tail[d] is marked (a walk may only continue past an unmarked
    vertex).  Empty places hold the sentinel n_darts, which names an
    extra row of the walk counts; the table has a sentinel column of its
    own, so that row stays zero from layer to layer.
    """
    n_darts = len(tail)
    order = np.argsort(head, kind="stable")
    first = np.searchsorted(head[order], tail)
    n_in = np.searchsorted(head[order], tail, side="right") - first
    width = int(n_in.max(initial=0))
    reverse = np.arange(n_darts) ^ 1
    table = np.full((max(width, 1), n_darts + 1), n_darts, dtype=np.intp)
    for j in range(width):
        into = order[np.minimum(first + j, n_darts - 1)]
        live = (j < n_in) & (into != reverse) & ~marked[tail]
        table[j, :n_darts] = np.where(live, into, n_darts)
    # sentinels sort last; every column lost d ^ 1, so at most width - 1
    # live entries remain
    table.sort(axis=0)
    return table[: max(width - 1, 1)]


def _walk_layers(tail, head, marked, dtype, pred=None):
    """Non-backtracking walk counts, one layer per walk length.

    Seeds are the darts leaving marked vertices, in dart order.  Layer t
    (t = 1, 2, ...) has one row per seed: layer[i][d] is the number of
    walks of t darts that start with seeds[i], end with dart d, never
    reverse a dart, and pass only unmarked vertices in between; keeping
    the first dart apart is what lets callers leave out the closed walks
    that are not cyclically reduced.  Reversal maps the walks of t darts
    that start with dart d and end with seeds[i] ^ 1 one to one onto
    those counted in layer[i][d ^ 1], so one forward walk also gives
    the backward counts.

    The counts are stored dart-major and each layer is the sum of a few
    row gathers of the previous one through the _predecessors table,
    which is built here unless the caller keeps one (growth edits it in
    place).  Every entry is a sum of non-negative terms, each at most the
    entry, so in float64 an entry below 2**53 is exact whatever order the
    table's columns list their darts in.
    """
    n_darts = len(tail)
    seeds = np.flatnonzero(marked[tail])
    if pred is None:
        pred = _predecessors(tail, head, marked)
    cur = np.zeros((n_darts + 1, len(seeds)), dtype=dtype)
    cur[seeds, np.arange(len(seeds))] = 1
    while True:
        yield cur[:n_darts].T
        nxt = np.take(cur, pred[0], axis=0)
        for slot in pred[1:]:
            nxt += np.take(cur, slot, axis=0)
        cur = nxt


def _shortest_level(darts, pred=None, dtype=np.float64):
    """Walk forward to the shortest essential level.

    An essential walk is non-backtracking, its interior vertices are
    unmarked (a path *between* marked vertices visits them only at its
    ends), and when closed it is also cyclically reduced (its last dart
    is not the reverse of its first).  A closed walk failing the last
    condition is an out-and-back excursion whose shortest homotopy
    representative is a loop missing the marked vertex entirely, so it
    does not count as a path between marked vertices.

    Returns (l, n, layers): the shortest length l, the number n of
    ordered essential walks of that length (a walk and its reverse are
    both counted; no such walk is its own reverse), and the forward
    layers t >= ceil(l/2), which hold both halves of a walk cut at its
    middle dart.  n is a sum of layer entries that each count essential
    walks, so each is at most n.
    """
    tail, head, marked = darts
    if not marked.any():
        raise NoEssentialPathError("no marked vertices")
    starts = np.flatnonzero(marked[tail])
    if len(starts):
        ends = np.flatnonzero(marked[head])
        # a walk ending with the reverse of its first dart is closed at
        # the start vertex and not cyclically reduced
        essential = np.ones((len(starts), len(ends)), dtype=bool)
        essential[np.arange(len(starts)), np.searchsorted(ends, starts ^ 1)] = False
        bound = 2 * (len(marked) + len(tail) // 2) + 1
        layers = {}
        walks = _walk_layers(tail, head, marked, dtype, pred)
        for length, cur in zip(range(1, bound + 1), walks):
            layers[length] = cur
            # l >= length, so layers below ceil(length/2) are done
            layers.pop((length - 1) // 2, None)
            total = cur[:, ends][essential].sum()
            if total:
                return length, total, layers
    raise NoEssentialPathError("no essential marked path")


def _shortest_walks(darts, pred=None):
    """(l, n, k, counts): the shortest level and its middle-dart counts.

    l and n are as in _shortest_level; k = ceil((l + 1)/2) and counts[d]
    is the number of shortest essential walks whose k-th dart is d.  The
    walk runs in float64 and again in Python integers when n reaches
    2**53 (see complexity).
    """
    # entries that feed no count may overflow to inf
    with np.errstate(over="ignore"):
        l, total, layers = _shortest_level(darts, pred)
        if total >= _EXACT:
            l, total, layers = _shortest_level(darts, pred, object)
        k = (l + 1 + 1) // 2  # ceil((l + 1)/2), 1-based position
        # fwd[i][d]: length-k walks with first dart starts[i] and k-th
        # dart d; back[j][d] = layers[l - k + 1][j][d ^ 1]: length-(l - k
        # + 1) walks with first dart d and last dart starts[j] ^ 1 (the
        # reversed walks).  Glued at position k, a pair i != j is a
        # shortest essential walk, and i == j a closed non-reduced one.
        fwd = layers[k]
        back = layers[l - k + 1][:, np.arange(fwd.shape[1]) ^ 1]
        # counts = sum over i of fwd[i] * others[i], others[i] the sum of
        # back[j] over j != i, from sums before and after row i; where
        # both factors are non-zero the product counts essential walks,
        # so it is at most n, and elsewhere it is 0 (a factor may be inf)
        zero = np.zeros_like(back[:1])
        others = np.cumsum(np.concatenate([zero, back[:-1]]), axis=0)
        others += np.cumsum(np.concatenate([zero, back[:0:-1]]), axis=0)[::-1]
        both = (fwd != 0) & (others != 0)
        counts = np.multiply(fwd, others, out=np.zeros_like(fwd), where=both).sum(axis=0)
    if total < _EXACT:  # so is every count, exactly
        counts = counts.astype(np.int64)
    return l, int(total), k, counts.tolist()


def complexity(g: PantsGraph) -> tuple[int, int]:
    """(l, -n): shortest essential path length and minus their number.

    Essential paths have both endpoints marked and are not null
    homotopic; the shortest ones are exactly the non-backtracking edge
    walks between marked vertices with unmarked interior, cyclically
    reduced when closed (a walk and its reverse count once).

    The walks are counted in float64 and n is exact: every count is a
    sum of non-negative terms, each at most the count, so a count below
    2**53 is an exact integer, and when the number of ordered walks
    reaches 2**53 they are counted again in Python integers.
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
    growth = _Growth(x, donor)
    # the edges are in circle-id order
    growth.surger(bisect.bisect_left(growth.edges, (edge,)))
    return growth.freeze()


class _Growth:
    """A complex under surgery, edited in place and frozen at the end.

    It keeps what the walk needs: the pants and circles, the graph's
    edges in circle-id order, the marked mask, the dart arrays with the
    darts into each vertex, and the _predecessors table.  One surgery
    changes only the pants and circles it touches, so it edits those
    rows instead of rebuilding, re-validating and re-searching the whole
    complex.  The start complex and the donor pass validate (through
    graph_of), and the donor's graph is read once; cutting a regular
    edge of a connected complex and pasting in a donor that circle 0
    does not cut apart keeps the complex valid and connected, which
    graph_of checks again when the frozen result is first used.
    """

    # a pants has three slots, so at most three darts enter a vertex and
    # a dart has at most two predecessors
    _PRED_ROWS = 2

    def __init__(self, x: PantsComplex, donor: PantsComplex):
        g = graph_of(x)
        h = graph_of(donor)
        # the edges are in circle-id order
        if not (h.edges and h.edges[0][0] == 0):
            raise ValueError("donor circle 0 must be regular")
        if _separates(donor, 0):
            raise DisconnectedResultError("donor circle separates the donor")
        self.donor = donor
        (_, self.da, self.db), *self.donor_edges = h.edges
        # circle 0's first attachment, the one that keeps the cut circle
        self.da_slot = donor.pants[self.da].slots.index(0)
        self.donor_mask = _dart_arrays(h)[2]
        self.pants = list(x.pants)
        self.circles = list(x.circles)
        self.edges = list(g.edges)
        self.tail, self.head, self.mask = _dart_arrays(g)
        self.into = [[] for _ in self.pants]
        for d, v in enumerate(self.head.tolist()):
            self.into[v].append(d)
        n_darts = len(self.tail)
        pred = _predecessors(self.tail, self.head, self.mask)
        self.pred = np.full((self._PRED_ROWS, n_darts + 1), n_darts, dtype=np.intp)
        self.pred[: len(pred)] = pred

    def walks(self) -> tuple[int, int, int, list[int]]:
        """_shortest_walks of the current graph."""
        return _shortest_walks((self.tail, self.head, self.mask), self.pred)

    def surger(self, e: int) -> None:
        """Cut the regular circle of edge e and paste the donor in."""
        donor = self.donor
        edge, xa, xb = self.edges[e]
        # xb's attachment is the later one when xa == xb
        xb_slot = 2 - self.pants[xb].slots[::-1].index(edge)
        n_pants, n_circles, n_darts = len(self.pants), len(self.circles), len(self.tail)
        pa, pb = n_pants + self.da, n_pants + self.db
        # x's first side keeps circle `edge` and joins the donor's first
        # side; x's second side and the donor's second side share the
        # fresh circle n_circles; donor circle j > 0 becomes n_circles + j
        slots = list(self.pants[xb].slots)
        slots[xb_slot] = n_circles
        self.pants[xb] = Pants(slots=tuple(slots), orientations=self.pants[xb].orientations)
        for qi, q in enumerate(donor.pants):
            slots = tuple(
                edge if (qi, si) == (self.da, self.da_slot) else n_circles + c
                for si, c in enumerate(q.slots)
            )
            self.pants.append(Pants(slots=slots, orientations=q.orientations))
        self.circles += [Circle(), *donor.circles[1:]]

        new_edges = [(n_circles, xb, pb)] + [
            (n_circles + j, n_pants + a, n_pants + b) for j, a, b in self.donor_edges
        ]
        self.mask = np.append(self.mask, self.donor_mask)

        # the cut circle's edge moves in place, from xa-xb to xa-pa: dart
        # 2e now enters pa and dart 2e + 1 leaves it
        self.edges[e] = (edge, xa, pa)
        self.head[2 * e] = self.tail[2 * e + 1] = pa
        self.into += [[] for _ in donor.pants]
        self.into[xb].remove(2 * e)
        self.into[pa].append(2 * e)
        for f, (_, a, b) in enumerate(new_edges, start=len(self.edges)):
            self.into[b].append(2 * f)
            self.into[a].append(2 * f + 1)
        self.edges += new_edges
        ends = np.array([(a, b) for _, a, b in new_edges], dtype=np.intp)
        self.tail = np.append(self.tail, ends.ravel())
        self.head = np.append(self.head, ends[:, ::-1].ravel())

        # the sentinel names the row past the last dart, so it moves too
        n_new = len(self.tail)
        old = self.pred[:, :n_darts]
        self.pred = np.full((self._PRED_ROWS, n_new + 1), n_new, dtype=np.intp)
        self.pred[:, :n_darts] = np.where(old == n_darts, n_new, old)
        # a column changes only when its dart's tail or the darts into
        # that tail change: those are the darts leaving xa, xb and the
        # donor's pants
        for v in (xa, xb, *range(n_pants, len(self.pants))):
            for i in self.into[v]:
                live = [] if self.mask[v] else [j for j in self.into[v] if j != i]
                self.pred[:, i ^ 1] = live + [n_new] * (self._PRED_ROWS - len(live))

    def freeze(self) -> PantsComplex:
        return PantsComplex(pants=tuple(self.pants), circles=tuple(self.circles))


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

    Terminates because each step strictly increases (l, -n)
    lexicographically and n is bounded for fixed l.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    growth = _Growth(x, make_donor())
    while True:
        walks = growth.walks()
        if walks[0] > threshold:
            x = growth.freeze()
            # graph_of validates the result; its darts are the state's,
            # so its cached walk is this one and is not walked again
            graph_of(x).__dict__["_walks"] = walks
            return x
        # of the admissible mid-path darts, cut the one carried by the
        # most shortest walks: one surgery then retires a whole family;
        # argmax takes the first maximum, the smallest such dart
        growth.surger(int(np.argmax(walks[3])) // 2)
