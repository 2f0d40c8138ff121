"""Walk counts on the dart arrays of a pants graph, in numpy.

The array half of ``complexes``: the dart arrays and predecessor table
of a graph, the non-backtracking walk layers, the shortest essential
level with its middle-dart counts, and the growth state that surgery
edits in place.  ``complexes`` imports this module only where it walks
a graph or grows a complex, so commands that only read complexes never
load numpy.
"""

from __future__ import annotations

import numpy as np

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


def _dart_arrays(g: PantsGraph):
    """(tail, marked mask) as arrays.

    Darts 2e and 2e+1 are the two directions of edge e, so the head of
    dart d is tail[d ^ 1].
    """
    tail = np.array([v for _, a, b in g.edges for v in (a, b)], dtype=np.intp)
    marked = np.zeros(g.n_vertices, dtype=bool)
    marked[list(g.marked)] = True
    return tail, marked


# float64 holds every integer below 2**53 exactly
_EXACT = 2**53


def _predecessors(tail, marked, rows=1):
    """Padded table of the darts a walk may take just before each dart.

    Column d lists the reverses of the other darts leaving tail[d] (the
    darts into tail[d] other than d ^ 1), or nothing when tail[d] is
    marked (a walk may only continue past an unmarked vertex).  Empty
    places hold the sentinel n_darts, which names an extra row of the
    walk counts; the table has a sentinel column of its own, so that row
    stays zero from layer to layer.  It has at least `rows` rows.
    """
    n_darts = len(tail)
    order = np.argsort(tail, kind="stable")
    first = np.searchsorted(tail[order], tail)
    n_out = np.searchsorted(tail[order], tail, side="right") - first
    width = int(n_out.max(initial=0))
    table = np.full((max(width, rows), n_darts + 1), n_darts, dtype=np.intp)
    for j in range(width):
        out = order[np.minimum(first + j, n_darts - 1)]
        live = (j < n_out) & (out != np.arange(n_darts)) & ~marked[tail]
        table[j, :n_darts] = np.where(live, out ^ 1, n_darts)
    # sentinels sort last; every column left out d itself, so at most
    # width - 1 live entries remain
    table.sort(axis=0)
    return table[: max(width - 1, rows)]


def _walk_layers(tail, marked, dtype, pred=None):
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
        pred = _predecessors(tail, marked)
    # one gather per row of the table, with the ndarray method, which
    # skips np.take's Python wrapper
    first, *rest = pred
    cur = np.zeros((n_darts + 1, len(seeds)), dtype=dtype)
    cur[seeds, np.arange(len(seeds))] = 1
    while True:
        yield cur[:n_darts].T
        nxt = cur.take(first, axis=0)
        for row in rest:
            nxt += cur.take(row, axis=0)
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
    tail, marked = darts
    if not marked.any():
        raise NoEssentialPathError("no marked vertices")
    starts = np.flatnonzero(marked[tail])
    if len(starts):
        # the essential (seed i, end dart e) pairs, seed-major, as flat
        # indices e * n + i into a layer's dart-major storage layer.T:
        # the ends are the darts into marked vertices, and a walk ending
        # with the reverse of its first dart is closed at the start
        # vertex and not cyclically reduced
        ends = np.sort(starts ^ 1)
        seed_rows = np.arange(len(starts))[:, None]
        flat = (ends * len(starts) + seed_rows)[ends != starts[:, None] ^ 1]
        bound = 2 * (len(marked) + len(tail) // 2) + 1
        layers = {}
        walks = _walk_layers(tail, marked, dtype, pred)
        for length, cur in zip(range(1, bound + 1), walks):
            layers[length] = cur
            # l >= length, so layers below ceil(length/2) are done
            layers.pop((length - 1) // 2, None)
            # np.add.reduce is .sum() without its Python wrapper
            total = np.add.reduce(cur.T.take(flat))
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
        back = layers[l - k + 1].T[np.arange(fwd.shape[1]) ^ 1].T
        # counts = sum over i of fwd[i] * others[i], others[i] the sum of
        # back[j] over j != i, from sums before and after row i (a few
        # rows, one seed each, so a loop over them); where both factors
        # are non-zero the product counts essential walks, so it is at
        # most n, and elsewhere it is 0 (a factor may be inf)
        others = np.zeros_like(back)
        for i in range(1, len(back)):
            others[i] = others[i - 1] + back[i - 1]
        after = np.zeros_like(back[0])
        for i in range(len(back) - 1, 0, -1):
            after = after + back[i]
            others[i - 1] += after
        both = (fwd != 0) & (others != 0)
        counts = np.multiply(fwd, others, out=np.zeros_like(fwd), where=both).sum(axis=0)
    if total < _EXACT:  # so is every count, exactly
        counts = counts.astype(np.int64)
    return l, int(total), k, counts.tolist()


class _Growth:
    """A complex under surgery, edited in place and frozen at the end.

    It keeps what the walk needs: the pants and circles, the regular
    circles' ids in edge order, the darts' tails (dart d's head is the
    tail of d ^ 1), the marked mask and the _predecessors table.  One
    surgery changes only the pants and circles it touches, so it edits
    those rows instead of rebuilding, re-validating and re-searching the
    whole complex.  The start complex and the donor pass validate
    (through graph_of), and the donor is read once into a template that
    each surgery shifts by the ids in use; cutting a regular edge of a
    connected complex and pasting in a donor that circle 0 does not cut
    apart keeps it valid and connected, which graph_of checks again when
    the frozen result is first used.
    """

    # a pants has three slots, so at most three darts leave a vertex and
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
        # circle 0's first attachment, the one that keeps the cut circle
        self.da = h.edges[0][1]
        self.da_slot = donor.pants[self.da].slots.index(0)
        self.donor_pants = donor.pants
        self.donor_circles = (Circle(), *donor.circles[1:])
        self.donor_ids = [j for j, _, _ in h.edges]
        self.donor_tail, self.donor_mask = _dart_arrays(h)
        self.pants = list(x.pants)
        self.circles = list(x.circles)
        self.circle_ids = [c for c, _, _ in g.edges]
        self.tail, self.mask = _dart_arrays(g)
        self.pred = _predecessors(self.tail, self.mask, self._PRED_ROWS)

    def walks(self) -> tuple[int, int, int, list[int]]:
        """_shortest_walks of the current graph."""
        return _shortest_walks((self.tail, self.mask), self.pred)

    def surger(self, e: int) -> None:
        """Cut the regular circle of edge e and paste the donor in."""
        edge = self.circle_ids[e]
        xb = int(self.tail[2 * e + 1])
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
        new_tail = self.donor_tail + n_pants
        self.tail[2 * e + 1], new_tail[0] = new_tail[0], xb
        self.tail = np.concatenate([self.tail, new_tail])
        self.circle_ids += [n_circles + j for j in self.donor_ids]
        self.mask = np.append(self.mask, self.donor_mask)

        # the sentinel names the row past the last dart, so it moves too
        n_new = len(self.tail)
        old = self.pred[:, :n_darts]
        self.pred = np.full((self._PRED_ROWS, n_new + 1), n_new, dtype=np.intp)
        self.pred[:, :n_darts] = np.where(old == n_darts, n_new, old)
        # a column changes only when the darts leaving its dart's tail
        # change: those are the darts leaving xb and the donor's pants
        # (the edge's first end keeps dart 2e)
        for v in (xb, *range(n_pants, len(self.pants))):
            out = np.flatnonzero(self.tail == v).tolist()
            for d in out:
                live = [] if self.mask[v] else [o ^ 1 for o in out if o != d]
                self.pred[:, d] = live + [n_new] * (self._PRED_ROWS - len(live))

    def freeze(self) -> PantsComplex:
        return PantsComplex(pants=tuple(self.pants), circles=tuple(self.circles))
