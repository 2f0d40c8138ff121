"""Integer homology of pants complexes and their gluing blocks.

Everything here is exact integer linear algebra over Python ints.
Groups are presented by sparse relation columns; cokernel eliminates
the +-1 pivots (least fill first) and reads the invariant factors of the
small remainder from the Smith normal form, which keeps its unimodular
transforms as a certificate.  Finitely generated abelian groups are
(rank, invariant factors), and the first homology of a pants complex
comes from its graph-of-groups presentation.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .complexes import PantsComplex

__all__ = [
    "AbelianGroup",
    "IntegerMatrix",
    "book_of_i_bundles_h1",
    "free_product_h1",
    "h1_of_complex",
    "mv_torsion_embedding",
    "sigma",
    "smith_normal_form",
]


class _IntegerMatrix(NamedTuple):
    entries: tuple[tuple[int, ...], ...]


class IntegerMatrix(_IntegerMatrix):
    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[int, ...], ...]):
        if entries:
            w = len(entries[0])
            if any(len(r) != w for r in entries):
                raise ValueError("ragged rows")
        return tuple.__new__(cls, (entries,))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def from_rows(cls, rows) -> "IntegerMatrix":
        return cls(tuple(tuple(int(x) for x in r) for r in rows))

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


class _AbelianGroup(NamedTuple):
    rank: int
    torsion: tuple[int, ...] = ()


class AbelianGroup(_AbelianGroup):
    """A finitely generated abelian group Z^rank + sum Z_{t_i}.

    The rank is non-negative, and the torsion coefficients form a divisor
    chain t_1 | t_2 | ... with every t_i > 1.
    """

    __slots__ = ()

    def __new__(cls, rank: int, torsion: tuple[int, ...] = ()):
        if rank < 0:
            raise ValueError(f"rank must be non-negative, got {rank}")
        if any(t <= 1 for t in torsion):
            raise ValueError("torsion coefficients must exceed 1")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion coefficients must form a divisor chain")
        return tuple.__new__(cls, (rank, torsion))

    def describe(self) -> str:
        parts = []
        if self.rank:
            parts.append(f"Z^{self.rank}" if self.rank > 1 else "Z")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def smith_normal_form(
    m: IntegerMatrix,
) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
    """Diagonalize over Z: returns (d, u, v) with u @ m @ v = d.

    u and v are unimodular, d is diagonal with non-negative entries
    forming a divisor chain.  Pivots are chosen by minimal absolute
    value to keep intermediate entries small.
    """
    a = [list(r) for r in m.entries]
    n_r, n_c = m.rows, m.cols
    u = [list(r) for r in IntegerMatrix.identity(n_r).entries]
    v = [list(r) for r in IntegerMatrix.identity(n_c).entries]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row dst -= q * row src
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in a:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(n_r, n_c):
        # smallest nonzero entry of the trailing submatrix becomes pivot
        pivot = None
        for i in range(t, n_r):
            for j in range(t, n_c):
                if a[i][j] != 0 and (
                    pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])
                ):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if a[t][t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, n_r):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                add_row(i, t, q)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, n_c):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                add_col(j, t, q)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility: fold any non-multiple into this pivot
        offender = None
        for i in range(t + 1, n_r):
            for j in range(t + 1, n_c):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, -1)
            continue
        t += 1
    return (
        IntegerMatrix.from_rows(a),
        IntegerMatrix.from_rows(u),
        IntegerMatrix.from_rows(v),
    )


def cokernel(columns, n_generators: int) -> AbelianGroup:
    """The abelian group Z^n_generators / (span of the columns).

    Each column is one relation, a mapping {generator: coefficient};
    zero coefficients may be left out.  A coefficient of +-1 solves its
    relation for its generator, so both leave the presentation, and the
    generator is substituted into every other relation that names it;
    the group does not change.  The next unit pivot is the one of least
    Markowitz cost (r - 1)(c - 1) for r entries in its row and c in its
    column, popped from a heap; costs that grew since they were pushed
    are pushed again, and entries that become +-1 are pushed as they
    appear.  When no unit pivot is left, every all-zero row is a free
    generator, and the invariant factors of the small dense remainder
    come from smith_normal_form.
    """
    cols: dict[int, dict[int, int]] = {}
    rows: dict[int, dict[int, int]] = {}
    for j, column in enumerate(columns):
        col = {}
        for i, v in column.items():
            if not 0 <= i < n_generators:
                raise ValueError(f"relation names generator {i} of {n_generators}")
            if v:
                col[i] = v
                rows.setdefault(i, {})[j] = v
        if col:
            cols[j] = col
    heap = [
        ((len(rows[i]) - 1) * (len(col) - 1), i, j)
        for j, col in cols.items()
        for i, v in col.items()
        if v in (1, -1)
    ]
    heapq.heapify(heap)
    eliminated = 0
    while heap:
        cost, i, j = heapq.heappop(heap)
        col = cols.get(j)
        if col is None or col.get(i) not in (1, -1):
            continue
        now = (len(rows[i]) - 1) * (len(col) - 1)
        if now > cost:
            heapq.heappush(heap, (now, i, j))
            continue
        pivot = col[i]
        del cols[j]
        for r in col:
            del rows[r][j]
        eliminated += 1
        # generator i = -pivot * (rest of column j): substitute it into
        # every other relation that names it
        for k, a in rows.pop(i).items():
            target = cols[k]
            q = a * pivot
            del target[i]
            for r, b in col.items():
                if r == i:
                    continue
                v = target.get(r, 0) - q * b
                if v:
                    target[r] = v
                    rows[r][k] = v
                    if v in (1, -1):
                        heapq.heappush(heap, ((len(rows[r]) - 1) * (len(target) - 1), r, k))
                else:
                    del target[r]
                    del rows[r][k]
            if not target:
                del cols[k]
    live = sorted(i for i, row in rows.items() if row)
    free = n_generators - eliminated - len(live)
    order = sorted(cols)
    d, _, _ = smith_normal_form(
        IntegerMatrix.from_rows([[rows[i].get(j, 0) for j in order] for i in live])
    )
    diag = [x for x in d.diagonal() if x != 0]
    return AbelianGroup(
        rank=free + len(live) - len(diag),
        torsion=tuple(x for x in diag if x > 1),
    )


def h1_of_complex(x: PantsComplex) -> AbelianGroup:
    """First homology from the graph-of-groups presentation on the circles.

    Each pants contributes a, b (its third cuff is -a-b) and each
    attachment says the cuff class equals the signed d-th multiple of its
    circle's class.  The attachments of slots 0 and 1 solve for a and b,
    which leaves one relation per pants on the circle classes:
    sum over its slots s of o_s * d_(c_s) * [c_s] = 0.  These go to
    cokernel as sparse columns, one per pants; a regular circle between
    two pants gives a unit pivot, so little is left for the Smith form.
    One free stable letter per independent cycle of the attachment graph
    adds to the rank, which holds for a connected complex only; graph_of
    refuses any other.
    """
    from .complexes import graph_of

    graph_of(x)
    n_p = len(x.pants)
    n_c = len(x.circles)
    columns = []
    for p in x.pants:
        column: dict[int, int] = {}
        for c, o in zip(p.slots, p.orientations):
            column[c] = column.get(c, 0) + o * x.circles[c].d
        columns.append(column)
    group = cokernel(columns, n_c)
    # the attachment graph has pants + circles vertices, 3 * pants edges
    stable = 3 * n_p - (n_p + n_c) + 1
    return AbelianGroup(rank=group.rank + stable, torsion=group.torsion)


def book_of_i_bundles_h1(genus: int, p: int) -> AbelianGroup:
    """H1 of the block with a genus-g page and a p-fold binding circle.

    Presented on e_1..e_2g, c1, c2 with the single relation
    p(c1 - c2) = 0; the invariant factors come out of cokernel rather
    than being written down.
    """
    if genus < 1 or p < 2:
        raise ValueError("need genus >= 1 and p >= 2")
    n = 2 * genus + 2
    return cokernel([{n - 2: p, n - 1: -p}], n)


def sigma(p: int, genus: int = 1) -> int:
    """Order of the torsion surviving the boundary gluing.

    The block is presented on e_1..e_2g, c1, c2, and the boundary image
    is spanned by the page classes e_i, p*c1 and c1 + c2.  Each e_i is a
    unit column that no other column names, so it quotients out its own
    summand Z e_i and touches nothing else: the quotient, and so sigma,
    does not depend on the genus, which is not read, and the two
    cokernels run on c1, c2 alone (generators 0 and 1).

    The torsion of the block is generated by w = c1 - c2.  Its class in
    the quotient G by the boundary-image lattice has order k0 =
    |Tor G| / |Tor(G / <w>)|, read from the two cokernels; a rank drop
    instead means w has infinite order.  The surviving quotient has
    order gcd(k0, p).  Comes out as p for odd p and p/2 for even p, but
    is computed, not special-cased.  The block's presentation relation
    p(c1 - c2) = 2 * (p*c1) - p * (c1 + c2) lies in the span of the other
    two columns, so it is left out.
    """
    # p*c1 and c1 + c2
    lattice = [{0: p}, {0: 1, 1: 1}]
    before = cokernel(lattice, 2)
    after = cokernel(lattice + [{0: 1, 1: -1}], 2)
    if after.rank < before.rank:
        raise ArithmeticError("torsion generator outside lattice span")
    k0 = math.prod(before.torsion) // math.prod(after.torsion)
    return math.gcd(k0, p)


def mv_torsion_embedding(p: int, genus: int = 1) -> AbelianGroup:
    """The torsion of the block that embeds across the gluing.

    Mayer-Vietoris kills the part of Z_p meeting the boundary image,
    leaving a cyclic group of order sigma(p).
    """
    s = sigma(p, genus)
    return AbelianGroup(rank=0, torsion=(s,) if s > 1 else ())


def free_product_h1(groups) -> AbelianGroup:
    """H1 of a free product: the direct sum with renormalized factors."""
    groups = list(groups)
    rank = sum(g.rank for g in groups)
    torsion = [t for g in groups for t in g.torsion]
    folded = cokernel([{i: t} for i, t in enumerate(torsion)], len(torsion))
    return AbelianGroup(rank=rank, torsion=folded.torsion)
