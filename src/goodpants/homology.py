"""Integer homology of pants complexes and their gluing blocks.

Everything here is exact integer linear algebra over Python ints: Smith
normal form with unimodular transforms, finitely generated abelian
groups as (rank, invariant factors), and the first homology of a pants
complex computed from its graph-of-groups presentation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .complexes import PantsComplex, graph_of

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


@dataclass(frozen=True)
class IntegerMatrix:
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.entries:
            w = len(self.entries[0])
            if any(len(r) != w for r in self.entries):
                raise ValueError("ragged rows")

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

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.entries))
        return IntegerMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            )
        )

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group Z^rank + sum Z_{t_i}.

    The torsion coefficients form a divisor chain t_1 | t_2 | ... with
    every t_i > 1.
    """

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if any(t <= 1 for t in self.torsion):
            raise ValueError("torsion coefficients must exceed 1")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion coefficients must form a divisor chain")

    def order(self):
        """Group order, or None when infinite."""
        if self.rank:
            return None
        return math.prod(self.torsion)

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


def cokernel(m: IntegerMatrix, n_generators: int) -> AbelianGroup:
    """The abelian group Z^n_generators / (column span of m).

    m has one column per relation and n_generators rows.
    """
    if m.rows != n_generators:
        raise ValueError("relation matrix has wrong number of rows")
    d, _, _ = smith_normal_form(m)
    diag = [x for x in d.diagonal() if x != 0]
    return AbelianGroup(
        rank=n_generators - len(diag),
        torsion=tuple(x for x in diag if x > 1),
    )


def h1_of_complex(x: PantsComplex) -> AbelianGroup:
    """First homology from the graph-of-groups presentation on the circles.

    Each pants contributes a, b (its third cuff is -a-b) and each
    attachment says the cuff class equals the signed d-th multiple of its
    circle's class.  The attachments of slots 0 and 1 solve for a and b,
    which leaves one relation per pants on the circle classes:
    sum over its slots s of o_s * d_(c_s) * [c_s] = 0.  One free stable
    letter per independent cycle of the attachment graph adds to the rank,
    which holds for a connected complex only; graph_of refuses any other.
    """
    graph_of(x)
    n_p = len(x.pants)
    n_c = len(x.circles)
    rows = [[0] * n_p for _ in range(n_c)]
    for pi, p in enumerate(x.pants):
        for c, o in zip(p.slots, p.orientations):
            rows[c][pi] += o * x.circles[c].d
    group = cokernel(IntegerMatrix.from_rows(rows), n_c)
    # the attachment graph has pants + circles vertices, 3 * pants edges
    stable = 3 * n_p - (n_p + n_c) + 1
    return AbelianGroup(rank=group.rank + stable, torsion=group.torsion)


def book_of_i_bundles_h1(genus: int, p: int) -> AbelianGroup:
    """H1 of the block with a genus-g page and a p-fold binding circle.

    Presented on e_1..e_2g, c1, c2 with the single relation
    p(c1 - c2) = 0; the invariant factors come out of the Smith form
    rather than being written down.
    """
    if genus < 1 or p < 2:
        raise ValueError("need genus >= 1 and p >= 2")
    n = 2 * genus + 2
    relation = [0] * n
    relation[-2] = p
    relation[-1] = -p
    m = IntegerMatrix.from_rows([[r] for r in relation])
    return cokernel(m, n)


def _boundary_lattice(genus: int, p: int) -> IntegerMatrix:
    """Columns spanning the boundary image together with the relation.

    On the basis e_1..e_2g, c1, c2: the classes e_i, p*c1, c1 + c2, and
    the presentation relation p(c1 - c2).
    """
    n = 2 * genus + 2
    cols = []
    for i in range(2 * genus):
        col = [0] * n
        col[i] = 1
        cols.append(col)
    col = [0] * n
    col[-2] = p
    cols.append(col)
    col = [0] * n
    col[-2] = 1
    col[-1] = 1
    cols.append(col)
    col = [0] * n
    col[-2] = p
    col[-1] = -p
    cols.append(col)
    return IntegerMatrix.from_rows(zip(*cols))


def sigma(p: int, genus: int = 1) -> int:
    """Order of the torsion surviving the boundary gluing.

    The torsion of the block is generated by w = c1 - c2; the multiples
    of w landing in the boundary-image lattice are k0*Z for a minimal
    k0, and the surviving quotient has order gcd(k0, p).  Comes out as p
    for odd p and p/2 for even p, but is computed, not special-cased.
    """
    L = _boundary_lattice(genus, p)
    n = L.rows
    w = [0] * n
    w[-2] = 1
    w[-1] = -1
    d, u, _ = smith_normal_form(L)
    wp = [sum(u.entries[i][j] * w[j] for j in range(n)) for i in range(n)]
    diag = d.diagonal()
    # minimal k0 with k0 * w in the lattice: lcm of di / gcd(di, wp_i)
    k0 = 1
    for i in range(n):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if wp[i] != 0:
                raise ArithmeticError("torsion generator outside lattice span")
            continue
        need = di // math.gcd(di, wp[i]) if wp[i] else 1
        k0 = k0 * need // math.gcd(k0, need)
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
    if not torsion:
        return AbelianGroup(rank=rank)
    m = IntegerMatrix.from_rows(
        [
            [torsion[i] if i == j else 0 for j in range(len(torsion))]
            for i in range(len(torsion))
        ]
    )
    folded = cokernel(m, len(torsion))
    return AbelianGroup(rank=rank, torsion=folded.torsion)
