"""Exact integer-linear-algebra invariants of diagrams.

Everything here runs over arbitrary-precision integers (or rationals for
the signature); entries can grow during elimination, so machine ints are
never trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diagram import Diagram, _linking_from_counts, linking_matrix
from .errors import PreconditionError


@dataclass(frozen=True)
class IntMatrix:
    """A dense rectangular matrix of Python ints."""

    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        widths = {len(r) for r in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged matrix")

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(int(i == j) for j in range(n))
                         for i in range(n)))

    @classmethod
    def zero(cls, r, c):
        return cls(tuple(tuple(0 for _ in range(c)) for _ in range(r)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        """Exact product, row by row, skipping zero entries of both
        factors: the cost is one pass over each factor and the result
        plus one step per product of two nonzero entries."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        width = other.cols
        nonzero = [[(j, b) for j, b in enumerate(row) if b]
                   for row in other.entries]
        out = []
        for row in self.entries:
            acc = [0] * width
            for k, a in enumerate(row):
                if a:
                    for j, b in nonzero[k]:
                        acc[j] += a * b
            out.append(tuple(acc))
        return IntMatrix(tuple(out))

    def diagonal(self):
        return [self.entries[i][i] for i in range(min(self.rows, self.cols))]


def _bezout(x, y):
    """(g, s, t) with s x + t y = g = gcd(x, y), for x, y > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while y:
        q, r = divmod(x, y)
        x, y = y, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return x, s0, t0


def smith_normal_form(m: IntMatrix):
    """(U, D, V) with U m V = D, U and V unimodular, D diagonal with a
    divisibility chain and nonnegative entries.

    One elimination, stage by stage on the block from (s, s):

    - The pivot is the smallest nonzero absolute value in the block, ties
      by (row, col) index, found by one scan per stage and moved to
      (s, s).  Elimination stops at the first zero block, since every
      later block lies inside it; a zero m thus gives U = I and V = I.
    - Column s is cleared by row operations with nearest-remainder
      quotients (each remainder at most half the pivot); they touch only
      columns >= s, since those to the left are already zero.  While a
      remainder is left, the smallest one becomes the pivot and the
      column is cleared again.
    - Once column s is clean, row s is cleared the same way by column
      operations, which then change only row s of the block; V is kept
      transposed so each one is a row update.  A remainder left in row s
      becomes the pivot and the stage goes back to column s.
    - After diagonalising, each pair i < j with d_i not dividing d_j is
      replaced by (gcd, lcm) through the unimodular 2 x 2 steps
      [[s, t], [-y/g, x/g]] on rows i, j of U and [[1, -t y/g],
      [1, s x/g]] on columns i, j of V, where s x + t y = g.

    Every pivot change at least halves the pivot, and remainders stay
    below the pivot, which curbs entry growth.  The rule is
    deterministic so the transforms are reproducible.

    Every call checks ``U m V = D`` exactly.  :meth:`IntMatrix.mul` skips
    zero entries, so the check costs O(R^2 + C^2 + R C) on a zero m
    rather than a dense cubic product.
    """
    a = [list(r) for r in m.entries]
    R, C = m.rows, m.cols
    u = [[int(i == j) for j in range(R)] for i in range(R)]
    vt = [[int(i == j) for j in range(C)] for i in range(C)]   # V, transposed

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(s, j):      # rows above s are zero in columns >= s
        for r in range(s, R):
            row = a[r]
            row[s], row[j] = row[j], row[s]
        vt[s], vt[j] = vt[j], vt[s]

    rank = 0
    for s in range(min(R, C)):
        pivot = min(((abs(x), i, j) for i in range(s, R)
                     for j, x in enumerate(a[i][s:], s) if x), default=None)
        if pivot is None:
            break   # zero block: every later block lies inside it
        _, i, j = pivot
        if i != s:
            swap_rows(s, i)
        if j != s:
            swap_cols(s, j)
        while True:
            top, utop = a[s], u[s]
            p, tail = top[s], top[s:]
            best = None
            for i in range(s + 1, R):
                row = a[i]
                x = row[s]
                if not x:
                    continue
                q = (2 * x + p) // (2 * p)     # nearest: |x - q p| <= |p|/2
                if q:
                    row[s:] = [y - q * z for y, z in zip(row[s:], tail)]
                    u[i] = [y - q * z for y, z in zip(u[i], utop)]
                    x = row[s]
                if x and (best is None or abs(x) < abs(a[best][s])):
                    best = i
            if best is not None:
                swap_rows(s, best)
                continue
            # Column s is clean, so a column operation changes row s only.
            vs = vt[s]
            for j in range(s + 1, C):
                x = top[j]
                if not x:
                    continue
                q = (2 * x + p) // (2 * p)
                if q:
                    x = top[j] = x - q * p
                    vt[j] = [y - q * z for y, z in zip(vt[j], vs)]
                if x and (best is None or abs(x) < abs(top[best])):
                    best = j
            if best is None:
                break
            swap_cols(s, best)
        if p < 0:
            top[s] = -p
            u[s] = [-y for y in u[s]]
        rank += 1

    # Divisibility chain on the diagonal: (x, y) -> (gcd, lcm) pairwise.
    for i in range(rank):
        for j in range(i + 1, rank):
            x, y = a[i][i], a[j][j]
            if y % x == 0:
                continue
            g, s, t = _bezout(x, y)
            xg, yg = x // g, y // g
            ui, uj = u[i], u[j]
            u[i] = [s * b + t * c for b, c in zip(ui, uj)]
            u[j] = [xg * c - yg * b for b, c in zip(ui, uj)]
            vi, vj = vt[i], vt[j]
            ti, tj = -t * yg, s * xg
            vt[i] = [b + c for b, c in zip(vi, vj)]
            vt[j] = [ti * b + tj * c for b, c in zip(vi, vj)]
            a[i][i], a[j][j] = g, x * yg

    d = IntMatrix(tuple(tuple(row) for row in a))
    uu = IntMatrix(tuple(tuple(r) for r in u))
    vv = IntMatrix(tuple(zip(*vt)))
    assert uu.mul(m).mul(vv).entries == d.entries
    return uu, d, vv


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group: free rank plus torsion chain
    d_1 | d_2 | ... with every d_i >= 2."""

    rank: int
    torsion: tuple = ()

    def __post_init__(self):
        for i, t in enumerate(self.torsion):
            if t < 2:
                raise ValueError("torsion coefficients must be >= 2")
            if i and t % self.torsion[i - 1]:
                raise ValueError("torsion chain must be a divisibility chain")

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def cokernel(relations: IntMatrix, generators: int) -> AbelianGroup:
    """Z^generators modulo the row space of ``relations``."""
    if relations.rows == 0:
        return AbelianGroup(rank=generators)
    _, d, _ = smith_normal_form(relations)
    diag = [x for x in d.diagonal() if x != 0]
    return AbelianGroup(rank=generators - len(diag),
                        torsion=tuple(x for x in diag if x >= 2))


def h1_closed(d: Diagram) -> AbelianGroup:
    """First homology of the closed manifold presented by a wedge-free
    diagram: the cokernel of its linking matrix."""
    if d.wedges:
        raise PreconditionError("h1_closed needs a diagram with no wedges")
    m = linking_matrix(d)
    return cokernel(m, m.cols)


def h1_cobordism(d: Diagram) -> AbelianGroup:
    """First homology of the manifold presented by any diagram.

    Generators are the meridians of all circles (wedge circles included:
    removing a chosen neighbourhood frees its meridians); each surgery
    circle imposes the relation  f_i m_i + sum_j lk(i, j) m_j = 0.

    The relation matrix is read from the one-sweep
    :attr:`Diagram.linking_counts` table in O(X + n N) for X crossings,
    n surgery circles and N circles; its Smith normal form then carries
    the exact ``U m V = D`` check of :func:`smith_normal_form`.
    """
    ids = [c.id for c in d.circles]
    counts = d.linking_counts
    rows = [tuple(s.framing if cid == s.id
                  else _linking_from_counts(counts, s.id, cid)
                  for cid in ids)
            for s in d.surgery_circles()]
    if not rows:
        return AbelianGroup(rank=len(ids))
    return cokernel(IntMatrix(tuple(rows)), len(ids))


def boundary_profile(d: Diagram):
    """(source genera, target genera) in boundary order."""
    return (tuple(d.wedge(w).genus for w in d.source_order),
            tuple(d.wedge(w).genus for w in d.target_order))


def signature(d: Diagram) -> int:
    """Signature of the linking matrix of a wedge-free diagram, computed
    exactly by symmetric (Schur complement) reduction over the rationals."""
    if d.wedges:
        raise PreconditionError("signature needs a diagram with no wedges")
    m = linking_matrix(d)
    a = [[Fraction(x) for x in row] for row in m.entries]
    alive = list(range(m.rows))
    sig = 0
    while alive:
        k = next((i for i in alive if a[i][i] != 0), None)
        if k is not None:
            sig += 1 if a[k][k] > 0 else -1
            alive.remove(k)
            pivot = a[k][k]
            for i in alive:
                for j in alive:
                    a[i][j] -= a[i][k] * a[k][j] / pivot
            continue
        pair = next(((i, j) for i in alive for j in alive
                     if i < j and a[i][j] != 0), None)
        if pair is None:
            break   # remaining block is zero: contributes nothing
        i0, j0 = pair
        b = a[i0][j0]
        alive.remove(i0)
        alive.remove(j0)
        # hyperbolic block [[0, b], [b, 0]]: signature 0; fold it out
        for i in alive:
            for j in alive:
                a[i][j] -= (a[i][i0] * a[j0][j] + a[i][j0] * a[i0][j]) / b
    return sig
