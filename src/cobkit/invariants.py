"""Exact integer-linear-algebra invariants of diagrams.

Everything here runs over arbitrary-precision Python ints, signature
included (fraction-free elimination, every division exact); entries can
grow during elimination, so machine ints are never trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diagram import Diagram, _odd_at, linking_matrix
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


def _diagonalize(a, u, vt):
    """Bring the list-of-rows matrix ``a`` to Smith normal form in place
    and return its rank.  Each row operation is also applied to the rows
    of ``u`` and each column operation to the rows of ``vt`` (V kept
    transposed), so identity transforms yield U and V, and width-0 rows
    (``[]``) track nothing.

    One elimination, stage by stage on the block from (s, s):

    - The pivot is the smallest nonzero absolute value in the block, ties
      by (row, col) index, found by one C-level scan per row and moved to
      (s, s).  Elimination stops at the first zero block, since every
      later block lies inside it; a zero ``a`` is left untouched.
    - Column s is cleared by row operations with nearest-remainder
      quotients (each remainder at most half the pivot); they touch only
      columns >= s, since those to the left are already zero.  While a
      remainder is left, the smallest one becomes the pivot and the
      column is cleared again.
    - Once column s is clean, row s is cleared the same way by column
      operations, which then change only row s of the block.  A
      remainder left in row s becomes the pivot and the stage goes back
      to column s.
    - After diagonalising, each pair i < j with d_i not dividing d_j is
      replaced by (gcd, lcm) through the unimodular 2 x 2 steps
      [[s, t], [-y/g, x/g]] on rows i, j of U and [[1, -t y/g],
      [1, s x/g]] on columns i, j of V, where s x + t y = g.

    Every pivot change at least halves the pivot, and remainders stay
    below the pivot, which curbs entry growth.  The rule is
    deterministic so the transforms are reproducible.
    """
    R, C = len(a), len(vt)

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
        least = i = 0
        for r in range(s, R):
            block = a[r][s:]
            if not any(block):
                continue
            x = min(filter(None, map(abs, block)))
            if not least or x < least:
                least, i = x, r
                if x == 1:
                    break
        if not least:
            break   # zero block: every later block lies inside it
        j = s + list(map(abs, a[i][s:])).index(least)
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
    return rank


def smith_normal_form(m: IntMatrix):
    """(U, D, V) with U m V = D, U and V unimodular, D diagonal with a
    divisibility chain and nonnegative entries, by :func:`_diagonalize`
    on identity transforms.

    Every call checks ``U m V = D`` exactly.  :meth:`IntMatrix.mul` skips
    zero entries, so the check costs O(R^2 + C^2 + R C) on a zero m
    rather than a dense cubic product.
    """
    a = [list(r) for r in m.entries]
    R, C = m.rows, m.cols
    u = [[int(i == j) for j in range(R)] for i in range(R)]
    vt = [[int(i == j) for j in range(C)] for i in range(C)]
    _diagonalize(a, u, vt)
    d = IntMatrix(tuple(tuple(row) for row in a))
    uu = IntMatrix(tuple(tuple(r) for r in u))
    vv = IntMatrix(tuple(zip(*vt)))
    assert uu.mul(m).mul(vv).entries == d.entries
    return uu, d, vv


def _bareiss(a):
    """(rank, last pivot) of the list-of-rows matrix ``a``, destroyed, by
    fraction-free elimination: the k-th pivot is a nonzero k x k minor
    and every division is exact, so the last one is a nonzero maximal
    minor, equal to the determinant up to sign when ``a`` is square and
    nonsingular."""
    R = len(a)
    rank, prev = 0, 1
    for c in range(len(a[0]) if a else 0):
        k = next((i for i in range(rank, R) if a[i][c]), None)
        if k is None:
            continue
        a[rank], a[k] = a[k], a[rank]
        top = a[rank]
        p, tail = top[c], top[c + 1:]
        for row in a[rank + 1:]:
            x = row[c]
            row[c:] = [0] + [(p * y - x * z) // prev
                             for y, z in zip(row[c + 1:], tail)]
        rank, prev = rank + 1, p
        if rank == R:
            break
    return rank, prev


def invariant_factors(m: IntMatrix) -> list:
    """The nonzero Smith diagonal d_1 | d_2 | ... | d_r of m, r its rank,
    by :func:`_diagonalize` with width-0 transforms: no U, V or product
    is formed.

    Every call certifies the result against an independent Bareiss pass
    (:func:`_bareiss`): r is the rank, d_1 is the gcd of the entries, the
    factors form a positive divisibility chain, and their product (the
    gcd of the r x r minors) divides the last Bareiss pivot, a nonzero
    r x r minor, and equals it up to sign when m is square and
    nonsingular.  A rank-0 result only needs every entry to be zero.
    """
    a = [list(r) for r in m.entries]
    rank = _diagonalize(a, [[] for _ in a], [[] for _ in range(m.cols)])
    factors = [a[i][i] for i in range(rank)]
    if not rank:
        assert not any(map(any, m.entries))
        return factors
    brank, minor = _bareiss([list(r) for r in m.entries])
    product = math.prod(factors)
    assert brank == rank and min(factors) > 0
    assert factors[0] == math.gcd(*(x for r in m.entries for x in r))
    assert all(y % x == 0 for x, y in zip(factors, factors[1:]))
    assert minor % product == 0
    assert product == abs(minor) or rank < m.rows or rank < m.cols
    return factors


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
    """Z^generators modulo the row space of ``relations``, read off the
    certified :func:`invariant_factors`: the free rank is the number of
    generators minus the rank, the torsion the factors >= 2."""
    factors = invariant_factors(relations)
    return AbelianGroup(rank=generators - len(factors),
                        torsion=tuple(x for x in factors if x >= 2))


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

    The relation matrix is the cached :attr:`Diagram.linking_rows` as
    they are, built once per diagram in O(X + n N) for X crossings, n
    surgery circles and N circles (the N term at C level) and shared with
    :func:`linking_matrix` and so with :func:`h1_closed` and
    :func:`signature`.  It raises ``MalformedDiagramError`` on any odd
    pair of a surgery circle with another circle, wedge circles included,
    the first in row-major order.  :func:`cokernel` then reads its
    certified invariant factors, so a zero matrix costs a scan, not an
    elimination.
    """
    rows, _, odd = d.linking_rows
    if odd:
        raise _odd_at(d, odd[0])
    return cokernel(IntMatrix(rows), len(d.circles))


def boundary_profile(d: Diagram):
    """(source genera, target genera) in boundary order."""
    return (tuple(d.wedge(w).genus for w in d.source_order),
            tuple(d.wedge(w).genus for w in d.target_order))


def _signature(a) -> int:
    """Signature of the symmetric list-of-rows int matrix ``a``,
    destroyed, by fraction-free symmetric elimination.

    ``a`` always holds D S, where S is the Schur complement of the block
    eliminated so far and D that block's determinant (1 at the start), so
    every entry is a minor of the input and stays an integer.

    - A nonzero diagonal entry p = D s is a 1 x 1 pivot: it adds
      sign(s) = sign(p) sign(D), the block grows to determinant p and
      each entry becomes (p y - x z) / D, an exact division.
    - With the diagonal zero, the first nonzero entry b = D s at (i, j)
      gives the hyperbolic pivot [[0, s], [s, 0]], which adds 0; the
      determinant becomes -b^2 / D and each entry becomes
      (b (x_i z_j + x_j z_i) - b^2 y) / D^2, again exact.
    - A zero remainder adds nothing.
    """
    sig, det = 0, 1
    while a:
        k = next((i for i, row in enumerate(a) if row[i]), None)
        if k is not None:
            top = a.pop(k)
            p = top.pop(k)
            sig += 1 if (p > 0) == (det > 0) else -1
            for row in a:
                x = row.pop(k)
                row[:] = [(p * y - x * z) // det for y, z in zip(row, top)]
            det = p
            continue
        i = next((i for i, row in enumerate(a) if any(row)), None)
        if i is None:
            break   # zero remainder
        j = next(j for j, x in enumerate(a[i]) if x)     # j > i
        zj, zi = a.pop(j), a.pop(i)
        b = zi[j]
        for z in (zi, zj):
            del z[j], z[i]
        dd, bb = det * det, b * b
        for row in a:
            xj, xi = row.pop(j), row.pop(i)
            row[:] = [(b * (xi * v + xj * w) - bb * y) // dd
                      for y, v, w in zip(row, zj, zi)]
        det = -bb // det
    return sig


def signature(d: Diagram) -> int:
    """Signature of the linking matrix of a wedge-free diagram, computed
    exactly over the integers by :func:`_signature`."""
    if d.wedges:
        raise PreconditionError("signature needs a diagram with no wedges")
    return _signature([list(r) for r in linking_matrix(d).entries])
