"""Answer oracles that share no code with the library under test.

Everything here is plain Python over ints and stdlib containers: the
diagram oracles read circles and crossings as raw tuples (from a parsed
JSON document or from a diagram's fields), and the matrix oracles use
fraction-free (Bareiss) elimination and an extended-gcd diagonalisation,
which are different algorithms from the library's Smith normal form.
"""

from __future__ import annotations

import json
from math import gcd


# -- diagrams as raw data -----------------------------------------------------

def raw_from_document(text):
    """(circles, crossings, profile) of a diagram document.

    circles: list of (id, is_surgery, framing); crossings: list of
    (over_circle, under_circle, sign); profile: (source genera, target
    genera) in boundary order.
    """
    body = json.loads(text)["diagram"]
    circles = [(c["id"], c["kind"] == "surgery", int(c.get("framing", 0)))
               for c in body["circles"]]
    crossings = [(x["over"][0], x["under"][0], int(x["sign"]))
                 for x in body["crossings"]]
    wedges = {w["id"]: (w["color"], len(w["circles"]))
              for w in body["wedges"]}
    profile = (tuple(wedges[w][1] for w in body["source_order"]),
               tuple(wedges[w][1] for w in body["target_order"]))
    return circles, crossings, profile


def raw_from_diagram(d):
    """The same raw view read from a diagram's dataclass fields."""
    circles = [(c.id, c.kind == "surgery", c.framing) for c in d.circles]
    crossings = [(x.over[0], x.under[0], x.sign) for x in d.crossings]
    genus = {w.id: len(w.circle_ids) for w in d.wedges}
    profile = (tuple(genus[w] for w in d.source_order),
               tuple(genus[w] for w in d.target_order))
    return circles, crossings, profile


def linking_table(crossings):
    """{(a, b): signed crossing count} for a < b, from one pass."""
    table = {}
    for over, under, sign in crossings:
        if over != under:
            key = (over, under) if over < under else (under, over)
            table[key] = table.get(key, 0) + sign
    return table


def h1(circles, crossings):
    """First homology as (free rank, torsion tuple).

    Generators are the meridians of all circles; each surgery circle
    gives the relation framing * own meridian + sum of linking numbers.
    """
    ids = [cid for cid, _, _ in circles]
    col = {cid: j for j, cid in enumerate(ids)}
    table = linking_table(crossings)
    rows = []
    for cid, surgery, framing in circles:
        if not surgery:
            continue
        row = [0] * len(ids)
        row[col[cid]] = framing
        rows.append(row)
    row_of = {cid: r for r, cid in
              enumerate(c for c, s, _ in circles if s)}
    for (a, b), count in table.items():
        if count % 2:
            raise ValueError(f"odd crossing count between {a} and {b}")
        lk = count // 2
        if a in row_of:
            rows[row_of[a]][col[b]] += lk
        if b in row_of:
            rows[row_of[b]][col[a]] += lk
    return cokernel(rows, len(ids))


# -- integer matrices ---------------------------------------------------------

def elementary_divisors(rows):
    """Nonzero invariant factors of an integer matrix, as a sorted
    divisibility chain, by extended-gcd row and column combinations."""
    a = [list(r) for r in rows if any(r)]
    if not a:
        return []
    live = [j for j in range(len(a[0])) if any(r[j] for r in a)]
    a = [[r[j] for j in live] for r in a]
    diag = []
    while a and a[0]:
        piv = next(((i, j) for i, r in enumerate(a)
                    for j, v in enumerate(r) if v), None)
        if piv is None:
            break
        i, j = piv
        a[0], a[i] = a[i], a[0]
        for r in a:
            r[0], r[j] = r[j], r[0]
        while True:
            # Column 0: fold every row into row 0 by Bezout combinations.
            for i in range(1, len(a)):
                x, y = a[0][0], a[i][0]
                if y == 0:
                    continue
                g, s, t = (abs(x), 1 if x > 0 else -1, 0) if y % x == 0 \
                    else _xgcd(x, y)
                p, q = x // g, y // g
                r0, ri = a[0], a[i]
                a[0] = [s * u + t * v for u, v in zip(r0, ri)]
                a[i] = [p * v - q * u for u, v in zip(r0, ri)]
            # Row 0: the same for columns.
            for j in range(1, len(a[0])):
                x, y = a[0][0], a[0][j]
                if y == 0:
                    continue
                g, s, t = (abs(x), 1 if x > 0 else -1, 0) if y % x == 0 \
                    else _xgcd(x, y)
                p, q = x // g, y // g
                for r in a:
                    u, v = r[0], r[j]
                    r[0], r[j] = s * u + t * v, p * v - q * u
            if all(a[i][0] == 0 for i in range(1, len(a))):
                break
        diag.append(abs(a[0][0]))
        a = [r[1:] for r in a[1:]]
        a = [r for r in a if any(r)]
    # diag(x, y) is equivalent to diag(gcd, lcm): settle into a chain.
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


def _xgcd(x, y):
    """(g, s, t) with s*x + t*y = g = gcd(x, y) > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while y:
        q = x // y
        x, y = y, x - q * y
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if x < 0:
        x, s0, t0 = -x, -s0, -t0
    return x, s0, t0


def cokernel(rows, generators):
    """Z^generators modulo the row space, as (free rank, torsion)."""
    diag = elementary_divisors(rows)
    return generators - len(diag), tuple(x for x in diag if x > 1)


def bareiss(rows):
    """(rank, determinant or None) by fraction-free elimination.

    The determinant is given for square matrices only (0 if singular).
    """
    a = [list(r) for r in rows]
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    prev = 1
    sign = 1
    rank = 0
    for c in range(n_cols):
        piv = next((i for i in range(rank, n_rows) if a[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        p = a[rank][c]
        for i in range(rank + 1, n_rows):
            f = a[i][c]
            ri, rr = a[i], a[rank]
            for j in range(c + 1, n_cols):
                ri[j] = (p * ri[j] - f * rr[j]) // prev
            ri[c] = 0
        prev = p
        rank += 1
        if rank == n_rows:
            break
    det = None
    if n_rows == n_cols:
        det = sign * prev if rank == n_rows else 0
    return rank, det


def matmul(x, y):
    yt = list(zip(*y))
    return [[sum(u * v for u, v in zip(r, c)) for c in yt] for r in x]


def entries_gcd(rows):
    g = 0
    for r in rows:
        for v in r:
            g = gcd(g, v)
    return g


def is_chain(values):
    """Nonnegative, and each nonzero entry divides the next one."""
    if any(v < 0 for v in values):
        return False
    nz = [v for v in values if v]
    if any(v for v in values[len(nz):]):
        return False            # a zero before a nonzero entry
    return all(b % a == 0 for a, b in zip(nz, nz[1:]))
