"""Shared fixtures: the standard-position diagram corpus and a seeded
random diagram generator used by the property tests."""

from __future__ import annotations

import copy
import json
import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cached_property

import pytest

from cobkit import (borromean, hopf, identity_diagram, mend,
                    overpass_circle, sigma_g_s1_link, stacked_rings, tensor,
                    thread_circle, trefoil, unknot, validate, wedge_row)
from cobkit.diagram import (DEPART, RETURN, CenterSlot, CrossingSlot,
                            Diagram, INCOMING, OUTGOING, OVER, SURGERY, UNDER,
                            WEDGE, crossings_along)
from cobkit.errors import MalformedDiagramError, NotStandardPositionError
from cobkit.io_text import FORMAT_VERSION, _encode_move, diagram_to_document
from cobkit.invariants import IntMatrix
from cobkit.membranes import Excursion
from cobkit.planarity import Dart, arc_endpoints, circle_arcs, reverse


def _decorated_wedge(color, g, threads=0, overpasses=0):
    """A wedge with surgery circles piercing / sweeping its first circles."""
    d = wedge_row([(color, g)])
    k = 0
    for t in range(threads):
        k += 1
        d = thread_circle(d, f"w1c{t % g + 1}", f"s{k}",
                          sign=1 if t % 2 == 0 else -1)
    for t in range(overpasses):
        k += 1
        d = overpass_circle(d, f"w1c{t % g + 1}", f"s{k}")
    return d


def corpus_with_wedge(color):
    """Standard-position diagrams that each contain a wedge of the given
    color with id ``w1``; at least 20 in total, assorted genera."""
    out = []
    for g in (1, 2, 3):
        out.append((g, wedge_row([(color, g)])))
        out.append((g, wedge_row([(color, g), ("outgoing", 1)])))
        out.append((g, wedge_row([(color, g), ("incoming", 2)])))
        out.append((g, _decorated_wedge(color, g, threads=1)))
        out.append((g, _decorated_wedge(color, g, threads=2)))
        out.append((g, _decorated_wedge(color, g, overpasses=1)))
        out.append((g, _decorated_wedge(color, g, threads=1, overpasses=1)))
    out.append((0, wedge_row([(color, 0)])))
    out.append((0, wedge_row([(color, 0), ("incoming", 1)])))
    for g, d in out:
        assert validate(d).ok
    return out


def builder_corpus():
    """Every builder at small sizes, mended identities, a tensor product
    and both wedge corpora."""
    out = [unknot(0), unknot(-3), hopf(1, -2), borromean(0, 1, -1), trefoil(),
           stacked_rings(1, 0, -1)]
    for g in range(4):
        out += [identity_diagram(g), sigma_g_s1_link(g),
                mend(identity_diagram(g), "V", "U")]
    out.append(tensor(identity_diagram(2), sigma_g_s1_link(2)))
    for color in ("incoming", "outgoing"):
        out += [d for _, d in corpus_with_wedge(color)]
    return out


@pytest.fixture(scope="session")
def incoming_corpus():
    return corpus_with_wedge("incoming")


@pytest.fixture(scope="session")
def outgoing_corpus():
    return corpus_with_wedge("outgoing")


def det(m):
    """Exact determinant of a square IntMatrix by fraction-free (Bareiss)
    elimination: every division is exact, so entries stay integers."""
    a = [list(row) for row in m.entries]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def smith_normal_form_oracle(m: IntMatrix):
    """The fold-and-repeat elimination ``smith_normal_form`` must agree
    with on D: it rescans the block for a pivot on every pass, uses floor
    quotients and fixes divisibility by folding an offending row into the
    pivot row and eliminating again.  Quadratic passes and entry growth
    make it slow (about 17 s on a dense 80 x 80 matrix).

    (U, D, V) with U m V = D, U and V unimodular, D diagonal with a
    divisibility chain and nonnegative entries.

    Pivot rule: smallest nonzero absolute value in the working block,
    ties by (row, col) index; rows are cleared before columns.  The rule
    is deterministic so the transforms are reproducible.  Elimination
    stops at the first zero block, since every later block lies inside
    it.

    Every call checks ``U m V = D`` exactly.  :meth:`IntMatrix.mul` skips
    zero entries, so the check costs O(R^2 + C^2 + R C) on a zero m
    rather than a dense cubic product.
    """
    a = [list(r) for r in m.entries]
    R, C = m.rows, m.cols
    u = [[int(i == j) for j in range(R)] for i in range(R)]
    v = [[int(i == j) for j in range(C)] for i in range(C)]

    def row_op(i, j, q):      # row_i -= q * row_j
        for k in range(C):
            a[i][k] -= q * a[j][k]
        for k in range(R):
            u[i][k] -= q * u[j][k]

    def col_op(i, j, q):      # col_i -= q * col_j
        for r in range(R):
            a[r][i] -= q * a[r][j]
        for r in range(C):
            v[r][i] -= q * v[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(R):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(C):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def negate_row(i):
        for k in range(C):
            a[i][k] = -a[i][k]
        for k in range(R):
            u[i][k] = -u[i][k]

    n = min(R, C)
    for s in range(n):
        while True:
            pivot = None
            for i in range(s, R):
                for j in range(s, C):
                    if a[i][j] != 0 and (pivot is None
                                         or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            if pivot != (s, s):
                if pivot[0] != s:
                    swap_rows(s, pivot[0])
                if pivot[1] != s:
                    swap_cols(s, pivot[1])
            if a[s][s] < 0:
                negate_row(s)
            clean = True
            for i in range(s + 1, R):
                q = a[i][s] // a[s][s]
                if q:
                    row_op(i, s, q)
                if a[i][s]:
                    clean = False
            for j in range(s + 1, C):
                q = a[s][j] // a[s][s]
                if q:
                    col_op(j, s, q)
                if a[s][j]:
                    clean = False
            if not clean:
                continue
            # Enforce divisibility into the remaining block.
            offender = None
            for i in range(s + 1, R):
                for j in range(s + 1, C):
                    if a[i][j] % a[s][s]:
                        offender = i
                        break
                if offender:
                    break
            if offender is None:
                break
            row_op(s, offender, -1)   # fold the offending row in, repeat
        if pivot is None:
            break   # zero block: every later block lies inside it

    d = IntMatrix(tuple(tuple(row) for row in a))
    uu = IntMatrix(tuple(tuple(r) for r in u))
    vv = IntMatrix(tuple(tuple(r) for r in v))
    assert uu.mul(m).mul(vv).entries == d.entries
    return uu, d, vv


def signature_oracle(m: IntMatrix) -> int:
    """Signature of a symmetric IntMatrix by symmetric (Schur complement)
    reduction over the rationals: a nonzero diagonal entry is a 1 x 1
    pivot counting its sign, and with the diagonal zero a nonzero entry
    at (i, j) is a hyperbolic 2 x 2 pivot counting 0."""
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


def charpoly(m: IntMatrix):
    """Coefficients of det(x I - m), leading first, by Berkowitz's
    division-free algorithm: the trailing block grows one row and column
    at a time, and each step multiplies the previous coefficients by a
    Toeplitz matrix built from the new row, column and corner entry."""
    a = m.entries
    n = len(a)
    poly = [1]
    for k in range(n - 1, -1, -1):
        size = n - k
        row, rest = a[k][k + 1:], [r[k + 1:] for r in a[k + 1:]]
        col = [1, -a[k][k]]
        v = [r[k] for r in a[k + 1:]]
        for _ in range(size - 1):
            col.append(-sum(x * y for x, y in zip(row, v)))
            v = [sum(x * y for x, y in zip(r, v)) for r in rest]
        poly = [sum(col[i - j] * poly[j] for j in range(min(i, size - 1) + 1))
                for i in range(size + 1)]
    return poly


def descartes_signature_oracle(m: IntMatrix) -> int:
    """Signature of a symmetric IntMatrix from its characteristic
    polynomial: every root is real, so Descartes' rule of signs counts
    the positive roots of p(x) and of p(-x) exactly, with multiplicity."""
    poly = charpoly(m)
    n = len(poly) - 1

    def changes(coeffs):
        signs = [c > 0 for c in coeffs if c]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    return changes(poly) - changes([c * (-1) ** (n - i)
                                    for i, c in enumerate(poly)])


def fresh_id_oracle(ed, prefix):
    """The id ``ed.fresh_id(prefix)`` must return, by a regex scan of every
    live circle, crossing and wedge id: ``prefix`` followed by one more
    than the largest number that follows ``prefix`` in one of them."""
    taken = set(ed.circles) | set(ed.signs) | set(ed.wedges)
    pattern = re.compile(re.escape(prefix) + r"(\d+)$")
    top = 0
    for i in taken:
        m = pattern.match(i)
        if m:
            top = max(top, int(m.group(1)))
    return f"{prefix}{top + 1}"


def circle_excursions_oracle(d, cid):
    """What ``circle_excursions(d, cid)`` must return, read by rescanning:
    self-crossings and partner strands from a scan of every crossing of
    the diagram, each partner strand walked for its visits to ``cid``,
    and each anchor's position found by a walk along ``cid``."""
    if any(x.over[0] == x.under[0] == cid for x in d.crossings):
        raise NotStandardPositionError(f"circle {cid} has self-crossings")
    strands = sorted({x.over[0] if x.under[0] == cid else x.under[0]
                      for x in d.crossings
                      if cid in (x.over[0], x.under[0])})
    anchored = []
    for sid in strands:
        for exc in _excursions_into_oracle(d, sid, cid):
            pos = next(slot for slot, ev in enumerate(d.circle(cid).events)
                       if isinstance(ev, CrossingSlot)
                       and ev.crossing == exc.anchor)
            anchored.append((pos, exc))
    anchored.sort(key=lambda t: t[0])
    return anchored


def _excursions_into_oracle(d, strand_id, membrane_circle):
    strand = d.circle(strand_id)
    visits = []
    for slot, ev in enumerate(strand.events):
        if not isinstance(ev, CrossingSlot):
            continue
        x = d.crossing(ev.crossing)
        other = x.strand(OVER if ev.role == UNDER else UNDER)[0]
        if other == membrane_circle:
            visits.append((slot, ev))
    if len(visits) % 2:
        raise NotStandardPositionError(
            f"strand {strand_id} crosses {membrane_circle} an odd number "
            "of times")
    flags = [d.crossing(ev.crossing).right_to_left(membrane_circle)
             for _, ev in visits]
    if True not in flags:
        raise NotStandardPositionError(
            f"strand {strand_id} never enters the membrane of "
            f"{membrane_circle}")
    start = flags.index(True)
    order = [(visits[(start + k) % len(visits)],
              flags[(start + k) % len(visits)]) for k in range(len(visits))]
    out = []
    for k in range(0, len(order), 2):
        (eslot, eev), ef = order[k]
        (lslot, lev), lf = order[k + 1]
        if not ef or lf:
            raise NotStandardPositionError(
                f"crossings of {strand_id} with {membrane_circle} do not "
                "alternate between entering and leaving")
        n = len(strand.events)
        interior = []
        s = (eslot + 1) % n
        while s != lslot:
            interior.append(s)
            s = (s + 1) % n
        out.append(Excursion(
            strand=strand_id, circle=membrane_circle,
            enter=eev.crossing, leave=lev.crossing,
            enter_flag=eev.role, leave_flag=lev.role,
            enter_slot=eslot, leave_slot=lslot,
            interior=tuple(interior)))
    return out


def random_diagram(rng: random.Random):
    """A small random valid diagram assembled from builder pieces and a
    few random moves."""
    from cobkit import BlowUp, R1, apply
    from cobkit.planarity import CombinatorialMap

    pieces = [
        lambda: unknot(rng.randint(-2, 2)),
        lambda: hopf(rng.randint(-1, 1), rng.randint(-1, 1)),
        lambda: borromean(0, 0, 0),
        lambda: trefoil(),
        lambda: stacked_rings(rng.randint(-1, 1), 0, 0),
        lambda: identity_diagram(rng.randint(1, 2)),
        lambda: sigma_g_s1_link(1),
        lambda: _decorated_wedge(rng.choice(["incoming", "outgoing"]),
                                 rng.randint(1, 2),
                                 threads=rng.randint(0, 1)),
    ]
    d = rng.choice(pieces)()
    if rng.random() < 0.5:
        d = tensor(d, rng.choice(pieces)())
    # sprinkle a couple of kinks and blow-ups for variety
    for _ in range(rng.randint(0, 2)):
        surg = [c for c in d.circles if c.is_surgery() and c.events]
        if surg and rng.random() < 0.7:
            c = rng.choice(surg)
            d = apply(d, R1(site=(c.id, rng.randrange(len(c.events))),
                            sign=rng.choice([1, -1])))
        else:
            d = apply(d, BlowUp(rng.choice([1, -1])))
    assert validate(d).ok
    return d


def move_walks(rng: random.Random, walks, steps):
    """``walks`` seeded random diagrams, each followed by up to ``steps``
    random valid moves; every diagram along the way, in order."""
    out = []
    for _ in range(walks):
        d = random_diagram(rng)
        out.append(d)
        for _ in range(steps):
            step = random_valid_move(rng, d)
            if step is None:
                break
            d = step[1]
            out.append(d)
    return out


def random_valid_move(rng: random.Random, d):
    """A uniformly chosen applicable move for ``d``; None when the
    candidate pool is empty."""
    from cobkit import BlowUp, HandleSlide, R1, R2, apply
    from cobkit.errors import MoveError
    from cobkit.moves import _candidate_moves
    from cobkit.planarity import CombinatorialMap

    candidates = list(_candidate_moves(d))
    # add-moves with random sites
    surg = [c for c in d.circles if c.is_surgery()]
    for c in d.circles:
        if c.events:
            candidates.append(R1(site=(c.id, rng.randrange(len(c.events))),
                                 sign=rng.choice([1, -1])))
    faces = CombinatorialMap(d).faces()
    big = [f for f in faces if len({(dt.circle, dt.arc) for dt in f}) >= 2]
    if big:
        f = rng.choice(big)
        darts = sorted({(dt.circle, dt.arc, dt.dir) for dt in f})
        if len(darts) >= 2:
            d1, d2 = rng.sample(darts, 2)
            if (d1[0], d1[1]) != (d2[0], d2[1]):
                candidates.append(R2(darts=(d1, d2),
                                     over=rng.choice([True, False])))
    simple = [c.id for c in surg
              if not any(x.over[0] == x.under[0] == c.id
                         for x in d.crossings)]
    if len(surg) >= 2 and simple:
        moving = rng.choice([c.id for c in surg])
        over = rng.choice([s for s in simple if s != moving] or [None])
        if over:
            candidates.append(HandleSlide(moving, over))
    rng.shuffle(candidates)
    for mv in candidates:
        try:
            return mv, apply(d, mv)
        except MoveError:
            continue
    return None


def _segment_oracle(d, c, rot, labels):
    """Encoding of one circle at one rotation given the labels assigned so
    far; returns (segment, updated labels)."""
    n = len(c.events)
    if c.is_surgery():
        head = (0, c.framing, n)
    else:
        orders = list(d.source_order) + list(d.target_order)
        head = (1, orders.index(c.wedge), c.index, n)
    seg = [head]
    new_labels = dict(labels)
    for k in range(n):
        e = c.events[(rot + k) % n]
        if isinstance(e, CenterSlot):
            seg.append((2, 0 if e.which == "depart" else 1))
        else:
            if e.crossing not in new_labels:
                new_labels[e.crossing] = len(new_labels)
            x = d.crossing(e.crossing)
            seg.append((3, new_labels[e.crossing],
                        0 if e.role == "over" else 1, x.sign))
    return tuple(seg), new_labels


def canonical_form_oracle(d):
    """The branch-and-merge canonical form: the lexicographically smallest
    encoding over every order of the surgery circles and every rotation of
    their event lists.  Wedge circles are emitted first, in boundary
    order, anchored at their depart slot.  The search emits the encoding
    circle by circle and keeps every branch that ties for the smallest
    next segment; branches that agree on crossing labels and on the set of
    unplaced circles have identical futures and are merged.  Exponential
    in the worst case (about 1.8 s for ``sigma_g_s1_link(6)``)."""
    header = (
        tuple(d.wedge(w).genus for w in d.source_order),
        tuple(d.wedge(w).genus for w in d.target_order),
        len(d.circles), len(d.crossings),
    )

    index_of = {c.id: i for i, c in enumerate(d.circles)}
    forced = []
    for wid in list(d.source_order) + list(d.target_order):
        for cid in d.wedge(wid).circle_ids:
            forced.append(index_of[cid])
    free = frozenset(i for i, c in enumerate(d.circles) if c.is_surgery())

    stream = []
    labels = {}
    for pos in forced:
        seg, labels = _segment_oracle(d, d.circles[pos], 0, labels)
        stream.extend(seg)

    # states: set of (labels as sorted tuple, remaining frozenset)
    states = {(tuple(sorted(labels.items())), free)}
    while next(iter(states))[1]:
        candidates = {}
        best_seg = None
        for lab_items, remaining in states:
            lab = dict(lab_items)
            for pos in remaining:
                c = d.circles[pos]
                rots = range(len(c.events)) if c.events else (0,)
                for rot in rots:
                    seg, new_lab = _segment_oracle(d, c, rot, lab)
                    if best_seg is not None and seg > best_seg:
                        continue
                    key = (tuple(sorted(new_lab.items())),
                           remaining - {pos})
                    if best_seg is None or seg < best_seg:
                        best_seg = seg
                        candidates = {seg: {key}}
                    else:
                        candidates.setdefault(seg, set()).add(key)
        stream.extend(best_seg)
        states = candidates[best_seg]
    return header + (tuple(stream),)


def resequence(events, start):
    """Rotate a cyclic event tuple so ``start`` comes first."""
    return tuple(events[start:]) + tuple(events[:start])


def scramble(d, rng: random.Random):
    """An isomorphic copy of ``d``: every id renamed at random, every
    surgery circle's event list rotated by a random amount, and the
    ``circles``, ``crossings`` and ``wedges`` tuples shuffled."""
    ids = ([c.id for c in d.circles] + [x.id for x in d.crossings]
           + [w.id for w in d.wedges])
    names = [f"n{k}" for k in range(len(ids))]
    rng.shuffle(names)
    new = dict(zip(ids, names))
    shift = {c.id: rng.randrange(len(c.events))
             if c.is_surgery() and c.events else 0 for c in d.circles}
    size = {c.id: len(c.events) for c in d.circles}

    def strand(s):
        cid, slot = s
        return new[cid], (slot - shift[cid]) % size[cid]

    circles = [replace(c, id=new[c.id],
                       wedge=None if c.wedge is None else new[c.wedge],
                       events=tuple(
                           CrossingSlot(new[e.crossing], e.role)
                           if isinstance(e, CrossingSlot) else e
                           for e in resequence(c.events, shift[c.id])))
               for c in d.circles]
    crossings = [replace(x, id=new[x.id], over=strand(x.over),
                         under=strand(x.under)) for x in d.crossings]
    wedges = [replace(w, id=new[w.id],
                      circle_ids=tuple(new[c] for c in w.circle_ids))
              for w in d.wedges]
    for part in (circles, crossings, wedges):
        rng.shuffle(part)
    return Diagram(tuple(circles), tuple(crossings), tuple(wedges),
                   tuple(new[w] for w in d.source_order),
                   tuple(new[w] for w in d.target_order))


def is_standard_position_oracle(d):
    """What ``is_standard_position(d)`` must return, with the containment
    step done pairwise: for each wedge circle, the seed face of every
    wedge circle of another wedge is looked up in its membrane side."""
    from cobkit.membranes import _membrane_side, membrane_excursions
    from cobkit.planarity import CombinatorialMap, Dart, reverse

    wcircles = d.wedge_circles()
    for c in wcircles:
        if any(d.circle(other).is_wedge()
               for _, _, (other, _) in crossings_along(d, c.id)):
            return False
        try:
            membrane_excursions(d, c.id)
        except NotStandardPositionError:
            return False
    if not wcircles:
        return True
    face_of = CombinatorialMap(d).face_of
    dual = {}
    for dart, i in face_of.items():
        dual.setdefault(i, []).append((face_of[reverse(dart)], dart.circle))
    for c in wcircles:
        inside = _membrane_side(dual, face_of[Dart(c.id, 0, 1)], c.id)
        for other in wcircles:
            if other.id == c.id or other.wedge == c.wedge:
                continue
            if face_of[Dart(other.id, 0, 1)] in inside:
                return False
    return True


def dumps_oracle(doc):
    """The canonical text of a document as ``json.dumps`` writes it: the
    stdlib's pure-Python encoder, forced by ``indent``."""
    return json.dumps(doc, sort_keys=True, separators=(",", ": "),
                      indent=1) + "\n"


def serialize_oracle(d, metadata=None):
    """What ``serialize(d, metadata)`` must return, byte for byte."""
    return dumps_oracle(diagram_to_document(d, metadata))


def serialize_move_script_oracle(script):
    """What ``serialize_move_script(script)`` must return, byte for byte."""
    return dumps_oracle({"format_version": FORMAT_VERSION,
                         "moves": [_encode_move(m) for m in script]})


def malformed_documents():
    """Diagram documents of the wrong shape, as ``pytest.param``s named
    by their flaw: deep nesting, and nodes missing or of the wrong JSON
    type."""
    from cobkit import serialize
    import json

    def edited(edit):
        doc = json.loads(serialize(hopf(0, 0)))
        edit(doc["diagram"])
        return json.dumps(doc)

    def drop_circle_id(body):
        del body["circles"][0]["id"]

    return [pytest.param(text, id=name) for name, text in [
        ("deep-nesting", "[" * 100_000 + "]" * 100_000),
        ("circles-string", edited(lambda b: b.update(circles="k1"))),
        ("circles-ints", edited(lambda b: b.update(circles=[1, 2]))),
        ("crossings-null", edited(lambda b: b.update(crossings=None))),
        ("wedges-null", edited(lambda b: b.update(wedges=None))),
        ("source-order-int", edited(lambda b: b.update(source_order=3))),
        ("events-int", edited(lambda b: b["circles"][0].update(events=4))),
        ("circle-without-id", edited(drop_circle_id)),
    ]]


def _event_vertex_oracle(d, circle, slot):
    ev = circle.events[slot]
    if isinstance(ev, CrossingSlot):
        return ("x", ev.crossing)
    return ("w", circle.wedge)


class _DartKeyedMap:
    """The rotation system ``planarity.CombinatorialMap`` must agree with,
    keyed by ``Dart`` namedtuples: dicts from vertex to rotation and from
    dart to base, and ``rot.index`` once per step of face tracing."""

    def __init__(self, d: Diagram):
        self.diagram = d
        self.rotations = {}   # vertex -> tuple of darts, counterclockwise
        self.dart_base = {}   # dart -> vertex
        self._build()

    def _build(self):
        d = self.diagram
        # Tail/head vertices of every dart.
        for c in d.circles:
            n = len(c.events)
            if n == 0:
                v = ("o", c.id)
                out, inn = Dart(c.id, 0, 1), Dart(c.id, 0, -1)
                self.rotations[v] = (out, inn)
                self.dart_base[out] = v
                self.dart_base[inn] = v
                continue
            for a in range(circle_arcs(c)):
                tail, head = arc_endpoints(d, c, a)
                self.dart_base[Dart(c.id, a, 1)] = _event_vertex_oracle(
                    d, c, tail)
                self.dart_base[Dart(c.id, a, -1)] = _event_vertex_oracle(
                    d, c, head)

        # Crossing rotations, forced by sign.
        for x in d.crossings:
            oin, oout = self._incident(x.over)
            uin, uout = self._incident(x.under)
            if x.sign == 1:
                rot = (uin, oout, uout, oin)
            else:
                rot = (uin, oin, uout, oout)
            self.rotations[("x", x.id)] = rot

        # Wedge center rotations; outgoing centers read the circles in
        # reversed order.
        for w in d.wedges:
            pairs = []
            for cid in w.circle_ids:
                c = d.circle(cid)
                pairs.append((Dart(cid, 0, 1),
                              Dart(cid, circle_arcs(c) - 1, -1)))
            if w.color == OUTGOING:
                pairs.reverse()
            self.rotations[("w", w.id)] = tuple(x for p in pairs for x in p)

        for v, rot in self.rotations.items():
            for dart in rot:
                if dart not in self.dart_base:
                    raise MalformedDiagramError(f"dangling slot at {v}: {dart}")
        for dart, v in self.dart_base.items():
            if v not in self.rotations or dart not in self.rotations[v]:
                raise MalformedDiagramError(
                    f"dangling slot: dart {dart} points at {v}, which does "
                    "not rotate through it")

    def _incident(self, ref):
        """(incoming dart, outgoing dart) of the strand visiting ``ref``."""
        cid, slot = ref
        c = self.diagram.circle(cid)
        n = len(c.events)
        if not 0 <= slot < n or not isinstance(c.events[slot], CrossingSlot):
            raise MalformedDiagramError(
                f"crossing reference ({cid}, {slot}) is not a crossing slot")
        if c.is_wedge():
            arc_in, arc_out = slot - 1, slot
        else:
            arc_in, arc_out = (slot - 1) % n, slot
        return Dart(cid, arc_in, -1), Dart(cid, arc_out, 1)

    def next_in_face(self, dart):
        rev = reverse(dart)
        rot = self.rotations[self.dart_base[rev]]
        return rot[rot.index(rev) - 1]

    def faces(self):
        return self._faces

    @cached_property
    def face_of(self):
        return {dart: i for i, face in enumerate(self._faces)
                for dart in face}

    @cached_property
    def _faces(self):
        seen = set()
        out = []
        for c in self.diagram.circles:
            for a in range(circle_arcs(c)):
                for s in (1, -1):
                    d0 = Dart(c.id, a, s)
                    if d0 in seen:
                        continue
                    face = []
                    cur = d0
                    while True:
                        face.append(cur)
                        seen.add(cur)
                        cur = self.next_in_face(cur)
                        if cur == d0:
                            break
                        if cur in seen:
                            raise MalformedDiagramError(
                                "face tracing revisited a dart: "
                                "rotation system is inconsistent")
                    out.append(tuple(face))
        return tuple(out)

    def components(self):
        parent = {v: v for v in self.rotations}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for dart, v in self.dart_base.items():
            u = find(self.dart_base[reverse(dart)])
            parent[find(v)] = u
        comps = {}
        for v in self.rotations:
            comps.setdefault(find(v), set()).add(v)
        return list(comps.values())

    def euler_by_component(self):
        faces = self.faces()
        comps = self.components()
        comp_of = {}
        for i, comp in enumerate(comps):
            for v in comp:
                comp_of[v] = i
        stats = {}
        for i, comp in enumerate(comps):
            if all(not self.rotations[v] for v in comp):
                continue
            stats[i] = [len(comp), 0, 0]
        for dart, v in self.dart_base.items():
            if dart.dir == 1:
                stats[comp_of[v]][1] += 1
        for face in faces:
            stats[comp_of[self.dart_base[face[0]]]][2] += 1
        return [(v, e, f, v - e + f) for v, e, f in stats.values()]


def combinatorial_map_oracle(d):
    """The Dart-keyed rotation system ``CombinatorialMap(d)`` must agree
    with on every query, errors included."""
    return _DartKeyedMap(d)


def structural_violations_oracle(d):
    """The structural checks ``validate`` must report, in its order: three
    passes over the crossings, every event checked back through
    ``Crossing.strand``."""
    from cobkit.planarity import Violation

    bad = []

    def err(code, message, location=""):
        bad.append(Violation(code, message, location))

    ids = [c.id for c in d.circles] + [x.id for x in d.crossings] + \
          [w.id for w in d.wedges]
    dupes = [i for i, n in Counter(ids).items() if n > 1]
    for i in sorted(dupes):
        err("duplicate-id", f"id {i!r} used more than once", i)
    if dupes:
        return bad

    wedge_ids = {w.id for w in d.wedges}
    for order, color in ((d.source_order, INCOMING), (d.target_order, OUTGOING)):
        for wid in order:
            if wid not in wedge_ids:
                err("order-cover", f"order names unknown wedge {wid!r}", wid)
            elif d.wedge(wid).color != color:
                err("order-cover",
                    f"wedge {wid!r} is {d.wedge(wid).color} but listed as {color}",
                    wid)
    listed = list(d.source_order) + list(d.target_order)
    if sorted(listed) != sorted(wedge_ids):
        err("order-cover",
            "source_order + target_order must cover all wedges exactly once")

    for w in d.wedges:
        if w.color not in (INCOMING, OUTGOING):
            err("bad-wedge", f"wedge {w.id}: unknown color {w.color!r}", w.id)
        for i, cid in enumerate(w.circle_ids, start=1):
            c = d.circle_by_id.get(cid)
            if c is None:
                err("bad-wedge", f"wedge {w.id}: missing circle {cid!r}", w.id)
            elif not (c.is_wedge() and c.wedge == w.id and c.index == i):
                err("bad-wedge",
                    f"wedge {w.id}: circle {cid} does not point back at index {i}",
                    w.id)

    for c in d.circles:
        if c.kind not in (SURGERY, WEDGE):
            err("bad-circle", f"circle {c.id}: unknown kind {c.kind!r}", c.id)
            continue
        centers = [e for e in c.events if isinstance(e, CenterSlot)]
        if c.is_surgery():
            if centers:
                err("bad-center-slots",
                    f"surgery circle {c.id} has center slots", c.id)
            if not isinstance(c.framing, int) or isinstance(c.framing, bool):
                err("bad-framing", f"circle {c.id}: framing must be an integer",
                    c.id)
        else:
            w = d.wedge_by_id.get(c.wedge or "")
            if w is None or c.id not in w.circle_ids:
                err("bad-wedge",
                    f"wedge circle {c.id} not owned by a wedge", c.id)
            ok_shape = (len(c.events) >= 2
                        and c.events[0] == CenterSlot("depart")
                        and c.events[-1] == CenterSlot("return")
                        and len(centers) == 2)
            if not ok_shape:
                err("bad-center-slots",
                    f"wedge circle {c.id} must run depart ... return", c.id)

    # Crossing references <-> events must biject.
    for x in d.crossings:
        if x.sign not in (1, -1):
            err("bad-sign", f"crossing {x.id}: sign must be +1 or -1", x.id)
        if x.over == x.under:
            err("crossing-ref", f"crossing {x.id}: over equals under", x.id)
        for role, (cid, slot) in ((OVER, x.over), (UNDER, x.under)):
            c = d.circle_by_id.get(cid)
            ev = None
            if c is not None and 0 <= slot < len(c.events):
                ev = c.events[slot]
            if not (isinstance(ev, CrossingSlot) and ev.crossing == x.id
                    and ev.role == role):
                err("crossing-ref",
                    f"crossing {x.id}: {role} reference ({cid}, {slot}) "
                    "does not match an event", x.id)
    for c in d.circles:
        for slot, ev in enumerate(c.events):
            if isinstance(ev, CrossingSlot):
                x = d.crossing_by_id.get(ev.crossing)
                if x is None or x.strand(ev.role) != (c.id, slot):
                    err("crossing-ref",
                        f"event ({c.id}, {slot}) not claimed by crossing "
                        f"{ev.crossing}", c.id)

    # Circles of one wedge never cross each other.
    for x in d.crossings:
        a = d.circle_by_id.get(x.over[0])
        b = d.circle_by_id.get(x.under[0])
        if (a is not None and b is not None and a.is_wedge() and b.is_wedge()
                and a.wedge == b.wedge):
            err("wedge-self-crossing",
                f"crossing {x.id} joins two circles of wedge {a.wedge}", x.id)
    return bad


def validate_oracle(d):
    """What ``validate(d)`` must report: the structural checks of
    ``structural_violations_oracle``, then the Euler test on the
    Dart-keyed map."""
    from cobkit.planarity import ValidationReport, Violation

    bad = structural_violations_oracle(d)
    if not bad:
        try:
            for v, e, f, chi in combinatorial_map_oracle(
                    d).euler_by_component():
                if chi != 2:
                    bad.append(Violation(
                        "non-planar",
                        f"component with V={v} E={e} F={f} has "
                        f"characteristic {chi}, not 2"))
        except MalformedDiagramError as exc:
            bad.append(Violation("dangling-slot", str(exc)))
    return ValidationReport(ok=not bad, violations=tuple(bad))


def _append_event(circle, event):
    """``circle`` with ``event`` added after its last crossing slot, so no
    strand reference shifts: at the end of a surgery circle, just before
    the ``return`` of a wedge circle."""
    events = circle.events
    at = len(events) - (events[-1:] == (RETURN,))
    return replace(circle, events=events[:at] + (event,) + events[at:])


def mutate(rng: random.Random, d):
    """``d`` with one to three seeded flaws, made with
    ``dataclasses.replace`` so that no editor repairs them: a crossing's
    sign flipped, two events of a circle swapped, a strand slot out of
    range, an event naming a missing crossing, a wedge's circles
    reordered, a strand moved to another slot of its circle or onto the
    crossing's other strand, a crossing event duplicated within or across
    circles, a wedge circle missing its ``return``, a surgery circle
    carrying a center slot, a duplicated id (a crossing listed twice, or
    renamed to a circle's id), or a wedge dropping one of its circles.
    The duplicated events and center slots shift no strand reference, so
    only the event count can show them."""
    circles, crossings = list(d.circles), list(d.crossings)
    wedges = list(d.wedges)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(11)
        if kind == 0 and crossings:
            i = rng.randrange(len(crossings))
            crossings[i] = replace(crossings[i], sign=-crossings[i].sign)
        elif kind == 1 and any(len(c.events) >= 2 for c in circles):
            i = rng.choice([i for i, c in enumerate(circles)
                            if len(c.events) >= 2])
            events = list(circles[i].events)
            a, b = rng.sample(range(len(events)), 2)
            events[a], events[b] = events[b], events[a]
            circles[i] = replace(circles[i], events=tuple(events))
        elif kind == 2 and crossings:
            i = rng.randrange(len(crossings))
            role = rng.choice(("over", "under"))
            cid, _ = getattr(crossings[i], role)
            n = len(d.circle(cid).events)
            crossings[i] = replace(
                crossings[i], **{role: (cid, rng.choice((-1, n, n + 3)))})
        elif kind == 3 and any(c.events for c in circles):
            i = rng.choice([i for i, c in enumerate(circles) if c.events])
            events = list(circles[i].events)
            j = rng.randrange(len(events))
            events[j] = CrossingSlot("ghost", rng.choice((OVER, UNDER)))
            circles[i] = replace(circles[i], events=tuple(events))
        elif kind == 4 and any(w.genus >= 2 for w in wedges):
            i = rng.choice([i for i, w in enumerate(wedges)
                            if w.genus >= 2])
            ids = list(wedges[i].circle_ids)
            while ids == list(wedges[i].circle_ids):
                rng.shuffle(ids)
            wedges[i] = replace(wedges[i], circle_ids=tuple(ids))
        elif kind == 5 and crossings:
            i = rng.randrange(len(crossings))
            x = crossings[i]
            cid, _ = x.over
            slot = rng.randrange(len(d.circle(cid).events))
            crossings[i] = replace(x, over=rng.choice(((cid, slot), x.under)))
        elif kind == 6 and any(c.crossing_events() for c in circles):
            i = rng.choice([i for i, c in enumerate(circles)
                            if c.crossing_events()])
            _, event = rng.choice(circles[i].crossing_events())
            j = rng.choice((i, rng.randrange(len(circles))))
            circles[j] = _append_event(circles[j], event)
        elif kind == 7 and any(c.events[-1:] == (RETURN,) for c in circles):
            i = rng.choice([i for i, c in enumerate(circles)
                            if c.events[-1:] == (RETURN,)])
            circles[i] = replace(circles[i], events=circles[i].events[:-1])
        elif kind == 8 and any(c.is_surgery() for c in circles):
            i = rng.choice([i for i, c in enumerate(circles)
                            if c.is_surgery()])
            circles[i] = _append_event(circles[i],
                                       rng.choice((DEPART, RETURN)))
        elif kind == 9 and crossings:
            i = rng.randrange(len(crossings))
            if rng.random() < 0.5:
                crossings.append(crossings[i])
            else:
                crossings[i] = replace(crossings[i],
                                       id=rng.choice(circles).id)
        elif kind == 10 and any(w.circle_ids for w in wedges):
            i = rng.choice([i for i, w in enumerate(wedges) if w.circle_ids])
            ids = list(wedges[i].circle_ids)
            del ids[rng.randrange(len(ids))]
            wedges[i] = replace(wedges[i], circle_ids=tuple(ids))
    return replace(d, circles=tuple(circles), crossings=tuple(crossings),
                   wedges=tuple(wedges))


def map_verdict(build, d):
    """What a map class says about ``d``: ``("error", message)`` if
    building it or tracing its faces raises ``MalformedDiagramError``,
    else ``("faces", faces)``.  Any other exception propagates."""
    try:
        return ("faces", build(d).faces())
    except MalformedDiagramError as exc:
        return ("error", str(exc))


# -- the per-pair linking readers, kept as oracles ----------------------------

def _linking_from_counts_oracle(counts, a, b):
    """Linking number of two distinct circles, one table lookup per pair;
    an odd count raises."""
    total = counts.get((a, b) if a <= b else (b, a), 0)
    if total % 2:
        raise MalformedDiagramError(
            f"odd signed crossing count between {a} and {b}")
    return total // 2


def linking_matrix_oracle(d):
    """The linking matrix filled pair by pair in row-major order, raising
    on the first odd surgery-surgery pair."""
    surg = d.surgery_circles()
    counts = d.linking_counts
    return IntMatrix(tuple(
        tuple(ci.framing if i == j
              else _linking_from_counts_oracle(counts, ci.id, cj.id)
              for j, cj in enumerate(surg))
        for i, ci in enumerate(surg)))


def h1_cobordism_oracle(d):
    """H1 from relation rows filled pair by pair in row-major order,
    raising on the first odd pair of a surgery circle with any circle."""
    from cobkit import cokernel

    ids = [c.id for c in d.circles]
    counts = d.linking_counts
    rows = [tuple(s.framing if cid == s.id
                  else _linking_from_counts_oracle(counts, s.id, cid)
                  for cid in ids)
            for s in d.surgery_circles()]
    return cokernel(IntMatrix(tuple(rows)), len(ids))


def h1_closed_oracle(d):
    from cobkit import cokernel
    from cobkit.errors import PreconditionError

    if d.wedges:
        raise PreconditionError("h1_closed needs a diagram with no wedges")
    m = linking_matrix_oracle(d)
    return cokernel(m, m.cols)


def signature_of_diagram_oracle(d):
    from cobkit.errors import PreconditionError

    if d.wedges:
        raise PreconditionError("signature needs a diagram with no wedges")
    return signature_oracle(linking_matrix_oracle(d))


def outcome(f, *args):
    """``("ok", value)``, or ``(exception type, message, location)`` for a
    ``CobkitError``; any other exception propagates."""
    from cobkit.errors import CobkitError

    try:
        return ("ok", f(*args))
    except CobkitError as exc:
        return (type(exc), str(exc), getattr(exc, "location", None))


# -- the per-node parse reader, kept as an oracle -----------------------------

def _at_oracle(where):
    if isinstance(where, str):
        return where
    parent, key = where
    if isinstance(key, int):
        return f"{_at_oracle(parent)}[{key}]"
    return f"{_at_oracle(parent)}.{key}"


def _error_oracle(message, where):
    from cobkit.errors import ParseError

    at = _at_oracle(where)
    return ParseError(f"{message} at {at}", at)


def _int_oracle(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise _error_oracle("expected an integer", where)
    try:
        return int(value)
    except ValueError:
        raise _error_oracle(f"bad integer {value!r}", where) from None


def _typed_oracle(kind, name):
    def read(raw, where):
        if not isinstance(raw, kind):
            raise _error_oracle(f"expected {name}", where)
        return raw
    return read


_object_oracle = _typed_oracle(dict, "an object")
_list_oracle = _typed_oracle(list, "a list")
_string_oracle = _typed_oracle(str, "a string")
_NO_DEFAULT = object()


def _field_oracle(obj, key, read, where, default=_NO_DEFAULT):
    try:
        raw = obj[key]
    except KeyError:
        if default is _NO_DEFAULT:
            raise _error_oracle(f"missing {key!r}", where) from None
        return default
    return read(raw, (where, key))


def _items_oracle(obj, key, read, where, default=()):
    raw = _field_oracle(obj, key, _list_oracle, where, default)
    where = (where, key)
    return tuple(read(item, (where, i)) for i, item in enumerate(raw))


def _event_oracle(raw, where):
    if not isinstance(raw, list) or not raw:
        raise _error_oracle("bad event", where)
    if (raw[0] == "x" and len(raw) == 3 and isinstance(raw[1], str)
            and raw[2] in ("over", "under")):
        return CrossingSlot(raw[1], raw[2])
    if raw[0] == "center" and len(raw) == 2 and raw[1] in ("depart", "return"):
        return DEPART if raw[1] == "depart" else RETURN
    raise _error_oracle(f"bad event {raw!r}", where)


def _circle_oracle(raw, where):
    from cobkit import Circle

    raw = _object_oracle(raw, where)
    cid = _field_oracle(raw, "id", _string_oracle, where)
    events = _items_oracle(raw, "events", _event_oracle, where)
    kind = raw.get("kind")
    if kind == SURGERY:
        return Circle(cid, SURGERY, events,
                      framing=_field_oracle(raw, "framing", _int_oracle,
                                            where, 0))
    if kind == WEDGE:
        return Circle(cid, WEDGE, events,
                      wedge=_field_oracle(raw, "wedge", _string_oracle, where),
                      index=_field_oracle(raw, "index", _int_oracle, where, 0))
    raise _error_oracle(f"unknown circle kind {kind!r}", where)


def _strand_oracle(raw, where):
    if not (isinstance(raw, list) and len(raw) == 2
            and isinstance(raw[0], str)):
        raise _error_oracle("expected [circle id, slot]", where)
    return raw[0], _int_oracle(raw[1], where)


def _crossing_oracle(raw, where):
    from cobkit import Crossing

    raw = _object_oracle(raw, where)
    return Crossing(id=_field_oracle(raw, "id", _string_oracle, where),
                    over=_field_oracle(raw, "over", _strand_oracle, where),
                    under=_field_oracle(raw, "under", _strand_oracle, where),
                    sign=_field_oracle(raw, "sign", _int_oracle, where))


def _wedge_oracle(raw, where):
    from cobkit import Wedge

    raw = _object_oracle(raw, where)
    return Wedge(id=_field_oracle(raw, "id", _string_oracle, where),
                 color=_field_oracle(raw, "color", _string_oracle, where),
                 circle_ids=_items_oracle(raw, "circles", _string_oracle,
                                          where, _NO_DEFAULT))


def parse_oracle(text):
    """``parse`` as the per-node reader did it: one type-checked call per
    JSON node, then ``validate``."""
    from cobkit import Diagram
    from cobkit.errors import ParseError
    from cobkit.io_text import _load_json

    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ParseError("document must be an object", "document")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(
            f"unsupported format_version {version!r} (expected "
            f"{FORMAT_VERSION!r})", "format_version")
    body = doc.get("diagram")
    if not isinstance(body, dict):
        raise ParseError("missing diagram object", "diagram")
    d = Diagram(
        circles=_items_oracle(body, "circles", _circle_oracle, "diagram"),
        crossings=_items_oracle(body, "crossings", _crossing_oracle,
                                "diagram"),
        wedges=_items_oracle(body, "wedges", _wedge_oracle, "diagram"),
        source_order=_items_oracle(body, "source_order", _string_oracle,
                                   "diagram"),
        target_order=_items_oracle(body, "target_order", _string_oracle,
                                   "diagram"))
    report = validate(d)
    if not report.ok:
        first = report.violations[0]
        raise ParseError(
            f"diagram fails validation: {first.code}: {first.message}",
            first.location or "diagram")
    return d


def mutate_document(rng: random.Random, doc):
    """A copy of the JSON document ``doc`` with one to three seeded edits,
    each at a random node: a value of the wrong JSON type, a missing or
    an extra key, a string-valued integer (``" 7"``, ``"1_0"``, ...), a
    bool, a big int, an empty list, or an unknown circle kind, event
    role or event kind."""
    doc = json.loads(json.dumps(doc))
    odd_values = [None, True, False, 0, -1, 7, 2 ** 70, -2 ** 65, 1.5,
                  "", "x", "7", " 7", "1_0", "-3", "0x1", "seven", [],
                  [1, 2], ["x"], {}, {"id": "k1"}]

    def odd():
        # A fresh copy: a list shared by two nodes, or appended to
        # itself by a later edit, would make the document cyclic.
        return copy.deepcopy(rng.choice(odd_values))

    for _ in range(rng.randint(1, 3)):
        nodes = []

        def walk(node):
            if isinstance(node, dict):
                nodes.append(node)
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                nodes.append(node)
                for v in node:
                    walk(v)

        walk(doc)
        node = rng.choice(nodes)
        if isinstance(node, dict):
            keys = sorted(node)
            op = rng.randrange(5)
            if op == 0 and keys:
                del node[rng.choice(keys)]
            elif op == 1:
                node[rng.choice(["extra", "kind", "framing", "index",
                                 "wedge", "events"])] = odd()
            elif op == 2 and "kind" in node:
                node["kind"] = rng.choice(["handle", "Surgery", "wedge",
                                           "surgery", 3])
            elif keys:
                key = rng.choice(keys)
                value = node[key]
                if isinstance(value, int) and not isinstance(value, bool):
                    node[key] = rng.choice([str(value), f" {value}",
                                            f"{value}_0", bool(value),
                                            value + 2 ** 64, float(value)])
                else:
                    node[key] = odd()
        elif node:
            i = rng.randrange(len(node))
            value = node[i]
            op = rng.randrange(4)
            if op == 0:
                del node[i]
            elif op == 1 and isinstance(value, str):
                node[i] = rng.choice(["under", "over", "center", "x",
                                      "depart", "return", "sideways",
                                      value + "'"])
            elif isinstance(value, int) and not isinstance(value, bool):
                node[i] = rng.choice([str(value), f" {value}", f"{value}_0",
                                      True, value + 2 ** 64, [value]])
            else:
                node[i] = odd()
        else:
            node.append(odd())
    return doc


# -- placements found by trial, kept as oracles -------------------------------

def r2_push_oracle(d, m):
    """The R2 push ``apply(d, m)`` must give, found by trial: of the four
    pushes (two chiralities, and the second strand's crossings in either
    order), the first whose code is planar.  Each trial builds an
    editor from ``d``, freezes and validates."""
    from cobkit.editing import DiagramEditor
    from cobkit.errors import MoveError
    from cobkit.moves import _as_dart, _pair
    from cobkit.planarity import CombinatorialMap

    d1, d2 = (_as_dart(d, s) for s in _pair(m.darts, "R2 darts"))
    if (d1.circle, d1.arc) == (d2.circle, d2.arc):
        raise MoveError("R2 darts must lie on distinct arcs", m.darts)
    face_of = CombinatorialMap(d).face_of
    if face_of.get(d1) != face_of.get(d2):
        raise MoveError("R2 darts do not border a common face", m.darts)
    role1 = OVER if m.over else UNDER
    role2 = UNDER if m.over else OVER
    for chirality in (1, -1):
        s = chirality if m.over else -chirality
        for flip in (False, True):
            trial = DiagramEditor(d)
            n1 = trial.new_crossing(s, prefix="r")
            n2 = trial.new_crossing(-s, prefix="r")
            block1 = [CrossingSlot(n1, role1), CrossingSlot(n2, role1)]
            block2 = [CrossingSlot(n2, role2), CrossingSlot(n1, role2)]
            if flip:
                block2.reverse()
            if d1.dir == -1:
                block1.reverse()
            if d2.dir == -1:
                block2.reverse()
            inserts = sorted([(d1.circle, d1.arc + 1, block1),
                              (d2.circle, d2.arc + 1, block2)],
                             key=lambda t: -t[1])
            for cid, at, block in inserts:
                trial.insert_events(cid, at, block)
            out = trial.freeze()
            if validate(out).ok:
                return out
    raise MoveError("R2 darts admit no planar push across this face",
                    m.darts)


def handle_slide_oracle(d, m):
    """The ``HandleSlide`` ``apply(d, m)`` must give, found by trial, for
    band sites with a forward dart on the moving circle: every such site
    (the given one, or all of them face by face, darts in sorted order),
    every gap of the banded arc once the push-off's copies are in, and the
    first splice whose code is planar.  Each trial builds its editor from
    ``d``, freezes and validates."""
    from cobkit.diagram import crossings_between, linking_number
    from cobkit.editing import DiagramEditor
    from cobkit.errors import MoveError
    from cobkit.moves import _as_dart, _pair
    from cobkit.planarity import CombinatorialMap

    for cid in (m.moving, m.over):
        c = d.circle_by_id.get(cid)
        if c is None or not c.is_surgery():
            raise MoveError(
                f"handle slide needs surgery circles, got {cid}", cid)
    if m.moving == m.over:
        raise MoveError("cannot slide a circle over itself")
    if crossings_between(d, m.over, m.over):
        raise MoveError(
            f"companion {m.over} has self-crossings; slides over knotted "
            "parallels are not implemented", m.over)
    if m.site is not None:
        site = tuple(_as_dart(d, s) for s in _pair(m.site, "band site"))
        face_of = CombinatorialMap(d).face_of
        if face_of.get(site[0]) != face_of.get(site[1]):
            raise MoveError("band site darts do not border a common face",
                            m.site)
        if site[0].circle != m.moving or site[1].circle != m.over:
            raise MoveError("band site darts must lie on the sliding "
                            "circles", m.site)
        if site[1].dir != 1:
            raise MoveError("band site must approach the companion from "
                            "its left (forward dart)", m.site)
        assert site[0].dir == 1, "the oracle covers forward moving darts"
        sites = [site]
    else:
        sites = [(a, b) for face in CombinatorialMap(d).faces()
                 for a in sorted(face) for b in sorted(face)
                 if a.circle == m.moving and a.dir == 1
                 and b.circle == m.over and b.dir == 1]
        if not sites:
            raise MoveError(
                f"{m.moving} and {m.over} do not border a common face on "
                "its left; isotope them together first", (m.moving, m.over))
    ci = d.circle(m.moving)
    cj = d.circle(m.over)
    nj = len(cj.events)

    def splice(dart_i, dart_j):
        """The editor with the push-off's copies and twists in, the
        push-off's events, and the gaps of the banded arc."""
        ed = DiagramEditor(d)
        p_events, inserts = [], []
        for k in range(nj):
            ev = cj.events[(dart_j.arc + 1 + k) % nj]
            x = d.crossing(ev.crossing)
            other, slot = x.strand(OVER if ev.role == UNDER else UNDER)
            xid = ed.new_crossing(x.sign, prefix="p")
            p_events.append(CrossingSlot(xid, ev.role))
            inserts.append((other, slot, x.right_to_left(m.over),
                            CrossingSlot(xid, UNDER if ev.role == OVER
                                         else OVER)))
        twists = []
        for _ in range(abs(cj.framing)):
            s = 1 if cj.framing > 0 else -1
            t1 = ed.new_crossing(s, prefix="p")
            t2 = ed.new_crossing(s, prefix="p")
            first, second = (OVER, UNDER) if s == 1 else (UNDER, OVER)
            p_events += [CrossingSlot(t1, first), CrossingSlot(t2, second)]
            twists += [CrossingSlot(t1, second), CrossingSlot(t2, first)]
        for cid, slot, after, ev in sorted(inserts, key=lambda t: -t[1]):
            ed.insert_events(cid, slot + 1 if after else slot, [ev])
        if twists:
            ed.insert_events(m.over, dart_j.arc + 1 if nj else 0, twists)
        ed.set_framing(m.moving, ci.framing + cj.framing
                       + 2 * linking_number(d, m.moving, m.over))
        current = ed.events[m.moving]
        if not ci.events:
            return ed, p_events, [0]
        tail = current.index(ci.events[dart_i.arc])
        if dart_i.arc == len(ci.events) - 1:
            head = len(current)
        else:
            head = current.index(ci.events[dart_i.arc + 1])
        return ed, p_events, range(tail + 1, head + 1)

    for dart_i, dart_j in sites:
        for gap in splice(dart_i, dart_j)[2]:
            trial, p_events, _ = splice(dart_i, dart_j)
            trial.insert_events(m.moving, gap, p_events)
            out = trial.freeze()
            if validate(out).ok:
                return out
    raise MoveError("no planar band anchor on the chosen arc; pick "
                    "another site", m.site)


def find_clasp_oracle(d, a, b):
    """What ``compose._find_clasp(d, a, b)`` must return, by scanning every
    pair of consecutive events on ``a`` and then on ``b`` for the clasp
    pattern: ``(c1, c2, slot_a, slot_b)``, or a ``CompositionError``."""
    from cobkit.diagram import crossings_between
    from cobkit.errors import CompositionError

    ea = d.circle(a).events
    eb = d.circle(b).events
    between = crossings_between(d, a, b)
    if len(between) != 2:
        raise CompositionError(
            f"{a} and {b} cross {len(between)} times, not 2: not an "
            "identity link")
    for sa in range(len(ea) - 1):
        e1, e2 = ea[sa], ea[sa + 1]
        if not (isinstance(e1, CrossingSlot) and isinstance(e2, CrossingSlot)):
            continue
        if {e1.crossing, e2.crossing} != {x.id for x in between}:
            continue
        if not (e1.role == UNDER and e2.role == OVER):
            continue
        for sb in range(len(eb) - 1):
            f1, f2 = eb[sb], eb[sb + 1]
            if not (isinstance(f1, CrossingSlot)
                    and isinstance(f2, CrossingSlot)):
                continue
            if (f1.crossing == e2.crossing and f1.role == UNDER
                    and f2.crossing == e1.crossing and f2.role == OVER
                    and d.crossing(e1.crossing).sign == 1
                    and d.crossing(e2.crossing).sign == 1):
                return e1.crossing, e2.crossing, sa, sb
    raise CompositionError(
        f"{a} and {b} are not in the identity-link configuration")


# -- the relabeling sew, kept as an oracle ------------------------------------

def sew_oracle(dc, u, dd, v):
    """What ``sew(dc, u, dd, v)`` must return or raise, built the way it
    was before it loaded both diagrams into one editor: ``inside_out`` of
    ``dc`` (the interior frozen with the wedge deleted), both diagrams
    relabeled by ``relabel``, and the host's crossings read from its
    relabeled copy."""
    from dataclasses import replace as _replace

    from cobkit.compose import _wedge, inside_out
    from cobkit.diagram import relabel
    from cobkit.editing import DiagramEditor
    from cobkit.errors import CompositionError, GenusMismatchError

    wv = _wedge(dd, v, INCOMING)
    wu = _wedge(dc, u, OUTGOING)
    if wu.genus != wv.genus:
        raise GenusMismatchError(
            f"cannot sew genus {wu.genus} to genus {wv.genus}")
    pattern = inside_out(dc, u)
    plant = relabel(pattern.interior, "c.")
    host = relabel(dd, "d.")
    v_id = "d." + v
    ed = DiagramEditor(host)
    ed.load(plant)
    splices = {}
    for band_index, vcid in enumerate(host.wedge(v_id).circle_ids):
        markers = [_replace(e, strand="c." + e.strand)
                   for e in pattern.bands[band_index]]
        cables = [m for m in markers if m.kind == "traverse"]
        n = len(cables)
        inherited = [(slot, ev) for slot, ev
                     in enumerate(host.circle(vcid).events)
                     if isinstance(ev, CrossingSlot)]
        copies = {}
        for j, (slot, ev) in enumerate(inherited):
            x = host.crossing(ev.crossing)
            if {x.over[0], x.under[0]} == {vcid}:
                raise NotStandardPositionError(
                    f"wedge circle {vcid} has self-crossings")
            for k, cable in enumerate(cables):
                copies[(j, k)] = ed.new_crossing(x.sign * cable.direction,
                                                 prefix="s")
        blocks = []
        for k, cable in enumerate(cables):
            block = [CrossingSlot(copies[(j, k)], ev.role)
                     for j, (slot, ev) in enumerate(inherited)]
            if cable.direction == -1:
                block.reverse()
            blocks.append(block)
            splices.setdefault(cable.strand, []).append(
                (cable.gap, cable.seq, block))
        for j, (slot, ev) in enumerate(inherited):
            x = host.crossing(ev.crossing)
            other_role = UNDER if ev.role == OVER else OVER
            t_cid, t_slot = x.strand(other_role)
            block = [CrossingSlot(copies[(j, k)], other_role)
                     for k in range(n)]
            if not x.right_to_left(vcid):
                block.reverse()
            at = ed.events[t_cid].index(host.circle(t_cid).events[t_slot])
            ed.replace_event(t_cid, at, block)
        for m in markers:
            if m.kind == "traverse":
                continue
            role = OVER if m.kind == "over" else UNDER
            cable_role = UNDER if m.kind == "over" else OVER
            out_block, in_block = [], []
            for cable, block in zip(cables, blocks):
                x_out = ed.new_crossing(m.enter_sign * cable.direction,
                                        prefix="s")
                x_in = ed.new_crossing(-m.enter_sign * cable.direction,
                                       prefix="s")
                out_block.append(CrossingSlot(x_out, role))
                in_block.append(CrossingSlot(x_in, role))
                head = CrossingSlot(x_out, cable_role)
                tail = CrossingSlot(x_in, cable_role)
                if cable.direction == -1:
                    head, tail = tail, head
                block.insert(0, head)
                block.append(tail)
            splices.setdefault(m.strand, []).append(
                (m.gap, m.seq, out_block + list(reversed(in_block))))
    ed.remove_wedge(v_id)
    for strand, blocks in splices.items():
        for gap, seq, block in sorted(blocks, key=lambda t: (-t[0], -t[1])):
            ed.insert_events(strand, gap, block)
    out = ed.freeze()
    rep = validate(out)
    if not rep.ok:
        raise CompositionError(
            f"sewing produced an unrealizable code ({rep.codes()}); the "
            "gluing region is obstructed, simplify the diagrams first")
    return out
