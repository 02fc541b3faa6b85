"""Shared fixtures: the standard-position diagram corpus and a seeded
random diagram generator used by the property tests."""

from __future__ import annotations

import random
import re

import pytest

from cobkit import (borromean, hopf, identity_diagram, mend,
                    overpass_circle, sigma_g_s1_link, stacked_rings, tensor,
                    thread_circle, trefoil, unknot, validate, wedge_row)
from cobkit.diagram import CrossingSlot, OVER, UNDER
from cobkit.errors import NotStandardPositionError
from cobkit.membranes import Excursion


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


def random_valid_move(rng: random.Random, d):
    """A uniformly chosen applicable move for ``d``; None when the
    candidate pool is empty."""
    from cobkit import BlowUp, HandleSlide, R1, R2, Twist, apply
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
    outs = [w.id for w in d.wedges if w.color == "outgoing"]
    ins = [w.id for w in d.wedges if w.color == "incoming"]
    for u in outs:
        for v in ins:
            if d.wedge(u).genus == d.wedge(v).genus:
                candidates.append(Twist(incoming=v, outgoing=u))
    rng.shuffle(candidates)
    for mv in candidates:
        try:
            return mv, apply(d, mv)
        except MoveError:
            continue
    return None
