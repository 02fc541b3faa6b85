"""Membranes of wedge circles: piercings, excursions, standard position.

Every wedge circle is drawn as a simple closed curve, oriented so that
its spanning disk (the *membrane*) lies on the left of the traversal.
A strand crossing the circle therefore either enters or leaves the
membrane region, and which one is decided locally by the crossing:

    enters  <=>  the strand crosses the circle from right to left,

which is :meth:`cobkit.diagram.Crossing.right_to_left`.

Successive crossings of one strand with the circle pair up into
*excursions* (enter, then leave).  An excursion whose two crossings have
mixed over/under flags passes through the membrane once -- a piercing,
signed by the crossing where the strand dives under.  Equal flags mean
the strand sails over (or under) the disk and contributes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import (CrossingSlot, Diagram, OVER, UNDER,
                      crossings_between)
from .errors import NotStandardPositionError, NotWedgeCircleError


@dataclass(frozen=True)
class Piercing:
    """One transverse pass of ``strand`` through the membrane of
    ``wedge_circle``; ``order_key`` is the anchor crossing's position along
    the wedge circle counted from its depart slot."""

    strand: str
    wedge_circle: str
    sign: int
    order_key: int


@dataclass(frozen=True)
class Excursion:
    """A maximal arc of ``strand`` inside the membrane region of ``circle``.

    ``enter``/``leave`` are crossing ids; ``enter_flag``/``leave_flag`` are
    the strand's roles there; ``enter_slot``/``leave_slot`` index the
    strand's event list; ``interior`` lists the strand's event slots
    strictly between them.
    """

    strand: str
    circle: str
    enter: str
    leave: str
    enter_flag: str
    leave_flag: str
    enter_slot: int
    leave_slot: int
    interior: tuple

    @property
    def is_piercing(self):
        return self.enter_flag != self.leave_flag

    @property
    def anchor(self):
        """The crossing that places the excursion along the circle: for a
        piercing, the one where the strand dives under the circle (its
        sign is the piercing's sign); otherwise the entering crossing."""
        if self.is_piercing:
            return self.enter if self.enter_flag == UNDER else self.leave
        return self.enter

    def kind(self):
        if self.is_piercing:
            return "traverse"
        return "over" if self.enter_flag == OVER else "under"


def is_simple(d: Diagram, cid: str) -> bool:
    """True when the circle's projection has no self-crossings."""
    return not crossings_between(d, cid, cid)


def excursions_into(d: Diagram, strand_id: str, membrane_circle: str):
    """The strand's excursions into the membrane region, in strand order.

    Requires the enter/leave classification to alternate along the strand
    (always true of a planar code in which the wedge circle is simple).
    """
    strand = d.circle(strand_id)
    visits = []
    for slot, ev in enumerate(strand.events):
        if not isinstance(ev, CrossingSlot):
            continue
        x = d.crossing(ev.crossing)
        other = x.strand(OVER if ev.role == UNDER else UNDER)[0]
        if other == membrane_circle:
            visits.append((slot, ev))
    if not visits:
        return []
    if len(visits) % 2:
        raise NotStandardPositionError(
            f"strand {strand_id} crosses {membrane_circle} an odd number of times")

    flags = [d.crossing(ev.crossing).right_to_left(membrane_circle)
             for _, ev in visits]
    if True not in flags:
        raise NotStandardPositionError(
            f"strand {strand_id} never enters the membrane of {membrane_circle}")
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
    out.sort(key=lambda e: e.enter_slot)
    return out


def membrane_position(d: Diagram, membrane_circle: str, xid: str) -> int:
    """Position of crossing ``xid`` along the wedge circle from its depart."""
    c = d.circle(membrane_circle)
    for slot, ev in enumerate(c.events):
        if isinstance(ev, CrossingSlot) and ev.crossing == xid:
            return slot
    raise NotStandardPositionError(
        f"crossing {xid} is not on circle {membrane_circle}")


def circle_excursions(d: Diagram, cid: str):
    """All excursions of all other circles into the left region of the
    simple closed circle ``cid``, ordered along it by
    :attr:`Excursion.anchor`.  Works for surgery circles too (blow-downs
    need it); membrane semantics for wedge circles are the same.
    """
    if not is_simple(d, cid):
        raise NotStandardPositionError(f"circle {cid} has self-crossings")
    strands = sorted({x.over[0] if x.under[0] == cid else x.under[0]
                      for x in d.crossings
                      if cid in (x.over[0], x.under[0])
                      and {x.over[0], x.under[0]} != {cid}})
    anchored = []
    for sid in strands:
        for exc in excursions_into(d, sid, cid):
            anchored.append((membrane_position(d, cid, exc.anchor), exc))
    anchored.sort(key=lambda t: t[0])
    return anchored


def membrane_excursions(d: Diagram, cid: str):
    """Excursions into the membrane of a *wedge* circle (see
    :func:`circle_excursions`)."""
    if not d.circle(cid).is_wedge():
        raise NotWedgeCircleError(f"circle {cid} is not a wedge circle")
    return circle_excursions(d, cid)


def piercings(d: Diagram, cid: str):
    """Signed piercings of the membrane of wedge circle ``cid``.

    The signed count per strand equals its linking number with the
    circle; the list is ordered along the circle from its depart slot.
    """
    out = []
    for pos, exc in membrane_excursions(d, cid):
        if not exc.is_piercing:
            continue
        out.append(Piercing(strand=exc.strand, wedge_circle=cid,
                            sign=d.crossing(exc.anchor).sign,
                            order_key=pos))
    return out


def membrane_side_faces(m, cid: str):
    """Faces of the map ``m`` on the membrane side of a crossing-free
    simple wedge circle.

    Used to decide region containment between non-crossing wedge circles:
    the membrane side is the set of faces reachable in the dual graph
    without stepping across the circle, starting from its left.
    """
    from .planarity import Dart, reverse

    face_of = m.face_of
    adjacency = {}
    for dart, i in face_of.items():
        if dart.circle == cid:
            continue
        j = face_of[reverse(dart)]
        adjacency.setdefault(i, set()).add(j)
    seed = face_of[Dart(cid, 0, 1)]
    seen = {seed}
    frontier = [seed]
    while frontier:
        f = frontier.pop()
        for g in adjacency.get(f, ()):
            if g not in seen:
                seen.add(g)
                frontier.append(g)
    return seen


def is_standard_position(d: Diagram) -> bool:
    """Wedge circles pairwise crossing-free and simple, all excursions
    consistent, and no wedge circle inside another's membrane region."""
    wcircles = d.wedge_circles()
    for c in wcircles:
        if not is_simple(d, c.id):
            return False
    for i, a in enumerate(wcircles):
        for b in wcircles[i + 1:]:
            if crossings_between(d, a.id, b.id):
                return False
    for c in wcircles:
        try:
            membrane_excursions(d, c.id)
        except NotStandardPositionError:
            return False
    # Containment: with no mutual crossings each other wedge circle lies
    # wholly on one side; none may sit on the membrane side.
    from .planarity import CombinatorialMap, Dart

    if not wcircles:
        return True
    m = CombinatorialMap(d)
    for c in wcircles:
        inside = membrane_side_faces(m, c.id)
        for other in wcircles:
            if other.id == c.id or other.wedge == c.wedge:
                continue
            if m.face_of[Dart(other.id, 0, 1)] in inside:
                return False
    return True
