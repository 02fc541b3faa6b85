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

A circle's crossings are read from its own event list and nowhere else.
Finding the excursions into one membrane is one walk along the circle:
each crossing event names the strand met there, that strand's slot and
the position along the circle.  Grouped by strand and sorted by strand
slot, the visits come in strand order, so no strand is walked and no
other crossing of the diagram is looked at.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Diagram, OVER, UNDER, crossings_along
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


def circle_excursions(d: Diagram, cid: str):
    """All excursions of all other circles into the left region of the
    simple closed circle ``cid``, as ``(position, excursion)`` pairs
    ordered along it by the position of :attr:`Excursion.anchor`.  Works
    for surgery circles too (blow-downs need it); membrane semantics for
    wedge circles are the same.  Reads ``cid``'s own events only (see
    the module notes).
    """
    visits = {}       # strand -> [(strand slot, position along cid, crossing)]
    for pos, x, (sid, slot) in crossings_along(d, cid):
        if sid == cid:
            raise NotStandardPositionError(f"circle {cid} has self-crossings")
        visits.setdefault(sid, []).append((slot, pos, x))
    anchored = []
    for sid in sorted(visits):
        anchored += _strand_excursions(d, sid, cid,
                                       sorted(visits[sid], key=lambda v: v[0]))
    anchored.sort(key=lambda t: t[0])
    return anchored


def _strand_excursions(d: Diagram, sid: str, cid: str, visits):
    """Pair one strand's visits to ``cid`` (in strand order) into
    excursions, each with its anchor's position along ``cid``."""
    if len(visits) % 2:
        raise NotStandardPositionError(
            f"strand {sid} crosses {cid} an odd number of times")
    flags = [x.right_to_left(cid) for _, _, x in visits]
    if True not in flags:
        raise NotStandardPositionError(
            f"strand {sid} never enters the membrane of {cid}")
    start = flags.index(True)
    visits = visits[start:] + visits[:start]
    flags = flags[start:] + flags[:start]
    n = len(d.circle(sid).events)
    out = []
    for k in range(0, len(visits), 2):
        if not flags[k] or flags[k + 1]:
            raise NotStandardPositionError(
                f"crossings of {sid} with {cid} do not alternate between "
                "entering and leaving")
        (eslot, epos, ex), (lslot, lpos, lx) = visits[k], visits[k + 1]
        exc = Excursion(
            strand=sid, circle=cid, enter=ex.id, leave=lx.id,
            enter_flag=OVER if ex.over[0] == sid else UNDER,
            leave_flag=OVER if lx.over[0] == sid else UNDER,
            enter_slot=eslot, leave_slot=lslot,
            interior=tuple((eslot + 1 + i) % n
                           for i in range((lslot - eslot - 1) % n)))
        out.append((epos if exc.anchor == ex.id else lpos, exc))
    return out


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


def _membrane_side(dual, seed, cid):
    """Faces reachable in the dual graph from face ``seed`` without
    stepping across circle ``cid``: with ``seed`` on the left of a
    crossing-free simple circle, the faces on its membrane side."""
    seen = {seed}
    frontier = [seed]
    while frontier:
        for g, circle in dual.get(frontier.pop(), ()):
            if circle != cid and g not in seen:
                seen.add(g)
                frontier.append(g)
    return seen


def is_standard_position(d: Diagram) -> bool:
    """Wedge circles pairwise crossing-free and simple, all excursions
    consistent, and no wedge circle inside another's membrane region."""
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
    # Containment: with no mutual crossings each other wedge circle lies
    # wholly on one side; none may sit on the membrane side.  The dual
    # graph is built once, each edge labelled with the circle it crosses,
    # and each circle's seed face is read once and indexed by the wedges
    # it seeds, so each flood fill tests only the faces it reaches.
    from .planarity import CombinatorialMap, Dart, reverse

    face_of = CombinatorialMap(d).face_of
    dual = {}
    for dart, i in face_of.items():
        dual.setdefault(i, []).append((face_of[reverse(dart)], dart.circle))
    seed = {c.id: face_of[Dart(c.id, 0, 1)] for c in wcircles}
    wedges_at = {}
    for c in wcircles:
        wedges_at.setdefault(seed[c.id], set()).add(c.wedge)
    for c in wcircles:
        for f in _membrane_side(dual, seed[c.id], c.id):
            if any(w != c.wedge for w in wedges_at.get(f, ())):
                return False
    return True
