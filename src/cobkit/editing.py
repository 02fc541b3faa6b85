"""Mutable editor used internally by every diagram-rewriting operation.

Public diagram values are immutable; rewrites copy a diagram into an
editor, splice event lists freely, and freeze back.  Event lists are the
source of truth: crossing (circle, slot) references are recomputed at
freeze time, so edits never have to maintain slot indices by hand.

The editor keeps one record per id (a :class:`Circle` header, read for
its kind, framing, wedge and index only, since its events live in
``events``; a :class:`Wedge`; a crossing sign) and is the only writer of
those tables.  ``fresh_id(prefix)`` is ``prefix`` followed
by 1 + the largest n for which ``prefix`` + n, read like the pattern
``prefix(\\d+)$``, is a live circle, crossing or wedge id.  That n is kept
per prefix: the first time the prefix is asked for it is read from the
ids that start with it, every id registered after raises it, and
removing the id that holds it drops it until the next read.  Those ids
are one run of the sorted id list, which the first ``fresh_id`` call
builds by one sort and every registration and removal keeps sorted, so
a read bisects to that run instead of scanning every id.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import replace
from itertools import chain

from .diagram import (DEPART, RETURN, Circle, Crossing, CrossingSlot,
                      Diagram, INCOMING, OVER, UNDER, SURGERY, WEDGE, Wedge)
from .errors import MalformedDiagramError


def _readings(i):
    """Every way to read id ``i`` as a prefix followed by a decimal
    number, as ``(prefix, digits)`` pairs.  Like the pattern
    ``prefix(\\d+)$``, this skips one final newline."""
    body = i[:-1] if i.endswith("\n") else i
    k = len(body)
    while k and body[k - 1].isdecimal():
        k -= 1
    return [(body[:j], body[j:]) for j in range(k, len(body))]


class DiagramEditor:
    def __init__(self, d: Diagram | None = None):
        self.events = {}      # circle id -> list of event objects
        self.circles = {}     # circle id -> Circle header
        self.wedges = {}      # wedge id -> Wedge
        self.signs = {}       # crossing id -> sign
        self.source_order = []
        self.target_order = []
        self._top = {}        # prefix -> its high-water mark (see fresh_id)
        self._sorted = None   # every live id, sorted, once fresh_id is asked
        if d is not None:
            self.load(d)

    def load(self, d: Diagram, prefix=""):
        """Merge ``d`` after what the editor already holds, with ``prefix``
        put before each of its ids (as ``relabel(d, prefix)`` has them);
        they must not clash with the ids already loaded."""
        for c in d.circles:
            header, events = c, c.events
            if prefix:
                header = Circle(prefix + c.id, c.kind, framing=c.framing,
                                wedge=None if c.wedge is None
                                else prefix + c.wedge, index=c.index)
                events = [CrossingSlot(prefix + e.crossing, e.role)
                          if isinstance(e, CrossingSlot) else e
                          for e in c.events]
            self._add_circle(header.id, header, events)
        for w in d.wedges:
            if prefix:
                w = Wedge(prefix + w.id, w.color,
                          tuple(prefix + cid for cid in w.circle_ids))
            self._take(self.wedges, w.id, w)
        for x in d.crossings:
            self._take(self.signs, prefix + x.id, x.sign)
        self.source_order.extend(prefix + w for w in d.source_order)
        self.target_order.extend(prefix + w for w in d.target_order)

    # -- id management ---------------------------------------------------

    def fresh_id(self, prefix):
        top = self._top.get(prefix)
        if top is None:
            if self._sorted is None:
                self._sorted = sorted(
                    chain(self.circles, self.signs, self.wedges))
            ids = self._sorted
            k, top = bisect_left(ids, prefix), 0
            while k < len(ids) and ids[k].startswith(prefix):
                for p, digits in _readings(ids[k]):
                    if p == prefix:
                        top = max(top, int(digits))
                k += 1
            self._top[prefix] = top
        return f"{prefix}{top + 1}"

    def _take(self, table, i, value):
        """The one registration path: store a new id and raise the marks
        of the prefixes it reads as."""
        if i in table:
            raise MalformedDiagramError(f"id {i} already used")
        table[i] = value
        if self._sorted is not None:
            insort(self._sorted, i)
        if self._top:
            for p, digits in _readings(i):
                if p in self._top and int(digits) > self._top[p]:
                    self._top[p] = int(digits)

    def _drop(self, table, i):
        """The one removal path: forget an id, and the marks it held."""
        value = table.pop(i)
        if self._sorted is not None:
            del self._sorted[bisect_left(self._sorted, i)]
        if self._top:
            for p, digits in _readings(i):
                if self._top.get(p) == int(digits):
                    del self._top[p]
        return value

    # -- circle / wedge management ----------------------------------------

    def _add_circle(self, cid, header, events):
        self._take(self.circles, cid, header)
        self.events[cid] = list(events)

    def _boundary(self, color):
        return self.source_order if color == INCOMING else self.target_order

    def add_surgery_circle(self, cid, framing, events=()):
        self._add_circle(cid, Circle(cid, SURGERY, framing=framing), events)
        return cid

    def add_wedge(self, wid, color, circle_ids):
        self._take(self.wedges, wid, Wedge(wid, color, tuple(circle_ids)))
        for i, cid in enumerate(circle_ids, start=1):
            self._add_circle(cid, Circle(cid, WEDGE, wedge=wid, index=i),
                             [DEPART, RETURN])
        self._boundary(color).append(wid)
        return wid

    def set_framing(self, cid, framing):
        self.circles[cid] = replace(self.circles[cid], framing=framing)

    def remove_circle(self, *cids):
        """Delete circles and every crossing they take part in; the other
        strands through those crossings reconnect straight."""
        dead = set()
        for cid in cids:
            dead.update(e.crossing for e in self.events.pop(cid)
                        if isinstance(e, CrossingSlot))
            self._drop(self.circles, cid)
        self.remove_crossings(*dead)

    def remove_crossings(self, *xids):
        """Delete crossings: both events of each, and its sign."""
        dead = set(xids)
        for xid in dead & self.signs.keys():
            self._drop(self.signs, xid)
        for cid, evs in self.events.items():
            self.events[cid] = [e for e in evs if not (
                isinstance(e, CrossingSlot) and e.crossing in dead)]

    def remove_wedge(self, wid):
        """Delete a wedge with its circles and their crossings."""
        w = self._drop(self.wedges, wid)
        self.remove_circle(*w.circle_ids)
        self._boundary(w.color).remove(wid)

    def surgerize(self, cid, framing):
        """Turn a wedge circle into a 0-events-at-center surgery circle."""
        self.events[cid] = [e for e in self.events[cid]
                            if isinstance(e, CrossingSlot)]
        self.circles[cid] = Circle(cid, SURGERY, framing=framing)

    def drop_wedge_keep_circles(self, wid, framing=0):
        """Delete a wedge center, converting its circles to surgery data."""
        w = self._drop(self.wedges, wid)
        for cid in w.circle_ids:
            self.surgerize(cid, framing)
        self._boundary(w.color).remove(wid)

    # -- event surgery -----------------------------------------------------

    def new_crossing(self, sign, prefix="x"):
        xid = self.fresh_id(prefix)
        self._take(self.signs, xid, sign)
        return xid

    def insert_events(self, cid, at, new_events):
        self.events[cid][at:at] = list(new_events)

    def replace_event(self, cid, at, new_events):
        self.events[cid][at:at + 1] = list(new_events)

    # -- freezing ----------------------------------------------------------

    def freeze(self) -> Diagram:
        circles = tuple(
            Circle(cid, SURGERY, tuple(self.events[cid]), h.framing)
            if h.is_surgery() else
            Circle(cid, WEDGE, tuple(self.events[cid]), wedge=h.wedge,
                   index=h.index)
            for cid, h in self.circles.items())
        refs = {}
        for c in circles:
            for slot, e in enumerate(c.events):
                if isinstance(e, CrossingSlot):
                    key = (e.crossing, e.role)
                    if key in refs:
                        raise MalformedDiagramError(
                            f"crossing {e.crossing} has two {e.role} events")
                    refs[key] = (c.id, slot)
        crossings = []
        for xid in sorted(self.signs):
            try:
                over, under = refs[(xid, OVER)], refs[(xid, UNDER)]
            except KeyError:
                raise MalformedDiagramError(
                    f"crossing {xid} is missing an over or under event")
            crossings.append(Crossing(id=xid, over=over, under=under,
                                      sign=self.signs[xid]))
        return Diagram(circles, tuple(crossings),
                       tuple(self.wedges.values()),
                       tuple(self.source_order), tuple(self.target_order))


def slot_after_removal(events, slot, dead):
    """Where slot ``slot`` of the event list ``events`` lands once the
    crossings in ``dead`` are removed: the number of events before it
    that are not crossings in ``dead``."""
    return sum(1 for e in events[:slot]
               if not (isinstance(e, CrossingSlot) and e.crossing in dead))


def clasp_events(editor: DiagramEditor, a, at_a, b, at_b, prefix="x",
                 sign=1):
    """Install the identity clasp between circles ``a`` and ``b``.

    Inserts ``[c1 under, c2 over]`` on ``a`` at slot ``at_a`` and
    ``[c2 under, c1 over]`` on ``b`` at ``at_b``; both crossings have sign
    ``sign``.  With +1 this links the circles once positively and
    pierces each membrane once; -1 gives the mirror clasp.
    """
    c1 = editor.new_crossing(sign, prefix)
    c2 = editor.new_crossing(sign, prefix)
    editor.insert_events(a, at_a, [CrossingSlot(c1, UNDER),
                                   CrossingSlot(c2, OVER)])
    editor.insert_events(b, at_b, [CrossingSlot(c2, UNDER),
                                   CrossingSlot(c1, OVER)])
    return c1, c2


def borromean_motif_events(editor: DiagramEditor, prefix="x"):
    """Fresh crossings and per-role event lists for one Borromean motif.

    Roles a, b, c are three circles pairwise linking zero, with a over b,
    b over c, c over a; the six crossings alternate along each circle.
    Returns (events_a, events_b, events_c).
    """
    ab_o = editor.new_crossing(-1, prefix)
    ab_i = editor.new_crossing(1, prefix)
    bc_o = editor.new_crossing(-1, prefix)
    bc_i = editor.new_crossing(1, prefix)
    ca_o = editor.new_crossing(-1, prefix)
    ca_i = editor.new_crossing(1, prefix)
    ev_a = [CrossingSlot(ab_o, OVER), CrossingSlot(ca_i, UNDER),
            CrossingSlot(ab_i, OVER), CrossingSlot(ca_o, UNDER)]
    ev_b = [CrossingSlot(bc_o, OVER), CrossingSlot(ab_i, UNDER),
            CrossingSlot(bc_i, OVER), CrossingSlot(ab_o, UNDER)]
    ev_c = [CrossingSlot(ca_o, OVER), CrossingSlot(bc_i, UNDER),
            CrossingSlot(ca_i, OVER), CrossingSlot(bc_o, UNDER)]
    return ev_a, ev_b, ev_c
