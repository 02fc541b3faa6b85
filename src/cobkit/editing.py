"""Mutable editor used internally by every diagram-rewriting operation.

Public diagram values are immutable; rewrites copy a diagram into an
editor, splice event lists freely, and freeze back.  Event lists are the
source of truth: crossing (circle, slot) references are recomputed at
freeze time, so edits never have to maintain slot indices by hand.
"""

from __future__ import annotations

import re

from .diagram import (CenterSlot, Circle, Crossing, CrossingSlot, Diagram,
                      OVER, UNDER, SURGERY, WEDGE, Wedge)
from .errors import MalformedDiagramError


class DiagramEditor:
    def __init__(self, d: Diagram | None = None):
        self.events = {}      # circle id -> list of event objects
        self.kind = {}        # circle id -> SURGERY | WEDGE
        self.framing = {}
        self.wedge_of = {}    # wedge circle id -> (wedge id, index)
        self.circle_order = []
        self.wedges = {}      # wedge id -> (color, [circle ids])
        self.wedge_order = []
        self.signs = {}       # crossing id -> sign
        self.source_order = []
        self.target_order = []
        if d is not None:
            self.load(d)

    def copy(self) -> "DiagramEditor":
        twin = DiagramEditor()
        twin.events = {k: list(v) for k, v in self.events.items()}
        twin.kind = dict(self.kind)
        twin.framing = dict(self.framing)
        twin.wedge_of = dict(self.wedge_of)
        twin.circle_order = list(self.circle_order)
        twin.wedges = {k: (c, list(v)) for k, (c, v) in self.wedges.items()}
        twin.wedge_order = list(self.wedge_order)
        twin.signs = dict(self.signs)
        twin.source_order = list(self.source_order)
        twin.target_order = list(self.target_order)
        return twin

    def load(self, d: Diagram):
        """Merge ``d`` after what the editor already holds; its ids must
        not clash with the ones already loaded."""
        for c in d.circles:
            self.circle_order.append(c.id)
            self.events[c.id] = list(c.events)
            self.kind[c.id] = c.kind
            if c.is_surgery():
                self.framing[c.id] = c.framing
            else:
                self.wedge_of[c.id] = (c.wedge, c.index)
        for w in d.wedges:
            self.wedges[w.id] = (w.color, list(w.circle_ids))
            self.wedge_order.append(w.id)
        for x in d.crossings:
            self.signs[x.id] = x.sign
        self.source_order.extend(d.source_order)
        self.target_order.extend(d.target_order)

    # -- id management ---------------------------------------------------

    def fresh_id(self, prefix):
        taken = set(self.circle_order) | set(self.signs) | set(self.wedges)
        pattern = re.compile(re.escape(prefix) + r"(\d+)$")
        top = 0
        for i in taken:
            m = pattern.match(i)
            if m:
                top = max(top, int(m.group(1)))
        return f"{prefix}{top + 1}"

    # -- circle / wedge management ----------------------------------------

    def add_surgery_circle(self, cid, framing, events=()):
        if cid in self.events:
            raise MalformedDiagramError(f"circle id {cid} already used")
        self.circle_order.append(cid)
        self.events[cid] = list(events)
        self.kind[cid] = SURGERY
        self.framing[cid] = framing
        return cid

    def add_wedge(self, wid, color, circle_ids):
        self.wedges[wid] = (color, list(circle_ids))
        self.wedge_order.append(wid)
        for i, cid in enumerate(circle_ids, start=1):
            self.circle_order.append(cid)
            self.events[cid] = [CenterSlot("depart"), CenterSlot("return")]
            self.kind[cid] = WEDGE
            self.wedge_of[cid] = (wid, i)
        (self.source_order if color == "incoming"
         else self.target_order).append(wid)
        return wid

    def remove_circle(self, cid, drop_crossings=True):
        """Delete a circle; crossings it participated in are removed from
        every other event list (their strands reconnect straight)."""
        dead = {e.crossing for e in self.events[cid]
                if isinstance(e, CrossingSlot)}
        del self.events[cid]
        self.circle_order.remove(cid)
        self.kind.pop(cid)
        self.framing.pop(cid, None)
        self.wedge_of.pop(cid, None)
        if drop_crossings:
            for xid in dead:
                self.signs.pop(xid, None)
            for other, evs in self.events.items():
                self.events[other] = [
                    e for e in evs
                    if not (isinstance(e, CrossingSlot) and e.crossing in dead)]

    def remove_wedge(self, wid, drop_crossings=True):
        color, cids = self.wedges.pop(wid)
        self.wedge_order.remove(wid)
        for cid in cids:
            self.remove_circle(cid, drop_crossings=drop_crossings)
        order = self.source_order if color == "incoming" else self.target_order
        order.remove(wid)

    def surgerize(self, cid, framing):
        """Turn a wedge circle into a 0-events-at-center surgery circle."""
        self.events[cid] = [e for e in self.events[cid]
                            if isinstance(e, CrossingSlot)]
        self.kind[cid] = SURGERY
        self.framing[cid] = framing
        self.wedge_of.pop(cid, None)

    def drop_wedge_keep_circles(self, wid, framing=0):
        """Delete a wedge center, converting its circles to surgery data."""
        color, cids = self.wedges.pop(wid)
        self.wedge_order.remove(wid)
        for cid in cids:
            self.surgerize(cid, framing)
        order = self.source_order if color == "incoming" else self.target_order
        order.remove(wid)
        return cids

    # -- event surgery -----------------------------------------------------

    def new_crossing(self, sign, prefix="x"):
        xid = self.fresh_id(prefix)
        self.signs[xid] = sign
        return xid

    def slot_of(self, cid, xid, role):
        for i, e in enumerate(self.events[cid]):
            if isinstance(e, CrossingSlot) and e.crossing == xid and e.role == role:
                return i
        raise MalformedDiagramError(f"no ({xid}, {role}) event on {cid}")

    def remove_events(self, cid, pred):
        """Drop events matching ``pred``; returns how many were dropped."""
        old = self.events[cid]
        kept = [e for e in old if not pred(e)]
        self.events[cid] = kept
        return len(old) - len(kept)

    def insert_events(self, cid, at, new_events):
        self.events[cid][at:at] = list(new_events)

    def replace_event(self, cid, at, new_events):
        self.events[cid][at:at + 1] = list(new_events)

    # -- freezing ----------------------------------------------------------

    def freeze(self) -> Diagram:
        circles = []
        for cid in self.circle_order:
            if self.kind[cid] == SURGERY:
                circles.append(Circle(id=cid, kind=SURGERY,
                                      events=tuple(self.events[cid]),
                                      framing=self.framing[cid]))
            else:
                wid, idx = self.wedge_of[cid]
                circles.append(Circle(id=cid, kind=WEDGE,
                                      events=tuple(self.events[cid]),
                                      wedge=wid, index=idx))
        refs = {}
        for cid in self.circle_order:
            for slot, e in enumerate(self.events[cid]):
                if isinstance(e, CrossingSlot):
                    key = (e.crossing, e.role)
                    if key in refs:
                        raise MalformedDiagramError(
                            f"crossing {e.crossing} has two {e.role} events")
                    refs[key] = (cid, slot)
        crossings = []
        for xid in sorted(self.signs):
            try:
                over, under = refs[(xid, OVER)], refs[(xid, UNDER)]
            except KeyError:
                raise MalformedDiagramError(
                    f"crossing {xid} is missing an over or under event")
            crossings.append(Crossing(id=xid, over=over, under=under,
                                      sign=self.signs[xid]))
        wedges = tuple(Wedge(id=wid, color=self.wedges[wid][0],
                             circle_ids=tuple(self.wedges[wid][1]))
                       for wid in self.wedge_order)
        return Diagram(tuple(circles), tuple(crossings), wedges,
                       tuple(self.source_order), tuple(self.target_order))


def clasp_events(editor: DiagramEditor, a, at_a, b, at_b, prefix="x"):
    """Install the positive identity clasp between circles ``a`` and ``b``.

    Inserts ``[c1 under, c2 over]`` on ``a`` at slot ``at_a`` and
    ``[c2 under, c1 over]`` on ``b`` at ``at_b``; both crossings have sign
    +1, which links the circles once positively and pierces each membrane
    once.
    """
    c1 = editor.new_crossing(1, prefix)
    c2 = editor.new_crossing(1, prefix)
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
