"""Canonical forms for diagrams, giving exact isomorphism tests.

Two diagrams are structurally isomorphic when some relabeling of circles,
crossings and wedges (plus a cyclic rotation of each surgery circle's
event list) carries one onto the other, preserving kinds, framings,
colors, boundary orders, wedge circle orders and rotation data.

The form is read by a forced walk: fix one circle and the slot to read
it from, and every other label is forced, since each crossing event
names the one partner strand and slot it meets.  Circles are labelled as
first met and read from the slot where they were met (wedge circles from
their depart slot); each event is coded by role, sign, partner label and
partner slot.  A component holding a wedge circle is read once, from its
first wedge circle in boundary order; any other takes its smallest code
over all (circle, slot) starts: O(E^2) for E events, in the worst case.
The form is the boundary header and the sorted component codes.
"""

from __future__ import annotations

from .diagram import CenterSlot, Diagram, crossings_along
from .invariants import boundary_profile


def _walk(d: Diagram, slots, start, rot):
    """Code of the component of ``start`` read from slot ``rot``, and the
    circles met; ``slots`` maps a circle id to its head and events."""
    label, read_from, code = {start: 0}, [(start, rot)], []
    for cid, r in read_from:
        head, events = slots[cid]
        code.append(head)
        n = len(events)
        for k in range(n):
            e = events[(r + k) % n]
            if len(e) == 2:                       # a center slot
                code.append(e)
                continue
            role, sign, other, at = e
            if other not in label:
                label[other] = len(read_from)
                read_from.append(
                    (other, at if d.circle(other).is_surgery() else 0))
            start_at = read_from[label[other]][1]
            code.append((3, role, sign, label[other],
                         (at - start_at) % len(slots[other][1])))
    return tuple(code), label


def canonical_form(d: Diagram):
    """A hashable value equal for two diagrams iff they are isomorphic."""
    boundary = list(d.source_order) + list(d.target_order)
    position = {w: i for i, w in enumerate(boundary)}
    slots = {}                # circle id -> (head, per-slot event codes)
    for c in d.circles:
        events = [(2, 0 if e.which == "depart" else 1)
                  if isinstance(e, CenterSlot) else None for e in c.events]
        for slot, x, other in crossings_along(d, c.id):
            events[slot] = (0 if x.over == (c.id, slot) else 1, x.sign) + other
        slots[c.id] = ((0, c.framing, len(events)) if c.is_surgery() else
                       (1, position[c.wedge], c.index, len(events)), events)
    codes, seen = [], set()
    for cid in (cid for w in boundary for cid in d.wedge(w).circle_ids):
        if cid not in seen:
            code, met = _walk(d, slots, cid, 0)
            codes.append(code)
            seen.update(met)
    for c in d.circles:
        if c.id not in seen:
            met = _walk(d, slots, c.id, 0)[1]
            codes.append(min(_walk(d, slots, s, r)[0] for s in met
                             for r in range(len(slots[s][1])) or (0,)))
            seen.update(met)
    header = boundary_profile(d) + (len(d.circles), len(d.crossings))
    return header + (tuple(sorted(codes)),)


def structural_iso(d1: Diagram, d2: Diagram) -> bool:
    """Exact isomorphism of diagrams by canonical-form comparison."""
    return canonical_form(d1) == canonical_form(d2)
