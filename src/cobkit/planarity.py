"""Combinatorial-map realization of a diagram and the validator.

The projection of a diagram is a 4-valent map (crossings) with extra
vertices of valence 2g (wedge centers).  We realize it as a rotation
system on *darts*:

* an arc is a strand segment between two consecutive events of a circle
  (wedge circles have no arc across the center: their event lists run
  depart ... return, giving ``len(events) - 1`` arcs);
* a dart is a directed arc end: arc ``k`` (counting circle by circle)
  owns dart ``2k`` (dir +1) and ``2k + 1`` (dir -1), so ``reverse`` is
  ``d ^ 1``; its ``Dart`` view is ``(circle, arc_index, +1/-1)``;
* the rotation at a crossing is forced by its sign:
  counterclockwise ``(under_in, over_out, under_out, over_in)`` for +1
  and ``(under_in, over_in, under_out, over_out)`` for -1;
* the rotation at a wedge center is the fixed
  ``(out_1, in_1, ..., out_g, in_g)``.

Faces are the orbits of ``next_in_face(d) = prev[d ^ 1]``, where
``prev[d]`` is the dart before ``d`` in the rotation at its vertex; each
face is the boundary walk with the face on the *left*.  A code is
realizable in the sphere exactly when every connected component with at
least one dart satisfies V - E + F = 2.

Circles with no events at all (free loops) get a phantom base vertex so
that they contribute one edge and two faces, like an embedded circle.
``validate`` reads only the lists ``base`` and ``prev`` (Lando and Zvonkin,
*Graphs on Surfaces*, 2004, 1.3); the ``Dart`` views are built on first use.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count
from operator import attrgetter

from .diagram import (DEPART, RETURN, CenterSlot, CrossingSlot, Diagram,
                      OVER, UNDER, INCOMING, OUTGOING, SURGERY, WEDGE)
from .errors import MalformedDiagramError

Dart = namedtuple("Dart", ["circle", "arc", "dir"])


def circle_arcs(circle):
    """Arc count for one circle (see module docstring for conventions)."""
    n = len(circle.events)
    if n == 0:
        return 1          # free loop: one closed arc through the phantom base
    if circle.is_wedge():
        return n - 1      # no arc across the center
    return n


def arc_endpoints(d: Diagram, circle, arc):
    """(tail event index, head event index) of an arc, None for a phantom
    free-loop end."""
    n = len(circle.events)
    if n == 0:
        return (None, None)
    if circle.is_wedge():
        return (arc, arc + 1)
    return (arc, (arc + 1) % n)


def reverse(dart: Dart) -> Dart:
    return Dart(dart.circle, dart.arc, -dart.dir)


class CombinatorialMap:
    """Rotation system of a diagram; built once, queried for faces."""

    def __init__(self, d: Diagram):
        self.diagram = d
        # Vertices in rotation order: free loops, crossings, wedges; a name
        # only an event gives is a vertex with no rotation.
        index, size = {}, 0
        for tag, names in (("o", [c.id for c in d.circles if not c.events]),
                           ("x", map(attrgetter("id"), d.crossings)),
                           ("w", map(attrgetter("id"), d.wedges))):
            index[tag] = table = defaultdict(
                lambda: next(unnamed),
                zip(dict.fromkeys(names), count(size)))
            size += len(table)
        self.rot = rot = [()] * size    # vertex -> its rotation
        self._index, unnamed = index, count(size)
        # Base vertex of every dart: the tail event of 2k, the head of 2k+1.
        at_crossing, at_wedge = index["x"], index["w"]
        self.base = base = []
        spans = {}    # circle id -> (its first dart, its arc count)
        for c in d.circles:
            events = c.events
            spans[c.id] = (len(base), circle_arcs(c))
            if not events:
                v = index["o"][c.id]
                rot[v] = (len(base), len(base) + 1)
                base += (v, v)
                continue
            vs = [at_crossing[e.crossing] if isinstance(e, CrossingSlot)
                  else at_wedge[c.wedge] for e in events]
            heads = vs[1:] if c.is_wedge() else vs[1:] + vs[:1]
            base += chain.from_iterable(zip(vs, heads))

        dangling = []    # a rotation's slots with no arc, as Darts

        def dart(cid, arc, sign):
            first, arcs = spans[cid]
            if 0 <= arc < arcs:
                return first + 2 * arc + (sign < 0)
            dangling.append(Dart(cid, arc, sign))
            return dangling[-1]

        def incident(ref):
            """(incoming dart, outgoing dart) of the strand at ``ref``."""
            cid, slot = ref
            events = d.circle(cid).events
            if not 0 <= slot < len(events) or not isinstance(events[slot],
                                                             CrossingSlot):
                raise MalformedDiagramError(
                    f"crossing reference ({cid}, {slot}) is not a crossing "
                    "slot")
            first, arcs = spans[cid]    # len(events) - 1 on a wedge circle
            arc_in = slot - 1 if arcs < len(events) else (slot - 1) % arcs
            if 0 <= arc_in and slot < arcs:
                return first + 2 * arc_in + 1, first + 2 * slot
            return dart(cid, arc_in, -1), dart(cid, slot, 1)

        # Crossing rotations, forced by sign.
        for x in d.crossings:
            oin, oout = incident(x.over)
            uin, uout = incident(x.under)
            rot[at_crossing[x.id]] = ((uin, oout, uout, oin) if x.sign == 1
                                      else (uin, oin, uout, oout))

        # Wedge center rotations.  Incoming: (out_1, in_1, ..., out_g, in_g)
        # counterclockwise.  Outgoing: the circles come in reversed order,
        # (out_g, in_g, ..., out_1, in_1), each radius pair still
        # consecutive and codirected.  The reversed reading on the outgoing
        # side is the trace of the orientation-reversing identification of
        # target surfaces; with both centers read identically, an identity
        # link of wedges would be forced onto a torus for genus >= 3.
        for w in d.wedges:    # (d.circle raises on an unknown circle)
            pairs = [(dart(cid, 0, 1), dart(cid, spans[cid][1] - 1, -1))
                     for cid in w.circle_ids if d.circle(cid)]
            if w.color == OUTGOING:
                pairs.reverse()
            rot[at_wedge[w.id]] = tuple(x for p in pairs for x in p)

        for v, r in enumerate(rot if dangling else ()):
            for x in r:
                if isinstance(x, Dart):
                    raise MalformedDiagramError(
                        f"dangling slot at {self.keys[v]}: {x}")

        # prev[d]: the dart before d's first place in its base's rotation.
        prev = [-1] * len(base)
        for v, r in enumerate(rot):
            p = r[-1] if r else None
            for x in r:
                if prev[x] < 0 and base[x] == v:
                    prev[x] = p
                p = x
        if -1 in prev:
            i = prev.index(-1)
            raise MalformedDiagramError(
                f"dangling slot: dart {self._darts[i]} points at "
                f"{self.keys[base[i]]}, which does not rotate through it")
        self.prev = prev

    def next_in_face(self, d: int) -> int:
        return self.prev[d ^ 1]

    @cached_property
    def _walks(self):
        """Face boundary walks over integer darts, in first-dart order."""
        prev, out = self.prev, []
        seen = bytearray(len(prev))
        for d0 in range(len(prev)):
            face, cur = [], d0
            while not seen[cur]:
                seen[cur] = 1
                face.append(cur)
                cur = prev[cur ^ 1]
            if cur != d0:
                raise MalformedDiagramError(
                    "face tracing revisited a dart: "
                    "rotation system is inconsistent")
            if face:
                out.append(face)
        return out

    @cached_property
    def _component(self):
        """Component of every rotating vertex, named by its least vertex."""
        parent = list(range(len(self.rot)))
        for a, b in zip(self.base[::2], self.base[1::2]):
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
        for v, p in enumerate(parent):    # p <= v, so parent[p] is a root
            parent[v] = parent[p]
        return parent

    def euler_by_component(self):
        """[(vertices, edges, faces, characteristic)] per dart-ful component;
        isolated vertices (genus-0 centers) are skipped."""
        comp, base = self._component, self.base
        stats = {}    # in a component with an arc, every vertex rotates
        for v, c in enumerate(comp):
            if self.rot[v]:
                stats.setdefault(c, [0, 0, 0])[0] += 1
        for b in base[::2]:
            stats[comp[b]][1] += 1
        for face in self._walks:
            stats[comp[base[face[0]]]][2] += 1
        return [(v, e, f, v - e + f) for v, e, f in stats.values()]

    @cached_property
    def keys(self):
        """Vertex -> its name, ``("o" | "x" | "w", id)``."""
        return {v: (tag, name) for tag, table in self._index.items()
                for name, v in table.items()}

    @cached_property
    def _darts(self):
        """Dart of every integer dart."""
        return [Dart(c.id, a, s) for c in self.diagram.circles
                for a in range(circle_arcs(c)) for s in (1, -1)]

    @cached_property
    def rotations(self):
        """Vertex -> tuple of darts, counterclockwise."""
        return {self.keys[v]: tuple(self._darts[x] for x in r)
                for v, r in enumerate(self.rot)}

    @cached_property
    def dart_base(self):
        """Dart -> vertex it leaves."""
        return dict(zip(self._darts, map(self.keys.get, self.base)))

    def faces(self):
        """All face boundary walks, each a tuple of darts (face on the left).

        Deterministic: orbits are reported in first-dart order, where darts
        are scanned per circle, per arc, forward then backward.
        """
        return self._faces

    @cached_property
    def _faces(self):
        darts = self._darts
        return tuple(tuple(darts[x] for x in face) for face in self._walks)

    @cached_property
    def face_of(self):
        """Dart -> index of its face in :meth:`faces`, read off the same
        trace: a map traces its faces once."""
        return {dart: i for i, face in enumerate(self._faces)
                for dart in face}

    def components(self):
        """Vertex sets of the connected components of the map."""
        comps = {}
        for v, c in enumerate(self._component):
            comps.setdefault(c, set()).add(self.keys[v])
        return list(comps.values())


def faces(d: Diagram):
    """Face boundary walks of the diagram's combinatorial map."""
    return CombinatorialMap(d).faces()


def euler_summary(d: Diagram):
    """(V, E, F) over the whole map, counting traced faces."""
    m = CombinatorialMap(d)
    return len(m.rot), len(m.base) // 2, len(m._walks)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    location: str = ""


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple = ()

    def __bool__(self):
        return self.ok

    def codes(self):
        return [v.code for v in self.violations]


def _structural_violations(d: Diagram):
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

    owned = set()    # (wedge id, circle id) per circle a wedge lists
    for w in d.wedges:
        if w.color not in (INCOMING, OUTGOING):
            err("bad-wedge", f"wedge {w.id}: unknown color {w.color!r}", w.id)
        owned.update((w.id, cid) for cid in w.circle_ids)
        for i, cid in enumerate(w.circle_ids, start=1):
            c = d.circle_by_id.get(cid)
            if c is None:
                err("bad-wedge", f"wedge {w.id}: missing circle {cid!r}", w.id)
            elif not (c.is_wedge() and c.wedge == w.id and c.index == i):
                err("bad-wedge",
                    f"wedge {w.id}: circle {cid} does not point back at index {i}",
                    w.id)

    crossing_events = 0    # every event that is not a center slot
    for c in d.circles:
        events = c.events
        centers = list(map(type, events)).count(CenterSlot)
        crossing_events += len(events) - centers
        if c.kind not in (SURGERY, WEDGE):
            err("bad-circle", f"circle {c.id}: unknown kind {c.kind!r}", c.id)
            continue
        if c.is_surgery():
            if centers:
                err("bad-center-slots",
                    f"surgery circle {c.id} has center slots", c.id)
            if not isinstance(c.framing, int) or isinstance(c.framing, bool):
                err("bad-framing", f"circle {c.id}: framing must be an integer",
                    c.id)
        else:
            if (c.wedge or "", c.id) not in owned:
                err("bad-wedge",
                    f"wedge circle {c.id} not owned by a wedge", c.id)
            # A tuple compare tries identity first, so the shared DEPART
            # and RETURN need no __eq__ call.
            ok_shape = (len(events) >= 2 and centers == 2
                        and (events[0], events[-1]) == (DEPART, RETURN))
            if not ok_shape:
                err("bad-center-slots",
                    f"wedge circle {c.id} must run depart ... return", c.id)

    # One sweep over the crossings: sign, both strand references and the
    # wedge rule, each kind collected apart to keep the report's order.
    refs, joins = [], []
    circle_by_id = d.circle_by_id
    for x in d.crossings:
        xid = x.id
        if x.sign not in (1, -1):
            refs.append(Violation(
                "bad-sign", f"crossing {xid}: sign must be +1 or -1", xid))
        if x.over == x.under:
            refs.append(Violation(
                "crossing-ref", f"crossing {xid}: over equals under", xid))
        (oid, oslot), (uid, uslot) = x.over, x.under
        a, b = circle_by_id.get(oid), circle_by_id.get(uid)
        for role, cid, slot, c in ((OVER, oid, oslot, a),
                                   (UNDER, uid, uslot, b)):
            ev = None
            if c is not None and 0 <= slot < len(c.events):
                ev = c.events[slot]
            if not (isinstance(ev, CrossingSlot) and ev.crossing == xid
                    and ev.role == role):
                refs.append(Violation(
                    "crossing-ref",
                    f"crossing {xid}: {role} reference ({cid}, {slot}) "
                    "does not match an event", xid))
        if (a is not None and b is not None and a.is_wedge() and b.is_wedge()
                and a.wedge == b.wedge):
            joins.append(Violation(
                "wedge-self-crossing",
                f"crossing {xid} joins two circles of wedge {a.wedge}", xid))
    bad += refs

    # Read every event back through its crossing only when the count
    # shortcut in ``validate``'s docstring cannot vouch for them.
    if refs or crossing_events != 2 * len(d.crossings):
        for c in d.circles:
            for slot, ev in enumerate(c.events):
                if isinstance(ev, CrossingSlot):
                    x = d.crossing_by_id.get(ev.crossing)
                    if x is None or x.strand(ev.role) != (c.id, slot):
                        err("crossing-ref",
                            f"event ({c.id}, {slot}) not claimed by crossing "
                            f"{ev.crossing}", c.id)
    return bad + joins


def validate(d: Diagram) -> ValidationReport:
    """Check every structural invariant plus sphere realizability.

    Never raises: all failures come back in the report.

    Crossing references and crossing events must biject.  One sweep over
    the crossings checks each reference (crossing, role) against the event
    it names.  Crossing ids are unique by then, so two references that
    pass name two distinct events: the passing references map one-to-one
    into the crossing events.  When all 2·|crossings| of them pass and the
    circles hold exactly that many events that are not center slots, the
    map is onto, and reading every event back through its crossing would
    find nothing.  That reverse scan runs only when a check failed or the
    counts differ (an event of any other type only raises the count, so
    it can force the scan but never skip it).
    """
    bad = list(_structural_violations(d))
    if not bad:
        try:
            for v, e, f, chi in CombinatorialMap(d).euler_by_component():
                if chi != 2:
                    bad.append(Violation(
                        "non-planar",
                        f"component with V={v} E={e} F={f} has "
                        f"characteristic {chi}, not 2"))
        except MalformedDiagramError as exc:
            bad.append(Violation("dangling-slot", str(exc)))
    return ValidationReport(ok=not bad, violations=tuple(bad))
