"""Combinatorial-map realization of a diagram and the validator.

The projection of a diagram is a 4-valent map (crossings) with extra
vertices of valence 2g (wedge centers).  We realize it as a rotation
system on *darts*:

* an arc is a strand segment between two consecutive events of a circle
  (wedge circles have no arc across the center: their event lists run
  depart ... return, giving ``len(events) - 1`` arcs);
* a dart is a directed arc end, ``(circle, arc_index, +1/-1)``;
* the rotation at a crossing is forced by its sign:
  counterclockwise ``(under_in, over_out, under_out, over_in)`` for +1
  and ``(under_in, over_in, under_out, over_out)`` for -1;
* the rotation at a wedge center is the fixed
  ``(out_1, in_1, ..., out_g, in_g)``.

Faces are the orbits of ``dart -> rotation^{-1}(reverse(dart))``; each
face is the boundary walk with the face on the *left*.  A code is
realizable in the sphere exactly when every connected component with at
least one dart satisfies V - E + F = 2.

Circles with no events at all (free loops) get a phantom base vertex so
that they contribute one edge and two faces, like an embedded circle.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import cached_property

from .diagram import (CenterSlot, CrossingSlot, Diagram, OVER, UNDER,
                      INCOMING, OUTGOING, SURGERY, WEDGE)
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


def _event_vertex(d, circle, slot):
    ev = circle.events[slot]
    if isinstance(ev, CrossingSlot):
        return ("x", ev.crossing)
    return ("w", circle.wedge)


class CombinatorialMap:
    """Rotation system of a diagram; built once, queried for faces."""

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
                self.dart_base[Dart(c.id, a, 1)] = _event_vertex(d, c, tail)
                self.dart_base[Dart(c.id, a, -1)] = _event_vertex(d, c, head)

        # Crossing rotations, forced by sign.
        for x in d.crossings:
            oin, oout = self._incident(x.over)
            uin, uout = self._incident(x.under)
            if x.sign == 1:
                rot = (uin, oout, uout, oin)
            else:
                rot = (uin, oin, uout, oout)
            self.rotations[("x", x.id)] = rot

        # Wedge center rotations.  Incoming: (out_1, in_1, ..., out_g, in_g)
        # counterclockwise.  Outgoing: the circles come in reversed order,
        # (out_g, in_g, ..., out_1, in_1), each radius pair still
        # consecutive and codirected.  The reversed reading on the outgoing
        # side is the trace of the orientation-reversing identification of
        # target surfaces; with both centers read identically, an identity
        # link of wedges would be forced onto a torus for genus >= 3.
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

    def next_in_face(self, dart: Dart) -> Dart:
        rev = reverse(dart)
        rot = self.rotations[self.dart_base[rev]]
        return rot[rot.index(rev) - 1]

    def faces(self):
        """All face boundary walks, each a tuple of darts (face on the left).

        Deterministic: orbits are reported in first-dart order, where darts
        are scanned per circle, per arc, forward then backward.
        """
        return self._faces

    @cached_property
    def face_of(self):
        """Dart -> index of its face in :meth:`faces`, read off the same
        trace: a map traces its faces once."""
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
        """Vertex sets of the connected components of the map."""
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
        """[(vertices, edges, faces, characteristic)] per dart-ful component;
        isolated vertices (genus-0 centers) are skipped."""
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


def faces(d: Diagram):
    """Face boundary walks of the diagram's combinatorial map."""
    return CombinatorialMap(d).faces()


def euler_summary(d: Diagram):
    """(V, E, F) over the whole map, counting traced faces."""
    m = CombinatorialMap(d)
    v = sum(1 for _ in m.rotations)
    e = sum(1 for dart in m.dart_base if dart.dir == 1)
    return v, e, len(m.faces())


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
    referenced = {}
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
            referenced[(cid, slot)] = x.id
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


def validate(d: Diagram) -> ValidationReport:
    """Check every structural invariant plus sphere realizability.

    Never raises: all failures come back in the report.
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
