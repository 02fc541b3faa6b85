"""The diagram calculus: local rewrites preserving the presented cobordism.

Implemented moves
-----------------

* ``R1``, ``R2``, ``R3`` -- planar isotopy moves.  Framings are explicit
  integers, so a kink never adjusts one.
* ``BlowUp(sign)`` -- add a disjoint (+-1)-framed unknot.  In this purely
  combinatorial encoding a split unknot carries no placement data, so the
  optional site is bookkeeping only.
* ``BlowDown(circle)`` -- remove a (+-1)-framed simple circle whose
  membrane region holds only parallel transverse passes, compensating
  with a full twist of the bundle; framings and linking numbers update by
  the usual quadratic rule, realized in the rewritten code.
* ``HandleSlide(moving, over)`` -- replace the moving circle by its band
  sum with a framing-parallel of the other one.  The companion must be
  free of self-crossings.  The band site is a forward dart of each circle
  on one face, so the band runs in a face on the left of both; unsited,
  the first such face is taken.  The band's anchor is read from the site
  and the result validated once.  Slides over knotted parallels are a
  later extension.

Linking a clean wedge pair into the identity clasp is not a move: it
changes the cobordism, and :func:`cobkit.compose.make_identity_link`
does it as a step of composition.

The move vocabulary is deliberately extensible: ``apply`` dispatches on
the move class, so further local-move families can be registered without
touching the engine.  Registering a move class in ``_HANDLERS`` also
gives it its move-script codec (:mod:`cobkit.io_text`): a move is written
as an object whose ``kind`` is the class name in snake_case (``r1``,
``blow_up``, ``handle_slide``) and which carries every field whose value
is not ``None``, tuples as nested lists; reading fills absent fields from
the dataclass defaults and takes an ``int`` field only as a JSON integer
or decimal string, a ``bool`` or ``str`` field only as a JSON boolean or
string.  Sites are darts ``(circle, arc, dir)`` of the target diagram.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import canonical_form
from .diagram import (CrossingSlot, Diagram, OVER, UNDER, crossings_between,
                      linking_number)
from .editing import DiagramEditor, slot_after_removal
from .errors import MoveError, NotStandardPositionError
from .invariants import boundary_profile
from .membranes import circle_excursions
from .planarity import (CombinatorialMap, Dart, arc_endpoints, circle_arcs,
                        validate)


@dataclass(frozen=True)
class Move:
    pass


@dataclass(frozen=True)
class BlowUp(Move):
    sign: int
    site: tuple | None = None


@dataclass(frozen=True)
class BlowDown(Move):
    circle: str


@dataclass(frozen=True)
class HandleSlide(Move):
    moving: str
    over: str
    site: tuple | None = None    # (dart on moving, dart on over)


@dataclass(frozen=True)
class R1(Move):
    """Insert a kink of the given sign on an arc (``crossing`` unset), or
    remove the kink at ``crossing``."""

    site: tuple | None = None    # (circle, arc)
    sign: int = 1
    crossing: str | None = None


@dataclass(frozen=True)
class R2(Move):
    """Push one arc across another (``darts`` set) or remove the clean
    bigon bounded by the two ``crossings``."""

    darts: tuple | None = None
    over: bool = True
    crossings: tuple | None = None


@dataclass(frozen=True)
class R3(Move):
    site: tuple                  # one dart on the triangle face


@dataclass(frozen=True)
class MoveScript:
    moves: tuple = ()

    def __iter__(self):
        return iter(self.moves)

    def __len__(self):
        return len(self.moves)


def _as_dart(d: Diagram, site) -> Dart:
    """Read a site ``(circle, arc[, dir])`` as a dart of ``d`` (``dir``
    defaults to 1).  Raises :class:`MoveError` unless the circle exists,
    the arc is one of its arcs and ``dir`` is 1 or -1."""
    if isinstance(site, (tuple, list)) and len(site) in (2, 3):
        cid, arc = site[0], site[1]
        dr = site[2] if len(site) == 3 else 1
        c = d.circle_by_id.get(cid) if isinstance(cid, str) else None
        if (c is not None and type(arc) is int
                and 0 <= arc < circle_arcs(c) and dr in (1, -1)):
            return Dart(cid, arc, dr)
    raise MoveError(f"site {site!r} is not a dart of the diagram", site)


def _pair(value, what):
    if not isinstance(value, (tuple, list)) or len(value) != 2:
        raise MoveError(f"{what} must be a pair", value)
    return value


def _check(d: Diagram, context: str) -> Diagram:
    rep = validate(d)
    if not rep.ok:
        raise MoveError(f"{context} produced an invalid diagram: "
                        f"{rep.codes()}")
    return d


def _neighbours(c, slot_a, slot_b) -> bool:
    """Are two event slots consecutive along circle ``c``?  A surgery
    circle's last slot also neighbours its first; a wedge circle's do not,
    because the center sits between them."""
    s1, s2 = sorted((slot_a, slot_b))
    return s2 == s1 + 1 or (c.is_surgery() and s1 == 0
                            and s2 == len(c.events) - 1)


# -- R1 ---------------------------------------------------------------------

def _apply_r1(d: Diagram, m: R1) -> Diagram:
    ed = DiagramEditor(d)
    if m.crossing is not None:
        x = d.crossing_by_id.get(m.crossing)
        if x is None or x.over[0] != x.under[0]:
            raise MoveError(f"no kink at crossing {m.crossing}", m.crossing)
        cid = x.over[0]
        if not _neighbours(d.circle(cid), x.over[1], x.under[1]):
            raise MoveError(f"crossing {m.crossing} is not a removable kink",
                            m.crossing)
        ed.remove_crossings(m.crossing)
        return _check(ed.freeze(), "R1 remove")
    if m.site is None:
        raise MoveError("R1 needs a site or a crossing")
    cid, arc, _ = _as_dart(d, m.site)
    c = d.circle(cid)
    k = ed.new_crossing(m.sign, prefix="r")
    first, second = (UNDER, OVER) if m.sign == 1 else (OVER, UNDER)
    ed.insert_events(cid, arc + 1 if c.events else 0,
                     [CrossingSlot(k, first), CrossingSlot(k, second)])
    return _check(ed.freeze(), "R1 insert")


# -- R2 ---------------------------------------------------------------------

def _apply_r2(d: Diagram, m: R2) -> Diagram:
    if m.crossings is not None:
        x1, x2 = _pair(m.crossings, "R2 crossings")
        if not all(isinstance(x, str) and x in d.crossing_by_id
                   for x in (x1, x2)):
            raise MoveError("R2 crossings are not both crossings of the "
                            "diagram", m.crossings)
        a = d.crossing(x1)
        b = d.crossing(x2)
        if {a.over[0], a.under[0]} != {b.over[0], b.under[0]}:
            raise MoveError("crossings do not bound a bigon", m.crossings)
        if a.over[0] != b.over[0]:
            raise MoveError("bigon is not removable: no strand is over at "
                            "both crossings", m.crossings)
        if a.sign + b.sign != 0:
            raise MoveError("bigon crossings must have opposite signs",
                            m.crossings)
        for cid in dict.fromkeys((a.over[0], a.under[0])):
            c = d.circle(cid)
            slots = [i for i, e in c.crossing_events()
                     if e.crossing in (x1, x2)]
            if len(slots) != 2:
                raise MoveError("bigon strands must meet both crossings once",
                                m.crossings)
            if not _neighbours(c, *slots):
                raise MoveError(f"bigon events are not adjacent on {cid}",
                                m.crossings)
        ed = DiagramEditor(d)
        ed.remove_crossings(x1, x2)
        return _check(ed.freeze(), "R2 remove")

    if m.darts is None:
        raise MoveError("R2 needs darts or crossings")
    d1, d2 = (_as_dart(d, s) for s in _pair(m.darts, "R2 darts"))
    if (d1.circle, d1.arc) == (d2.circle, d2.arc):
        raise MoveError("R2 darts must lie on distinct arcs", m.darts)
    face_of = CombinatorialMap(d).face_of
    if face_of.get(d1) != face_of.get(d2):
        raise MoveError("R2 darts do not border a common face", m.darts)
    # The shared face lies on the left of both darts, so the finger leaves
    # the first strand into it and crosses the second strand out of it and
    # back: along the darts the first strand meets n1 then n2, the second
    # n2 then n1, and n1 is right-handed exactly when the darts run the
    # same way (chirality +1) and the first strand is over.
    chirality = d1.dir * d2.dir
    s = chirality if m.over else -chirality
    role1, role2 = (OVER, UNDER) if m.over else (UNDER, OVER)
    ed = DiagramEditor(d)
    n1 = ed.new_crossing(s, prefix="r")
    n2 = ed.new_crossing(-s, prefix="r")
    block1 = [CrossingSlot(n1, role1), CrossingSlot(n2, role1)]
    block2 = [CrossingSlot(n2, role2), CrossingSlot(n1, role2)]
    if d1.dir == -1:
        block1.reverse()
    if d2.dir == -1:
        block2.reverse()
    # Insert the deeper slot first when both land on one circle.
    for cid, at, block in sorted([(d1.circle, d1.arc + 1, block1),
                                  (d2.circle, d2.arc + 1, block2)],
                                 key=lambda t: -t[1]):
        ed.insert_events(cid, at, block)
    out = ed.freeze()
    if not validate(out).ok:
        raise MoveError("R2 darts admit no planar push across this face",
                        m.darts)
    return out


# -- R3 ---------------------------------------------------------------------

def _apply_r3(d: Diagram, m: R3) -> Diagram:
    start = _as_dart(d, m.site)
    cmap = CombinatorialMap(d)
    i = cmap.face_of.get(start)
    if i is None:
        raise MoveError(f"no face contains dart {start}", m.site)
    face = cmap.faces()[i]
    if len(face) != 3:
        raise MoveError("R3 needs a triangular face", m.site)
    heads = []
    for dart in face:
        cid, arc, dr = dart
        c = d.circle(cid)
        tail, head = arc_endpoints(d, c, arc)
        slot = head if dr == 1 else tail
        ev = c.events[slot]
        if not isinstance(ev, CrossingSlot):
            raise MoveError("triangle face touches a wedge center", m.site)
        heads.append(ev)
    if len({e.crossing for e in heads}) != 3:
        raise MoveError("triangle must have three distinct crossings", m.site)
    unders = sum(1 for e in heads if e.role == UNDER)
    if unders not in (1, 2):
        raise MoveError("triangle is not slideable (cyclic over/under "
                        "pattern)", m.site)
    ed = DiagramEditor(d)
    for dart in face:
        cid, arc, _ = dart
        c = d.circle(cid)
        tail, head = arc_endpoints(d, c, arc)
        evs = ed.events[cid]
        evs[tail], evs[head] = evs[head], evs[tail]
    return _check(ed.freeze(), "R3")


# -- blow moves --------------------------------------------------------------

def _apply_blow_up(d: Diagram, m: BlowUp) -> Diagram:
    if m.sign not in (1, -1):
        raise MoveError("blow-up sign must be +1 or -1")
    ed = DiagramEditor(d)
    ed.add_surgery_circle(ed.fresh_id("e"), m.sign)
    return _check(ed.freeze(), "BlowUp")


def _blowdown_passes(d: Diagram, cid: str):
    """The parallel bundle through the membrane of a blow-down circle:
    [(strand, enter_slot, direction)] in membrane order."""
    passes = []
    for pos, exc in circle_excursions(d, cid):
        if not exc.is_piercing:
            continue
        if exc.interior:
            raise MoveError(
                f"a strand segment inside {cid} is not bare: the bundle "
                "through a blow-down circle must be parallel", cid)
        passes.append((exc.strand, exc.enter_slot,
                       d.crossing(exc.anchor).sign))
    return passes


def _apply_blow_down(d: Diagram, m: BlowDown) -> Diagram:
    c = d.circle_by_id.get(m.circle)
    if c is None or not c.is_surgery():
        raise MoveError(f"blow-down circle {m.circle} must be surgery data",
                        m.circle)
    eps = c.framing
    if eps not in (1, -1):
        raise MoveError(f"blow-down needs framing +1 or -1, found {eps}",
                        m.circle)
    try:
        passes = _blowdown_passes(d, m.circle)
    except NotStandardPositionError as exc:
        raise MoveError(f"blow-down circle is not clean: {exc}",
                        m.circle) from exc
    n = len(passes)

    # Record, per pass, where it starts once c and its crossings are gone.
    dead = {e.crossing for _, e in c.crossing_events()}
    marks = [(strand, slot_after_removal(d.circle(strand).events, slot, dead),
              p) for strand, slot, p in passes]
    ed = DiagramEditor(d)
    ed.remove_circle(m.circle)

    # Full -eps twist on the bundle: braid word (s_1 ... s_{n-1})^n.
    if n > 1:
        order = list(range(n))           # braid position -> pass index
        events_for = {k: [] for k in range(n)}
        for _ in range(n):
            for q in range(n - 1):
                a, b = order[q], order[q + 1]
                pa, pb = marks[a][2], marks[b][2]
                sign = -eps * pa * pb
                xid = ed.new_crossing(sign, prefix="t")
                over_pass, under_pass = (b, a) if eps == 1 else (a, b)
                events_for[over_pass].append(CrossingSlot(xid, OVER))
                events_for[under_pass].append(CrossingSlot(xid, UNDER))
                order[q], order[q + 1] = order[q + 1], order[q]
        # Insert per pass, deepest-position first so indices stay valid.
        per_strand = {}
        for k, (strand, at, p) in enumerate(marks):
            evs = events_for[k]
            if p == -1:
                evs = list(reversed(evs))
            per_strand.setdefault(strand, []).append((at, evs))
        for strand, chunks in per_strand.items():
            for at, evs in sorted(chunks, key=lambda t: -t[0]):
                ed.insert_events(strand, at, evs)

    # Quadratic framing correction, from the signed pass counts.
    lk_c = {}
    for strand, _, p in marks:
        lk_c[strand] = lk_c.get(strand, 0) + p
    for strand, lk in lk_c.items():
        h = ed.circles[strand]
        if h.is_surgery():
            ed.set_framing(strand, h.framing - eps * lk * lk)
    return _check(ed.freeze(), "BlowDown")


# -- handle slide -------------------------------------------------------------

def _band_site(d: Diagram, moving: str, over: str):
    """The band site of an unsited slide: in the first face that holds a
    forward dart of each circle, the smallest such dart of each, or
    ``None``.  The band runs in that face, which lies on the left of both
    circles there."""
    for face in CombinatorialMap(d).faces():
        darts = sorted(dt for dt in face if dt.dir == 1)
        mine = [dt for dt in darts if dt.circle == moving]
        its = [dt for dt in darts if dt.circle == over]
        if mine and its:
            return mine[0], its[0]
    return None


def _apply_handle_slide(d: Diagram, m: HandleSlide) -> Diagram:
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
        if site[0].dir != 1:
            raise MoveError("band site must approach the moving circle from "
                            "its left (forward dart)", m.site)
    else:
        site = _band_site(d, m.moving, m.over)
        if site is None:
            raise MoveError(
                f"{m.moving} and {m.over} do not border a common face on "
                "its left; isotope them together first", (m.moving, m.over))
    return _slide_at_site(d, m, site)


def _slide_at_site(d: Diagram, m: HandleSlide, site) -> Diagram:
    dart_i, dart_j = site
    ci = d.circle(m.moving)
    cj = d.circle(m.over)
    f_j = cj.framing
    lk_ij = linking_number(d, m.moving, m.over)

    ed = DiagramEditor(d)

    # Copies of the companion's crossings, in travel order starting just
    # after the banded arc.  The push-off runs on the companion's left,
    # the face side.
    nj = len(cj.events)
    p_events = []
    inserts_on_others = []   # (circle, slot, before/after, new event)
    for k in range(nj):
        slot = (dart_j.arc + 1 + k) % nj
        ev = cj.events[slot]
        x = d.crossing(ev.crossing)
        other_cid, other_slot = x.strand(OVER if ev.role == UNDER else UNDER)
        xid = ed.new_crossing(x.sign, prefix="p")
        p_events.append(CrossingSlot(xid, ev.role))
        other_role = UNDER if ev.role == OVER else OVER
        after = x.right_to_left(m.over)
        inserts_on_others.append(
            (other_cid, other_slot, after, CrossingSlot(xid, other_role)))

    # Framing twists between the push-off and the companion, placed in the
    # band corridor (inside the banded arc on both curves).  The strands
    # are codirected there, so both meet each twist's crossings in the
    # same order, with the over role alternating.
    twists = []
    for _ in range(abs(f_j)):
        s = 1 if f_j > 0 else -1
        t1 = ed.new_crossing(s, prefix="p")
        t2 = ed.new_crossing(s, prefix="p")
        first, second = (OVER, UNDER) if s == 1 else (UNDER, OVER)
        p_events.extend([CrossingSlot(t1, first), CrossingSlot(t2, second)])
        twists.extend([CrossingSlot(t1, second), CrossingSlot(t2, first)])

    for cid, slot, after, new_ev in sorted(inserts_on_others,
                                           key=lambda t: -t[1]):
        ed.insert_events(cid, slot + 1 if after else slot, [new_ev])
    if twists:
        ed.insert_events(m.over, dart_j.arc + 1 if nj else 0, twists)

    ed.set_framing(m.moving, ci.framing + f_j + 2 * lk_ij)

    # The band leaves the banded arc right after its tail event, or after
    # the push-off's copy of that crossing when the copy landed inside the
    # arc.  That copy cuts off the sliver between the companion and its
    # push-off; the sub-arc after it borders the rest of the face, and so
    # does the push-off's band end after the twists.  Both have that face
    # on their left, so the band sum is oriented and planar.
    at = 0
    if ci.events:
        tail_copy = any(after for cid, slot, after, _ in inserts_on_others
                        if (cid, slot) == (m.moving, dart_i.arc))
        at = ed.events[m.moving].index(ci.events[dart_i.arc]) + 1 + tail_copy
    ed.insert_events(m.moving, at, p_events)
    return _check(ed.freeze(), "HandleSlide")


_HANDLERS = {
    R1: _apply_r1,
    R2: _apply_r2,
    R3: _apply_r3,
    BlowUp: _apply_blow_up,
    BlowDown: _apply_blow_down,
    HandleSlide: _apply_handle_slide,
}


def apply(d: Diagram, m: Move) -> Diagram:
    """Apply one move; raises :class:`MoveError` when its preconditions
    fail, always returns a valid diagram otherwise."""
    try:
        handler = _HANDLERS[type(m)]
    except KeyError:
        raise MoveError(f"unknown move kind {type(m).__name__}") from None
    return handler(d, m)


def replay(d: Diagram, script: MoveScript) -> Diagram:
    """Left fold of ``apply``; failures report the offending move index."""
    cur = d
    for i, m in enumerate(script):
        try:
            cur = apply(cur, m)
        except MoveError as exc:
            raise MoveError(f"move {i} ({type(m).__name__}) failed: {exc}",
                            getattr(exc, "site", None)) from exc
    return cur


# -- bounded equivalence search ----------------------------------------------

def _monogon_kinks(d: Diagram):
    out = []
    for x in d.crossings:
        if (x.over[0] == x.under[0]
                and _neighbours(d.circle(x.over[0]), x.over[1], x.under[1])):
            out.append(x.id)
    return sorted(out)


def _candidate_moves(d: Diagram):
    moves = []
    for c in d.surgery_circles():
        if c.framing in (1, -1):
            moves.append(BlowDown(c.id))
    for xid in _monogon_kinks(d):
        moves.append(R1(crossing=xid))
    seen = set()
    for face in CombinatorialMap(d).faces():
        if len(face) == 2:
            ids = set()
            usable = True
            for dart in face:
                c = d.circle(dart.circle)
                tail, head = arc_endpoints(d, c, dart.arc)
                for s in (tail, head):
                    ev = c.events[s]
                    if isinstance(ev, CrossingSlot):
                        ids.add(ev.crossing)
                    else:
                        usable = False
            pair = tuple(sorted(ids))
            if usable and len(pair) == 2 and pair not in seen:
                seen.add(pair)
                a, b = (d.crossing(x) for x in pair)
                if (a.over[0] == b.over[0] and a.sign + b.sign == 0
                        and {a.over[0], a.under[0]}
                        == {b.over[0], b.under[0]}):
                    moves.append(R2(crossings=pair))
        elif len(face) == 3:
            moves.append(R3(site=tuple(face[0])))
    moves.append(BlowUp(1))
    moves.append(BlowUp(-1))
    return moves


def search_equivalent(d1: Diagram, d2: Diagram, budget: int = 200):
    """Breadth-first search for a move script relating two diagrams.

    Returns a :class:`MoveScript` with ``replay(d1, script)`` structurally
    isomorphic to ``d2``, or ``None`` when the budget is exhausted
    (inconclusive: the calculus is only semi-decidable).  Both diagrams
    must have equal boundary profiles over identical wedge sequences.
    """
    if boundary_profile(d1) != boundary_profile(d2):
        raise MoveError("search requires equal boundary profiles")
    target = canonical_form(d2)
    start = canonical_form(d1)
    if start == target:
        return MoveScript()
    seen = {start}
    frontier = [(d1, [])]
    expanded = 0
    while frontier and expanded < budget:
        new_frontier = []
        for diagram, script in frontier:
            for mv in _candidate_moves(diagram):
                if expanded >= budget:
                    break
                try:
                    nxt = apply(diagram, mv)
                except MoveError:
                    continue
                expanded += 1
                key = canonical_form(nxt)
                if key == target:
                    return MoveScript(tuple(script + [mv]))
                if key not in seen:
                    seen.add(key)
                    new_frontier.append((nxt, script + [mv]))
        frontier = new_frontier
    return None
