"""Composing cobordism diagrams: tensor, permutation, inside-out, sewing,
mending.

The composition machinery works entirely on the planar codes:

* ``inside_out`` reads a handlebody pattern off an outgoing wedge: the
  interior is the diagram with that wedge deleted, and each wedge
  circle's membrane traffic becomes a band record -- one ``traverse``
  per piercing, one ``over``/``under`` per excursion that sails across
  the membrane without piercing it.
* ``sew`` substitutes such a pattern for an incoming wedge of the other
  diagram.  Every band with n piercings turns the partner circle into n
  parallel cables, each inheriting all of the circle's crossings (signs
  flipped for backwards passes); the pattern's strands are spliced
  through the cables, and over/under band events cross the whole bundle
  at the cable neck.
* ``mend`` self-glues along an identity-linked outgoing/incoming pair by
  deleting the two wedge centers, turning their circles into 0-framed
  surgery data, and replacing each index-wise clasp with a Borromean
  motif threaded by one fresh 0-framed Brunnian circle.

Both ``sew`` and ``mend`` insist that the substitution region is
unobstructed (the spliced code must stay realizable in the sphere); a
diagram that tangles foreign strands through the work area is rejected
rather than silently mis-drawn, and should be cleaned up with moves
first.

Merges relabel their inputs deterministically: after ``tensor(a, b)`` or
``sew(dc, u, dd, v)`` the ids of the first argument carry the prefix
``c.`` and those of the second ``d.``.  ``sew`` makes no relabeled copy:
it reads its bands and the host's crossings from the two inputs, and
loads both into one editor, which puts the prefixes on as it loads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .diagram import (CrossingSlot, Diagram, INCOMING, OUTGOING, OVER, UNDER,
                      crossings_along, crossings_between, relabel)
from .editing import (DiagramEditor, borromean_motif_events, clasp_events,
                      slot_after_removal)
from .errors import (CompositionError, GenusMismatchError,
                     MalformedDiagramError, NotStandardPositionError)
from .membranes import membrane_excursions
from .planarity import validate


def tensor(d1: Diagram, d2: Diagram) -> Diagram:
    """Disjoint union, boundary orders concatenated (``d1`` then ``d2``)."""
    a = relabel(d1, "c.")
    b = relabel(d2, "d.")
    return Diagram(
        circles=a.circles + b.circles,
        crossings=a.crossings + b.crossings,
        wedges=a.wedges + b.wedges,
        source_order=a.source_order + b.source_order,
        target_order=a.target_order + b.target_order,
    )


def permute(d: Diagram, pi, tau) -> Diagram:
    """Reindex the boundary orders: entry k of the new source is entry
    ``pi[k]`` of the old one, and likewise ``tau`` for the target."""
    if sorted(pi) != list(range(len(d.source_order))):
        raise ValueError("pi must be a permutation of the source positions")
    if sorted(tau) != list(range(len(d.target_order))):
        raise ValueError("tau must be a permutation of the target positions")
    return Diagram(
        circles=d.circles, crossings=d.crossings, wedges=d.wedges,
        source_order=tuple(d.source_order[k] for k in pi),
        target_order=tuple(d.target_order[k] for k in tau),
    )


@dataclass(frozen=True)
class BandEvent:
    """One passage of an interior strand through or across a band.

    ``kind`` is ``traverse`` (through the membrane, ``direction`` the
    piercing sign), ``over`` or ``under`` (across it).  ``gap``/``seq``
    anchor the passage in the interior strand's event list so sewing can
    splice cables back in; ``enter_sign`` remembers the handedness of the
    excursion's entering crossing.
    """

    kind: str
    strand: str
    direction: int = 0
    gap: int = 0
    seq: int = 0
    enter_sign: int = 0


@dataclass(frozen=True)
class HandlebodyPattern:
    """A diagram drawn inside a genus-g handlebody whose boundary is an
    outgoing surface: the ``interior`` diagram plus per-band traffic."""

    genus: int
    interior: Diagram
    bands: tuple            # per band, a tuple of BandEvent in membrane order
    target_label: int


def _wedge(d: Diagram, wid: str, color: str):
    """The wedge ``wid`` of ``d``, which must have the given color."""
    w = d.wedge_by_id.get(wid)
    if w is None or w.color != color:
        raise CompositionError(f"{wid} is not an {color} wedge")
    return w


def _bands(d: Diagram, w) -> tuple:
    """The membrane traffic of each circle of the outgoing wedge ``w`` of
    ``d``: per circle, its band events in membrane order."""
    # Deleting the wedge removes every crossing on its circles; a band
    # event's gap is where its enter slot lands once they are gone.
    dead = {e.crossing for cid in w.circle_ids
            for _, e in d.circle(cid).crossing_events()}
    bands = []
    for cid in w.circle_ids:
        events = []
        for _, e in membrane_excursions(d, cid):
            if e.interior:
                raise NotStandardPositionError(
                    f"excursion of {e.strand} into {cid} is not bare; "
                    "pull foreign events out of the membrane first")
            if e.strand in w.circle_ids:
                raise MalformedDiagramError(
                    f"circles {cid} and {e.strand} of wedge {w.id} cross")
            events.append(BandEvent(
                kind=e.kind(), strand=e.strand,
                direction=d.crossing(e.anchor).sign if e.is_piercing else 0,
                gap=slot_after_removal(d.circle(e.strand).events,
                                       e.enter_slot, dead),
                seq=e.enter_slot,
                enter_sign=0 if e.is_piercing else d.crossing(e.enter).sign))
        bands.append(tuple(events))
    return tuple(bands)


def inside_out(d: Diagram, u: str) -> HandlebodyPattern:
    """Turn ``d`` into a pattern within a handlebody by deleting the
    outgoing wedge ``u`` and recording its membrane traffic.

    Precondition: every excursion into a membrane of ``u`` must be bare
    (no events strictly inside it); decompose tangled passes with moves
    first.
    """
    w = _wedge(d, u, OUTGOING)
    bands = _bands(d, w)
    return HandlebodyPattern(
        genus=w.genus, interior=delete_wedge(d, u), bands=bands,
        target_label=list(d.target_order).index(u))


def delete_wedge(d: Diagram, wid: str) -> Diagram:
    """Remove a wedge, its circles, and every crossing they carried."""
    ed = DiagramEditor(d)
    ed.remove_wedge(wid)
    return ed.freeze()


def sew(dc: Diagram, u: str, dd: Diagram, v: str) -> Diagram:
    """Glue the cobordism of ``dc`` (along its outgoing wedge ``u``) to
    the one of ``dd`` (along its incoming wedge ``v``).

    Ids from ``dc`` come back prefixed ``c.``, those from ``dd``
    prefixed ``d.``; ``dd``'s remaining wedges keep their boundary
    positions and ``dc``'s are appended per color.
    """
    wv = _wedge(dd, v, INCOMING)
    wu = _wedge(dc, u, OUTGOING)
    if wu.genus != wv.genus:
        raise GenusMismatchError(
            f"cannot sew genus {wu.genus} to genus {wv.genus}")
    bands = _bands(dc, wu)

    # One editor holds ``dd`` under ``d.`` and the interior of ``dc``
    # (``dc`` under ``c.`` less the wedge ``u``); the host's crossings
    # and circles are read from ``dd`` itself.
    ed = DiagramEditor()
    ed.load(dd, "d.")
    ed.load(dc, "c.")
    ed.remove_wedge("c." + u)

    # Splice blocks accumulate per interior strand: (gap, seq, events).
    splices = {}

    for band, vcid in zip(bands, wv.circle_ids):
        markers = [replace(e, strand="c." + e.strand) for e in band]
        cables = [m for m in markers if m.kind == "traverse"]
        n = len(cables)
        inherited = [ev for ev in dd.circle(vcid).events
                     if isinstance(ev, CrossingSlot)]

        # Fresh crossings: one copy of every inherited crossing per cable.
        copies = {}
        for j, ev in enumerate(inherited):
            x = dd.crossing(ev.crossing)
            if {x.over[0], x.under[0]} == {vcid}:
                raise NotStandardPositionError(
                    f"wedge circle d.{vcid} has self-crossings")
            for k, cable in enumerate(cables):
                xid = ed.new_crossing(x.sign * cable.direction, prefix="s")
                copies[(j, k)] = xid

        # Cable splice blocks along each traversing strand.
        blocks = []
        for k, cable in enumerate(cables):
            block = []
            for j, ev in enumerate(inherited):
                block.append(CrossingSlot(copies[(j, k)], ev.role))
            if cable.direction == -1:
                block.reverse()
            blocks.append(block)
            splices.setdefault(cable.strand, []).append(
                (cable.gap, cable.seq, block))

        # Host strands now cross the bundle where they crossed the circle.
        for j, ev in enumerate(inherited):
            x = dd.crossing(ev.crossing)
            other_role = UNDER if ev.role == OVER else OVER
            t_cid = "d." + x.strand(other_role)[0]
            block = [CrossingSlot(copies[(j, k)], other_role)
                     for k in range(n)]
            if not x.right_to_left(vcid):
                block.reverse()
            at = ed.events[t_cid].index(
                CrossingSlot("d." + x.id, other_role))
            ed.replace_event(t_cid, at, block)

        # Over/under band events cross the whole bundle at the neck.
        for m in markers:
            if m.kind == "traverse":
                continue
            role = OVER if m.kind == "over" else UNDER
            cable_role = UNDER if m.kind == "over" else OVER
            out_block = []
            in_block = []
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

    ed.remove_wedge("d." + v)
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


def make_identity_link(d: Diagram, u: str, v: str) -> Diagram:
    """Clasp a clean outgoing/incoming wedge pair index-wise into the
    identity-link configuration.

    This is a step of composition, not a move: it changes the cobordism.
    Every circle of the pair must be free of crossings.
    """
    wu = _wedge(d, u, OUTGOING)
    wv = _wedge(d, v, INCOMING)
    if wu.genus != wv.genus:
        raise GenusMismatchError("wedges must have equal genus")
    for cid in wv.circle_ids + wu.circle_ids:
        if any(isinstance(e, CrossingSlot) for e in d.circle(cid).events):
            raise CompositionError(
                f"wedge circle {cid} is not clean; remove its crossings "
                "with a move script first")
    ed = DiagramEditor(d)
    for a, b in zip(wv.circle_ids, wu.circle_ids):
        clasp_events(ed, a, 1, b, 1, prefix="tw")
    out = ed.freeze()
    rep = validate(out)
    if not rep.ok:
        raise CompositionError(f"clasping {v} and {u} produced an "
                               f"unrealizable code ({rep.codes()})")
    return out


def _find_clasp(d: Diagram, a: str, b: str):
    """The identity clasp between circles ``a`` (incoming role) and ``b``:
    returns (c1, c2, slot_a, slot_b) or raises.  ``a`` runs under c1 at
    slot_a and over c2 right after it, ``b`` under c2 at slot_b and over
    c1 right after it, and both signs are +1."""
    between = crossings_between(d, a, b)
    if len(between) != 2:
        raise CompositionError(
            f"{a} and {b} cross {len(between)} times, not 2: not an "
            "identity link")
    c1, c2 = between              # in the order ``a`` meets them
    s, t = c1.under[1], c2.under[1]
    if not (c1.under == (a, s) and c2.over == (a, s + 1)
            and c2.under == (b, t) and c1.over == (b, t + 1)
            and c1.sign == c2.sign == 1):
        raise CompositionError(
            f"{a} and {b} are not in the identity-link configuration")
    return c1.id, c2.id, s, t


def mend(d: Diagram, u: str, v: str, swap_roles: bool = False) -> Diagram:
    """Self-glue the outgoing boundary at ``u`` to the incoming boundary
    at ``v``.

    The pair must be in the identity-link configuration (index-wise
    clasps, nothing else touching the two wedges' circles besides their
    inherited surgery crossings).  Each clasp is excised and replaced by
    a Borromean motif threaded by one fresh 0-framed Brunnian circle; the
    wedge circles become 0-framed surgery circles (by default ``x`` from
    the incoming wedge, ``y`` from the outgoing one; ``swap_roles``
    exchanges the convention, which must not change any invariant).
    """
    wu = _wedge(d, u, OUTGOING)
    wv = _wedge(d, v, INCOMING)
    if wu.genus != wv.genus:
        raise GenusMismatchError("mend needs wedges of equal genus")

    # One walk along the pair circles, index by index, finds the first
    # crossing with another wedge and the first one that breaks the
    # index-wise clasp pattern; the first is reported before the clasp
    # check and the second after it.
    mate = {}
    for vc, uc in zip(wv.circle_ids, wu.circle_ids):
        mate[vc], mate[uc] = uc, vc
    foreign = stray = None
    for cid in mate:
        for _, x, (other, _) in crossings_along(d, cid):
            if other not in mate:
                if foreign is None and d.circle(other).is_wedge():
                    foreign = x
            elif other != mate[cid] and stray is None:
                stray = (x, cid, other)
    if foreign is not None:
        raise CompositionError(
            "mend pair may not be linked with other wedges "
            f"(crossing {foreign.id})")
    clasps = [_find_clasp(d, vc, uc)
              for vc, uc in zip(wv.circle_ids, wu.circle_ids)]
    if stray is not None:
        raise CompositionError(
            "mend pair must clasp index-wise only "
            f"(crossing {stray[0].id} joins {stray[1]} and {stray[2]})")

    ed = DiagramEditor(d)
    ed.drop_wedge_keep_circles(u, framing=0)
    ed.drop_wedge_keep_circles(v, framing=0)

    bid = ed.fresh_id("mb")
    ed.add_surgery_circle(bid, 0)
    # Each pair circle carries exactly one clasp: excise them all in one
    # sweep, then put motif i where clasp i was, one slot earlier than
    # ``_find_clasp`` read it because the depart slot is gone.  The motif's
    # role b goes to the ``x`` circle and role c to the ``y`` circle.
    ed.remove_crossings(*(x for c1, c2, _, _ in clasps for x in (c1, c2)))
    b_events = []
    for i, ((_, _, s, t), vc, uc) in enumerate(
            zip(clasps, wv.circle_ids, wu.circle_ids)):
        ev_a, ev_b, ev_c = borromean_motif_events(ed, prefix=f"m{i + 1}s")
        b_events.extend(ev_a)
        ed.insert_events(vc, s - 1, ev_c if swap_roles else ev_b)
        ed.insert_events(uc, t - 1, ev_b if swap_roles else ev_c)
    ed.events[bid] = b_events

    out = ed.freeze()
    rep = validate(out)
    if not rep.ok:
        raise CompositionError(
            f"mending produced an unrealizable code ({rep.codes()}); the "
            "clasp chain is obstructed, clean the diagram with moves first")
    return out


def compose(dc: Diagram, dd: Diagram, pairing) -> Diagram:
    """Glue ``dc`` to ``dd`` along the outgoing/incoming wedge pairs of
    ``pairing``: one sewing followed by a mending per extra pair.

    Pairs after the first refer to wedges that now live in the merged
    diagram under the prefixes ``c.`` / ``d.``; this function tracks
    that.  A later pair that is not already identity-linked must be
    clean, in which case :func:`make_identity_link` clasps it first.
    """
    pairing = list(pairing)
    if not pairing:
        raise CompositionError("compose needs at least one wedge pair")
    u0, v0 = pairing[0]
    out = sew(dc, u0, dd, v0)
    for u, v in pairing[1:]:
        cu, dv = "c." + u, "d." + v
        try:
            _ = [_find_clasp(out, vc, uc) for vc, uc in
                 zip(out.wedge(dv).circle_ids, out.wedge(cu).circle_ids)]
        except CompositionError:
            out = make_identity_link(out, cu, dv)
        out = mend(out, cu, dv)
    return out
