"""Core data model for cobordism diagrams.

A diagram is a purely combinatorial planar-diagram code:

* every circle carries a cyclic list of *events* -- the crossings it runs
  through, in traversal order (the traversal order is the orientation);
* a crossing records which (circle, slot) passes over and which under,
  plus a handedness sign;
* a wedge is a family of circles sharing a center vertex; the center's
  rotation is fixed by convention as (out_1, in_1, ..., out_g, in_g)
  counterclockwise, so it is implied by the order of ``circle_ids``.

Wedge circles store their center visit as two pseudo-events: the event
list always starts with ``DEPART`` (``CenterSlot("depart")``) and ends
with ``RETURN`` (``CenterSlot("return")``).  This pins the cyclic
rotation of wedge-circle event lists and makes serialization canonical.

Crossing sign convention: +1 when the under strand crosses from right to
left as seen along the over strand's direction of travel (right-handed).
Together with the rotation data this determines the planar embedding up
to reflection-free isotopy; no coordinates are stored anywhere.

Framings are explicit integers on surgery circles.  They are *not*
derived from the writhe, so a Reidemeister-I kink never changes one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .errors import MalformedDiagramError

INCOMING = "incoming"
OUTGOING = "outgoing"
OVER = "over"
UNDER = "under"
SURGERY = "surgery"
WEDGE = "wedge"


@dataclass(frozen=True)
class CrossingSlot:
    """One visit of a circle to a crossing, in role ``over`` or ``under``."""

    crossing: str
    role: str


@dataclass(frozen=True)
class CenterSlot:
    """A wedge circle leaving (``depart``) or re-entering (``return``)
    its wedge center."""

    which: str


DEPART = CenterSlot("depart")
RETURN = CenterSlot("return")


@dataclass(frozen=True)
class Circle:
    """A circle of the diagram: either framed surgery data or one loop of
    a wedge (then ``wedge``/``index`` locate it and ``framing`` is unused)."""

    id: str
    kind: str
    events: tuple = ()
    framing: int = 0
    wedge: str | None = None
    index: int | None = None

    def is_surgery(self):
        return self.kind == SURGERY

    def is_wedge(self):
        return self.kind == WEDGE

    def crossing_events(self):
        """(slot, event) pairs for the crossing events only."""
        return [(i, e) for i, e in enumerate(self.events)
                if isinstance(e, CrossingSlot)]


@dataclass(frozen=True)
class Crossing:
    """A transverse double point; ``over``/``under`` are (circle id, slot)."""

    id: str
    over: tuple
    under: tuple
    sign: int

    def strand(self, role):
        return self.over if role == OVER else self.under

    def right_to_left(self, circle_id):
        """Does the other strand cross circle ``circle_id`` from its right
        side to its left side here?  By the sign convention this holds
        exactly when the sign is +1 with the circle over, or -1 with it
        under."""
        return self.sign == (1 if self.over[0] == circle_id else -1)


@dataclass(frozen=True)
class Wedge:
    """A wedge of ``genus`` circles with a colored center.

    The center rotation is the fixed cyclic order
    (out_1, in_1, ..., out_g, in_g) counterclockwise, where circle i is
    ``circle_ids[i-1]``.  Genus 0 wedges are bare ball markers.
    """

    id: str
    color: str
    circle_ids: tuple = ()

    @property
    def genus(self):
        return len(self.circle_ids)


@dataclass(frozen=True)
class Diagram:
    """An immutable cobordism diagram.

    ``source_order`` / ``target_order`` list the incoming / outgoing wedge
    ids in boundary order.  All query operations are pure; rewriting
    operations live in :mod:`cobkit.editing` and always build new values.
    """

    circles: tuple = ()
    crossings: tuple = ()
    wedges: tuple = ()
    source_order: tuple = ()
    target_order: tuple = ()

    @cached_property
    def circle_by_id(self):
        return {c.id: c for c in self.circles}

    @cached_property
    def crossing_by_id(self):
        return {x.id: x for x in self.crossings}

    @cached_property
    def wedge_by_id(self):
        return {w.id: w for w in self.wedges}

    @cached_property
    def linking_counts(self):
        """Signed crossing count per unordered pair of circle ids, built in
        one sweep over the crossings.  Keys are ``(a, b)`` with ``a <= b``;
        ``(a, a)`` holds the self-crossings of ``a``.  Pairs that never
        cross are absent."""
        counts = {}
        for x in self.crossings:
            key = _pair(x.over[0], x.under[0])
            counts[key] = counts.get(key, 0) + x.sign
        return counts

    @cached_property
    def linking_rows(self):
        """The linking table as relation rows: ``(rows, columns, odd)``.

        ``rows`` holds one tuple per surgery circle, in ``circles`` order,
        with one entry per circle: the framing in the circle's own column
        and its linking number with that circle elsewhere.  ``columns``
        lists the positions of the surgery circles in ``circles``, so the
        rows cut down to those columns are the linking matrix.  ``odd``
        lists in row-major order the ``(row, column)`` positions whose pair
        has an odd signed crossing count; their entries mean nothing, and
        each reader raises on the first odd position it reads.

        Filled from zero rows plus the entries of :attr:`linking_counts`:
        O(n N) at C level for n surgery circles and N circles, plus
        O(entries), with no per-pair lookup.
        """
        circles = self.circles
        column = {c.id: j for j, c in enumerate(circles)}
        columns = tuple(j for j, c in enumerate(circles) if c.is_surgery())
        row_of = {circles[j].id: r for r, j in enumerate(columns)}
        rows = [[0] * len(circles) for _ in columns]
        for r, j in enumerate(columns):
            rows[r][j] = circles[j].framing
        odd = []
        for (a, b), total in self.linking_counts.items():
            if a == b or a not in column or b not in column:
                continue
            for x, y in ((a, b), (b, a)):
                r = row_of.get(x)
                if r is not None:
                    rows[r][column[y]] = total // 2
                    if total % 2:
                        odd.append((r, column[y]))
        return tuple(map(tuple, rows)), columns, tuple(sorted(odd))

    def circle(self, cid) -> Circle:
        try:
            return self.circle_by_id[cid]
        except KeyError:
            raise MalformedDiagramError(f"unknown circle id {cid!r}") from None

    def crossing(self, xid) -> Crossing:
        try:
            return self.crossing_by_id[xid]
        except KeyError:
            raise MalformedDiagramError(f"unknown crossing id {xid!r}") from None

    def wedge(self, wid) -> Wedge:
        try:
            return self.wedge_by_id[wid]
        except KeyError:
            raise MalformedDiagramError(f"unknown wedge id {wid!r}") from None

    def surgery_circles(self):
        return [c for c in self.circles if c.is_surgery()]

    def wedge_circles(self):
        return [c for c in self.circles if c.is_wedge()]


def crossings_along(d: Diagram, cid: str):
    """The crossings met along circle ``cid``, read from its own event
    list in traversal order: ``(slot, crossing, other)`` per crossing
    event, where ``other`` is the (circle, slot) of the strand met there
    (``cid`` itself at a self-crossing, which is met twice)."""
    for slot, e in d.circle(cid).crossing_events():
        x = d.crossing(e.crossing)
        yield slot, x, x.strand(UNDER if e.role == OVER else OVER)


def crossings_between(d: Diagram, a: str, b: str):
    """Crossings with one strand on circle ``a`` and the other on ``b``,
    found along ``a``; a self-crossing (``a == b``) is listed once, at its
    over pass.  An unknown id meets nothing."""
    if a not in d.circle_by_id:
        return []
    return [x for slot, x, (other, _) in crossings_along(d, a)
            if other == b and (a != b or x.over == (a, slot))]


def _pair(a, b):
    return (a, b) if a <= b else (b, a)


def linking_number(d: Diagram, a: str, b: str) -> int:
    """Half the signed count of crossings between two distinct circles."""
    if a == b:
        raise ValueError("linking number needs two distinct circles")
    d.circle(a), d.circle(b)
    total = d.linking_counts.get(_pair(a, b), 0)
    if total % 2:
        raise _odd_count(a, b)
    return total // 2


def _odd_count(a, b):
    return MalformedDiagramError(
        f"odd signed crossing count between {a} and {b}")


def _odd_at(d: Diagram, position):
    """The error for the odd pair at ``position``, a ``(row, column)`` of
    :attr:`Diagram.linking_rows`."""
    r, j = position
    return _odd_count(d.circles[d.linking_rows[1][r]].id, d.circles[j].id)


def linking_matrix(d: Diagram):
    """Symmetric matrix over the surgery circles: framings on the diagonal,
    linking numbers off it.  Returns an :class:`cobkit.invariants.IntMatrix`.

    It is the surgery-column slice of the cached
    :attr:`Diagram.linking_rows`, so after the first reader of the table
    it costs O(n^2) at C level for n surgery circles, and nothing more
    when every circle is a surgery circle.  It raises
    ``MalformedDiagramError`` only on an odd surgery-surgery pair, the
    first in row-major order; an odd pair with a wedge circle is no
    entry of the matrix.
    """
    from .invariants import IntMatrix

    rows, columns, odd = d.linking_rows
    surgery = set(columns)
    for position in odd:
        if position[1] in surgery:
            raise _odd_at(d, position)
    if len(columns) < len(d.circles):
        rows = tuple(tuple(map(row.__getitem__, columns)) for row in rows)
    return IntMatrix(rows)


def writhe(d: Diagram, a: str) -> int:
    """Signed count of self-crossings of one circle."""
    return d.linking_counts.get((a, a), 0)


def relabel(d: Diagram, prefix: str) -> Diagram:
    """A structurally identical copy with every id prefixed.

    Used by ``tensor`` to keep ids collision-free and deterministic;
    ``DiagramEditor.load(d, prefix)`` puts the same prefixes on as it
    loads, with no copy.
    """

    def r(i):
        return prefix + i

    circles = tuple(
        replace(
            c,
            id=r(c.id),
            wedge=None if c.wedge is None else r(c.wedge),
            events=tuple(
                CrossingSlot(r(e.crossing), e.role)
                if isinstance(e, CrossingSlot) else e
                for e in c.events),
        )
        for c in d.circles)
    crossings = tuple(
        replace(x, id=r(x.id),
                over=(r(x.over[0]), x.over[1]),
                under=(r(x.under[0]), x.under[1]))
        for x in d.crossings)
    wedges = tuple(
        replace(w, id=r(w.id), circle_ids=tuple(r(c) for c in w.circle_ids))
        for w in d.wedges)
    return Diagram(circles, crossings, wedges,
                   tuple(r(w) for w in d.source_order),
                   tuple(r(w) for w in d.target_order))
