"""Deterministic SVG rendering of diagram projections.

The layout is purely combinatorial: every arc is subdivided twice, the
largest face of each connected component is pinned to a regular polygon,
and interior nodes relax to the barycenter of their neighbours for a
fixed number of rounds.  The result is a correct-by-construction planar
drawing of the rotation system, not an aesthetic optimum.

Over/under information is drawn the usual way: the under strand's ends
are trimmed short of each crossing, leaving a visible gap, and the over
strand runs through.  Wedge circles are colored by boundary role (red
incoming, blue outgoing) and surgery circles carry their framing label.

Every element also carries the combinatorial data it realizes
(``data-*`` attributes for arcs, crossings, and vertex rotations), so
tests can re-extract the map from the file and compare it with the
diagram's faces.
"""

from __future__ import annotations

from .diagram import CrossingSlot, Diagram, OUTGOING, UNDER
from .planarity import CombinatorialMap, Dart, arc_endpoints, circle_arcs

_ROUNDS = 240
_RADIUS = 160.0
_SPACING = 420.0

RED = "#c0392b"
BLUE = "#2e5fa3"
BLACK = "#222222"


def _vertex_key(v):
    return f"{v[0]}:{v[1]}"


def _sub(cid, arc, k):
    return f"s:{cid}:{arc}:{k}"


def _layout(d: Diagram, cmap: CombinatorialMap):
    """node -> (x, y); deterministic."""
    nodes = {}
    neighbours = {}

    def link(a, b):
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)

    for v in cmap.rotations:
        nodes[_vertex_key(v)] = None
        neighbours.setdefault(_vertex_key(v), [])
    for c in d.circles:
        for a in range(circle_arcs(c)):
            s0, s1 = _sub(c.id, a, 0), _sub(c.id, a, 1)
            nodes[s0] = nodes[s1] = None
            tail = _vertex_key(cmap.dart_base[Dart(c.id, a, 1)])
            head = _vertex_key(cmap.dart_base[Dart(c.id, a, -1)])
            link(tail, s0)
            link(s0, s1)
            link(s1, head)

    # Group nodes by connected component of the map.
    comps = cmap.components()
    comp_of_vertex = {}
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of_vertex[_vertex_key(v)] = i
    comp_of_node = {}
    for c in d.circles:
        base = comp_of_vertex[_vertex_key(
            cmap.dart_base[Dart(c.id, 0, 1)])]
        for a in range(circle_arcs(c)):
            for k in (0, 1):
                comp_of_node[_sub(c.id, a, k)] = base
    comp_of_node.update(comp_of_vertex)

    faces = cmap.faces()
    import math

    placed = {}
    for i, comp in enumerate(comps):
        cx = _SPACING * i + _RADIUS + 40.0
        cy = _RADIUS + 40.0
        comp_keys = {k for k, ci in comp_of_node.items() if ci == i}
        comp_faces = [f for f in faces
                      if comp_of_vertex[_vertex_key(
                          cmap.dart_base[f[0]])] == i]
        if not comp_faces:
            # isolated vertex (a bare ball marker)
            for k in sorted(comp_keys):
                placed[k] = (cx, cy)
            continue
        outer = max(comp_faces, key=lambda f: (len(f), f))
        ring = []
        for dart in outer:
            ring.append(_vertex_key(cmap.dart_base[dart]))
            subs = [_sub(dart.circle, dart.arc, 0),
                    _sub(dart.circle, dart.arc, 1)]
            if dart.dir == -1:
                subs.reverse()
            ring.extend(subs)
        pins = {}
        for j, key in enumerate(ring):
            if key not in pins:
                angle = 2.0 * math.pi * j / len(ring)
                pins[key] = (cx + _RADIUS * math.cos(angle),
                             cy + _RADIUS * math.sin(angle))
        pos = {k: pins.get(k, (cx, cy)) for k in comp_keys}
        free = sorted(comp_keys - set(pins))
        for _ in range(_ROUNDS):
            for k in free:
                around = neighbours[k]
                if around:
                    pos[k] = (sum(pos[a][0] for a in around) / len(around),
                              sum(pos[a][1] for a in around) / len(around))
        placed.update(pos)
    return placed


def _stroke(d: Diagram, c):
    if not c.is_wedge():
        return BLACK
    return BLUE if d.wedge(c.wedge).color == OUTGOING else RED


def _trim(p, q, amount=9.0):
    """Point ``amount`` short of q on the segment p -> q."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    norm = (dx * dx + dy * dy) ** 0.5 or 1.0
    t = max(0.0, 1.0 - amount / norm)
    return (p[0] + dx * t, p[1] + dy * t)


def render_svg(d: Diagram) -> str:
    """A deterministic SVG drawing of the diagram's projection."""
    cmap = CombinatorialMap(d)
    pos = _layout(d, cmap)

    def fmt(p):
        return f"{p[0]:.2f},{p[1]:.2f}"

    parts = []
    width = _SPACING * max(1, len(cmap.components())) + 60.0
    height = 2 * _RADIUS + 120.0
    parts.append(
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">')
    parts.append('<rect width="100%" height="100%" fill="white"/>')

    # Vertex rotation records, for map re-extraction.
    for v in sorted(cmap.rotations):
        rot = ";".join(f"{dt.circle}:{dt.arc}:{dt.dir}"
                       for dt in cmap.rotations[v])
        x, y = pos[_vertex_key(v)]
        parts.append(
            f'<g class="vertex" data-id="{_vertex_key(v)}" '
            f'data-rotation="{rot}" data-x="{x:.2f}" data-y="{y:.2f}"/>')

    # Arcs.
    for c in d.circles:
        stroke = _stroke(d, c)
        n = len(c.events)
        for a in range(circle_arcs(c)):
            tail_v = cmap.dart_base[Dart(c.id, a, 1)]
            head_v = cmap.dart_base[Dart(c.id, a, -1)]
            p0 = pos[_vertex_key(tail_v)]
            p3 = pos[_vertex_key(head_v)]
            p1 = pos[_sub(c.id, a, 0)]
            p2 = pos[_sub(c.id, a, 1)]
            start_gap = end_gap = 0
            if n:
                tail_slot, head_slot = arc_endpoints(d, c, a)
                tail_ev = c.events[tail_slot]
                head_ev = c.events[head_slot]
                if isinstance(tail_ev, CrossingSlot) and tail_ev.role == UNDER:
                    p0 = _trim(p1, p0)
                    start_gap = 1
                if isinstance(head_ev, CrossingSlot) and head_ev.role == UNDER:
                    p3 = _trim(p2, p3)
                    end_gap = 1
            parts.append(
                f'<path class="strand" data-circle="{c.id}" data-arc="{a}" '
                f'data-tail="{_vertex_key(tail_v)}" '
                f'data-head="{_vertex_key(head_v)}" '
                f'data-start-gap="{start_gap}" data-end-gap="{end_gap}" '
                f'fill="none" stroke="{stroke}" stroke-width="2" '
                f'd="M {fmt(p0)} L {fmt(p1)} L {fmt(p2)} L {fmt(p3)}"/>')

    # Crossings and wedge centers.
    for x in d.crossings:
        p = pos[_vertex_key(("x", x.id))]
        parts.append(
            f'<g class="crossing" data-id="{x.id}" data-sign="{x.sign:+d}" '
            f'data-over="{x.over[0]}:{x.over[1]}" '
            f'data-under="{x.under[0]}:{x.under[1]}">'
            f'<circle cx="{p[0]:.2f}" cy="{p[1]:.2f}" r="1.0" '
            'fill="none" stroke="none"/></g>')
    for w in d.wedges:
        v = ("w", w.id)
        if v in cmap.rotations:
            p = pos[_vertex_key(v)]
            color = BLUE if w.color == OUTGOING else RED
            parts.append(
                f'<circle class="center" data-wedge="{w.id}" '
                f'cx="{p[0]:.2f}" cy="{p[1]:.2f}" r="4" fill="{color}"/>')

    # Framing labels near each surgery circle's first drawn point.
    for c in d.circles:
        if not c.is_surgery():
            continue
        p = pos[_sub(c.id, 0, 0)]
        parts.append(
            f'<text class="framing" data-circle="{c.id}" '
            f'x="{p[0] + 6.0:.2f}" y="{p[1] - 6.0:.2f}" '
            f'font-size="12" fill="{BLACK}">{c.framing}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"

