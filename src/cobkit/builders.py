"""Constructors for the named diagrams and small test links.

Every builder is deterministic: repeated calls return structurally
identical values, including ids, so golden files stay stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import (Circle, CrossingSlot, Diagram, INCOMING, OUTGOING,
                      OVER, SURGERY, UNDER)
from .editing import DiagramEditor, borromean_motif_events, clasp_events


def wedge_row(spec) -> Diagram:
    """Unlinked wedges side by side, no surgery data.

    ``spec`` is a list of (color, genus) pairs, e.g.
    ``[("incoming", 2), ("outgoing", 1)]``.
    """
    ed = DiagramEditor()
    for k, (color, genus) in enumerate(spec, start=1):
        wid = f"w{k}"
        ed.add_wedge(wid, color, [f"{wid}c{i}" for i in range(1, genus + 1)])
    return ed.freeze()


def empty_diagram() -> Diagram:
    return Diagram()


def identity_diagram(g: int) -> Diagram:
    """The identity link of wedges on a genus-g surface.

    One incoming wedge U and one outgoing wedge V; circle U_i claps V_i
    positively (two +1 crossings, linking number +1), with clasps in
    index order and no other crossings.  For g = 0 this is two bare ball
    markers.
    """
    if g < 0:
        raise ValueError("genus must be >= 0")
    ed = DiagramEditor()
    ed.add_wedge("U", INCOMING, [f"u{i}" for i in range(1, g + 1)])
    ed.add_wedge("V", OUTGOING, [f"v{i}" for i in range(1, g + 1)])
    for i in range(1, g + 1):
        clasp_events(ed, f"u{i}", 1, f"v{i}", 1, prefix="x")
    return ed.freeze()


def unknot(framing: int) -> Diagram:
    """A crossing-free circle with the given framing."""
    return Diagram(circles=(Circle(id="k1", kind=SURGERY, framing=framing),))


def hopf(f1: int, f2: int) -> Diagram:
    """The positive Hopf link (linking number +1) with given framings."""
    ed = DiagramEditor()
    ed.add_surgery_circle("k1", f1)
    ed.add_surgery_circle("k2", f2)
    clasp_events(ed, "k1", 0, "k2", 0)
    return ed.freeze()


def borromean(f1: int, f2: int, f3: int) -> Diagram:
    """The standard 6-crossing Borromean rings with given framings."""
    ed = DiagramEditor()
    ed.add_surgery_circle("k1", f1)
    ed.add_surgery_circle("k2", f2)
    ed.add_surgery_circle("k3", f3)
    ev_a, ev_b, ev_c = borromean_motif_events(ed)
    ed.events["k1"] = ev_a
    ed.events["k2"] = ev_b
    ed.events["k3"] = ev_c
    return ed.freeze()


def stacked_rings(f1: int = 0, f2: int = 0, f3: int = 0) -> Diagram:
    """Three unlinked rings drawn in Venn position with a strict height
    order (first over both, second over third).

    Every face is a triangle and every one admits the R3 slide, which
    makes this the canonical fixture for triangle moves.
    """
    ed = DiagramEditor()
    ed.add_surgery_circle("k1", f1)
    ed.add_surgery_circle("k2", f2)
    ed.add_surgery_circle("k3", f3)
    ab_o = ed.new_crossing(-1)
    ab_i = ed.new_crossing(1)
    bc_o = ed.new_crossing(-1)
    bc_i = ed.new_crossing(1)
    ca_o = ed.new_crossing(1)
    ca_i = ed.new_crossing(-1)
    ed.events["k1"] = [CrossingSlot(ab_o, OVER), CrossingSlot(ca_i, OVER),
                       CrossingSlot(ab_i, OVER), CrossingSlot(ca_o, OVER)]
    ed.events["k2"] = [CrossingSlot(bc_o, OVER), CrossingSlot(ab_i, UNDER),
                       CrossingSlot(bc_i, OVER), CrossingSlot(ab_o, UNDER)]
    ed.events["k3"] = [CrossingSlot(ca_o, UNDER), CrossingSlot(bc_i, UNDER),
                       CrossingSlot(ca_i, UNDER), CrossingSlot(bc_o, UNDER)]
    return ed.freeze()


def trefoil() -> Diagram:
    """Right-handed trefoil, framing 0; handy as a knotted fixture."""
    ed = DiagramEditor()
    ed.add_surgery_circle("k1", 0)
    xs = [ed.new_crossing(1) for _ in range(3)]
    ed.events["k1"] = [
        CrossingSlot(xs[0], OVER), CrossingSlot(xs[1], UNDER),
        CrossingSlot(xs[2], OVER), CrossingSlot(xs[0], UNDER),
        CrossingSlot(xs[1], OVER), CrossingSlot(xs[2], UNDER),
    ]
    return ed.freeze()


@dataclass(frozen=True)
class SigmaS1Link(Diagram):
    """Surgery link presenting (genus-g surface) x S^1: one Brunnian circle
    and g coupled pairs, each triple a Borromean motif, all framings 0."""

    brunnian: str = ""
    coupled: tuple = ()


def sigma_g_s1_link(g: int) -> SigmaS1Link:
    """The 0-framed (2g+1)-component link presenting Sigma_g x S^1.

    g = 0 gives the 0-framed unknot; g = 1 the Borromean rings.  The
    Brunnian circle threads the g motifs in sequence; all pairwise
    linking numbers vanish.
    """
    if g < 0:
        raise ValueError("genus must be >= 0")
    ed = DiagramEditor()
    ed.add_surgery_circle("b", 0)
    coupled = []
    brunnian_events = []
    for i in range(1, g + 1):
        xi, yi = f"x{i}", f"y{i}"
        ed.add_surgery_circle(xi, 0)
        ed.add_surgery_circle(yi, 0)
        ev_a, ev_b, ev_c = borromean_motif_events(ed, prefix=f"m{i}x")
        brunnian_events.extend(ev_a)
        ed.events[xi] = ev_b
        ed.events[yi] = ev_c
        coupled.append((xi, yi))
    ed.events["b"] = brunnian_events
    d = ed.freeze()
    return SigmaS1Link(circles=d.circles, crossings=d.crossings,
                       wedges=d.wedges, source_order=d.source_order,
                       target_order=d.target_order,
                       brunnian="b", coupled=tuple(coupled))


def thread_circle(d: Diagram, wedge_circle: str, circle_id: str,
                  framing: int = 0, sign: int = 1) -> Diagram:
    """Add a fresh surgery circle piercing the membrane of
    ``wedge_circle`` exactly once with the given sign (a single clasp).

    The new circle takes the strand role of the clasp: it dives under at
    the first crossing, and its linking number with the wedge circle is
    ``sign``.
    """
    ed = DiagramEditor(d)
    ed.add_surgery_circle(circle_id, framing)
    at = len(ed.events[wedge_circle]) - 1   # just before the return slot
    clasp_events(ed, circle_id, 0, wedge_circle, at, prefix=f"{circle_id}x",
                 sign=1 if sign == 1 else -1)
    return ed.freeze()


def overpass_circle(d: Diagram, wedge_circle: str, circle_id: str,
                    framing: int = 0, above: bool = True) -> Diagram:
    """Add a fresh surgery circle whose projection sweeps across the
    membrane region of ``wedge_circle`` without piercing it (equal flags,
    signs cancel, linking number 0).
    """
    ed = DiagramEditor(d)
    ed.add_surgery_circle(circle_id, framing)
    p = ed.new_crossing(-1, prefix=f"{circle_id}x")
    q = ed.new_crossing(1, prefix=f"{circle_id}x")
    mine = OVER if above else UNDER
    its = UNDER if above else OVER
    ed.events[circle_id] = [CrossingSlot(p, mine), CrossingSlot(q, mine)]
    at = len(ed.events[wedge_circle]) - 1
    ed.insert_events(wedge_circle, at,
                     [CrossingSlot(p, its), CrossingSlot(q, its)])
    return ed.freeze()
