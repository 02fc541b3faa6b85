"""SVG rendering: determinism, crossing gaps, map fidelity."""

import re

from cobkit import (borromean, hopf, identity_diagram, render_svg,
                    sigma_g_s1_link, tensor, trefoil, unknot, wedge_row)
from cobkit.planarity import CombinatorialMap, circle_arcs, Dart


def extract_map(svg_text: str):
    """Rebuild (rotations, arc endpoints) from a rendered SVG, to check
    that the drawing realizes the diagram's map."""
    rotations = {}
    for m in re.finditer(
            r'<g class="vertex" data-id="([^"]+)" data-rotation="([^"]*)"',
            svg_text):
        vid, rot = m.group(1), m.group(2)
        darts = []
        if rot:
            for item in rot.split(";"):
                cid, arc, dr = item.rsplit(":", 2)
                darts.append(Dart(cid, int(arc), int(dr)))
        rotations[vid] = tuple(darts)
    arcs = {}
    for m in re.finditer(
            r'<path class="strand" data-circle="([^"]+)" data-arc="(\d+)" '
            r'data-tail="([^"]+)" data-head="([^"]+)"', svg_text):
        arcs[(m.group(1), int(m.group(2)))] = (m.group(3), m.group(4))
    return rotations, arcs


def test_identity_render_has_gapped_crossings():
    svg = render_svg(identity_diagram(1))
    assert svg.count('class="crossing"') == 2
    gaps = svg.count('data-start-gap="1"') + svg.count('data-end-gap="1"')
    assert gaps == 4        # each crossing interrupts the under strand twice


def test_borromean_render_structure():
    svg = render_svg(borromean(0, 0, 0))
    assert svg.count('class="crossing"') == 6
    framings = [line for line in svg.splitlines()
                if 'class="framing"' in line]
    assert len(framings) == 3
    assert all(">0</text>" in line for line in framings)


def test_render_deterministic():
    for d in [unknot(3), trefoil(), identity_diagram(2),
              tensor(hopf(0, 0), unknot(1))]:
        assert render_svg(d) == render_svg(d)


def test_render_colors_wedges():
    svg = render_svg(wedge_row([("incoming", 1), ("outgoing", 1)]))
    assert "#c0392b" in svg      # red incoming
    assert "#2e5fa3" in svg      # blue outgoing


def test_extracted_map_matches_diagram():
    for d in [trefoil(), identity_diagram(2), sigma_g_s1_link(1),
              tensor(unknot(0), hopf(1, 2))]:
        svg = render_svg(d)
        rotations, arcs = extract_map(svg)
        cmap = CombinatorialMap(d)
        assert len(rotations) == len(cmap.rotations)
        for v, rot in cmap.rotations.items():
            assert rotations[f"{v[0]}:{v[1]}"] == tuple(rot)
        for c in d.circles:
            for a in range(circle_arcs(c)):
                tail = cmap.dart_base[Dart(c.id, a, 1)]
                head = cmap.dart_base[Dart(c.id, a, -1)]
                assert arcs[(c.id, a)] == (
                    f"{tail[0]}:{tail[1]}", f"{head[0]}:{head[1]}")
