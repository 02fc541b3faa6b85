"""Canonical forms and structural isomorphism."""

import random
from dataclasses import replace

import pytest

from cobkit import (borromean, canonical_form, hopf, identity_diagram, mend,
                    relabel, sigma_g_s1_link, structural_iso, thread_circle,
                    trefoil, unknot, wedge_row)
from cobkit.diagram import UNDER, Circle, CrossingSlot, Diagram
from conftest import (builder_corpus, canonical_form_oracle, move_walks,
                      resequence, scramble)


def test_iso_under_relabeling():
    for d in [unknot(3), hopf(1, 2), borromean(0, 0, 0), trefoil(),
              identity_diagram(2), sigma_g_s1_link(3)]:
        assert structural_iso(d, relabel(d, "q."))


def test_iso_under_event_rotation():
    d = trefoil()
    c = d.circle("k1")
    rotated = Diagram(
        circles=(Circle(id="k1", kind="surgery", framing=0,
                        events=resequence(c.events, 2)),),
        crossings=tuple(
            x.__class__(id=x.id,
                        over=(x.over[0], (x.over[1] - 2) % 6),
                        under=(x.under[0], (x.under[1] - 2) % 6),
                        sign=x.sign)
            for x in d.crossings))
    assert structural_iso(d, rotated)


def test_framing_distinguishes():
    assert not structural_iso(unknot(0), unknot(1))


def test_circle_count_distinguishes():
    assert not structural_iso(hopf(0, 0), unknot(0))


def test_genus_and_color_matter():
    assert not structural_iso(identity_diagram(1), identity_diagram(2))
    from cobkit import wedge_row
    assert not structural_iso(wedge_row([("incoming", 1)]),
                              wedge_row([("outgoing", 1)]))
    # the identity clasp itself is symmetric under exchanging its wedges
    import cobkit.diagram as D
    a = identity_diagram(1)
    recolored = D.Diagram(
        circles=a.circles, crossings=a.crossings,
        wedges=tuple(D.Wedge(id=w.id,
                             color="incoming" if w.color == "outgoing"
                             else "outgoing",
                             circle_ids=w.circle_ids) for w in a.wedges),
        source_order=a.target_order, target_order=a.source_order)
    assert structural_iso(a, recolored)


def test_equivalence_relation_sample():
    ds = [borromean(0, 0, 0), relabel(borromean(0, 0, 0), "a."),
          relabel(borromean(0, 0, 0), "b."), borromean(0, 0, 1)]
    forms = [canonical_form(d) for d in ds]
    assert forms[0] == forms[1] == forms[2]
    assert forms[3] != forms[0]


def _near_twins(d):
    """Codes one step away from ``d``: its first crossing's sign flipped,
    and its first two crossings' under strands exchanged.  Each is a
    well-formed code, though not always a planar one."""
    if not d.crossings:
        return []
    x, *rest = d.crossings
    twins = [replace(d, crossings=(replace(x, sign=-x.sign), *rest))]
    if rest:
        y = rest[0]
        swap = {x.under: CrossingSlot(y.id, UNDER),
                y.under: CrossingSlot(x.id, UNDER)}
        twins.append(Diagram(
            tuple(replace(c, events=tuple(swap.get((c.id, k), e)
                                          for k, e in enumerate(c.events)))
                  for c in d.circles),
            (replace(x, under=y.under), replace(y, under=x.under),
             *rest[1:]),
            d.wedges, d.source_order, d.target_order))
    return twins


def test_partition_matches_oracle():
    rng = random.Random(1618)
    diagrams = builder_corpus() + move_walks(random.Random(4142), 25, 6)
    diagrams += [t for d in diagrams for t in _near_twins(d)]
    # the same thread on either wedge, or on either circle of one wedge
    for spec, circles in (([("incoming", 1)] * 2, ("w1c1", "w2c1")),
                          ([("incoming", 2)], ("w1c1", "w1c2"))):
        diagrams += [thread_circle(wedge_row(spec), c, "s1") for c in circles]
    diagrams += [scramble(d, rng) for d in diagrams]
    forms = [canonical_form(d) for d in diagrams]
    oracle = [canonical_form_oracle(d) for d in diagrams]
    # Two partitions agree on every pair exactly when each class of one
    # is a class of the other: no form is paired with two oracle forms,
    # and no oracle form with two forms.
    pairs = set(zip(forms, oracle))
    assert len(pairs) == len(set(forms)) == len(set(oracle))
    half = len(diagrams) // 2
    assert forms[:half] == forms[half:]
    assert len(set(forms)) > 300


@pytest.mark.parametrize("g", [8, 16, 32])
def test_invariant_under_relabel_rotate_shuffle(g):
    rng = random.Random(g)
    for d in (sigma_g_s1_link(g), mend(identity_diagram(g), "V", "U"),
              identity_diagram(g)):
        form = canonical_form(d)
        for _ in range(2):
            assert canonical_form(scramble(d, rng)) == form
    s = sigma_g_s1_link(g)
    k = s.circles[-1]
    reframed = replace(s, circles=s.circles[:-1] + (replace(k, framing=1),))
    assert canonical_form(reframed) != canonical_form(s)
