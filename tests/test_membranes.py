"""Membrane piercings, excursions, standard position."""

import random
from dataclasses import replace

import pytest

from cobkit import (identity_diagram, is_standard_position, linking_number,
                    overpass_circle, piercings, sew, thread_circle, unknot,
                    validate, wedge_row)
from cobkit.diagram import OVER, UNDER, CrossingSlot, crossings_between
from cobkit.editing import DiagramEditor
from cobkit.errors import CobkitError, NotWedgeCircleError
from cobkit.membranes import circle_excursions, membrane_excursions
from conftest import (builder_corpus, circle_excursions_oracle,
                      is_standard_position_oracle, move_walks)


def test_identity_wedge_pierces_partner_once():
    d = identity_diagram(3)
    for i in (1, 2, 3):
        ps = piercings(d, f"u{i}")
        assert len(ps) == 1
        assert ps[0].strand == f"v{i}"
        assert ps[0].sign == 1
        ps = piercings(d, f"v{i}")
        assert [(p.strand, p.sign) for p in ps] == [(f"u{i}", 1)]


def test_overpass_gives_no_piercing_and_cancels():
    w = wedge_row([("incoming", 1)])
    d = overpass_circle(w, "w1c1", "s1")
    assert piercings(d, "w1c1") == []
    signs = [x.sign for x in crossings_between(d, "s1", "w1c1")]
    assert sorted(signs) == [-1, 1]
    assert linking_number(d, "s1", "w1c1") == 0
    kinds = [e.kind() for _, e in membrane_excursions(d, "w1c1")]
    assert kinds == ["over"]


def test_piercings_require_wedge_circle():
    with pytest.raises(NotWedgeCircleError):
        piercings(unknot(0), "k1")


def test_signed_piercings_equal_linking(incoming_corpus):
    for g, d in incoming_corpus:
        for c in d.wedge_circles():
            per_strand = {}
            for p in piercings(d, c.id):
                per_strand[p.strand] = per_strand.get(p.strand, 0) + p.sign
            strands = {x.over[0] if x.under[0] == c.id else x.under[0]
                       for x in d.crossings
                       if c.id in (x.over[0], x.under[0])}
            for s in strands:
                if s == c.id or d.circle(s).is_wedge():
                    continue
                assert per_strand.get(s, 0) == linking_number(d, s, c.id)


def test_piercing_order_runs_along_the_circle():
    w = wedge_row([("incoming", 1)])
    d = thread_circle(thread_circle(w, "w1c1", "s1"), "w1c1", "s2")
    ps = piercings(d, "w1c1")
    assert [p.strand for p in ps] == ["s1", "s2"]
    assert ps[0].order_key < ps[1].order_key


def _nested_wedges():
    """Two wedges of one circle each, ``a`` (incoming) and ``b``
    (outgoing), with no crossing between them, tied by one surgery
    circle ``s`` that runs over both; the signs put ``a`` on the membrane
    side of ``b``, so only the containment step can reject it."""
    ed = DiagramEditor()
    ed.add_wedge("A", "incoming", ["a"])
    ed.add_wedge("B", "outgoing", ["b"])
    p = ed.new_crossing(1, "p")
    r1 = ed.new_crossing(1, "r")
    r2 = ed.new_crossing(-1, "r")
    q = ed.new_crossing(-1, "q")
    ed.add_surgery_circle("s", 0, [CrossingSlot(x, OVER)
                                   for x in (p, r1, r2, q)])
    ed.insert_events("a", 1, [CrossingSlot(p, UNDER), CrossingSlot(q, UNDER)])
    ed.insert_events("b", 1, [CrossingSlot(r1, UNDER),
                              CrossingSlot(r2, UNDER)])
    return ed.freeze()


def test_standard_position_judgments():
    assert not is_standard_position(identity_diagram(2))
    assert is_standard_position(wedge_row([("incoming", 1), ("outgoing", 1)]))
    w = wedge_row([("incoming", 2), ("outgoing", 2)])
    assert is_standard_position(thread_circle(w, "w1c1", "s1"))
    nested = _nested_wedges()
    assert validate(nested).ok
    assert not crossings_between(nested, "a", "b")
    assert not is_standard_position(nested)


def test_standard_position_matches_pairwise_oracle():
    diagrams = (builder_corpus() + move_walks(random.Random(5772), 25, 6)
                + [_nested_wedges(),
                   wedge_row([("incoming", 16), ("outgoing", 16)])])
    verdicts = [is_standard_position(d) for d in diagrams]
    assert verdicts == [is_standard_position_oracle(d) for d in diagrams]
    assert True in verdicts and False in verdicts


def test_standard_position_builds_one_map(monkeypatch):
    from cobkit import planarity

    built = []
    init = planarity.CombinatorialMap.__init__

    def counting_init(self, d):
        built.append(d)
        init(self, d)

    monkeypatch.setattr(planarity.CombinatorialMap, "__init__",
                        counting_init)
    d = wedge_row([("incoming", 32), ("outgoing", 32)])
    assert is_standard_position(d)
    assert len(built) == 1


def test_sew_of_standard_inputs_is_standard():
    dc = thread_circle(wedge_row([("outgoing", 1)]), "w1c1", "s1")
    dd = thread_circle(wedge_row([("incoming", 1), ("outgoing", 2)]),
                       "w1c1", "s1")
    assert is_standard_position(dc) and is_standard_position(dd)
    out = sew(dc, "w1", dd, "w1")
    assert validate(out).ok
    assert is_standard_position(out)


def _outcome(f, d, cid):
    try:
        return f(d, cid)
    except CobkitError as exc:
        return type(exc), str(exc)


def _flawed_codes():
    """Codes whose membrane pairing fails: a strand crossing a circle
    three times, and single sign flips that make two enter (or leave)
    flags follow each other."""
    ed = DiagramEditor()
    ed.add_surgery_circle("k", 0)
    ed.add_surgery_circle("s", 0)
    xs = [ed.new_crossing(1) for _ in range(3)]
    ed.events["k"] = [CrossingSlot(x, UNDER) for x in xs]
    ed.events["s"] = [CrossingSlot(x, OVER) for x in xs]
    out = [ed.freeze()]
    w = wedge_row([("incoming", 1)])
    for d in (overpass_circle(w, "w1c1", "s1"),
              thread_circle(w, "w1c1", "s1", sign=-1)):
        for k, x in enumerate(d.crossings):
            flipped = replace(x, sign=-x.sign)
            out.append(replace(d, crossings=d.crossings[:k] + (flipped,)
                               + d.crossings[k + 1:]))
    return out


def test_circle_excursions_match_rescan_oracle():
    diagrams = (builder_corpus() + _flawed_codes()
                + move_walks(random.Random(2718), 25, 6))
    outcomes = []
    for d in diagrams:
        for c in d.circles:
            got = _outcome(circle_excursions, d, c.id)
            assert got == _outcome(circle_excursions_oracle, d, c.id)
            outcomes.append(got)
    messages = [o[1] for o in outcomes if isinstance(o, tuple)]
    for phrase in ("self-crossings", "odd number", "never enters",
                   "do not alternate"):
        assert any(phrase in text for text in messages)
    assert any(o for o in outcomes if isinstance(o, list))
