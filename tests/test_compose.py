"""Tensor, permutation, inside-out, sewing, mending, composition."""

import importlib
import os
import pathlib
import random
import subprocess
import sys

import pytest

import cobkit
from cobkit import (CompositionError, borromean, boundary_profile, compose,
                    h1_closed, h1_cobordism, identity_diagram, inside_out,
                    is_standard_position, linking_matrix, linking_number,
                    make_identity_link, mend, overpass_circle, permute,
                    serialize, sew, sigma_g_s1_link, structural_iso, tensor,
                    thread_circle, unknot, validate, wedge_row)
from cobkit.compose import _find_clasp, delete_wedge
from cobkit.diagram import INCOMING, OUTGOING, OVER, UNDER, CrossingSlot
from cobkit.editing import DiagramEditor, clasp_events
from cobkit.errors import GenusMismatchError, MalformedDiagramError

from conftest import (corpus_with_wedge, find_clasp_oracle, outcome,
                      random_valid_move, sew_oracle)


# -- tensor -------------------------------------------------------------------

def test_tensor_unit_law():
    d = borromean(0, 0, 0)
    assert structural_iso(tensor(wedge_row([]), d), d)
    assert structural_iso(tensor(d, wedge_row([])), d)


def test_tensor_profiles_concatenate():
    t = tensor(wedge_row([("incoming", 1)]), wedge_row([("outgoing", 2)]))
    assert boundary_profile(t) == ((1,), (2,))


def test_tensor_block_matrix():
    t = tensor(unknot(0), borromean(0, 0, 0))
    m = linking_matrix(t)
    assert m.rows == 4
    assert all(v == 0 for row in m.entries for v in row)


# -- permute ------------------------------------------------------------------

def test_permute_identity_and_inverse():
    d = tensor(wedge_row([("incoming", 1), ("incoming", 2)]),
               wedge_row([("outgoing", 3)]))
    same = permute(d, [0, 1], [0])
    assert structural_iso(same, d)
    swapped = permute(d, [1, 0], [0])
    assert boundary_profile(swapped) == ((2, 1), (3,))
    back = permute(swapped, [1, 0], [0])
    assert back == d


def test_permute_size_mismatch():
    with pytest.raises(ValueError):
        permute(identity_diagram(1), [0, 1], [0])


def test_permute_swaps_only_orders():
    d = tensor(wedge_row([("incoming", 1)]), wedge_row([("incoming", 1)]))
    out = permute(d, [1, 0], [])
    assert out.circles == d.circles
    assert out.crossings == d.crossings
    assert out.source_order == tuple(reversed(d.source_order))


# -- inside-out ---------------------------------------------------------------

def test_inside_out_bare_wedge_is_identity_pattern():
    d = wedge_row([("outgoing", 2)])
    p = inside_out(d, "w1")
    assert p.genus == 2
    assert p.interior.circles == ()
    assert all(band == () for band in p.bands)
    assert p.target_label == 0


def test_inside_out_single_piercing():
    d = thread_circle(wedge_row([("outgoing", 1)]), "w1c1", "s1")
    p = inside_out(d, "w1")
    (band,) = p.bands
    assert len(band) == 1
    assert band[0].kind == "traverse"
    assert band[0].strand == "s1"
    assert band[0].direction == 1


def test_inside_out_overpass_is_cross_event():
    d = overpass_circle(wedge_row([("outgoing", 1)]), "w1c1", "s1")
    p = inside_out(d, "w1")
    (band,) = p.bands
    assert [e.kind for e in band] == ["over"]
    assert not [e for e in band if e.kind == "traverse"]


def test_inside_out_identity_diagram():
    p = inside_out(identity_diagram(2), "V")
    assert [len(b) for b in p.bands] == [1, 1]
    assert all(b[0].kind == "traverse" and b[0].direction == 1
               for b in p.bands)
    # the interior is the bare incoming wedge
    assert [c.id for c in p.interior.circles] == ["u1", "u2"]
    assert p.interior.crossings == ()


def test_inside_out_needs_outgoing_wedge():
    with pytest.raises(CompositionError):
        inside_out(identity_diagram(1), "U")


def test_inside_out_rejects_crossing_circles_of_one_wedge():
    # validate rejects the code (wedge-self-crossing); inside_out and sew,
    # which do not validate their input, still name it malformed
    ed = DiagramEditor(wedge_row([("outgoing", 2)]))
    clasp_events(ed, "w1c1", 1, "w1c2", 1)
    d = ed.freeze()
    with pytest.raises(MalformedDiagramError):
        inside_out(d, "w1")
    with pytest.raises(MalformedDiagramError):
        sew(d, "w1", identity_diagram(2), "U")


# -- sewing -------------------------------------------------------------------

def test_sew_two_balls_make_empty_diagram():
    out = sew(wedge_row([("outgoing", 0)]), "w1",
              wedge_row([("incoming", 0)]), "w1")
    assert out.circles == () and out.wedges == ()
    assert str(h1_closed(out)) == "0"


def test_sew_identity_to_identity_torus():
    out = sew(identity_diagram(1), "V", identity_diagram(1), "U")
    assert validate(out).ok
    assert boundary_profile(out) == ((1,), (1,))
    assert str(h1_cobordism(out)) == "Z^2"


def test_sew_unit_laws_on_corpus(incoming_corpus, outgoing_corpus):
    checked = 0
    for g, d in incoming_corpus:
        out = sew(identity_diagram(g), "V", d, "w1")
        assert validate(out).ok
        assert h1_cobordism(out) == h1_cobordism(d), (g, d)
        src, tgt = boundary_profile(d)
        src2, tgt2 = boundary_profile(out)
        assert sorted(src2) == sorted(src) and sorted(tgt2) == sorted(tgt)
        checked += 1
    for g, d in outgoing_corpus:
        out = sew(d, "w1", identity_diagram(g), "U")
        assert validate(out).ok
        assert h1_cobordism(out) == h1_cobordism(d), (g, d)
        src, tgt = boundary_profile(d)
        src2, tgt2 = boundary_profile(out)
        assert sorted(src2) == sorted(src) and sorted(tgt2) == sorted(tgt)
        checked += 1
    assert checked >= 40


def test_sew_handles_backwards_and_mixed_cables():
    # a negative piercing travels its band backwards; the cable splice
    # reverses and flips signs, and the unit law must still hold exactly
    w = wedge_row([("outgoing", 1)])
    neg = thread_circle(w, "w1c1", "s1", sign=-1)
    assert linking_number(neg, "s1", "w1c1") == -1
    out = sew(neg, "w1", identity_diagram(1), "U")
    assert validate(out).ok
    assert h1_cobordism(out) == h1_cobordism(neg)
    mixed = thread_circle(neg, "w1c1", "s2", sign=1)
    out2 = sew(mixed, "w1", identity_diagram(1), "U")
    assert validate(out2).ok
    assert h1_cobordism(out2) == h1_cobordism(mixed)


def test_mend_inherits_surgery_crossings():
    # the pair circles may carry crossings with surgery strands, which the
    # fresh coupled circles inherit
    d = thread_circle(identity_diagram(1), "u1", "s1")
    m = mend(d, "V", "U")
    assert validate(m).ok
    fresh = [c for c in m.surgery_circles() if c.id != "s1"]
    assert len(fresh) == 3
    assert all(c.framing == 0 for c in fresh)
    for a in fresh:
        for b in fresh:
            if a.id != b.id:
                assert linking_number(m, a.id, b.id) == 0
    brunnian = next(c for c in fresh if c.id.startswith("mb"))
    for c in m.circles:
        if c.id != brunnian.id:
            assert linking_number(m, brunnian.id, c.id) == 0


def test_sew_identity_absorbs_structurally():
    # sewing the identity onto a wedge reproduces the diagram itself
    d = thread_circle(wedge_row([("incoming", 2), ("outgoing", 1)]),
                      "w1c1", "s1")
    out = sew(identity_diagram(2), "V", d, "w1")
    assert structural_iso(out, d)


def test_sew_genus_mismatch():
    with pytest.raises(GenusMismatchError):
        sew(identity_diagram(1), "V", identity_diagram(2), "U")


def test_sew_surgery_bookkeeping(outgoing_corpus):
    for g, d in outgoing_corpus:
        out = sew(d, "w1", identity_diagram(g), "U")
        assert len(out.surgery_circles()) == len(d.surgery_circles())
        assert len(out.wedge_circles()) == \
            len(d.wedge_circles()) - g + g   # consumed wedge replaced


def _decorated_row(rng, gmax, kmax):
    """``wedge_row([("incoming", g), ("outgoing", g)])`` with up to
    ``kmax`` threads (random sign) or overpasses (random height) on each
    wedge circle, framings in [-1, 1]."""
    g = rng.randint(1, gmax)
    d = wedge_row([("incoming", g), ("outgoing", g)])
    k = 0
    for cid in [c.id for c in d.wedge_circles()]:
        for _ in range(rng.randint(0, kmax)):
            k += 1
            if rng.random() < 0.6:
                d = thread_circle(d, cid, f"s{k}", framing=rng.randint(-1, 1),
                                  sign=rng.choice((1, -1)))
            else:
                d = overpass_circle(d, cid, f"s{k}",
                                    framing=rng.randint(-1, 1),
                                    above=rng.random() < 0.5)
    return g, d


def test_sew_matches_relabeling_oracle():
    """Seeded decorated rows sewn through identities on either side, re-sewn,
    sewn at the wrong color or genus, and walked by random moves (which
    leave foreign events in membranes): the result's text, or the
    exception class and message, equals the relabeling sew's."""
    rng = random.Random(28)
    cases = []
    for _ in range(60):
        g, a = _decorated_row(rng, 3, 3)
        ident = identity_diagram(g)
        cases += [(a, "w2", ident, "U"), (ident, "V", a, "w1"),
                  (a, "w1", ident, "U"),
                  (a, "w2", identity_diagram(g + 1), "U")]
        first = outcome(sew, a, "w2", ident, "U")
        if first[0] == "ok":
            cases += [(first[1], "d.V", ident, "U"),
                      (first[1], "d.V", a, "w1")]
    for _ in range(30):
        g, a = _decorated_row(rng, 2, 2)
        for _ in range(6):
            step = random_valid_move(rng, a)
            if step is not None:
                a = step[1]
        ident = identity_diagram(g)
        cases += [(a, "w2", ident, "U"), (ident, "V", a, "w1")]
    # A wedge circle crossing itself (which ``validate`` rejects).
    ed = DiagramEditor(wedge_row([("incoming", 1)]))
    x = ed.new_crossing(1)
    ed.insert_events("w1c1", 1, [CrossingSlot(x, OVER),
                                 CrossingSlot(x, UNDER)])
    cases.append((identity_diagram(1), "V", ed.freeze(), "w1"))

    def text(result):
        return ("ok", serialize(result[1])) if result[0] == "ok" else result

    messages = set()
    for case in cases:
        got = text(outcome(sew, *case))
        assert got == text(outcome(sew_oracle, *case)), case
        messages.add("ok" if got[0] == "ok" else got[1])
    assert {"ok", "w1 is not an outgoing wedge",
            "cannot sew genus 2 to genus 3",
            "wedge circle d.w1c1 has self-crossings"} <= messages
    for start in ("excursion of", "sewing produced an unrealizable code"):
        assert any(m.startswith(start) for m in messages)


def test_sew_relabels_no_copy_and_freezes_once(monkeypatch):
    a = thread_circle(wedge_row([("outgoing", 2)]), "w1c2", "s1")
    ident = identity_diagram(2)
    expected = serialize(sew_oracle(a, "w1", ident, "U"))
    compose_module = importlib.import_module("cobkit.compose")
    calls = []
    monkeypatch.setattr(compose_module, "relabel", lambda *a: calls.append(a))
    monkeypatch.setattr(compose_module, "delete_wedge",
                        lambda *a: calls.append(a))
    freeze = DiagramEditor.freeze
    monkeypatch.setattr(DiagramEditor, "freeze",
                        lambda ed: calls.append("freeze") or freeze(ed))
    out = sew(a, "w1", ident, "U")
    assert calls == ["freeze"]
    assert serialize(out) == expected


def test_reinflate_into_bare_wedge_deletes_the_wedge(outgoing_corpus):
    for g, d in outgoing_corpus:
        from cobkit.membranes import membrane_excursions
        only_traverses = all(
            e.is_piercing
            for cid in d.wedge("w1").circle_ids
            for _, e in membrane_excursions(d, cid))
        if not only_traverses:
            continue
        out = sew(d, "w1", wedge_row([("incoming", g)]), "w1")
        assert structural_iso(out, delete_wedge(d, "w1"))


# -- identity link / mending --------------------------------------------------

def test_make_identity_link_matches_convention():
    d = wedge_row([("outgoing", 2), ("incoming", 2)])
    out = make_identity_link(d, "w1", "w2")
    for i in (1, 2):
        for j in (1, 2):
            assert linking_number(out, f"w1c{i}", f"w2c{j}") == int(i == j)
    with pytest.raises(CompositionError) as err:
        make_identity_link(out, "w1", "w2")   # not clean anymore
    assert str(err.value) == ("wedge circle w2c1 is not clean; remove its "
                              "crossings with a move script first")


def test_make_identity_link_reports_an_unrealizable_clasp(monkeypatch):
    """The clasped pair is validated once; a failing report names the
    clasping step and its codes."""
    from cobkit.planarity import ValidationReport, Violation

    compose_module = importlib.import_module("cobkit.compose")

    def failing(d):
        return ValidationReport(False, (Violation("non-planar", "stub"),))

    monkeypatch.setattr(compose_module, "validate", failing)
    d = wedge_row([("outgoing", 1), ("incoming", 1)])
    with pytest.raises(CompositionError) as err:
        make_identity_link(d, "w1", "w2")
    assert str(err.value) == ("clasping w2 and w1 produced an unrealizable "
                              "code (['non-planar'])")


def test_make_identity_link_genus_zero():
    d = wedge_row([("outgoing", 0), ("incoming", 0)])
    out = make_identity_link(d, "w1", "w2")
    assert out.crossings == ()


def test_mend_identity_is_sigma_link():
    for g in (0, 1, 2, 3, 4, 5, 8, 16, 32):
        m = mend(identity_diagram(g), "V", "U")
        assert structural_iso(m, sigma_g_s1_link(g)), g
        assert h1_closed(m).rank == 2 * g + 1


def test_mend_genus_zero_gives_zero_framed_unknot():
    m = mend(identity_diagram(0), "V", "U")
    assert structural_iso(m, unknot(0))
    assert str(h1_closed(m)) == "Z"


def test_mend_postconditions_with_ambient_data():
    # an identity pair sitting next to extra surgery data
    d = tensor(identity_diagram(2), borromean(0, 1, 0))
    out = mend(d, "c.V", "c.U")
    assert validate(out).ok
    assert boundary_profile(out) == ((), ())
    new = [c.id for c in out.surgery_circles() if c.id.startswith("m")
           or c.id.startswith("c.")]
    fresh = [c for c in out.surgery_circles() if c.id not in
             {"d.k1", "d.k2", "d.k3"}]
    assert len(fresh) == 2 * 2 + 1
    assert all(c.framing == 0 for c in fresh)
    for a in fresh:
        for b in fresh:
            if a.id != b.id:
                assert linking_number(out, a.id, b.id) == 0


def test_mend_component_count(incoming_corpus):
    for g in (0, 1, 2):
        d = identity_diagram(g)
        out = mend(d, "V", "U")
        assert len(out.surgery_circles()) == \
            len(d.surgery_circles()) + 2 * g + 1


def test_mend_requires_identity_configuration():
    d = wedge_row([("outgoing", 1), ("incoming", 1)])
    with pytest.raises(CompositionError):
        mend(d, "w1", "w2")


def _mend_probes():
    """Valid codes that break the identity-link configuration, each
    with the text its rejection must contain."""
    ed = DiagramEditor(identity_diagram(1))
    ed.add_wedge("W", INCOMING, ["w1"])
    clasp_events(ed, "w1", 1, "v1", 1, prefix="q")
    yield ed.freeze(), "V", "U", "other wedges"
    ed = DiagramEditor(identity_diagram(2))
    clasp_events(ed, "u1", 1, "v2", 1)
    yield ed.freeze(), "V", "U", "index-wise"
    ed = DiagramEditor(wedge_row([("outgoing", 1), ("incoming", 1)]))
    c1, c2 = ed.new_crossing(-1), ed.new_crossing(-1)
    ed.insert_events("w2c1", 1, [CrossingSlot(c1, UNDER),
                                 CrossingSlot(c2, OVER)])
    ed.insert_events("w1c1", 1, [CrossingSlot(c2, UNDER),
                                 CrossingSlot(c1, OVER)])
    yield ed.freeze(), "w1", "w2", "identity-link configuration"
    ed = DiagramEditor(identity_diagram(1))
    clasp_events(ed, "u1", 1, "v1", 1, prefix="y")
    yield ed.freeze(), "V", "U", "cross 4 times"


def test_mend_rejects():
    for d, u, v, text in _mend_probes():
        assert validate(d).ok
        with pytest.raises(CompositionError, match=text):
            mend(d, u, v)


_HASH_SEED_PROBE = """
from cobkit import R2, apply, borromean, identity_diagram, mend
from cobkit.editing import DiagramEditor, clasp_events
from cobkit.errors import CobkitError

try:
    apply(borromean(0, 0, 0), R2(crossings=("x1", "x2")))
except CobkitError as exc:
    print(exc)
ed = DiagramEditor(identity_diagram(2))
clasp_events(ed, "u1", 1, "v2", 1, prefix="s")
try:
    mend(ed.freeze(), "V", "U")
except CobkitError as exc:
    print(exc)
"""


def test_error_messages_do_not_depend_on_hash_seed():
    """Messages that name circles of a pair list them in the diagram's
    order, not in a set's, so every interpreter run prints the same."""
    src = str(pathlib.Path(cobkit.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = [subprocess.run(
        [sys.executable, "-c", _HASH_SEED_PROBE], capture_output=True,
        text=True, check=True,
        env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
    ).stdout for seed in ("0", "1")]
    assert outs[0] == outs[1] == (
        "bigon events are not adjacent on k1\n"
        "mend pair must clasp index-wise only (crossing s1 joins u1 and "
        "v2)\n")


def _clasp_sites():
    """``(diagram, incoming circle, outgoing circle)`` for every such pair
    of circles in the wedge corpora, identities, wedge rows clasped by
    ``make_identity_link``
    (bare, and threaded so that the clasp sits at different slots on its
    two circles) and the rejected mend probes."""
    diagrams = [d for color in (INCOMING, OUTGOING)
                for _, d in corpus_with_wedge(color)]
    diagrams += [identity_diagram(g) for g in range(7)]
    for g in (1, 2, 3):
        row = wedge_row([("outgoing", g), ("incoming", g), ("incoming", 1)])
        linked = make_identity_link(row, "w1", "w2")
        diagrams += [linked, thread_circle(linked, "w1c1", "s1"),
                     thread_circle(linked, f"w2c{g}", "s1", sign=-1)]
    diagrams += [d for d, *_ in _mend_probes()]
    for d in diagrams:
        for w in d.wedges:
            if w.color != INCOMING:
                continue
            for x in d.wedges:
                if x.color == OUTGOING:
                    for a in w.circle_ids:
                        for b in x.circle_ids:
                            yield d, a, b


def test_find_clasp_matches_scan_oracle():
    """The clasp read from its two crossings is the one the scan over
    consecutive events finds, or the same refusal."""
    found = set()
    for d, a, b in _clasp_sites():
        got = outcome(_find_clasp, d, a, b)
        assert got == outcome(find_clasp_oracle, d, a, b), (a, b)
        if got[0] == "ok":
            found.add(got[1][2] == got[1][3])
    assert found == {True, False}


def test_mend_swap_roles_invariance():
    for g in range(4):
        a = mend(identity_diagram(g), "V", "U")
        b = mend(identity_diagram(g), "V", "U", swap_roles=True)
        assert h1_closed(a) == h1_closed(b)
        assert len(a.circles) == len(b.circles)
        mb = linking_matrix(b)
        assert all(v == 0 for row in mb.entries for v in row)


# -- compose ------------------------------------------------------------------

def test_compose_single_pair_is_sew():
    a = compose(identity_diagram(1), identity_diagram(1), [("V", "U")])
    b = sew(identity_diagram(1), "V", identity_diagram(1), "U")
    assert structural_iso(a, b)


def test_compose_degenerate_self_check():
    for g in range(3):
        out = compose(identity_diagram(g), identity_diagram(g), [("V", "U")])
        closed = mend(out, "d.V", "c.U")
        assert h1_closed(closed).rank == 2 * g + 1
        assert structural_iso(closed, sigma_g_s1_link(g))


def test_compose_multi_pair_clean_and_order_independent():
    for g in (0, 1, 2):
        dc = wedge_row([("outgoing", g), ("outgoing", g)])
        dd = wedge_row([("incoming", g), ("incoming", g)])
        a = compose(dc, dd, [("w1", "w1"), ("w2", "w2")])
        b = compose(dc, dd, [("w2", "w2"), ("w1", "w1")])
        assert h1_closed(a) == h1_closed(b)
        assert boundary_profile(a) == ((), ())
    one = compose(wedge_row([("outgoing", 1), ("outgoing", 1)]),
                  wedge_row([("incoming", 1), ("incoming", 1)]),
                  [("w1", "w1"), ("w2", "w2")])
    assert h1_closed(one) == h1_closed(sigma_g_s1_link(1))


def test_compose_empty_pairing_rejected():
    with pytest.raises(CompositionError):
        compose(identity_diagram(1), identity_diagram(1), [])


@pytest.mark.xfail(strict=True, raises=CompositionError,
                   reason="open defect: sew lays a nested pair of threads "
                          "in the wrong cable order, so the second sew "
                          "reads the result as non-planar")
def test_resew_two_threads_and_an_overpass_on_one_wedge_circle():
    d = wedge_row([("outgoing", 1)])
    d = thread_circle(d, "w1c1", "s1")
    d = thread_circle(d, "w1c1", "s2")
    d = overpass_circle(d, "w1c1", "s3")
    once = sew(d, "w1", identity_diagram(1), "U")
    assert validate(once).ok and is_standard_position(once)
    twice = sew(once, once.target_order[0], identity_diagram(1), "U")
    assert validate(twice).ok
    assert h1_cobordism(twice) == h1_cobordism(d)
    assert boundary_profile(twice) == boundary_profile(d)
