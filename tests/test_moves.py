"""Move calculus: local contracts, soundness over randomized trials,
scripts, and the bounded equivalence search."""

import random

import pytest

from cobkit import (BlowDown, BlowUp, HandleSlide, MoveScript, R1, R2, R3,
                    apply, borromean, boundary_profile, h1_closed,
                    h1_cobordism, hopf, identity_diagram, linking_matrix,
                    linking_number, replay, search_equivalent, signature,
                    structural_iso, tensor, trefoil, unknot, validate)
from cobkit.editing import DiagramEditor, clasp_events
from cobkit.errors import MoveError

from conftest import (_decorated_wedge, builder_corpus, handle_slide_oracle,
                      move_walks, outcome, r2_push_oracle, random_diagram,
                      random_valid_move)


def test_blow_down_isolated_unknot():
    d = tensor(borromean(0, 0, 0), unknot(1))
    out = apply(d, BlowDown("d.k1"))
    assert structural_iso(out, borromean(0, 0, 0))


def test_blow_up_then_down_is_identity():
    for start in [unknot(0), hopf(1, 2), identity_diagram(2)]:
        for sign in (1, -1):
            up = apply(start, BlowUp(sign))
            new = sorted(set(c.id for c in up.circles)
                         - set(c.id for c in start.circles))[0]
            down = apply(up, BlowDown(new))
            assert structural_iso(down, start)


def test_blow_down_rejects_bad_framing():
    with pytest.raises(MoveError):
        apply(unknot(2), BlowDown("k1"))


def test_handle_slide_hopf_formula():
    d = hopf(0, 0)
    out = apply(d, HandleSlide("k1", "k2"))
    f1 = next(c.framing for c in out.circles if c.id == "k1")
    assert f1 == 0 + 0 + 2 * 1
    # cross-check by recomputation from the rewritten code
    assert linking_number(out, "k1", "k2") == 1
    assert h1_closed(out) == h1_closed(d)


def test_handle_slide_linking_contract_third_circle():
    d = borromean(2, -1, 3)
    lk_before = {(a, b): linking_number(d, a, b)
                 for a, b in [("k1", "k2"), ("k1", "k3"), ("k2", "k3")]}
    out = apply(d, HandleSlide("k1", "k2"))
    assert next(c.framing for c in out.circles if c.id == "k1") == \
        2 + (-1) + 2 * lk_before[("k1", "k2")]
    assert linking_number(out, "k1", "k3") == \
        lk_before[("k1", "k3")] + lk_before[("k2", "k3")]
    assert linking_number(out, "k2", "k3") == lk_before[("k2", "k3")]
    assert h1_closed(out) == h1_closed(d)
    assert signature(out) == signature(d)


def test_handle_slide_needs_surgery_circles():
    d = identity_diagram(1)
    with pytest.raises(MoveError):
        apply(d, HandleSlide("u1", "v1"))


def test_blow_down_bundle_quadratic_rule():
    # eps-framed circle pierced by two 0-framed strands
    for eps in (1, -1):
        ed = DiagramEditor()
        ed.add_surgery_circle("c", eps)
        ed.add_surgery_circle("t1", 0)
        ed.add_surgery_circle("t2", 0)
        clasp_events(ed, "t1", 0, "c", 0)
        clasp_events(ed, "t2", 0, "c", len(ed.events["c"]))
        d = ed.freeze()
        assert validate(d).ok
        out = apply(d, BlowDown("c"))
        m = linking_matrix(out)
        # f_t -= eps * lk(t,c)^2 ; lk' = lk - eps * lk(t1,c) lk(t2,c)
        assert m.entries == ((-eps, -eps), (-eps, -eps))
        assert h1_closed(out) == h1_closed(d)
        assert signature(d) - signature(out) == eps


def test_r1_round_trip_and_locality():
    d = trefoil()
    for sign in (1, -1):
        out = apply(d, R1(site=("k1", 2), sign=sign))
        assert len(out.crossings) == len(d.crossings) + 1
        assert next(c.framing for c in out.circles) == 0
        kink = sorted(set(x.id for x in out.crossings)
                      - set(x.id for x in d.crossings))[0]
        assert next(x.sign for x in out.crossings if x.id == kink) == sign
        back = apply(out, R1(crossing=kink))
        assert structural_iso(back, d)


def test_r2_round_trip_and_locality():
    d = hopf(0, 0)
    lk = linking_number(d, "k1", "k2")
    out = apply(d, R2(darts=(("k1", 0, 1), ("k2", 0, 1)), over=False))
    assert len(out.crossings) == len(d.crossings) + 2
    assert linking_number(out, "k1", "k2") == lk
    assert [c.framing for c in out.circles] == [c.framing for c in d.circles]
    new = tuple(sorted(set(x.id for x in out.crossings)
                       - set(x.id for x in d.crossings)))
    back = apply(out, R2(crossings=new))
    assert structural_iso(back, d)


def test_r3_slides_a_triangle():
    from cobkit import stacked_rings
    from cobkit.moves import _candidate_moves

    d = stacked_rings()
    sites = [m for m in _candidate_moves(d) if isinstance(m, R3)]
    assert len(sites) == 8          # every face is a slideable triangle
    for mv in sites:
        out = apply(d, mv)
        assert len(out.crossings) == len(d.crossings)
        assert sorted(x.sign for x in out.crossings) == \
            sorted(x.sign for x in d.crossings)
        assert [c.framing for c in out.circles] == \
            [c.framing for c in d.circles]
        assert linking_matrix(out).entries == linking_matrix(d).entries
        assert h1_closed(out) == h1_closed(d)


def test_r3_rejects_cyclic_triangles():
    # every triangle of the borromean rings has the cyclic over/under
    # pattern, which is exactly the non-slideable case
    from cobkit.moves import _candidate_moves

    d = borromean(0, 0, 0)
    sites = [m for m in _candidate_moves(d) if isinstance(m, R3)]
    assert sites
    for mv in sites:
        with pytest.raises(MoveError):
            apply(d, mv)


def test_replay_reports_failing_index():
    script = MoveScript((BlowUp(1), BlowDown("nope")))
    with pytest.raises(MoveError) as err:
        replay(unknot(0), script)
    assert "move 1" in str(err.value)


def test_replay_empty_is_identity():
    d = borromean(0, 0, 0)
    assert replay(d, MoveScript()) == d


def test_move_soundness_500_trials():
    rng = random.Random(31415)
    trials = 0
    kinds = {}
    while trials < 500:
        d = random_diagram(rng)
        picked = random_valid_move(rng, d)
        if picked is None:
            continue
        mv, out = picked
        trials += 1
        kinds[type(mv).__name__] = kinds.get(type(mv).__name__, 0) + 1
        assert validate(out).ok, (mv, validate(out).codes())
        assert boundary_profile(out) == boundary_profile(d), mv
        assert h1_cobordism(out) == h1_cobordism(d), mv
        if not d.wedges and isinstance(mv, BlowUp):
            assert signature(out) - signature(d) == mv.sign
        if not d.wedges and isinstance(mv, HandleSlide):
            assert signature(out) == signature(d)
    # the pool must exercise every family
    assert {"R1", "R2", "BlowUp", "BlowDown"} <= set(kinds)
    assert "HandleSlide" in kinds
    assert "R3" in kinds


def test_search_self_is_empty_script():
    d = borromean(0, 0, 0)
    script = search_equivalent(d, d, budget=10)
    assert script is not None and len(script) == 0


def test_search_finds_blow_down_and_replays():
    d = borromean(0, 0, 0)
    start = tensor(d, unknot(-1))
    script = search_equivalent(start, d, budget=120)
    assert script is not None and len(script) == 1
    assert isinstance(script.moves[0], BlowDown)
    assert structural_iso(replay(start, script), d)


def test_search_inconclusive_with_invariant_separation():
    a, b = unknot(0), unknot(1)
    assert search_equivalent(a, b, budget=40) is None
    assert h1_closed(a) != h1_closed(b)


def test_search_requires_equal_profiles():
    with pytest.raises(MoveError):
        search_equivalent(identity_diagram(1), unknot(0), budget=5)


def test_r1_refuses_wedge_circle_kinks():
    # a kink would make a wedge circle's projection non-simple
    with pytest.raises(MoveError):
        apply(identity_diagram(1), R1(site=("u1", 0), sign=1))


def test_r2_site_sweep_exhaustive():
    # every co-facial pair of distinct arcs admits a planar push except
    # pairs that would cross two circles of one wedge
    from cobkit import thread_circle, wedge_row
    from cobkit.planarity import CombinatorialMap

    diagrams = [thread_circle(wedge_row([("incoming", 1)]), "w1c1", "s1"),
                hopf(0, 0), borromean(0, 0, 0), identity_diagram(2)]
    pushed = blocked = 0
    for d in diagrams:
        cm = CombinatorialMap(d)
        for face in cm.faces():
            darts = list(face)
            for a in darts:
                for b in darts:
                    if a == b or (a.circle, a.arc) == (b.circle, b.arc):
                        continue
                    ca, cb = d.circle(a.circle), d.circle(b.circle)
                    same_wedge = (ca.is_wedge() and cb.is_wedge()
                                  and ca.wedge == cb.wedge)
                    try:
                        out = apply(d, R2(darts=(tuple(a), tuple(b))))
                    except MoveError:
                        assert same_wedge, (a, b)
                        blocked += 1
                        continue
                    pushed += 1
                    assert h1_cobordism(out) == h1_cobordism(d)
                    if a.circle != b.circle:
                        assert linking_number(out, a.circle, b.circle) == \
                            linking_number(d, a.circle, b.circle)
    assert pushed > 100 and blocked > 0


@pytest.mark.parametrize("build, move", [
    (trefoil, R3(site=("k1",))),
    (trefoil, R2(darts=(("k1",), ("k1", 1)))),
    (trefoil, R2(crossings=("x1",))),
    (trefoil, R2(crossings=("x1", "nope"))),
    (trefoil, R1(site=("k1",))),
    (trefoil, R1(site=("k1", "a"))),
    (trefoil, R1(site=("k1", 99))),
    (trefoil, R1(site=("nope", 0))),
    (lambda: hopf(0, 0), HandleSlide("k1", "k2", site=(("k1",), ("k2", 0)))),
], ids=lambda v: None if callable(v) else repr(v))
def test_malformed_site_raises_move_error(build, move):
    with pytest.raises(MoveError):
        apply(build(), move)


def _r2_push_sites(rng):
    """Seeded R2 pushes: ``(diagram, darts)`` for dart pairs on distinct
    arcs of one face, sampled along short random walks from every builder
    diagram (Sigma_g x S^1 links and mended identities for g <= 3
    among them)."""
    from cobkit.planarity import CombinatorialMap

    for start in builder_corpus():
        d = start
        for _ in range(3):
            pairs = [(a, b) for face in CombinatorialMap(d).faces()
                     for a in face for b in face
                     if (a.circle, a.arc) != (b.circle, b.arc)]
            for a, b in rng.sample(pairs, min(len(pairs), 18)):
                yield d, (tuple(a), tuple(b))
            step = random_valid_move(rng, d)
            if step is None:
                break
            d = step[1]


def test_r2_push_matches_trial_oracle():
    """The push read from the darts' directions is the first planar one of
    the four the trial loop tries, or the same refusal."""
    pairs = 0
    seen = set()
    for d, darts in _r2_push_sites(random.Random(14)):
        pairs += 1
        for over in (True, False):
            m = R2(darts=darts, over=over)
            got = outcome(apply, d, m)
            assert got == outcome(r2_push_oracle, d, m), (darts, over)
            if got[0] == "ok":
                seen.add("same" if darts[0][2] == darts[1][2] else "opposite")
            else:
                seen.add("refused")
    assert pairs >= 2000
    assert seen == {"same", "opposite", "refused"}


def test_r2_push_validates_once_and_copies_nothing(monkeypatch):
    from cobkit import mend, moves

    d = mend(identity_diagram(3), "V", "U")
    calls = []

    def counting_validate(diagram):
        calls.append(diagram)
        return validate(diagram)

    monkeypatch.setattr(moves, "validate", counting_validate)
    assert not hasattr(DiagramEditor, "copy")
    out = apply(d, R2(darts=(("u1", 0, 1), ("mb1", 1, -1)), over=False))
    assert len(calls) == 1 and calls[0] is out


def _forward_band_sites(faces, moving, over):
    """Every band site with a forward dart on each circle, face by face."""
    return [(tuple(a), tuple(b)) for face in faces
            for a in sorted(face) for b in sorted(face)
            if a.circle == moving and a.dir == 1
            and b.circle == over and b.dir == 1]


def _slide_corpus():
    """Builder diagrams, seeded walks from random diagrams, and decorated
    wedges whose surgery circles get framings redrawn in [-3, 3]."""
    rng = random.Random(24)
    out = builder_corpus() + move_walks(random.Random(7), 20, 4)
    for color in ("incoming", "outgoing"):
        for g in (1, 2):
            for threads in range(3):
                for overpasses in range(3):
                    d = _decorated_wedge(color, g, threads, overpasses)
                    ed = DiagramEditor(d)
                    for c in d.surgery_circles():
                        ed.set_framing(c.id, rng.randint(-3, 3))
                    out.append(ed.freeze())
    return out


def test_handle_slide_matches_trial_oracle():
    """The band anchor read from the site is the first planar gap of the
    first forward site the trial finds, or the same refusal: unsited, and
    at up to two seeded forward sites of each ordered pair of circles."""
    from cobkit.planarity import CombinatorialMap

    rng = random.Random(5)
    seen = set()
    for d in _slide_corpus():
        surgery = [c.id for c in d.surgery_circles()]
        faces = CombinatorialMap(d).faces()
        for moving in surgery:
            for over in surgery:
                if moving == over:
                    continue
                sites = _forward_band_sites(faces, moving, over)
                moves = [HandleSlide(moving, over)] + [
                    HandleSlide(moving, over, site=site)
                    for site in rng.sample(sites, min(2, len(sites)))]
                for m in moves:
                    got = outcome(apply, d, m)
                    assert got == outcome(handle_slide_oracle, d, m), m
                    seen.add((m.site is None, got[0] == "ok"))
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


def test_handle_slide_validates_once(monkeypatch):
    from cobkit import moves

    calls = []

    def counting_validate(diagram):
        calls.append(diagram)
        return validate(diagram)

    monkeypatch.setattr(moves, "validate", counting_validate)
    for d, m in [(hopf(0, 0), HandleSlide("k1", "k2")),
                 (borromean(2, -1, 3), HandleSlide("k1", "k2")),
                 (hopf(1, -2), HandleSlide("k2", "k1",
                                           site=(("k2", 0, 1),
                                                 ("k1", 0, 1))))]:
        calls.clear()
        out = apply(d, m)
        assert len(calls) == 1 and calls[0] is out


def test_handle_slide_backward_moving_dart_is_refused():
    with pytest.raises(MoveError) as err:
        apply(hopf(0, 1), HandleSlide("k1", "k2",
                                      site=(("k1", 0, -1), ("k2", 1, 1))))
    assert str(err.value) == ("band site must approach the moving circle "
                              "from its left (forward dart)")


def _rotated(d, cid, r):
    """``d`` with the events of circle ``cid`` started ``r`` slots later:
    the same diagram, read from another point of the circle."""
    ed = DiagramEditor(d)
    ed.events[cid] = ed.events[cid][r:] + ed.events[cid][:r]
    return ed.freeze()


def _applies(d, m):
    return outcome(apply, d, m)[0] == "ok"


def test_handle_slide_site_does_not_depend_on_where_events_start():
    """A band site applies, or is refused, on a diagram and on the copy
    whose moving circle's events start elsewhere alike."""
    from cobkit.planarity import CombinatorialMap

    d = hopf(0, 1)
    rot = _rotated(d, "k1", 1)
    assert structural_iso(rot, d)
    assert _applies(d, HandleSlide(
        "k1", "k2", site=(("k1", 0, -1), ("k2", 1, 1)))) == _applies(
        rot, HandleSlide("k1", "k2", site=(("k1", 1, -1), ("k2", 1, 1))))
    seen = set()
    for d in builder_corpus():
        surgery = [c.id for c in d.surgery_circles()]
        if len(surgery) != 2:
            continue
        faces = CombinatorialMap(d).faces()
        for moving in surgery:
            n = len(d.circle(moving).events)
            for over in surgery:
                if moving == over:
                    continue
                sites = [(a, b) for face in faces for a in face
                         for b in face
                         if a.circle == moving and b.circle == over]
                for r in range(1, n):
                    rot = _rotated(d, moving, r)
                    for a, b in sites:
                        moved = ((moving, (a.arc - r) % n, a.dir), tuple(b))
                        here = _applies(d, HandleSlide(
                            moving, over, site=(tuple(a), tuple(b))))
                        assert here == _applies(rot, HandleSlide(
                            moving, over, site=moved)), (moving, over, r, a, b)
                        seen.add(here)
    assert seen == {True, False}
