"""Faces, Euler characteristic, and the validator."""

import random
from dataclasses import replace

import pytest

from cobkit import (CombinatorialMap, borromean, euler_summary, faces,
                    identity_diagram, mend, sew, sigma_g_s1_link,
                    thread_circle, trefoil, unknot, validate, wedge_row)
from cobkit.diagram import CenterSlot, Circle, Crossing, CrossingSlot, Diagram
from cobkit.errors import MalformedDiagramError
from conftest import (builder_corpus, combinatorial_map_oracle, map_verdict,
                      move_walks, mutate, validate_oracle)


def test_unknot_has_two_faces():
    assert len(faces(unknot(0))) == 2


def test_trefoil_face_count():
    v, e, f = euler_summary(trefoil())
    assert (v, e, f) == (3, 6, 5)
    assert v - e + f == 2


def test_identity_one_euler():
    v, e, f = euler_summary(identity_diagram(1))
    assert v == 4          # 2 crossings + 2 centers
    assert v - e + f == 2


def test_builders_validate():
    for d in [unknot(0), unknot(5), trefoil(), borromean(1, -1, 0),
              wedge_row([("incoming", 2), ("outgoing", 3)]),
              *(identity_diagram(g) for g in range(5)),
              *(sigma_g_s1_link(g) for g in range(6))]:
        report = validate(d)
        assert report.ok, report.codes()


def test_euler_per_component_is_two():
    d = sigma_g_s1_link(3)
    for v, e, f, chi in CombinatorialMap(d).euler_by_component():
        assert chi == 2


def test_wedge_self_crossing_rejected():
    base = wedge_row([("incoming", 2)])
    # forge a crossing between the two circles of one wedge
    c1, c2 = base.circle("w1c1"), base.circle("w1c2")
    forged = Diagram(
        circles=(
            Circle(id="w1c1", kind="wedge", wedge="w1", index=1,
                   events=(CenterSlot("depart"), CrossingSlot("bad", "over"),
                           CenterSlot("return"))),
            Circle(id="w1c2", kind="wedge", wedge="w1", index=2,
                   events=(CenterSlot("depart"), CrossingSlot("bad", "under"),
                           CenterSlot("return"))),
        ),
        crossings=(Crossing(id="bad", over=("w1c1", 1), under=("w1c2", 1),
                            sign=1),),
        wedges=base.wedges,
        source_order=base.source_order,
        target_order=base.target_order)
    report = validate(forged)
    assert not report.ok
    assert "wedge-self-crossing" in report.codes()


def _swap_events(d, cid, i, j):
    """Perturb a rotation: swap two events on one circle, keeping the
    crossing references in sync (still structurally well-formed)."""
    from cobkit.editing import DiagramEditor

    ed = DiagramEditor(d)
    evs = ed.events[cid]
    evs[i], evs[j] = evs[j], evs[i]
    return ed.freeze()


def _perturbed_rotations():
    cases = []
    t = trefoil()
    cases += [(t, "k1", 0, 1), (t, "k1", 1, 2), (t, "k1", 0, 3),
              (t, "k1", 2, 5), (t, "k1", 1, 4)]
    b = borromean(0, 0, 0)
    cases += [(b, "k1", 0, 1), (b, "k2", 1, 2), (b, "k3", 0, 2),
              (b, "k1", 1, 3)]
    s = sigma_g_s1_link(1)
    cases += [(s, "b", 0, 2)]
    return [_swap_events(d, cid, i, j) for d, cid, i, j in cases]


def test_perturbed_rotations_fail_planarity():
    rejected = 0
    cases = _perturbed_rotations()
    for perturbed in cases:
        if not validate(perturbed).ok:
            rejected += 1
    assert rejected == len(cases) == 10


def test_face_error_on_dangling_slot():
    broken = Diagram(circles=(
        Circle(id="k1", kind="surgery", framing=0,
               events=(CrossingSlot("ghost", "over"),)),))
    with pytest.raises(MalformedDiagramError):
        faces(broken)
    report = validate(broken)
    assert not report.ok


def test_order_cover_violations():
    base = wedge_row([("incoming", 1)])
    bad = Diagram(circles=base.circles, crossings=base.crossings,
                  wedges=base.wedges, source_order=(), target_order=())
    assert "order-cover" in validate(bad).codes()


def test_duplicate_id_violations_sorted():
    b = borromean(0, 0, 0)
    k1, k2, k3 = b.circles
    bad = Diagram(circles=(k3, k2, k1, k3, k1), crossings=b.crossings)
    report = validate(bad)
    assert report.codes() == ["duplicate-id", "duplicate-id"]
    assert [v.location for v in report.violations] == ["k1", "k3"]


def _assert_same_map(d):
    """The integer map and the Dart-keyed oracle agree on every query."""
    assert validate(d) == validate_oracle(d)
    verdict = map_verdict(CombinatorialMap, d)
    assert verdict == map_verdict(combinatorial_map_oracle, d)
    if verdict[0] == "error":
        return
    new, old = CombinatorialMap(d), combinatorial_map_oracle(d)
    assert list(new.face_of.items()) == list(old.face_of.items())
    assert list(new.rotations.items()) == list(old.rotations.items())
    assert list(new.dart_base.items()) == list(old.dart_base.items())
    assert new.components() == old.components()
    assert new.euler_by_component() == old.euler_by_component()


def test_map_matches_dart_keyed_oracle():
    diagrams = builder_corpus() + move_walks(random.Random(6021), 25, 6)
    for g in (8, 32, 64):
        diagrams += [sew(identity_diagram(g), "V", identity_diagram(g), "U"),
                     mend(identity_diagram(g), "V", "U")]
    t = trefoil()    # a repeated crossing keeps its first place
    diagrams.append(replace(t, crossings=t.crossings + t.crossings[:1]))
    perturbed = _perturbed_rotations()
    for d in diagrams + perturbed:
        _assert_same_map(d)
    assert [validate(d).codes() for d in perturbed] == [["non-planar"]] * 10


def test_mutated_diagrams_match_oracle():
    """Seeded flaws that bypass the editor: ``validate`` never raises,
    faces come back or raise ``MalformedDiagramError``, and both match
    the Dart-keyed map, message for message."""
    rng = random.Random(8808)
    corpus = builder_corpus() + [mend(identity_diagram(8), "V", "U"),
                                 sew(identity_diagram(4), "V",
                                     identity_diagram(4), "U")]
    verdicts = set()
    for _ in range(600):
        d = mutate(rng, rng.choice(corpus))
        _assert_same_map(d)
        verdicts.add((validate(d).ok, map_verdict(CombinatorialMap, d)[0]))
    assert verdicts >= {(False, "error"), (False, "faces")}


def test_validate_reads_no_darts(monkeypatch):
    """``validate`` builds one map and no ``Dart``: it reads only the
    integer lists."""
    from cobkit import planarity

    d = mend(identity_diagram(16), "V", "U")
    built = []
    init = planarity.CombinatorialMap.__init__

    def counting_init(self, d):
        built.append(d)
        init(self, d)

    def no_dart(*args, **kwargs):
        raise AssertionError("validate built a Dart")

    monkeypatch.setattr(planarity, "Dart", no_dart)
    monkeypatch.setattr(planarity.CombinatorialMap, "__init__",
                        counting_init)
    assert validate(d).ok
    assert len(built) == 1


def test_valid_diagram_skips_reverse_scan(monkeypatch):
    """On a valid diagram the crossing references account for every
    crossing event by count, so no event is read back through
    ``Crossing.strand``."""
    closed = mend(identity_diagram(16), "V", "U")
    sewn = sew(identity_diagram(8), "V", identity_diagram(8), "U")

    def no_strand(self, role):
        raise AssertionError("validate read an event back")

    monkeypatch.setattr(Crossing, "strand", no_strand)
    assert validate(closed).ok
    assert validate(sewn).ok


def test_map_errors_match_oracle():
    """Each way a map build or face trace fails, with the oracle's
    message: a rotation naming a slot with no arc (a one-event wedge
    circle, a crossing at either end of a wedge circle), a dart whose
    vertex has no rotation, and a repeated wedge circle that makes two
    darts share a successor."""
    def with_events(d, cid, order, **refs):
        events = d.circle(cid).events
        return replace(d, circles=tuple(
            replace(c, events=tuple(events[i] for i in order))
            if c.id == cid else c for c in d.circles), crossings=tuple(
            replace(x, **refs[x.id]) if x.id in refs else x
            for x in d.crossings))

    row = wedge_row([("incoming", 2)])
    one_event = with_events(row, "w1c1", [0])
    threaded = thread_circle(wedge_row([("incoming", 1)]), "w1c1", "s1")
    at_depart = with_events(threaded, "w1c1", [1, 0, 2, 3],
                            s1x2={"under": ("w1c1", 0)})
    at_return = with_events(threaded, "w1c1", [0, 1, 3, 2],
                            s1x1={"over": ("w1c1", 3)})
    ghost = Diagram(circles=(
        Circle(id="k1", kind="surgery", framing=0,
               events=(CrossingSlot("ghost", "over"),)),))
    repeated = replace(row, wedges=(
        replace(row.wedges[0], circle_ids=("w1c1", "w1c2", "w1c1")),))
    expected = ["dangling slot at ('w', 'w1'): Dart(circle='w1c1', arc=0, "
                "dir=1)",
                "dangling slot at ('x', 's1x2'): Dart(circle='w1c1', arc=-1, "
                "dir=-1)",
                "dangling slot at ('x', 's1x1'): Dart(circle='w1c1', arc=3, "
                "dir=1)",
                "dangling slot: dart Dart(circle='k1', arc=0, dir=1) points "
                "at ('x', 'ghost'), which does not rotate through it",
                "face tracing revisited a dart: rotation system is "
                "inconsistent"]
    cases = (one_event, at_depart, at_return, ghost, repeated)
    assert len(cases) == len(expected)
    for d, message in zip(cases, expected):
        assert map_verdict(CombinatorialMap, d) == ("error", message)
        assert map_verdict(combinatorial_map_oracle, d) == ("error", message)
        assert validate(d) == validate_oracle(d)
