"""Faces, Euler characteristic, and the validator."""

import pytest

from cobkit import (CombinatorialMap, borromean, euler_summary, faces,
                    identity_diagram, sigma_g_s1_link, trefoil, unknot,
                    validate, wedge_row)
from cobkit.diagram import CenterSlot, Circle, Crossing, CrossingSlot, Diagram
from cobkit.errors import MalformedDiagramError


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


def test_perturbed_rotations_fail_planarity():
    rejected = 0
    cases = []
    t = trefoil()
    cases += [(t, "k1", 0, 1), (t, "k1", 1, 2), (t, "k1", 0, 3),
              (t, "k1", 2, 5), (t, "k1", 1, 4)]
    b = borromean(0, 0, 0)
    cases += [(b, "k1", 0, 1), (b, "k2", 1, 2), (b, "k3", 0, 2),
              (b, "k1", 1, 3)]
    s = sigma_g_s1_link(1)
    cases += [(s, "b", 0, 2)]
    for d, cid, i, j in cases:
        perturbed = _swap_events(d, cid, i, j)
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
