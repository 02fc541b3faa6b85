"""Acceptance suite: every criterion checked at its stated tolerance.

All invariants here are exact integer facts, so every tolerance is zero;
each criterion prints one PASS line when its assertions hold.
"""

import pathlib
import random

from cobkit import (AbelianGroup, BlowDown, BlowUp, HandleSlide, IntMatrix,
                    boundary_profile, borromean, h1_closed, h1_cobordism,
                    identity_diagram, linking_matrix, linking_number, mend,
                    parse, serialize, sew, sigma_g_s1_link, signature,
                    smith_normal_form, structural_iso, unknot, validate)
from conftest import (corpus_with_wedge, det, random_diagram,
                      random_valid_move)
from test_invariants import snf_diagonal_oracle
from test_planarity import _swap_events


def _announce(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_identity_diagrams():
    for g in range(5):
        d = identity_diagram(g)
        assert validate(d).ok
        for i in range(1, g + 1):
            for j in range(1, g + 1):
                assert linking_number(d, f"u{i}", f"v{j}") == int(i == j)
        assert h1_cobordism(d) == AbelianGroup(rank=2 * g)
    _announce(1, "identity diagrams validate; wedge-pair linking is the "
                 "identity matrix; H1 = Z^2g for g in 0..4")


def test_criterion_2_sigma_s1_links():
    for g in range(6):
        s = sigma_g_s1_link(g)
        assert validate(s).ok
        if g >= 1:
            assert len(s.circles) == 2 * g + 1
        assert all(c.framing == 0 for c in s.circles)
        m = linking_matrix(s)
        assert all(v == 0 for row in m.entries for v in row)
        assert h1_closed(s) == AbelianGroup(rank=2 * g + 1)
    assert structural_iso(sigma_g_s1_link(0), unknot(0))
    assert structural_iso(sigma_g_s1_link(1), borromean(0, 0, 0))
    _announce(2, "surface-times-circle links have 2g+1 components, zero "
                 "linking matrix, H1 = Z^(2g+1) for g in 0..5; g=0 is the "
                 "0-framed unknot and g=1 the Borromean rings")


def test_criterion_3_mend_reproduces_links():
    for g in (0, 1, 2, 3, 4, 5, 8, 16, 32):
        m = mend(identity_diagram(g), "V", "U")
        assert structural_iso(m, sigma_g_s1_link(g)), g
        assert h1_closed(m) == AbelianGroup(rank=2 * g + 1)
    _announce(3, "mending the identity diagram is structurally isomorphic "
                 "to the surface-times-circle link with H1 = Z^(2g+1), "
                 "g in 0..5, 8, 16, 32")


def test_criterion_4_unit_laws():
    incoming = corpus_with_wedge("incoming")
    outgoing = corpus_with_wedge("outgoing")
    assert len(incoming) >= 20 and len(outgoing) >= 20
    for g, d in incoming:
        out = sew(identity_diagram(g), "V", d, "w1")
        assert h1_cobordism(out) == h1_cobordism(d)
        src, tgt = boundary_profile(d)
        src2, tgt2 = boundary_profile(out)
        assert sorted(src2) == sorted(src) and sorted(tgt2) == sorted(tgt)
    for g, d in outgoing:
        out = sew(d, "w1", identity_diagram(g), "U")
        assert h1_cobordism(out) == h1_cobordism(d)
        src, tgt = boundary_profile(d)
        src2, tgt2 = boundary_profile(out)
        assert sorted(src2) == sorted(src) and sorted(tgt2) == sorted(tgt)
    _announce(4, f"sewing with the identity preserved boundary profile and "
                 f"H1 on {len(incoming)} incoming-side and {len(outgoing)} "
                 "outgoing-side corpus diagrams")


def test_criterion_5_move_soundness():
    rng = random.Random(27182818)
    trials = 0
    roundtrips = 0
    slides = 0
    while trials < 500:
        d = random_diagram(rng)
        picked = random_valid_move(rng, d)
        if picked is None:
            continue
        mv, out = picked
        trials += 1
        assert validate(out).ok
        assert boundary_profile(out) == boundary_profile(d)
        assert h1_cobordism(out) == h1_cobordism(d)
        if not d.wedges:
            if isinstance(mv, BlowUp):
                assert signature(out) - signature(d) == mv.sign
            if isinstance(mv, BlowDown):
                before = next(c.framing for c in d.circles
                              if c.id == mv.circle)
                assert signature(d) - signature(out) == before
        if isinstance(mv, HandleSlide):
            slides += 1
            f_i = next(c.framing for c in d.circles if c.id == mv.moving)
            f_j = next(c.framing for c in d.circles if c.id == mv.over)
            lk = linking_number(d, mv.moving, mv.over)
            got = next(c.framing for c in out.circles if c.id == mv.moving)
            assert got == f_i + f_j + 2 * lk
            for other in d.circles:
                if other.id in (mv.moving, mv.over):
                    continue
                assert linking_number(out, mv.moving, other.id) == \
                    linking_number(d, mv.moving, other.id) + \
                    linking_number(d, mv.over, other.id)
        if isinstance(mv, BlowUp):
            new = sorted(set(c.id for c in out.circles)
                         - set(c.id for c in d.circles))[0]
            back = __import__("cobkit").apply(out, BlowDown(new))
            assert structural_iso(back, d)
            roundtrips += 1
    assert roundtrips > 0 and slides > 0
    _announce(5, f"500 randomized move trials preserved H1 and boundary "
                 f"profiles; {roundtrips} blow round-trips were structural "
                 f"identities and {slides} handle slides matched the "
                 "framing formula exactly")


def test_criterion_6_snf_oracle():
    rng = random.Random(16180339)
    for _ in range(200):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix(tuple(tuple(rng.randint(-3, 3) for _ in range(c))
                            for _ in range(r)))
        u, d, v = smith_normal_form(m)
        assert u.mul(m).mul(v).entries == d.entries
        assert det(u) in (1, -1) and det(v) in (1, -1)
        diag = d.diagonal()
        nz = [x for x in diag if x]
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        assert diag == snf_diagonal_oracle(m)
    _announce(6, "200 random Smith normal forms verified exactly against "
                 "the determinantal-divisor oracle, with unimodular "
                 "transforms and divisibility chains")


def test_criterion_7_planarity_gate():
    from cobkit import trefoil

    accepted = 0
    for g in range(5):
        assert validate(identity_diagram(g)).ok
        assert validate(sigma_g_s1_link(g)).ok
        accepted += 2
    for g, d in corpus_with_wedge("incoming"):
        assert validate(d).ok
        accepted += 1
    for g, d in corpus_with_wedge("outgoing")[:6]:
        out = sew(d, "w1", identity_diagram(g), "U")
        assert validate(out).ok
        accepted += 1
    for g in range(3):
        assert validate(mend(identity_diagram(g), "V", "U")).ok
        accepted += 1

    cases = []
    t = trefoil()
    cases += [(t, "k1", 0, 1), (t, "k1", 1, 2), (t, "k1", 0, 3),
              (t, "k1", 2, 5), (t, "k1", 1, 4)]
    b = borromean(0, 0, 0)
    cases += [(b, "k1", 0, 1), (b, "k2", 1, 2), (b, "k3", 0, 2),
              (b, "k1", 1, 3)]
    cases += [(sigma_g_s1_link(1), "b", 0, 2)]
    assert len(cases) == 10
    for d, cid, i, j in cases:
        assert not validate(_swap_events(d, cid, i, j)).ok
    _announce(7, f"validator accepted {accepted} builder/compose outputs "
                 "and rejected all 10 rotation-perturbed codes")


def test_criterion_8_serialization():
    from test_io import _plain, _round_trip_corpus

    count = 0
    for d in _round_trip_corpus():
        text = serialize(d)
        assert parse(text) == _plain(d)
        assert serialize(parse(text)) == text
        count += 1
    golden = pathlib.Path(__file__).parent / "golden"
    assert serialize(identity_diagram(2)) == \
        (golden / "identity_2.json").read_text()
    assert serialize(sigma_g_s1_link(1)) == \
        (golden / "sigma_s1_1.json").read_text()
    assert serialize(borromean(0, 0, 0)) == \
        (golden / "borromean_0.json").read_text()
    _announce(8, f"parse-serialize identity on {count} corpus diagrams; "
                 "golden files byte-stable")


def test_criterion_9_mend_convention_independence():
    for g in range(4):
        a = mend(identity_diagram(g), "V", "U")
        b = mend(identity_diagram(g), "V", "U", swap_roles=True)
        assert h1_closed(a) == h1_closed(b)
        assert len(a.circles) == len(b.circles)
        mb = linking_matrix(b)
        assert all(v == 0 for row in mb.entries for v in row)
    _announce(9, "swapped coupled-circle role assignment left H1, "
                 "component counts, and the zero linking submatrix "
                 "unchanged for g in 0..3")
