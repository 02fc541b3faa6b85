"""The one-sweep linking table and ``crossings_between`` against a raw
per-pair crossing rescan, and the cached relation rows against the
per-pair readers they replaced."""

import random
from dataclasses import replace
from functools import cached_property

import pytest

from cobkit import (AbelianGroup, Diagram, IntMatrix, boundary_profile,
                    cokernel, h1_closed, h1_cobordism, hopf,
                    identity_diagram, linking_matrix, linking_number, mend,
                    parse, serialize, sew, sigma_g_s1_link, signature, tensor,
                    trefoil, writhe)
from cobkit.diagram import crossings_between
from cobkit.errors import MalformedDiagramError
from conftest import (_decorated_wedge, builder_corpus, h1_closed_oracle,
                      h1_cobordism_oracle, linking_matrix_oracle, move_walks,
                      outcome, signature_of_diagram_oracle)


# -- oracle: rescan every crossing for every pair ------------------------------

def _raw_count(d, a, b):
    return sum(x.sign for x in d.crossings
               if sorted((x.over[0], x.under[0])) == sorted((a, b)))


def _raw_lk(d, a, b):
    total = _raw_count(d, a, b)
    assert total % 2 == 0
    return total // 2


def _raw_linking_matrix(d):
    surg = d.surgery_circles()
    return tuple(tuple(ci.framing if i == j else _raw_lk(d, ci.id, cj.id)
                       for j, cj in enumerate(surg))
                 for i, ci in enumerate(surg))


def _raw_h1(d):
    ids = [c.id for c in d.circles]
    rows = tuple(tuple(s.framing if cid == s.id else _raw_lk(d, s.id, cid)
                       for cid in ids)
                 for s in d.surgery_circles())
    if not rows:
        return AbelianGroup(rank=len(ids))
    return cokernel(IntMatrix(rows), len(ids))


def _raw_between(d, a, b):
    return {x.id for x in d.crossings
            if sorted((x.over[0], x.under[0])) == sorted((a, b))}


def _assert_table_matches_rescan(d):
    ids = [c.id for c in d.circles]
    for a in ids:
        assert writhe(d, a) == _raw_count(d, a, a)
        for b in ids:
            if a != b:
                assert linking_number(d, a, b) == _raw_lk(d, a, b)
    # crossings_between walks the first circle's events; an unknown id
    # meets nothing and a self-crossing is listed once.
    for a in ids + ["nope"]:
        for b in ids + ["nope"]:
            found = crossings_between(d, a, b)
            assert len(found) == len(_raw_between(d, a, b))
            assert {x.id for x in found} == _raw_between(d, a, b)
    assert linking_matrix(d).entries == _raw_linking_matrix(d)
    assert h1_cobordism(d) == _raw_h1(d)


def test_table_matches_rescan_on_builder_corpus():
    for d in builder_corpus():
        _assert_table_matches_rescan(d)
    assert len(crossings_between(trefoil(), "k1", "k1")) == 3


def test_table_matches_rescan_along_random_move_chains():
    for d in move_walks(random.Random(31415), 25, 4):
        _assert_table_matches_rescan(d)


def test_table_is_built_once_per_diagram():
    d = sigma_g_s1_link(3)
    table = d.linking_counts
    linking_matrix(d)
    h1_cobordism(d)
    assert d.linking_counts is table


def test_unknown_circle_still_rejected():
    with pytest.raises(MalformedDiagramError):
        linking_number(hopf(0, 0), "k1", "nope")


def test_odd_pair_count_rejected():
    h = hopf(0, 0)
    odd = replace(h, crossings=h.crossings[:1])
    with pytest.raises(MalformedDiagramError):
        linking_number(odd, "k1", "k2")
    with pytest.raises(MalformedDiagramError):
        linking_matrix(odd)
    with pytest.raises(MalformedDiagramError):
        h1_cobordism(odd)


def test_odd_surgery_wedge_count_rejected_by_h1():
    d = _decorated_wedge("outgoing", 1, threads=1)
    odd = replace(d, crossings=d.crossings[:1])
    assert linking_matrix(odd).entries == ((0,),)
    with pytest.raises(MalformedDiagramError):
        h1_cobordism(odd)


# -- the cached relation rows against the per-pair readers ---------------------

READERS = ((linking_matrix, linking_matrix_oracle),
           (h1_cobordism, h1_cobordism_oracle),
           (h1_closed, h1_closed_oracle),
           (signature, signature_of_diagram_oracle))


def _assert_readers_match_oracles(d):
    for reader, oracle in READERS:
        # A fresh copy for each side, so neither reads the other's cache.
        assert outcome(reader, replace(d)) == outcome(oracle, replace(d))


def _large_diagrams():
    for g in (8, 32):
        yield sew(identity_diagram(g), "V", identity_diagram(g), "U")
        yield mend(identity_diagram(g), "V", "U")
        yield tensor(identity_diagram(g), sigma_g_s1_link(g))


def test_readers_match_per_pair_oracles():
    diagrams = (builder_corpus() + move_walks(random.Random(2718), 25, 6)
                + list(_large_diagrams()))
    for d in diagrams:
        _assert_readers_match_oracles(d)


def _kinds(d, a, b):
    return tuple(sorted(d.circle(c).kind for c in (a, b)))


def test_odd_counts_match_per_pair_oracles():
    """Drop one or two crossings from each diagram, so that one or two
    pairs have an odd count: every reader raises the oracle's error on
    the same first pair, or returns the oracle's value."""
    seen = set()
    for d in builder_corpus() + [hopf(2, 3), tensor(hopf(0, 1), hopf(1, 0))]:
        xs = d.crossings
        drops = [(i,) for i in range(len(xs))]
        drops += [(i, j) for i in range(len(xs))
                  for j in range(i + 1, len(xs))][:40]
        for drop in drops:
            odd = replace(d, crossings=tuple(
                x for i, x in enumerate(xs) if i not in drop))
            for i in drop:
                a, b = xs[i].over[0], xs[i].under[0]
                if a != b:
                    seen.add(_kinds(d, a, b))
            _assert_readers_match_oracles(odd)
    assert seen == {("surgery", "surgery"), ("surgery", "wedge"),
                    ("wedge", "wedge")}


def _counting(monkeypatch, name, calls):
    """Replace the cached property ``Diagram.<name>`` by one that appends
    each diagram it fills to ``calls``."""
    fill = getattr(Diagram, name).func

    def counted(d):
        calls.append(d)
        return fill(d)

    prop = cached_property(counted)
    prop.__set_name__(Diagram, name)
    monkeypatch.setattr(Diagram, name, prop)


def test_invariants_query_sweeps_the_crossings_once(monkeypatch):
    sweeps, tables = [], []
    _counting(monkeypatch, "linking_counts", sweeps)
    _counting(monkeypatch, "linking_rows", tables)
    for d in (mend(identity_diagram(8), "V", "U"),
              tensor(identity_diagram(8), sigma_g_s1_link(8))):
        d = parse(serialize(d))
        sweeps.clear()
        tables.clear()
        boundary_profile(d)
        linking_matrix(d)
        h1_cobordism(d)
        if not d.wedges:
            h1_closed(d)
            signature(d)
        assert len(sweeps) == len(tables) == 1
        assert sweeps[0] is d and tables[0] is d
