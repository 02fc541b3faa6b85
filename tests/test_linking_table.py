"""The one-sweep linking table and ``crossings_between`` against a raw
per-pair crossing rescan."""

import random
from dataclasses import replace

import pytest

from cobkit import (AbelianGroup, IntMatrix, cokernel, h1_cobordism, hopf,
                    linking_matrix, linking_number, sigma_g_s1_link, trefoil,
                    writhe)
from cobkit.diagram import crossings_between
from cobkit.errors import MalformedDiagramError
from conftest import _decorated_wedge, builder_corpus, move_walks


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
