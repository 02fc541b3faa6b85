"""The one-loop-per-node-kind ``parse`` against the per-node reader it
replaced (``conftest.parse_oracle``): on every document both return
equal diagrams, or both raise ``ParseError`` with the same message and
location."""

import json
import pathlib
import random

import pytest

from cobkit import identity_diagram, mend, parse, serialize, sew
from cobkit.errors import ParseError
from conftest import builder_corpus, mutate_document, outcome, parse_oracle

GOLDEN = pathlib.Path(__file__).parent / "golden"

DOCS = ([json.loads(p.read_text()) for p in sorted(GOLDEN.glob("*.json"))]
        + [json.loads(serialize(d)) for d in builder_corpus()]
        + [json.loads(serialize(sew(identity_diagram(4), "V",
                                    identity_diagram(4), "U")))])


def _same_as_oracle(text):
    got, want = outcome(parse, text), outcome(parse_oracle, text)
    assert got == want
    assert got[0] in ("ok", ParseError)
    return got[0] == "ok"


def test_unmutated_documents_parse_as_before():
    for doc in DOCS:
        assert _same_as_oracle(json.dumps(doc))


def test_seeded_mutations_match_oracle():
    rng = random.Random(20261018)
    accepted = 0
    for _ in range(500):
        doc = mutate_document(rng, rng.choice(DOCS))
        accepted += _same_as_oracle(json.dumps(doc))
    # Both outcomes occur: some edits (an int written as a string, an
    # extra key) leave a valid document, most do not.
    assert 0 < accepted < 500


def test_integer_nodes_match_oracle():
    base = serialize(mend(identity_diagram(1), "V", "U"))
    for path in [("circles", 0, "framing"), ("circles", 0, "index"),
                 ("crossings", 0, "sign"), ("crossings", 1, "over", 1),
                 ("crossings", 0, "under", 1)]:
        for value in [" 7", "1_0", "7", "-0", True, 2 ** 70, "2", 1.0, "x"]:
            doc = json.loads(base)
            node = doc["diagram"]
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            _same_as_oracle(json.dumps(doc))


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.sampled_from(["x", "over", "under", "center", "depart", "return",
                       "surgery", "wedge", "k1", " 7", "1_0", "7"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["id", "kind", "events", "framing",
                                       "wedge", "index", "over", "under",
                                       "sign", "color", "circles", "extra"]),
                      inner, max_size=4),
    max_leaves=8)


def _nodes(node, path=()):
    yield path
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _nodes(node[key], path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _nodes(item, path + (i,))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(DOCS), st.randoms(use_true_random=False))
def test_mutated_document_property(doc, rng):
    _same_as_oracle(json.dumps(mutate_document(rng, doc)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(DOCS), st.data())
def test_replaced_node_property(doc, data):
    doc = json.loads(json.dumps(doc))
    paths = [p for p in _nodes(doc["diagram"]) if p]
    path = data.draw(st.sampled_from(paths))
    node = doc["diagram"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(_JSON)
    _same_as_oracle(json.dumps(doc))
