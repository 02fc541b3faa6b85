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


SURGERY_DOC = json.loads(serialize(mend(identity_diagram(1), "V", "U")))
WEDGE_DOC = json.loads(serialize(identity_diagram(1)))

# (document, path to a node, its fields in the order the reader checks
# them): every field of every node kind, list items by index.
FIELDS = [
    (WEDGE_DOC, (), ["circles", "crossings", "wedges", "source_order",
                     "target_order"]),
    (WEDGE_DOC, ("circles",), [0, 1]),
    (SURGERY_DOC, ("crossings",), [0, 1]),
    (WEDGE_DOC, ("wedges",), [0, 1]),
    (SURGERY_DOC, ("circles", 0), ["id", "events", "kind", "framing"]),
    (WEDGE_DOC, ("circles", 0), ["id", "events", "kind", "wedge", "index"]),
    (SURGERY_DOC, ("circles", 0), ["wedge", "index"]),   # not read
    (WEDGE_DOC, ("circles", 0), ["framing"]),            # not read
    (SURGERY_DOC, ("circles", 0, "events"), [0, 1]),
    (SURGERY_DOC, ("crossings", 0), ["id", "over", "under", "sign"]),
    (SURGERY_DOC, ("crossings", 1, "over"), [0, 1]),
    (SURGERY_DOC, ("crossings", 0, "under"), [0, 1]),
    (WEDGE_DOC, ("wedges", 0), ["id", "color", "circles"]),
    (WEDGE_DOC, ("wedges", 1, "circles"), [0]),
    (WEDGE_DOC, ("source_order",), [0]),
    (WEDGE_DOC, ("target_order",), [0]),
]
MISSING = object()
# A missing key, null, a list, a dict and a bool, then integers written
# as strings (and other near-integers) for the integer fields.
VALUES = [MISSING, None, [], ["k1", 0], {}, {"id": "k1"}, True, False,
          "7", "2", " 7", "-0", "1_0", "x", str(2 ** 70), 2 ** 70, 1.0]


def _edited(doc, path, edits):
    doc = json.loads(json.dumps(doc))
    node = doc["diagram"]
    for key in path:
        node = node[key]
    # Higher list indices first, so that deleting one shifts no other.
    for key in sorted(edits, key=str, reverse=True):
        if edits[key] is not MISSING:
            node[key] = edits[key]
        elif isinstance(node, dict):
            node.pop(key, None)
        else:
            del node[key]
    return json.dumps(doc)


def test_integer_nodes_match_oracle():
    """Each field of each node kind set to each value of VALUES, and each
    pair of fields of one node broken at once, where the reader's field
    order decides which error is reported."""
    accepted = rejected = 0
    for doc, path, keys in FIELDS:
        edits = [{key: value} for key in keys for value in VALUES]
        edits += [{a: bad, b: bad} for i, a in enumerate(keys)
                  for b in keys[i + 1:] for bad in (MISSING, None, {})]
        for edit in edits:
            if _same_as_oracle(_edited(doc, path, edit)):
                accepted += 1
            else:
                rejected += 1
    assert accepted and rejected


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
