"""Serialization round trips, golden files, error locations."""

import gc
import json
import pathlib
import random

import pytest

from cobkit import (BlowDown, BlowUp, Circle, Crossing, Diagram,
                    HandleSlide, MoveScript, R1, R2, R3, apply, borromean,
                    empty_diagram, hopf, identity_diagram, mend, parse,
                    parse_move_script, relabel, search_equivalent, serialize,
                    serialize_move_script, sew, sigma_g_s1_link, tensor,
                    thread_circle, trefoil, unknot, wedge_row)
from cobkit.diagram import (DEPART, OVER, RETURN, SURGERY, WEDGE,
                            CrossingSlot)
from cobkit.errors import ParseError
from cobkit.moves import _HANDLERS
from conftest import (builder_corpus, malformed_documents, move_walks,
                      serialize_move_script_oracle, serialize_oracle)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _round_trip_corpus():
    yield unknot(0)
    yield unknot(-7)
    yield trefoil()
    yield hopf(2, -3)
    yield borromean(0, 0, 0)
    for g in range(4):
        yield identity_diagram(g)
        yield sigma_g_s1_link(g)
    yield wedge_row([("incoming", 2), ("outgoing", 1)])
    yield thread_circle(wedge_row([("incoming", 1)]), "w1c1", "s1")
    yield tensor(hopf(0, 0), identity_diagram(1))
    yield mend(identity_diagram(2), "V", "U")
    yield sew(identity_diagram(1), "V", identity_diagram(1), "U")


def _plain(d):
    from cobkit import Diagram
    return Diagram(d.circles, d.crossings, d.wedges, d.source_order,
                   d.target_order)


def test_parse_serialize_identity_on_corpus():
    for d in _round_trip_corpus():
        text = serialize(d)
        back = parse(text)
        assert back == _plain(d)       # structural equality, not just iso
        assert serialize(back) == text


def test_serialize_deterministic():
    a = serialize(sigma_g_s1_link(2))
    b = serialize(sigma_g_s1_link(2))
    assert a == b


@pytest.mark.parametrize("name,make", [
    ("identity_2.json", lambda: identity_diagram(2)),
    ("sigma_s1_1.json", lambda: sigma_g_s1_link(1)),
    ("borromean_0.json", lambda: borromean(0, 0, 0)),
])
def test_golden_files_byte_stable(name, make):
    assert serialize(make()) == (GOLDEN / name).read_text()


def test_parse_reports_missing_circle():
    doc = json.loads(serialize(hopf(0, 0)))
    doc["diagram"]["crossings"][0]["over"][0] = "ghost"
    with pytest.raises(ParseError) as err:
        parse(json.dumps(doc))
    assert "ghost" in str(err.value) or "crossing" in str(err.value)


def test_parse_rejects_unknown_version():
    doc = json.loads(serialize(unknot(0)))
    doc["format_version"] = "99"
    with pytest.raises(ParseError) as err:
        parse(json.dumps(doc))
    assert "format_version" in str(err.value)


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError) as err:
        parse("{not json")
    assert err.value.location


def test_big_framings_round_trip_as_strings():
    d = unknot(2 ** 70)
    text = serialize(d)
    assert f'"{2 ** 70}"' in text
    assert parse(text) == d


def test_move_script_round_trip():
    script = MoveScript((
        BlowUp(1), BlowDown("e1"), R1(site=("k1", 0), sign=-1),
        R1(crossing="r1"), R1(crossing="r1", sign=-1),
        R2(darts=(("k1", 0, 1), ("k2", 1, -1)), over=False),
        R2(crossings=("a", "b")), R2(crossings=("a", "b"), over=False),
        R3(site=("k1", 2, 1)), HandleSlide("k1", "k2"),
        HandleSlide("k1", "k2", site=(("k1", 0, 1), ("k2", 1, 1))),
    ))
    text = serialize_move_script(script)
    back = parse_move_script(text)
    assert back == script
    assert serialize_move_script(back) == text


def test_move_script_without_default_fields_still_parses():
    # Removal forms written without sign/over, as older scripts have them.
    text = json.dumps({"format_version": "1", "moves": [
        {"kind": "r1", "crossing": "r1"},
        {"kind": "r2", "crossings": ["a", "b"]},
        {"kind": "blow_up", "sign": -1},
        {"kind": "handle_slide", "moving": "k1", "over": "k2"},
    ]})
    assert parse_move_script(text) == MoveScript((
        R1(crossing="r1"), R2(crossings=("a", "b")), BlowUp(-1),
        HandleSlide("k1", "k2")))


def test_move_int_field_takes_a_decimal_string():
    text = json.dumps({"format_version": "1", "moves": [
        {"kind": "blow_up", "sign": "-1"}, {"kind": "r1", "site": ["k1", 0],
                                            "sign": -1}]})
    assert parse_move_script(text) == MoveScript((
        BlowUp(-1), R1(site=("k1", 0), sign=-1)))


@pytest.mark.parametrize("move", [
    {"kind": "r1", "site": ["k1", 0], "sign": "x"},
    {"kind": "blow_up"},
    {"kind": "r3"},
    {"kind": "r3", "site": "k1"},
    {"kind": "handle_slide", "moving": "k1"},
    {"kind": "teleport"},
    {"sign": 1},
    ["r1"],
    {"kind": "r2", "darts": [["k1", 0, -1], ["k2", 1, 1]], "over": "false"},
    {"kind": "blow_up", "sign": 1.7},
    {"kind": "blow_up", "sign": True},
    {"kind": "blow_down", "circle": 5},
    {"kind": "handle_slide", "moving": ["k1"], "over": "k2"},
])
def test_bad_move_reports_its_location(move):
    text = json.dumps({"format_version": "1",
                       "moves": [{"kind": "blow_up", "sign": 1}, move]})
    with pytest.raises(ParseError) as err:
        parse_move_script(text)
    assert err.value.location == "moves[1]"


@pytest.mark.parametrize("kind", [["r1"], {"r1": 1}, "R1", "blowup", 1,
                                  None, "twist"])
def test_unknown_move_kind_message(kind):
    text = json.dumps({"format_version": "1", "moves": [{"kind": kind}]})
    with pytest.raises(ParseError) as err:
        parse_move_script(text)
    assert str(err.value) == f"unknown move kind {kind!r} at moves[0]"
    assert err.value.location == "moves[0]"


@pytest.mark.parametrize("text", malformed_documents())
def test_malformed_document_raises_parse_error(text):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.location


def test_serialize_matches_json_oracle():
    diagrams = builder_corpus() + move_walks(random.Random(9091), 25, 6)
    for g in (8, 32, 64):
        diagrams += [sew(identity_diagram(g), "V", identity_diagram(g), "U"),
                     mend(identity_diagram(g), "V", "U")]
    diagrams += [unknot(2 ** 70), unknot(-2 ** 63), unknot(2 ** 63 - 1),
                 hopf(-2 ** 90, 5)]
    # What a writer from the schema can get wrong: ids that need escapes,
    # empty lists, two-digit indices, framings at and past 64 bits, and
    # framings that are not plain ints.
    diagrams += [relabel(d, prefix)
                 for d in (hopf(1, -2), identity_diagram(2),
                           wedge_row([("incoming", 1), ("outgoing", 0)]))
                 for prefix in ('q"', "b\\", "c\x01\t", "caf\u00e9 \u2603 "
                                "\U0001f600 ")]
    diagrams += [empty_diagram(), wedge_row([("incoming", 0)]),
                 wedge_row([("outgoing", 12)]), unknot(0), unknot(2 ** 63),
                 unknot(-2 ** 63 - 1), hopf(2 ** 63, -2 ** 63)]
    diagrams += [Diagram(circles=(Circle("k", SURGERY, framing=framing),))
                 for framing in (True, False, 2 ** 63 + 0.5, -1.5)]
    diagrams += [Diagram(crossings=(Crossing("x", ("a", True), ("b", 2), -1),
                                    Crossing("y", ("a", 1), ("b", 2), True),
                                    Crossing("z", ("a", 1), ("b", False),
                                             1)))]
    diagrams += [Diagram(circles=(
        Circle("u", WEDGE, (DEPART, RETURN), wedge="W", index=True),
        Circle("v", WEDGE, (DEPART, RETURN), wedge="W")))]
    for d in diagrams:
        assert serialize(d) == serialize_oracle(d)
    for d in (identity_diagram(2), wedge_row([("incoming", 0)]),
              relabel(thread_circle(wedge_row([("incoming", 1)]), "w1c1",
                                    "s1"), "\u00fc\"")):
        metadata = {"note": "wedges", "n": [2 ** 70, None]}
        assert serialize(d, metadata) == serialize_oracle(d, metadata)


def test_serialize_writes_ids_of_other_types_as_json_does():
    """A field outside the schema's types has no template; the diagram is
    then written from its document."""
    d = Diagram(circles=(Circle(5, SURGERY, (CrossingSlot(7, OVER),)),
                         Circle("k", WEDGE, (DEPART, RETURN))),
                crossings=(Crossing(7, (5, 0), ("k", 1), [1]),))
    assert serialize(d) == serialize_oracle(d)
    assert serialize(d, {"m": 1}) == serialize_oracle(d, {"m": 1})


@pytest.mark.parametrize("metadata", [
    {"nested": {"list": [1, [2, [3, []]], {}], "dict": {"b": {}, "a": []}}},
    {"flags": [True, False, None], "none": None, "yes": True, "no": False},
    {"floats": [0.0, -0.0, 1.5, 1e300, -2.5e-8, float("nan"),
                float("inf"), float("-inf")]},
    {"text": "caf\u00e9 \u2603 \U0001f600 \x00\x1f\t\n \"quoted\" \\ /",
     "\u00fcnicode key": "", "": "empty key"},
    {"big": [2 ** 64, -2 ** 80, 10 ** 30], "tuple": (1, ("a", ()))},
    {2: "int keys sort as ints", 10: "after 2", -1.5: "float key"},
    {True: "bool key", False: "false key"},
    {None: "null key"},
])
def test_serialize_metadata_matches_json_oracle(metadata):
    d = unknot(2 ** 70)
    assert serialize(d, metadata) == serialize_oracle(d, metadata)


def test_serialize_move_script_matches_json_oracle():
    every_field = {
        R1: R1(site=("k1", 0), sign=-1, crossing="r1"),
        R2: R2(darts=(("k1", 0, 1), ("k2", 1, -1)), over=False,
               crossings=("a", "b")),
        R3: R3(site=("k1", 2, 1)),
        BlowUp: BlowUp(-1, site=("k1", 3)),
        BlowDown: BlowDown("e1"),
        HandleSlide: HandleSlide("k1", "k2",
                                 site=(("k1", 0, 1), ("k2", 1, 1))),
    }
    assert set(every_field) == set(_HANDLERS)
    scripts = [MoveScript(), MoveScript(tuple(every_field.values()))]
    scripts += [MoveScript((m,)) for m in every_field.values()]
    b, k = borromean(0, 0, 0), sigma_g_s1_link(1)
    kinked = apply(apply(k, R1(site=("b", 0), sign=-1)), BlowUp(1))
    for start, goal, budget in ((tensor(b, unknot(-1)), b, 120),
                                (kinked, k, 400)):
        script = search_equivalent(start, goal, budget=budget)
        assert script is not None and len(script) >= 1
        scripts.append(script)
    for script in scripts:
        assert serialize_move_script(script) == \
            serialize_move_script_oracle(script)


def test_serialize_leaves_no_cycles():
    """The writer frees everything by reference counting: a call leaves
    no garbage for the cyclic collector (the stdlib's pure-Python encoder
    leaves its nested closures in cycles)."""
    d = mend(identity_diagram(4), "V", "U")
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        serialize(d)
        serialize_move_script(MoveScript((BlowUp(1), R1(crossing="r1"))))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
