"""Serialization round trips, golden files, error locations."""

import json
import pathlib

import pytest

from cobkit import (BlowDown, BlowUp, HandleSlide, MoveScript, R1, R2, R3,
                    Twist, borromean, hopf, identity_diagram, mend, parse,
                    parse_move_script, serialize, serialize_move_script, sew,
                    sigma_g_s1_link, tensor, thread_circle,
                    trefoil, unknot, wedge_row)
from cobkit.errors import ParseError
from conftest import malformed_documents

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
        Twist(incoming="U", outgoing="V"),
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


@pytest.mark.parametrize("move", [
    {"kind": "r1", "site": ["k1", 0], "sign": "x"},
    {"kind": "blow_up"},
    {"kind": "r3"},
    {"kind": "r3", "site": "k1"},
    {"kind": "twist", "incoming": "U"},
    {"kind": "teleport"},
    {"sign": 1},
    ["r1"],
])
def test_bad_move_reports_its_location(move):
    text = json.dumps({"format_version": "1",
                       "moves": [{"kind": "blow_up", "sign": 1}, move]})
    with pytest.raises(ParseError) as err:
        parse_move_script(text)
    assert err.value.location == "moves[1]"


@pytest.mark.parametrize("text", malformed_documents())
def test_malformed_document_raises_parse_error(text):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.location
