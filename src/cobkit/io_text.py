"""Diagram documents and move scripts as canonical JSON text.

The wire format is a JSON tree with explicit ids and a ``format_version``
field.  Serialization is canonical (sorted keys, fixed separators, one
trailing newline) so that equal diagrams produce byte-identical text and
golden files stay stable.  Integers beyond 64 bits are written as
decimal strings; the parser accepts both forms.  The parser checks the
JSON type of every node before use and raises only ``ParseError``, with
a dotted location such as ``diagram.circles[2].events``.

The diagram is read by one reader per node kind (circles with their
events, crossings, wedges, and id lists).  Each reader checks every
field's JSON type inline and builds the values directly.  Only a field
that fails its check goes to a located coercion for that field
(``_int_in``, ``_string``, ``_strand_in``, or ``_field`` for a missing
key), which either accepts it (an integer written as a string, say) or
raises the ``ParseError`` for it; fields are checked in document order
(a circle's ``id``, ``events``, ``kind``, then ``framing`` or ``wedge``
and ``index``), so the first bad field is the one reported.  Locations
are nested ``(parent, key)`` pairs, built only on that fallback path,
and their text only when a ``ParseError`` is raised.

The output bytes equal ``json.dumps(doc, sort_keys=True, separators=(",",
": "), indent=1)`` of the document, and the golden files pin them, so no
writer may differ by one.  ``json.dumps`` itself is not used for output:
any ``indent`` makes ``json`` fall back from its C encoder to the
pure-Python one, which is slow and leaves its nested closures behind as
reference cycles on every call.  A diagram document has a fixed shape,
so ``serialize`` writes it from the dataclasses with one template per
node kind (an event, a surgery or wedge circle, a crossing, a wedge, an
id list) at its fixed indent, rather than build the document tree and
walk it token by token; a diagram with a field outside the schema's
types goes through its document instead.  Metadata (whose key sorts
last) and move scripts are written by one small recursive writer,
``_write``.
"""

from __future__ import annotations

import json
import re
from dataclasses import MISSING, fields
from json.encoder import encode_basestring_ascii as _quote

from .diagram import (DEPART, RETURN, Circle, Crossing, CrossingSlot,
                      Diagram, SURGERY, WEDGE, Wedge)
from .errors import ParseError
from .planarity import validate
from . import moves as _moves

FORMAT_VERSION = "1"
_INT64_MAX = 2 ** 63 - 1
_INF = float("inf")


def _int_out(n: int):
    return str(n) if abs(n) > _INT64_MAX else n


def _at(where):
    """The dotted text of a location: a root name, or a ``(parent, key)``
    pair that adds ``.key`` for a field and ``[key]`` for a list item."""
    if isinstance(where, str):
        return where
    parent, key = where
    if isinstance(key, int):
        return f"{_at(parent)}[{key}]"
    return f"{_at(parent)}.{key}"


def _error(message, where):
    at = _at(where)
    return ParseError(f"{message} at {at}", at)


def _int_in(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise _error("expected an integer", where)
    try:
        return int(value)
    except ValueError:
        raise _error(f"bad integer {value!r}", where) from None


def _event_out(e):
    if isinstance(e, CrossingSlot):
        return ["x", e.crossing, e.role]
    return ["center", e.which]


def _reader(kind, name):
    """The type-checked reader of one JSON node kind."""
    def read(raw, where):
        if not isinstance(raw, kind):
            raise _error(f"expected {name}", where)
        return raw
    return read


_list = _reader(list, "a list")
_string = _reader(str, "a string")


def _field(obj, key, read, where, default=MISSING):
    """``obj[key]`` checked by ``read`` at ``where.key``; a missing key
    takes ``default``, and without one raises."""
    try:
        raw = obj[key]
    except KeyError:
        if default is MISSING:
            raise _error(f"missing {key!r}", where) from None
        return default
    return read(raw, (where, key))


def _strand_in(raw, where):
    if not (isinstance(raw, list) and len(raw) == 2
            and isinstance(raw[0], str)):
        raise _error("expected [circle id, slot]", where)
    return raw[0], _int_in(raw[1], where)


_DEPART_IN = ["center", "depart"]
_RETURN_IN = ["center", "return"]


def _circles_in(raw, where):
    """The circles with their events; circle ``i`` is at ``where[i]``,
    and a failing event at the number of events read before it."""
    out = []
    for i, c in enumerate(raw):
        if type(c) is not dict:
            raise _error("expected an object", (where, i))
        cid, events, kind = c.get("id"), c.get("events"), c.get("kind")
        if type(cid) is not str:
            cid = _field(c, "id", _string, (where, i))
        if type(events) is not list:
            events = _field(c, "events", _list, (where, i), ())
        slots = []
        for e in events:
            if type(e) is list:
                if (len(e) == 3 and e[0] == "x" and type(e[1]) is str
                        and type(e[2]) is str
                        and (e[2] == "over" or e[2] == "under")):
                    slots.append(CrossingSlot(e[1], e[2]))
                    continue
                if e == _DEPART_IN:
                    slots.append(DEPART)
                    continue
                if e == _RETURN_IN:
                    slots.append(RETURN)
                    continue
            raise _error(f"bad event {e!r}" if type(e) is list and e
                         else "bad event",
                         (((where, i), "events"), len(slots)))
        if kind == SURGERY:
            framing = c.get("framing", 0)
            if type(framing) is not int:
                framing = _field(c, "framing", _int_in, (where, i))
            out.append(Circle(cid, SURGERY, tuple(slots), framing=framing))
        elif kind == WEDGE:
            wid, index = c.get("wedge"), c.get("index", 0)
            if type(wid) is not str:
                wid = _field(c, "wedge", _string, (where, i))
            if type(index) is not int:
                index = _field(c, "index", _int_in, (where, i))
            out.append(Circle(cid, WEDGE, tuple(slots), wedge=wid,
                              index=index))
        else:
            raise _error(f"unknown circle kind {kind!r}", (where, i))
    return tuple(out)


def _crossings_in(raw, where):
    """The crossings; item ``i`` is at ``where[i]``."""
    out = []
    for i, x in enumerate(raw):
        if type(x) is not dict:
            raise _error("expected an object", (where, i))
        xid, over, under, sign = (x.get("id"), x.get("over"),
                                  x.get("under"), x.get("sign"))
        if type(xid) is not str:
            xid = _field(x, "id", _string, (where, i))
        if (type(over) is list and len(over) == 2
                and type(over[0]) is str and type(over[1]) is int):
            over = over[0], over[1]
        else:
            over = _field(x, "over", _strand_in, (where, i))
        if (type(under) is list and len(under) == 2
                and type(under[0]) is str and type(under[1]) is int):
            under = under[0], under[1]
        else:
            under = _field(x, "under", _strand_in, (where, i))
        if type(sign) is not int:
            sign = _field(x, "sign", _int_in, (where, i))
        out.append(Crossing(xid, over, under, sign))
    return tuple(out)


def _wedges_in(raw, where):
    """The wedges; item ``i`` is at ``where[i]``."""
    out = []
    for i, w in enumerate(raw):
        if type(w) is not dict:
            raise _error("expected an object", (where, i))
        wid, color, cids = w.get("id"), w.get("color"), w.get("circles")
        if type(wid) is not str:
            wid = _field(w, "id", _string, (where, i))
        if type(color) is not str:
            color = _field(w, "color", _string, (where, i))
        if type(cids) is not list or not all(type(c) is str for c in cids):
            cids = _strings_in(_field(w, "circles", _list, (where, i)),
                               ((where, i), "circles"))
        out.append(Wedge(wid, color, tuple(cids)))
    return tuple(out)


def _strings_in(raw, where):
    """A list of ids as a tuple; item ``i`` is at ``where[i]``."""
    return tuple(s if type(s) is str else _string(s, (where, i))
                 for i, s in enumerate(raw))


def diagram_to_document(d: Diagram, metadata=None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "diagram": {
            "circles": [
                {
                    "id": c.id,
                    "kind": c.kind,
                    **({"framing": _int_out(c.framing)} if c.is_surgery()
                       else {"wedge": c.wedge, "index": c.index}),
                    "events": [_event_out(e) for e in c.events],
                }
                for c in d.circles
            ],
            "crossings": [
                {"id": x.id, "over": [x.over[0], x.over[1]],
                 "under": [x.under[0], x.under[1]], "sign": x.sign}
                for x in d.crossings
            ],
            "wedges": [
                {"id": w.id, "color": w.color,
                 "circles": list(w.circle_ids)}
                for w in d.wedges
            ],
            "source_order": list(d.source_order),
            "target_order": list(d.target_order),
        },
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def _atom(value):
    """JSON text of a scalar as ``json`` writes it, or None."""
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (_INF, -_INF):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    return None


def _scalar(value):
    """JSON text of a scalar (a string, number, boolean or None)."""
    if isinstance(value, str):
        return _quote(value)
    text = _atom(value)
    if text is None:
        raise TypeError(f"Object of type {type(value).__name__} "
                        "is not JSON serializable")
    return text


def _write(value, out, pad):
    """Append the JSON text of ``value`` to ``out``, with sorted keys and
    one space of indent per level; ``pad`` is the newline and indent of
    the line ``value`` ends on.  Separators and indents go in as shared
    strings rather than joined per item, so ``out`` holds no more string
    objects than the stdlib encoder's chunk list."""
    if isinstance(value, dict):
        sep, inner = "{", pad + " "
        for key, item in sorted(value.items()):
            name = key if isinstance(key, str) else _atom(key)
            if name is None:
                raise TypeError("keys must be str, int, float, bool or "
                                f"None, not {type(key).__name__}")
            out += sep, inner, _quote(name), ": "
            _write(item, out, inner)
            sep = ","
        out += (pad, "}") if value else ("{}",)
    elif isinstance(value, (list, tuple)):
        sep, inner = "[", pad + " "
        for item in value:
            out += sep, inner
            _write(item, out, inner)
            sep = ","
        out += (pad, "]") if value else ("[]",)
    else:
        out.append(_scalar(value))


def _dumps(doc) -> str:
    """Canonical text of a document, with one trailing newline."""
    out = []
    _write(doc, out, "\n")
    out.append("\n")
    return "".join(out)


# -- the diagram writer -------------------------------------------------------
#
# The diagram document has a fixed shape, so each node kind is written by
# one template at its fixed depth: depth k is indented by k spaces, with the
# document's keys at 1, the diagram's at 2, its circles, crossings, wedges
# and boundary ids at 3, their fields at 4, events, strand pairs and wedge
# circle ids at 5, and event fields at 6.  The templates spell out what
# ``_write`` writes for the document ``diagram_to_document`` builds.  An
# integer field that is not a plain ``int`` (a ``bool`` framing, say) is
# written by ``_scalar``, as ``_write`` writes it.

_PAD = tuple("\n" + " " * k for k in range(7))
_SEP = tuple("," + pad for pad in _PAD)


def _list_at(items, depth):
    """A JSON list of written ``items`` at ``depth``."""
    if not items:
        return "[]"
    return f"[{_PAD[depth]}{_SEP[depth].join(items)}{_PAD[depth - 1]}]"


def _ids_at(ids, depth):
    return _list_at([_quote(i) for i in ids], depth)


def _circle_text(c):
    q = _quote
    events = _list_at([
        f'[\n      "x",\n      {q(e.crossing)},\n      {q(e.role)}\n     ]'
        if isinstance(e, CrossingSlot) else
        f'[\n      "center",\n      {q(e.which)}\n     ]'
        for e in c.events], 5)
    if c.is_surgery():
        framing = c.framing
        if type(framing) is not int or abs(framing) > _INT64_MAX:
            framing = _scalar(_int_out(framing))
        return (f'{{\n    "events": {events},\n    "framing": {framing},'
                f'\n    "id": {q(c.id)},\n    "kind": {q(c.kind)}\n   }}')
    index = c.index if type(c.index) is int else _scalar(c.index)
    return (f'{{\n    "events": {events},\n    "id": {q(c.id)},'
            f'\n    "index": {index},\n    "kind": {q(c.kind)},'
            f'\n    "wedge": {q(c.wedge)}\n   }}')


def _crossing_text(x):
    q = _quote
    over, sign, under = x.over[1], x.sign, x.under[1]
    if not (type(over) is type(sign) is type(under) is int):
        over, sign, under = _scalar(over), _scalar(sign), _scalar(under)
    return (f'{{\n    "id": {q(x.id)},\n    "over": [\n     {q(x.over[0])},'
            f'\n     {over}\n    ],\n    "sign": {sign},\n    "under": ['
            f'\n     {q(x.under[0])},\n     {under}\n    ]\n   }}')


def _wedge_text(w):
    return (f'{{\n    "circles": {_ids_at(w.circle_ids, 5)},'
            f'\n    "color": {_quote(w.color)},\n    "id": {_quote(w.id)}'
            f'\n   }}')


def _body_text(d: Diagram) -> str:
    """The document up to its last key, the format version."""
    circles = _list_at([_circle_text(c) for c in d.circles], 3)
    crossings = _list_at([_crossing_text(x) for x in d.crossings], 3)
    wedges = _list_at([_wedge_text(w) for w in d.wedges], 3)
    return (f'{{\n "diagram": {{\n  "circles": {circles},'
            f'\n  "crossings": {crossings},'
            f'\n  "source_order": {_ids_at(d.source_order, 3)},'
            f'\n  "target_order": {_ids_at(d.target_order, 3)},'
            f'\n  "wedges": {wedges}\n }},'
            f'\n "format_version": {_quote(FORMAT_VERSION)}')


def serialize(d: Diagram, metadata=None) -> str:
    """Canonical text for a valid diagram; deterministic across runs."""
    try:
        body = _body_text(d)
    except TypeError:
        # A field outside the schema's types (an id that is not a string,
        # say) has no template; ``_write`` writes any JSON value.
        return _dumps(diagram_to_document(d, metadata))
    if not metadata:
        return body + "\n}\n"
    out = [body, ',\n "metadata": ']
    _write(metadata, out, "\n ")
    out.append("\n}\n")
    return "".join(out)


def document_to_diagram(doc) -> Diagram:
    if not isinstance(doc, dict):
        raise ParseError("document must be an object", "document")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(
            f"unsupported format_version {version!r} (expected "
            f"{FORMAT_VERSION!r})", "format_version")
    body = doc.get("diagram")
    if not isinstance(body, dict):
        raise ParseError("missing diagram object", "diagram")

    def listed(key, read):
        return read(_field(body, key, _list, "diagram", ()), ("diagram", key))

    d = Diagram(circles=listed("circles", _circles_in),
                crossings=listed("crossings", _crossings_in),
                wedges=listed("wedges", _wedges_in),
                source_order=listed("source_order", _strings_in),
                target_order=listed("target_order", _strings_in))
    report = validate(d)
    if not report.ok:
        first = report.violations[0]
        raise ParseError(
            f"diagram fails validation: {first.code}: {first.message}",
            first.location or "diagram", report.violations)
    return d


def _load_json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}",
                         f"line {exc.lineno}, column {exc.colno}") from None
    except RecursionError:
        raise ParseError("JSON nested too deeply", "document") from None


def parse(text: str) -> Diagram:
    """Parse and validate a diagram document; raises ParseError with a
    location on both syntax and semantic failures."""
    return document_to_diagram(_load_json(text))


# -- move scripts -------------------------------------------------------------

def _move_kind(cls):
    """Wire name of a move class: its name in snake_case (``HandleSlide``
    -> ``handle_slide``, ``R1`` -> ``r1``)."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", cls.__name__).lower()


_MOVE_CLASSES = {_move_kind(cls): cls for cls in _moves._HANDLERS}


def _tuple_in(raw, where):
    return tuple(_tuple_in(v, where) if isinstance(v, list) else v
                 for v in _list(raw, where))


def _wire_out(value):
    if isinstance(value, tuple):
        return [_wire_out(v) for v in value]
    return value


# Field annotation (without ``| None``) -> type-checked reader of its wire
# value: an int field takes what ``_int_in`` takes, a bool or str field
# only a JSON boolean or string.
_FIELD_IN = {"int": _int_in, "str": _string,
             "bool": _reader(bool, "a boolean"), "tuple": _tuple_in}


def _encode_move(m):
    if type(m) not in _moves._HANDLERS:
        raise ParseError(f"unknown move {m!r}")
    obj = {"kind": _move_kind(type(m))}
    for f in fields(m):
        value = getattr(m, f.name)
        if value is not None:
            obj[f.name] = _wire_out(value)
    return obj


def _decode_move(obj, where):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"bad move at {where}", where)
    kind = obj["kind"]
    try:
        cls = _MOVE_CLASSES[kind]
    except (KeyError, TypeError):     # TypeError: an unhashable kind
        raise ParseError(f"unknown move kind {kind!r} at {where}",
                         where) from None
    args = {}
    for f in fields(cls):
        if f.name not in obj:
            if f.default is MISSING:
                raise ParseError(f"malformed {kind} move at {where}: "
                                 f"missing {f.name!r}", where)
            continue
        read = _FIELD_IN[f.type.partition(" | ")[0]]
        try:
            args[f.name] = read(obj[f.name], where)
        except (ParseError, RecursionError):
            raise ParseError(f"malformed {kind} move at {where}: "
                             f"bad {f.name!r}", where) from None
    return cls(**args)


def serialize_move_script(script) -> str:
    return _dumps({"format_version": FORMAT_VERSION,
                   "moves": [_encode_move(m) for m in script]})


def parse_move_script(text: str):
    doc = _load_json(text)
    if not isinstance(doc, dict) or doc.get("format_version") != FORMAT_VERSION:
        raise ParseError("unsupported move script format_version",
                         "format_version")
    return _moves.MoveScript(tuple(
        _decode_move(obj, f"moves[{i}]")
        for i, obj in enumerate(_list(doc.get("moves", []), "moves"))))
