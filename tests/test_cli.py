"""The command line interface, exercised through its main() entry."""

import json
import pathlib

import pytest

from cobkit import builders, parse, serialize, unknot, borromean
from cobkit.cli import main
from conftest import malformed_documents

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv, stdin=None, monkeypatch=None):
    import io
    import sys

    if stdin is not None and monkeypatch is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_and_invariants_pipeline(capsys, monkeypatch):
    code, out, _ = run(capsys, "build", "sigma-s1", "1")
    assert code == 0
    code, out, _ = run(capsys, "invariants", "-", stdin=out,
                       monkeypatch=monkeypatch)
    assert code == 0
    assert "H1 = Z^3" in out
    assert "signature = 0" in out


def test_mend_pipeline_matches_acceptance_example(capsys, monkeypatch, tmp_path):
    code, built, _ = run(capsys, "build", "identity", "2")
    assert code == 0
    f = tmp_path / "id2.json"
    f.write_text(built)
    code, mended, _ = run(capsys, "mend", str(f), "--out-wedge", "V",
                          "--in-wedge", "U")
    assert code == 0
    code, out, _ = run(capsys, "invariants", "-", stdin=mended,
                       monkeypatch=monkeypatch)
    assert code == 0
    assert "H1 = Z^5" in out


@pytest.mark.parametrize("stages,golden", [
    ([["build", "hopf", "2", "3"]], "invariants_hopf_2_3.txt"),
    ([["build", "identity", "4"],
      ["mend", "-", "--out-wedge", "V", "--in-wedge", "U"]],
     "invariants_mend_identity_4.txt"),
])
def test_invariants_output_matches_golden(capsys, monkeypatch, stages,
                                          golden):
    text = None
    for argv in stages + [["invariants", "-"]]:
        code, text, _ = run(capsys, *argv, stdin=text,
                            monkeypatch=monkeypatch)
        assert code == 0
    assert text == (GOLDEN / golden).read_text()


def test_validate_ok_and_corrupted(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COBKIT_COLOR", "0")
    good = tmp_path / "good.json"
    good.write_text(serialize(borromean(0, 0, 0)))
    code, out, _ = run(capsys, "validate", str(good))
    assert code == 0 and "ok" in out and "\x1b[" not in out

    doc = json.loads(good.read_text())
    doc["diagram"]["crossings"][0]["sign"] = 7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert out == ""
    assert err == ("error: diagram fails validation: bad-sign: crossing x1: "
                   "sign must be +1 or -1\n")
    code, out, err = run(capsys, "--json-errors", "validate", str(bad))
    assert code == 1 and err == ""
    assert json.loads(out) == {"error": {
        "kind": "parse", "location": "x1",
        "message": "diagram fails validation: bad-sign: crossing x1: "
                   "sign must be +1 or -1",
        "violations": [{"code": "bad-sign", "location": "x1",
                        "message": "crossing x1: sign must be +1 or -1"}]}}


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "build", "identity", "not-a-number")
    assert code == 2


def test_unknown_subcommand_exit_code(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_json_errors_flag(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    missing.write_text("{not json")
    code, out, _ = run(capsys, "--json-errors", "validate", str(missing))
    assert code == 1
    payload = json.loads(out)
    assert payload["error"]["kind"] == "parse"


def test_tensor_sew_compose_commands(capsys, tmp_path, monkeypatch):
    code, id1, _ = run(capsys, "build", "identity", "1")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(id1)
    b.write_text(id1)
    code, out, _ = run(capsys, "sew", str(a), "--out-wedge", "V",
                       str(b), "--in-wedge", "U")
    assert code == 0
    d = parse(out)
    assert [w.genus for w in d.wedges] == [1, 1]

    code, out, _ = run(capsys, "compose", str(a), str(b), "--pairs", "V:U")
    assert code == 0

    code, out, _ = run(capsys, "tensor", str(a), str(b))
    assert code == 0
    assert len(parse(out).wedges) == 4

    code, out, _ = run(capsys, "permute", str(a), "--source", "0",
                       "--target", "0")
    assert code == 0


def test_build_wedge_row_and_render(capsys, tmp_path):
    code, out, _ = run(capsys, "build", "wedge-row", "in:2", "out:1")
    assert code == 0
    f = tmp_path / "w.json"
    f.write_text(out)
    svg = tmp_path / "w.svg"
    code, _, _ = run(capsys, "render", str(f), "-o", str(svg))
    assert code == 0
    assert svg.read_text().startswith("<?xml")


def test_moves_apply_and_search(capsys, tmp_path, monkeypatch):
    from cobkit import MoveScript, BlowUp, serialize_move_script, tensor

    u = tmp_path / "u.json"
    u.write_text(serialize(unknot(0)))
    script = tmp_path / "script.json"
    script.write_text(serialize_move_script(MoveScript((BlowUp(1),))))
    code, out, _ = run(capsys, "moves", "apply", str(u), str(script))
    assert code == 0
    assert len(parse(out).circles) == 2

    b = tmp_path / "b.json"
    b.write_text(serialize(borromean(0, 0, 0)))
    bigger = tmp_path / "bigger.json"
    bigger.write_text(serialize(tensor(borromean(0, 0, 0), unknot(1))))
    code, out, _ = run(capsys, "moves", "search", str(bigger), str(b),
                       "--budget", "120")
    assert code == 0
    assert '"blow_down"' in out

    u1 = tmp_path / "u1.json"
    u1.write_text(serialize(unknot(1)))
    code, out, _ = run(capsys, "moves", "search", str(u), str(u1),
                       "--budget", "25")
    assert code == 1
    assert "not-found" in out


@pytest.mark.parametrize("argv, built", [
    (["identity", "2"], lambda: builders.identity_diagram(2)),
    (["sigma-s1", "1"], lambda: builders.sigma_g_s1_link(1)),
    (["unknot", "-3"], lambda: builders.unknot(-3)),
    (["hopf", "1", "-2"], lambda: builders.hopf(1, -2)),
    (["borromean", "0", "1", "-1"], lambda: builders.borromean(0, 1, -1)),
    (["wedge-row", "in:2", "outgoing:1"],
     lambda: builders.wedge_row([("incoming", 2), ("outgoing", 1)])),
], ids=lambda v: None if callable(v) else " ".join(v))
def test_build_kind_prints_its_builder(capsys, argv, built):
    code, out, _ = run(capsys, "build", *argv)
    assert code == 0
    assert out == serialize(built())


def test_every_violation_reaches_the_user(capsys, monkeypatch):
    text = serialize(borromean(0, 0, 0)).replace('"sign": -1', '"sign": 7')
    text = text.replace('"sign": 1', '"sign": 7')
    lines = [f"bad-sign: crossing x{i}: sign must be +1 or -1"
             for i in range(1, 7)]
    code, out, err = run(capsys, "validate", "-", stdin=text,
                         monkeypatch=monkeypatch)
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: diagram fails validation: " + lines[0]] + lines[1:]
    code, out, _ = run(capsys, "--json-errors", "validate", "-", stdin=text,
                       monkeypatch=monkeypatch)
    error = json.loads(out)["error"]
    assert code == 1
    assert error["message"] == "diagram fails validation: " + lines[0]
    assert error["location"] == "x1"
    assert error["violations"] == [
        {"code": "bad-sign", "message": line.split(": ", 1)[1],
         "location": f"x{i}"} for i, line in enumerate(lines, start=1)]


@pytest.mark.parametrize("text", malformed_documents())
def test_json_errors_on_malformed_document(capsys, monkeypatch, text):
    code, out, _ = run(capsys, "--json-errors", "validate", "-", stdin=text,
                       monkeypatch=monkeypatch)
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "parse"
