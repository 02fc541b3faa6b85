"""Command line entry points for the whole pipeline.

Diagrams travel between subcommands as diagram documents; ``-`` means
stdin/stdout, so pipelines like

    cobkit build identity 2 | cobkit mend - --out-wedge V --in-wedge U \
        | cobkit invariants -

work as expected.  Exit codes: 0 success, 1 validation failure, 2 usage
error.  ``--json-errors`` reports failures as a JSON object on stdout;
``COBKIT_COLOR=0`` disables ANSI coloring in reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import builders
from .compose import compose, mend, permute, sew, tensor
from .errors import CobkitError, ParseError
from .invariants import boundary_profile, h1_cobordism, signature
from .diagram import linking_matrix
from .io_text import parse, parse_move_script, serialize
from .moves import replay, search_equivalent
from .render import render_svg

USAGE_ERROR = 2
VALIDATION_ERROR = 1


def _color_enabled():
    flag = os.environ.get("COBKIT_COLOR", "")
    if flag.lower() in ("0", "no", "off", "false"):
        return False
    return sys.stdout.isatty()


def _paint(text, code):
    if _color_enabled():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_diagram(path):
    return parse(_read_text(path))


def _write_text(text, out):
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_diagram(d, args):
    _write_text(serialize(d), getattr(args, "output", None))
    return 0


def _parse_perm(text):
    if not text:
        return []
    return [int(p) for p in text.split(",")]


def _cmd_validate(args):
    _read_diagram(args.file)      # parse validates, raising on a violation
    print(_paint("ok", "32"))
    return 0


def _wedge_row(params):
    spec = []
    for item in params:
        color, genus = item.split(":")
        full = {"in": "incoming", "incoming": "incoming",
                "out": "outgoing", "outgoing": "outgoing"}[color]
        spec.append((full, int(genus)))
    return builders.wedge_row(spec)


# Build kind -> builder of its command-line parameters.  A missing
# parameter raises IndexError and a non-integer one ValueError, which
# main() reports as usage errors.
_BUILDERS = {
    "identity": lambda p: builders.identity_diagram(int(p[0])),
    "sigma-s1": lambda p: builders.sigma_g_s1_link(int(p[0])),
    "unknot": lambda p: builders.unknot(int(p[0])),
    "hopf": lambda p: builders.hopf(int(p[0]), int(p[1])),
    "borromean": lambda p: builders.borromean(int(p[0]), int(p[1]),
                                              int(p[2])),
    "wedge-row": _wedge_row,
}


def _cmd_build(args):
    return _emit_diagram(_BUILDERS[args.kind](args.params), args)


def _cmd_tensor(args):
    d = tensor(_read_diagram(args.a), _read_diagram(args.b))
    return _emit_diagram(d, args)


def _cmd_permute(args):
    d = _read_diagram(args.file)
    pi = _parse_perm(args.source) if args.source else list(
        range(len(d.source_order)))
    tau = _parse_perm(args.target) if args.target else list(
        range(len(d.target_order)))
    return _emit_diagram(permute(d, pi, tau), args)


def _cmd_sew(args):
    d = sew(_read_diagram(args.a), args.out_wedge,
            _read_diagram(args.b), args.in_wedge)
    return _emit_diagram(d, args)


def _cmd_mend(args):
    d = mend(_read_diagram(args.file), args.out_wedge, args.in_wedge,
             swap_roles=args.swap_roles)
    return _emit_diagram(d, args)


def _cmd_compose(args):
    pairs = []
    for item in args.pairs.split(","):
        u, v = item.split(":")
        pairs.append((u, v))
    d = compose(_read_diagram(args.a), _read_diagram(args.b), pairs)
    return _emit_diagram(d, args)


def _cmd_invariants(args):
    d = _read_diagram(args.file)
    src, tgt = boundary_profile(d)
    print(f"boundary profile: {list(src)} -> {list(tgt)}")
    m = linking_matrix(d)
    print("linking matrix:")
    if m.rows == 0:
        print("  (no surgery circles)")
    for row in m.entries:
        print("  [" + " ".join(f"{x:>3}" for x in row) + "]")
    print(f"H1 = {h1_cobordism(d)}")
    if not d.wedges:
        print(f"signature = {signature(d)}")
    return 0


def _cmd_moves_apply(args):
    d = _read_diagram(args.file)
    script = parse_move_script(_read_text(args.script))
    return _emit_diagram(replay(d, script), args)


def _cmd_moves_search(args):
    from .io_text import serialize_move_script

    a = _read_diagram(args.a)
    b = _read_diagram(args.b)
    script = search_equivalent(a, b, budget=args.budget)
    if script is None:
        print("not-found")
        return VALIDATION_ERROR
    _write_text(serialize_move_script(script), getattr(args, "output", None))
    return 0


def _cmd_render(args):
    d = _read_diagram(args.file)
    _write_text(render_svg(d), args.output)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cobkit",
        description="planar diagrams for 3-dimensional cobordisms")
    ap.add_argument("--json-errors", action="store_true",
                    help="report failures as a JSON object on stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a diagram document")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("build", help="construct a named diagram")
    p.add_argument("kind", choices=list(_BUILDERS))
    p.add_argument("params", nargs="*")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("tensor", help="disjoint union of two diagrams")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(fn=_cmd_tensor)

    p = sub.add_parser("permute", help="reorder boundary components")
    p.add_argument("file")
    p.add_argument("--source", default="")
    p.add_argument("--target", default="")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(fn=_cmd_permute)

    p = sub.add_parser("sew", help="glue along one blue/red wedge pair")
    p.add_argument("a", help="diagram with the outgoing wedge")
    p.add_argument("--out-wedge", required=True)
    p.add_argument("b", help="diagram with the incoming wedge")
    p.add_argument("--in-wedge", required=True)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(fn=_cmd_sew)

    p = sub.add_parser("mend", help="self-glue an identity-linked pair")
    p.add_argument("file")
    p.add_argument("--out-wedge", required=True)
    p.add_argument("--in-wedge", required=True)
    p.add_argument("--swap-roles", action="store_true")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(fn=_cmd_mend)

    p = sub.add_parser("compose", help="sew then mend along wedge pairs")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--pairs", required=True,
                   help="comma list out:in, e.g. V:U")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser("invariants",
                       help="boundary profile, linking matrix, H1, signature")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_invariants)

    pm = sub.add_parser("moves", help="apply or search move scripts")
    msub = pm.add_subparsers(dest="moves_command", required=True)
    p = msub.add_parser("apply")
    p.add_argument("file")
    p.add_argument("script")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(fn=_cmd_moves_apply)
    p = msub.add_parser("search")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(fn=_cmd_moves_search)

    p = sub.add_parser("render", help="emit an SVG drawing")
    p.add_argument("file")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(fn=_cmd_render)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as exc:
        if args.json_errors:
            violations = [{"code": v.code, "message": v.message,
                           "location": v.location} for v in exc.violations]
            print(json.dumps({"error": {"kind": "parse",
                                        "message": str(exc),
                                        "location": exc.location,
                                        "violations": violations}},
                             sort_keys=True))
        else:
            print(f"error: {exc}", file=sys.stderr)
            for v in exc.violations[1:]:
                print(f"{v.code}: {v.message}", file=sys.stderr)
        return VALIDATION_ERROR
    except CobkitError as exc:
        if args.json_errors:
            print(json.dumps({"error": {"kind": type(exc).__name__,
                                        "message": str(exc)}},
                             sort_keys=True))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR
    except (ValueError, KeyError, IndexError, OSError) as exc:
        if args.json_errors:
            print(json.dumps({"error": {"kind": "usage",
                                        "message": str(exc)}},
                             sort_keys=True))
        else:
            print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
