"""The four seeded workloads and the known answer of every job.

A workload builds its inputs from a seeded ``random.Random`` (this is the
timed set-up) and turns them into a fixed list of jobs.  Each job has:

* ``prepare()``: untimed; hands the job fresh input objects, so that no
  lazily cached state of one execution is reused by the next;
* ``run(t, *inputs)``: the timed user request.  Every call into the
  library goes through ``t.call(name, fn, ...)`` so that a traced run can
  put a span around it;
* ``facts(out)``: untimed; turns the output into named facts with the
  oracles of :mod:`oracles`;
* ``expected``: the known value of every fact.

Why each workload exists, and which layer it stresses, is in README.md.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable

import oracles


@dataclass
class Job:
    kind: str
    prepare: Callable[[], tuple]
    run: Callable[..., object]
    facts: Callable[[object], dict]
    expected: dict = field(default_factory=dict)


def _parse(t, lib, text):
    t.count("io_text.bytes", len(text))
    return t.call("io_text.parse", lib.parse, text)


def _serialize(t, lib, d):
    text = t.call("io_text.serialize", lib.serialize, d)
    t.count("io_text.bytes", len(text))
    return text


def _fresh(*diagrams):
    """New diagram objects over the same immutable fields: the lazily
    filled id indexes start empty, as they would for a new input."""
    return tuple(replace(d) for d in diagrams)


def _prefix(rng):
    return f"r{rng.randrange(10 ** 6)}."


# -- glue: the sew / mend pipeline of the CLI, stage by stage ----------------

GLUE_GENERA = (4, 8, 16, 32, 64)
GLUE_VARIANTS = 4
GLUE_SEWS = 3


def build_glue(lib, rng, genera=GLUE_GENERA):
    """Per genus, GLUE_VARIANTS outgoing wedges, each decorated with two
    threading circles and one overpass on three distinct wedge circles.
    The seed picks the circles, framings, signs and heights; the amount
    of work per genus stays the same."""
    identity_docs = {g: lib.serialize(lib.identity_diagram(g))
                     for g in genera}
    inputs = []
    for g in genera:
        for _ in range(GLUE_VARIANTS):
            d = lib.wedge_row([("outgoing", g)])
            places = rng.sample(range(1, g + 1), min(g, 3))
            for k, c in enumerate(places, start=1):
                if k < 3:
                    d = lib.thread_circle(d, f"w1c{c}", f"s{k}",
                                          framing=rng.randint(-2, 2),
                                          sign=rng.choice((1, -1)))
                else:
                    d = lib.overpass_circle(d, f"w1c{c}", f"s{k}",
                                            framing=rng.randint(-2, 2),
                                            above=rng.random() < 0.5)
            inputs.append((g, lib.serialize(d), identity_docs[g]))
    return inputs


def _glue_run(lib):
    def run(t, doc, identity_doc):
        stages = []
        wedge = "w1"
        for _ in range(GLUE_SEWS):
            d = _parse(t, lib, doc)
            ident = _parse(t, lib, identity_doc)
            out = t.call("compose.sew", lib.sew, d, wedge, ident, "U")
            t.count("compose.out_crossings", len(out.crossings))
            doc = _serialize(t, lib, out)
            stages.append(doc)
            wedge = "d.V"
        a = _parse(t, lib, identity_doc)
        b = _parse(t, lib, identity_doc)
        out = t.call("compose.sew", lib.sew, a, "V", b, "U")
        t.count("compose.out_crossings", len(out.crossings))
        doc = _serialize(t, lib, out)
        out = t.call("compose.mend", lib.mend, _parse(t, lib, doc),
                     "d.V", "c.U")
        t.count("compose.out_crossings", len(out.crossings))
        mended = _serialize(t, lib, out)
        report = t.call("planarity.validate", lib.validate,
                        _parse(t, lib, mended))
        return stages, mended, report.ok
    return run


def _glue_facts(out):
    stages, mended, ok = out
    facts = {}
    for k, doc in enumerate(stages, start=1):
        circles, crossings, profile = oracles.raw_from_document(doc)
        facts[f"sew{k}.h1"] = oracles.h1(circles, crossings)
        facts[f"sew{k}.profile"] = profile
    circles, crossings, profile = oracles.raw_from_document(mended)
    facts["mend.circles"] = len(circles)
    facts["mend.crossings"] = len(crossings)
    facts["mend.profile"] = profile
    facts["mend.h1"] = oracles.h1(circles, crossings)
    facts["validate.ok"] = ok
    return facts


def glue_jobs(lib, inputs):
    jobs = []
    run = _glue_run(lib)
    for g, doc, identity_doc in inputs:
        circles, crossings, profile = oracles.raw_from_document(doc)
        h1 = oracles.h1(circles, crossings)
        expected = {}
        for k in range(1, GLUE_SEWS + 1):
            expected[f"sew{k}.h1"] = h1
            expected[f"sew{k}.profile"] = profile
        expected.update({"mend.circles": 2 * g + 1, "mend.crossings": 6 * g,
                         "mend.profile": ((), ()),
                         "mend.h1": (2 * g + 1, ()), "validate.ok": True})
        jobs.append(Job(f"g{g}", lambda doc=doc, i=identity_doc: (doc, i),
                        run, _glue_facts, expected))
    return jobs


# -- calculus: move search, random move walks, structural isomorphism --------

# Many searches and walks, so that their seed-dependent costs average out.
SEARCH_GENERA = (1, 2, 3, 2, 3) * 3
SEARCH_BUDGET = 500
WALK_GENERA = (1, 2, 3, 2, 3) * 3
WALK_LENGTH = 24
ISO_CASES = ((2, True), (2, False), (3, True), (3, False), (4, True),
             (4, False), (4, True), (4, False), (4, True))


def _negative(d, circle_id):
    """``d`` with one surgery circle's framing raised to 1: the same
    numbers of circles and crossings, but a different framing multiset,
    so it is isomorphic to nothing ``d`` is isomorphic to."""
    circles = tuple(replace(c, framing=1) if c.id == circle_id else c
                    for c in d.circles)
    return replace(d, circles=circles)


def build_calculus(lib, rng, search_genera=SEARCH_GENERA,
                   walk_genera=WALK_GENERA, iso_cases=ISO_CASES):
    searches = []
    for g in search_genera:
        target = lib.relabel(lib.sigma_g_s1_link(g), _prefix(rng))
        c = rng.choice([c for c in target.circles if c.is_surgery()
                        and c.events])
        start = lib.apply(target, lib.R1(
            site=(c.id, rng.randrange(len(c.events))),
            sign=rng.choice((1, -1))))
        start = lib.apply(start, lib.BlowUp(rng.choice((1, -1))))
        searches.append((g, start, target))
    walks = []
    for k, g in enumerate(walk_genera):
        d = (lib.sigma_g_s1_link(g) if k % 2 == 0
             else lib.mend(lib.identity_diagram(g), "V", "U"))
        walks.append((g, lib.relabel(d, _prefix(rng)),
                      rng.randrange(2 ** 32)))
    isos = []
    for g, positive in iso_cases:
        a = lib.relabel(lib.mend(lib.identity_diagram(g), "V", "U"),
                        _prefix(rng))
        b = lib.relabel(lib.sigma_g_s1_link(g), _prefix(rng))
        if not positive:
            b = _negative(b, rng.choice([c.id for c in b.circles]))
        isos.append((g, positive, a, b))
    return searches, walks, isos


def _propose(lib, rng, d):
    """A random move on ``d`` with a well-formed site: a circle id, arc
    index and direction that exist.  Whether the move applies there is
    for ``apply`` to decide."""
    surgery = [c for c in d.circles if c.is_surgery()]
    with_events = [c for c in d.circles if c.events]
    kind = rng.randrange(8)
    if kind == 0:
        c = rng.choice([c for c in surgery if c.events])
        return lib.R1(site=(c.id, rng.randrange(len(c.events))),
                      sign=rng.choice((1, -1)))
    if kind == 1:
        return lib.R1(crossing=rng.choice(d.crossings).id)
    if kind == 2:
        a, b = rng.sample(with_events, 2)
        return lib.R2(darts=((a.id, rng.randrange(len(a.events)),
                              rng.choice((1, -1))),
                             (b.id, rng.randrange(len(b.events)),
                              rng.choice((1, -1)))),
                      over=rng.random() < 0.5)
    if kind == 3:
        x = rng.choice(d.crossings)
        ends = {x.over[0], x.under[0]}
        mates = [y.id for y in d.crossings
                 if y.id != x.id and {y.over[0], y.under[0]} == ends]
        if mates:
            return lib.R2(crossings=(x.id, rng.choice(mates)))
        return lib.R1(crossing=x.id)
    if kind == 4:
        c = rng.choice(with_events)
        return lib.R3(site=(c.id, rng.randrange(len(c.events)),
                            rng.choice((1, -1))))
    if kind == 5:
        return lib.BlowUp(rng.choice((1, -1)))
    if kind == 6:
        return lib.BlowDown(rng.choice(surgery).id)
    a, b = rng.sample(surgery, 2)
    return lib.HandleSlide(a.id, b.id)


def calculus_jobs(lib, inputs):
    searches, walks, isos = inputs
    jobs = []

    def search_run(t, start, target):
        script = t.call("moves.search_equivalent", lib.search_equivalent,
                        start, target, budget=SEARCH_BUDGET)
        t.count("moves.search.found", script is not None)
        return script

    for g, start, target in searches:
        def facts(script, start=start, target=target):
            if script is None:
                return {"found": False, "replay_iso": False}
            s, tg = _fresh(start, target)
            return {"found": True, "replay_iso":
                    lib.structural_iso(lib.replay(s, script), tg)}
        jobs.append(Job(f"search.g{g}",
                        lambda s=start, tg=target: _fresh(s, tg),
                        search_run, facts,
                        {"found": True, "replay_iso": True}))

    def walk_run(t, d, seed):
        rng = random.Random(seed)
        tried, accepted = Counter(), Counter()
        for _ in range(WALK_LENGTH):
            mv = _propose(lib, rng, d)
            kind = type(mv).__name__
            tried[kind] += 1
            try:
                d = t.call("moves.apply." + kind, lib.apply, d, mv)
            except lib.MoveError:
                continue
            accepted[kind] += 1
            t.count(f"moves.apply.{kind}.accepted")
        return d, tried, accepted

    for g, start, seed in walks:
        def facts(out, n0=len(start.circles)):
            d, tried, accepted = out
            circles, crossings, profile = oracles.raw_from_diagram(d)
            return {"h1": oracles.h1(circles, crossings),
                    "profile": profile,
                    "moves": sum(tried.values()),
                    "circle_balance": len(circles) - n0
                    - accepted["BlowUp"] + accepted["BlowDown"]}
        jobs.append(Job(f"walk.g{g}", lambda d=start, s=seed: (*_fresh(d), s),
                        walk_run, facts,
                        {"h1": (2 * g + 1, ()), "profile": ((), ()),
                         "moves": WALK_LENGTH, "circle_balance": 0}))

    def iso_run(t, a, b):
        return t.call("canon.structural_iso", lib.structural_iso, a, b)

    for g, positive, a, b in isos:
        jobs.append(Job(f"iso.g{g}", lambda a=a, b=b: _fresh(a, b), iso_run,
                        lambda out: {"iso": out}, {"iso": positive}))
    return jobs


# -- homology: the `cobkit invariants` query on large sparse diagrams --------

HOMOLOGY_GENERA = (4, 8, 16, 24, 32)


def build_homology(lib, rng, genera=HOMOLOGY_GENERA):
    inputs = []
    for g in genera:
        for kind in ("sigma", "mend", "tensor"):
            if kind == "sigma":
                d = lib.sigma_g_s1_link(g)
            elif kind == "mend":
                d = lib.mend(lib.identity_diagram(g), "V", "U")
            else:
                d = lib.tensor(lib.identity_diagram(g),
                               lib.sigma_g_s1_link(g))
            d = lib.relabel(d, _prefix(rng))
            inputs.append((g, kind, lib.serialize(d)))
    return inputs


def homology_jobs(lib, inputs):
    def run(t, doc):
        d = _parse(t, lib, doc)
        src, tgt = t.call("invariants.boundary_profile",
                          lib.boundary_profile, d)
        m = t.call("diagram.linking_matrix", lib.linking_matrix, d)
        h = t.call("invariants.h1_cobordism", lib.h1_cobordism, d)
        sig = None
        if not d.wedges:
            sig = t.call("invariants.signature", lib.signature, d)
        return {"circles": len(d.circles), "crossings": len(d.crossings),
                "profile": (tuple(src), tuple(tgt)), "linking": m.entries,
                "h1": (h.rank, tuple(h.torsion)), "signature": sig}

    jobs = []
    for g, kind, doc in inputs:
        n = 2 * g + 1
        closed = kind != "tensor"
        expected = {
            "circles": n if closed else n + 2 * g,
            "crossings": 6 * g if closed else 8 * g,
            "profile": ((), ()) if closed else ((g,), (g,)),
            "linking": tuple((0,) * n for _ in range(n)),
            "h1": (n, ()) if closed else (n + 2 * g, ()),
            "signature": 0 if closed else None,
        }
        jobs.append(Job(f"{kind}.g{g}", lambda doc=doc: (doc,), run,
                        lambda out: out, expected))
    return jobs


# -- presentations: integer elimination without any diagram work ------------

PRESENTATION_SIZES = tuple(range(8, 41, 4))
ENTRY_RANGE = 4


def _matrix(rng, shape, n):
    cols = n + n // 4 if shape == "rect" else n
    rows = [[rng.randint(-ENTRY_RANGE, ENTRY_RANGE) for _ in range(cols)]
            for _ in range(n)]
    if shape == "deficient":
        # Repeat rows up to sign: the rank drops, the entries stay small.
        keep = n - max(1, n // 4)
        for i in range(keep, n):
            src = rows[rng.randrange(keep)]
            sign = rng.choice((1, -1))
            rows[i] = [sign * v for v in src]
        rng.shuffle(rows)
    return rows


def build_presentations(lib, rng, sizes=PRESENTATION_SIZES):
    inputs = []
    for n in sizes:
        for shape in ("square", "rect", "deficient"):
            for op in ("cokernel", "snf"):
                rows = _matrix(rng, shape, n)
                inputs.append((op, shape, n,
                               lib.IntMatrix(tuple(map(tuple, rows)))))
    return inputs


def _product(values):
    p = 1
    for v in values:
        p *= v
    return p


def presentations_jobs(lib, inputs):
    def cokernel_run(t, m):
        t.count("invariants.cokernel.cells", m.rows * m.cols)
        return t.call("invariants.cokernel", lib.cokernel, m, m.cols)

    def snf_run(t, m):
        return t.call("invariants.smith_normal_form",
                      lib.smith_normal_form, m)

    jobs = []
    for op, shape, n, m in inputs:
        rows = [list(r) for r in m.entries]
        rank, det = oracles.bareiss(rows)
        d1 = oracles.entries_gcd(rows)
        if op == "cokernel":
            def facts(group, rank=rank, d1=d1, square=det is not None):
                tors = list(group.torsion)
                out = {"free_rank": group.rank,
                       "torsion_chain": oracles.is_chain(tors)
                       and all(x >= 2 for x in tors),
                       "first_factor": (len(tors) == rank and tors[0] == d1)
                       if d1 > 1 else len(tors) < rank}
                if square:
                    out["order"] = _product(tors) if group.rank == 0 else 0
                return out
            expected = {"free_rank": m.cols - rank, "torsion_chain": True,
                        "first_factor": True}
            if det is not None:
                expected["order"] = abs(det)
            jobs.append(Job(f"cokernel.{shape}.n{n}", lambda m=m: (m,),
                            cokernel_run, facts, expected))
        else:
            def facts(out, rows=rows, square=det is not None):
                u, d, v = (x.entries for x in out)
                diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
                res = {
                    "diagonal": all(x == 0 for i, r in enumerate(d)
                                    for j, x in enumerate(r) if i != j),
                    "chain": oracles.is_chain(diag),
                    "nonzero": sum(1 for x in diag if x),
                    "d1": diag[0],
                    "umv": oracles.matmul(oracles.matmul(u, rows), v)
                    == [list(r) for r in d],
                    "unimodular": abs(oracles.bareiss(u)[1]) == 1
                    and abs(oracles.bareiss(v)[1]) == 1,
                }
                if square:
                    res["det"] = _product(diag)
                return res
            expected = {"diagonal": True, "chain": True, "nonzero": rank,
                        "d1": d1, "umv": True, "unimodular": True}
            if det is not None:
                expected["det"] = abs(det)
            jobs.append(Job(f"snf.{shape}.n{n}", lambda m=m: (m,), snf_run,
                            facts, expected))
    return jobs


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable
    jobs: Callable
    tail_pct: int
    tiny: tuple          # build arguments for the smoke check


WORKLOADS = {
    "glue": Workload("glue", build_glue, glue_jobs, 95, ((1, 2),)),
    "calculus": Workload("calculus", build_calculus, calculus_jobs, 99,
                         ((1,), (1, 2), ((1, True), (1, False)))),
    "homology": Workload("homology", build_homology, homology_jobs, 85,
                         ((1, 2),)),
    "presentations": Workload("presentations", build_presentations,
                              presentations_jobs, 95, ((3, 5),)),
}
