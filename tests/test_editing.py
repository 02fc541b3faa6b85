"""The diagram editor: fresh ids against a regex-scan oracle under
seeded random edit sequences."""

import itertools
import random

import pytest

from cobkit import (borromean, hopf, identity_diagram, relabel, trefoil,
                    unknot)
from cobkit.diagram import CrossingSlot, OVER, UNDER
from cobkit.editing import DiagramEditor
from cobkit.errors import MalformedDiagramError

from conftest import builder_corpus, fresh_id_oracle

# Prefixes that overlap each other and the ids below: "x" and "x1" both
# read "x12", "" reads all-digit ids, and "w" reads the wedge ids.
PREFIXES = ["x", "x1", "k", "r", "w", "wc", "m1s", "", "y"]
# Awkward spellings the numbering must read like the regex does: leading
# zeros, a non-ASCII decimal digit and a final newline.
ODD_IDS = ["x007", "x٣", "x5\n", "12", "x1x", "k0"]


def _edit(rng, ed, serial):
    """One random edit; ``serial`` hands out never-repeating ids."""
    op = rng.randrange(8)
    if op == 0:
        d = rng.choice([unknot(1), trefoil(), borromean(0, 0, 0),
                        identity_diagram(rng.randint(0, 2))])
        d = relabel(d, rng.choice(["x", "k", "w", "m1s", ""]) + next(serial))
        if not ({c.id for c in d.circles} & ed.circles.keys()
                or {x.id for x in d.crossings} & ed.signs.keys()
                or {w.id for w in d.wedges} & ed.wedges.keys()):
            ed.load(d)
    elif op == 1:
        cid = rng.choice(PREFIXES) + next(serial)
        if rng.random() < 0.3:
            cid = rng.choice(ODD_IDS)
        if cid not in ed.circles:
            ed.add_surgery_circle(cid, rng.randint(-2, 2))
    elif op == 2:
        wid = "w" + next(serial)
        ed.add_wedge(wid, rng.choice(["incoming", "outgoing"]),
                     [f"{wid}c{i}" for i in range(1, rng.randint(0, 3) + 1)])
    elif op == 3 and ed.circles:
        xid = ed.new_crossing(rng.choice([1, -1]),
                              prefix=rng.choice(PREFIXES))
        a, b = rng.choice(list(ed.circles)), rng.choice(list(ed.circles))
        ed.events[a].insert(0, CrossingSlot(xid, OVER))
        ed.events[b].insert(0, CrossingSlot(xid, UNDER))
    elif op == 4 and ed.signs:
        ed.remove_crossings(*rng.sample(sorted(ed.signs),
                                        min(len(ed.signs), 2)))
    elif op == 5:
        listed = {c for w in ed.wedges.values() for c in w.circle_ids}
        loose = [c for c in ed.circles if c not in listed]
        if loose:
            ed.remove_circle(rng.choice(loose))
    elif op == 6 and ed.wedges:
        wid = rng.choice(list(ed.wedges))
        if rng.random() < 0.5:
            ed.remove_wedge(wid)
        else:
            ed.drop_wedge_keep_circles(wid)
    elif op == 7:
        wedge = [c for c, h in ed.circles.items() if not h.is_surgery()]
        if wedge:
            ed.surgerize(rng.choice(wedge), rng.randint(-1, 1))


@pytest.mark.parametrize("seed", range(20))
def test_fresh_id_matches_regex_scan(seed):
    rng = random.Random(seed)
    serial = map(str, itertools.count(1))
    ed = DiagramEditor(relabel(borromean(1, 0, -1), "x"))
    for step in range(120):
        _edit(rng, ed, serial)
        for prefix in rng.sample(PREFIXES, 3):
            assert ed.fresh_id(prefix) == fresh_id_oracle(ed, prefix), \
                (seed, step, prefix)
    for prefix in PREFIXES:
        assert ed.fresh_id(prefix) == fresh_id_oracle(ed, prefix)


@pytest.mark.parametrize("seed", range(10))
def test_fresh_id_new_prefixes_after_edits(seed):
    """Prefixes asked for the first time after the counts exist, as
    ``mend`` asks for one per motif: any leading part of a live id, or a
    never-seen motif prefix that then takes ids of its own, interleaved
    with random adds and removes."""
    rng = random.Random(seed)
    serial = map(str, itertools.count(1))
    ed = DiagramEditor(relabel(borromean(1, 0, -1), "x"))
    ed.fresh_id("x")
    for step in range(150):
        _edit(rng, ed, serial)
        live = sorted(itertools.chain(ed.circles, ed.signs, ed.wedges))
        if rng.random() < 0.3 or not live:
            prefix = f"m{next(serial)}s"
        else:
            i = rng.choice(live)
            prefix = i[:rng.randrange(len(i) + 1)]
        assert ed.fresh_id(prefix) == fresh_id_oracle(ed, prefix), \
            (seed, step, prefix)
        for _ in range(rng.randrange(3)):
            ed.new_crossing(rng.choice([1, -1]), prefix=prefix)
            assert ed.fresh_id(prefix) == fresh_id_oracle(ed, prefix)


def test_load_with_prefix_equals_load_of_relabel():
    for d in builder_corpus():
        for prefix in ("d.", "c.", ""):
            ed = DiagramEditor()
            ed.load(d, prefix)
            assert ed.freeze() == DiagramEditor(relabel(d, prefix)).freeze()


def test_load_with_prefix_refuses_a_clash():
    ed = DiagramEditor()
    ed.load(identity_diagram(1), "d.")
    ed.load(identity_diagram(1), "c.")
    with pytest.raises(MalformedDiagramError):
        ed.load(identity_diagram(1), "d.")
    with pytest.raises(MalformedDiagramError):       # only x1, x2 clash
        ed.load(hopf(0, 0), "c.")
    with pytest.raises(MalformedDiagramError):
        DiagramEditor(relabel(identity_diagram(1), "c.")).load(
            identity_diagram(1), "c.")
