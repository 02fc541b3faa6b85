"""Summarise a traced run's spans by job kind and library function.

    python3 perfbench/spans.py perfbench/out/homology-seed1-trace1.spans.jsonl

Prints, for every (job kind, function) pair, the number of calls and the
median and total duration, so that one size of one layer can be read off
(for example ``diagram.linking_matrix`` inside ``sigma.g32`` jobs).
"""

from __future__ import annotations

import json
import statistics
import sys


def summarise(path):
    spans = [json.loads(line) for line in open(path)]
    kind = {i: s["name"][len("job."):] for i, s in enumerate(spans)
            if s["parent"] is None}
    groups = {}
    for s in spans:
        if s["parent"] is not None:
            key = (kind[s["parent"]], s["name"])
            groups.setdefault(key, []).append(s["end_ns"] - s["start_ns"])
    for i, s in enumerate(spans):
        if s["parent"] is None:
            groups.setdefault((kind[i], "job"), []).append(
                s["end_ns"] - s["start_ns"])
    return groups


def main(argv):
    groups = summarise(argv[1])
    print(f"{'job kind':24} {'function':32} {'calls':>6} {'p50_ms':>10} "
          f"{'busy_s':>9}")
    for (job, fn), ns in sorted(groups.items()):
        print(f"{job:24} {fn:32} {len(ns):6d} "
              f"{statistics.median(ns) / 1e6:10.3f} {sum(ns) / 1e9:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
