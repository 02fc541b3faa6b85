"""Smoke check of the benchmark itself, at a tiny seeded size.

    python3 perfbench/smoke.py

For every workload it builds tiny inputs, runs each job once with
tracing on and requires that every answer check passes, then runs the
timed loop briefly.  Next, for every job and every fact of its known
answer, it replaces that one expected value by a near miss and requires
the check to reject the job's real output.  Exits 1 on the first problem.
"""

from __future__ import annotations

import random
import signal
import sys

import run
import workloads as wl


def near_miss(value):
    """A wrong answer as close to ``value`` as the type allows."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if value is None:
        return 0
    if isinstance(value, tuple):
        return (near_miss(value[0]),) + value[1:] if value else (1,)
    raise TypeError(f"no near miss for {value!r}")


def check_workload(lib, workload):
    inputs = workload.build(lib, random.Random(f"{workload.name}-smoke"),
                            *workload.tiny)
    slots = [run.Slot(i, job) for i, job in
             enumerate(workload.jobs(lib, inputs))]
    tracer = run.Tracer()
    failures = []
    for slot in slots:
        run.execute(lib, slot, tracer, slot.index, failures)
    attempted, loop_failures, _, _ = run.run_loop(lib, slots, 0.2, 0, tracer)
    failures += loop_failures
    if failures:
        return f"{len(failures)} jobs failed: {failures[:3]}"
    metrics = run.layer_metrics(tracer, slots)
    if not any(m["value"] for k, m in metrics.items() if k.endswith(".calls")):
        return "the traced run recorded no library call"
    rejected = 0
    for slot in slots:
        real = slot.job.expected
        try:
            for key, value in real.items():
                slot.job.expected = {**real, key: near_miss(value)}
                if key not in slot.check(slot.verified_out):
                    return (f"job {slot.index} ({slot.job.kind}) accepted a "
                            f"wrong expected {key}")
                rejected += 1
        finally:
            slot.job.expected = real
    print(f"smoke {workload.name}: {len(slots)} jobs correct, "
          f"{attempted} more in the timed loop, {rejected} wrong expected "
          "answers rejected")
    return None


def main():
    lib = run.import_cobkit()
    signal.signal(signal.SIGALRM, run._on_alarm)
    for workload in wl.WORKLOADS.values():
        problem = check_workload(lib, workload)
        if problem:
            print(f"smoke {workload.name}: FAIL: {problem}")
            return 1
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
