"""cobkit benchmark: one closed-loop client on one thread, seeded workloads.

    python3 perfbench/run.py --workload glue --seed 1 --seconds 25 --trace 0

Run from the root of a cobkit checkout; the library is imported from
``src/`` of that checkout and nowhere else.  ``--workload all`` runs the
four workloads one after another in this process.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by
name with its unit, plus the run's metadata.  The full result (and, with
``--trace 1``, every span) is also written under ``perfbench/out/``.

See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import oracles
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 7
WARM_UP_S = 0.5
JOB_TIMEOUT_S = 15.0
FAILED_NS = int(JOB_TIMEOUT_S * 1e9)
# Seeds from this value up are held out: use them only to confirm a claim
# made from runs on smaller seeds.
HELD_OUT_SEEDS = 1_000_000

FUNCTIONS = (
    "io_text.parse", "io_text.serialize", "compose.sew", "compose.mend",
    "planarity.validate", "moves.search_equivalent", "canon.structural_iso",
    "diagram.linking_matrix", "invariants.boundary_profile",
    "invariants.h1_cobordism", "invariants.signature", "invariants.cokernel",
    "invariants.smith_normal_form",
)
MOVE_KINDS = ("R1", "R2", "R3", "BlowUp", "BlowDown", "HandleSlide")


class JobTimeout(BaseException):
    """Raised from the alarm handler; a BaseException so that no
    ``except Exception`` inside the library can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


# -- tracing ------------------------------------------------------------------

class NoTrace:
    """Tracing off: a library call costs one extra Python call."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def count(name, n=1):
        pass


class Tracer:
    """Spans (name, start_ns, end_ns, parent, job) kept in memory.

    The benchmark opens one span per job and one around each library call
    it makes; library spans are leaves, so their self time is their
    duration and the job span's self time is the benchmark's own code.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.job_id = None
        self.parent = None

    def start_job(self, job_id, kind):
        self.job_id = job_id
        self.parent = len(self.spans)
        self.spans.append(["job." + kind, time.perf_counter_ns(), None,
                           None, job_id])

    def end_job(self):
        self.spans[self.parent][2] = time.perf_counter_ns()
        self.parent = None

    def call(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append([name, t0, time.perf_counter_ns(),
                               self.parent, self.job_id])

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n


# -- calibration --------------------------------------------------------------
#
# The machine this benchmark was tuned on is a 2-vCPU virtual machine shared
# with other tenants.  The speed it gives one thread drifts by up to 2x over
# seconds and over minutes, and a whole run can fall in a slow period, so no
# statistic of raw times repeats from run to run.  A fixed probe is timed
# right before and right after every job and every set-up, and each time is
# reported at the probe's nominal speed: wall time * PROBE_NOMINAL_NS / the
# mean of the two probe times.

_PROBE_RNG = random.Random(0)
PROBE_MATRIX = [[_PROBE_RNG.randint(-3, 3) for _ in range(14)]
                for _ in range(12)]
PROBE_NOMINAL_NS = 350_000


def probe():
    """Best of two timings of a fixed small integer elimination, with the
    garbage collector off so that no job's garbage is collected inside."""
    gc.disable()
    try:
        best = None
        for _ in range(2):
            t0 = time.perf_counter_ns()
            oracles.elementary_divisors(PROBE_MATRIX)
            ns = time.perf_counter_ns() - t0
            best = ns if best is None else min(best, ns)
    finally:
        gc.enable()
    return best


def at_nominal_speed(ns, probe_before, probe_after):
    return ns * PROBE_NOMINAL_NS * 2 / (probe_before + probe_after)


# -- set-up -------------------------------------------------------------------

def import_cobkit():
    """Import cobkit from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules
                 if m == "cobkit" or m.startswith("cobkit.")]:
        del sys.modules[name]
    lib = importlib.import_module("cobkit")
    origin = Path(lib.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"cobkit imported from {origin}, not from {src}")
    return lib


def set_up(workload, seed, build_args=()):
    """Import cobkit and build the seeded inputs, SETUP_REPEATS times from
    a fresh import; returns the last library and inputs and the median
    time."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = probe()
        t0 = time.perf_counter_ns()
        lib = import_cobkit()
        inputs = workload.build(lib, random.Random(f"{workload.name}-{seed}"),
                                *build_args)
        ns = time.perf_counter_ns() - t0
        times.append(at_nominal_speed(ns, before, probe()) / 1e9)
    return lib, inputs, statistics.median(times)


# -- running jobs -------------------------------------------------------------

class Slot:
    """One seeded job and everything measured about it in this run."""

    def __init__(self, index, job):
        self.index = index
        self.job = job
        self.plain = []      # (raw ns, ns at nominal speed) per execution
        self.traced = []
        self.verified_out = None
        self.verified_facts = None

    def check(self, out):
        """Names of the facts that differ from the known answer.  An output
        equal to one already verified reuses its facts."""
        if self.verified_facts is None or out != self.verified_out:
            self.verified_facts = self.job.facts(out)
            self.verified_out = out
        exp = self.job.expected
        return sorted(k for k in exp.keys() | self.verified_facts.keys()
                      if exp.get(k) != self.verified_facts.get(k))


def execute(lib, slot, tracer, job_id, failures):
    """Run one job under the timeout, check it, and return (status, ns)."""
    args = slot.job.prepare()
    t = tracer if tracer is not None else NoTrace
    if tracer is not None:
        tracer.start_job(job_id, slot.job.kind)
    out = None
    status = "ok"
    detail = ""
    before = probe()
    signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
    t0 = time.perf_counter_ns()
    try:
        out = slot.job.run(t, *args)
    except JobTimeout:
        status = "timeout"
    except lib.CobkitError as exc:
        status, detail = "cobkit_error", f"{type(exc).__name__}: {exc}"
    except Exception as exc:     # a leak: anything but a CobkitError
        status, detail = "other_error", f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.end_job()
    nominal = at_nominal_speed(elapsed, before, probe())
    if status == "ok":
        wrong = slot.check(out)
        if wrong:
            status, detail = "wrong", "facts differ: " + ", ".join(wrong)
    if status != "ok":
        failures.append({"job": job_id, "slot": slot.index,
                         "kind": slot.job.kind, "status": status,
                         "detail": detail[:300]})
        # A failed job counts as missing any latency limit.
        nominal = max(nominal, FAILED_NS)
    return status, elapsed, nominal


def run_loop(lib, slots, seconds, seed, tracer=None):
    """Closed loop: passes over the slots in seeded order until the timed
    job time reaches ``seconds``.  With a tracer, every job runs twice in a
    row, untraced and traced, the order alternating by pass."""
    order_rng = random.Random(f"order-{seed}")
    failures = []
    attempted = 0
    timed_ns = 0
    limit = int(seconds * 1e9)
    n_pass = 0
    while timed_ns < limit:
        order = list(range(len(slots)))
        order_rng.shuffle(order)
        for i in order:
            if timed_ns >= limit:
                break
            slot = slots[i]
            modes = (None,) if tracer is None else (
                (None, tracer) if n_pass % 2 == 0 else (tracer, None))
            for mode in modes:
                _, ns, nominal = execute(lib, slot, mode, attempted,
                                         failures)
                attempted += 1
                timed_ns += ns
                (slot.plain if mode is None else slot.traced).append(
                    (ns, nominal))
        n_pass += 1
    return attempted, failures, timed_ns, n_pass


def warm_up(lib, slots):
    """Untimed executions of the first slots (each workload lists its
    smallest jobs first) for about WARM_UP_S; their outcomes are not
    counted, as the timed loop meets the same jobs again."""
    spent = 0
    for slot in slots:
        if spent >= WARM_UP_S * 1e9:
            break
        spent += execute(lib, slot, None, -1, [])[1]


# -- statistics ---------------------------------------------------------------

def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (modified
    Lentz), as in Numerical Recipes' betacf."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        even = m * (b - m) * x / ((a - 1 + 2 * m) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1 + 2 * m))
        for aa in (even, odd):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def hd_quantile(sorted_values, pct):
    """Harrell-Davis estimate of a quantile: a Beta-weighted mean of all
    order statistics, steadier than any single one of them."""
    n = len(sorted_values)
    a = pct / 100 * (n + 1)
    b = (1 - pct / 100) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v
               for i, v in enumerate(sorted_values))


def job_latency(executions):
    """A job's latency: the median over its executions, at nominal speed."""
    return statistics.median(nominal for _, nominal in executions)


def latency_stats(slots, tail_pct):
    """Harrell-Davis percentiles over the jobs' latencies, and how many
    executions took longer than the tail."""
    values = sorted(job_latency(s.plain) for s in slots if s.plain)
    tail = hd_quantile(values, tail_pct)
    return {"p50_ns": hd_quantile(values, 50), "tail_ns": tail,
            "beyond": sum(1 for s in slots for _, ns in s.plain
                          if ns > tail),
            "sum_ns": sum(values), "jobs": len(values)}


def observed_stats(slots, tail_pct):
    """Plain percentiles and rate over every untraced execution's raw wall
    time, without calibration."""
    values = sorted(ns for s in slots for ns, _ in s.plain)
    return (values[len(values) // 2],
            values[min(len(values) - 1, len(values) * tail_pct // 100)],
            len(values) / (sum(values) / 1e9))


def layer_metrics(tracer, slots):
    durations = {}
    job_ns = 0
    child_ns = 0
    for name, t0, t1, parent, _ in tracer.spans:
        if parent is None:
            job_ns += t1 - t0
        else:
            child_ns += t1 - t0
            durations.setdefault(name, []).append(t1 - t0)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def timing(prefix, values):
        put(prefix + ".calls", len(values), "count")
        put(prefix + ".p50_ms",
            statistics.median(values) / 1e6 if values else 0.0, "ms")
        put(prefix + ".busy_s", sum(values) / 1e9, "s")
        put(prefix + ".share", sum(values) / job_ns if job_ns else 0.0,
            "ratio")

    for fn in FUNCTIONS:
        timing(fn, durations.get(fn, []))
    counts = tracer.counts
    tried = accepted = 0
    for kind in MOVE_KINDS:
        values = durations.get("moves.apply." + kind, [])
        timing("moves.apply." + kind, values)
        ok = counts.get(f"moves.apply.{kind}.accepted", 0)
        put(f"moves.apply.{kind}.accepted", ok, "count")
        tried += len(values)
        accepted += ok
    put("moves.accept_ratio", accepted / tried if tried else 0.0, "ratio")
    searches = len(durations.get("moves.search_equivalent", []))
    put("moves.search.found_ratio",
        counts.get("moves.search.found", 0) / searches if searches else 0.0,
        "ratio")
    put("io_text.bytes", counts.get("io_text.bytes", 0), "bytes")
    put("compose.out_crossings", counts.get("compose.out_crossings", 0),
        "count")
    put("invariants.cokernel.cells",
        counts.get("invariants.cokernel.cells", 0), "count")
    put("job.busy_s", job_ns / 1e9, "s")
    put("job.self_s", (job_ns - child_ns) / 1e9, "s")
    paired = [s for s in slots if s.plain and s.traced]
    plain = sum(job_latency(s.plain) for s in paired)
    traced = sum(job_latency(s.traced) for s in paired)
    put("trace.overhead_ms",
        (traced - plain) / 1e6 / len(paired) if paired else 0.0, "ms")
    put("trace.overhead_frac", traced / plain - 1 if plain else 0.0, "ratio")
    return metrics


# -- one workload -------------------------------------------------------------

def git_sha():
    """HEAD of the checkout's own .git, if it has one (read directly, so
    that nothing outside the checkout is consulted)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name, seed, seconds, trace):
    workload = wl.WORKLOADS[name]
    lib, inputs, setup_s = set_up(workload, seed)
    slots = [Slot(i, job) for i, job in
             enumerate(workload.jobs(lib, inputs))]
    signal.signal(signal.SIGALRM, _on_alarm)
    warm_up(lib, slots)
    tracer = Tracer() if trace else None
    wall0 = time.perf_counter()
    attempted, failures, timed_ns, passes = run_loop(lib, slots, seconds,
                                                     seed, tracer)
    loop_wall = time.perf_counter() - wall0
    failed = len(failures)
    by_status = {s: sum(1 for f in failures if f["status"] == s)
                 for s in ("cobkit_error", "other_error", "wrong", "timeout")}
    lat = latency_stats(slots, workload.tail_pct)
    obs_p50, obs_tail, obs_rate = observed_stats(slots, workload.tail_pct)
    kinds = {}
    for s in slots:
        kinds[s.job.kind] = kinds.get(s.job.kind, 0) + len(s.plain) + \
            len(s.traced)

    end_to_end = {
        "job_p50_ms": {"value": lat["p50_ns"] / 1e6, "unit": "ms"},
        "job_tail_ms": {"value": lat["tail_ns"] / 1e6, "unit": "ms"},
        "jobs_per_s": {"value": lat["jobs"] / (lat["sum_ns"] / 1e9),
                       "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    info = {
        "workload": name, "seed": seed, "held_out": seed >= HELD_OUT_SEEDS,
        "trace": trace, "git_sha": git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "seconds": seconds,
        "jobs_distinct": len(slots), "passes": passes,
        "executions": attempted, "executions_by_kind": kinds,
        "tail_percentile": workload.tail_pct,
        "tail_executions_beyond": lat["beyond"],
        "fail_frac": failed / attempted, "failed_by_status": by_status,
        "timed_s": timed_ns / 1e9, "loop_wall_s": loop_wall,
        "observed_p50_ms": obs_p50 / 1e6,
        "observed_tail_ms": obs_tail / 1e6,
        "observed_jobs_per_s": obs_rate,
    }
    # A traced run reports the layers; its untraced executions still give
    # the end-to-end figures, printed for reference only.
    metrics = layer_metrics(tracer, slots) if trace else end_to_end
    return {"info": info, "metrics": metrics, "end_to_end": end_to_end,
            "attempted": attempted, "failed": failed,
            "failures": failures[:50]}, tracer


def write_outputs(result, tracer):
    """The full result and, when traced, the spans as JSON lines."""
    info = result["info"]
    stem = f"{info['workload']}-seed{info['seed']}-trace{info['trace']}"
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w") as fh:
            for name, t0, t1, parent, job in tracer.spans:
                fh.write(json.dumps({"name": name, "start_ns": t0,
                                     "end_ns": t1, "parent": parent,
                                     "job": job}) + "\n")


def report(result):
    info = result["info"]
    print(f"== {info['workload']}  seed {info['seed']}"
          f"{' (held out)' if info['held_out'] else ''}  trace "
          f"{info['trace']}  sha {info['git_sha'][:12]}  python "
          f"{info['python']}  nproc {info['nproc']}")
    print(f"   {info['executions']} executions of {info['jobs_distinct']} "
          f"jobs in {info['passes']} passes, {info['timed_s']:.2f} s timed; "
          f"by kind: {json.dumps(info['executions_by_kind'])}")
    print(f"   tail = p{info['tail_percentile']} of per-job latency, "
          f"{info['tail_executions_beyond']} executions beyond it")
    print(f"   fail_frac {info['fail_frac']:.4f}  "
          f"{json.dumps(info['failed_by_status'])}")
    print(f"   observed (every execution): p50 "
          f"{info['observed_p50_ms']:.3f} ms, "
          f"p{info['tail_percentile']} {info['observed_tail_ms']:.3f} ms, "
          f"{info['observed_jobs_per_s']:.3f} jobs/s")
    for f in result["failures"][:10]:
        print(f"   FAILED job {f['job']} ({f['kind']}): {f['status']} "
              f"{f['detail']}")
    if info["trace"]:
        print("   end to end, from this run's untraced executions (the "
              "reported figures come from --trace 0):")
        for name, m in result["end_to_end"].items():
            print(f"      {name} = {m['value']} {m['unit']}")
    for name, m in result["metrics"].items():
        print(f"   {name} = {m['value']} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(wl.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import_cobkit()
    except ImportError as exc:
        print(f"cannot import cobkit from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    names = sorted(wl.WORKLOADS) if args.workload == "all" else [
        args.workload]
    results = []
    for name in names:
        result, tracer = run_workload(name, args.seed, args.seconds,
                                      args.trace)
        write_outputs(result, tracer)
        report(result)
        results.append(result)
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["info"]["workload"] + "."
        for k, m in r["metrics"].items():
            metrics[prefix + k] = m
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
