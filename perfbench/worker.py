"""One pass over a run's instances in a fresh process, one at a time.

Reads a JSON list of GNF texts on stdin and writes one JSON line per
instance to stdout as soon as it is solved, then a final ``done`` line with
the process's peak RSS (and, when traced, the per-layer metrics). Run by
``run.py``; the program under test is imported from ``src/``.

The timed region of an instance runs from the GNF text to the verdict:
``gnf.parse`` + ``build.build_instance`` + ``Solver.solve``, or
``gnf.parse`` + ``minimize.minimize_bound`` for minimize. Garbage from the
previous instance is collected before the clock starts, so that a cyclic
collection of one instance's solver is not charged to the next.

The first instance is solved once untimed before the pass starts, so that
lazy set-up in the interpreter and the program is not charged to it. Every
instance is bracketed by two timings of ``reference.run_loop``; the row
carries their mean as ``ref_s``, and ``run.py`` scales the instance's times
by it (see reference.py).
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback

from monosmt import build, gnf, minimize

import reference


def peak_rss_mib():
    """Peak resident set of this process's own address space. ``ru_maxrss``
    would do elsewhere, but Linux carries it over from the parent's image
    across fork and exec, so it reads at least the parent's size."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _bits(values):
    return "".join("1" if v else "0" for v in values[1:])


def solve_one(text, bound_var):
    """Returns (status, model bits, bound, setup_s, verdict_s, counters)."""
    clock = time.perf_counter
    t0 = clock()
    doc = gnf.parse(text)
    t1 = clock()
    if bound_var:
        result = minimize.minimize_bound(doc, bound_var)
        t2 = clock()
        status = "SAT" if result.feasible else "UNSAT"
        bits = _bits(result.values) if result.feasible else None
        return status, bits, result.bound, t1 - t0, t2 - t0, {}
    inst = build.build_instance(doc)
    t2 = clock()
    res = inst.solver.solve() if inst.ok else None
    t3 = clock()
    counters = {"conflicts": inst.solver.conflicts}
    if res is not None and res.status == "SAT":
        return "SAT", _bits([None] + res.model), None, t2 - t0, t3 - t0, \
            counters
    return "UNSAT", None, None, t2 - t0, t3 - t0, counters


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)
    cases = json.load(sys.stdin)
    if cases:
        try:  # warm-up; a failure shows again in the timed pass
            solve_one(cases[0]["text"], cases[0]["bound_var"])
        except Exception:
            pass
    reference.run_loop()
    rec = None
    if args.trace:
        import tracer
        rec = tracer.SpanRecorder()
        tracer.install(rec)
    wall = 0.0
    out = sys.stdout
    gc.collect()
    ref_before = reference.timed_loop()
    for j, case in enumerate(cases):
        if rec is not None:
            rec.current_instance = j
            before = rec.counts["sat.conflicts"]
        try:
            status, bits, bound, setup_s, verdict_s, counters = solve_one(
                case["text"], case["bound_var"])
        except Exception:  # reported per instance, the pass goes on
            row = {"index": j, "error": traceback.format_exc(limit=-3)}
        else:
            row = None
        gc.collect()
        ref_after = reference.timed_loop()
        if row is None:
            wall += verdict_s
            if rec is not None:
                counters["conflicts"] = rec.counts["sat.conflicts"] - before
            row = {"index": j, "status": status, "bits": bits,
                   "bound": bound, "setup_s": setup_s,
                   "verdict_s": verdict_s,
                   "ref_s": (ref_before + ref_after) / 2, **counters}
        ref_before = ref_after
        out.write(json.dumps(row) + "\n")
        out.flush()
    done = {"done": True, "peak_rss_mib": peak_rss_mib()}
    if rec is not None:
        done["layers"], done["exact"] = tracer.layer_metrics(rec, wall)
        if args.spans_out:
            rec.write(args.spans_out)
    out.write(json.dumps(done) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
