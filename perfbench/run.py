"""Benchmark entry point: seeded instances in, checked verdicts and metrics out.

    python3 perfbench/run.py --workload maze --seed 1 --seconds 15 --trace 0

Run from the repository root. The instances of a run come from ``--seed``
and ``--seconds`` alone (see workloads.py). They are generated here, outside
any timed region, and handed as GNF text to a fresh worker process that
solves them one at a time (a closed loop with one client and one solver
thread). Every verdict is checked by checks.py; a wrong one makes the
command exit 1.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
instances three times, each in a fresh process: once untraced, then twice
under the span recorder of tracer.py. It prints the per-layer metrics of
the first traced pass, fails if the two traced passes counted different
work, and writes per-instance rows and spans to ``.perfbench-out/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
RUN_LIMIT_S = 170.0  # every pass of one run ends by then


def run_pass(cases, trace, deadline, spans_out=None):
    """Solve ``cases`` in a fresh worker; returns (rows by index, done line
    or None, error text or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--trace", str(trace)]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    payload = json.dumps([{"text": c.text, "bound_var": c.bound_var}
                          for c in cases])
    error = None
    with subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT) as proc:
        try:
            out, err = proc.communicate(payload, timeout=max(
                1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            error = "worker stopped at the run's time limit"
    if proc.returncode != 0 and error is None:
        error = "worker exited %d: %s" % (proc.returncode,
                                          err.strip()[-2000:])
    rows, done = {}, None
    for line in out.splitlines():
        try:
            item = json.loads(line)
        except json.JSONDecodeError:
            continue  # a line cut short by the kill
        if item.get("done"):
            done = item
        else:
            rows[item["index"]] = item
    for row in rows.values():
        if "error" not in row:
            scale_to_reference(row)
    return rows, done, error


def scale_to_reference(row):
    """Rescale a row's times to the reference machine speed (reference.py);
    the times as measured stay in ``*_raw``."""
    scale = NOMINAL_S / row["ref_s"]
    for key in ("verdict_s", "setup_s"):
        row[key + "_raw"] = row[key]
        row[key] *= scale


def judge(cases, rows, limit_s):
    """Check every row; returns (decided, wrong messages)."""
    from checks import CONFIRMED, WRONG, check_verdict
    decided, wrong = 0, []
    for case in cases:
        row = rows.get(case.index)
        if row is None or "error" in row:
            continue  # missing or raised: failed, but no verdict to judge
        outcome, message = check_verdict(case, row["status"], row["bits"],
                                         row["bound"])
        row["check"] = outcome
        if outcome == WRONG:
            wrong.append("%s: %s" % (case.gen, message))
        elif outcome == CONFIRMED and row["verdict_s"] <= limit_s:
            decided += 1
    return decided, wrong


def end_to_end(rows, done, decided, attempted):
    solved = [r for r in rows.values() if "error" not in r]
    times = [r["verdict_s"] for r in solved]
    return {
        "wall_s": (sum(times), "s"),
        "verdict_s.p50": (statistics.median(times) if times else 0.0, "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in solved)
                    if solved else 0.0, "s"),
        "peak_rss_mib": (done["peak_rss_mib"] if done else 0.0, "MiB"),
        "decided_frac": (decided / attempted, "frac"),
    }


def total_wall(rows):
    return sum(r["verdict_s"] for r in rows.values() if "error" not in r)


def instance_rows(cases, rows):
    out = []
    for case in cases:
        row = rows.get(case.index, {})
        out.append({"gen": case.gen, "vars": case.doc.nvars,
                    "clauses": len(case.doc.clauses),
                    "verdict": row.get("status", row.get("error", "missing")),
                    "check": row.get("check"),
                    "conflicts": row.get("conflicts"),
                    "verdict_s": row.get("verdict_s"),
                    "verdict_s_raw": row.get("verdict_s_raw")})
    return out


def traced_metrics(cases, results, problems, prefix):
    """Per-layer metrics of the first traced pass. Appends to ``problems``
    any count that the second traced pass did not repeat, and writes the
    per-instance rows to ``<prefix>.json``."""
    rows_a, done_a = results["traced"]
    rows_b, done_b = results["traced-again"]
    if not (done_a and done_b):
        return {}  # a pass was killed; its instances already count as failed
    metrics = {name: tuple(v) for name, v in done_a["layers"].items()}
    base_wall = total_wall(results["untraced"][0])
    metrics["trace.overhead_frac"] = (
        total_wall(rows_a) / base_wall - 1.0 if base_wall else 0.0, "frac")
    refs = [r["ref_s"] for r in results["untraced"][0].values()
            if "error" not in r]
    metrics["machine.ref_s"] = (statistics.median(refs) if refs else 0.0,
                                "s")
    for name in done_a["exact"]:
        first = done_a["layers"][name][0]
        second = done_b["layers"][name][0]
        if first != second:
            problems.append("nondeterministic count %s: %s then %s"
                            % (name, first, second))
    for index, row in rows_a.items():
        other = rows_b.get(index, {})
        if (row.get("status"), row.get("conflicts")) != (
                other.get("status"), other.get("conflicts")):
            problems.append("instance %d answered differently in the two "
                            "traced passes" % index)
    table = instance_rows(cases, rows_a)
    with open(prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump({"instances": table, "layers": metrics}, fh, indent=1)
    for row in table:
        print("  %-58s %6d vars %7d clauses %-5s %5s conflicts %8.3f s"
              % (row["gen"], row["vars"], row["clauses"], row["verdict"],
                 row["conflicts"], row["verdict_s"] or 0.0))
    print("  self time by layer, share of traced wall_s: " + ", ".join(
        "%s %.1f%%" % (name[:-len(".self_frac")], 100 * value)
        for name, (value, _) in metrics.items()
        if name.endswith(".self_frac")))
    print("  spans and rows: %s.{spans.bin,spans.json,json}"
          % os.path.relpath(prefix, ROOT))
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "monosmt" / "__init__.py").is_file():
        print("perfbench: no monosmt sources at %s; run from a checkout of "
              "the repository" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, make_cases
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print("perfbench: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    t0 = time.perf_counter()
    cases = make_cases(workload, args.seed, args.seconds)
    print("perfbench %s seed=%d: %d instances generated in %.2f s; closed "
          "loop, one client, one solver thread" % (
              workload.name, args.seed, len(cases), time.perf_counter() - t0))

    passes = [("untraced", 0, None)]
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        prefix = str(OUT_DIR / ("%s-seed%d" % (workload.name, args.seed)))
        passes += [("traced", 1, prefix + ".spans"), ("traced-again", 1, None)]
    results = {}
    problems = []
    attempted = decided = 0
    for label, trace, spans_out in passes:
        rows, done, error = run_pass(cases, trace, deadline, spans_out)
        if error:
            print("perfbench: %s pass: %s" % (label, error), file=sys.stderr)
        got, wrong = judge(cases, rows, workload.limit_s)
        attempted += len(cases)
        decided += got
        problems += wrong
        results[label] = (rows, done)

    rows, done = results["untraced"]
    if args.trace:
        metrics = traced_metrics(cases, results, problems, prefix)
    else:
        metrics = end_to_end(rows, done, decided, attempted)
        for name, (value, unit) in metrics.items():
            print("  %-14s %12.4f %-4s" % (name, value, unit))
        solved = [r for r in rows.values() if "error" not in r]
        print("  (verdict_s.p50 over %d instances; wall_s is their sum)"
              % len(solved))
        if solved:
            print("  times above are scaled to the reference speed; as "
                  "measured, wall_s %.4f s, reference loop median %.4f s "
                  "(nominal %.4f s)" % (
                      sum(r["verdict_s_raw"] for r in solved),
                      statistics.median(r["ref_s"] for r in solved),
                      NOMINAL_S))

    for message in problems:
        print("perfbench: " + message, file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": attempted - decided,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
