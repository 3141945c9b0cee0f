"""Command line front end.

Exit codes follow solver conventions: 10 satisfiable, 20 unsatisfiable,
1 usage or input error, 0 for commands without a status verdict.
"""
from __future__ import annotations

import argparse
import sys

from . import build, generators, minimize, oracle, render
from .gnf import GnfError, parse, parse_model, serialize


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise GnfError("cannot read %s: %s" % (path, exc))


def _load(path):
    return parse(_read(path))


def _cmd_solve(args):
    doc = _load(args.file)
    code, lines = build.run_solve(doc, witness=args.witness, seed=args.seed)
    print("\n".join(lines))
    return code


def _cmd_minimize(args):
    doc = _load(args.file)
    result = minimize.minimize_bound(doc, args.bound_atom, seed=args.seed)
    for bound, status in result.probes:
        print("c bound %d %s" % (bound, status))
    if not result.feasible:
        print("s UNSATISFIABLE")
        return 20
    print("o %d" % result.bound)
    print("s SATISFIABLE")
    print(build.v_line(result.values))
    return 10


def _cmd_gen(args):
    if args.kind == "maze":
        doc = generators.gen_maze(args.width, args.height, args.seed)
    elif args.kind == "flow":
        doc = generators.gen_flow(args.width, args.height, mode=args.mode,
                                  seed=args.seed, demand=args.demand)
    else:
        doc = generators.gen_sched(args.tasks, args.procs, args.slack,
                                   args.seed)
    text = serialize(doc)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise GnfError("cannot write %s: %s" % (args.output, exc))
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args):
    doc = _load(args.file)
    status, values, _ = build.solve_doc(doc, seed=args.seed)
    if values is not None:
        violation = oracle.check_model(doc, values)
        if violation is not None:
            print("verify: FAIL model check: %s" % violation)
            return 1
    if doc.nvars <= oracle.BUDGET:
        want, _ = oracle.brute_force_solve(doc)
        if want != status:
            print("verify: FAIL solver says %s, oracle says %s"
                  % (status, want))
            return 1
        print("verify: ok (%s, oracle agrees)" % status)
    else:
        print("verify: ok (%s, %d vars beyond oracle budget%s)"
              % (status, doc.nvars,
                 ", model checked" if values is not None else ""))
    return 0


def _cmd_render(args):
    doc = _load(args.file)
    values = parse_model(_read(args.model), doc.nvars)
    print(render.render_maze(doc, values))
    return 0


def main(argv=None) -> int:
    top = argparse.ArgumentParser(prog="monosmt")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a GNF file")
    p.add_argument("file")
    p.add_argument("--witness", action="store_true",
                   help="print per-true-atom witness lines")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("minimize", help="minimize an mst_weight_leq bound")
    p.add_argument("file")
    p.add_argument("--bound-atom", type=int, required=True,
                   help="atom var whose bound is searched")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_minimize)

    p = sub.add_parser("gen", help="generate a benchmark instance")
    gensub = p.add_subparsers(dest="kind", required=True)
    g = gensub.add_parser("maze")
    g.add_argument("width", type=int)
    g.add_argument("height", type=int)
    g = gensub.add_parser("flow")
    g.add_argument("width", type=int)
    g.add_argument("height", type=int)
    g.add_argument("--mode", choices=("unit", "random1to4"), default="unit")
    g.add_argument("--demand", type=int, default=None)
    g = gensub.add_parser("sched")
    g.add_argument("tasks", type=int)
    g.add_argument("procs", type=int)
    g.add_argument("slack", type=int)
    for g in gensub.choices.values():
        g.add_argument("--seed", type=int, default=0)
        g.add_argument("-o", "--output", default=None)
        g.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("verify", help="cross-check a file against the oracle")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("render", help="draw a solved maze")
    p.add_argument("file")
    p.add_argument("model", help="file holding the solver's v line")
    p.set_defaults(fn=_cmd_render)

    args = top.parse_args(argv)
    try:
        return args.fn(args)
    except (GnfError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
