"""The benchmark's span recorder still finds the entry points it patches.

``perfbench/tracer.py`` rebinds layer functions and methods by name from
outside the program, so renaming one would silently empty its metrics. This
runs it in a subprocess (it patches classes process-wide) on tiny maze, flow
(with a free atom, so that it conflicts) and sched instances, and on a
weighted distance document for the heap that a unit-weight maze never
reaches, and checks that every span it relies on was recorded.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
from monosmt import generators, gnf
from monosmt.build import solve_doc
import tracer
from instances import free_atom_flow

WEIGHTED = '''p gnf 4 1
digraph 3 3 1
edge 1 0 1 1 1
edge 1 1 2 2 1
edge 1 0 2 3 3
distance_leq 1 0 2 2 4
4 0
'''

rec = tracer.SpanRecorder()
tracer.install(rec)
for doc in (generators.gen_maze(3, 3, 0),
            free_atom_flow(4, 4, mode="unit", seed=0, demand=2),
            generators.gen_sched(30, 2, 6, 0), gnf.parse(WEIGHTED)):
    solve_doc(doc)
for name, (calls, _, _) in sorted(rec.span_totals().items()):
    print(name, calls)
"""

SPANS = ("build.build_instance", "sat.add_clause", "sat.solve",
         "theory.propagate", "theory.on_assign", "theory.on_backjump",
         "graphs.eval_completion", "graphs.span_scan", "graphs.dijkstra_tree",
         "graphs.bfs_tree", "graphs.edmonds_karp", "graphs.witness_lits",
         "scheduling.eval_completion", "scheduling.edf_simulate",
         "scheduling.busy_window_tasks") + tuple(
    "theory.explain." + kind for kind in ("distance_leq", "maxflow_geq",
                                          "mst_edge", "mst_weight_leq",
                                          "schedulable"))


def test_tracer_records_every_layer_span():
    path = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests"),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], cwd=ROOT,
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls = dict(line.rsplit(" ", 1) for line in proc.stdout.splitlines())
    for name in SPANS:
        assert int(calls.get(name, 0)) > 0, name
