"""monosmt: a SAT solver modulo monotonic theories.

A CDCL core cooperates with lazy theory solvers for Boolean monotonic
predicates over symbolic graphs (reachability, bounded shortest path,
connected components, maximum flow, spanning-tree weight and membership)
and uniprocessor EDF schedulability. Instances are read from the GNF file
format; see the cli module or the README for the tour.
"""

from .sat import Solver, SolveResult, SAT, UNSAT, mk_lit, neg
from .theory import MonotonicTheory, POSITIVE, NEGATIVE
from .graphs import GraphTheory
from .scheduling import ProcessorTheory, TaskSpec, edf_simulate
from .gnf import GnfDocument, GnfError, parse, serialize
from .build import build_instance, solve_doc, run_solve
from .cardinality import encode_cardinality
from .minimize import minimize_bound
from .oracle import brute_force_solve, check_model, check_clause_valid

__version__ = "0.1.0"

__all__ = [
    "Solver", "SolveResult", "SAT", "UNSAT", "mk_lit", "neg",
    "MonotonicTheory", "POSITIVE", "NEGATIVE",
    "GraphTheory", "ProcessorTheory", "TaskSpec", "edf_simulate",
    "GnfDocument", "GnfError", "parse", "serialize",
    "build_instance", "solve_doc", "run_solve",
    "encode_cardinality", "minimize_bound",
    "brute_force_solve", "check_model", "check_clause_valid",
    "__version__",
]
