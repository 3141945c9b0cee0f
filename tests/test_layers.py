"""Which package modules may import which, read from their source."""

import ast
from pathlib import Path

import monosmt

PACKAGE = Path(monosmt.__file__).parent


def imported(module):
    """The names of the package modules that ``module`` imports, in any
    form: ``from .gnf import x``, ``from . import gnf``, ``from monosmt.gnf
    import x`` or ``import monosmt.gnf``."""
    tree = ast.parse((PACKAGE / (module + ".py")).read_text())
    paths = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, (
                "monosmt" if node.level else None, node.module)))
            paths += [base] + ["%s.%s" % (base, a.name) for a in node.names]
    return {p.split(".")[1] for p in paths if p.startswith("monosmt.")}


def test_layers_keep_their_imports_apart():
    # GNF's rules live in gnf: the SAT core and the theories take what
    # gnf.VarOwners and the check helpers let through.
    for module in ("sat", "theory", "graphs", "scheduling"):
        assert "gnf" not in imported(module), module
    # The oracle is a second algorithm family: it reads documents and
    # shares no code with the solver.
    assert not imported("oracle") & {"graphs", "scheduling", "theory", "sat"}


def test_minimize_reaches_its_solver_through_build():
    # BoundProbes finds its graph, solves, and reads model masks and tree
    # weights through build.Instance and the graph theory's public reader.
    assert not imported("minimize") & {"graphs", "theory", "scheduling"}
