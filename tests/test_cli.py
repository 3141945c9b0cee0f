"""Command line interface: subcommands, exit codes, output contracts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import monosmt
from monosmt import build
from monosmt.cli import main
from monosmt.gnf import parse

ROOT = Path(__file__).resolve().parent.parent

SAT_CHAIN = """p gnf 3 3
digraph 3 2 1
edge 1 0 1 1
edge 1 1 2 2
reach 1 0 2 3
1 0
2 0
3 0
"""

UNSAT_CHAIN = """p gnf 3 3
digraph 3 2 1
edge 1 0 1 1
edge 1 1 2 2
reach 1 0 2 3
-1 0
3 0
2 0
"""

TRIANGLE = """p gnf 4 1
ugraph 3 3 1
edge 1 0 1 1 1
edge 1 1 2 2 2
edge 1 0 2 3 3
mst_weight_leq 1 inf 4
4 0
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def test_solve_sat_with_witness(tmp_path, capsys):
    path = write(tmp_path, "a.gnf", SAT_CHAIN)
    code, out, _ = run(capsys, "solve", path, "--witness")
    assert code == 10
    assert out == ["s SATISFIABLE", "v 1 2 3 0", "w reach 1 0 2 : 0 1 2"]


def test_solve_unsat(tmp_path, capsys):
    path = write(tmp_path, "b.gnf", UNSAT_CHAIN)
    code, out, _ = run(capsys, "solve", path)
    assert code == 20
    assert out == ["s UNSATISFIABLE"]


def test_solve_reports_parse_errors(tmp_path, capsys):
    path = write(tmp_path, "bad.gnf", "p gnf 1 1\n1 2\n")
    code, out, err = run(capsys, "solve", path)
    assert code == 1
    assert err.startswith("error: line 2:")


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent.gnf")
    assert code == 1
    assert "cannot read" in err


def test_minimize_reports_probes_and_optimum(tmp_path, capsys):
    path = write(tmp_path, "tri.gnf", TRIANGLE)
    code, out, _ = run(capsys, "minimize", path, "--bound-atom", "4")
    assert code == 10
    assert out[0] == "c bound 6 SAT"
    assert all(line.startswith("c bound ") for line in out[:-3])
    assert out[-3] == "o 3"
    assert out[-2] == "s SATISFIABLE"
    assert out[-1].startswith("v ") and out[-1].endswith(" 0")


def test_minimize_infeasible(tmp_path, capsys):
    path = write(tmp_path, "lonely.gnf", """p gnf 2 2
ugraph 2 1 1
edge 1 0 1 1 4
mst_weight_leq 1 inf 2
-1 0
2 0
""")
    code, out, _ = run(capsys, "minimize", path, "--bound-atom", "2")
    assert code == 20
    assert out == ["c bound 4 UNSAT", "s UNSATISFIABLE"]


def test_minimize_wrong_atom(tmp_path, capsys):
    path = write(tmp_path, "tri.gnf", TRIANGLE)
    code, _, err = run(capsys, "minimize", path, "--bound-atom", "1")
    assert code == 1
    assert "not an mst_weight_leq atom" in err


def test_gen_writes_parseable_documents(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "maze", "3", "3", "--seed", "2")
    assert code == 0
    doc = parse("\n".join(out) + "\n")
    assert doc.meta["maze"][:2] == ["3", "3"]

    target = tmp_path / "flow.gnf"
    code, out, _ = run(capsys, "gen", "flow", "3", "2", "--mode",
                       "random1to4", "-o", str(target))
    assert code == 0 and out == []
    assert parse(target.read_text()).meta["flow"][2] == "random1to4"

    code, out, _ = run(capsys, "gen", "sched", "6", "2", "40")
    assert code == 0
    assert parse("\n".join(out) + "\n").meta["sched"] == ["6", "2", "40"]


def test_gen_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "gen", "maze", "1", "3")
    assert code == 1
    assert "width and height >= 2" in err
    # The parser rejects a negative bound, so gen refuses to write one.
    code, out, err = run(capsys, "gen", "flow", "3", "3", "--demand", "-1")
    assert code == 1 and out == []
    assert "demand must be >= 0" in err


def test_gen_reports_an_unwritable_output(tmp_path, capsys):
    target = tmp_path / "missing" / "x.gnf"
    code, out, err = run(capsys, "gen", "maze", "3", "3", "-o", str(target))
    assert code == 1 and out == []
    assert err.startswith("error: cannot write %s: " % target)


def test_verify_agrees_with_oracle(tmp_path, capsys):
    path = write(tmp_path, "a.gnf", SAT_CHAIN)
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    assert out == ["verify: ok (SAT, oracle agrees)"]

    path = write(tmp_path, "b.gnf", UNSAT_CHAIN)
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    assert out == ["verify: ok (UNSAT, oracle agrees)"]


def test_verify_beyond_budget_checks_model(tmp_path, capsys):
    target = tmp_path / "maze.gnf"
    assert main(["gen", "maze", "4", "4", "--seed", "1",
                 "-o", str(target)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", str(target))
    assert code == 0
    assert out == ["verify: ok (SAT, 99 vars beyond oracle budget,"
                   " model checked)"]


@pytest.mark.parametrize("text,solved,want", [
    (SAT_CHAIN, ("SAT", [None, False, True, True], None),
     "verify: FAIL model check: clause 0 falsified: [1]"),
    (UNSAT_CHAIN, ("SAT", None, None),
     "verify: FAIL solver says SAT, oracle says UNSAT")])
def test_verify_fails_on_a_wrong_answer(tmp_path, capsys, monkeypatch, text,
                                        solved, want):
    monkeypatch.setattr(build, "solve_doc", lambda doc, seed: solved)
    code, out, _ = run(capsys, "verify", write(tmp_path, "x.gnf", text))
    assert (code, out) == (1, [want])


def test_render_pipeline(tmp_path, capsys):
    maze = tmp_path / "maze.gnf"
    assert main(["gen", "maze", "4", "4", "--seed", "1",
                 "-o", str(maze)]) == 0
    code = main(["solve", str(maze)])
    assert code == 10
    model = tmp_path / "model.txt"
    model.write_text(capsys.readouterr().out)
    code, out, _ = run(capsys, "render", str(maze), str(model))
    assert code == 0
    art = "\n".join(out)
    assert len(out) == 9 and all(len(line) == 9 for line in out)
    assert art.count("S") == 1 and art.count("F") == 1


def test_render_rejects_non_maze(tmp_path, capsys):
    path = write(tmp_path, "a.gnf", SAT_CHAIN)
    model = write(tmp_path, "m.txt", "v 1 2 3 0\n")
    code, _, err = run(capsys, "render", path, model)
    assert code == 1
    assert "no maze metadata" in err
    maze = tmp_path / "maze.gnf"
    assert main(["gen", "maze", "4", "4", "-o", str(maze)]) == 0
    assert main(["solve", str(maze)]) == 10
    model = write(tmp_path, "model.txt", capsys.readouterr().out)
    text = maze.read_text()
    assert "c meta maze 4 4 2 0 15\n" in text
    # No graph 9; a finish off the grid; a 9x9 grid over 16 nodes.
    for meta in ("4 4 9 0 15", "4 4 2 0 99", "9 9 2 0 15"):
        path = write(tmp_path, "bad.gnf", text.replace(
            "c meta maze 4 4 2 0 15", "c meta maze " + meta))
        code, out, err = run(capsys, "render", path, model)
        assert code == 1 and out == []
        assert "maze metadata does not match graph" in err
    # Arc 0 -> 1, var 49, edited to the diagonal 0 -> 5 and made true.
    assert "\nedge 2 0 1 49 1\n" in text
    path = write(tmp_path, "bad.gnf", text.replace("\nedge 2 0 1 49 1\n",
                                                   "\nedge 2 0 5 49 1\n"))
    solved = (tmp_path / "model.txt").read_text()
    assert " -49 " in solved
    model = write(tmp_path, "m2.txt", solved.replace(" -49 ", " 49 "))
    code, out, err = run(capsys, "render", path, model)
    assert code == 1 and out == []
    assert "true arc 0 -> 5 of graph 2 joins no two neighbouring cells" in err


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def declared_script(name):
    """Target of a console script in pyproject.toml's [project.scripts]."""
    text = (ROOT / "pyproject.toml").read_text()
    if sys.version_info >= (3, 11):
        import tomllib
        return tomllib.loads(text)["project"]["scripts"][name]
    table = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    for line in table.splitlines():
        key, sep, value = line.partition("=")
        if sep and key.strip() == name:
            return value.strip().strip('"')
    raise KeyError(name)


def test_installed_entry_point():
    # The console script an install would create runs this target; run it
    # the same way with this interpreter, so no install is needed.
    module, _, func = declared_script("monosmt").partition(":")
    code = "import sys, %s as m; sys.exit(m.%s())" % (module, func)
    src = str(Path(monosmt.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code,
                           "gen", "maze", "2", "2"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("p gnf 19 ")


def test_module_entry_point_without_install():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "monosmt", "gen", "maze",
                           "3", "3", "--seed", "0"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("p gnf ")
