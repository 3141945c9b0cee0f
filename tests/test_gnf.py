"""GNF parsing, validation errors, serialization round trips."""

import functools
import random
import re
import tracemalloc

import pytest

from monosmt import gnf
from monosmt.build import build_instance
from monosmt.generators import gen_flow, gen_maze, gen_sched
from monosmt.gnf import GnfError, parse, parse_model, serialize


def err(text):
    with pytest.raises(GnfError) as info:
        parse(text)
    return info.value


def test_minimal_document():
    doc = parse("p gnf 1 1\n1 0\n")
    assert doc.nvars == 1
    assert doc.clauses == [[1]]
    assert not doc.graphs and not doc.procs and not doc.preds


def test_declarations_map_to_document():
    doc = parse("""c a comment
p gnf 4 2
c meta origin unit test
digraph 3 2 7
edge 7 0 1 1
edge 7 1 2 2 5
reach 7 0 2 3
distance_leq 7 0 2 9 4
1 -2 0
3 4 0
""")
    assert doc.nvars == 4
    g = doc.graphs[7]
    assert g.directed and g.n == 3
    assert [(e.u, e.v, e.var, e.weight) for e in g.edges] == [(0, 1, 1, 1),
                                                              (1, 2, 2, 5)]
    assert [(p.kind, p.owner, p.args, p.var) for p in doc.preds] == [
        ("reach", 7, (0, 2), 3),
        ("distance_leq", 7, (0, 2, 9), 4),
    ]
    assert doc.clauses == [[1, -2], [3, 4]]
    assert doc.meta == {"origin": ["unit", "test"]}


def test_scheduling_declarations():
    doc = parse("""p gnf 3 0
processor 2
task 2 0 3 5 1
task 2 1 1 4 2
schedulable 2 3
""")
    proc = doc.procs[2]
    assert [(t.arrival, t.duration, t.deadline, t.var)
            for t in proc.tasks] == [(0, 3, 5, 1), (1, 1, 4, 2)]
    assert doc.preds[0].kind == "schedulable"
    assert doc.preds[0].owner == 2 and doc.preds[0].var == 3


def test_mst_weight_inf_bound():
    doc = parse("""p gnf 2 0
ugraph 2 1 1
edge 1 0 1 1
mst_weight_leq 1 inf 2
""")
    assert doc.preds[0].args == (None,)
    assert "mst_weight_leq 1 inf 2" in serialize(doc)


def test_edge_weight_defaults_to_one():
    doc = parse("p gnf 1 0\nugraph 2 1 1\nedge 1 0 1 1\n")
    assert doc.graphs[1].edges[0].weight == 1


# -- error catalog -----------------------------------------------------------

def test_header_errors():
    assert "missing 'p gnf' header" in str(err(""))
    assert "content before" in str(err("1 0\n"))
    e = err("p gnf 1 0\np gnf 1 0\n")
    assert "duplicate header" in str(e) and e.line == 2
    assert "header must be" in str(err("p cnf 1 0\n"))
    assert "negative counts" in str(err("p gnf -1 0\n"))
    assert "expects integers" in str(err("p gnf one 0\n"))


def test_clause_errors():
    assert "not terminated" in str(err("p gnf 2 1\n1 2\n"))
    assert "0 inside clause" in str(err("p gnf 2 1\n1 0 2 0\n"))
    assert "out of range" in str(err("p gnf 1 1\n2 0\n"))
    e = err("p gnf 2 2\n1 0\n-1 3 -4 0\n")  # the first bad var is named
    assert str(e) == "line 3: var 3 out of range 1..2" and e.line == 3
    assert "declared 2 clauses, found 1" in str(err("p gnf 1 2\n1 0\n"))


def test_clause_line_with_a_non_integer_token():
    e = err("p gnf 1 2\n1 0\n1 x 0\n")
    assert "clause expects integers" in str(e) and e.line == 3


def test_plus_sign_does_not_start_a_clause():
    e = err("p gnf 1 1\n+1 0\n")
    assert "unknown declaration '+1'" in str(e) and e.line == 2


def test_clause_line_whitespace():
    doc = parse("p gnf 3 3\n1\t-2\t0\n   -3 2 0\n\t 3  \t-1 0  \n")
    assert doc.clauses == [[1, -2], [-3, 2], [3, -1]]


def test_lone_zero_is_an_empty_clause():
    assert parse("p gnf 1 2\n0\n1 0\n").clauses == [[], [1]]


def test_comment_between_clause_lines():
    doc = parse("p gnf 2 2\n1 2 0\nc -1 0\n-2 0\n")
    assert doc.clauses == [[1, 2], [-2]]


def test_blank_lines_between_clause_lines():
    doc = parse("p gnf 2 2\n1 2 0\n\n \t \n-2 0\n\n")
    assert doc.clauses == [[1, 2], [-2]]


@pytest.mark.parametrize("line", ["distance_leq 1 0 2 inf 3", "reach 1 0 x 3"])
def test_predicate_with_a_non_integer_argument(line):
    e = err("p gnf 3 0\ndigraph 3 0 1\n%s\n" % line)
    assert "%s expects integers" % line.split()[0] in str(e) and e.line == 3


def test_graph_errors():
    assert "duplicate graph id" in str(err(
        "p gnf 0 0\nugraph 1 0 1\nugraph 1 0 1\n"))
    assert "not declared" in str(err("p gnf 1 0\nedge 1 0 1 1\n"))
    assert "declared 0 edges" in str(err(
        "p gnf 1 0\nugraph 2 0 1\nedge 1 0 1 1\n"))
    assert "declared 2 edges, found 1" in str(err(
        "p gnf 1 0\nugraph 2 2 1\nedge 1 0 1 1\n"))
    assert "endpoint out of range" in str(err(
        "p gnf 1 0\nugraph 2 1 1\nedge 1 0 2 1\n"))
    assert "negative edge weight" in str(err(
        "p gnf 1 0\nugraph 2 1 1\nedge 1 0 1 1 -3\n"))
    assert "already an edge of graph" in str(err(
        "p gnf 1 0\nugraph 2 2 1\nedge 1 0 1 1\nedge 1 1 0 1\n"))


# Graph 1 has room for one more edge, graph 2 for none, and var 3 is an
# atom. Each line of BAD_EDGES, appended as line 6, breaks one edge rule
# and is reported with the message beside it. Other edge tests match a
# part of a message; these pin all of it.
EDGE_ROOM = """p gnf 4 0
ugraph 3 2 1
edge 1 0 1 1
digraph 2 0 2
components_leq 1 1 3
"""
BAD_EDGES = [
    ("edge 1 0 x 2", "edge expects integers, got ['1', '0', 'x', '2']"),
    ("edge 1 0 1", "edge expects <gid> <u> <v> <var> [<w>]"),
    ("edge 1 0 1 2 1 1", "edge expects <gid> <u> <v> <var> [<w>]"),
    ("edge 9 0 1 2", "graph 9 not declared"),
    ("edge 2 0 1 2", "graph 2 declared 0 edges"),
    ("edge 1 1 2 1", "var 1 already an edge of graph 1"),
    ("edge 1 1 2 5", "var 5 out of range 1..4"),
    ("edge 1 1 2 3", "var 3 is already a predicate atom (line 5)"),
    ("edge 1 1 3 2", "edge endpoint out of range"),
    ("edge 1 1 2 2 -1", "negative edge weight"),
    # These break two rules; the message names the first one checked, in
    # the order: integers, graph, edge count, endpoints, weight, var.
    ("edge 9 x 1 2", "edge expects integers, got ['9', 'x', '1', '2']"),
    ("edge 2 0 5 2", "graph 2 declared 0 edges"),
    ("edge 1 1 3 5", "edge endpoint out of range"),
    ("edge 1 1 2 1 -1", "negative edge weight"),
    ("edge 1 1 2 3 -1", "negative edge weight"),
]


@pytest.mark.parametrize("line, message", BAD_EDGES)
def test_edge_line_errors_keep_their_text_and_line(line, message):
    e = err(EDGE_ROOM + line + "\n")
    assert str(e) == "line 6: " + message and e.line == 6


def test_edge_line_before_the_header():
    e = err("c graph first\nedge 1 0 1 1\np gnf 1 0\n")
    assert str(e) == "line 2: content before 'p gnf' header" and e.line == 2


def test_predicate_errors():
    assert "graph 1 is directed" in str(err(
        "p gnf 1 0\ndigraph 2 0 1\ncomponents_leq 1 1 1\n"))
    assert "graph 1 is undirected" in str(err(
        "p gnf 1 0\nugraph 2 0 1\nreach 1 0 1 1\n"))
    assert "node 5 out of range" in str(err(
        "p gnf 1 0\ndigraph 2 0 1\nreach 1 0 5 1\n"))
    assert "negative bound" in str(err(
        "p gnf 1 0\ndigraph 2 0 1\ndistance_leq 1 0 1 -2 1\n"))
    assert "source equals sink" in str(err(
        "p gnf 1 0\ndigraph 2 0 1\nmaxflow_geq 1 1 1 2 1\n"))
    assert "is not an edge of graph" in str(err(
        "p gnf 2 0\nugraph 2 1 1\nedge 1 0 1 1\nmst_edge 1 2 2\n"))
    assert "unknown declaration" in str(err("p gnf 0 0\nfrob 1 2\n"))


def test_task_errors():
    assert "processor 9 not declared" in str(err(
        "p gnf 1 0\ntask 9 0 1 1 1\n"))
    assert "processor 9 not declared" in str(err(
        "p gnf 1 0\nschedulable 9 1\n"))
    assert "duplicate processor id" in str(err(
        "p gnf 0 0\nprocessor 1\nprocessor 1\n"))
    assert "A >= 0 and L >= 1" in str(err(
        "p gnf 1 0\nprocessor 1\ntask 1 -1 1 1 1\n"))
    assert "A >= 0 and L >= 1" in str(err(
        "p gnf 1 0\nprocessor 1\ntask 1 0 0 1 1\n"))
    assert "already a task on processor" in str(err(
        "p gnf 1 0\nprocessor 1\ntask 1 0 1 1 1\ntask 1 0 1 1 1\n"))


def test_arity_errors_name_the_declaration():
    for line in ("digraph 2 0", "ugraph 2 0 1 1", "edge 1 0 1",
                 "edge 1 0 1 1 1 1", "reach 1 0 1", "distance_leq 1 0 1 1",
                 "maxflow_geq 1 0 1 1 1 1", "components_leq 1 1",
                 "mst_weight_leq 1 inf", "mst_edge 1 1 1 1", "processor",
                 "processor 1 2", "task 1 0 1 1", "schedulable 1"):
        e = err("p gnf 1 0\n" + line + "\n")
        assert "line 2: %s expects" % line.split()[0] in str(e), line
        assert e.line == 2


def test_negative_sizes_and_bounds():
    for text, line in (("p gnf 0 0\nugraph -1 0 1\n", 2),
                       ("p gnf 0 0\ndigraph 2 -1 1\n", 2),
                       ("p gnf 1 0\nugraph 2 0 1\ncomponents_leq 1 -1 1\n",
                        3),
                       ("p gnf 1 0\nugraph 2 0 1\nmst_weight_leq 1 -1 1\n",
                        3)):
        e = err(text)
        assert "negative" in str(e) and e.line == line, text


def test_mst_weight_finite_bound():
    doc = parse("""p gnf 2 0
ugraph 2 1 1
edge 1 0 1 1
mst_weight_leq 1 7 2
""")
    assert doc.preds[0].args == (7,)
    assert "mst_weight_leq 1 7 2" in serialize(doc)
    assert parse(serialize(doc)) == doc


def test_var_role_collisions_report_first_line():
    e = err("p gnf 2 0\nugraph 2 1 1\nedge 1 0 1 1\ncomponents_leq 1 1 1\n")
    assert "already an edge or task var (line 3)" in str(e)
    assert e.line == 4
    e = err("p gnf 2 0\nugraph 2 1 1\ncomponents_leq 1 1 1\nedge 1 0 1 1\n")
    assert "already a predicate atom (line 3)" in str(e)
    e = err("p gnf 2 0\nugraph 2 0 1\n"
            "components_leq 1 1 1\ncomponents_leq 1 1 1\n")
    assert "already a predicate atom (line 3)" in str(e)


# Each graph and the processor have room for one more member; every line
# of BAD_DECLARATIONS, appended as line 8, breaks one declaration rule.
ROOM = """p gnf 9 0
digraph 3 2 1
edge 1 0 1 1
ugraph 3 2 2
edge 2 0 1 2
processor 3
task 3 0 1 2 3
"""
BAD_DECLARATIONS = [
    "edge 1 0 3 4",
    "edge 2 -1 1 4",
    "edge 2 0 1 4 -1",
    "task 3 -1 1 2 4",
    "task 3 0 0 2 4",
    "reach 1 0 3 5",
    "reach 2 0 1 5",  # an undirected graph
    "reach 3 0 1 5",  # a processor
    "distance_leq 2 0 1 1 5",
    "distance_leq 1 0 1 -1 5",
    "maxflow_geq 1 0 1 -1 5",
    "maxflow_geq 1 1 1 2 5",
    "maxflow_geq 1 0 3 1 5",
    "maxflow_geq 2 0 1 1 5",
    "components_leq 1 1 5",  # a directed graph
    "components_leq 2 -1 5",
    "mst_weight_leq 2 -1 5",
    "mst_weight_leq 1 7 5",
    "mst_edge 2 1 5",  # var 1 is an edge of graph 1 only
    "mst_edge 1 1 5",
    "schedulable 1 5",  # a graph
    "digraph -2 0 4",
]


def declare_in_code(line):
    """Add the declaration of ``line`` to ROOM's document in code and build
    it: build_instance checks every declaration, through gnf.VarOwners and
    the gnf check helpers."""
    doc = gnf.GnfDocument(9, graphs={
        1: gnf.GraphDecl(1, True, 3, [gnf.EdgeDecl(1, 0, 1, 1)]),
        2: gnf.GraphDecl(2, False, 3, [gnf.EdgeDecl(2, 0, 1, 2)])},
        procs={3: gnf.ProcDecl(3, [gnf.TaskDecl(3, 0, 1, 2, 3)])})
    head, *tokens = line.split()
    oid, *args = [int(t) for t in tokens]
    if head in ("digraph", "ugraph"):
        n, gid = oid, args[1]  # a code-built graph has no m of its own
        doc.graphs[gid] = gnf.GraphDecl(gid, head == "digraph", n)
    elif head == "edge":
        doc.graphs[oid].edges.append(gnf.EdgeDecl(oid, *args))
    elif head == "task":
        doc.procs[oid].tasks.append(gnf.TaskDecl(oid, *args))
    else:
        doc.preds.append(gnf.PredDecl(head, oid, tuple(args[:-1]), args[-1]))
    build_instance(doc)


@pytest.mark.parametrize("line", BAD_DECLARATIONS)
def test_parser_and_theories_apply_the_same_rules(line):
    e = err(ROOM + line + "\n")
    assert e.line == 8
    with pytest.raises(ValueError) as info:
        declare_in_code(line)
    assert str(e) == "line 8: %s" % info.value


def test_same_edge_var_allowed_across_graphs():
    doc = parse("""p gnf 1 0
ugraph 2 1 1
edge 1 0 1 1
ugraph 2 1 2
edge 2 0 1 1
""")
    assert len(doc.graphs) == 2


# -- round trips ---------------------------------------------------------------

@pytest.mark.parametrize("doc", [
    gen_maze(3, 3, 5),
    gen_flow(3, 3, "random1to4", 2, demand=2),
    gen_flow(3, 3, "unit", 4, demand=2),
    gen_sched(8, 2, 30, 3),
], ids=["maze", "flow-random", "flow-unit", "sched"])
def test_serialize_parse_round_trip(doc):
    text = serialize(doc)
    again = parse(text)
    assert again == doc
    assert serialize(again) == text


def test_meta_survives_round_trip():
    doc = parse("p gnf 0 0\nc meta maze 4 4 2 0 15\nc plain comment\n")
    assert doc.meta == {"maze": ["4", "4", "2", "0", "15"]}
    assert "c meta maze 4 4 2 0 15" in serialize(doc)


def test_parse_model_reads_v_lines():
    values = parse_model("c noise\nv 1 -2 0\nv 3 0\n", 3)
    assert values == [None, True, False, True]
    values = parse_model("v 1 -2 9 0\nv 3 0\n", 3)
    assert values == [None, True, False, True]
    with pytest.raises(GnfError) as info:
        parse_model("v 1 0\n", 2)
    assert "missing var 2" in str(info.value)


def test_parse_model_reports_the_line_of_a_malformed_token():
    with pytest.raises(GnfError) as info:
        parse_model("c noise\nv 1 0\nv 2 x 0\n", 2)
    assert info.value.line == 3
    assert str(info.value).startswith("line 3: model line expects integers")


# Tokens Python's int() reads but a GNF integer field does not: a plus
# sign, an underscore and a non-ASCII digit, each read by int() as 1 or 11.
NON_GNF_INTS = ["+1", "1_1", "\u0661"]
# A document of every line kind that holds integers: a run of three edge
# lines, an edge line alone, an atom line, a task line and a clause tail of
# three lines. Each place names the line that takes the token and the
# field it replaces, as a format of the token.
INT_DOC = ["p gnf 20 3", "digraph 12 3 1", "edge 1 0 1 1 1", "edge 1 1 2 2 1",
           "edge 1 2 0 3 1", "ugraph 2 1 2", "edge 2 0 1 4 1",
           "reach 1 0 2 5", "processor 1", "task 1 0 1 5 6", "1 2 0",
           "-3 4 0", "5 0"]
INT_PLACES = {
    "header": (1, "p gnf %s5 3"),
    "edge in a block": (4, "edge 1 1 2 2 %s"),
    "edge alone": (7, "edge 2 0 1 4 %s"),
    "atom": (8, "reach 1 0 %s 5"),
    "task": (10, "task 1 0 %s 5 6"),
    "clause in a block": (12, "-3 %s 0"),
    "clause alone": (11, "-3 %s 0"),
}


def int_doc(place, token):
    """INT_DOC with ``token`` at ``place``; the clause alone ends a
    document whose only clause line it is."""
    ln, line = INT_PLACES[place]
    lines = INT_DOC[:]
    if place == "clause alone":
        lines[0] = "p gnf 20 1"
        del lines[ln:]
    lines[ln - 1] = line % token
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("token", NON_GNF_INTS)
@pytest.mark.parametrize("place", INT_PLACES)
def test_integer_fields_are_ascii_decimal(place, token):
    ln, _ = INT_PLACES[place]
    parse(int_doc(place, str(int(token))))  # the same value, written plainly
    e = err(int_doc(place, token))
    assert e.line == ln and " expects integers, got [" in str(e)
    assert token in str(e).split(", got ")[1]


@pytest.mark.parametrize("token", NON_GNF_INTS)
def test_model_line_integers_are_ascii_decimal(token):
    assert parse_model("v 1 -2 0\nv -3 1 0\n", 3) == [None, True, False,
                                                        False]
    with pytest.raises(GnfError) as info:
        parse_model("v 1 -2 0\nv -3 %s 0\n" % token, 3)
    assert info.value.line == 2
    assert str(info.value) == (
        "line 2: model line expects integers, got %r" % ["-3", token, "0"])


def test_a_non_gnf_integer_is_named_as_written():
    e = err(int_doc("edge alone", "1_1"))
    assert str(e) == "line 7: edge expects integers, got %r" % [
        "2", "0", "1", "4", "1_1"]
    e = err(int_doc("atom", "+1"))
    assert str(e) == "line 8: reach expects integers, got %r" % [
        "1", "0", "+1", "5"]
    e = err(int_doc("header", "1_1"))
    assert str(e) == "line 1: header expects integers, got ['1_15', '3']"
    # An "inf" bound is no integer field, so the list leaves it out.
    e = err("p gnf 4 0\nugraph 2 1 1\nedge 1 0 1 1\n"
            "mst_weight_leq 1 inf +4\n")
    assert str(e) == "line 4: mst_weight_leq expects integers, got %r" % [
        "1", "+4"]


# -- clause blocks -------------------------------------------------------------

def per_line_clauses(text):
    """The per-line clause reader, as `parse` ran it on every clause line
    before it read blocks, for documents made of a header, clause, comment
    and blank lines. Any other line is an unknown declaration."""
    clauses = []
    declared_clauses = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        head = tokens[0]
        if head.lstrip("-").isdigit() and declared_clauses is not None:
            if not all(re.fullmatch("-?[0-9]+", t) for t in tokens):
                raise GnfError("clause expects integers, got %r" % tokens, ln)
            lits = list(map(int, tokens))
            if lits.pop() != 0:
                raise GnfError("clause not terminated by 0", ln)
            if 0 in lits:
                raise GnfError("0 inside clause", ln)
            if lits and (max(lits) > nvars or min(lits) < -nvars):
                v = next(abs(l) for l in lits if abs(l) > nvars)
                raise GnfError("var %d out of range 1..%d" % (v, nvars), ln)
            clauses.append(lits)
        elif head == "c":
            continue
        elif head == "p" and declared_clauses is None:
            nvars, declared_clauses = int(tokens[2]), int(tokens[3])
        else:
            raise GnfError("unknown declaration %r" % head, ln)
    if len(clauses) != declared_clauses:
        raise GnfError("header declared %d clauses, found %d"
                       % (declared_clauses, len(clauses)))
    return clauses


def outcome(read, text):
    """The clauses ``read`` finds in ``text``, or its error text and line."""
    try:
        return read(text)
    except GnfError as e:
        return str(e), e.line


# Tokens the per-line reader reads each in its own way: as 0, as a
# literal, as a non-integer, or, at the head of a line, as a declaration.
ODD_TOKENS = ["-0", "+0", "00", "0_0", "+2", "2.5", "x", "\u0661", "\u00b2",
              "0", "10", "1-2", "-", "--1"]
ODD_LINES = ["", " \t ", "c", "c 1 0", "c x 0", "0", " 0\t", "10", "1 2",
             "1 0 2 0", "-1 00 0", "1 -0"]
FUZZ_VARS = 9


def clause_line(rng):
    """A clause line over vars 1..FUZZ_VARS with blanks and tabs."""
    lits = [rng.choice((1, -1)) * rng.randint(1, FUZZ_VARS)
            for _ in range(rng.randint(0, 4))]
    blank = lambda: rng.choice((" ", " ", " ", "  ", "\t", " \t"))
    text = blank().join(map(str, lits + [0]))
    if rng.random() < 0.1:
        text = blank() + text
    if rng.random() < 0.1:
        text += blank()
    return text


def odd_line(rng, line):
    """``line`` broken or changed in one of the ways the fuzz mixes in."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(ODD_LINES)
    if kind == 1:  # an odd token in place of one, or added
        tokens = line.split()
        at = rng.randrange(len(tokens) + 1)
        tokens[at:at + rng.randrange(2)] = [rng.choice(ODD_TOKENS)]
        return " ".join(tokens)
    if kind == 2:  # a var out of range
        return "%d %s" % (rng.choice((1, -1)) * (FUZZ_VARS + 1), line)
    return line.rstrip()[:-1]  # no longer terminated by 0


def fuzz_documents(rng, block, count):
    """``count`` documents whose clause tails are 1, block - 1, block,
    block + 1 or about 2 * block lines long, most of them with a few odd
    lines, many near a block boundary."""
    pool = [clause_line(rng) for _ in range(3 * block)]
    sizes = (1, block - 1, block, block + 1, 2 * block)
    for _ in range(count):
        n = max(1, rng.choice(sizes) + rng.choice((0, 0, -1, 1)))
        start = rng.randrange(len(pool) - n)
        lines = pool[start:start + n]
        declared = n
        for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
            at = rng.choice((0, block, 2 * block, rng.randrange(n)))
            at = min(len(lines) - 1, max(0, at + rng.randint(-1, 1)))
            new = odd_line(rng, lines[at])
            if rng.random() < 0.5:
                lines.insert(at, new)
            else:
                lines[at] = new
        if rng.random() < 0.1:
            declared += rng.choice((-1, 1))
        nvars = FUZZ_VARS - (rng.random() < 0.1)
        header = "p gnf %d %d" % (nvars, declared)
        yield "\n".join([header] + lines) + "\n"


@pytest.mark.parametrize("block, count", [(4, 3000), (gnf.BLOCK, 300)])
def test_clause_blocks_read_as_the_per_line_reader(monkeypatch, block, count):
    monkeypatch.setattr(gnf, "BLOCK", block)
    rng = random.Random(block)
    read = {"clauses": 0, "errors": 0}
    for text in fuzz_documents(rng, block, count):
        want = outcome(per_line_clauses, text)
        assert outcome(lambda t: parse(t).clauses, text) == want, text
        read["errors" if isinstance(want, tuple) else "clauses"] += 1
    assert min(read.values()) > count // 5, read


# -- edge blocks ---------------------------------------------------------------

def per_line_outcome(text):
    """What ``parse`` gives with every edge line read one at a time: its
    document, or its error text and line."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gnf, "_edge_columns", lambda lines: None)
        return outcome(parse, text)


EDGE_NODES = 5


def edge_line(rng, gid, var):
    return "edge %d %d %d %d %d" % (gid, rng.randrange(EDGE_NODES),
                                    rng.randrange(EDGE_NODES), var,
                                    rng.randrange(10))


def odd_edge_line(rng, evars, g, at, block, atom, nvars):
    """An edge line of graph ``g + 1`` at place ``at`` of its run, whose
    vars are ``evars[g]``, changed in one of the ways the fuzz mixes in:
    an edge fault of BAD_EDGES, a four- or six-field line, a comment or
    blank line, an edge of the other graph, or a var that an earlier
    block of the same graph or the other graph has."""
    at = min(at, len(evars[g]) - 1)  # runs[g] may have grown by a line
    gid, u, v, var, w = edge_line(rng, g + 1, evars[g][at]).split()[1:]
    kind = rng.randrange(12)
    if kind == 0:  # a non-integer token
        fields = [gid, u, v, var, w]
        fields[rng.randrange(5)] = rng.choice(("x", "2.5", "edge"))
        return "edge " + " ".join(fields)
    if kind == 1:
        return "edge 9 %s %s %s %s" % (u, v, var, w)  # graph not declared
    if kind == 2:  # a var of this graph's run, often one block back
        back = min(at, rng.choice((1, block, block + 1, at)))
        var = evars[g][at - back]
    elif kind == 3:
        var = rng.choice((0, -1, nvars + 1))
    elif kind == 4:
        var = atom
    elif kind == 5:
        u, v = rng.choice(((-1, v), (u, -1), (EDGE_NODES, v), (u, EDGE_NODES)))
    elif kind == 6:
        w = -1
    elif kind == 7:
        return "edge %s %s %s %s" % (gid, u, v, var)
    elif kind == 8:
        return "edge %s %s %s %s %s 1" % (gid, u, v, var, w)
    elif kind == 9:
        return rng.choice(("c edge 1 0 1 1 1", "", " \t"))
    elif kind == 10:  # the other graph's edge inside this run
        return edge_line(rng, 3 - int(gid), rng.randint(1, nvars - 2))
    else:  # a var the other graph has, which this one may take
        var = rng.choice(evars[1 - g])
    return "edge %s %s %s %s %s" % (gid, u, v, var, w)


def edge_fuzz_documents(rng, block, count):
    """``count`` documents with an undirected graph 1 and a directed graph
    2, whose edge runs are 1, block - 1, block, block + 1 or about 2 *
    block lines long, most of them with a few odd lines, many near a block
    boundary. An atom on graph 1 comes before the edges, and one after them
    clashes with an edge var now and then."""
    sizes = (1, block - 1, block, block + 1, 2 * block)
    for _ in range(count):
        lengths = [max(1, rng.choice(sizes) + rng.choice((0, 0, -1, 1)))
                   for _ in range(2)]
        nvars = max(lengths) + 2
        atom = nvars  # and nvars - 1, the atom after the edges
        evars = [rng.sample(range(1, nvars - 1), n) for n in lengths]
        runs = [[edge_line(rng, g + 1, var) for var in evars[g]]
                for g in range(2)]
        declared = [len(run) for run in runs]
        for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
            g = rng.randrange(2)
            at = rng.choice((0, block, 2 * block, rng.randrange(len(runs[g]))))
            at = min(len(runs[g]) - 1, max(0, at + rng.randint(-1, 1)))
            new = odd_edge_line(rng, evars, g, at, block, atom, nvars)
            if rng.random() < 0.5:
                runs[g].insert(at, new)
            else:
                runs[g][at] = new
        for g in range(2):
            if rng.random() < 0.1:  # one edge over the count, or one short
                declared[g] += rng.choice((-1, 1))
        last_atom = nvars - 1
        if rng.random() < 0.2:
            last_atom = rng.choice(evars[0] + evars[1])
        graph1 = "ugraph %d %d 1" % (EDGE_NODES, declared[0])
        graph2 = "digraph %d %d 2" % (EDGE_NODES, declared[1])
        atom_line = "components_leq 1 1 %d" % atom
        if rng.random() < 0.5:  # the runs meet with no line between them
            lines = [graph1, graph2, atom_line] + runs[0] + runs[1]
        else:
            lines = [graph1, atom_line] + runs[0] + [graph2] + runs[1]
        lines.append("components_leq 1 2 %d" % last_atom)
        yield "\n".join(["p gnf %d 0" % nvars] + lines) + "\n"


@pytest.mark.parametrize("block, count", [(4, 2000), (gnf.BLOCK, 150)])
def test_edge_blocks_read_as_the_per_line_reader(monkeypatch, block, count):
    monkeypatch.setattr(gnf, "BLOCK", block)
    rng = random.Random(block)
    read = {"documents": 0, "errors": 0}
    for text in edge_fuzz_documents(rng, block, count):
        want = per_line_outcome(text)
        assert outcome(parse, text) == want, text
        read["errors" if isinstance(want, tuple) else "documents"] += 1
    assert min(read.values()) > count // 5, read


@functools.lru_cache(maxsize=None)
def sched_text():
    """A sched document whose 20,781 clause lines start at line 309."""
    return serialize(gen_sched(100, 3, 4, 1000))


def sched_lines():
    lines = sched_text().splitlines()
    assert lines[307].startswith("schedulable") and lines[308].endswith(" 0")
    return lines


# Line 309 starts the first block, 820 ends it, 821 starts the second, and
# 20,000 lies in the 39th.
BLOCK_EDGES = [309, 308 + gnf.BLOCK, 309 + gnf.BLOCK, 20000]
BREAKS = [
    (lambda line: line[:-2], "clause not terminated by 0"),
    (lambda line: "0 " + line, "0 inside clause"),
    (lambda line: "10304 " + line, "var 10304 out of range 1..10303"),
    (lambda line: line.replace(" ", " x ", 1),
     lambda line: "clause expects integers, got %r" % line.split()),
]


@pytest.mark.parametrize("ln", BLOCK_EDGES)
@pytest.mark.parametrize("brk, message", BREAKS,
                         ids=["unterminated", "zero", "range", "token"])
def test_clause_error_at_a_block_edge(ln, brk, message):
    lines = sched_lines()
    lines[ln - 1] = brk(lines[ln - 1])
    if callable(message):
        message = message(lines[ln - 1])
    e = err("\n".join(lines) + "\n")
    assert str(e) == "line %d: %s" % (ln, message) and e.line == ln


def test_comment_and_blank_line_inside_a_block(monkeypatch):
    lines = sched_lines()
    at = 308 + gnf.BLOCK + 100  # after line 920
    lines[at:at] = ["c inside the second block", ""]
    tried = []
    read_block = gnf._clause_block
    monkeypatch.setattr(gnf, "_clause_block", lambda block, nvars: (
        tried.append(len(block)) or read_block(block, nvars)))
    doc = parse("\n".join(lines) + "\n")
    assert doc.clauses == gen_sched(100, 3, 4, 1000).clauses
    # The second block goes line by line, and no line is tried twice.
    assert sum(tried) == len(lines) - 308


def transient_bytes(text):
    """The peak of memory ``parse(text)`` allocates, less what the document
    it returns keeps."""
    tracemalloc.start()
    try:
        doc = parse(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert doc.clauses
    return peak - kept


def test_parse_holds_one_block_of_clauses_at_a_time(monkeypatch):
    # Blocks take 1.35 MiB on CPython 3.12 and 1.51 MiB on 3.10 and 3.11,
    # and the per-line reader alone 1.31 and 1.47 MiB, most of it the list
    # of lines. Reading the whole clause tail as one block takes 3.53 and
    # 4.10 MiB.
    bound = 2.5 * 2 ** 20
    text = sched_text()
    assert transient_bytes(text) < bound
    monkeypatch.setattr(gnf, "BLOCK", len(text))
    assert transient_bytes(text) > bound


@functools.lru_cache(maxsize=None)
def flow_text():
    """A flow document whose 574 edge lines of graph 1 are lines 4 to 577;
    the var of the edge on line N is N - 3."""
    return serialize(gen_flow(14, 14))


def flow_lines():
    lines = flow_text().splitlines()
    assert lines[2] == "digraph 198 574 1" and lines[577].startswith("maxflow")
    return lines


def set_field(lines, ln, at, value):
    """Set field ``at`` (0 for the gid) of the edge on line ``ln``."""
    tokens = lines[ln - 1].split()
    tokens[at + 1] = value
    lines[ln - 1] = " ".join(tokens)
    return ln


def repeat_var(lines, ln):
    """Give the edge on line ``ln`` the var of the edge before it or, on
    the first edge line, the edge after it the var of line ``ln``; return
    the line of the repeat."""
    if ln == 4:
        return set_field(lines, 5, 3, "1")
    return set_field(lines, ln, 3, str(ln - 4))


# Line 4 starts the first block, 515 ends it, 516 starts the second, and
# 577 ends it.
FLOW_EDGES = [4, 3 + gnf.BLOCK, 4 + gnf.BLOCK, 577]
EDGE_BREAKS = {
    "endpoint": (lambda lines, ln: set_field(lines, ln, 1, "198"),
                 "edge endpoint out of range"),
    "weight": (lambda lines, ln: set_field(lines, ln, 4, "-1"),
               "negative edge weight"),
    "repeat": (repeat_var,
               lambda line: "var %s already an edge of graph 1"
               % line.split()[4]),
    "range": (lambda lines, ln: set_field(lines, ln, 3, "576"),
              "var 576 out of range 1..575"),
    "token": (lambda lines, ln: set_field(lines, ln, 2, "x"),
              lambda line: "edge expects integers, got %r" % line.split()[1:]),
}


@pytest.mark.parametrize("ln", FLOW_EDGES)
@pytest.mark.parametrize("kind", EDGE_BREAKS)
def test_edge_error_at_a_block_edge(ln, kind):
    brk, message = EDGE_BREAKS[kind]
    lines = flow_lines()
    at = brk(lines, ln)
    if callable(message):
        message = message(lines[at - 1])
    e = err("\n".join(lines) + "\n")
    assert str(e) == "line %d: %s" % (at, message) and e.line == at


def test_odd_lines_inside_an_edge_block(monkeypatch):
    lines = flow_lines()
    want = gen_flow(14, 14).graphs
    # A four-field line in the first block, and a comment and a blank line
    # in the second.
    lines[9] = lines[9].rsplit(" ", 1)[0]
    at = 3 + gnf.BLOCK + 20  # after line 535
    lines[at:at] = ["c inside the second block", ""]
    tried = []
    read_block = gnf._edge_columns
    monkeypatch.setattr(gnf, "_edge_columns", lambda block: (
        tried.append(len(block)) or read_block(block)))
    assert parse("\n".join(lines) + "\n").graphs == want
    # The first block goes line by line, the second run ends at the
    # comment, and no edge line is tried twice.
    assert tried == [gnf.BLOCK, 20, 574 - gnf.BLOCK - 20]


def edge_block_peaks(text):
    """The most memory that each edge block's conversion held at once, in
    the order ``parse(text)`` converted them."""
    peaks = []
    read_block = gnf._edge_columns

    def measured(block):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        columns = read_block(block)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return columns

    tracemalloc.start()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gnf, "_edge_columns", measured)
            parse(text)
    finally:
        tracemalloc.stop()
    return peaks


def test_parse_holds_one_block_of_edges_at_a_time(monkeypatch):
    # The 5,952 edge lines of a 32x32 maze form runs of 1,984 and 3,968
    # lines. A 512-line block's conversion peaks at 0.22 MiB on CPython
    # 3.11, and a whole run at 1.36 MiB.
    bound = 2 ** 19
    text = serialize(gen_maze(32, 32, 0))
    peaks = edge_block_peaks(text)
    assert len(peaks) == 12 and max(peaks) < bound
    monkeypatch.setattr(gnf, "BLOCK", len(text))
    peaks = edge_block_peaks(text)
    assert len(peaks) == 2 and max(peaks) > bound
