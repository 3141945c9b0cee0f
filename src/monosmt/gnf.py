"""GNF reader and writer.

GNF extends DIMACS CNF with typed declarations that bind solver variables to
graph edges, scheduling tasks, and predicate atoms. The format is line
oriented; `c` lines are comments anywhere, except that `c meta ...` lines
carry generator metadata that survives a round trip.

    p gnf <nVars> <nClauses>
    <lit> ... 0                      clause, DIMACS signed vars
    digraph <n> <m> <gid>            directed graph declaration
    ugraph <n> <m> <gid>             undirected graph declaration
    edge <gid> <u> <v> <var> [<w>]   weight defaults to 1
    reach <gid> <u> <v> <var>
    distance_leq <gid> <u> <v> <C> <var>
    maxflow_geq <gid> <s> <t> <C> <var>
    components_leq <gid> <C> <var>
    mst_weight_leq <gid> <C|inf> <var>
    mst_edge <gid> <edgeVar> <var>
    processor <pid>
    task <pid> <A> <L> <D> <var>
    schedulable <pid> <var>

Graphs and processors must be declared before their members; mst_edge must
follow the edge it names. Atom vars are globally unique and distinct from
every edge and task var. Edge vars may repeat across graphs but not within
one; the same holds for task vars across processors. `VarOwners` is the one
table of these rules on declaration vars, and the one place that checks an
atom, by the rules of `PREDICATES`: `parse` consults it per declaration line
and per block of edge lines, and `build.build_instance` per graph,
processor and atom of a document built in code. The theories
take their atoms as GNF allows them and check none of these rules.

`parse` reads clause lines `BLOCK` at a time, and each run of consecutive
edge lines in blocks of up to `BLOCK` lines, with one split and one
`map(int, ...)` per block. It keeps a block only when the per-line reader
would accept every line of it with the same result: `_clause_block` checks
a clause block, and `_edge_columns` and `parse`'s `read_edges` an edge
block. Any other block goes through the per-line reader, the only one to
report a clause or edge error. No line is tried in two blocks, and a block,
not the whole document, bounds the memory the conversion holds.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import count, islice, takewhile

from .gcpause import paused

# Predicate kind -> (the declaration of its owner, the names of its
# arguments between the owner id and the atom var). A bound is named C, and
# C|inf where it may be "inf".
PREDICATES = {
    "reach": ("digraph", ("u", "v")),
    "distance_leq": ("digraph", ("u", "v", "C")),
    "maxflow_geq": ("digraph", ("s", "t", "C")),
    "components_leq": ("ugraph", ("C",)),
    "mst_weight_leq": ("ugraph", ("C|inf",)),
    "mst_edge": ("ugraph", ("edgeVar",)),
    "schedulable": ("processor", ()),
}


# The most lines that parse tries to read as clauses or edges at once. 512
# lines convert almost as fast as the whole clause tail, for a small part
# of its transient memory.
BLOCK = 512
# Lines of ASCII digits, minus signs and blanks, each ending in a 0 token.
_CLAUSE_LINE = r"[-0-9 \t]*(?<![^ \t\n])0[ \t]*"
_CLAUSE_LINES = re.compile(r"%s(?:\n%s)*" % (_CLAUSE_LINE, _CLAUSE_LINE))
# Whether a line after the first of an edge run continues the run.
_EDGE_LINE = re.compile("edge ").match


class GnfError(Exception):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


@dataclass(slots=True)
class EdgeDecl:
    gid: int
    u: int
    v: int
    var: int
    weight: int = 1


@dataclass
class GraphDecl:
    gid: int
    directed: bool
    n: int
    edges: list = field(default_factory=list)


@dataclass(slots=True)
class TaskDecl:
    pid: int
    arrival: int
    duration: int
    deadline: int
    var: int


@dataclass
class ProcDecl:
    pid: int
    tasks: list = field(default_factory=list)


@dataclass(slots=True)
class PredDecl:
    kind: str
    owner: int  # gid or pid
    args: tuple
    var: int


@dataclass
class GnfDocument:
    nvars: int = 0
    clauses: list = field(default_factory=list)
    graphs: dict = field(default_factory=dict)
    procs: dict = field(default_factory=dict)
    preds: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def _usage(kind):
    owner, names = PREDICATES[kind]
    words = ["pid" if owner == "processor" else "gid", *names, "var"]
    return "%s expects %s" % (kind, " ".join("<%s>" % w for w in words))


def check_graph(n, m):
    """Reject a graph of n nodes and m edges that GNF does not allow."""
    if n < 0 or m < 0:
        raise ValueError("negative graph size")


def check_edge(n, u, v, weight):
    """Reject an edge of an n-node graph that GNF does not allow."""
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError("edge endpoint out of range")
    if weight < 0:
        raise ValueError("negative edge weight")


def check_var(var, nvars):
    """Reject a var that is not one of a document's ``nvars`` vars."""
    if not 1 <= var <= nvars:
        raise ValueError("var %d out of range 1..%d" % (var, nvars))


def check_task(arrival, duration):
    """Reject a task that GNF does not allow."""
    if arrival < 0 or duration < 1:
        raise ValueError("task needs A >= 0 and L >= 1")


# An owner's words for a var named twice among its edges or tasks.
_CLASH = {"graph": "var %d already an edge of graph %d",
          "processor": "var %d already a task on processor %d"}


def _taken(var, what, line):
    """The clash of ``var`` with the ``what`` it already is, naming its
    first declaring ``line`` where that is known."""
    message = "var %d is already %s" % (var, what)
    return ValueError(message if line is None
                      else "%s (line %d)" % (message, line))


class VarOwners:
    """Every rule on the declaration vars and the atoms of a document of
    ``nvars`` vars and ``graphs``, its gid -> GraphDecl table, whose
    declarations are claimed in reading order: ``parse`` claims them line
    by line, ``build.build_instance`` in the order ``serialize`` writes
    them.

    A var is in range, and it is an edge or task var or an atom var, never
    both. An edge var is named once per graph and a task var once per
    processor; an atom var is no other atom's. An atom's kind is known and
    its owner declared, it has as many arguments as PREDICATES names, an
    mst_edge atom's one argument is an edge var of its graph. A graph atom
    then fits its graph's direction, its nodes are in range, its bounds are
    not negative, and a flow's source is not its sink. A broken rule raises
    ValueError in the parser's words, and a clash names the first declaring
    line where the caller gave it.
    """

    __slots__ = ("nvars", "graphs", "owned", "svars", "pvars", "lines")

    def __init__(self, nvars, graphs):
        self.nvars = nvars
        self.graphs = graphs  # gid -> GraphDecl, read by atom
        edges = {}
        # An owner's word -> its id -> the vars of its edges or tasks. A
        # kind's owner in PREDICATES, "digraph" or "ugraph", names graphs.
        self.owned = {"graph": edges, "digraph": edges, "ugraph": edges,
                      "processor": {}}
        self.svars = set()  # edge and task vars
        self.pvars = {}  # atom var -> its declaring line, where given
        self.lines = {}  # edge or task var -> its first declaring line

    def declare(self, owner, oid, members=(), check=None):
        """Declare ``owner`` ("graph" or "processor") ``oid`` with
        ``members``, the edge or task records of a document built in code.
        Each is passed to ``check`` and then its var is claimed, as the
        parser reads them line by line, so the first that breaks a rule
        names it."""
        self.owned[owner][oid] = set()
        claimed = members and self.claim(owner, oid, [m.var for m in members])
        for m in members:
            check(m)
            if not claimed:
                self.member(owner, oid, m.var)

    def member(self, owner, oid, var, ln=None):
        """Claim ``var``, declared at line ``ln``, for an edge or a task of
        ``owner`` ``oid``."""
        owned = self.owned[owner][oid]
        if var in owned:
            raise ValueError(_CLASH[owner] % (var, oid))
        if not 0 < var <= self.nvars:
            check_var(var, self.nvars)
        if var in self.pvars:
            raise _taken(var, "a predicate atom", self.pvars[var])
        owned.add(var)
        self.svars.add(var)
        self.lines.setdefault(var, ln)

    def claim(self, owner, oid, members, ln=None):
        """Claim ``members``, declared one a line from line ``ln`` on, as
        ``member`` would one by one, and return True; or, where ``member``
        would raise, claim none and return False."""
        owned = self.owned[owner][oid]
        fresh = set(members)
        if (len(fresh) != len(members) or not fresh.isdisjoint(owned)
                or not fresh.isdisjoint(self.pvars) or members and (
                    min(members) < 1 or max(members) > self.nvars)):
            return False
        owned |= fresh
        self.svars |= fresh
        if ln is not None:
            lines = self.lines
            for var, line in zip(members, count(ln)):
                lines.setdefault(var, line)
        return True

    def atom(self, kind, oid, args, var, ln=None):
        """Claim ``var``, declared at line ``ln``, for a ``kind`` atom on
        owner ``oid`` with ``args``, its arguments between the owner id
        and the var, after every rule on it; return the kind's owner
        declaration, as PREDICATES names it."""
        if kind not in PREDICATES:
            raise ValueError("unknown declaration %r" % kind)
        owner, names = PREDICATES[kind]
        if len(args) != len(names):  # parse counts a line's tokens first
            raise ValueError(_usage(kind))
        owned = self.owned[owner]
        if oid not in owned:
            raise ValueError("%s %d not declared" % (
                "processor" if owner == "processor" else "graph", oid))
        if kind == "mst_edge" and args[0] not in owned[oid]:
            check_var(args[0], self.nvars)  # the range first
            raise ValueError("var %d is not an edge of graph %d"
                             % (args[0], oid))
        pvars = self.pvars
        if not 0 < var <= self.nvars or var in self.svars or var in pvars:
            check_var(var, self.nvars)
            if var in pvars:
                raise _taken(var, "a predicate atom", pvars[var])
            raise _taken(var, "an edge or task var", self.lines.get(var))
        if owner != "processor":
            g = self.graphs[oid]
            if owner != ("digraph" if g.directed else "ugraph"):
                raise ValueError("graph %d is %s" % (
                    oid, "directed" if g.directed else "undirected"))
            for name, x in zip(names, args):
                if name in ("u", "v", "s", "t") and not 0 <= x < g.n:
                    raise ValueError("node %d out of range" % x)
                if name[0] == "C" and x is not None and x < 0:
                    raise ValueError("negative bound")
            if kind == "maxflow_geq" and args[0] == args[1]:
                raise ValueError("flow source equals sink")
        pvars[var] = ln
        return owner


def _ints(tokens, ln, what):
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise GnfError("%s expects integers, got %r" % (what, tokens), ln)


def _clause_block(lines, nvars):
    """Return the clauses of ``lines``, or None unless every line is a
    clause that the per-line reader accepts. Each line must match the
    pattern, every token must be an int, which leaves only ASCII integers,
    and there must be as many zeros as lines, so that the 0 ending each
    line is its only one. The last check is the per-line range rule. The
    clauses are then the runs of ints between the zeros."""
    text = "\n".join(lines)
    if _CLAUSE_LINES.fullmatch(text) is None:
        return None
    try:
        ints = list(map(int, text.split()))
    except ValueError:  # a token such as "1-2" or "-"
        return None
    if (ints.count(0) != len(lines)
            or min(ints) < -nvars or max(ints) > nvars):
        return None
    clauses = []
    start = 0
    index = ints.index
    for _ in lines:
        end = index(0, start)
        clauses.append(ints[start:end])
        start = end + 1
    return clauses


def _edge_columns(lines):
    """Return the gid, u, v, var and weight columns of ``lines``, whose
    first tokens read "edge", or None unless each line has five integer
    fields. There must be six tokens per line, and every token but each
    sixth one must be an int, so that each line's "edge" is one of the
    sixth tokens: each line has six."""
    tokens = " ".join(lines).split()
    if len(tokens) != 6 * len(lines):
        return None
    del tokens[::6]
    try:
        ints = list(map(int, tokens))
    except ValueError:  # a field such as "x", or an "edge" out of place
        return None
    return [ints[i::5] for i in range(5)]


@paused
def parse(text: str) -> GnfDocument:
    doc = GnfDocument()
    declared_clauses = None
    declared_edges = {}
    owners = None  # the VarOwners of the header's nvars and doc.graphs

    def declare(head, args, ln):
        """Read one declaration line. The shared rules raise ValueError,
        which the caller reports at line ``ln``."""
        if head in PREDICATES:  # the most common line read here
            names = PREDICATES[head][1]
            if len(args) != len(names) + 2:
                raise GnfError(_usage(head), ln)
            # A C|inf bound, always the last argument, may read "inf".
            inf = "C|inf" in names and args[-2] == "inf"
            try:
                oid, *vals, var = map(int, (args[:-2] + args[-1:] if inf
                                            else args))
            except ValueError:
                raise GnfError("%s expects integers, got %r" % (head, args),
                               ln)
            if inf:
                vals.append(None)
            owners.atom(head, oid, vals, var, ln)
            doc.preds.append(PredDecl(head, oid, tuple(vals), var))
        elif head == "edge":
            if len(args) not in (4, 5):
                raise GnfError("edge expects <gid> <u> <v> <var> [<w>]", ln)
            gid, u, v, var, *weight = _ints(args, ln, head)
            g = doc.graphs.get(gid)
            if g is None:
                raise GnfError("graph %d not declared" % gid, ln)
            if len(g.edges) >= declared_edges[gid]:
                raise GnfError("graph %d declared %d edges"
                               % (gid, declared_edges[gid]), ln)
            weight = weight[0] if weight else 1
            check_edge(g.n, u, v, weight)
            owners.member("graph", gid, var, ln)
            g.edges.append(EdgeDecl(gid, u, v, var, weight))
        elif head in ("digraph", "ugraph"):
            if len(args) != 3:
                raise GnfError("%s expects <n> <m> <gid>" % head, ln)
            n, m, gid = _ints(args, ln, head)
            if gid in doc.graphs:
                raise GnfError("duplicate graph id %d" % gid, ln)
            check_graph(n, m)
            doc.graphs[gid] = GraphDecl(gid, head == "digraph", n)
            declared_edges[gid] = m
            owners.declare("graph", gid)
        elif head == "processor":
            if len(args) != 1:
                raise GnfError("processor expects <pid>", ln)
            pid = _ints(args, ln, head)[0]
            if pid in doc.procs:
                raise GnfError("duplicate processor id %d" % pid, ln)
            doc.procs[pid] = ProcDecl(pid)
            owners.declare("processor", pid)
        elif head == "task":
            if len(args) != 5:
                raise GnfError("task expects <pid> <A> <L> <D> <var>", ln)
            pid, a, dur, dl, var = _ints(args, ln, head)
            proc = doc.procs.get(pid)
            if proc is None:
                raise GnfError("processor %d not declared" % pid, ln)
            check_task(a, dur)
            owners.member("processor", pid, var, ln)
            proc.tasks.append(TaskDecl(pid, a, dur, dl, var))
        else:
            raise GnfError("unknown declaration %r" % head, ln)

    def read_clauses(block, ln):
        clauses = _clause_block(block, doc.nvars)
        if clauses is None:
            return False
        doc.clauses.extend(clauses)
        return True

    def read_edges(block, ln):
        """Read ``block``, the edge lines from line ``ln`` on, when each
        has five fields and the block as a whole keeps every rule that
        declare's edge branch checks line by line."""
        columns = _edge_columns(block)
        if columns is None:
            return False
        gids, us, vs, evars, weights = columns
        k = len(block)
        gid = gids[0]
        g = doc.graphs.get(gid)
        if (g is None or gids.count(gid) != k
                or len(g.edges) + k > declared_edges[gid]
                or min(us) < 0 or min(vs) < 0
                or max(us) >= g.n or max(vs) >= g.n or min(weights) < 0
                or not owners.claim("graph", gid, evars, ln)):
            return False
        g.edges.extend(map(EdgeDecl, gids, us, vs, evars, weights))
        return True

    lines = text.splitlines()
    rows = enumerate(lines, start=1)
    block_end = 0  # lines up to this one were tried in a block
    try:
        for ln, raw in rows:
            tokens = raw.split()
            if not tokens:
                continue
            head = tokens[0]
            # Most lines are clauses or edges; one before the header is
            # reported below.
            clause = head.lstrip("-").isdigit()
            if ((clause or head == "edge") and ln > block_end
                    and declared_clauses is not None):
                if clause:
                    block = lines[ln - 1:ln - 1 + BLOCK]
                    read = read_clauses
                else:  # a run of edge lines ends at the first other line
                    block = [raw, *takewhile(_EDGE_LINE, islice(
                        lines, ln, ln - 1 + BLOCK))]
                    read = read_edges
                block_end = ln - 1 + len(block)
                if read(block, ln):
                    skip = len(block) - 1
                    next(islice(rows, skip, skip), None)
                    continue
            if clause and declared_clauses is not None:
                lits = _ints(tokens, ln, "clause")
                if lits.pop() != 0:
                    raise GnfError("clause not terminated by 0", ln)
                if 0 in lits:
                    raise GnfError("0 inside clause", ln)
                for lit in lits:
                    check_var(abs(lit), nvars)
                doc.clauses.append(lits)
                continue
            if head == "c":
                if len(tokens) >= 3 and tokens[1] == "meta":
                    doc.meta[tokens[2]] = tokens[3:]
                continue
            if head == "p":
                if declared_clauses is not None:
                    raise GnfError("duplicate header", ln)
                if len(tokens) != 4 or tokens[1] != "gnf":
                    raise GnfError("header must be 'p gnf <vars> <clauses>'", ln)
                nvars, nclauses = _ints(tokens[2:], ln, "header")
                if nvars < 0 or nclauses < 0:
                    raise GnfError("negative counts in header", ln)
                doc.nvars = nvars
                declared_clauses = nclauses
                owners = VarOwners(nvars, doc.graphs)
                continue
            if declared_clauses is None:
                raise GnfError("content before 'p gnf' header", ln)
            declare(head, tokens[1:], ln)
    except ValueError as exc:
        raise GnfError(str(exc), ln) from None

    if declared_clauses is None:
        raise GnfError("missing 'p gnf' header")
    if len(doc.clauses) != declared_clauses:
        raise GnfError("header declared %d clauses, found %d"
                       % (declared_clauses, len(doc.clauses)))
    for gid, m in declared_edges.items():
        have = len(doc.graphs[gid].edges)
        if have != m:
            raise GnfError("graph %d declared %d edges, found %d"
                           % (gid, m, have))
    return doc


def serialize(doc: GnfDocument) -> str:
    out = ["p gnf %d %d" % (doc.nvars, len(doc.clauses))]
    for key in sorted(doc.meta):
        out.append("c meta %s %s" % (key, " ".join(doc.meta[key])))
    for gid in sorted(doc.graphs):
        g = doc.graphs[gid]
        out.append("%s %d %d %d" % ("digraph" if g.directed else "ugraph",
                                    g.n, len(g.edges), gid))
        for e in g.edges:
            out.append("edge %d %d %d %d %d" % (gid, e.u, e.v, e.var,
                                                e.weight))
    for pid in sorted(doc.procs):
        out.append("processor %d" % pid)
        for t in doc.procs[pid].tasks:
            out.append("task %d %d %d %d %d" % (pid, t.arrival, t.duration,
                                                t.deadline, t.var))
    for p in doc.preds:
        args = tuple("inf" if a is None else str(a) for a in p.args)
        out.append(" ".join((p.kind, str(p.owner)) + args + (str(p.var),)))
    for clause in doc.clauses:
        out.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(out) + "\n"


def parse_model(text: str, nvars: int):
    """Read `v` lines from solver output into a var -> bool list (1-based)."""
    values = [None] * (nvars + 1)
    for ln, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] != "v":
            continue
        for lit in _ints(tokens[1:], ln, "model line"):
            if lit == 0:
                continue
            var = abs(lit)
            if var <= nvars:
                values[var] = lit > 0
    if None in values[1:]:
        raise GnfError("model line missing var %d" % values.index(None, 1))
    return values
