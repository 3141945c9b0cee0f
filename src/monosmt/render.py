"""ASCII rendering of maze models.

A width x height maze renders as a (2*height+1) x (2*width+1) character
grid: '#' walls, ' ' corridors, 'S'/'F' on the start and finish cells. A
wall between two adjacent cells opens exactly when the model makes the
corresponding directed-copy arc true; a true arc between cells that are not
neighbours is an error.
"""
from __future__ import annotations

from .gnf import GnfDocument, GnfError


def render_maze(doc: GnfDocument, values) -> str:
    meta = doc.meta.get("maze")
    if meta is None:
        raise GnfError("document carries no maze metadata")
    width, height, g2_gid, start, finish = (int(x) for x in meta)
    g2 = doc.graphs.get(g2_gid)
    cells = width * height
    if (g2 is None or not g2.directed or min(width, height) < 1
            or g2.n != cells or not 0 <= start < cells
            or not 0 <= finish < cells):
        raise GnfError("maze metadata does not match graph %d" % g2_gid)
    rows = [bytearray(b"#" * (2 * width + 1)) for _ in range(2 * height + 1)]
    for node in range(cells):
        r, c = divmod(node, width)
        rows[2 * r + 1][2 * c + 1] = ord(" ")
    for e in g2.edges:
        if not values[e.var]:
            continue
        ru, cu = divmod(e.u, width)
        rv, cv = divmod(e.v, width)
        if abs(ru - rv) + abs(cu - cv) != 1:
            raise GnfError("true arc %d -> %d of graph %d joins no two "
                           "neighbouring cells" % (e.u, e.v, g2_gid))
        rows[ru + rv + 1][cu + cv + 1] = ord(" ")
    for node, mark in ((start, b"S"), (finish, b"F")):
        r, c = divmod(node, width)
        rows[2 * r + 1][2 * c + 1] = mark[0]
    return "\n".join(row.decode("ascii") for row in rows)
