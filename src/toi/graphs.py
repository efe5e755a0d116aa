"""Immutable simple graphs, standard families, the four graph products, and text I/O.

Vertices are dense integer ids ``0..n-1``.  Edges are stored canonically as
``(min, max)`` pairs.  Product graphs carry per-vertex ``(g, h)`` pair labels
with the row-major encoding ``g * |V(H)| + h`` so that certificates written
against products are byte-stable.  A product's edge tuples share one int
object per vertex id, which keeps large products smaller and faster to
build and free.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional


class GraphFormatError(ValueError):
    """A graph text document violates the ``p toi`` format."""


@dataclass(frozen=True)
class Graph:
    """A finite, simple, loopless undirected graph.

    Immutable after construction; all product operations allocate fresh
    graphs, so instances are safe to share across concurrent tasks.
    """

    n: int
    edges: frozenset
    labels: Optional[tuple] = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in self.edges:
            if not 0 <= u < v < self.n:
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                raise ValueError(f"edge {(u, v)} is not canonical or out of range")
        if self.labels is not None:
            if len(self.labels) != self.n:
                raise ValueError("labels must cover every vertex")
            # row-major over whole rows of n_h: labels[v] == divmod(v, n_h)
            n_h = max((h for _, h in self.labels), default=-1) + 1
            for v, (g, h) in enumerate(self.labels):
                if n_h < 1 or (g, h) != divmod(v, n_h):
                    raise ValueError(f"label {(g, h)} of vertex {v} breaks row-major encoding")
            if n_h and self.n % n_h:
                raise ValueError(f"labels are not a product grid: {self.n} "
                                 f"vertices in rows of {n_h}")

    @classmethod
    def _trusted(cls, n: int, edges: frozenset, labels=None):
        """``Graph(n, edges, labels)`` without the per-edge walk, for the
        text reader and the products, whose edges are canonical and in range
        by construction; n and the labels are still checked."""
        g = cls(n, frozenset(), labels)
        object.__setattr__(g, "edges", edges)
        return g

    @cached_property
    def adjacency(self) -> tuple:
        """Per-vertex neighbor tuples, ascending."""
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(nbrs)) for nbrs in adj)

    @cached_property
    def _degree_order(self) -> tuple:
        """Vertex ids by descending degree, ties ascending (a stable sort of
        ascending ids); the solver's vertex order.  Degrees are the bit
        counts of :attr:`_adjacency_masks`."""
        negdeg = [-mask.bit_count() for mask in self._adjacency_masks]
        return tuple(sorted(range(self.n), key=negdeg.__getitem__))

    @cached_property
    def _adjacency_masks(self) -> tuple:
        """Per-vertex neighbour bit masks, built in one pass over the edges
        without the adjacency tuples."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2


def _make(n: int, edge_iter: Iterable) -> Graph:
    return Graph(n, frozenset((min(u, v), max(u, v)) for u, v in edge_iter))


def complete_graph(t: int) -> Graph:
    if t < 1:
        raise ValueError("complete graph needs at least one vertex")
    return _make(t, itertools.combinations(range(t), 2))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return _make(n, (((i, (i + 1) % n)) for i in range(n)))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return _make(n, ((i, i + 1) for i in range(n - 1)))


def _product_labels(ng: int, nh: int) -> tuple:
    return tuple((g, h) for g in range(ng) for h in range(nh))


def _check_factors(g: Graph, h: Graph):
    if g.n == 0 or h.n == 0:
        raise ValueError("product factors must be nonempty")


def _id_rows(ng: int, nh: int) -> list:
    """The vertex ids of G x H as rows: ``rows[a][c] == a * nh + c``, one
    int object per id, shared by every edge tuple that names it."""
    ids = list(range(ng * nh))
    return [ids[a:a + nh] for a in range(0, ng * nh, nh)]


# Factor edges are canonical, so the products below emit every edge with
# u < v < n and pass them to Graph._trusted without _make's min/max.
def cartesian_product(g: Graph, h: Graph) -> Graph:
    """(g1,h1) ~ (g2,h2) iff they agree in one coordinate and step in the other."""
    _check_factors(g, h)
    rows = _id_rows(g.n, h.n)
    edges = []
    for row in rows:
        edges.extend([(row[c], row[d]) for c, d in h.edges])
    for c in range(h.n):
        edges.extend([(rows[a][c], rows[b][c]) for a, b in g.edges])
    return Graph._trusted(g.n * h.n, frozenset(edges), _product_labels(g.n, h.n))


def direct_product(g: Graph, h: Graph) -> Graph:
    """(g1,h1) ~ (g2,h2) iff both coordinates step along factor edges."""
    _check_factors(g, h)
    rows = _id_rows(g.n, h.n)
    edges = []
    append = edges.append
    for a, b in g.edges:
        ra, rb = rows[a], rows[b]
        for c, d in h.edges:
            append((ra[c], rb[d]))
            append((ra[d], rb[c]))
    return Graph._trusted(g.n * h.n, frozenset(edges), _product_labels(g.n, h.n))


def lexicographic_product(g: Graph, h: Graph) -> Graph:
    """(g1,h1) ~ (g2,h2) iff g1g2 is an edge, or g1=g2 and h1h2 is an edge."""
    _check_factors(g, h)
    rows = _id_rows(g.n, h.n)
    edges = []
    for a, b in g.edges:
        edges.extend(itertools.product(rows[a], rows[b]))
    for row in rows:
        edges.extend([(row[c], row[d]) for c, d in h.edges])
    return Graph._trusted(g.n * h.n, frozenset(edges), _product_labels(g.n, h.n))


def strong_product(g: Graph, h: Graph) -> Graph:
    """Union of the Cartesian and direct edge sets."""
    _check_factors(g, h)
    cart = cartesian_product(g, h)
    direct = direct_product(g, h)
    return Graph._trusted(g.n * h.n, cart.edges | direct.edges,
                          _product_labels(g.n, h.n))


def is_bipartite(g: Graph):
    """Return ``(True, None)`` or ``(False, odd_cycle)``.

    The witness is a simple odd cycle given as a vertex sequence (consecutive
    vertices adjacent, last adjacent to first).  Deterministic: BFS from the
    lowest unvisited vertex, neighbors ascending; the witness comes from the
    lexicographically first conflicting edge.
    """
    color = [-1] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        for v in queue:  # the loop also visits what it appends
            for w in g.adjacency[v]:
                if color[w] == -1:
                    color[w] = color[v] ^ 1
                    parent[w] = v
                    queue.append(w)
    for u, v in sorted(g.edges):
        if color[u] == color[v]:
            pu = [u]
            while parent[pu[-1]] != -1:
                pu.append(parent[pu[-1]])
            anc = set(pu)
            pv = [v]
            while pv[-1] not in anc:
                pv.append(parent[pv[-1]])
            lca = pv[-1]
            pu = pu[:pu.index(lca) + 1]
            cycle = pu + pv[-2::-1]
            return False, cycle
    return True, None


def write_graph_text(g: Graph) -> str:
    """The ``p toi`` text of ``g``: the problem line, then one ``e u v`` line
    per edge ascending by ``(u, v)``, then, for a labeled graph, one
    ``l v g h`` line per vertex ascending by ``v``."""
    # only the higher neighbours are printed: skip the two-sided adjacency
    higher = [[] for _ in range(g.n)]
    for u, v in g.edges:
        higher[u].append(v)
    names = list(map(str, range(g.n)))
    lines = [f"p toi {g.n} {g.m}"]
    for u, nbrs in enumerate(higher):
        if nbrs:
            nbrs.sort()
            lines.append(f"e {u} " + f"\ne {u} ".join(map(names.__getitem__, nbrs)))
    if g.labels is not None:
        lines.extend(f"l {v} {a} {b}" for v, (a, b) in enumerate(g.labels))
    return "\n".join(lines) + "\n"


class _TokenInts(dict):
    """Token -> ``int(token)``, filled on a miss: a file's edges share one
    int per distinct token, and the table never outgrows the tokens.  Only
    the writer's integers pass: ASCII digits after an optional ``-``."""

    def __missing__(self, token):
        digits = token[1:] if token[:1] == "-" else token
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"not a decimal integer: {token!r}")
        value = self[token] = int(token)
        return value


# a chunk of the edge block is split and converted whole; 256 KB keeps its
# token lists small beside the edge set
_CHUNK = 1 << 18
# str.split() and str.splitlines() also break ASCII text at these
_ODD_SPACE = ("\t", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")


def _canonical_edges(text: str, ids: _TokenInts):
    """``(n, m, edges, start, lineno)`` when ``text`` opens with the
    writer's own ``p toi N M`` line and ``e U V`` block, read in bulk: the
    line loop reads on from offset ``start``, the first ``l`` line, which is
    line ``lineno``.  None for any other layout, which the line loop then
    reads whole.

    A chunk of k lines passes only when it is ASCII with no whitespace but
    spaces and newlines, every line starts with ``e ``, it splits into 3k
    tokens and has 2k spaces.  The tokens at 1 and 2 mod 3 pass ``ids``, so
    none is ``e``; the k line-initial ``e`` tokens thus fill the k places at
    0 mod 3, every line has exactly 3 tokens, and 2k spaces leave one per
    gap: each line is ``e U V``, which the line loop reads as
    ``(ids[U], ids[V])`` under the same ``0 <= u < v < n`` test."""
    head = text.find("\n") + 1
    parts = text[:head - 1].split(" ", 4) if head else []
    if len(parts) != 4 or parts[:2] != ["p", "toi"]:
        return None
    try:
        n, m = ids[parts[2]], ids[parts[3]]
    except ValueError:
        return None
    # the edge block ends with the newline before the first label line
    end = text.find("\nl ", head - 1) + 1 or len(text)
    edges = []
    pos = head
    while pos < end:
        stop = end if end - pos <= _CHUNK else text.rfind("\n", pos, pos + _CHUNK) + 1
        chunk = text[pos:stop]
        k = chunk.count("\n")
        # a line longer than a chunk leaves it empty, which fails here
        if not (chunk.isascii() and chunk.startswith("e ")
                and chunk.endswith("\n") and chunk.count("\ne ") == k - 1
                and chunk.count(" ") == 2 * k) or any(c in chunk for c in _ODD_SPACE):
            return None
        tokens = chunk.split()
        if len(tokens) != 3 * k:
            return None
        try:
            us = list(map(ids.__getitem__, tokens[1::3]))
            vs = list(map(ids.__getitem__, tokens[2::3]))
        except ValueError:
            return None
        if min(us) < 0 or max(vs) >= n or not all(map(operator.lt, us, vs)):
            return None
        edges.extend(zip(us, vs))
        pos = stop
    return n, m, edges, end, 2 + text.count("\n", head, end)


def read_graph_text(text: str) -> Graph:
    """The graph of a ``p toi`` text, as ``write_graph_text`` writes it:
    ``c`` comment and blank lines, one ``p toi <n> <m>`` line, ``e <u> <v>``
    lines with ``0 <= u < v < n``, and optional ``l <v> <g> <h>`` lines that
    label every vertex once.  A text in the writer's canonical layout has its
    edge block read in bulk by ``_canonical_edges``; any other text is read
    line by line, with the same graph or the same ``GraphFormatError``."""
    label_map = {}
    ids = _TokenInts()
    n, m, edges, start, first = _canonical_edges(text, ids) or (None, None, [], 0, 1)
    for lineno, raw in enumerate(text[start:].splitlines(), start=first):
        parts = raw.split()
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "toi":
                raise GraphFormatError(f"line {lineno}: expected 'p toi <n> <m>'")
            try:
                n, m = ids[parts[2]], ids[parts[3]]
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer counts") from None
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = ids[parts[1]], ids[parts[2]]
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer endpoints") from None
            if not (0 <= u < v < n):
                raise GraphFormatError(f"line {lineno}: edge ({u}, {v}) out of range or not ordered")
            edges.append((u, v))
        elif parts[0] == "l":
            if len(parts) != 4:
                raise GraphFormatError(f"line {lineno}: expected 'l <v> <g> <h>'")
            try:
                v, a, b = ids[parts[1]], ids[parts[2]], ids[parts[3]]
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer label") from None
            if v in label_map:
                raise GraphFormatError(f"line {lineno}: duplicate label line for vertex {v}")
            label_map[v] = (a, b)
        else:
            raise GraphFormatError(f"line {lineno}: unknown record '{parts[0]}'")
    if n is None:
        raise GraphFormatError("missing problem line")
    edge_set = frozenset(edges)
    if len(edge_set) != len(edges):
        seen = set()
        for e in edges:
            if e in seen:
                raise GraphFormatError(f"duplicate edge {e}")
            seen.add(e)
    if len(edges) != m:
        raise GraphFormatError(f"problem line declares {m} edges, found {len(edges)}")
    labels = None
    if label_map:
        if sorted(label_map) != list(range(n)):
            raise GraphFormatError("label lines must cover every vertex exactly once")
        labels = tuple(label_map[v] for v in range(n))
    try:
        return Graph._trusted(n, edge_set, labels)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None
