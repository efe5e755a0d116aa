"""Executable constructions of totally odd strong immersions in graph products.

Every function here builds a :class:`~toi.certificates.Certificate`.
``direct_lift`` and ``cartesian_large`` read only the terminals and routes of
factor certificates, never factor-graph structure, so they apply to arbitrary
hosts; ``direct_kts`` takes no factors; ``cartesian_32`` reads its factor
graphs: an odd cycle of G from ``is_bipartite`` and a vertex of H of degree
at least 2.  Correctness is defined by the verifier: callers (and the test
suite) re-verify every output.

Index convention: only ``direct_kts`` is 1-based.  Every factor-lift builder
is a 0-based base table on a small grid that :func:`_embed` replays, base
vertex to host vertex and base edge to host path.  Odd, edge-disjoint paths
keep a totally odd base totally odd; with distinct vertices and internally
disjoint paths that avoid every base vertex's image, a strong base stays strong.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .certificates import (Certificate, Route, concatenate_routes,
                           identity_certificate, verify)
from .graphs import Graph, complete_graph, direct_product, is_bipartite


@dataclass(frozen=True)
class FactorImmersion:
    """A host graph together with a fully verified totally odd strong K_t certificate."""

    host: Graph
    cert: Certificate

    def __post_init__(self):
        report = verify(self.host, self.cert)
        if not report.all_ok:
            raise ValueError(
                f"factor certificate fails verification: {report.first_violation}")

    @classmethod
    def identity(cls, host: Graph) -> "FactorImmersion":
        return cls(host, identity_certificate(host))

    @property
    def size(self) -> int:
        return self.cert.clique_size

    def route(self, a: int, b: int) -> tuple:
        """Route vertices oriented from terminal index ``a`` to ``b``."""
        if a == b:
            raise ValueError("no route from a terminal to itself")
        # verified: every route joins its pair's two distinct terminals
        verts = self.cert.connections[(min(a, b), max(a, b))].vertices
        return verts if verts[0] == self.cert.terminals[a] else verts[::-1]


def _embed(base: Certificate, vertex, path) -> Certificate:
    """Replay ``base`` in a host: terminal x becomes ``vertex[x]`` and each
    step x -> y of a base route the host route ``path(x, y)``, the pieces
    joined in the base route's own direction."""
    return Certificate(base.clique_size, tuple(vertex[x] for x in base.terminals),
                       {pair: concatenate_routes(map(path, r.vertices, r.vertices[1:]))
                        for pair, r in base.connections.items()})


# ---------------------------------------------------------------------------
# Direct product: lifting a base immersion of K_t x K_s into G x H
# ---------------------------------------------------------------------------

def _walk(p, q, n_h) -> Route:
    """Direct-product route from ``(p[0], q[0])`` to ``(p[-1], q[-1])``.

    Walks both factor routes at once; one with no interior vertex left
    alternates between its last two vertices until the other finishes.  Both
    have an odd edge count, so their interior counts k and l are even, and
    the shorter route's alternation lands on its end vertex exactly when the
    longer route does.
    """
    def at(seq, i):
        last = len(seq) - 2
        return seq[i] if i <= last else seq[last + (i - last) % 2]

    return Route(tuple(at(p, i) * n_h + at(q, i)
                       for i in range(max(len(p), len(q)) - 1))
                 + (p[-1] * n_h + q[-1],))


def _m_route(fg: FactorImmersion, fh: FactorImmersion, a, b) -> Route:
    """Connector route from grid cell ``a = (i, j)`` to ``b = (i', j')``,
    terminal indices 0-based, differing in both coordinates."""
    if a > b:
        return _m_route(fg, fh, b, a).reversed()
    return _walk(fg.route(a[0], b[0]), fh.route(a[1], b[1]), fh.host.n)


def direct_lift(fg: FactorImmersion, fh: FactorImmersion,
                base: Certificate) -> Certificate:
    """Lift a K_r certificate of K_t x K_s to G x H.

    Every base route is replayed edge by edge (:func:`_embed`): each base
    edge, which joins grid cells differing in both coordinates, is replaced
    by its connector route.  A base pair joined by a single edge therefore
    receives exactly its single connector.
    """
    t, s = fg.size, fh.size
    if t < 3 or s < 3:
        raise ValueError("direct lifting requires both factor cliques of size >= 3")
    grid = direct_product(complete_graph(t), complete_graph(s))
    report = verify(grid, base)
    if not report.satisfies("totally-odd"):
        raise ValueError(
            f"base certificate is not a totally odd immersion: {report.first_violation}")

    # _m_route(x, y) is _m_route(y, x) reversed, so lifting each base route
    # from its pair's first terminal lifts the stored one and orients it
    oriented = Certificate(base.clique_size, base.terminals, {
        (a, b): route if route.vertices[0] == base.terminals[a] else route.reversed()
        for (a, b), route in base.connections.items()})
    n_h = fh.host.n
    return _embed(oriented,
                  [x * n_h + y for x in fg.cert.terminals for y in fh.cert.terminals],
                  lambda x, y: _m_route(fg, fh, divmod(x, s), divmod(y, s)))


# ---------------------------------------------------------------------------
# The K_{ts} certificate in K_{2t} x K_s
# ---------------------------------------------------------------------------

def _kts_pattern_routes(t: int, s: int):
    """Yield ``(cell_a, cell_b, verts, tag)`` for every same-row/same-column
    terminal pair, 1-based grid coordinates, in a fixed deterministic order."""
    # same-row pairs; row-wrap is row with row 2t + 2 read as row 2
    for i in range(1, t + 1):
        r = 2 * i - 1
        below, tag = (2 * i + 2, "row") if i < t else (2, "row-wrap")
        for j in range(1, s + 1):
            for j2 in range(j + 1, s + 1):
                yield (r, j), (r, j2), [(r, j), (2 * i, j2), (below, j), (r, j2)], tag
    # same-column pairs: two even-row cells between the terminals
    for j in range(1, s + 1):
        for i in range(1, t + 1):
            for i2 in range(i + 1, t + 1):
                r, r2 = 2 * i - 1, 2 * i2 - 1
                if i2 == i + 1:
                    if j <= s - 2:
                        mid = [(2 * i + 2, j + 2), (2 * i, j + 1)]
                        tag = "col-adjacent"
                    elif i <= t - 3:
                        mid = [(2 * i, j - 1), (2 * i + 6, j - (s - 2))]
                        tag = "col-adjacent-wrap-low"
                    else:
                        # rows (2t-5, 2t-3) and (2t-3, 2t-1) in columns s-1
                        # and s; the interiors do not depend on t, and for
                        # s = 5, 6 one moves off the terminal's column or
                        # off an edge another route uses
                        upper = i == t - 1
                        if j == s:
                            mid = [(2, 1), (4, 4 if upper else 3)]
                        elif not upper:
                            mid = [(2, 2), (4, 5 if s == 5 else 4)]
                        else:
                            mid = [(2, 2), {5: (6, 3), 6: (4, 6)}.get(s, (4, 5))]
                        tag = "col-adjacent-wrap-high"
                elif j > s - 2 and i == 1 and i2 == t:
                    mid = [(2 * t, j - 1), (2 * t - 6, j - 2)]
                    tag = "col-skip-extreme"
                else:
                    # col-skip-wrap-a (j = s - 1) and col-skip-wrap-b (j = s)
                    # are col-skip with columns taken mod s
                    mid = [(2 * i2, j % s + 1), (2 * i, (j + 1) % s + 1)]
                    tag = ("col-skip" if j <= s - 2 else
                           "col-skip-wrap-a" if j == s - 1 else "col-skip-wrap-b")
                yield (r, j), (r2, j), [(r, j), *mid, (r2, j)], tag


def direct_kts_routes(t: int, s: int):
    """All connector routes of the K_{ts} certificate in K_{2t} x K_s.

    Returns ``(singles, paths)``: ``singles`` lists the terminal-terminal
    edges as ``(cell_a, cell_b)`` and ``paths`` lists
    ``(cell_a, cell_b, verts, tag)``, with 1-based grid cells and ``cell_a``
    the terminal of lower index (earlier in row-major order).  Every path is
    a closed-form route of the case named by its tag: three edges, each
    with an even-row end, so no path shares an edge with a single.
    """
    if t < 6 or s < 5:
        raise ValueError("requires t >= 6 and s >= 5")
    # each terminal cell is one tuple, shared by all its singles
    rows = [[(2 * i - 1, j) for j in range(1, s + 1)] for i in range(1, t + 1)]
    singles = [(a, b) for i, row in enumerate(rows) for a in row
               for row2 in rows[i + 1:] for b in row2 if b[1] != a[1]]
    return singles, list(_kts_pattern_routes(t, s))


def direct_kts(t: int, s: int) -> Certificate:
    """K_{ts} totally odd strong immersion certificate in K_{2t} x K_s.

    Terminals are the odd-row grid cells; cross pairs are single product
    edges and same-row/column pairs get length-3 routes through even rows.
    Requires t >= 6 and s >= 5.
    """
    paths = direct_kts_routes(t, s)[1]
    # cell (r, j) is vertex (r-1)*s + j-1 and the terminal (2i-1, j) has index
    # (i-1)*s + j-1: one int object per id.  The keys are the ascending pair list,
    # which Certificate._trusted needs; a pair with no pattern route is the edge
    # from its lower-index terminal, where every route starts, so none is reversed.
    # Every step changes row, so no vertex repeats at once, which Route._trusted needs
    ids = list(range(2 * t * s))
    vertex = {(r, j): ids[(r - 1) * s + j - 1]
              for r in range(1, 2 * t + 1) for j in range(1, s + 1)}
    index = {(r, j): ids[(r - 1) // 2 * s + j - 1]
             for r in range(1, 2 * t, 2) for j in range(1, s + 1)}
    terminals = tuple(vertex[cell] for cell in index)
    pattern = {(index[a], index[b]): tuple(map(vertex.__getitem__, verts))
               for a, b, verts, _tag in paths}
    get, trusted = pattern.get, Route._trusted
    connections = {(a, b): trusted(get((a, b)) or (terminals[a], terminals[b]))
                   for a, b in itertools.combinations(ids[:t * s], 2)}
    return Certificate._trusted(t * s, terminals, connections)


# ---------------------------------------------------------------------------
# Cartesian product constructions
# ---------------------------------------------------------------------------

def _grid_path(g_route, h_route, g_at, h_at, n_h, s):
    """The :func:`_embed` vertex map and path of a base grid into G [] H.

    Cell ``(a, c)``, base vertex ``a*s + c``, goes to ``(g_at[a], h_at[c])``;
    a row step ``(a, c) -> (a, d)`` lifts ``h_route(c, d)`` into the fibre at
    ``g_at[a]``, a column step ``(a, c) -> (b, c)`` lifts ``g_route(a, b)``
    into the copy at ``h_at[c]``.
    """
    def path(x, y):
        (a, c), (b, d) = divmod(x, s), divmod(y, s)
        if a == b:
            return Route(tuple(g_at[a] * n_h + z for z in h_route(c, d)))
        return Route(tuple(z * n_h + h_at[c] for z in g_route(a, b)))
    return [x * n_h + y for x in g_at for y in h_at], path


def cartesian_large(fg: FactorImmersion, fh: FactorImmersion) -> Certificate:
    """K_{t+s-1} certificate in G [] H when the second factor clique has s >= 4.

    Terminals are the first row ``(u_1, v_j)`` and first column ``(u_i, v_1)``.
    A cross pair ``(u_1, v_j) - (u_i, v_1)`` with ``i, j >= 2`` walks the
    ``v_j`` copy of the first-factor route, then detours inside the ``u_i``
    fiber through two second-factor routes back to ``v_1``; the last
    second-factor terminal reuses the first two routes in reverse.
    """
    t, s = fg.size, fh.size
    if s < 4:
        raise ValueError("requires s >= 4")
    if t < 2:
        raise ValueError("requires t >= 2")

    # grid cell (i, j) of K_t [] K_s is vertex i*s + j; terminal order:
    # (0, 0) .. (0, s-1), then (1, 0) .. (t-1, 0)
    terminals = tuple(range(s)) + tuple(range(s, t * s, s))
    # a pair in one row or one column is one step apart; (0, j) reaches
    # (i, 0) through (i, j) and (i, w), w the detour's second-factor target
    routes = {}
    for (a, x), (b, y) in itertools.combinations(enumerate(terminals), 2):
        w = x + 1 if x < s - 1 else 1
        routes[(a, b)] = Route((x, y) if x == 0 or y < s or x >= s
                               else (x, y + x, y + w, y))
    base = Certificate(t + s - 1, terminals, routes)
    return _embed(base, *_grid_path(fg.route, fh.route, fg.cert.terminals,
                                    fh.cert.terminals, fh.host.n, s))


def _canonical_cycle(cycle):
    """Rotate/reflect so the cycle starts at its lowest vertex and moves
    toward the smaller of that vertex's two cycle neighbors."""
    k = cycle.index(min(cycle))
    cyc = cycle[k:] + cycle[:k]
    if cyc[1] > cyc[-1]:
        cyc = [cyc[0]] + cyc[:0:-1]
    return cyc


def _odd_cycle_k3(c) -> Certificate:
    """K_3 on an odd cycle c: routes c0-c1, c1-c2, and c0 backwards round
    the rest of the cycle to c2, whose L - 2 edges are odd in number and
    whose interior holds no terminal; the three routes share no edge."""
    routes = {(0, 1): (c[0], c[1]), (1, 2): (c[1], c[2]), (0, 2): (c[0], *c[:1:-1])}
    return Certificate(3, (c[0], c[1], c[2]), {pair: Route._trusted(vertices)
                                               for pair, vertices in routes.items()})


def cartesian_32(g: Graph, h: Graph) -> Certificate:
    """K_4 certificate in G [] H for non-bipartite G and H with a degree-2 vertex.

    Embeds a K_4 table in K_3 [] P_3 onto the odd-cycle K_3 of G
    (:func:`_odd_cycle_k3`) and a center-plus-two-neighbors star of H.
    """
    bip, cycle = is_bipartite(g)
    if bip:
        raise ValueError("requires a non-bipartite first factor (no odd cycle found)")
    # the lowest vertex of degree >= 2 and its two lowest neighbours
    v2 = next((v for v in range(h.n) if h.degree(v) >= 2), None)
    if v2 is None:
        raise ValueError("requires a second factor with a vertex of degree >= 2")
    v1, v3 = h.adjacency[v2][:2]
    star = (v1, v2, v3)
    fg = FactorImmersion(g, _odd_cycle_k3(_canonical_cycle(cycle)))

    # grid cell (a, c) of K_3 [] P_3 is vertex 3a + c, a indexing the K_3
    # terminals c0, c1, c2 and c the star; step c2 -> c0 is the long arc
    base = Certificate(4, (0, 3, 6, 1), {
        (0, 1): Route((0, 3)),
        (1, 2): Route((3, 6)),
        (0, 3): Route((0, 1)),
        (0, 2): Route((6, 0)),  # around the v1 cycle, the long way
        (1, 3): Route((3, 4, 7, 1)),  # up to v2, round the v2 cycle to c0
        (2, 3): Route((1, 2, 5, 8, 7, 6)),  # v2, v3, two steps, down to v1
    })
    return _embed(base, *_grid_path(fg.route, lambda c, d: (star[c], star[d]),
                                    fg.cert.terminals, star, h.n, 3))
