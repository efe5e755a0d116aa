"""Executable constructions of totally odd strong immersions in graph products.

Every function here builds a :class:`~toi.certificates.Certificate` by
manipulating terminal/route indices of factor certificates, never factor-graph
structure, so the constructions apply to arbitrary hosts.  Correctness is
defined by the verifier: callers (and the test suite) re-verify every output.

Index convention: the closed-form route tables below are written with 1-based
grid coordinates ``(i, j)`` and converted to the 0-based vertex id
``(i-1)*s + j-1`` only where routes become edges or certificates, to avoid
off-by-one drift.  Every direct-product route lifted from factor routes is a
concatenation of walks that step along both factor routes at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certificates import (Certificate, Route, concatenate_routes,
                           identity_certificate, verify)
from .graphs import (Graph, complete_graph, direct_product, find_p3_center,
                     is_bipartite)


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

    def terminal(self, a: int) -> int:
        return self.cert.terminals[a]

    def route(self, a: int, b: int) -> tuple:
        """Route vertices oriented from terminal index ``a`` to ``b``."""
        if a == b:
            raise ValueError("no route from a terminal to itself")
        # verified: every route joins its pair's two distinct terminals
        verts = self.cert.connections[(min(a, b), max(a, b))].vertices
        return verts if verts[0] == self.cert.terminals[a] else verts[::-1]


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


def build_m_pair(p, q, n_h) -> tuple:
    """Build the two odd, vertex-disjoint connector routes in a direct product.

    ``p`` is an odd route ``u - a_1 - ... - a_k - u'`` in the first factor and
    ``q`` an odd route ``v - b_1 - ... - b_l - v'`` in the second.  Returns
    routes joining ``(u,v)`` to ``(u',v')`` and ``(u,v')`` to ``(u',v)`` in
    the direct product, with product vertices encoded row-major by ``n_h``.
    Both routes walk ``p`` and ``q`` side by side, the second with ``q``
    reversed; the shorter factor route alternates its last two vertices
    while the longer finishes.
    """
    p, q = tuple(p), tuple(q)
    if len(p) % 2 or len(q) % 2:
        raise ValueError("both factor routes must have odd edge count")
    return _walk(p, q, n_h), _walk(p, q[::-1], n_h)


def _m_route(fg: FactorImmersion, fh: FactorImmersion, a, b) -> Route:
    """Connector route from grid cell ``a = (i, j)`` to ``b = (i', j')``,
    terminal indices 0-based, differing in both coordinates."""
    if a > b:
        return _m_route(fg, fh, b, a).reversed()
    return _walk(fg.route(a[0], b[0]), fh.route(a[1], b[1]), fh.host.n)


def direct_lift(fg: FactorImmersion, fh: FactorImmersion,
                base: Certificate) -> Certificate:
    """Lift a K_r certificate of K_t x K_s to G x H.

    Every base route is replayed edge by edge: each base edge, which joins
    grid cells differing in both coordinates, is replaced by its connector
    route; the pieces are concatenated.  A base pair joined by a single edge
    therefore receives exactly its single connector.
    """
    t, s = fg.size, fh.size
    if t < 3 or s < 3:
        raise ValueError("direct lifting requires both factor cliques of size >= 3")
    grid = direct_product(complete_graph(t), complete_graph(s))
    report = verify(grid, base)
    if not report.satisfies("totally-odd"):
        raise ValueError(
            f"base certificate is not a totally odd immersion: {report.first_violation}")

    n_h = fh.host.n
    terminals = tuple(fg.terminal(v // s) * n_h + fh.terminal(v % s)
                      for v in base.terminals)
    connections = {}
    for (a, b), route in base.connections.items():
        cells = [divmod(v, s) for v in route.vertices]
        lifted = concatenate_routes(_m_route(fg, fh, c, c2)
                                    for c, c2 in zip(cells, cells[1:]))
        if base.terminals[a] != route.vertices[0]:
            lifted = lifted.reversed()
        connections[(a, b)] = lifted
    return Certificate(base.clique_size, terminals, connections)


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
    singles, paths = direct_kts_routes(t, s)
    # terminal (r, j), r = 2i-1 odd (1-based), has index (i-1)*s + j-1 =
    # (r-1)//2*s + j-1 and vertex id (r-1)*s + j-1; every route runs from
    # its lower-index terminal, so no route is reversed; every step changes
    # row (odd to odd, or odd, even, other even, odd), so none repeats a
    # vertex immediately and Route._trusted skips only that check
    terminals = tuple(2 * i * s + j for i in range(t) for j in range(s))
    connections = {
        ((ra - 1) // 2 * s + ja - 1, (rb - 1) // 2 * s + jb - 1):
            Route._trusted(((ra - 1) * s + ja - 1, (rb - 1) * s + jb - 1))
        for (ra, ja), (rb, jb) in singles}
    for (ra, ja), (rb, jb), verts, _tag in paths:
        connections[((ra - 1) // 2 * s + ja - 1, (rb - 1) // 2 * s + jb - 1)] = \
            Route._trusted(tuple((r - 1) * s + j - 1 for r, j in verts))
    return Certificate(t * s, terminals, connections)


def toi_lower_bound_product(op: str, t: int, s: int) -> int:
    """Provable lower bound on toi of a product of graphs with toi values t, s."""
    if t < 1 or s < 1:
        raise ValueError("toi values are at least 1")
    if op == "cartesian":
        if max(t, s) >= 4:
            # cartesian_large, with the factors swapped when s < 4; for
            # min(t, s) = 1 it is max(t, s), one copy of the larger factor
            return t + s - 1
        if t == s == 3:
            return 4  # cartesian_33
        return max(t, s)  # one copy of the larger factor
    if op in ("lexicographic", "lex", "strong"):
        return t * s  # claimed; no builder in this module backs it yet
    if op == "direct":
        return min(t, s)  # the diagonal of K_t x K_s
    raise ValueError(f"unknown product kind {op!r}")


# ---------------------------------------------------------------------------
# Cartesian product constructions
# ---------------------------------------------------------------------------

def _lift_into_h_fiber(q_verts, g_vertex, n_h) -> Route:
    return Route(tuple(g_vertex * n_h + x for x in q_verts))


def _lift_into_g_copy(p_verts, h_vertex, n_h) -> Route:
    return Route(tuple(x * n_h + h_vertex for x in p_verts))


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
    n_h = fh.host.n
    u = fg.cert.terminals
    v = fh.cert.terminals

    # terminal order: (u_1, v_1) .. (u_1, v_s), then (u_2, v_1) .. (u_t, v_1)
    terminals = tuple(u[0] * n_h + v[j] for j in range(s)) \
        + tuple(u[i] * n_h + v[0] for i in range(1, t))

    connections = {}
    for j in range(s):
        for j2 in range(j + 1, s):
            connections[(j, j2)] = _lift_into_h_fiber(fh.route(j, j2), u[0], n_h)
    for i in range(1, t):
        for i2 in range(i + 1, t):
            connections[(s + i - 1, s + i2 - 1)] = _lift_into_g_copy(
                fg.route(i, i2), v[0], n_h)
    for i in range(1, t):
        b = s + i - 1
        # (u_1, v_1) - (u_i, v_1): first-factor route in the v_1 copy
        connections[(0, b)] = _lift_into_g_copy(fg.route(0, i), v[0], n_h)
        for j in range(1, s):
            w = j + 1 if j < s - 1 else 1  # the detour's second-factor target
            connections[(j, b)] = concatenate_routes([
                _lift_into_g_copy(fg.route(0, i), v[j], n_h),
                _lift_into_h_fiber(fh.route(j, w), u[i], n_h),
                _lift_into_h_fiber(fh.route(w, 0), u[i], n_h)])
    return Certificate(t + s - 1, terminals, connections)


def cartesian_33(fg: FactorImmersion, fh: FactorImmersion) -> Certificate:
    """K_4 certificate in G [] H from two K_3 factor immersions."""
    if fg.size != 3 or fh.size != 3:
        raise ValueError("both factor certificates must be K_3 certificates")
    n_h = fh.host.n
    u = fg.cert.terminals
    v = fh.cert.terminals
    # terminals: (u_1, v_1), (u_2, v_1), (u_3, v_1), (u_1, v_2)
    terminals = (u[0] * n_h + v[0], u[1] * n_h + v[0],
                 u[2] * n_h + v[0], u[0] * n_h + v[1])
    connections = {}
    for a, b in ((0, 1), (0, 2), (1, 2)):
        connections[(a, b)] = _lift_into_g_copy(fg.route(a, b), v[0], n_h)
    connections[(0, 3)] = _lift_into_h_fiber(fh.route(0, 1), u[0], n_h)
    for a in (1, 2):
        # (u_1, v_2) -> row to (u_a, v_2) -> fiber detour v_2 -> v_3 -> v_1
        connections[(a, 3)] = concatenate_routes([
            _lift_into_g_copy(fg.route(0, a), v[1], n_h),
            _lift_into_h_fiber(fh.route(1, 2), u[a], n_h),
            _lift_into_h_fiber(fh.route(2, 0), u[a], n_h)]).reversed()
    return Certificate(4, terminals, connections)


def _canonical_cycle(cycle):
    """Rotate/reflect so the cycle starts at its lowest vertex and moves
    toward the smaller of that vertex's two cycle neighbors."""
    k = cycle.index(min(cycle))
    cyc = cycle[k:] + cycle[:k]
    if cyc[1] > cyc[-1]:
        cyc = [cyc[0]] + cyc[:0:-1]
    return cyc


def cartesian_32(g: Graph, h: Graph) -> Certificate:
    """K_4 certificate in G [] H for non-bipartite G and H with a degree-2 vertex.

    Embeds the explicit odd-cycle-times-three-path construction onto an odd
    cycle of G and a center-plus-two-neighbors star of H.
    """
    bip, cycle = is_bipartite(g)
    if bip:
        raise ValueError("requires a non-bipartite first factor (no odd cycle found)")
    star = find_p3_center(h)
    if star is None:
        raise ValueError("requires a second factor with a vertex of degree >= 2")
    c = _canonical_cycle(cycle)
    center, nb1, nb2 = star
    v1, v2, v3 = nb1, center, nb2
    n_h = h.n

    def enc(ci, hv):
        return c[ci] * n_h + hv

    L = len(c)  # odd, >= 3
    terminals = (enc(0, v1), enc(1, v1), enc(2, v1), enc(0, v2))
    connections = {
        (0, 1): Route((enc(0, v1), enc(1, v1))),
        (1, 2): Route((enc(1, v1), enc(2, v1))),
        (0, 3): Route((enc(0, v1), enc(0, v2))),
        # around the v1 cycle, the long way
        (0, 2): Route(tuple(enc(m % L, v1) for m in range(2, L + 1))),
        # up to v2, then around the v2 cycle back to column 1
        (1, 3): Route((enc(1, v1),) + tuple(enc(m % L, v2) for m in range(1, L + 1))),
        # through the v3 cycle: v2, v3, two steps, back down to v1
        (2, 3): Route((enc(0, v2), enc(0, v3), enc(1, v3), enc(2, v3),
                       enc(2, v2), enc(2, v1))),
    }
    return Certificate(4, terminals, connections)
