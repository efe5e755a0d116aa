"""Exact small-instance computation of toi(G) and the chromatic number.

Exhaustive backtracking over terminal subsets and edge-disjoint odd route
systems, with degree-eligibility, bipartiteness, edge-budget and
forward-check pruning.  The chromatic number is found by DSATUR-ordered
backtracking for k-colourings between a clique lower bound and a DSATUR
upper bound.
This module is the independent brute-force oracle for the constructions: any
witness it returns is re-verified before being handed out, and a definitive
absence is only reported when the search space was fully enumerated.

The conjecture check chi(G) <= toi(G) (:func:`check_conjecture`) rests on
witnesses: a proper DSATUR colouring with k colours and a verified K_k
certificate settle it as True.  The exact chromatic number is searched only
when level k is refuted, and False needs chi and toi both exact.

Exactness rule: a level t is refuted when :meth:`_ToiSearch.find` returns
None.  Terminal sets skipped by the edge-budget bound (proved in
:func:`exact_toi`) have no route system at all, and branches cut by the
forward check (proved in :meth:`_ToiSearch._assign`) have no completion,
so neither weakens a refutation.  The route length cap does, but only
where it actually cut a branch: a refutation counts as complete unless the
cap pruned a non-terminal neighbour while that level was searched.  An
answer is exact when every level above it was refuted completely.  A
single level is asked through ``exact_toi(g, budget, max_t=t)``:
``value == t`` means K_t is present, ``value < t`` with status "exact"
means it is definitely absent.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from typing import Optional

from .certificates import Certificate, Route, verify
from .graphs import Graph, is_bipartite


@dataclass
class SearchBudget:
    """Resource limits for one solver call."""

    max_nodes: int = 200_000_000
    time_limit: Optional[float] = None
    max_route_length: Optional[int] = None

    def __post_init__(self):
        if self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        # written so that NaN, for which every comparison is False, fails
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError("time_limit must be positive")
        if self.max_route_length is not None and self.max_route_length <= 0:
            raise ValueError("max_route_length must be positive")


@dataclass
class SolveResult:
    value: int
    witness: Optional[Certificate]
    # "exact" | "lower-bound-only" | "upper-bound-only" | "timeout"; chi is
    # "upper-bound-only" only in check_conjecture, where a colouring bounds it
    status: str
    nodes_explored: int


class _BudgetExhausted(Exception):
    pass


# route enumeration is capped by default on large hosts; such runs can only
# report lower bounds
_DEFAULT_CAP_THRESHOLD = 20
_DEFAULT_CAP = 9


def _effective_cap(g: Graph, budget: SearchBudget) -> int:
    """The route length cap; a simple route has at most m edges, so m
    stands in for no cap."""
    cap = budget.max_route_length
    if cap is None:
        cap = g.m if g.m <= _DEFAULT_CAP_THRESHOLD else _DEFAULT_CAP
    return min(cap, g.m)


class _Ticker:
    """Search node counter that enforces a budget's node and time limits."""

    def __init__(self, budget: SearchBudget):
        self.max_nodes = budget.max_nodes
        self.nodes = 0
        self.deadline = (time.monotonic() + budget.time_limit
                         if budget.time_limit is not None else None)

    def tick(self):
        # the node past the budget is refused uncounted: nodes <= max_nodes
        if self.nodes >= self.max_nodes:
            raise _BudgetExhausted
        self.nodes += 1
        if self.deadline is not None and self.nodes % 256 == 0:
            if time.monotonic() > self.deadline:
                raise _BudgetExhausted


class _ToiSearch:
    def __init__(self, g: Graph, budget: SearchBudget):
        self.g = g
        self.cap = _effective_cap(g, budget)
        self.ticker = _Ticker(budget)
        edge_index = {e: idx for idx, e in enumerate(sorted(g.edges))}
        self.adj = g.adjacency
        self.adj_mask = [sum(1 << w for w in nbrs) for nbrs in self.adj]
        # (neighbour, edge bit) pairs in ascending neighbour order
        self.nbr_bits = [[(w, 1 << edge_index[(v, w) if v < w else (w, v)])
                          for w in nbrs] for v, nbrs in enumerate(self.adj)]
        # set when the route length cap prunes a branch during find()
        self.cap_pruned = False

    def _routes(self, src: int, dst: int, used: int, terminals: int):
        """Yield simple odd routes from src to dst, src < dst, avoiding used
        edges and all terminals (a vertex bit mask) as interior vertices, as
        (vertex tuple, edge mask).  Depth-first from src, neighbours
        ascending, with one frame per path vertex: its neighbour iterator,
        the path so far, the vertices the path may not enter, the edges it
        may not take and its own edges; each frame is one search node."""
        nbr_bits, cap, tick = self.nbr_bits, self.cap, self.ticker.tick
        tick()
        frames = [(iter(nbr_bits[src]), (src,), terminals & ~(1 << dst), used, 0)]
        while frames:
            nbrs, path, avoid, taken, mask = frames[-1]
            for w, bit in nbrs:
                if taken & bit or avoid >> w & 1:
                    continue
                if w == dst:
                    if len(path) % 2:  # the route has len(path) edges
                        yield path + (w,), mask | bit
                    continue
                if len(path) >= cap:
                    self.cap_pruned = True
                    continue
                tick()
                frames.append((iter(nbr_bits[w]), path + (w,), avoid | 1 << w,
                               taken | bit, mask | bit))
                break
            else:
                frames.pop()

    def find(self, t: int) -> Optional[Certificate]:
        """First totally odd strong K_t certificate in deterministic order,
        or None after exhausting the space.  Raises on budget exhaustion.
        ``cap_pruned`` tells afterwards whether the route cap cut a branch."""
        g = self.g
        self.cap_pruned = False
        if t == 1:
            return Certificate(1, (0,)) if g.n >= 1 else None
        eligible = [v for v in range(g.n) if len(self.adj[v]) >= t - 1]
        order = sorted(eligible, key=lambda v: (-len(self.adj[v]), v))
        pairs = list(itertools.combinations(range(t), 2))
        for combo in itertools.combinations(order, t):
            self.ticker.tick()
            subset = tuple(sorted(combo))
            if self._edge_budget_refutes(subset):
                continue
            chosen = self._assign(subset, sum(1 << v for v in subset), pairs)
            if chosen is not None:
                cert = Certificate(t, subset,
                                   {p: Route(v) for p, v in zip(pairs, chosen)})
                report = verify(g, cert)
                if not report.all_ok:
                    raise RuntimeError("solver witness failed verification: "
                                       f"{report.first_violation}")
                return cert
        return None

    def _assign(self, subset, terminals, pairs) -> Optional[list]:
        """Route every pair edge-disjointly; returns the routes in pair
        order, or None when there are none.  Depth-first over the pairs in
        order, with one frame per pair being routed: its route iterator,
        ``used`` (the edges of the routes before it) and ``free`` (``free[v]``
        is the bit mask of v's neighbours across an edge not in ``used``).

        No terminal can run out of free incident edges here, so none is
        checked: a route is simple and has no terminal in its interior, so
        it uses exactly one edge at each of its two terminals and none at
        any other.  A terminal v has thus spent one edge per routed pair at
        v, and deg(v) >= t - 1 (the eligibility rule of :meth:`find`)
        leaves at least one free edge for each of its unrouted pairs.

        Forward check.  Before a pair is routed, every unrouted pair must
        still have an odd walk on free edges with no terminal in its
        interior (:func:`_odd_walks`); if one has none, the branch is cut
        here instead of at that pair's level.  Proof: a strong odd route on
        edges outside ``used``, simple or a trail, is such a walk, so a pair
        without one has no route in any completion of ``chosen``.  The walk
        ignores the route cap, so the check only cuts subtrees with no
        solution with or without the cap; the DFS order, the first witness
        and its bytes are unchanged, and ``cap_pruned`` can only be set
        less often, which makes a status no weaker."""
        frames = []
        chosen = []  # the current route of each frame
        used, free = 0, self.adj_mask
        while len(frames) < len(pairs):
            a, b = pairs[len(frames)]
            # the pairs from (a, b) on are (a, b') for b' >= b, then every
            # pair of a later row
            cut = -(1 << subset[b])
            for s in subset[a:-1]:
                if not _odd_walks(s, terminals & -(2 << s) & cut, free, terminals):
                    break
                cut = -1
            else:
                frames.append((self._routes(subset[a], subset[b], used, terminals),
                               used, free))
            # move the deepest frame to its next route, dropping the frames
            # whose routes are used up
            while frames:
                routes, used, free = frames[-1]
                route = next(routes, None)
                if route is not None:
                    break
                frames.pop()
            else:
                return None
            verts, mask = route
            del chosen[len(frames) - 1:]
            chosen.append(verts)
            used |= mask
            free = free.copy()
            for u, w in zip(verts, verts[1:]):
                free[u] &= ~(1 << w)
                free[w] &= ~(1 << u)
        return chosen

    def _edge_budget_refutes(self, subset) -> bool:
        """True when the non-adjacent terminal pairs of ``subset`` need more
        edges than the host has (the bound proved in :func:`exact_toi`)."""
        subset_mask = 0
        for v in subset:
            subset_mask |= 1 << v
        twice_adjacent = degree_sum = 0
        for v in subset:
            twice_adjacent += (self.adj_mask[v] & subset_mask).bit_count()
            degree_sum += len(self.adj[v])
        t = len(subset)
        far = t * (t - 1) // 2 - twice_adjacent // 2
        terminal_other = degree_sum - twice_adjacent
        other_other = self.g.m - twice_adjacent // 2 - terminal_other
        return 2 * far > terminal_other or far > other_other


def _odd_walks(src, need, free, terminals) -> bool:
    """True when every vertex in ``need`` is joined to ``src`` by an odd
    walk on the edges in ``free`` whose interior avoids ``terminals``;
    BFS over (vertex, parity), one reach mask per parity."""
    odd, even = free[src], 0
    frontier, parity = odd & ~terminals, 1
    while need & ~odd:
        if not frontier:
            return False
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= free[low.bit_length() - 1]
            frontier ^= low
        if parity:
            reach, even = reach & ~even, even | reach
        else:
            reach, odd = reach & ~odd, odd | reach
        frontier, parity = reach & ~terminals, 1 - parity
    return True


def _eligibility_bound(g: Graph) -> int:
    degs = sorted((len(a) for a in g.adjacency), reverse=True)
    return max(t for t, d in enumerate(degs, 1) if d >= t - 1)


def exact_toi(g: Graph, budget: Optional[SearchBudget] = None,
              max_t: Optional[int] = None) -> SolveResult:
    """Maximum t with a totally odd strong K_t immersion, by descending search.

    Status is "exact" only when every value above the answer was refuted
    completely: the route length cap never pruned a branch while that value
    was searched.  A ``max_t`` cutoff below the natural upper bound
    downgrades a hit at the cutoff to "lower-bound-only".

    Edge-budget bound.  Fix a terminal set T of size t with A pairs adjacent
    in G and F = C(t, 2) - A non-adjacent ("far") pairs.  Let
    E_TN = sum of deg(v) over T, minus 2A, be the number of edges from T to
    the other vertices N, and E_NN = m - A - E_TN the number of edges inside
    N.  If 2F > E_TN or F > E_NN, T carries no totally odd strong K_t
    immersion, and the search skips it.  Proof: the route of a far pair is
    odd and not a single edge, so it has length at least 3.  Strongness
    keeps terminals out of its interior, so its first and last edges join T
    to N and its remaining edges, an odd number and at least one, lie inside
    N.  Routes are edge-disjoint, so these edges are distinct over all far
    pairs: the far pairs alone need 2F edges between T and N and F edges
    inside N.  The argument uses no simplicity, so it holds for trails as
    well as for simple paths.  A skipped set has no solution, so the search
    order, the first witness found and its bytes are the same as without
    the bound.
    """
    if g.n == 0:
        raise ValueError("graph must be nonempty")
    if max_t is not None and max_t < 1:
        raise ValueError("max_t must be positive")
    budget = budget or SearchBudget()
    upper = _eligibility_bound(g)
    if is_bipartite(g)[0]:
        upper = min(upper, 2)
    truncated = max_t is not None and max_t < upper
    if truncated:
        upper = max_t
    search = _ToiSearch(g, budget)
    refuted_completely = True
    # upper >= 1 and find(1) succeeds before any tick: the loop always returns
    for t in range(upper, 0, -1):
        try:
            cert = search.find(t)
        except _BudgetExhausted:
            return SolveResult(1, Certificate(1, (0,)), "timeout",
                               search.ticker.nodes)
        if cert is not None:
            exact = refuted_completely and not (truncated and t == upper)
            status = "exact" if exact else "lower-bound-only"
            return SolveResult(t, cert, status, search.ticker.nodes)
        refuted_completely = refuted_completely and not search.cap_pruned


def _greedy_clique(g: Graph) -> int:
    best = 0
    adj_mask = [sum(1 << w for w in nbrs) for nbrs in g.adjacency]
    order = sorted(range(g.n), key=lambda v: (-len(g.adjacency[v]), v))
    for v in order:
        # common: the vertices adjacent to every member of the clique so far
        size, common = 1, adj_mask[v]
        for w in order:
            if common >> w & 1:
                size += 1
                common &= adj_mask[w]
        best = max(best, size)
    return best


def _dsatur(g: Graph):
    """DSATUR coloring; returns (color list, number of colors).  Ties in
    saturation go to the higher degree, then the lower id."""
    colors = [-1] * g.n
    # the colours on each vertex's coloured neighbours
    seen = [set() for _ in range(g.n)]
    order = sorted(range(g.n), key=lambda v: (-len(g.adjacency[v]), v))
    for _ in order:
        v, best = -1, -1
        for u in order:
            if colors[u] < 0 and len(seen[u]) > best:
                v, best = u, len(seen[u])
        c = 0
        while c in seen[v]:
            c += 1
        colors[v] = c
        for w in g.adjacency[v]:
            seen[w].add(c)
    return colors, (max(colors) + 1 if g.n else 0)


def _k_colorable(g: Graph, k: int, ticker: _Ticker) -> bool:
    """True when g has a proper k-colouring.  Depth-first, with one frame
    per coloured vertex, branching DSATUR-style on the uncoloured vertex
    with the most distinct neighbour colours (ties to the first vertex of
    ``order``, as in :func:`_dsatur`).  ``counts[v][c]`` counts the
    neighbours of v coloured c and ``sat[v]`` the nonzero entries of that
    row; both are updated on colouring and undone on backtrack.  A vertex
    may open at most one new colour (symmetry breaking): colours
    in_use..k-1 appear nowhere yet, so they are interchangeable at every
    node, whatever vertex the dynamic order picks there."""
    adj = g.adjacency
    order = sorted(range(g.n), key=lambda v: (-len(adj[v]), v))
    colors = [-1] * g.n
    counts = [[0] * k for _ in range(g.n)]
    sat = [0] * g.n
    frames = []  # (vertex, colours in use before it) per coloured vertex
    in_use = 0
    while True:
        ticker.tick()
        v, best = -1, -1
        for w in order:
            if colors[w] < 0 and sat[w] > best:
                v, best = w, sat[w]
        if v < 0:
            return True
        frames.append((v, in_use))
        # give the deepest vertex its next colour, undoing the one it had,
        # and drop the vertices whose colours are used up
        while frames:
            v, in_use = frames[-1]
            c = colors[v]
            if c >= 0:
                for w in adj[v]:
                    counts[w][c] -= 1
                    if not counts[w][c]:
                        sat[w] -= 1
            row, limit = counts[v], min(k, in_use + 1)
            c += 1
            while c < limit and row[c]:
                c += 1
            if c < limit:
                break
            colors[v] = -1
            frames.pop()
        else:
            return False
        colors[v] = c
        for w in adj[v]:
            if not counts[w][c]:
                sat[w] += 1
            counts[w][c] += 1
        in_use = max(in_use, c + 1)


def chromatic_number(g: Graph, budget: Optional[SearchBudget] = None) -> SolveResult:
    """Exact chromatic number.  A greedy clique gives a lower bound lb and
    one DSATUR colouring an upper bound ub; k = lb, lb+1, ..., ub-1 are then
    tried in turn by a backtracking k-colouring search that branches on the
    uncoloured vertex of largest saturation (see :func:`_k_colorable`), and the
    first k that succeeds is the answer, else ub."""
    if g.n == 0:
        raise ValueError("graph must be nonempty")
    ticker = _Ticker(budget or SearchBudget())
    lb = _greedy_clique(g)
    _, ub = _dsatur(g)
    value = ub
    try:
        for k in range(lb, ub):
            if _k_colorable(g, k, ticker):
                value = k
                break
    except _BudgetExhausted:
        return SolveResult(ub, None, "timeout", ticker.nodes)
    return SolveResult(value, None, "exact", ticker.nodes)


@dataclass
class ConjectureReport:
    chi: SolveResult
    toi: SolveResult
    # True when an upper bound on chi is at most a witnessed lower bound on
    # toi, False only when chi and toi are both exact and chi > toi, None
    # otherwise
    satisfied: Optional[bool]
    colouring: list[int]  # the DSATUR colouring: proper, colours 0..k-1


def check_conjecture(g: Graph, budget: Optional[SearchBudget] = None) -> ConjectureReport:
    """Check chi(G) <= toi(G) from two witnesses where it can.

    The DSATUR colouring (:func:`_dsatur`) is checked proper and gives k
    colours, so chi <= k; then ``exact_toi(g, budget, max_t=k)`` asks for a
    K_k.  A verified K_k witness settles the conjecture for G, and chi is
    reported as k with status "upper-bound-only".  Only when level k is
    refuted does :func:`chromatic_number` run, on the nodes and time that
    exact_toi left; exact_toi has then descended to toi itself, exact when
    every refutation was complete.  The verdict is True when an upper bound
    on chi is at most the witnessed lower bound on toi, False only when
    both sides are exact and chi > toi, and None otherwise, at once on a
    toi timeout.

    Levels are monotone (dropping a terminal keeps a strong immersion), so
    when toi <= k the toi search is a suffix of the full descending one and
    the check spends no more nodes than exact chi plus full toi.  When
    toi > k the full search stops at a level above k and never searches
    level k itself, which can cost more."""
    budget = budget or SearchBudget()
    start = time.monotonic()
    colouring, k = _dsatur(g)
    if (any(colouring[u] == colouring[v] for u, v in g.edges)
            or not all(0 <= c < k for c in colouring)):
        raise RuntimeError("DSATUR colouring is not a proper "
                           f"{k}-colouring")
    toi = exact_toi(g, budget, max_t=k)
    chi = SolveResult(k, None, "upper-bound-only", 0)
    if toi.status != "timeout" and toi.value < k:
        nodes = budget.max_nodes - toi.nodes_explored
        seconds = (None if budget.time_limit is None
                   else budget.time_limit - (time.monotonic() - start))
        if nodes <= 0 or (seconds is not None and seconds <= 0):
            chi = SolveResult(k, None, "timeout", 0)
        else:
            chi = chromatic_number(
                g, replace(budget, max_nodes=nodes, time_limit=seconds))
    satisfied = None
    if toi.status != "timeout" and chi.status != "timeout":
        if chi.value <= toi.value:
            satisfied = True
        elif chi.status == toi.status == "exact":
            satisfied = False
    return ConjectureReport(chi, toi, satisfied, colouring)
