"""Exact small-instance computation of toi(G) and the chromatic number.

Exhaustive backtracking over terminal subsets and edge-disjoint odd route
systems, with degree-eligibility, bipartiteness and edge-budget pruning.
This module is the independent brute-force oracle for the constructions: any
witness it returns is re-verified before being handed out, and a definitive
absence is only reported when the search space was fully enumerated.

Exactness rule: a level t is refuted when :meth:`_ToiSearch.find` returns
None.  Terminal sets skipped by the edge-budget bound (proved in
:func:`exact_toi`) have no route system at all, so they never weaken a
refutation.  The route length cap does, but only where it actually cut a
branch: a refutation counts as complete unless the cap pruned a
non-terminal neighbour while that level was searched.  An answer is exact
when every level above it was refuted completely.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
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
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time_limit must be positive")
        if self.max_route_length is not None and self.max_route_length <= 0:
            raise ValueError("max_route_length must be positive")


@dataclass
class SolveResult:
    value: int
    witness: Optional[Certificate]
    status: str  # "exact" | "lower-bound-only" | "timeout"
    nodes_explored: int


@dataclass
class CliqueSearchOutcome:
    """Answer to 'does G contain a totally odd strong K_t immersion?'.

    ``definitive`` is False only when the budget ran out; an absence with
    ``definitive=True`` means the full space was enumerated.
    """

    certificate: Optional[Certificate]
    definitive: bool
    nodes_explored: int


class _BudgetExhausted(Exception):
    pass


# route enumeration is capped by default on large hosts; such runs can only
# report lower bounds
_DEFAULT_CAP_THRESHOLD = 20
_DEFAULT_CAP = 9


def _effective_cap(g: Graph, budget: SearchBudget) -> Optional[int]:
    cap = budget.max_route_length
    if cap is None:
        cap = None if g.m <= _DEFAULT_CAP_THRESHOLD else _DEFAULT_CAP
    if cap is not None and cap >= g.m:
        cap = None
    return cap


class _Ticker:
    """Search node counter that enforces a budget's node and time limits."""

    def __init__(self, budget: SearchBudget):
        self.max_nodes = budget.max_nodes
        self.nodes = 0
        self.deadline = (time.monotonic() + budget.time_limit
                         if budget.time_limit is not None else None)

    def tick(self):
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise _BudgetExhausted
        if self.deadline is not None and self.nodes % 256 == 0:
            if time.monotonic() > self.deadline:
                raise _BudgetExhausted


class _ToiSearch:
    def __init__(self, g: Graph, budget: SearchBudget):
        self.g = g
        self.cap = _effective_cap(g, budget)
        self.ticker = _Ticker(budget)
        self.edge_index = {e: idx for idx, e in enumerate(sorted(g.edges))}
        self.adj = g.adjacency
        self.adj_mask = [sum(1 << w for w in nbrs) for nbrs in self.adj]
        # set when the route length cap prunes a branch during find()
        self.cap_pruned = False

    def _routes(self, src: int, dst: int, used: int, terminals: frozenset):
        """Yield simple odd routes from src to dst avoiding used edges and
        all terminals as interior vertices, as (vertex tuple, edge mask).

        DFS from the lower-id endpoint, neighbors ascending; result oriented
        from src.
        """
        start, goal = (src, dst) if src < dst else (dst, src)
        cap = self.cap if self.cap is not None else self.g.m
        path = [start]
        visited = {start}
        tick = self.ticker.tick

        def dfs(v, mask, length):
            tick()
            for w in self.adj[v]:
                eidx = self.edge_index[(v, w) if v < w else (w, v)]
                bit = 1 << eidx
                if (used | mask) & bit or w in visited:
                    continue
                if w == goal:
                    if length % 2 == 0:  # length+1 odd
                        verts = tuple(path) + (w,)
                        if start != src:
                            verts = tuple(reversed(verts))
                        yield verts, mask | bit
                    continue
                if w in terminals:
                    continue
                if length + 1 >= cap:
                    self.cap_pruned = True
                    continue
                visited.add(w)
                path.append(w)
                yield from dfs(w, mask | bit, length + 1)
                path.pop()
                visited.remove(w)

        yield from dfs(start, 0, 0)

    def find(self, t: int) -> Optional[Certificate]:
        """First totally odd strong K_t certificate in deterministic order,
        or None after exhausting the space.  Raises on budget exhaustion.
        ``cap_pruned`` tells afterwards whether the route cap cut a branch."""
        g = self.g
        self.cap_pruned = False
        if t == 1:
            return Certificate(1, (0,)) if g.n >= 1 else None
        eligible = [v for v in range(g.n) if len(self.adj[v]) >= t - 1]
        if len(eligible) < t:
            return None
        order = sorted(eligible, key=lambda v: (-len(self.adj[v]), v))
        pairs = list(itertools.combinations(range(t), 2))
        for combo in itertools.combinations(order, t):
            self.ticker.tick()
            subset = tuple(sorted(combo))
            if self._edge_budget_refutes(subset):
                continue
            terminal_set = frozenset(subset)
            chosen = {}

            def assign(pi, used):
                if pi == len(pairs):
                    return True
                a, b = pairs[pi]
                for verts, mask in self._routes(subset[a], subset[b], used,
                                                terminal_set):
                    chosen[(a, b)] = verts
                    if self._feasible(subset, pairs, pi + 1, used | mask):
                        if assign(pi + 1, used | mask):
                            return True
                    del chosen[(a, b)]
                return False

            if assign(0, 0):
                cert = Certificate(t, subset,
                                   {p: Route(v) for p, v in chosen.items()})
                report = verify(g, cert)
                assert report.all_ok, report.first_violation
                return cert
        return None

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

    def _feasible(self, subset, pairs, pi, used) -> bool:
        """Every terminal must keep enough free incident edges for its
        remaining unconnected pairs."""
        remaining = [0] * len(subset)
        for a, b in pairs[pi:]:
            remaining[a] += 1
            remaining[b] += 1
        for pos, v in enumerate(subset):
            if remaining[pos] == 0:
                continue
            free = 0
            for w in self.adj[v]:
                eidx = self.edge_index[(v, w) if v < w else (w, v)]
                if not (used >> eidx) & 1:
                    free += 1
            if free < remaining[pos]:
                return False
        return True


def _eligibility_bound(g: Graph) -> int:
    degs = sorted((len(a) for a in g.adjacency), reverse=True)
    u = 0
    for t in range(1, g.n + 1):
        if degs[t - 1] >= t - 1:
            u = t
    return max(u, 1)


def has_toi_clique(g: Graph, t: int,
                   budget: Optional[SearchBudget] = None) -> CliqueSearchOutcome:
    """Search for a totally odd strong K_t immersion certificate.

    A returned certificate always passes full verification.  Absence is
    definitive only for a search within budget whose route cap never cut a
    branch.
    """
    if t < 1:
        raise ValueError("clique size must be positive")
    budget = budget or SearchBudget()
    search = _ToiSearch(g, budget)
    try:
        cert = search.find(t)
    except _BudgetExhausted:
        return CliqueSearchOutcome(None, False, search.ticker.nodes)
    definitive = cert is not None or not search.cap_pruned
    return CliqueSearchOutcome(cert, definitive, search.ticker.nodes)


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
    if g.m == 0:
        upper = 1
    truncated = max_t is not None and max_t < upper
    if truncated:
        upper = max_t
    search = _ToiSearch(g, budget)
    refuted_completely = True
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
    return SolveResult(1, Certificate(1, (0,)), "exact", search.ticker.nodes)


def _greedy_clique(g: Graph) -> int:
    best = 0
    order = sorted(range(g.n), key=lambda v: (-len(g.adjacency[v]), v))
    for v in order:
        clique = [v]
        for w in order:
            if w != v and all(g.has_edge(w, x) for x in clique):
                clique.append(w)
        best = max(best, len(clique))
    return best


def _dsatur(g: Graph):
    """DSATUR coloring; returns (color list, number of colors)."""
    colors = [-1] * g.n
    for _ in range(g.n):
        best_v, best_key = -1, None
        for v in range(g.n):
            if colors[v] != -1:
                continue
            sat = len({colors[w] for w in g.adjacency[v] if colors[w] != -1})
            key = (sat, len(g.adjacency[v]), -v)
            if best_key is None or key > best_key:
                best_v, best_key = v, key
        forbidden = {colors[w] for w in g.adjacency[best_v]}
        c = 0
        while c in forbidden:
            c += 1
        colors[best_v] = c
    return colors, (max(colors) + 1 if g.n else 0)


def _k_colorable(g: Graph, k: int, ticker: _Ticker) -> bool:
    order = sorted(range(g.n), key=lambda v: (-len(g.adjacency[v]), v))
    colors = {}

    def bt(idx, in_use):
        """Colour order[idx:] given colours 0..in_use-1 on order[:idx]; a
        vertex may open at most one new colour (symmetry breaking)."""
        ticker.tick()
        if idx == g.n:
            return True
        v = order[idx]
        used_colors = {colors[w] for w in g.adjacency[v] if w in colors}
        for c in range(min(k, in_use + 1)):
            if c in used_colors:
                continue
            colors[v] = c
            if bt(idx + 1, max(in_use, c + 1)):
                return True
            del colors[v]
        return False

    return bt(0, 0)


def chromatic_number(g: Graph, budget: Optional[SearchBudget] = None) -> SolveResult:
    """Exact chromatic number by branch and bound between a greedy clique
    lower bound and a DSATUR upper bound."""
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
    satisfied: Optional[bool]  # None when either side is not exact


def check_conjecture(g: Graph, budget: Optional[SearchBudget] = None) -> ConjectureReport:
    """Check chi(G) <= toi(G); asserted only when both solvers are exact."""
    budget = budget or SearchBudget()
    chi = chromatic_number(g, budget)
    toi = exact_toi(g, budget)
    satisfied = None
    if chi.status == "exact" and toi.status == "exact":
        satisfied = chi.value <= toi.value
    return ConjectureReport(chi, toi, satisfied)
