"""Exact small-instance computation of toi(G) and the chromatic number.

Exhaustive backtracking over terminal subsets and edge-disjoint odd route
systems, with degree-eligibility, bipartiteness, edge-budget, symmetry and
forward-check pruning and a table of refuted search states.  The forward
check cuts a route state where some unrouted pair has no odd walk left, or
where the unrouted pairs' shortest odd walks need more edges off the
terminals than are free: a route of odd length L >= 3 keeps its interior
off the terminals, so L - 2 of its edges join two non-terminals, and it is
itself such a walk, so L is at least the pair's shortest one; routes share
no edge, so the sum of these counts must fit in the free ones.  The chromatic
number is found by DSATUR-ordered backtracking for k-colourings between a
clique lower bound and a DSATUR upper bound.
This module is the independent brute-force oracle for the constructions: any
witness it returns is re-verified before being handed out, and a definitive
absence is only reported when the search space was fully enumerated.

Before any search, :func:`exact_toi` builds a lower bound in one pass: the
greedy clique, whose routes are its edges, or for a non-bipartite graph a
K_3 on an odd cycle (:func:`_constructed_witness`).  When it reaches the
top of the descent it is the answer, with no search node; otherwise it is
where the descent stops, and what a timeout reports.

The conjecture check chi(G) <= toi(G) (:func:`check_conjecture`) rests on
witnesses: a proper DSATUR colouring with k colours and a verified K_k
certificate settle it as True.  A K_k certificate whose routes are single
edges is a K_k subgraph, which makes chi = k exact; so does any K_k
certificate for k <= 3.  The exact chromatic number is searched only when
level k is refuted, and False needs chi and toi both exact.

Exactness rule: an answer is exact when the witnessed lower end meets the
proven upper end.  The lower end is the largest verified witness.  The
upper end starts at the eligibility bound (2 on a bipartite graph) and
drops to t - 1 when :meth:`_ToiSearch.find` refutes level t with
``cap_pruned`` False.  Terminal sets skipped by the edge-budget bound
(proved in :func:`exact_toi`) or, on such a level, mapped to an earlier
set by a product automorphism (proved in :meth:`_ToiSearch.find`) have
no route system at all, and branches cut by the forward check or
skipped as refuted states (both proved in :meth:`_ToiSearch._assign`) have
no completion, so none weakens a refutation; the route length cap does
where it cut a branch.  A single level is asked through
``exact_toi(g, budget, max_t=t)``: ``value == t`` means K_t is present,
``value < t`` with status "exact" means it is definitely absent.
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
    """Resource limits for one solver call.  ``time_limit`` is in process
    CPU seconds, whose pace varies with load; only ``max_nodes`` stops a
    search at the same point on every run.  ``max_route_length`` caps the
    routes the search enumerates only: a constructed witness (see
    :func:`_constructed_witness`) is verified but may have longer routes."""

    max_nodes: int = 200_000_000
    time_limit: Optional[float] = None
    max_route_length: Optional[int] = None

    def __post_init__(self):
        # written so that NaN, for which every comparison is False, fails
        if not self.max_nodes > 0:
            raise ValueError("max_nodes must be positive")
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError("time_limit must be positive")
        if self.max_route_length is not None and not self.max_route_length > 0:
            raise ValueError("max_route_length must be positive")


@dataclass
class SolveResult:
    value: int
    witness: Optional[Certificate]
    # "exact" when the witnessed lower end meets the proven upper end, else
    # "lower-bound-only", or "timeout"; chi is "upper-bound-only" only in
    # check_conjecture, where a colouring bounds it
    status: str
    nodes_explored: int


class _BudgetExhausted(Exception):
    pass


# route enumeration is capped by default on large hosts; a level the cap
# cuts proves no upper bound
_DEFAULT_CAP_THRESHOLD = 20
_DEFAULT_CAP = 9
# entries of _ToiSearch._assign's refuted-state table; inserts stop when it
# is full, which bounds its memory and keeps node counts deterministic
_REFUTED_CAP = 1 << 16


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
        self.deadline = (time.process_time() + budget.time_limit
                         if budget.time_limit is not None else None)

    def tick(self):
        # the node past the budget is refused uncounted: nodes <= max_nodes
        if self.nodes >= self.max_nodes:
            raise _BudgetExhausted
        self.nodes += 1
        if self.deadline is not None and self.nodes % 256 == 0:
            if time.process_time() > self.deadline:
                raise _BudgetExhausted


class _ToiSearch:
    def __init__(self, g: Graph, budget: SearchBudget):
        self.g = g
        self.cap = _effective_cap(g, budget)
        self.ticker = _Ticker(budget)
        self.adj_mask = g._adjacency_masks
        self.degree = tuple(mask.bit_count() for mask in self.adj_mask)
        self.automorphisms = _product_automorphisms(g)
        # set when the route length cap prunes a branch during find()
        self.cap_pruned = False

    def _routes(self, src: int, dst: int, free, terminals: int):
        """Yield simple odd routes from src to dst, src < dst, as vertex
        tuples, on the edges in ``free`` (``free[v]`` masks v's neighbours
        across a free edge) and with no vertex of ``terminals`` (a bit mask)
        in the interior.  Depth-first from src, lowest neighbour bit first,
        with one frame per path vertex: its untried free neighbours off the
        path and off the terminals but dst, the path so far and the vertices
        the path may not enter; each frame is one search node.  A simple
        route never re-enters a path vertex, so it never retakes one of its
        own edges: ``free`` is all the edge state it needs."""
        cap, tick = self.cap, self.ticker.tick
        tick()
        avoid = terminals & ~(1 << dst)
        frames = [(free[src] & ~avoid, (src,), avoid)]
        while frames:
            cands, path, avoid = frames.pop()
            while cands:
                low = cands & -cands
                cands ^= low
                w = low.bit_length() - 1
                if w == dst:
                    if len(path) % 2:  # the route has len(path) edges
                        yield path + (w,)
                    continue
                if len(path) >= cap:
                    self.cap_pruned = True
                    continue
                tick()
                frames.append((cands, path, avoid))
                avoid |= low
                frames.append((free[w] & ~avoid, path + (w,), avoid))
                break

    def find(self, t: int) -> Optional[Certificate]:
        """First totally odd strong K_t certificate in deterministic order,
        or None after exhausting the space.  Raises on budget exhaustion.
        ``cap_pruned`` tells afterwards whether the route cap cut a branch.

        Symmetry.  A terminal set T is skipped when one of
        ``self.automorphisms`` maps it to a set earlier in the walk (sorted
        positions in ``order``, compared lexicographically).  Proof: the walk
        stops at its first hit, so every earlier set was refuted: searched,
        skipped by the edge-budget bound or, by induction, by this rule.
        Automorphisms keep route lengths, so the cap acts on T as on its
        image: if that was searched with a cap prune, ``cap_pruned`` is set;
        if the level ends with it unset, the image, and so T, has no route
        system.  The first hit is never skipped, as its image would be an
        earlier hit: witness bytes stay, and a status only gets stronger."""
        g = self.g
        self.cap_pruned = False
        order = [v for v in g._degree_order if self.degree[v] >= t - 1]
        pairs = list(itertools.combinations(range(t), 2))
        # q[v]: where in order an automorphism (it keeps degrees) puts v
        rank = {v: i for i, v in enumerate(order)}
        images = [{v: rank[p[v]] for v in order} for p in self.automorphisms]
        for combo in itertools.combinations(order, t):
            self.ticker.tick()
            subset = tuple(sorted(combo))
            if self._edge_budget_refutes(subset):
                continue
            if images:
                at = [rank[v] for v in combo]
                if any(sorted(map(q.__getitem__, combo)) < at for q in images):
                    continue
            chosen = self._assign(subset, sum(1 << v for v in subset), pairs)
            if chosen is not None:
                return _verified(g, Certificate(
                    t, subset, {p: Route(v) for p, v in zip(pairs, chosen)}))
        return None

    def _assign(self, subset, terminals, pairs) -> Optional[list]:
        """Route every pair edge-disjointly; returns the routes in pair
        order, or None when there are none.  Depth-first over the pairs in
        order, with one frame per pair being routed: its route iterator and
        ``free``, the search's one edge state, which :meth:`_routes` and the
        forward check both walk: ``free[v]`` masks v's neighbours across an
        edge that no earlier route takes.

        No terminal can run out of free incident edges here, so none is
        checked: a route is simple and has no terminal in its interior, so
        it uses exactly one edge at each of its two terminals and none at
        any other.  A terminal v has thus spent one edge per routed pair at
        v, and deg(v) >= t - 1 (the eligibility rule of :meth:`find`)
        leaves at least one free edge for each of its unrouted pairs.

        Forward check.  Before a pair is routed, every unrouted pair must
        still have an odd walk on free edges with no terminal in its
        interior, and the sum over those pairs of max(l - 2, 0), l the
        length of the pair's shortest such walk (:func:`_odd_walks`), must
        not exceed ``spare``, the free edges with both ends off the
        terminals; else the branch is cut here instead of at some pair's
        level.  Proof: a strong odd route on free edges, simple or a trail,
        is such a walk, so a pair without one has no route in any
        completion of ``chosen``, and a pair's route has L >= l edges.  For
        L >= 3 its interior holds no terminal, so its L - 2 middle edges
        join two non-terminals, and as routes share no edge, a completion
        takes at least the sum of spare edges.  ``spare`` is kept per
        frame: a route of L edges takes max(L - 2, 0) of them.  The walks
        ignore the route cap, so the check only cuts subtrees with no
        solution with or without the cap; the DFS order, the first witness
        and its bytes are unchanged, and ``cap_pruned`` can only be set
        less often, which makes a status no weaker.

        Refuted states.  A frame whose routes are used up, or that the
        forward check cut, leaves its ``free`` in ``refuted``; a state found
        there is dropped at once, as if cut.  ``free`` alone fixes the pair
        index: by the count above, the terminals have spent two edges per
        routed pair between them, and it fixes ``spare``, the free edges
        off the terminals.  Proof: below a frame, :meth:`_routes`,
        :func:`_odd_walks`, ``spare`` and the route cap read only ``free``,
        the fixed terminals and the fixed pair order, so a revisit would
        repeat the same subtree, which holds no completion and sets
        ``cap_pruned`` only if the first visit already did.  Only the node
        count falls.  Inserts stop at ``_REFUTED_CAP`` entries."""
        frames = []
        chosen = []  # the current route of each frame
        free = self.adj_mask
        # free edges with both ends off the terminals: m, less the edges at
        # a terminal, counting an edge between two terminals once
        spare = 2 * self.g.m
        for v in subset:
            spare -= 2 * self.degree[v] - (free[v] & terminals).bit_count()
        spare //= 2
        refuted = set()  # the free of each used-up frame
        while len(frames) < len(pairs):
            a, b = pairs[len(frames)]
            routes = iter(())  # a refuted or cut state has none
            if free not in refuted:
                # the pairs from (a, b) on are (a, b') for b' >= b, then
                # every pair of a later row
                cut, budget = -(1 << subset[b]), spare
                for s in subset[a:-1]:
                    excess = _odd_walks(s, terminals & -(2 << s) & cut, free,
                                        terminals)
                    if excess is None or excess > budget:
                        break
                    cut, budget = -1, budget - excess
                else:
                    routes = self._routes(subset[a], subset[b], free, terminals)
            frames.append((routes, free, spare))
            # move the deepest frame to its next route, dropping the frames
            # whose routes are used up
            while frames:
                routes, free, spare = frames[-1]
                route = next(routes, None)
                if route is not None:
                    break
                frames.pop()
                if len(refuted) < _REFUTED_CAP:
                    refuted.add(free)
            else:
                return None
            del chosen[len(frames) - 1:]
            chosen.append(route)
            # a route of L >= 3 edges takes L - 2 edges off the terminals
            if len(route) > 2:
                spare -= len(route) - 3
            free = list(free)
            for u, w in zip(route, route[1:]):
                free[u] &= ~(1 << w)
                free[w] &= ~(1 << u)
            free = tuple(free)
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
            degree_sum += self.degree[v]
        t = len(subset)
        far = t * (t - 1) // 2 - twice_adjacent // 2
        terminal_other = degree_sum - twice_adjacent
        other_other = self.g.m - twice_adjacent // 2 - terminal_other
        return 2 * far > terminal_other or far > other_other


def _factor_maps(k: int) -> list:
    """Permutations of range(k): the adjacent transpositions, and for
    k >= 3 the rotation i -> i + 1 and the reversal i -> k - 1 - i, which
    is an automorphism of P_k, C_k and K_k alike."""
    ids = list(range(k))
    maps = [ids[:i] + [i + 1, i] + ids[i + 2:] for i in range(k - 1)]
    return maps + ([ids[1:] + [0], ids[::-1]] if k >= 3 else [])


def _product_automorphisms(g: Graph) -> tuple:
    """The vertex maps p that act on one factor coordinate of a labelled
    host by :func:`_factor_maps`, or transpose a square grid, and keep
    N(p(v)) = p(N(v)) at every moved v, which makes p an automorphism: an
    edge with a moved end is seen from it.  An unlabelled host has none."""
    if not g.labels:
        return ()
    ng, nh = (x + 1 for x in g.labels[-1])
    grid = [(a, c) for a in range(ng) for c in range(nh)]
    candidates = [[p[a] * nh + c for a, c in grid] for p in _factor_maps(ng)]
    candidates += [[a * nh + p[c] for a, c in grid] for p in _factor_maps(nh)]
    candidates += [[c * nh + a for a, c in grid]] if ng == nh else []
    return tuple(p for p in candidates if all(
        tuple(sorted(map(p.__getitem__, g.adjacency[v]))) == g.adjacency[p[v]]
        for v in range(g.n) if p[v] != v))


def _verified(g: Graph, cert: Certificate) -> Certificate:
    """``cert`` once it verifies ``totally-odd-strong`` in g; raises
    otherwise, also under python -O."""
    report = verify(g, cert)
    if not report.all_ok:
        raise RuntimeError("solver witness failed verification: "
                           f"{report.first_violation}")
    return cert


def _odd_walks(src, need, free, terminals) -> Optional[int]:
    """The sum of max(l - 2, 0) over the vertices y in ``need``, where l is
    the length of a shortest odd walk from ``src`` to y on the edges in
    ``free`` whose interior avoids ``terminals``; None when some y has no
    such walk.  BFS over (vertex, parity), one reach mask per parity: y
    enters the odd mask at layer l, and the BFS stops once all of ``need``
    has entered it."""
    odd, even = free[src], 0
    frontier, need = odd & ~terminals, need & ~odd
    excess, length = 0, 1
    while need:
        if not frontier:
            return None
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= free[low.bit_length() - 1]
            frontier ^= low
        length += 1
        if length & 1:
            reach, odd = reach & ~odd, odd | reach
            if reach & need:
                excess += (reach & need).bit_count() * (length - 2)
                need &= ~reach
        else:
            reach, even = reach & ~even, even | reach
        frontier = reach & ~terminals
    return excess


def _eligibility_bound(g: Graph) -> int:
    masks = g._adjacency_masks
    return max(t for t, v in enumerate(g._degree_order, 1)
               if masks[v].bit_count() >= t - 1)


def exact_toi(g: Graph, budget: Optional[SearchBudget] = None,
              max_t: Optional[int] = None) -> SolveResult:
    """Maximum t with a totally odd strong K_t immersion, by descending search.

    ``lower`` is the witnessed size: the constructed witness of
    :func:`_constructed_witness`, or the level the search hits.  ``upper``
    is the proven bound: the eligibility bound, 2 on a bipartite graph, and
    t - 1 once level t is refuted without a route cap prune (no K_t means
    no larger clique either).  ``max_t`` only sets where the descent
    starts, at ``min(upper, max_t)``.  When the constructed witness reaches
    that start it is the answer after 0 nodes; otherwise levels are searched
    from there down to the constructed size, inclusive.  The status is
    "exact" when ``lower == upper``, budget spent or not; else "timeout" if
    the budget ran out, with the constructed witness, else "lower-bound-only".

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
    clique, odd_cycle = _greedy_clique(g), None
    # a clique of 3 or more holds an odd cycle, and only a smaller one needs
    # is_bipartite's cycle for the witness
    if len(clique) < 3:
        bipartite, odd_cycle = is_bipartite(g)
        if bipartite:
            upper = min(upper, 2)
    top = upper if max_t is None else min(upper, max_t)
    built = _constructed_witness(clique, odd_cycle, top)
    lower, witness, nodes, timed_out = built.clique_size, None, 0, False
    if lower < top:
        search = _ToiSearch(g, budget)
        try:
            for t in range(top, lower - 1, -1):
                witness = search.find(t)
                if witness is not None:
                    lower = t
                    break
                # no K_t, so no larger clique either
                if not search.cap_pruned:
                    upper = t - 1
        except _BudgetExhausted:
            timed_out = True
        nodes = search.ticker.nodes
    status = ("exact" if lower == upper
              else "timeout" if timed_out else "lower-bound-only")
    return SolveResult(lower, witness or _verified(g, built), status, nodes)


def _greedy_clique(g: Graph) -> list:
    """The largest of the cliques grown greedily from each vertex, members
    in order of descending degree, then id; the first one on ties.  A scan
    stops once no vertex is adjacent to every member."""
    best = []
    adj_mask, order = g._adjacency_masks, g._degree_order
    for v in order:
        # common: the vertices adjacent to every member of the clique so far
        members, common = [v], adj_mask[v]
        for w in order:
            if common >> w & 1:
                members.append(w)
                common &= adj_mask[w]
                if not common:
                    break
        if len(members) > len(best):
            best = members
    return best


def _constructed_witness(clique, odd_cycle, upper: int) -> Certificate:
    """A K_r certificate built in one pass, r at most ``upper``: the larger
    of two witnesses, the clique on ties, cut to its first ``upper``
    terminals.

    ``clique``, the greedy clique (:func:`_greedy_clique`), is its own
    certificate: its vertices, ascending, are the terminals and every route
    is one edge.  ``odd_cycle``, the cycle :func:`is_bipartite` returns for a
    non-bipartite graph (None otherwise), carries a K_3: with c0, c1, c2 its
    first three vertices, two routes are the edges c0-c1 and c1-c2, and the
    third runs from c0 backwards round the rest of the cycle to c2.  On a
    cycle of odd length L that route has L - 2 edges, an odd number, and its
    interior holds no terminal; the three routes share no edge."""
    if odd_cycle is not None and len(clique) < 3:
        c = odd_cycle
        terminals = (c[0], c[1], c[2])
        routes = {(0, 1): (c[0], c[1]), (1, 2): (c[1], c[2]),
                  (0, 2): (c[0], *c[:1:-1])}
    else:
        terminals = tuple(sorted(clique))
        routes = {(a, b): (terminals[a], terminals[b])
                  for a, b in itertools.combinations(range(len(terminals)), 2)}
    r = min(len(terminals), upper)
    # the caller verifies the whole certificate (_verified)
    return Certificate(r, terminals[:r], {pair: Route._trusted(vertices)
                                          for pair, vertices in routes.items()
                                          if pair[1] < r})


def _dsatur(g: Graph):
    """DSATUR coloring; returns (color list, number of colors).  Ties in
    saturation go to the higher degree, then the lower id.  Each vertex keeps
    a bit mask of its coloured neighbours' colours and their count; a vertex
    takes its mask's lowest clear bit as its colour and sets that bit in its
    neighbours' masks, walking its neighbour bit mask lowest bit first."""
    colors = [-1] * g.n
    seen = [0] * g.n  # bit c: colour c is on a coloured neighbour
    sat = [0] * g.n
    adj_mask, order = g._adjacency_masks, g._degree_order
    for _ in order:
        v, best = -1, -1
        for u in order:
            if colors[u] < 0 and sat[u] > best:
                v, best = u, sat[u]
        s = seen[v]
        c = (~s & (s + 1)).bit_length() - 1
        colors[v] = c
        bit, nbrs = 1 << c, adj_mask[v]
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            w = low.bit_length() - 1
            if not seen[w] & bit:
                seen[w] |= bit
                sat[w] += 1
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
    adj, order = g.adjacency, g._degree_order
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
    lb = len(_greedy_clique(g))
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
    reported as k.  Its status is "exact" when every route of the witness
    is a single edge: the terminals then span a K_k subgraph, so chi >= k.
    This holds whenever the greedy clique has k vertices, and no search node
    is spent.  It is "exact" for k <= 3 as well: a K_2 witness has an edge,
    and the three odd routes of a K_3 witness close an odd walk, so G is
    not bipartite.  Otherwise chi is "upper-bound-only".  Only when level k is
    refuted does :func:`chromatic_number` run, on the nodes and time that
    exact_toi left; exact_toi has then descended to toi itself, exact when
    the witnessed lower end meets the proven upper end.  The verdict is
    True when chi's value, an upper bound on chi, is at most toi's value, a
    witnessed lower bound on toi; False when both are exact; None
    otherwise.  A timeout never decides it: a toi timeout leaves
    toi < k = chi, and a chi timeout leaves chi = k > toi.

    Levels are monotone (dropping a terminal keeps a strong immersion), so
    when toi <= k the toi search is a suffix of the full descending one and
    the check spends no more nodes than exact chi plus full toi.  When
    toi > k the full search stops at a level above k and never searches
    level k itself, which can cost more."""
    budget = budget or SearchBudget()
    start = time.process_time() if budget.time_limit is not None else None
    colouring, k = _dsatur(g)
    if (any(colouring[u] == colouring[v] for u, v in g.edges)
            or not all(0 <= c < k for c in colouring)):
        raise RuntimeError("DSATUR colouring is not a proper "
                           f"{k}-colouring")
    toi = exact_toi(g, budget, max_t=k)
    chi = SolveResult(k, None, "upper-bound-only", 0)
    if toi.value == k:
        if k <= 3 or all(route.edge_count == 1
                         for route in toi.witness.connections.values()):
            chi = SolveResult(k, None, "exact", 0)
    elif toi.status != "timeout":
        nodes = budget.max_nodes - toi.nodes_explored
        seconds = (None if budget.time_limit is None
                   else budget.time_limit - (time.process_time() - start))
        if nodes <= 0 or (seconds is not None and seconds <= 0):
            chi = SolveResult(k, None, "timeout", 0)
        else:
            chi = chromatic_number(
                g, replace(budget, max_nodes=nodes, time_limit=seconds))
    satisfied = (True if chi.value <= toi.value
                 else False if chi.status == toi.status == "exact" else None)
    return ConjectureReport(chi, toi, satisfied, colouring)
