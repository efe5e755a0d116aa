"""Exhaustive solver: exact values, budget behavior, chromatic number."""

import gc
import hashlib
import itertools
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toi.solver
from toi.certificates import Certificate, serialize_certificate, verify
from toi.graphs import (
    Graph,
    cartesian_product,
    complete_graph,
    cycle_graph,
    direct_product,
    is_bipartite,
    lexicographic_product,
    path_graph,
    strong_product,
)
from toi.solver import (
    SearchBudget,
    SolveResult,
    _k_colorable,
    _Ticker,
    _ToiSearch,
    check_conjecture,
    chromatic_number,
    exact_toi,
)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    edges = frozenset(tuple(sorted(e)) for e in outer + inner + spokes)
    return Graph(10, edges, name="Petersen")


KNOWN_TOI = [
    (complete_graph(1), 1),
    (complete_graph(2), 2),
    (complete_graph(4), 4),
    (complete_graph(5), 5),
    (cycle_graph(4), 2),
    (cycle_graph(5), 3),
    (cycle_graph(7), 3),
    (path_graph(4), 2),
    (Graph(3, frozenset()), 1),
]


@pytest.mark.parametrize("g,value", KNOWN_TOI)
def test_known_values(g, value):
    res = exact_toi(g)
    assert res.status == "exact"
    assert res.value == value


def test_witness_always_verifies():
    for g, _ in KNOWN_TOI:
        res = exact_toi(g)
        rep = verify(g, res.witness)
        assert rep.all_ok


def test_odd_cycle_witness_uses_whole_cycle():
    res = exact_toi(cycle_graph(5))
    assert res.value == 3
    used = set()
    for route in res.witness.connections.values():
        used.update(route.edge_set())
    assert len(used) + len(res.witness.connections) >= 5


def test_bipartite_graphs_capped_at_two():
    for g in (cycle_graph(6), path_graph(5),
              cartesian_product(complete_graph(2), complete_graph(2))):
        assert is_bipartite(g)[0]
        res = exact_toi(g)
        assert res.status == "exact"
        assert res.value <= 2


def test_max_t_asks_a_single_level():
    # value == t: K_t is present; value < t with "exact": definitely absent
    present = exact_toi(complete_graph(4), max_t=4)
    assert present.value == 4
    assert verify(complete_graph(4), present.witness).all_ok
    absent = exact_toi(cycle_graph(4), max_t=3)
    assert absent.value < 3 and absent.status == "exact"


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)
    with pytest.raises(ValueError):
        SearchBudget(time_limit=-1)
    with pytest.raises(ValueError):
        SearchBudget(time_limit=float("nan"))
    with pytest.raises(ValueError):
        SearchBudget(max_route_length=0)


def test_tiny_budget_times_out():
    g = cartesian_product(complete_graph(3), complete_graph(3))
    res = exact_toi(g, SearchBudget(max_nodes=5))
    assert res.status == "timeout"
    assert res.value == 1
    # the refused sixth node is not counted
    assert res.nodes_explored == 5


@pytest.mark.parametrize("solve", [
    lambda b: exact_toi(cartesian_product(complete_graph(3),
                                          complete_graph(4)), b),
    lambda b: chromatic_number(mycielski(5), b),
], ids=["exact_toi", "chromatic_number"])
def test_expired_clock_stops_at_the_first_check(solve):
    # the clock is read every 256th node, so an already-passed deadline
    # stops both searches there
    res = solve(SearchBudget(time_limit=1e-9))
    assert (res.status, res.nodes_explored) == ("timeout", 256)


def test_max_t_truncation_is_lower_bound_only():
    res = exact_toi(complete_graph(5), max_t=3)
    assert res.value == 3
    assert res.status == "lower-bound-only"


def test_route_length_cap_degrades_status():
    # a capped search that finds the answer below the degree bound cannot
    # rule out larger cliques reached through long routes
    g = cycle_graph(9)
    res = exact_toi(g, SearchBudget(max_route_length=1))
    assert res.value == 2  # true value is 3, reachable only via longer routes
    assert res.status == "lower-bound-only"


def test_route_length_cap_admits_routes_of_that_length():
    # on C5 the only odd route from 0 to 2 is 0-4-3-2, three edges long
    def routes(cap):
        search = _ToiSearch(cycle_graph(5), SearchBudget(max_route_length=cap))
        return [verts for verts, _ in search._routes(0, 2, 0, 1 | 1 << 2)]
    assert routes(3) == [(0, 4, 3, 2)]
    assert routes(2) == []


@pytest.mark.parametrize("solve", [exact_toi, chromatic_number])
def test_empty_graph_is_rejected(solve):
    with pytest.raises(ValueError) as err:
        solve(Graph(0, frozenset()))
    assert str(err.value) == "graph must be nonempty"


def test_max_t_must_be_positive():
    with pytest.raises(ValueError):
        exact_toi(complete_graph(4), max_t=0)


def _witness_sha(res):
    return hashlib.sha256(serialize_certificate(res.witness).encode()).hexdigest()


def test_edge_budget_bound_proves_direct_k3_k4():
    # every K_7 terminal set and all but one failing K_6 set of K3 x K4 need
    # more edges than its 36; the capped search never cuts a branch
    res = exact_toi(direct_product(complete_graph(3), complete_graph(4)))
    assert res.value == 6 and res.status == "exact"
    assert res.nodes_explored < 50_000
    assert _witness_sha(res) == ("091e591621af78c4fc75d8116de8de53"
                                 "8906878c811e8451046a4dce4dd518e1")


def test_direct_c5_c5_witness_bytes():
    res = exact_toi(direct_product(cycle_graph(5), cycle_graph(5)))
    assert res.value == 5 and res.status == "exact"
    assert _witness_sha(res) == ("ecd58c8174d4f597e97eedf9e9443b8e"
                                 "a058a90328a4100c867bceb84c10a8a6")


def test_cap_that_never_prunes_keeps_exactness():
    # m = 25 turns the default route cap on, but no route reaches it
    res = exact_toi(cartesian_product(cycle_graph(5), path_graph(3)))
    assert res.value == 4 and res.status == "exact"
    res = exact_toi(direct_product(complete_graph(3), complete_graph(4)),
                    max_t=7)
    assert res.value < 7 and res.status == "exact"


def _differential_graphs():
    yield from _all_graphs(5)
    rng = random.Random(2025)
    pairs = {n: list(itertools.combinations(range(n), 2)) for n in (7, 8)}
    for _ in range(200):
        n = rng.choice((7, 8))
        density = rng.uniform(0.3, 0.8)
        yield Graph(n, frozenset(e for e in pairs[n] if rng.random() < density))


def _assert_rule_changes_no_answer(monkeypatch, owner, name, off):
    """Solve the differential graphs with a pruning rule, then again with
    ``owner.name`` replaced by ``off``, which turns the rule off: value and
    witness bytes must match, a status may only get stronger with the rule,
    and the rule never adds nodes."""
    graphs = list(_differential_graphs())
    pruned = [exact_toi(g) for g in graphs]
    monkeypatch.setattr(owner, name, off)
    for g, fast in zip(graphs, pruned):
        slow = exact_toi(g)
        assert fast.value == slow.value
        assert serialize_certificate(fast.witness) == \
            serialize_certificate(slow.witness)
        assert fast.status == slow.status or (
            fast.status, slow.status) == ("exact", "lower-bound-only")
        assert fast.nodes_explored <= slow.nodes_explored


def test_edge_budget_bound_changes_no_answer(monkeypatch):
    # the bound only skips terminal sets without a solution
    _assert_rule_changes_no_answer(monkeypatch, _ToiSearch,
                                   "_edge_budget_refutes",
                                   lambda self, subset: False)


def test_forward_check_changes_no_answer(monkeypatch):
    # the check only cuts branches without a completion
    _assert_rule_changes_no_answer(monkeypatch, toi.solver, "_odd_walks",
                                   lambda src, need, free, terminals: True)


def test_capped_exact_status_is_sound():
    # a short route cap may hide the answer; "exact" must then not be
    # claimed, not even for a single level asked through max_t, and the cap
    # only degrades a status where it actually cut a branch
    statuses = set()
    for g in _differential_graphs():
        truth = exact_toi(g)
        assert truth.status == "exact"
        for cap in (1, 3):
            budget = SearchBudget(max_route_length=cap)
            res = exact_toi(g, budget)
            statuses.add(res.status)
            if res.status == "exact":
                assert res.value == truth.value
            level = exact_toi(g, budget, max_t=truth.value)
            assert level.value == truth.value or level.status != "exact"
    assert statuses == {"exact", "lower-bound-only"}


def test_unverified_witness_is_never_returned(monkeypatch):
    # the check is an explicit raise, so it holds under python -O too
    failing = verify(complete_graph(3), Certificate(3, (0, 1, 2)))
    monkeypatch.setattr(toi.solver, "verify", lambda g, cert: failing)
    with pytest.raises(RuntimeError, match="missing pair"):
        exact_toi(complete_graph(4))


def test_search_leaves_no_reference_cycles():
    # with the collector off, every cycle a call leaves behind would stay
    # tracked; after one warm-up call the count must not move
    k6 = complete_graph(6)
    search = _ToiSearch(k6, SearchBudget())
    direct_k3_k4 = direct_product(complete_graph(3), complete_graph(4))
    calls = [
        (lambda: list(search._routes(0, 5, 0, 1 | 1 << 5)), 2000),
        (lambda: _ToiSearch(k6, SearchBudget()).find(6), 200),
        (lambda: exact_toi(cycle_graph(5)), 200),
        (lambda: exact_toi(direct_k3_k4, SearchBudget(max_nodes=3000)), 20),
        (lambda: chromatic_number(cycle_graph(7)), 200),
        # lb 2 and ub 4, so the colouring search branches for k = 2, 3
        (lambda: chromatic_number(mycielski(4)), 50),
    ]
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for call, repeats in calls:
            call()
            before = len(gc.get_objects())
            for _ in range(repeats):
                call()
            assert len(gc.get_objects()) == before
    finally:
        if was_enabled:
            gc.enable()


def test_determinism():
    g = cartesian_product(complete_graph(3), complete_graph(2))
    a = exact_toi(g)
    b = exact_toi(g)
    assert a.value == b.value == 3
    assert a.witness == b.witness
    assert a.nodes_explored == b.nodes_explored


def test_monotone_under_edge_addition():
    # adding edges never decreases the value on a fixed vertex set
    g = cycle_graph(5)
    edges = set(g.edges)
    base = exact_toi(g).value
    edges.add((0, 2))
    bigger = exact_toi(Graph(5, frozenset(edges))).value
    assert bigger >= base


def mycielski(k):
    """The Mycielski graph with chromatic number k, built from K_2 as the
    benchmark builds it: vertex v keeps its id, its copy is n + v and the
    apex is 2n.  Node counts depend on this numbering."""
    g = complete_graph(2)
    for _ in range(k - 2):
        n = g.n
        edges = set(g.edges)
        for u, v in g.edges:
            edges.update({(u, n + v), (v, n + u)})
        edges.update((n + i, 2 * n) for i in range(n))
        g = Graph(2 * n + 1, frozenset(edges))
    return g


# exact_toi node counts on the solver-exact benchmark hosts; node counts are
# deterministic, and a change to the search order or a bound shows here first
EXACT_TOI_NODES = {
    "cart-K3-K3": (cartesian_product(complete_graph(3), complete_graph(3)),
                   4, 1761),
    "direct-K3-K3": (direct_product(complete_graph(3), complete_graph(3)),
                     4, 949),
    "cart-K3-K4": (cartesian_product(complete_graph(3), complete_graph(4)),
                   6, 3796),
    "direct-C5-C5": (direct_product(cycle_graph(5), cycle_graph(5)), 5, 20947),
    "cart-C5-P3": (cartesian_product(cycle_graph(5), path_graph(3)), 4, 826),
    "direct-K3-K4": (direct_product(complete_graph(3), complete_graph(4)),
                     6, 5521),
    "strong-K3-K3": (strong_product(complete_graph(3), complete_graph(3)),
                     9, 37),
    "lex-K2-K3": (lexicographic_product(complete_graph(2), complete_graph(3)),
                  6, 16),
    "mycielski-4": (mycielski(4), 4, 355),
}


@pytest.mark.parametrize("name", EXACT_TOI_NODES)
def test_exact_toi_node_counts_are_pinned(name):
    g, value, nodes = EXACT_TOI_NODES[name]
    res = exact_toi(g)
    assert (res.value, res.status, res.nodes_explored) == (value, "exact",
                                                           nodes)


# chromatic_number (chi, nodes) on every solver-exact benchmark host; a host
# with 0 nodes has clique bound == DSATUR bound, so a change to either bound
# shows here
CHROMATIC_NODES = {
    name: (EXACT_TOI_NODES[name][0] if name in EXACT_TOI_NODES
           else mycielski(5), chi, nodes)
    for name, chi, nodes in [
        ("cart-K3-K3", 3, 0), ("direct-K3-K3", 3, 0), ("cart-K3-K4", 4, 0),
        ("direct-C5-C5", 3, 17), ("cart-C5-P3", 3, 5), ("direct-K3-K4", 3, 0),
        ("strong-K3-K3", 9, 0), ("lex-K2-K3", 6, 0), ("mycielski-4", 4, 32),
        ("mycielski-5", 5, 935)]
}


@pytest.mark.parametrize("name", CHROMATIC_NODES)
def test_chromatic_node_counts_are_pinned(name):
    g, chi, nodes = CHROMATIC_NODES[name]
    res = chromatic_number(g)
    assert (res.value, res.status, res.nodes_explored) == (chi, "exact", nodes)


def _brute_chi(g):
    """Reference chromatic number, independent of the solver: the fewest
    independent sets covering the vertices, by a DP over vertex subsets."""
    adj = [sum(1 << w for w in g.adjacency[v]) for v in range(g.n)]
    independent = [True] * (1 << g.n)
    for s in range(1, 1 << g.n):
        v = s.bit_length() - 1
        rest = s & ~(1 << v)
        independent[s] = independent[rest] and not adj[v] & rest
    chi = [0] * (1 << g.n)
    for s in range(1, 1 << g.n):
        low = s & -s
        # an independent set holding the lowest vertex of s, then the rest
        best, sub = g.n, s
        while sub:
            if sub & low and independent[sub]:
                best = min(best, chi[s & ~sub] + 1)
            sub = (sub - 1) & s
        chi[s] = best
    return chi[-1]


# 3-colourable graphs that DSATUR colours with 4, so chromatic_number must
# backtrack to find chi; from a seeded search of random 8-vertex graphs
DSATUR_SUBOPTIMAL = [Graph(8, frozenset(edges)) for edges in (
    [(0, 3), (0, 4), (0, 5), (1, 5), (1, 6), (1, 7), (2, 3), (2, 6), (2, 7),
     (3, 4), (3, 6), (5, 7)],
    [(0, 3), (0, 5), (0, 6), (0, 7), (1, 5), (1, 6), (2, 4), (2, 6), (2, 7),
     (3, 5), (4, 6), (4, 7), (5, 7)],
    [(0, 1), (0, 2), (0, 3), (0, 7), (1, 2), (1, 6), (2, 4), (2, 5), (2, 6),
     (3, 5), (3, 6), (3, 7), (4, 5), (4, 7), (5, 7)],
)]


def test_chromatic_number_matches_brute_force():
    # the DSATUR upper bound is almost always optimal on small graphs, which
    # would hide a faulty k-colouring search, so that search is also asked
    # at chi and chi - 1, and on graphs where the bound is not optimal
    for g in DSATUR_SUBOPTIMAL:
        assert toi.solver._dsatur(g)[1] == 4 and _brute_chi(g) == 3
    ticker = _Ticker(SearchBudget())
    for g in itertools.chain(_differential_graphs(), DSATUR_SUBOPTIMAL):
        chi = _brute_chi(g)
        res = chromatic_number(g)
        assert (res.value, res.status) == (chi, "exact"), sorted(g.edges)
        assert _k_colorable(g, chi, ticker)
        assert chi == 1 or not _k_colorable(g, chi - 1, ticker)


def _plain_bounds(g):
    """The greedy clique size and the DSATUR colouring by plain scans of
    the graph, a reference for the solver's incremental versions."""
    order = sorted(range(g.n), key=lambda v: (-len(g.adjacency[v]), v))
    clique = 0
    for v in order:
        members = [v]
        for w in order:
            if w != v and all(g.has_edge(w, x) for x in members):
                members.append(w)
        clique = max(clique, len(members))
    colors = [-1] * g.n
    for _ in range(g.n):
        v = max((u for u in range(g.n) if colors[u] < 0), key=lambda u: (
            len({colors[w] for w in g.adjacency[u]} - {-1}),
            len(g.adjacency[u]), -u))
        used = {colors[w] for w in g.adjacency[v]}
        colors[v] = min(c for c in range(g.n) if c not in used)
    return clique, colors


def test_colouring_bounds_match_plain_scans():
    # the bounds set chromatic_number's search range, so their exact output,
    # colours included, is pinned against the plain scans
    for g in itertools.chain(_differential_graphs(), DSATUR_SUBOPTIMAL):
        clique, colors = _plain_bounds(g)
        assert toi.solver._greedy_clique(g) == clique
        assert toi.solver._dsatur(g) == (colors, max(colors) + 1)


def test_mycielski_chromatic_numbers():
    # the node bounds guard the DSATUR branching order
    for k, bound in ((4, 100), (5, 2000)):
        res = chromatic_number(mycielski(k))
        assert (res.value, res.status) == (k, "exact")
        assert res.nodes_explored <= bound


CHROMATIC_CASES = [
    (complete_graph(5), 5),
    (cycle_graph(5), 3),
    (cycle_graph(6), 2),
    (path_graph(4), 2),
    (petersen(), 3),
    (Graph(4, frozenset()), 1),
]


@pytest.mark.parametrize("g,chi", CHROMATIC_CASES)
def test_chromatic_number(g, chi):
    res = chromatic_number(g)
    assert res.status == "exact"
    assert res.value == chi


def test_searches_deeper_than_the_recursion_limit():
    # K_46 routes C(46, 2) = 1,035 pairs, C_1001 colours 1,001 vertices and
    # the uncapped route from 0 to 2 round C_2001 has 1,999 edges, each one
    # search frame deep, past Python's default limit of 1,000
    res = exact_toi(complete_graph(46))
    assert (res.value, res.status, res.nodes_explored) == (46, "exact", 1036)
    res = chromatic_number(cycle_graph(1001))
    assert (res.value, res.status, res.nodes_explored) == (3, "exact", 1001)
    res = exact_toi(cycle_graph(2001), SearchBudget(max_route_length=2001))
    assert (res.value, res.status, res.nodes_explored) == (3, "exact", 2002)
    assert res.witness.terminals == (0, 1, 2)


def test_check_conjecture_c5():
    rep = check_conjecture(cycle_graph(5))
    assert rep.chi.value == 3 and rep.toi.value == 3
    assert rep.satisfied is True


def test_check_conjecture_k6():
    rep = check_conjecture(complete_graph(6))
    assert rep.chi.value == 6 and rep.toi.value == 6
    assert rep.satisfied is True


def test_check_conjecture_shares_one_time_limit(monkeypatch):
    # DSATUR colours DSATUR_SUBOPTIMAL[0] with 4 and its toi is 3, so level 4
    # is refuted and chromatic_number runs, with only the time exact_toi
    # left, and not at all once exact_toi has spent the whole limit
    clock = [100.0]
    monkeypatch.setattr(toi.solver, "time",
                        types.SimpleNamespace(monotonic=lambda: clock[0]))
    spent, limits = [0.0], []

    def timed_toi(g, budget, max_t):
        clock[0] += spent[0]
        return exact_toi(g, budget, max_t=max_t)

    def timed_chi(g, budget):
        limits.append(budget.time_limit)
        return chromatic_number(g, budget)

    monkeypatch.setattr(toi.solver, "exact_toi", timed_toi)
    monkeypatch.setattr(toi.solver, "chromatic_number", timed_chi)
    g = DSATUR_SUBOPTIMAL[0]
    spent[0] = 4.0
    rep = check_conjecture(g, SearchBudget(time_limit=10.0))
    assert limits == [6.0] and rep.satisfied is True
    assert (rep.chi.value, rep.chi.status) == (3, "exact")
    spent[0] = 10.0
    rep = check_conjecture(g, SearchBudget(time_limit=10.0))
    assert limits == [6.0]
    assert (rep.chi.status, rep.chi.value, rep.chi.nodes_explored) == (
        "timeout", 4, 0)
    assert (rep.toi.status, rep.toi.value) == ("exact", 3)
    assert rep.satisfied is None


@pytest.mark.parametrize("max_nodes, toi_nodes, chi_nodes", [
    (100, 100, 0),   # toi times out: None at once, chromatic_number never runs
    (138, 138, 0),   # toi refutes level 4 with all of it: chi times out at 0
    (145, 138, 7),   # chi needs 11 and gets only what toi left
    (149, 138, 11),
])
def test_check_conjecture_shares_one_node_budget(max_nodes, toi_nodes, chi_nodes):
    rep = check_conjecture(DSATUR_SUBOPTIMAL[0], SearchBudget(max_nodes=max_nodes))
    assert rep.chi.nodes_explored + rep.toi.nodes_explored <= max_nodes
    assert (rep.toi.nodes_explored, rep.chi.nodes_explored) == (toi_nodes, chi_nodes)
    assert rep.toi.status == ("timeout" if max_nodes == 100 else "exact")
    assert rep.chi.status == {100: "upper-bound-only", 149: "exact"}.get(
        max_nodes, "timeout")
    assert rep.satisfied is (True if max_nodes == 149 else None)


def test_check_conjecture_witness_path_runs_no_chromatic_search(monkeypatch):
    # a K_k witness at the DSATUR level k settles the check on its own
    def no_chi(g, budget):
        raise AssertionError("chromatic_number ran")

    monkeypatch.setattr(toi.solver, "chromatic_number", no_chi)
    # mycielski(4): the old check spent 32 chi nodes and 355 toi nodes
    rep = check_conjecture(mycielski(4), SearchBudget(max_nodes=349))
    assert rep.satisfied is True
    assert rep.chi == SolveResult(4, None, "upper-bound-only", 0)
    assert (rep.toi.value, rep.toi.status, rep.toi.nodes_explored) == (
        4, "lower-bound-only", 349)


def test_check_conjecture_falls_back_to_chromatic_number(monkeypatch):
    # a proper 4-colouring of C5: level 4 is refuted exactly, so the exact
    # chromatic number and the toi exact_toi descended to decide the check
    monkeypatch.setattr(toi.solver, "_dsatur",
                        lambda g: ([0, 1, 2, 3, 1], 4))
    rep = check_conjecture(cycle_graph(5))
    assert (rep.chi.value, rep.chi.status) == (3, "exact")
    assert (rep.toi.value, rep.toi.status) == (3, "exact")
    assert rep.satisfied is True
    assert rep.colouring == [0, 1, 2, 3, 1]


@pytest.mark.parametrize("status, verdict", [("exact", False),
                                             ("lower-bound-only", None)])
def test_check_conjecture_violation_needs_both_sides_exact(
        monkeypatch, status, verdict):
    # a stand-in toi of 2 on C5, below chi = 3: a violation only if exact
    k2 = exact_toi(path_graph(2)).witness
    monkeypatch.setattr(toi.solver, "exact_toi",
                        lambda g, budget, max_t: SolveResult(2, k2, status, 1))
    rep = check_conjecture(cycle_graph(5))
    assert (rep.chi.value, rep.chi.status) == (3, "exact")
    assert rep.satisfied is verdict


@pytest.mark.parametrize("colouring, k", [
    ([0, 1, 0, 1, 1], 2),     # vertices 3 and 4 are adjacent
    ([0, 1, 0, 1, 2], 2),     # colour 2 is not one of the k colours
], ids=["improper", "out-of-range"])
def test_check_conjecture_rejects_a_bad_colouring(monkeypatch, colouring, k):
    monkeypatch.setattr(toi.solver, "_dsatur", lambda g: (colouring, k))
    with pytest.raises(RuntimeError, match="colouring"):
        check_conjecture(cycle_graph(5))


def _old_check(g):
    """The check before witnesses: exact chi, full descending exact_toi,
    a verdict only when both are exact; returns (verdict, toi, nodes)."""
    chi, res = chromatic_number(g), exact_toi(g)
    verdict = None
    if chi.status == "exact" and res.status == "exact":
        verdict = chi.value <= res.value
    return verdict, res.value, chi.nodes_explored + res.nodes_explored


def _sweep_graphs(seed, count):
    """The first ``count`` graphs of the conjecture-sweep benchmark's
    generator: 6-8 vertices, edge probability 0.3, 0.5 or 0.7."""
    rng = random.Random(seed)
    for _ in range(count):
        n, p = rng.choice((6, 7, 8)), rng.choice((0.3, 0.5, 0.7))
        yield Graph(n, frozenset((u, v) for u in range(n)
                                 for v in range(u + 1, n) if rng.random() < p))


def test_check_conjecture_agrees_with_the_old_rule():
    # Where toi <= k (the DSATUR colour count), the new toi search is a
    # suffix of the old descending one, so it never spends more nodes.
    # Where toi > k the old search stopped at a witness above k that the
    # new one never looks for, and finding one at level k can cost more:
    # two graphs here, by 3 and 1 nodes.  The total still falls.
    old_total = new_total = dearer = 0
    for g in itertools.chain(_all_graphs(5), _sweep_graphs(321, 300)):
        verdict, old_toi, nodes = _old_check(g)
        rep = check_conjecture(g)
        assert verdict is not None and rep.satisfied is verdict, sorted(g.edges)
        new = rep.chi.nodes_explored + rep.toi.nodes_explored
        if old_toi <= len(set(rep.colouring)):
            assert new <= nodes, sorted(g.edges)
        dearer += new > nodes
        old_total, new_total = old_total + nodes, new_total + new
        if rep.satisfied:
            assert len(set(rep.colouring)) == rep.chi.value
            assert all(rep.colouring[u] != rep.colouring[v] for u, v in g.edges)
            assert rep.toi.witness.clique_size >= rep.chi.value
            assert verify(g, rep.toi.witness).all_ok
    assert dearer == 2
    assert new_total < old_total


@pytest.mark.parametrize("host", [direct_product(complete_graph(3), complete_graph(5)),
                                  direct_product(complete_graph(4), complete_graph(4)),
                                  mycielski(5)],
                         ids=["direct-K3-K5", "direct-K4-K4", "mycielski-5"])
def test_check_conjecture_settles_the_frontier_hosts(host):
    # each was indeterminate before: the full descending toi search timed
    # out above chi; the K_k witness at the DSATUR level takes under 100 nodes
    rep = check_conjecture(host, SearchBudget(max_nodes=1_000))
    assert rep.satisfied is True
    assert rep.toi.nodes_explored < 100
    assert verify(host, rep.toi.witness).all_ok


def test_check_conjecture_strong_c5_c5_stays_indeterminate():
    # DSATUR uses 8 colours where chi is 5, and level 8 is out of reach
    host = strong_product(cycle_graph(5), cycle_graph(5))
    rep = check_conjecture(host, SearchBudget(max_nodes=1_000))
    assert rep.chi == SolveResult(8, None, "upper-bound-only", 0)
    assert rep.toi.status == "timeout" and rep.satisfied is None


def test_check_conjecture_indeterminate_on_timeout():
    g = cartesian_product(complete_graph(3), complete_graph(3))
    rep = check_conjecture(g, SearchBudget(max_nodes=3))
    assert rep.satisfied is None


def _all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, frozenset(pairs[i] for i in range(len(pairs))
                                 if (mask >> i) & 1))


def test_exhaustive_four_vertex_laws():
    # toi is sandwiched between 1 and Delta+1 and exact on every 4-vertex
    # graph; chi <= toi throughout
    for g in _all_graphs(4):
        res = exact_toi(g)
        assert res.status == "exact"
        assert 1 <= res.value <= g.max_degree() + 1
        assert verify(g, res.witness).all_ok
        chi = chromatic_number(g)
        assert chi.status == "exact"
        assert chi.value <= res.value


def _trail_toi(g):
    """Reference toi by brute force, independent of the solver: the largest
    t with t terminals joined pairwise by edge-disjoint odd trails whose
    interiors avoid every terminal.  Trails may revisit a non-terminal."""
    incident = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(sorted(g.edges)):
        incident[u].append((v, i))
        incident[v].append((u, i))

    def odd_trails(a, b, terminals):
        masks, stack = set(), [(a, 0, 0)]
        while stack:
            v, mask, length = stack.pop()
            for w, i in incident[v]:
                if mask >> i & 1:
                    continue
                if w == b:
                    if length % 2 == 0:
                        masks.add(mask | 1 << i)
                elif w not in terminals:
                    stack.append((w, mask | 1 << i, length + 1))
        return masks

    for t in range(g.n, 1, -1):
        for subset in itertools.combinations(range(g.n), t):
            options = [odd_trails(a, b, set(subset))
                       for a, b in itertools.combinations(subset, 2)]
            if _disjoint_choice(options, 0):
                return t
    return 1


def _disjoint_choice(options, used):
    """True when one edge mask per entry of ``options`` can be chosen with
    all of them pairwise disjoint and disjoint from ``used``."""
    if not options:
        return True
    return any(_disjoint_choice(options[1:], used | mask)
               for mask in options[0] if not used & mask)


def test_trail_oracle_agrees_on_all_five_vertex_graphs():
    # the solver searches simple paths; toi is defined by trails.  No
    # 5-vertex graph needs strongness; on the 6-vertex one it cuts K_4 to K_3
    strong_matters = Graph(6, frozenset([(0, 1), (0, 2), (0, 4), (0, 5), (1, 5),
                                         (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]))
    for g in itertools.chain(_all_graphs(5), [strong_matters]):
        res = exact_toi(g)
        assert res.status == "exact"
        assert res.value == _trail_toi(g)
    assert _trail_toi(strong_matters) == 3


@given(st.integers(2, 6))
@settings(max_examples=5, deadline=None)
def test_complete_graph_identity(n):
    res = exact_toi(complete_graph(n))
    assert res.value == n
    assert res.status == "exact"
