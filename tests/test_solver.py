"""Exhaustive solver: exact values, budget behavior, chromatic number."""

import gc
import hashlib
import itertools
import random
import sys
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
    _constructed_witness,
    _factor_maps,
    _odd_walks,
    _product_automorphisms,
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
    return Graph(10, edges)


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
    # each has an edge, so toi is exactly 2
    for g in (cycle_graph(6), path_graph(5),
              cartesian_product(complete_graph(2), complete_graph(2)),
              direct_product(complete_graph(2), complete_graph(2)),
              direct_product(complete_graph(2), complete_graph(3))):
        assert is_bipartite(g)[0]
        res = exact_toi(g)
        assert res.status == "exact"
        assert res.value == 2


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
    # NaN passes every "<= 0" test, so it would mean no limit at all
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=float("nan"))
    with pytest.raises(ValueError):
        SearchBudget(max_route_length=float("nan"))


def test_tiny_budget_times_out():
    # the timeout keeps the constructed lower bound, a triangle of K3 x K3
    g = cartesian_product(complete_graph(3), complete_graph(3))
    res = exact_toi(g, SearchBudget(max_nodes=5))
    assert res.status == "timeout"
    assert res.value == 3
    assert verify(g, res.witness).all_ok
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
    g = cartesian_product(complete_graph(3), complete_graph(3))
    res = exact_toi(g, SearchBudget(max_route_length=1))
    assert res.value == 3  # true value is 4, reachable only via longer routes
    assert res.status == "lower-bound-only"
    assert res.nodes_explored > 0


def test_complete_refutation_above_a_capped_level_proves_the_upper_end():
    # level 4 is refuted with no cap prune, so toi <= 3; level 3 is cut by
    # the cap, but the constructed odd-cycle K_3 meets that upper end
    g = Graph(7, frozenset([(0, 1), (0, 3), (0, 6), (1, 2), (1, 5), (2, 4),
                            (3, 5), (4, 5), (4, 6)]))
    res = exact_toi(g, SearchBudget(max_route_length=1))
    assert (res.value, res.status, res.nodes_explored) == (3, "exact", 67)
    assert hashlib.sha256(serialize_certificate(res.witness).encode()
                          ).hexdigest().startswith("903f6cb6b542")
    assert (exact_toi(g).value, exact_toi(g).status) == (3, "exact")


def test_route_cap_refuting_the_lower_bound_returns_its_witness():
    # mycielski(4) has no triangle, so with single-edge routes every level
    # down to the constructed bound 3 is refuted; the odd-cycle K_3, whose
    # long route the cap does not bind, is returned instead
    g = mycielski(4)
    res = exact_toi(g, SearchBudget(max_route_length=1))
    assert (res.value, res.status) == (3, "lower-bound-only")
    assert res.nodes_explored > 0
    assert max(r.edge_count for r in res.witness.connections.values()) > 1
    assert verify(g, res.witness).all_ok


def test_route_length_cap_admits_routes_of_that_length():
    # on C5 the only odd route from 0 to 2 is 0-4-3-2, three edges long
    def routes(cap):
        search = _ToiSearch(cycle_graph(5), SearchBudget(max_route_length=cap))
        return list(search._routes(0, 2, search.adj_mask, 1 | 1 << 2))
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


def _assert_rule_changes_no_answer(monkeypatch, owner, name, off,
                                   graphs=None, caps=(None,)):
    """Solve ``graphs`` (the differential graphs by default) under each
    route cap in ``caps`` with a pruning rule, then again with
    ``owner.name`` replaced by ``off``, which turns the rule off: value and
    witness bytes must match, a status may only get stronger with the rule,
    and the rule never adds nodes.  Returns, per cap, the number of graphs
    on which the rule saved nodes."""
    graphs = list(_differential_graphs() if graphs is None else graphs)
    budgets = [SearchBudget(max_route_length=cap) for cap in caps]
    pruned = [[exact_toi(g, b) for b in budgets] for g in graphs]
    monkeypatch.setattr(owner, name, off)
    saved = [0] * len(budgets)
    for g, results in zip(graphs, pruned):
        for i, (budget, fast) in enumerate(zip(budgets, results)):
            slow = exact_toi(g, budget)
            assert fast.value == slow.value
            assert serialize_certificate(fast.witness) == \
                serialize_certificate(slow.witness)
            assert fast.status == slow.status or (
                fast.status, slow.status) == ("exact", "lower-bound-only")
            assert fast.nodes_explored <= slow.nodes_explored
            saved[i] += fast.nodes_explored < slow.nodes_explored
    return saved


def test_edge_budget_bound_changes_no_answer(monkeypatch):
    # the bound only skips terminal sets without a solution
    _assert_rule_changes_no_answer(monkeypatch, _ToiSearch,
                                   "_edge_budget_refutes",
                                   lambda self, subset: False)


def test_forward_check_changes_no_answer(monkeypatch):
    # the check only cuts branches without a completion; 0 turns off both
    # of its parts: every walk is found, and none needs a spare edge
    _assert_rule_changes_no_answer(monkeypatch, toi.solver, "_odd_walks",
                                   lambda src, need, free, terminals: 0)


def _reachability_only(src, need, free, terminals):
    """:func:`_odd_walks` with the distance sum off: 0 wherever every walk
    is found."""
    return None if _odd_walks(src, need, free, terminals) is None else 0


def test_distance_sum_changes_no_answer(monkeypatch):
    # the sum only cuts states without a completion; reachability stays on
    saved = _assert_rule_changes_no_answer(monkeypatch, toi.solver,
                                           "_odd_walks", _reachability_only)
    assert saved[0]


def test_distance_sum_keeps_capped_answers(monkeypatch):
    # the walks ignore the route cap, so under a cap the sum also cuts only
    # states with no completion, and a cap prune it skips makes a status
    # no weaker
    saved = _assert_rule_changes_no_answer(
        monkeypatch, toi.solver, "_odd_walks", _reachability_only,
        itertools.chain(_differential_graphs(), _table_hosts()), (None, 1, 3))
    assert all(saved), saved


def test_distance_sum_cuts_where_every_pair_has_a_walk(monkeypatch):
    # terminals 0, 3, 4: (0, 3) is an edge, the shortest odd walks of
    # (0, 4) and (3, 4) are 0-6-2-4 and 3-1-5-2-6-4, so the pairs need
    # 0 + 1 + 3 edges off the terminals, where there are three (1-5, 2-5,
    # 2-6); every pair has a walk, and only the sum cuts the root state
    g = Graph(7, frozenset([(0, 3), (0, 6), (1, 3), (1, 5), (2, 4), (2, 5),
                            (2, 6), (4, 6)]))
    subset, terminals = (0, 3, 4), 1 | 1 << 3 | 1 << 4
    pairs = [(0, 1), (0, 2), (1, 2)]
    free = g._adjacency_masks
    assert _odd_walks(0, 1 << 3 | 1 << 4, free, terminals) == 1
    assert _odd_walks(3, 1 << 4, free, terminals) == 3
    search = _ToiSearch(g, SearchBudget())
    assert not search._edge_budget_refutes(subset)
    assert search._assign(subset, terminals, pairs) is None
    assert search.ticker.nodes == 0
    # with reachability alone, the route search has to find out
    monkeypatch.setattr(toi.solver, "_odd_walks", _reachability_only)
    search = _ToiSearch(g, SearchBudget())
    assert search._assign(subset, terminals, pairs) is None
    assert search.ticker.nodes == 10


def test_refuted_state_table_changes_no_answer(monkeypatch):
    # the table only skips states whose subtree was already exhausted
    _assert_rule_changes_no_answer(monkeypatch, toi.solver, "_REFUTED_CAP", 0)


def _table_hosts():
    """Hosts on which the refuted-state table skips states, as it does on
    none of the differential graphs: two solver-exact products and seeded
    10- and 11-vertex graphs."""
    yield direct_product(complete_graph(3), complete_graph(4))
    yield cartesian_product(cycle_graph(5), path_graph(3))
    rng = random.Random(20)
    for n in (10, 11):
        for _ in range(40):
            density = rng.uniform(0.4, 0.8)
            yield Graph(n, frozenset(e for e in itertools.combinations(range(n), 2)
                                     if rng.random() < density))


def test_refuted_state_table_keeps_capped_answers(monkeypatch):
    # a revisited state would set cap_pruned only if its first visit did,
    # so under a route cap the status is equal too, not merely no weaker
    graphs = list(itertools.chain(_differential_graphs(), _table_hosts()))
    budgets = [SearchBudget(max_route_length=cap) for cap in (None, 1, 3)]
    with_table = [[exact_toi(g, b) for b in budgets] for g in graphs]
    monkeypatch.setattr(toi.solver, "_REFUTED_CAP", 0)
    skipped = [0] * len(budgets)
    for g, results in zip(graphs, with_table):
        for i, (budget, fast) in enumerate(zip(budgets, results)):
            slow = exact_toi(g, budget)
            assert (fast.value, fast.status) == (slow.value, slow.status)
            assert serialize_certificate(fast.witness) == \
                serialize_certificate(slow.witness)
            assert fast.nodes_explored <= slow.nodes_explored
            skipped[i] += fast.nodes_explored < slow.nodes_explored
    # the table acted, so the test compares something; under cap 1 every
    # pair has one route or none, so no state is ever reached twice
    assert skipped[0] and skipped[2] and not skipped[1], skipped


def test_refuted_state_table_cap(monkeypatch):
    # a full table stops taking entries: the answer holds, and the node
    # count lies between the full-table and the no-table count (the full
    # table takes under 1,000 entries on this host)
    host = cartesian_product(complete_graph(3), cycle_graph(7))
    tables = {}
    routes = _ToiSearch._routes

    def watched(self, *args):
        # the table of the calling _assign, one per terminal set
        table = sys._getframe(1).f_locals["refuted"]
        tables[id(table)] = table
        return routes(self, *args)

    monkeypatch.setattr(_ToiSearch, "_routes", watched)
    counts = {}
    for cap in (0, 512, toi.solver._REFUTED_CAP):
        monkeypatch.setattr(toi.solver, "_REFUTED_CAP", cap)
        tables.clear()
        res = exact_toi(host)
        assert (res.value, res.status) == (5, "exact")
        assert _witness_sha(res).startswith("a42a7c0bc638")
        for table in tables.values():
            assert len(table) <= cap
            for free in table:
                assert type(free) is tuple
                assert all(type(mask) is int for mask in free)
        counts[cap] = res.nodes_explored
    assert counts[0] == 11143
    assert counts[toi.solver._REFUTED_CAP] < counts[512] < counts[0]


def _is_automorphism(g, p):
    return {(min(p[u], p[v]), max(p[u], p[v])) for u, v in g.edges} == g.edges


def _grid_candidates(ng, nh):
    """Every map the symmetry rule tries on an ng x nh grid, in its order."""
    grid = [(a, c) for a in range(ng) for c in range(nh)]
    maps = [[p[a] * nh + c for a, c in grid] for p in _factor_maps(ng)]
    maps += [[a * nh + p[c] for a, c in grid] for p in _factor_maps(nh)]
    return maps + ([[c * nh + a for a, c in grid]] if ng == nh else [])


def test_product_automorphisms_drop_non_automorphisms():
    # P3 has no rotation or adjacent transposition among its automorphisms,
    # and C5 no adjacent transposition, so only the K3 maps, the P3
    # reversal and the C5 rotation and reversal are kept; the transpose of
    # the square K3 x P3 grid is no automorphism either
    g = cartesian_product(complete_graph(3), path_graph(3))
    maps = _grid_candidates(3, 3)
    assert _product_automorphisms(g) == tuple(maps[:4] + [maps[7]])
    assert maps[7] == [a * 3 + 2 - c for a in range(3) for c in range(3)]
    g = cartesian_product(complete_graph(3), cycle_graph(5))
    kept, maps = _product_automorphisms(g), _grid_candidates(3, 5)
    assert kept == tuple(maps[:4] + maps[-2:])
    column_swap = [a * 5 + [1, 0, 2, 3, 4][c]
                   for a in range(3) for c in range(5)]
    assert column_swap == maps[4]
    assert column_swap not in kept and not _is_automorphism(g, column_swap)


def test_path_reversal_prunes_the_search():
    # i -> k - 1 - i is the one automorphism a path factor contributes
    g = strong_product(cycle_graph(4), path_graph(3))
    res = exact_toi(g)
    assert (res.value, res.status, res.nodes_explored) == (6, "exact", 232)


def test_unlabelled_graph_has_no_automorphisms():
    g = cartesian_product(complete_graph(3), complete_graph(3))
    assert _product_automorphisms(g)
    assert _product_automorphisms(Graph(g.n, g.edges)) == ()
    assert _product_automorphisms(complete_graph(4)) == ()


def test_product_automorphisms_on_non_product_edges():
    # grid labels over edges that are no product, or a product with an edge
    # removed: a map is kept exactly when it maps every edge to an edge
    rng = random.Random(21)
    factors = [complete_graph(2), path_graph(3), complete_graph(3),
               cycle_graph(4), cycle_graph(5)]
    products = [cartesian_product, direct_product, strong_product,
                lexicographic_product]
    kept = dropped = 0
    for _ in range(60):
        g = rng.choice(products)(rng.choice(factors), rng.choice(factors))
        edges = sorted(g.edges)
        if rng.random() < 0.5:
            edges.remove(rng.choice(edges))
        else:
            edges = [e for e in itertools.combinations(range(g.n), 2)
                     if rng.random() < 0.5]
        host = Graph(g.n, frozenset(edges), g.labels)
        nh = g.labels[-1][1] + 1
        maps = _grid_candidates(g.n // nh, nh)
        truth = tuple(p for p in maps if _is_automorphism(host, p))
        assert _product_automorphisms(host) == truth
        kept += len(truth)
        dropped += len(maps) - len(truth)
    assert kept and dropped


def test_product_automorphism_candidates_are_few():
    # every vertex map is an automorphism of a complete graph, so a labelled
    # one keeps every candidate: at most ng + nh + 3, each a permutation
    for ng, nh in itertools.product(range(1, 9), repeat=2):
        n = ng * nh
        maps = _product_automorphisms(Graph(n, complete_graph(n).edges, tuple(
            divmod(v, nh) for v in range(n))))
        assert list(maps) == _grid_candidates(ng, nh)
        assert len(maps) <= ng + nh + 3
        assert all(sorted(p) == list(range(ng * nh)) for p in maps)
    g = cartesian_product(complete_graph(4), complete_graph(4))
    assert len(_product_automorphisms(g)) == 4 + 4 + 3


def _small_products():
    """Labelled products of small factors, n <= 12, under all four
    products."""
    factors = [complete_graph(2), path_graph(3), complete_graph(3),
               path_graph(4), cycle_graph(4), cycle_graph(5)]
    for op in (cartesian_product, direct_product, strong_product,
               lexicographic_product):
        for g, h in itertools.product(factors, repeat=2):
            if g.n * h.n <= 12:
                yield op(g, h)


def test_symmetry_rule_changes_no_answer(monkeypatch):
    # a terminal set is skipped only when an automorphism maps it to an
    # earlier, refuted one; the edge-budget bound still sees every set.
    # The node budget keeps lex-C4-P3 (a timeout at 2,000,000 nodes) cheap;
    # the same 6 runs time out with and without the rule
    checked = [0]
    refutes = _ToiSearch._edge_budget_refutes

    def counted(self, subset):
        checked[0] += 1
        return refutes(self, subset)

    monkeypatch.setattr(_ToiSearch, "_edge_budget_refutes", counted)
    budgets = [SearchBudget(max_nodes=20_000, max_route_length=cap)
               for cap in (None, 1, 3)]
    runs = []
    for g in _small_products():
        for budget in budgets:
            checked[0] = 0
            runs.append((g, budget, exact_toi(g, budget), checked[0]))
    monkeypatch.setattr(toi.solver, "_product_automorphisms", lambda g: ())
    skipped = 0
    for g, budget, fast, fast_checked in runs:
        checked[0] = 0
        slow = exact_toi(g, budget)
        assert (fast.value, fast.status) == (slow.value, slow.status)
        assert serialize_certificate(fast.witness) == \
            serialize_certificate(slow.witness)
        assert fast.nodes_explored <= slow.nodes_explored
        if slow.status != "timeout":
            assert fast_checked == checked[0]
        skipped += fast.nodes_explored < slow.nodes_explored
    assert skipped


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
    # the check is an explicit raise, so it holds under python -O too; K4
    # returns its constructed clique, K3 x K3 a search hit at level 4
    failing = verify(complete_graph(3), Certificate(3, (0, 1, 2)))
    monkeypatch.setattr(toi.solver, "verify", lambda g, cert: failing)
    for host in (complete_graph(4),
                 cartesian_product(complete_graph(3), complete_graph(3))):
        with pytest.raises(RuntimeError, match="missing pair"):
            exact_toi(host)


def test_search_leaves_no_reference_cycles():
    # with the collector off, every cycle a call leaves behind would stay
    # tracked; after one warm-up call the count must not move
    k6 = complete_graph(6)
    search = _ToiSearch(k6, SearchBudget())
    direct_k3_k4 = direct_product(complete_graph(3), complete_graph(4))
    calls = [
        (lambda: list(search._routes(0, 5, search.adj_mask, 1 | 1 << 5)), 2000),
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
                   4, 208),
    "direct-K3-K3": (direct_product(complete_graph(3), complete_graph(3)),
                     4, 209),
    "cart-K3-K4": (cartesian_product(complete_graph(3), complete_graph(4)),
                   6, 661),
    "direct-C5-C5": (direct_product(cycle_graph(5), cycle_graph(5)), 5, 222),
    "cart-C5-P3": (cartesian_product(cycle_graph(5), path_graph(3)), 4, 402),
    "direct-K3-K4": (direct_product(complete_graph(3), complete_graph(4)),
                     6, 2390),
    "strong-K3-K3": (strong_product(complete_graph(3), complete_graph(3)),
                     9, 0),
    "lex-K2-K3": (lexicographic_product(complete_graph(2), complete_graph(3)),
                  6, 0),
    "mycielski-4": (mycielski(4), 4, 214),
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


# sha256 prefix of the exact_toi witness on each solver-exact host that runs
# exact_toi; with the node counts above, a change to the search's
# enumeration order shows here even where the count happens to hold
EXACT_TOI_WITNESS_SHA = {
    "cart-K3-K3": "d4221e28db66", "direct-K3-K3": "2c6c34a28b93",
    "cart-K3-K4": "ded2f0786f87", "direct-C5-C5": "ecd58c8174d4",
    "cart-C5-P3": "35b3f29cb769", "direct-K3-K4": "091e591621af",
    "strong-K3-K3": "8e75b1053085", "lex-K2-K3": "a27406091769",
    "mycielski-4": "24ceb1b4d128",
}


@pytest.mark.parametrize("name", CHROMATIC_NODES)
def test_solver_exact_hosts_are_pinned(name):
    # each host as the solver-exact benchmark solves it: exact_toi (where
    # it runs) and then chromatic_number
    g, _, chi_nodes = CHROMATIC_NODES[name]
    if name in EXACT_TOI_NODES:
        res = exact_toi(g)
        assert res.nodes_explored == EXACT_TOI_NODES[name][2]
        assert _witness_sha(res).startswith(EXACT_TOI_WITNESS_SHA[name])
    assert chromatic_number(g).nodes_explored == chi_nodes


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


def _assert_tables_match_adjacency(g):
    # the solver's two per-graph tables, built from the edges, against the
    # adjacency tuples
    assert g._adjacency_masks == tuple(sum(1 << w for w in g.adjacency[v])
                                       for v in range(g.n))
    assert g._degree_order == tuple(sorted(
        range(g.n), key=lambda v: (-len(g.adjacency[v]), v)))


def test_colouring_bounds_match_plain_scans():
    # the bounds set chromatic_number's search range, so their exact output,
    # colours included, is pinned against the plain scans
    for g in itertools.chain(_differential_graphs(), DSATUR_SUBOPTIMAL):
        _assert_tables_match_adjacency(g)
        clique, colors = _plain_bounds(g)
        assert len(toi.solver._greedy_clique(g)) == clique
        assert toi.solver._dsatur(g) == (colors, max(colors) + 1)
    # masks far wider than a machine word
    for g in (direct_product(complete_graph(48), complete_graph(18)),
              cycle_graph(2001)):
        _assert_tables_match_adjacency(g)


def test_settled_graphs_build_no_adjacency_tuples():
    # the set-up reads the bit masks only; the tuples are built for
    # is_bipartite, which runs when the greedy clique has fewer than 3
    # vertices, and for a search
    g = complete_graph(5)
    assert check_conjecture(g).toi.nodes_explored == 0
    assert "adjacency" not in g.__dict__
    g = cycle_graph(5)
    check_conjecture(g)
    assert "adjacency" in g.__dict__


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
    # search frame deep, past Python's default limit of 1,000.  exact_toi
    # settles both toi hosts by construction, so the search runs directly
    search = _ToiSearch(complete_graph(46), SearchBudget())
    assert search.find(46).clique_size == 46
    assert search.ticker.nodes == 1036
    res = chromatic_number(cycle_graph(1001))
    assert (res.value, res.status, res.nodes_explored) == (3, "exact", 1001)
    search = _ToiSearch(cycle_graph(2001), SearchBudget(max_route_length=2001))
    assert search.find(3).terminals == (0, 1, 2)
    assert search.ticker.nodes == 2002


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
                        types.SimpleNamespace(process_time=lambda: clock[0]))
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
    (113, 113, 0),   # toi refutes level 4 with all of it: chi times out at 0
    (120, 113, 7),   # chi needs 11 and gets only what toi left
    (124, 113, 11),
])
def test_check_conjecture_shares_one_node_budget(max_nodes, toi_nodes, chi_nodes):
    rep = check_conjecture(DSATUR_SUBOPTIMAL[0], SearchBudget(max_nodes=max_nodes))
    assert rep.chi.nodes_explored + rep.toi.nodes_explored <= max_nodes
    assert (rep.toi.nodes_explored, rep.chi.nodes_explored) == (toi_nodes, chi_nodes)
    assert rep.toi.status == ("timeout" if max_nodes == 100 else "exact")
    assert rep.chi.status == {100: "upper-bound-only", 124: "exact"}.get(
        max_nodes, "timeout")
    assert rep.satisfied is (True if max_nodes == 124 else None)


def test_check_conjecture_witness_path_runs_no_chromatic_search(monkeypatch):
    # a K_k witness at the DSATUR level k settles the check on its own
    def no_chi(g, budget):
        raise AssertionError("chromatic_number ran")

    monkeypatch.setattr(toi.solver, "chromatic_number", no_chi)
    # mycielski(4): the old check spent 32 chi nodes and 214 toi nodes
    rep = check_conjecture(mycielski(4), SearchBudget(max_nodes=208))
    assert rep.satisfied is True
    assert rep.chi == SolveResult(4, None, "upper-bound-only", 0)
    assert (rep.toi.value, rep.toi.status, rep.toi.nodes_explored) == (
        4, "lower-bound-only", 208)


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


def _reports_digest(reports):
    """sha256 over each report's chi and toi (value, status, nodes), its
    colouring and verdict, and the canonical bytes of its toi witness."""
    h = hashlib.sha256()
    for rep in reports:
        h.update(repr((rep.chi.value, rep.chi.status, rep.chi.nodes_explored,
                       rep.toi.value, rep.toi.status, rep.toi.nodes_explored,
                       rep.colouring, rep.satisfied)).encode())
        h.update(serialize_certificate(rep.toi.witness).encode())
    return h.hexdigest()


def test_check_conjecture_agrees_with_the_old_rule():
    # Where toi <= k (the DSATUR colour count), the new toi search is a
    # suffix of the old descending one, so it never spends more nodes.
    # Where toi > k the old search stopped at a witness above k that the
    # new one never looks for.  Finding one at level k can cost more, but
    # here 44 of the 45 such graphs have a constructed witness of size k,
    # which settles level k with no node, and the last one takes 15 nodes
    # against the old 32, so no graph costs more.
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
    assert dearer == 0
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


def test_constructed_witnesses_verify():
    # on every host and at every cut, clique and odd-cycle witnesses alike
    hosts = itertools.chain(_differential_graphs(), [
        cycle_graph(201), petersen(), mycielski(5), complete_graph(7),
        strong_product(cycle_graph(5), cycle_graph(5))])
    kinds = set()
    for g in hosts:
        bipartite, odd_cycle = is_bipartite(g)
        clique = toi.solver._greedy_clique(g)
        full = _constructed_witness(clique, odd_cycle, g.n)
        routes = full.connections.values()
        kinds.add(all(r.edge_count == 1 for r in routes))
        for upper in range(1, full.clique_size + 1):
            cert = _constructed_witness(clique, odd_cycle, upper)
            assert cert.clique_size == upper
            assert verify(g, cert).satisfies("totally-odd-strong"), sorted(g.edges)
        assert full.clique_size == max(len(clique), 0 if bipartite else 3)
    assert kinds == {True, False}


def test_long_odd_cycle_is_exact_without_search():
    # every level-3 set of C201 was walked before; the cycle is the witness
    g = cycle_graph(201)
    res = exact_toi(g)
    assert (res.value, res.status, res.nodes_explored) == (3, "exact", 0)
    assert res.witness.terminals == (100, 99, 98)
    assert sorted(r.edge_count for r in res.witness.connections.values()) == [
        1, 1, 199]


def test_timeout_keeps_the_constructed_bound():
    # strong C5 x C5 holds a K_4 (K2 x K2) below an upper bound of 9
    g = strong_product(cycle_graph(5), cycle_graph(5))
    res = exact_toi(g, SearchBudget(max_nodes=1_000))
    assert (res.value, res.status, res.nodes_explored) == (4, "timeout", 1_000)
    assert res.witness.terminals == tuple(sorted(toi.solver._greedy_clique(g)))
    assert verify(g, res.witness).satisfies("totally-odd-strong")


def test_budget_spent_after_the_bounds_meet_is_exact():
    # level 5 is refuted and the constructed K_4 stands before the budget
    # runs out inside level 4, so the answer is proved
    g = Graph(7, frozenset([(0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5),
                            (1, 6), (2, 3), (2, 5), (2, 6), (3, 4), (3, 5),
                            (4, 5), (4, 6)]))
    res = exact_toi(g, SearchBudget(max_nodes=1))
    assert (res.value, res.status, res.nodes_explored) == (4, "exact", 1)
    assert verify(g, res.witness).satisfies("totally-odd-strong")


def test_construction_changes_no_verdict(monkeypatch):
    # all 5-vertex graphs and the 3,000 sweep graphs of seed 321: toi and
    # its status, chi's value and the verdict match the search alone, and
    # no graph spends more nodes; 2,956 sweep graphs now spend none, where
    # the search alone spent 30,347 of its 31,068 nodes
    graphs = list(itertools.chain(_all_graphs(5), _sweep_graphs(321, 3_000)))
    built = [check_conjecture(g) for g in graphs]
    # every output byte of these 4,024 reports, witnesses and colourings
    # included
    assert _reports_digest(built) == (
        "7d69e7ab7d0aa127a86f27f2c5f5a804fec8074a288f67370a47796d671fd4a9")
    # a one-terminal bound makes every call search down from its upper
    # bound, as before the construction
    monkeypatch.setattr(toi.solver, "_constructed_witness",
                        lambda clique, odd_cycle, upper: Certificate(1, (0,)))
    settled = saved = total = 0
    for g, new in zip(graphs, built):
        old = check_conjecture(g)
        assert (new.toi.value, new.toi.status, new.chi.value, new.satisfied) == (
            old.toi.value, old.toi.status, old.chi.value, old.satisfied), \
            sorted(g.edges)
        assert new.satisfied is True
        new_nodes = new.toi.nodes_explored + new.chi.nodes_explored
        old_nodes = old.toi.nodes_explored + old.chi.nodes_explored
        assert new_nodes <= old_nodes
        if g.n > 5:
            total += old_nodes
            if not new_nodes:
                settled, saved = settled + 1, saved + old_nodes
    assert (settled, saved, total) == (2_956, 30_347, 31_068)


def test_chi_is_exact_exactly_when_the_clique_meets_k():
    # a K_k witness of single edges is a K_k subgraph, so chi >= k, and so
    # is any K_3 witness, whose odd routes close an odd walk; for k >= 4
    # the searched witnesses on these graphs have a longer route and leave
    # chi an upper bound
    assert check_conjecture(complete_graph(6)).chi == SolveResult(
        6, None, "exact", 0)
    assert check_conjecture(cycle_graph(5)).chi == SolveResult(
        3, None, "exact", 0)
    statuses = set()
    for g in _differential_graphs():
        rep = check_conjecture(g)
        k = len(set(rep.colouring))
        if len(toi.solver._greedy_clique(g)) == k:
            assert rep.chi == SolveResult(k, None, "exact", 0)
            assert rep.toi.nodes_explored == 0
        elif rep.toi.value == k:
            status = "exact" if k <= 3 else "upper-bound-only"
            assert rep.chi == SolveResult(k, None, status, 0)
        statuses.add(rep.chi.status)
    assert statuses == {"exact", "upper-bound-only"}


def test_check_conjecture_indeterminate_on_timeout():
    # DSATUR takes 4 colours on the triangle-free mycielski(4), whose
    # constructed bound is 3, so level 4 is searched and the budget runs out
    g = mycielski(4)
    rep = check_conjecture(g, SearchBudget(max_nodes=3))
    assert (rep.toi.status, rep.toi.value) == ("timeout", 3)
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
