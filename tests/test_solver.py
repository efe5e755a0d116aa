"""Exhaustive solver: exact values, budget behavior, chromatic number."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toi.certificates import serialize_certificate, verify
from toi.graphs import (
    Graph,
    cartesian_product,
    complete_graph,
    cycle_graph,
    direct_product,
    is_bipartite,
    path_graph,
)
from toi.solver import (
    SearchBudget,
    _ToiSearch,
    check_conjecture,
    chromatic_number,
    exact_toi,
    has_toi_clique,
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


def test_has_toi_clique_definitive_absence():
    out = has_toi_clique(cycle_graph(4), 3)
    assert out.certificate is None
    assert out.definitive


def test_has_toi_clique_positive():
    out = has_toi_clique(complete_graph(4), 4)
    assert out.certificate is not None
    assert verify(complete_graph(4), out.certificate).all_ok


def test_has_toi_clique_rejects_nonpositive():
    with pytest.raises(ValueError):
        has_toi_clique(complete_graph(3), 0)


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
    out = has_toi_clique(direct_product(complete_graph(3), complete_graph(4)), 7)
    assert out.certificate is None and out.definitive


def _differential_graphs():
    yield from _all_graphs(5)
    rng = random.Random(2025)
    pairs = {n: list(itertools.combinations(range(n), 2)) for n in (7, 8)}
    for _ in range(200):
        n = rng.choice((7, 8))
        density = rng.uniform(0.3, 0.8)
        yield Graph(n, frozenset(e for e in pairs[n] if rng.random() < density))


def test_edge_budget_bound_changes_no_answer(monkeypatch):
    # the bound only skips terminal sets without a solution, so value and
    # witness bytes match the unpruned search; a status may only get stronger
    graphs = list(_differential_graphs())
    pruned = [exact_toi(g) for g in graphs]
    monkeypatch.setattr(_ToiSearch, "_edge_budget_refutes",
                        lambda self, subset: False)
    for g, fast in zip(graphs, pruned):
        slow = exact_toi(g)
        assert fast.value == slow.value
        assert serialize_certificate(fast.witness) == \
            serialize_certificate(slow.witness)
        assert fast.status == slow.status or (
            fast.status, slow.status) == ("exact", "lower-bound-only")
        assert fast.nodes_explored <= slow.nodes_explored


def test_capped_exact_status_is_sound():
    # a short route cap may hide the answer; "exact" and a definitive
    # absence must then not be claimed, and the cap only degrades a status
    # where it actually cut a branch
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
            out = has_toi_clique(g, truth.value, budget)
            assert out.certificate is not None or not out.definitive
    assert statuses == {"exact", "lower-bound-only"}


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


def test_check_conjecture_c5():
    rep = check_conjecture(cycle_graph(5))
    assert rep.chi.value == 3 and rep.toi.value == 3
    assert rep.satisfied is True


def test_check_conjecture_k6():
    rep = check_conjecture(complete_graph(6))
    assert rep.chi.value == 6 and rep.toi.value == 6
    assert rep.satisfied is True


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


@given(st.integers(2, 6))
@settings(max_examples=5, deadline=None)
def test_complete_graph_identity(n):
    res = exact_toi(complete_graph(n))
    assert res.value == n
    assert res.status == "exact"
