"""Acceptance suite: the nine headline guarantees, one summary line each.

Each criterion states its tolerance and time limit inline; the conftest
prints a PASS/FAIL line per criterion in the terminal summary.
"""

import itertools
import random
import time
from contextlib import contextmanager

from conftest import (ACCEPTANCE_LINES, edge_class, is_translation,
                      kts_declared_classes)

from toi.certificates import Certificate, Route, verify
from toi.constructions import (
    FactorImmersion,
    cartesian_32,
    cartesian_large,
    direct_kts,
    direct_kts_routes,
    direct_lift,
)
from toi.graphs import (
    Graph,
    cartesian_product,
    complete_graph,
    cycle_graph,
    direct_product,
    lexicographic_product,
    path_graph,
    strong_product,
)
from toi.solver import check_conjecture, exact_toi


@contextmanager
def criterion(num, summary):
    start = time.time()
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"ACCEPTANCE {num}: FAIL - {summary}")
        raise
    elapsed = time.time() - start
    ACCEPTANCE_LINES.append(
        f"ACCEPTANCE {num}: PASS - {summary} ({elapsed:.1f}s)")


def test_criterion_1_exact_solver_values():
    # exact integers, each solve well under the 5 minute limit
    with criterion(1, "exact toi of K3[]K3, K3[]K2, K2[]K2 = 4, 3, 2"):
        for t, s, want in ((3, 3, 4), (3, 2, 3), (2, 2, 2)):
            host = cartesian_product(complete_graph(t), complete_graph(s))
            start = time.time()
            res = exact_toi(host)
            assert time.time() - start < 300
            assert res.status == "exact"
            assert res.value == want, (t, s, res.value)


def test_criterion_2_cartesian_equality_at_desk_scale():
    with criterion(2, "cartesian_large certificates meet the degree bound; "
                      "exact toi(K2[]K4) = 5"):
        for t, s in ((2, 4), (3, 4), (4, 4), (4, 5)):
            fg = FactorImmersion.identity(complete_graph(t))
            fh = FactorImmersion.identity(complete_graph(s))
            cert = cartesian_large(fg, fh)
            assert cert.clique_size == t + s - 1
            host = cartesian_product(complete_graph(t), complete_graph(s))
            rep = verify(host, cert)
            assert rep.all_ok, rep.first_violation
            # toi <= max degree + 1 = (t-1) + (s-1) + 1, so the certificate
            # pins the value exactly
            assert max(map(len, host.adjacency)) + 1 == t + s - 1
        res = exact_toi(cartesian_product(complete_graph(2),
                                          complete_graph(4)))
        assert res.status == "exact" and res.value == 5


def test_criterion_3_kts_smallest_instance():
    with criterion(3, "direct_kts(6, 5) gives a fully verified K30 "
                      "certificate in under 10s"):
        start = time.time()
        cert = direct_kts(6, 5)
        host = direct_product(complete_graph(12), complete_graph(5))
        rep = verify(host, cert)
        elapsed = time.time() - start
        assert cert.clique_size == 30
        assert host.n == 60 and host.m == 1320
        assert len(cert.connections) == 435
        assert rep.all_ok, rep.first_violation
        assert elapsed < 10, elapsed


def test_criterion_4_lift_end_to_end():
    c5 = cycle_graph(5)
    res = exact_toi(c5)
    assert res.value == 3
    f = FactorImmersion(c5, res.witness)
    base = exact_toi(direct_product(complete_graph(3),
                                    complete_graph(3))).witness
    cert = direct_lift(f, f, base)
    flags = verify(direct_product(c5, c5), cert).flags()
    with criterion(4, "lifted C5 x C5 certificate is a totally odd "
                      "immersion; routes_simple="
                      f"{flags['routes_simple']}, strong={flags['strong']} (recorded)"):
        for flag in ("endpoints_ok", "all_odd", "edge_disjoint",
                     "edges_exist", "complete"):
            assert flags[flag], flag


def _kts_nonterminal_edges(t, s):
    host = direct_product(complete_graph(2 * t), complete_graph(s))
    out = []
    for u, v in sorted(host.edges):
        if (u // s) % 2 == 0 and (v // s) % 2 == 0:
            continue  # both endpoints in 1-based odd rows: terminal edge
        out.append((u, v))
    return out


def test_criterion_5_edge_class_laws():
    t, s = 6, 5
    _, paths = direct_kts_routes(t, s)
    with criterion(5, "edge classes on K12 x K5: equal class iff "
                      "translation, exhaustively; every route's edges match "
                      "its case classes"):
        edges = _kts_nonterminal_edges(t, s)
        classes = [edge_class(t, s, *e) for e in edges]
        for a in range(len(edges)):
            for b in range(a, len(edges)):
                same = classes[a] == classes[b]
                assert same == is_translation(t, s, edges[a], edges[b]), \
                    (edges[a], edges[b])

        def enc(cell):
            return (cell[0] - 1) * s + (cell[1] - 1)

        for ca, cb, verts, tag in paths:
            want = kts_declared_classes(t, s, (ca, cb))[tag]
            ids = [enc(c) for c in verts]
            got = [edge_class(t, s, min(u, v), max(u, v))
                   for u, v in zip(ids, ids[1:])]
            assert sorted(got) == sorted(want), (tag, ca, cb, got, want)


def test_criterion_6_figure_reproduction():
    with criterion(6, "cartesian_32(C5, P3) reproduces the three figure "
                      "routes exactly"):
        cert = cartesian_32(cycle_graph(5), path_graph(3))
        rep = verify(cartesian_product(cycle_graph(5), path_graph(3)), cert)
        assert rep.all_ok, rep.first_violation
        multi = {pair: [divmod(v, 3) for v in route.vertices]
                 for pair, route in cert.connections.items()
                 if route.edge_count > 1}
        assert multi == {
            (0, 2): [(2, 0), (3, 0), (4, 0), (0, 0)],
            (1, 3): [(1, 0), (1, 1), (2, 1), (3, 1), (4, 1), (0, 1)],
            (2, 3): [(0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0)],
        }


def test_criterion_7_conjecture_sweep():
    # all 1024 labeled graphs on 5 vertices, both solvers exact, < 10 min
    with criterion(7, "chi <= toi on all 1024 labeled 5-vertex graphs"):
        start = time.time()
        pairs = list(itertools.combinations(range(5), 2))
        for mask in range(1 << 10):
            g = Graph(5, frozenset(pairs[i] for i in range(10)
                                   if (mask >> i) & 1))
            rep = check_conjecture(g)
            assert rep.satisfied is True, mask
        assert time.time() - start < 600


def test_criterion_8_mutation_soundness():
    # four single-fault mutations, each flipping exactly its intended flag
    with criterion(8, "each single-fault mutation flips exactly its "
                      "intended verifier flag"):
        base_conns = dict(
            (pair, Route((a, b)))
            for pair, (a, b) in {(i, j): (i, j)
                                 for i, j in itertools.combinations(range(4), 2)
                                 }.items())
        cases = [
            # (host, mutated connections, flag that must flip)
            (complete_graph(5),
             {(0, 1): Route((0, 4, 1))}, "all_odd"),
            (complete_graph(6),
             {(0, 1): Route((0, 4, 5, 1)),
              (2, 3): Route((2, 4, 5, 3))}, "edge_disjoint"),
            (complete_graph(7),
             {(0, 1): Route((0, 4, 2, 5, 6, 1))}, "strong"),
            (Graph(6, complete_graph(6).edges - {(4, 5)}),
             {(0, 1): Route((0, 4, 5, 1))}, "edges_exist"),
        ]
        for host, mutation, intended in cases:
            clean = Certificate(4, (0, 1, 2, 3), base_conns)
            before = verify(host, clean).flags()
            assert all(before.values()), (intended, before)
            mutated = Certificate(4, (0, 1, 2, 3),
                                  {**base_conns, **mutation})
            after = verify(host, mutated).flags()
            flipped = sorted(n for n in after if after[n] != before[n])
            assert flipped == [intended], (intended, flipped)


def test_criterion_9_product_identities():
    with criterion(9, "edge-count identities for all four products on 200 "
                      "random factor pairs; strong = cartesian + direct "
                      "partition"):
        rng = random.Random(1723946)

        def rand_graph():
            n = rng.randint(1, 8)
            edges = [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < 0.5]
            return Graph(n, frozenset(edges))

        for _ in range(200):
            g, h = rand_graph(), rand_graph()
            cart = cartesian_product(g, h)
            drct = direct_product(g, h)
            strong = strong_product(g, h)
            lex = lexicographic_product(g, h)
            assert cart.m == g.n * h.m + h.n * g.m
            assert drct.m == 2 * g.m * h.m
            assert lex.m == h.n * h.n * g.m + g.n * h.m
            assert strong.m == cart.m + drct.m
            assert strong.edges == cart.edges | drct.edges
            assert not (cart.edges & drct.edges)
