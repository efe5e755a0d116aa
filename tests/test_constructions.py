"""Constructive certificates: connector pairs, edge classes, all builders."""

import hashlib
import itertools

import pytest
from conftest import edge_class, is_translation, kts_declared_classes
from hypothesis import given, settings
from hypothesis import strategies as st

from toi.certificates import Certificate, Route, serialize_certificate, verify
from toi.constructions import (
    FactorImmersion,
    _embed,
    _grid_path,
    _m_route,
    _walk,
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
    path_graph,
)
from toi.solver import SearchBudget, _ToiSearch, exact_toi


# --- connector route pairs in a direct product ---------------------------

def _even_path(seed, length, bound):
    """Deterministic pseudo-random vertex path of the given edge count."""
    verts = [seed % bound]
    x = seed
    while len(verts) < length + 1:
        x = (x * 1103515245 + 12345) % (2 ** 31)
        v = x % bound
        if v != verts[-1]:
            verts.append(v)
    return tuple(verts)


def _m_pair(p, q, n_h):
    """The two connector routes of odd factor routes p and q in a direct
    product: ``(p[0], q[0])`` to ``(p[-1], q[-1])``, and ``(p[0], q[-1])``
    to ``(p[-1], q[0])`` with q walked in reverse."""
    return _walk(p, q, n_h), _walk(p, q[::-1], n_h)


# interior vertex counts; routes have k+1 and l+1 edges, both odd
interior_counts = st.sampled_from([0, 2, 4, 6])


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       interior_counts, interior_counts)
@settings(max_examples=200, deadline=None)
def test_m_pair_properties(seed_p, seed_q, k, l):
    n_h = 40
    p = _even_path(seed_p, k + 1, 30)
    q = _even_path(seed_q, l + 1, n_h)
    m1, m2 = _m_pair(p, q, n_h)

    def dec(v):
        return divmod(v, n_h)

    # endpoints: corners of the p x q rectangle
    u, u2 = p[0], p[-1]
    v, v2 = q[0], q[-1]
    assert dec(m1.vertices[0]) == (u, v)
    assert dec(m1.vertices[-1]) == (u2, v2)
    assert dec(m2.vertices[0]) == (u, v2)
    assert dec(m2.vertices[-1]) == (u2, v)
    # both odd
    assert m1.edge_count % 2 == m2.edge_count % 2 == 1
    # every step moves both coordinates along consecutive path positions
    for route in (m1, m2):
        for a, b in zip(route.vertices, route.vertices[1:]):
            (g1, h1), (g2, h2) = dec(a), dec(b)
            assert g1 != g2 and h1 != h2


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       interior_counts, interior_counts)
@settings(max_examples=200, deadline=None)
def test_m_pair_vertex_disjoint(seed_p, seed_q, k, l):
    # vertex-disjointness holds when the underlying paths are simple
    n_h = 50
    p = tuple(range(5, 5 + k + 2))
    q = tuple(range(seed_q % 10, seed_q % 10 + l + 2))
    m1, m2 = _m_pair(p, q, n_h)
    assert not (set(m1.vertices) & set(m2.vertices))
    assert len(set(m1.vertices)) == len(m1.vertices)
    assert len(set(m2.vertices)) == len(m2.vertices)


def test_m_pair_single_edges():
    # k = l = 0 degenerates to the single product edge, twice
    m1, m2 = _m_pair((1, 3), (2, 4), 10)
    assert m1.vertices == (12, 34)
    assert m2.vertices == (14, 32)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_m_pair_bytes_are_pinned():
    # every (k, l) case, including k = l, k = 0 and l = 0, on three path
    # pairs each
    lines = []
    for k in range(0, 10, 2):
        for l in range(0, 10, 2):
            for seed in range(3):
                p = _even_path(seed * 7919 + k, k + 1, 30)
                q = _even_path(seed * 104729 + l, l + 1, 40)
                m1, m2 = _m_pair(p, q, 40)
                lines.append(f"{m1.vertices} {m2.vertices}")
    assert _sha256("\n".join(lines)) == (
        "31b03177f79b7319237e056620645db0fa80229fa75c1915138730c1da9599b0")


def test_m_pair_bytes_are_pinned_to_fourteen_interior_vertices():
    # long walks on both sides of k = l, with the factor routes in both
    # argument orders
    lines = []
    for k in range(0, 16, 2):
        for l in range(0, 16, 2):
            for seed in range(3):
                p = _even_path(seed * 7919 + k, k + 1, 30)
                q = _even_path(seed * 104729 + l, l + 1, 40)
                for m1, m2 in (_m_pair(p, q, 40), _m_pair(q, p, 40)):
                    lines.append(f"{m1.vertices} {m2.vertices}")
    assert _sha256("\n".join(lines)) == (
        "e971f7dbcaa8f41ed1975116622727d7027d659b51d6d2810abbc43236b8a901")


# --- lifting a base certificate into a product of factor immersions ------

def _cycle_factor(n=5):
    # the search's first K_3, not exact_toi's constructed one, so the pinned
    # bytes below measure the lifts and connectors and not the solver's
    # choice of witness
    cycle = cycle_graph(n)
    return FactorImmersion(cycle, _ToiSearch(cycle, SearchBudget()).find(3))


def test_direct_lift_identity_factors():
    fg = FactorImmersion.identity(complete_graph(3))
    fh = FactorImmersion.identity(complete_graph(4))
    base = exact_toi(direct_product(complete_graph(3),
                                    complete_graph(4))).witness
    cert = direct_lift(fg, fh, base)
    host = direct_product(complete_graph(3), complete_graph(4))
    rep = verify(host, cert)
    assert rep.satisfies("totally-odd")
    assert cert.clique_size == base.clique_size


def test_direct_lift_c5_factors():
    f = _cycle_factor()
    base = exact_toi(direct_product(complete_graph(3),
                                    complete_graph(3))).witness
    cert = direct_lift(f, f, base)
    rep = verify(direct_product(cycle_graph(5), cycle_graph(5)), cert)
    assert rep.satisfies("totally-odd")


def test_direct_lift_requires_size_three_factors():
    fg = FactorImmersion.identity(complete_graph(2))
    fh = FactorImmersion.identity(complete_graph(3))
    base = exact_toi(direct_product(complete_graph(2),
                                    complete_graph(3))).witness
    with pytest.raises(ValueError):
        direct_lift(fg, fh, base)


def test_direct_lift_bytes_are_pinned():
    k3 = FactorImmersion.identity(complete_graph(3))
    k4 = FactorImmersion.identity(complete_graph(4))
    c5 = _cycle_factor()
    base34 = exact_toi(direct_product(complete_graph(3),
                                      complete_graph(4))).witness
    base33 = exact_toi(direct_product(complete_graph(3),
                                      complete_graph(3))).witness
    assert _sha256(serialize_certificate(direct_lift(k3, k4, base34))) == (
        "091e591621af78c4fc75d8116de8de538906878c811e8451046a4dce4dd518e1")
    assert _sha256(serialize_certificate(direct_lift(c5, c5, base33))) == (
        "4a7602b14fd99da1f6bcfc62927adbf5526b5990463125deab9489c87335c108")


def test_m_route_bytes_are_pinned():
    # every connector between grid cells that differ in both coordinates,
    # in both directions, over factor routes of up to 7 edges
    c7, c9 = _cycle_factor(7), _cycle_factor(9)
    k4 = FactorImmersion.identity(complete_graph(4))
    lines = []
    for fg, fh in ((c7, c9), (c9, k4), (k4, c7)):
        cells = list(itertools.product(range(fg.size), range(fh.size)))
        for a, b in itertools.product(cells, repeat=2):
            if a[0] != b[0] and a[1] != b[1]:
                lines.append(f"{a} {b} {_m_route(fg, fh, a, b).vertices}")
    assert _sha256("\n".join(lines)) == (
        "f716d8ece6022fb2d1eeee42d117e955f304c335817f12c651d2585d7be49de5")


def test_direct_lift_orients_reversed_base_routes():
    # a base route stored from its higher-index terminal lifts to the same
    # route as the one stored from the lower
    k3 = FactorImmersion.identity(complete_graph(3))
    k4 = FactorImmersion.identity(complete_graph(4))
    base = exact_toi(direct_product(complete_graph(3),
                                    complete_graph(4))).witness
    flipped = Certificate(base.clique_size, base.terminals,
                          {pair: route.reversed()
                           for pair, route in base.connections.items()})
    assert all(route.vertices[0] == flipped.terminals[b]
               for (_, b), route in flipped.connections.items())
    for fg in (_cycle_factor(), k3):
        assert serialize_certificate(direct_lift(fg, k4, flipped)) == \
            serialize_certificate(direct_lift(fg, k4, base))


def test_direct_lift_rejects_wrong_base():
    fg = FactorImmersion.identity(complete_graph(3))
    bad_base = exact_toi(direct_product(complete_graph(3),
                                        complete_graph(4))).witness
    with pytest.raises(ValueError):
        direct_lift(fg, fg, bad_base)


_K3 = FactorImmersion.identity(complete_graph(3))


@pytest.mark.parametrize("build, message", [
    (lambda: _K3.route(1, 1), "no route from a terminal to itself"),
    # fits the K3 x K3 grid, but its one route has two edges
    (lambda: direct_lift(_K3, _K3, Certificate(2, (0, 8),
                                               {(0, 1): Route((0, 4, 8))})),
     "base certificate is not a totally odd immersion: "
     "{'all_odd': 'pair (0, 1): route has even length 2'}"),
    (lambda: cartesian_large(FactorImmersion.identity(complete_graph(1)),
                             FactorImmersion.identity(complete_graph(4))),
     "requires t >= 2"),
], ids=["route-to-itself", "direct-lift-even-base", "cartesian-large-t1"])
def test_construction_error_messages(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


# --- edge classes in K_{2t} x K_s ----------------------------------------

def test_edge_class_worked_examples():
    # grid cells are 1-based (row, column); f = (row parity, row diff,
    # column diff) with the smaller-column endpoint first
    t, s = 6, 10

    def enc(i, j):
        return (i - 1) * s + (j - 1)

    assert edge_class(t, s, enc(1, 5), enc(2, 10)) == (1, -1, 5)
    assert edge_class(t, s, enc(2, 8), enc(4, 1)) == (0, 2, 7)


def test_edge_class_errors():
    t, s = 6, 5

    def enc(i, j):
        return (i - 1) * s + (j - 1)

    with pytest.raises(ValueError):
        edge_class(t, s, enc(1, 2), enc(1, 2))  # not an edge
    with pytest.raises(ValueError):
        edge_class(t, s, enc(1, 2), enc(2, 2))  # same column, not an edge
    with pytest.raises(ValueError):
        edge_class(t, s, enc(1, 1), enc(3, 2))  # both endpoints terminals


def _nonterminal_edges(t, s):
    host = direct_product(complete_graph(2 * t), complete_graph(s))
    for u, v in sorted(host.edges):
        i = u // s + 1
        i2 = v // s + 1
        if i % 2 == 1 and i2 % 2 == 1:
            continue
        yield u, v


def test_edge_class_law_small_exhaustive():
    # f(e) = f(e') iff e' is a translation of e (or equal); the full-size
    # host is exercised in the acceptance suite
    t, s = 3, 4
    edges = list(_nonterminal_edges(t, s))
    for e in edges:
        fe = edge_class(t, s, *e)
        for e2 in edges:
            same = edge_class(t, s, *e2) == fe
            assert same == is_translation(t, s, e, e2)


def test_translation_is_equivalence_relation_sample():
    t, s = 3, 4
    edges = list(_nonterminal_edges(t, s))[:30]
    for e in edges:
        assert is_translation(t, s, e, e)
    for e in edges:
        for e2 in edges:
            assert is_translation(t, s, e, e2) == is_translation(t, s, e2, e)


# --- the K_{ts} certificate in K_{2t} x K_s -------------------------------

KTS_CASES = [(6, 5), (6, 6), (7, 5), (8, 7)]


@pytest.mark.parametrize("t,s", KTS_CASES)
def test_direct_kts_verifies(t, s):
    cert = direct_kts(t, s)
    assert cert.clique_size == t * s
    host = direct_product(complete_graph(2 * t), complete_graph(s))
    rep = verify(host, cert)
    assert rep.all_ok, rep.first_violation


@pytest.mark.parametrize("t", range(6, 10))
def test_direct_kts_keys_are_the_ascending_pair_list(t):
    # Certificate._trusted skips the key check on exactly this property
    for s in range(5, 9):
        keys = list(direct_kts(t, s).connections)
        assert keys == list(itertools.combinations(range(t * s), 2)), (t, s)


def test_direct_kts_terminals_are_odd_rows():
    t, s = 6, 5
    cert = direct_kts(t, s)
    for v in cert.terminals:
        assert (v // s) % 2 == 0  # 0-based even row = 1-based odd row


def test_direct_kts_rejects_small_parameters():
    for t, s in [(5, 5), (6, 4), (2, 2)]:
        with pytest.raises(ValueError):
            direct_kts(t, s)


@pytest.mark.parametrize("t,s", [(6, 5), (7, 6), (8, 9)])
def test_direct_kts_route_edges_fall_in_declared_classes(t, s):
    _, paths = direct_kts_routes(t, s)

    def enc(cell):
        return (cell[0] - 1) * s + (cell[1] - 1)

    for ca, cb, verts, tag in paths:
        want = kts_declared_classes(t, s, (ca, cb))[tag]
        ids = [enc(c) for c in verts]
        got = [edge_class(t, s, min(u, v), max(u, v))
               for u, v in zip(ids, ids[1:])]
        assert sorted(got) == sorted(want), (tag, ca, cb)


@pytest.mark.parametrize("t,s", [(6, 5), (6, 6), (7, 9), (14, 14)])
def test_direct_kts_tags_are_declared(t, s):
    _, paths = direct_kts_routes(t, s)
    for ca, cb, _, tag in paths:
        assert tag in kts_declared_classes(t, s, (ca, cb)), tag


def test_direct_kts_routes_are_pinned():
    # the route table with its tags, which certificates do not carry
    lines = []
    for t in range(6, 11):
        for s in range(5, 10):
            singles, paths = direct_kts_routes(t, s)
            lines.append(f"{t} {s} {singles}")
            lines += [f"{ca} {cb} {verts} {tag}" for ca, cb, verts, tag in paths]
    assert _sha256("\n".join(lines)) == (
        "dfb968609ea806057fc6c4284e35d43c5d4703d004b380ee182f7d17f1202c15")


def test_direct_kts_paths_are_edge_disjoint_three_edge_routes():
    # what verify's edge-disjointness check needs of the route table, with
    # no certificate built: every path has three direct-product edges, each
    # with an even-row end (so none is a terminal-terminal single), and no
    # two paths share an edge
    for t in range(6, 15):
        for s in range(5, 15):
            _, paths = direct_kts_routes(t, s)
            edges = []
            for ca, cb, (a, x, y, b), _ in paths:
                assert (a, b) == (ca, cb)
                edges += ((a, x), (x, y), (y, b))
            assert all(r != r2 and j != j2 and (r % 2 == 0 or r2 % 2 == 0)
                       for (r, j), (r2, j2) in edges), (t, s)
            assert len({(a, b) if a < b else (b, a) for a, b in edges}) \
                == len(edges), (t, s)


# --- Cartesian constructions ----------------------------------------------

@pytest.mark.parametrize("t,s", [(2, 4), (3, 4), (4, 4), (4, 5), (5, 6)])
def test_cartesian_large_complete_factors(t, s):
    fg = FactorImmersion.identity(complete_graph(t))
    fh = FactorImmersion.identity(complete_graph(s))
    cert = cartesian_large(fg, fh)
    assert cert.clique_size == t + s - 1
    host = cartesian_product(complete_graph(t), complete_graph(s))
    rep = verify(host, cert)
    assert rep.all_ok, rep.first_violation


def test_cartesian_large_noncomplete_factor():
    f = _cycle_factor()
    fh = FactorImmersion.identity(complete_graph(4))
    cert = cartesian_large(f, fh)
    assert cert.clique_size == 3 + 4 - 1
    rep = verify(cartesian_product(cycle_graph(5), complete_graph(4)), cert)
    assert rep.all_ok, rep.first_violation


def test_cartesian_large_requires_s_at_least_4():
    fg = FactorImmersion.identity(complete_graph(3))
    fh = FactorImmersion.identity(complete_graph(3))
    with pytest.raises(ValueError, match="s >= 4"):
        cartesian_large(fg, fh)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_cartesian_32(n):
    g, h = cycle_graph(n), path_graph(3)
    cert = cartesian_32(g, h)
    assert cert.clique_size == 4
    rep = verify(cartesian_product(g, h), cert)
    assert rep.all_ok, rep.first_violation


def test_cartesian_32_figure_route():
    cert = cartesian_32(cycle_graph(5), path_graph(3))
    # host vertices decode as (cycle vertex, path vertex), 3 per row
    verts = cert.connections[(2, 3)].vertices
    decoded = [divmod(v, 3) for v in verts]
    assert decoded == [(0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0)]


def test_cartesian_bytes_are_pinned():
    k4, k5 = (FactorImmersion.identity(complete_graph(n)) for n in (4, 5))
    c5 = _cycle_factor()
    for cert, digest in [
        (cartesian_large(k4, k5),
         "43c86da70d984881d2ecc43fb180d65c452a2b8cf66adca3edd583d58ad68c90"),
        (cartesian_large(c5, k4),
         "9545605c801d6b203272c80a1f0eb7251aa025075adabe1d897db9d63d67ba3a"),
        (cartesian_32(cycle_graph(5), path_graph(3)),
         "e88061373a42ebb94c963cbb6a11195e2cea27a87c54117d5ecf8c4ba9b2ae73"),
        (cartesian_32(cycle_graph(9), cycle_graph(4)),
         "01ed00b60fc98a511e99e495528e3676fa3bae58345506780ae2353bb6be952d"),
    ]:
        assert _sha256(serialize_certificate(cert)) == digest


def test_builder_bytes_over_factor_grids_are_pinned():
    # cartesian_32 on all 63 ordered pairs of a non-bipartite G and an H
    # with a vertex of degree 2 or more, cartesian_large on five first
    # factors against K4 and K5, and direct_lift on two more factor/base
    # pairs, one certificate per line
    gs = [complete_graph(3), complete_graph(4), complete_graph(5),
          *(cycle_graph(n) for n in (5, 7, 9, 11))]
    hs = [*(path_graph(n) for n in (3, 4, 5)), complete_graph(3),
          complete_graph(4), *(cycle_graph(n) for n in (4, 5, 6, 7))]
    lines = [serialize_certificate(cartesian_32(g, h)) for g in gs for h in hs]
    assert len(lines) == 63
    assert _sha256("\n".join(lines)) == (
        "a1728c044d29ec75ec301d8352b742c7ffb3f475790d6523f85b527d6376c587")
    k = {n: FactorImmersion.identity(complete_graph(n)) for n in range(2, 6)}
    c5 = _cycle_factor()
    lines = [serialize_certificate(cartesian_large(fg, fh))
             for fg in (k[2], k[3], k[4], k[5], c5) for fh in (k[4], k[5])]
    assert _sha256("\n".join(lines)) == (
        "7ea424bd941ffd357cb5e6c6cc6befe5f287c7e1b8113dc1d0b1df4fdfba2acc")
    base33, base43 = (exact_toi(direct_product(complete_graph(t),
                                               complete_graph(3))).witness
                      for t in (3, 4))
    lines = [serialize_certificate(direct_lift(_cycle_factor(7), k[3], base33)),
             serialize_certificate(direct_lift(k[4], c5, base43))]
    assert _sha256("\n".join(lines)) == (
        "d2829ca2875426bb78a3d2b777250b461a1f0a2289717a2222004c63135bef7d")


def _long_arc(k, n):
    """Edge map of the cycle C_k onto C_n, n >= k both odd: vertex z stays z
    and the edge (k - 1, 0) goes the long way round through k .. n - 1."""
    arc = tuple(range(k - 1, n)) + (0,)
    return lambda x, y: ((x, y) if {x, y} != {k - 1, 0}
                         else arc if x == k - 1 else arc[::-1])


@pytest.mark.parametrize("a,b", [(3, 5), (3, 9), (5, 7), (7, 5), (9, 11)])
def test_odd_subdivision_carries_the_c3_c5_k5(a, b):
    # each factor's odd cycle maps onto a longer odd one, so C3 [] C5 maps
    # into C_a [] C_b fibre by fibre, and its K5 goes with it
    res = exact_toi(cartesian_product(cycle_graph(3), cycle_graph(5)))
    assert (res.value, res.status, res.nodes_explored) == (5, "exact", 34)
    cert = _embed(res.witness, *_grid_path(_long_arc(3, a), _long_arc(5, b),
                                           range(3), range(5), b, 5))
    host = cartesian_product(cycle_graph(a), cycle_graph(b))
    assert verify(host, cert).satisfies("totally-odd-strong")
    assert cert.clique_size == 5


def test_cartesian_32_rejects_bipartite_first_factor():
    with pytest.raises(ValueError):
        cartesian_32(cycle_graph(4), path_graph(3))


def test_cartesian_32_rejects_edgeless_second_factor():
    with pytest.raises(ValueError):
        cartesian_32(cycle_graph(5), Graph(3, frozenset()))
    # an edge but no vertex of degree 2
    with pytest.raises(ValueError):
        cartesian_32(cycle_graph(5), complete_graph(2))


# --- every builder against the exact solver ---------------------------------

def _identity_cartesian_large(g, h):
    return cartesian_large(FactorImmersion.identity(g), FactorImmersion.identity(h))


def _lift_k3_grid_witness(g, h):
    """direct_lift of the solver's K_4 witness in K_3 x K_3, on the factors'
    solver witnesses."""
    base = exact_toi(direct_product(complete_graph(3), complete_graph(3))).witness
    fg, fh = (FactorImmersion(f, exact_toi(f).witness) for f in (g, h))
    return direct_lift(fg, fh, base)


# toi is 4, 4, 4, 5, 5, 5, 6, 6, 4, 5 in row order: cartesian_32 falls one
# short on C5 [] K3 and K3 [] C4, and the lift on C5 x C5.  direct_lift
# guarantees only a totally odd immersion; these two lifts are also strong.
@pytest.mark.parametrize("product, g, h, build", [
    (cartesian_product, complete_graph(3), complete_graph(3), cartesian_32),
    (cartesian_product, cycle_graph(5), path_graph(3), cartesian_32),
    (cartesian_product, complete_graph(3), path_graph(3), cartesian_32),
    (cartesian_product, cycle_graph(5), complete_graph(3), cartesian_32),
    (cartesian_product, complete_graph(3), cycle_graph(4), cartesian_32),
    (cartesian_product, complete_graph(2), complete_graph(4),
     _identity_cartesian_large),
    (cartesian_product, complete_graph(3), complete_graph(4),
     _identity_cartesian_large),
    (cartesian_product, complete_graph(2), complete_graph(5),
     _identity_cartesian_large),
    (direct_product, complete_graph(3), complete_graph(3), _lift_k3_grid_witness),
    (direct_product, cycle_graph(5), cycle_graph(5), _lift_k3_grid_witness),
], ids=["cart-32-K3-K3", "cart-32-C5-P3", "cart-32-K3-P3", "cart-32-C5-K3",
        "cart-32-K3-C4", "cart-large-K2-K4", "cart-large-K3-K4",
        "cart-large-K2-K5", "direct-lift-K3-K3", "direct-lift-C5-C5"])
def test_builders_stay_within_the_exact_value(product, g, h, build):
    host = product(g, h)
    cert = build(g, h)
    assert verify(host, cert).satisfies("totally-odd-strong")
    res = exact_toi(host)
    assert res.status == "exact"
    assert cert.clique_size <= res.value
