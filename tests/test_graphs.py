"""Graph model, products, bipartiteness, and the text format."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toi.graphs import (
    Graph,
    GraphFormatError,
    cartesian_product,
    complete_graph,
    cycle_graph,
    direct_product,
    find_p3_center,
    is_bipartite,
    lexicographic_product,
    path_graph,
    read_graph_text,
    strong_product,
    write_graph_text,
)


def random_graph(rng, max_n=8):
    n = rng.randint(1, max_n)
    edges = [e for e in itertools.combinations(range(n), 2)
             if rng.random() < 0.5]
    return Graph(n, frozenset(edges))


def test_basic_families():
    k4 = complete_graph(4)
    assert (k4.n, k4.m) == (4, 6)
    assert k4.is_complete()
    assert not cycle_graph(4).is_complete()
    c5 = cycle_graph(5)
    assert (c5.n, c5.m) == (5, 5)
    assert all(c5.degree(v) == 2 for v in range(5))
    p3 = path_graph(3)
    assert (p3.n, p3.m) == (3, 2)
    assert p3.degree(1) == 2


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 1)}))
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 5)}))


def test_adjacency_sorted():
    g = cycle_graph(6)
    for v in range(6):
        nbrs = g.adjacency[v]
        assert list(nbrs) == sorted(nbrs)


# product edge counts: n_G*m_H + n_H*m_G, 2*m_G*m_H, n_H^2*m_G + n_G*m_H,
# cartesian + direct


def _counts(g, h):
    return {
        "cartesian": g.n * h.m + h.n * g.m,
        "direct": 2 * g.m * h.m,
        "lex": h.n * h.n * g.m + g.n * h.m,
    }


def test_product_edge_counts_random_pairs():
    rng = random.Random(20240817)
    for _ in range(60):
        g, h = random_graph(rng), random_graph(rng)
        want = _counts(g, h)
        cart = cartesian_product(g, h)
        drct = direct_product(g, h)
        assert cart.m == want["cartesian"]
        assert drct.m == want["direct"]
        lex = lexicographic_product(g, h)
        assert lex.m == want["lex"]
        strong = strong_product(g, h)
        assert strong.m == want["cartesian"] + want["direct"]
        assert strong.edges == cart.edges | drct.edges
        assert not (cart.edges & drct.edges)
        # the products skip Graph's per-edge check, which must accept them
        for p in (cart, drct, lex, strong):
            assert Graph(p.n, p.edges, p.labels, p.name) == p


def test_product_vertex_labels():
    g, h = complete_graph(3), path_graph(2)
    p = cartesian_product(g, h)
    assert p.n == 6
    assert p.labels == tuple((a, b) for a in range(3) for b in range(2))


def test_cartesian_product_adjacency_rule():
    g, h = cycle_graph(4), path_graph(3)
    p = cartesian_product(g, h)
    for u, v in p.edges:
        (a, b), (c, d) = p.labels[u], p.labels[v]
        same_g = a == c and h.has_edge(b, d)
        same_h = b == d and g.has_edge(a, c)
        assert same_g != same_h


def test_direct_product_adjacency_rule():
    g, h = cycle_graph(5), complete_graph(3)
    p = direct_product(g, h)
    for u, v in p.edges:
        (a, b), (c, d) = p.labels[u], p.labels[v]
        assert g.has_edge(a, c) and h.has_edge(b, d)


def test_lexicographic_asymmetric():
    g, h = path_graph(2), Graph(2, frozenset())
    assert lexicographic_product(g, h).m == 4
    assert lexicographic_product(h, g).m == 2


def test_is_bipartite_even_structures():
    for g in (cycle_graph(4), cycle_graph(6), path_graph(5),
              complete_graph(2), Graph(3, frozenset())):
        bip, cyc = is_bipartite(g)
        assert bip and cyc is None


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_is_bipartite_odd_cycle_witness(n):
    g = cycle_graph(n)
    bip, cyc = is_bipartite(g)
    assert not bip
    assert len(cyc) % 2 == 1
    assert len(set(cyc)) == len(cyc)
    for i in range(len(cyc)):
        assert g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)])


def test_odd_cycle_witness_deterministic():
    g = complete_graph(5)
    assert is_bipartite(g)[1] == is_bipartite(g)[1]


def test_find_p3_center():
    got = find_p3_center(path_graph(3))
    assert got is not None
    center, a, b = got
    assert a != b
    g = path_graph(3)
    assert g.has_edge(center, a) and g.has_edge(center, b)
    assert find_p3_center(complete_graph(2)) is None
    assert find_p3_center(Graph(4, frozenset())) is None


@given(st.integers(2, 7), st.integers(2, 7))
@settings(max_examples=25, deadline=None)
def test_complete_product_text_round_trip(t, s):
    p = direct_product(complete_graph(t), complete_graph(s))
    back = read_graph_text(write_graph_text(p))
    assert back.n == p.n and back.edges == p.edges
    assert back.labels == p.labels


def test_text_round_trip_random():
    rng = random.Random(7)
    for _ in range(30):
        g = random_graph(rng)
        back = read_graph_text(write_graph_text(g))
        assert back.n == g.n and back.edges == g.edges


def test_text_format_ignores_comments():
    g = read_graph_text("c hello\np toi 2 1\nc mid\ne 0 1\n")
    assert g.n == 2 and g.m == 1


@pytest.mark.parametrize("text, message", [
    ("", "missing problem line"),
    ("c only a comment\n", "missing problem line"),
    # blank, whitespace-only and indented comment lines still count
    ("p toi 2 1\n\n \t \ne 0 x\n", "line 4: non-integer endpoints"),
    ("   c indented comment\ne 0 1\n", "line 2: edge before problem line"),
    ("comment-like word\ne 0 1\n", "line 2: edge before problem line"),
    ("e 0 1\n", "line 1: edge before problem line"),
    # the missing problem line wins over the arity of the edge line
    ("e 0 1 2\n", "line 1: edge before problem line"),
    ("p toi 3 1\np toi 3 1\n", "line 2: duplicate problem line"),
    ("p toi 3\n", "line 1: expected 'p toi <n> <m>'"),
    ("p dimacs 3 1\n", "line 1: expected 'p toi <n> <m>'"),
    ("p toi x 1\n", "line 1: non-integer counts"),
    ("p toi x 1\ne 0 1\n", "line 1: non-integer counts"),
    ("p toi 3 1\ne 0\n", "line 2: expected 'e <u> <v>'"),
    ("p toi 3 1\ne 0 1 2\n", "line 2: expected 'e <u> <v>'"),
    ("p toi 3 1\ne 0 1.0\n", "line 2: non-integer endpoints"),
    ("p toi 3 1\ne 0 3\n", "line 2: edge (0, 3) out of range or not ordered"),
    ("p toi 3 1\ne 1 0\n", "line 2: edge (1, 0) out of range or not ordered"),
    ("p toi 3 1\ne 1 1\n", "line 2: edge (1, 1) out of range or not ordered"),
    ("p toi 3 1\ne -1 2\n", "line 2: edge (-1, 2) out of range or not ordered"),
    ("p toi 3 1\n e 0 1 \nx 1\n", "line 3: unknown record 'x'"),
    ("p toi 2 1\ne 0 1\nl 0 0\n", "line 3: expected 'l <v> <g> <h>'"),
    ("p toi 2 1\ne 0 1\nl 0 0 a\n", "line 3: non-integer label"),
    ("p toi 3 1\ne 0 1\ne 0 1\n", "duplicate edge (0, 1)"),
    ("p toi 3 2\ne 0 1\ne 0 1\n", "duplicate edge (0, 1)"),
    ("p toi 3 2\ne 0 1\n", "problem line declares 2 edges, found 1"),
    ("p toi 2 1\ne 0 1\nl 0 0 0\n",
     "label lines must cover every vertex exactly once"),
    ("p toi 2 1\ne 0 1\nl 0 0 0\nl 1 0 2\n",
     "label (0, 2) of vertex 1 breaks row-major encoding"),
    ("p toi -1 0\n", "vertex count must be nonnegative"),
    # labels that solve g * n_h + h == v but are not a product grid
    ("p toi 1 0\nl 0 -2 -2\n",
     "label (-2, -2) of vertex 0 breaks row-major encoding"),
    ("p toi 2 0\nl 0 1 -1\nl 1 1 0\n",
     "label (1, -1) of vertex 0 breaks row-major encoding"),
    ("p toi 2 0\nl 0 0 -1\nl 1 0 -1\n",
     "label (0, -1) of vertex 0 breaks row-major encoding"),
    ("p toi 5 0\nl 0 0 0\nl 1 0 1\nl 2 1 0\nl 3 1 1\nl 4 2 0\n",
     "labels are not a product grid: 5 vertices in rows of 2"),
    ("p toi 2 1\ne 0 1\nl 0 0 0\nl 0 0 0\nl 1 0 1\n",
     "line 4: duplicate label line for vertex 0"),
])
def test_text_format_rejects_malformed(text, message):
    with pytest.raises(GraphFormatError) as err:
        read_graph_text(text)
    assert str(err.value) == message


def test_reader_shares_one_int_per_vertex_id():
    # n > 256 puts ids past CPython's small-int cache, so a fresh int per
    # endpoint would show as more objects than values
    g = read_graph_text(write_graph_text(
        direct_product(complete_graph(20), complete_graph(15))))
    assert g.n == 300
    assert len({id(x) for e in g.edges for x in e}) == len({x for e in g.edges for x in e})


@pytest.mark.parametrize("edges, message", [
    ({(1, 1)}, "self-loop at vertex 1"),
    ({(2, 1)}, "edge (2, 1) is not canonical or out of range"),
    ({(0, 5)}, "edge (0, 5) is not canonical or out of range"),
    ({(-1, 2)}, "edge (-1, 2) is not canonical or out of range"),
])
def test_graph_validation_messages(edges, message):
    with pytest.raises(ValueError) as err:
        Graph(3, frozenset(edges))
    assert str(err.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: Graph(3, frozenset(), labels=((0, 0), (0, 1))),
     "labels must cover every vertex"),
    (lambda: complete_graph(0), "complete graph needs at least one vertex"),
    (lambda: cycle_graph(2), "cycle needs at least three vertices"),
    (lambda: path_graph(0), "path needs at least one vertex"),
], ids=["labels", "complete-0", "cycle-2", "path-0"])
def test_constructor_error_messages(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_graph_text_bytes_are_pinned():
    text = write_graph_text(direct_product(complete_graph(12), complete_graph(5)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3e9ba6d068751df99f373b3ee3886dc32790a3c745cfaeaf5f31352975899b67")


_PRODUCTS = [cartesian_product, direct_product, lexicographic_product,
             strong_product]


@st.composite
def _graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return Graph(n, frozenset(edges))


@given(st.one_of(
    _graphs(max_n=12),
    st.builds(lambda op, g, h: op(g, h),
              st.sampled_from(_PRODUCTS), _graphs(), _graphs())))
@settings(max_examples=200, deadline=None)
def test_graph_text_round_trip(g):
    text = write_graph_text(g)
    back = read_graph_text(text)
    assert (back.n, back.edges, back.labels) == (g.n, g.edges, g.labels)
    records = [line.split() for line in text.splitlines()[1:]]
    edge_lines = [(int(u), int(v)) for tag, u, v, *_ in records if tag == "e"]
    label_lines = [int(v) for tag, v, *_ in records if tag == "l"]
    assert edge_lines == sorted(g.edges)
    assert label_lines == list(range(g.n if g.labels else 0))
    assert [rec[0] for rec in records] == (
        ["e"] * len(edge_lines) + ["l"] * len(label_lines))
