"""Graph model, products, bipartiteness, and the text format."""

import hashlib
import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toi import graphs
from toi.graphs import (
    Graph,
    GraphFormatError,
    cartesian_product,
    complete_graph,
    cycle_graph,
    direct_product,
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
            assert Graph(p.n, p.edges, p.labels) == p


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
        same_g = a == c and d in h.adjacency[b]
        same_h = b == d and c in g.adjacency[a]
        assert same_g != same_h


def test_direct_product_adjacency_rule():
    g, h = cycle_graph(5), complete_graph(3)
    p = direct_product(g, h)
    for u, v in p.edges:
        (a, b), (c, d) = p.labels[u], p.labels[v]
        assert c in g.adjacency[a] and d in h.adjacency[b]


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
        assert cyc[(i + 1) % len(cyc)] in g.adjacency[cyc[i]]


def test_odd_cycle_witness_deterministic():
    g = complete_graph(5)
    assert is_bipartite(g)[1] == is_bipartite(g)[1]


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


_MALFORMED = [
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
    # only the integers the writer writes: int() would also take a sign,
    # digit-group underscores and non-ASCII digits
    ("p toi 3 1\ne 0 +2\n", "line 2: non-integer endpoints"),
    ("p toi 12 1\ne 0 1_0\n", "line 2: non-integer endpoints"),
    ("p toi 3 1\ne 0 \u0662\n", "line 2: non-integer endpoints"),
    ("p toi +3 0\n", "line 1: non-integer counts"),
    ("p toi 1_0 0\n", "line 1: non-integer counts"),
    ("p toi \u0663 0\n", "line 1: non-integer counts"),
    ("p toi 2 1\ne 0 1\nl +0 0 0\n", "line 3: non-integer label"),
    ("p toi 2 1\ne 0 1\nl 0 0_0 0\n", "line 3: non-integer label"),
    ("p toi 2 1\ne 0 1\nl 0 0 \u0660\n", "line 3: non-integer label"),
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
]


@pytest.mark.parametrize("text, message", _MALFORMED)
def test_text_format_rejects_malformed(text, message):
    with pytest.raises(GraphFormatError) as err:
        read_graph_text(text)
    assert str(err.value) == message


def _read_outcome(text):
    """The graph's fields, or the error text, that ``read_graph_text`` gives."""
    try:
        g = read_graph_text(text)
    except GraphFormatError as err:
        return str(err)
    return g.n, g.edges, g.labels


def _line_loop_outcome(text):
    """``_read_outcome`` with the bulk edge reader turned off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_canonical_edges", lambda text, ids: None)
        return _read_outcome(text)


def test_line_loop_gives_the_malformed_messages():
    for text, message in _MALFORMED:
        assert _line_loop_outcome(text) == message, text


def _k20_k15_text():
    # K_20 x K_15: 300 labelled vertices, past CPython's small-int cache,
    # and a text longer than one bulk-read chunk
    return write_graph_text(direct_product(complete_graph(20), complete_graph(15)))


def test_reader_shares_one_int_per_vertex_id():
    # n > 256 puts ids past CPython's small-int cache, so a fresh int per
    # endpoint would show as more objects than values; the canonical text
    # goes through the bulk reader, its CRLF copy through the line loop
    text = _k20_k15_text()
    assert graphs._canonical_edges(text, graphs._TokenInts()) is not None
    crlf = text.replace("\n", "\r\n")
    assert graphs._canonical_edges(crlf, graphs._TokenInts()) is None
    for g in (read_graph_text(text), read_graph_text(crlf)):
        assert g.n == 300
        assert len({id(x) for e in g.edges for x in e}) == len({x for e in g.edges for x in e})


def test_bulk_reader_spans_chunks():
    source = direct_product(complete_graph(20), complete_graph(15))
    text = _k20_k15_text()
    assert len(text) > graphs._CHUNK
    assert read_graph_text(text) == source
    # the last edge line lies in the last chunk: the same line-numbered
    # message as the line loop gives
    lines = text.split("\n")
    last = max(i for i, line in enumerate(lines) if line.startswith("e "))
    _, u, v = lines[last].split()
    lines[last] = f"e {v} {u}"
    bad = "\n".join(lines)
    message = f"line {last + 1}: edge ({v}, {u}) out of range or not ordered"
    assert _read_outcome(bad) == _line_loop_outcome(bad) == message


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


def test_product_text_bytes_are_pinned():
    # every product of every ordered pair of factors, one digest per product
    factors = [complete_graph(3), complete_graph(5), cycle_graph(5), path_graph(4)]
    for op, digest in {
        cartesian_product: "331685742f302ea7550efd5ccd42bfef42caa7075109bbd93e3d036f781cafde",
        direct_product: "385815fe2494b5233e82021c19fc8b55b28a0a8198ca96f621b3f166f46d2477",
        lexicographic_product: "de12adea21ae993c81cb5cf9533c7111e848c57352d851537524011f6b61865d",
        strong_product: "0e90c885cd0040617920ad3906b125cbd6daba87407ab5e816414f3611032175",
    }.items():
        h = hashlib.sha256()
        for g, f in itertools.product(factors, repeat=2):
            h.update(write_graph_text(op(g, f)).encode())
        assert h.hexdigest() == digest, op.__name__


def test_bench_scale_graph_text_bytes_are_pinned():
    # the K_48 x K_18 host of the kts-roundtrip benchmark
    text = write_graph_text(direct_product(complete_graph(48), complete_graph(18)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a44871698464d573edd157229fcaf100ed8c0bc31381cbc2c74e3f55456477ad")


def test_product_memory_shares_vertex_ids():
    # K_48 x K_18 has 345,168 edges on 864 vertices: with one int object per
    # vertex id an edge costs its tuple and its frozenset slot, about 105
    # bytes retained; a fresh int per endpoint adds about 45 more
    k48, k18 = complete_graph(48), complete_graph(18)
    tracemalloc.start()
    try:
        g = direct_product(k48, k18)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    m = g.m
    assert retained < 125 * m


_PRODUCTS = [cartesian_product, direct_product, lexicographic_product,
             strong_product]


def test_graphs_compare_by_structure():
    # a graph read back from its text, or rebuilt from its fields, is equal
    # to the family or product graph it was written from
    k3, p3 = complete_graph(3), path_graph(3)
    for g in [k3, cycle_graph(5), p3, *(op(k3, p3) for op in _PRODUCTS)]:
        assert read_graph_text(write_graph_text(g)) == g
        assert Graph(g.n, g.edges, g.labels) == g


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


def _edit_line(edit):
    """A text perturbation that rewrites the line picked by ``i``."""
    def perturb(text, i):
        lines = text.split("\n")
        i %= len(lines)
        lines[i] = edit(lines[i])
        return "\n".join(lines)
    return perturb


def _merge_next(text, i):
    # "e 0 1\ne 2 3\n" -> "e 0 1 e\n2 3\n": still 3 tokens a line on average
    lines = text.split("\n")
    i %= len(lines)
    if i + 1 < len(lines) and lines[i + 1].startswith("e "):
        lines[i] += " e"
        lines[i + 1] = lines[i + 1][2:]
    return "\n".join(lines)


def _swap(line):
    tag, *rest = line.split(" ")
    return " ".join([tag, *reversed(rest)])


_PERTURBATIONS = [
    lambda text, i: text.replace("\n", "\r\n"),
    _edit_line(lambda line: line.replace(" ", "\t", 1)),
    _edit_line(lambda line: line.replace(" ", "  ", 1)),
    _edit_line(lambda line: line.replace(" ", "  ", 1).rsplit(" ", 1)[0]),
    _edit_line(lambda line: line + " "),
    _edit_line(lambda line: " " + line),
    _edit_line(lambda line: "c note\n" + line),
    _edit_line(lambda line: "  c note\n" + line),
    _edit_line(lambda line: "c 0 1\n" + line),
    _edit_line(lambda line: "\n" + line),
    _edit_line(lambda line: line.replace(" ", " 0", 1)),
    _edit_line(lambda line: line.replace(" ", " -", 1)),
    _edit_line(lambda line: line.replace(" 0", " -0")),
    *(_edit_line(lambda line, c=c: line[:-1] + c + line[-1:])
      for c in ("\x1c", "\x1f", "\x85", "\u2028", "\x0b", "\r")),
    *(_edit_line(lambda line, c=c: line[::-1].replace(" ", c, 1)[::-1])
      for c in ("\x1c", "\x1f", "\x85", "\u2028", "\x0c", "\r")),
    *(_edit_line(lambda line, c=c: line[::-1].replace(" ", " " + c, 1)[::-1])
      for c in ("\x1c", "\x1f", "\x85", "\u2028", "\x0c", "\r")),
    _merge_next,
    _edit_line(lambda line: line[:-1] + "\u0663" if line[-1:].isdigit() else line),
    _edit_line(lambda line: line + "9"),
    _edit_line(_swap),
    _edit_line(lambda line: line + "\n" + line),
    _edit_line(lambda line: line.replace("e ", "e 0 ", 1)),
    _edit_line(lambda line: line.replace("e ", "l ", 1)),
    lambda text, i: text.rstrip("\n"),
]


def _assert_paths_agree(text, chunk):
    """The bulk reader, at this chunk size, gives the line loop's graph or
    error text, and reads in bulk only the writer's layout, integer
    spelling aside."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_CHUNK", chunk)
        outcome = _read_outcome(text)
        bulk = graphs._canonical_edges(text, graphs._TokenInts())
    assert outcome == _line_loop_outcome(text), repr(text)
    if bulk is not None:
        *_, start, first = bulk
        block = text[:start].split("\n")
        assert first == len(block)
        assert all(re.fullmatch(r"e -?[0-9]+ -?[0-9]+", line) for line in block[1:-1])
    return outcome, bulk


def test_bulk_reader_matches_line_loop_on_near_misses():
    # every perturbation at every line of a small labelled product, and of
    # an unlabelled graph's text with and without its last newline
    k4 = write_graph_text(complete_graph(4))
    for text in (write_graph_text(direct_product(complete_graph(3), path_graph(3))),
                 k4, k4.rstrip("\n")):
        for perturb in _PERTURBATIONS:
            for i in range(text.count("\n") + 1):
                for chunk in (graphs._CHUNK, 6, 16):
                    _assert_paths_agree(perturb(text, i), chunk)


@given(st.one_of(
           _graphs(max_n=12),
           st.builds(lambda op, g, h: op(g, h),
                     st.sampled_from(_PRODUCTS), _graphs(), _graphs())),
       st.lists(st.tuples(st.sampled_from(_PERTURBATIONS), st.integers(0, 10**6)),
                max_size=2),
       st.sampled_from([graphs._CHUNK, 6, 16, 40]))
@settings(max_examples=300, deadline=None)
def test_bulk_reader_matches_line_loop(g, perturbations, chunk):
    text = write_graph_text(g)
    for perturb, i in perturbations:
        text = perturb(text, i)
    outcome, bulk = _assert_paths_agree(text, chunk)
    if not perturbations:
        assert outcome == (g.n, g.edges, g.labels)
        assert bulk is not None or chunk < len("e 10 11\n")
