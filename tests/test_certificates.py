"""Certificate model, verification flags, serialization, mutation soundness."""

import copy
import hashlib
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toi.certificates
from toi.certificates import (
    Certificate,
    CertificateSchemaError,
    MalformedCertificateError,
    Route,
    VerificationReport,
    concatenate_routes,
    identity_certificate,
    parse_certificate,
    serialize_certificate,
    verify,
)
from toi.constructions import direct_kts
from toi.graphs import Graph, complete_graph, cycle_graph, path_graph


def test_route_basics():
    r = Route((0, 1, 2, 3))
    assert r.edge_count == 3
    assert r.edge_count % 2 == 1
    assert r.reversed().vertices == (3, 2, 1, 0)
    assert list(zip(r.vertices, r.vertices[1:])) == [(0, 1), (1, 2), (2, 3)]
    with pytest.raises(ValueError):
        Route((0,))
    with pytest.raises(ValueError):
        Route((0, 0, 1))


def test_route_allows_repeated_vertices_not_edges():
    # a trail may revisit a vertex
    r = Route((0, 1, 2, 0, 3))
    assert r.edge_count == 4


def test_concatenate_routes():
    r = concatenate_routes([Route((0, 1, 2)), Route((2, 3))])
    assert r.vertices == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        concatenate_routes([Route((0, 1)), Route((2, 3))])
    with pytest.raises(ValueError):
        concatenate_routes([])


def test_identity_certificate_verifies():
    k4 = complete_graph(4)
    cert = identity_certificate(k4)
    rep = verify(k4, cert)
    assert rep.all_ok
    assert rep.claim_level == "totally-odd-strong"
    assert rep.first_violation == {}


def test_identity_requires_complete_host():
    with pytest.raises(ValueError):
        identity_certificate(cycle_graph(4))


def test_verify_out_of_range_vertex_is_malformed():
    cert = Certificate(2, (0, 9), {(0, 1): Route((0, 9))})
    with pytest.raises(MalformedCertificateError):
        verify(complete_graph(3), cert)


def test_missing_connection_fails_complete_only():
    k4 = complete_graph(4)
    cert = identity_certificate(k4)
    conns = dict(cert.connections)
    del conns[(1, 2)]
    rep = verify(k4, Certificate(4, cert.terminals, conns))
    assert [name for name, ok in rep.flags().items() if not ok] == ["complete"]
    assert rep.claim_level == "none"


def _mutate(cert, pair, route):
    conns = dict(cert.connections)
    conns[pair] = route
    return Certificate(cert.clique_size, cert.terminals, conns)


class TestSingleFaultMutations:
    """Each mutation must flip exactly its intended flag."""

    def setup_method(self):
        self.host = complete_graph(4)
        self.cert = identity_certificate(self.host)
        self.baseline = verify(self.host, self.cert).flags()
        assert all(self.baseline.values())

    def _flipped(self, cert):
        flags = verify(self.host, cert).flags()
        return sorted(name for name in flags
                      if flags[name] != self.baseline[name])

    def test_even_route_flips_all_odd(self):
        # 0-2-1 has two edges; on the tight K4 host the detour also clashes
        # with the (0,2) and (1,2) connections and passes through terminal 2
        bad = _mutate(self.cert, (0, 1), Route((0, 2, 1)))
        assert self._flipped(bad) == ["all_odd", "edge_disjoint", "strong"]

    def test_even_route_without_terminal_interior(self):
        # a pure parity fault needs a non-terminal interior; on a K5 host
        # with terminals 0..3 the detour through 4 flips all_odd alone
        host = complete_graph(5)
        cert = Certificate(4, (0, 1, 2, 3),
                           dict(identity_certificate(complete_graph(4))
                                .connections))
        base = verify(host, cert).flags()
        assert all(base.values())
        bad = _mutate(cert, (0, 1), Route((0, 4, 1)))
        flags = verify(host, bad).flags()
        assert sorted(n for n in flags if flags[n] != base[n]) == ["all_odd"]

    def test_duplicate_edge_flips_edge_disjoint(self):
        host = complete_graph(5)
        cert = Certificate(4, (0, 1, 2, 3),
                           dict(identity_certificate(complete_graph(4))
                                .connections))
        # reuse edge (0, 4) in two different routes
        conns = dict(cert.connections)
        conns[(0, 1)] = Route((0, 4, 0, 1))
        bad = Certificate(4, (0, 1, 2, 3), conns)
        flags = verify(host, bad).flags()
        base = verify(host, cert).flags()
        # the route revisits vertex 0, so simplicity drops with disjointness
        assert flags["edge_disjoint"] is False

    def test_shared_edge_between_routes_flips_edge_disjoint_only(self):
        host = complete_graph(5)
        cert = Certificate(4, (0, 1, 2, 3),
                           dict(identity_certificate(complete_graph(4))
                                .connections))
        base = verify(host, cert).flags()
        conns = dict(cert.connections)
        conns[(0, 1)] = Route((0, 4, 1))
        conns[(0, 2)] = Route((0, 4, 2))
        # keep parity: both routes stay odd? no, length 2 is even; use
        # length 3 detours sharing edge (0, 4)
        conns[(0, 1)] = Route((0, 4, 0, 1))
        conns[(0, 2)] = Route((0, 4, 0, 2))
        bad = Certificate(4, (0, 1, 2, 3), conns)
        flags = verify(host, bad).flags()
        assert flags["edge_disjoint"] is False
        assert flags["all_odd"] is True

    def test_phantom_edge_flips_edges_exist(self):
        host = cycle_graph(5)
        # route uses the chord (0, 2), absent from C5
        cert = Certificate(2, (0, 3),
                           {(0, 1): Route((0, 2, 3))})
        flags = verify(host, cert).flags()
        assert flags["edges_exist"] is False
        assert flags["endpoints_ok"] is True
        assert flags["terminals_distinct"] is True
        assert flags["complete"] is True

    def test_terminal_interior_flips_strong_only(self):
        host = complete_graph(7)
        cert = Certificate(4, (0, 1, 2, 3),
                           dict(identity_certificate(complete_graph(4))
                                .connections))
        base = verify(host, cert).flags()
        # odd simple route through terminal 2 on otherwise fresh edges
        bad = _mutate(cert, (0, 1), Route((0, 4, 2, 5, 6, 1)))
        flags = verify(host, bad).flags()
        assert sorted(n for n in flags if flags[n] != base[n]) == ["strong"]

    def test_wrong_endpoint_flips_endpoints_ok(self):
        bad = _mutate(self.cert, (0, 1), Route((0, 2)))
        flags = verify(self.host, bad).flags()
        assert flags["endpoints_ok"] is False

    def test_duplicate_terminals_flip_terminals_distinct(self):
        cert = Certificate(4, (0, 1, 2, 2), dict(self.cert.connections))
        flags = verify(self.host, cert).flags()
        assert flags["terminals_distinct"] is False


@st.composite
def _single_faults(draw):
    """A valid certificate of direct edges between r terminals of
    K_{r+4} minus one edge {z, w} between spare vertices, a fault of one
    kind, and the certificate with that fault.  Spare paths use only the
    edges among x, y, z, so only the edges_exist fault meets {z, w}.
    terminals_distinct has no single fault: two equal terminals need a
    closed route (not simple) or no route (not complete)."""
    r = draw(st.integers(2, 5))
    perm = draw(st.permutations(range(r + 4)))
    terminals, (x, y, z, w) = tuple(perm[:r]), perm[r:]
    host = Graph(r + 4, complete_graph(r + 4).edges - {(min(z, w), max(z, w))})
    pairs = [(a, b) for a in range(r) for b in range(a + 1, r)]
    conns = {(a, b): Route((terminals[a], terminals[b])) for a, b in pairs}
    clean = Certificate(r, terminals, dict(conns))
    kinds = ["complete", "endpoints_ok", "edges_exist", "all_odd",
             "routes_simple"]
    if r >= 3:
        kinds += ["edge_disjoint", "strong"]
    kind = draw(st.sampled_from(kinds))
    a, b = pair = draw(st.sampled_from(pairs))
    ta, tb = terminals[a], terminals[b]
    others = [v for v in terminals if v not in (ta, tb)]
    if kind == "complete":
        del conns[pair]
    elif kind == "endpoints_ok":
        conns[pair] = Route((ta, x, y, draw(st.sampled_from([z, *others]))))
    elif kind == "edges_exist":
        conns[pair] = Route((ta, z, w, tb))
    elif kind == "all_odd":
        conns[pair] = Route((ta, x, tb))
    elif kind == "routes_simple":
        conns[pair] = Route((ta, x, y, z, x, tb))
    elif kind == "edge_disjoint":
        c, d = other = draw(st.sampled_from([p for p in pairs if p != pair]))
        conns[pair] = Route((ta, x, y, tb))
        conns[other] = Route((terminals[c], x, y, terminals[d]))
    else:  # strong
        conns[pair] = Route((ta, x, draw(st.sampled_from(others)), y, z, tb))
    return host, clean, Certificate(r, terminals, conns), kind


@given(_single_faults())
@settings(max_examples=300, deadline=None)
def test_single_fault_flips_exactly_one_flag(case):
    host, clean, faulty, kind = case
    assert verify(host, clean).all_ok
    flags = verify(host, faulty).flags()
    assert [name for name, ok in flags.items() if not ok] == [kind]


def test_claim_levels():
    host = complete_graph(5)
    cert = Certificate(4, (0, 1, 2, 3),
                       dict(identity_certificate(complete_graph(4))
                            .connections))
    assert verify(host, cert).claim_level == "totally-odd-strong"
    host = complete_graph(7)
    weak = _mutate(cert, (0, 1), Route((0, 4, 2, 5, 6, 1)))
    rep = verify(host, weak)
    assert rep.claim_level == "totally-odd-immersion"
    assert rep.satisfies("immersion")
    assert rep.satisfies("totally-odd")
    assert not rep.satisfies("totally-odd-strong")
    broken = _mutate(cert, (0, 1), Route((0, 2, 1)))
    assert verify(host, broken).claim_level == "none"


def test_satisfies_rejects_unknown_level():
    rep = verify(complete_graph(3), identity_certificate(complete_graph(3)))
    with pytest.raises(ValueError):
        rep.satisfies("weak")


def test_first_violation_pins_every_flag():
    # one certificate failing all eight flags; the text and the key order
    # are what `toi verify` and `toi construct` print
    host = Graph(6, complete_graph(6).edges - {(4, 5)})
    cert = Certificate(4, (0, 1, 1, 3), {
        (0, 1): Route((0, 4, 5, 1)),
        (0, 2): Route((0, 2, 1)),
        (1, 3): Route((1, 4, 0, 4, 3)),
        (2, 3): Route((2, 3)),
    })
    rep = verify(host, cert)
    assert not any(rep.flags().values())
    assert list(rep.first_violation.items()) == [
        ("terminals_distinct", "terminal 1 repeats"),
        ("complete", "missing pair (0, 3)"),
        ("endpoints_ok", "pair (2, 3): route ends (2, 3), expected (1, 3)"),
        ("edges_exist", "pair (0, 1): (4, 5) is not a host edge"),
        ("all_odd", "pair (0, 2): route has even length 2"),
        ("edge_disjoint", "edge (0, 4) reused by pair (1, 3)"),
        ("routes_simple", "pair (1, 3): route revisits a vertex"),
        ("strong", "pair (1, 3): terminal 0 interior to route"),
    ]


_K4_ROUTES = dict(identity_certificate(complete_graph(4)).connections)


@pytest.mark.parametrize("changes, failed, level, met", [
    ({}, [], "totally-odd-strong",
     ["immersion", "totally-odd", "totally-odd-strong"]),
    ({(0, 1): Route((0, 4, 5, 6, 4, 1))}, ["routes_simple"],
     "totally-odd-immersion", ["immersion", "totally-odd"]),
    ({(0, 1): Route((0, 4, 2, 5, 6, 1))}, ["strong"],
     "totally-odd-immersion", ["immersion", "totally-odd"]),
    ({(0, 1): Route((0, 4, 1))}, ["all_odd"], "none", ["immersion"]),
    ({(0, 1): Route((0, 4, 5, 1)), (0, 2): Route((0, 4, 5, 2))},
     ["edge_disjoint"], "none", []),
    ({(1, 2): None}, ["complete"], "none", []),
], ids=["all", "trail", "weak", "even", "shared", "missing"])
def test_claim_level_boundaries(changes, failed, level, met):
    conns = dict(_K4_ROUTES)
    for pair, route in changes.items():
        if route is None:
            del conns[pair]
        else:
            conns[pair] = route
    rep = verify(complete_graph(7), Certificate(4, (0, 1, 2, 3), conns))
    assert [name for name, ok in rep.flags().items() if not ok] == failed
    assert rep.claim_level == level
    assert [lv for lv in ("immersion", "totally-odd", "totally-odd-strong")
            if rep.satisfies(lv)] == met
    assert rep.all_ok == (level == "totally-odd-strong")
    with pytest.raises(ValueError):
        rep.satisfies("bogus")


@st.composite
def _small_certificates(draw):
    """A random host on at most 6 vertices and a possibly faulty
    certificate: terminals may repeat, pairs may be missing, and routes
    may miss their terminals, leave the host or reuse edges."""
    n = draw(st.integers(2, 6))
    edges = draw(st.sets(st.sampled_from(
        [(u, v) for u in range(n) for v in range(u + 1, n)])))
    r = draw(st.integers(1, 4))
    terminals = tuple(draw(st.lists(st.integers(0, n - 1),
                                    min_size=r, max_size=r)))
    pairs = [(a, b) for a in range(r) for b in range(a + 1, r)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)
                  if pairs else st.just([]))
    vertex = st.integers(0, n - 1)
    connections = {}
    for a, b in chosen:
        start = terminals[a] if draw(st.booleans()) else draw(vertex)
        end = terminals[b] if draw(st.booleans()) else draw(vertex)
        walk = [start, *draw(st.lists(vertex, max_size=4)), end]
        verts = [v for i, v in enumerate(walk) if i == 0 or v != walk[i - 1]]
        if len(verts) >= 2:
            connections[(a, b)] = Route(tuple(verts))
    return Graph(n, frozenset(edges)), Certificate(r, terminals, connections)


@given(_small_certificates())
@settings(max_examples=300, deadline=None)
def test_first_violation_names_exactly_the_false_flags(case):
    host, cert = case
    rep = verify(host, cert)
    assert list(rep.first_violation) == [
        name for name, ok in rep.flags().items() if not ok]
    assert rep.all_ok == rep.satisfies("totally-odd-strong")


def test_serialization_round_trip():
    cert = identity_certificate(complete_graph(5))
    text = serialize_certificate(cert)
    assert parse_certificate(text) == cert


def test_serialization_is_canonical():
    cert = identity_certificate(complete_graph(4))
    a = serialize_certificate(cert)
    shuffled = Certificate(4, cert.terminals,
                           dict(reversed(list(cert.connections.items()))))
    assert serialize_certificate(shuffled) == a


@given(st.integers(2, 6))
@settings(max_examples=10, deadline=None)
def test_round_trip_identity_any_size(t):
    cert = identity_certificate(complete_graph(t))
    assert parse_certificate(serialize_certificate(cert)) == cert


# 0 where the interpreter sets no such limit
_INT_DIGITS_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("text", [
    "",
    "{",
    '{"clique_size": 2}',
    '{"clique_size": 2, "terminals": [0, 1], "connections": '
    '[{"pair": [0, 1], "vertices": [0]}]}',
    '{"clique_size": 2, "terminals": [0, 1], "connections": '
    '[{"pair": [1, 0], "vertices": [1, 0]}]}',
    '{"clique_size": 2, "terminals": [0, 1], "connections": '
    '[{"pair": [0, 1], "vertices": [0, 1]}, '
    '{"pair": [0, 1], "vertices": [0, 1]}]}',
    '{"clique_size": 2, "terminals": [0, 1], "connections": '
    '[{"pair": [0, 7], "vertices": [0, 1]}]}',
    # JSON booleans load as bool, a subclass of int
    '{"clique_size": true, "terminals": [0], "connections": []}',
    '{"clique_size": 2, "terminals": [0, true], "connections": '
    '[{"pair": [0, 1], "vertices": [0, 1]}]}',
    '{"clique_size": 2, "terminals": [0, 1], "connections": '
    '[{"pair": [false, true], "vertices": [0, 1]}]}',
    '{"clique_size": 2, "terminals": [0, 1], "connections": '
    '[{"pair": [0, 1], "vertices": [false, 1]}]}',
    # json.loads raises RecursionError and a plain ValueError for these
    pytest.param("[" * 100_000, id="deep"),
    pytest.param('{"clique_size": ' + "1" * (_INT_DIGITS_LIMIT + 1) + "}",
                 id="long-int", marks=pytest.mark.skipif(
                     not _INT_DIGITS_LIMIT,
                     reason="no limit on integer string conversion")),
])
def test_parse_rejects_malformed(text):
    with pytest.raises(CertificateSchemaError):
        parse_certificate(text)


def _pick_vertex(conns, rng):
    verts = rng.choice(conns)["vertices"]
    return verts, rng.randrange(len(verts))


def _meet_next(conns, rng):
    # valid: route i ends where route i + 1 begins
    i = rng.randrange(len(conns) - 1)
    conns[i + 1]["vertices"][0] = conns[i]["vertices"][-1]


def _set_pair_item(conns, rng, value):
    rng.choice(conns)["pair"][rng.randrange(2)] = value


def _set_vertex(conns, rng, value):
    verts, j = _pick_vertex(conns, rng)
    verts[j] = value


def _repeat_vertex(conns, rng):
    verts, j = _pick_vertex(conns, rng)
    verts.insert(j, verts[j])


# single mutations of a canonical connections list, some of them valid
_CONNECTION_MUTATIONS = {
    "drop": lambda c, rng: c.pop(rng.randrange(len(c))),
    "duplicate": lambda c, rng: c.insert(rng.randrange(len(c) + 1),
                                         copy.deepcopy(rng.choice(c))),
    "swap": lambda c, rng: c.reverse() if rng.random() < 0.2 else
    c.insert(rng.randrange(len(c)), c.pop(rng.randrange(len(c)))),
    "truncate": lambda c, rng: c.__delitem__(slice(rng.randrange(len(c)), None)),
    "non-dict": lambda c, rng: c.__setitem__(
        rng.randrange(len(c)), rng.choice([None, 0, "x", [], [0, 1]])),
    "no-pair": lambda c, rng: rng.choice(c).pop("pair"),
    "no-vertices": lambda c, rng: rng.choice(c).pop("vertices"),
    "extra-key": lambda c, rng: rng.choice(c).update(note=1),
    "pair-retype": lambda c, rng: _set_pair_item(
        c, rng, rng.choice([True, False, 1.0, "1", None])),
    "pair-shift": lambda c, rng: _set_pair_item(
        c, rng, rng.choice([-1, 0, 1, 7, 8, 9])),
    "pair-reverse": lambda c, rng: rng.choice(c)["pair"].reverse(),
    "pair-length": lambda c, rng: rng.choice(c).update(
        pair=rng.choice([[], [0], [0, 1, 2]])),
    "pair-not-list": lambda c, rng: rng.choice(c).update(
        pair=rng.choice([None, 1, "0,1", {"a": 0}])),
    "vertex-retype": lambda c, rng: _set_vertex(
        c, rng, rng.choice([True, False, 2.0, "3", None, [1]])),
    "vertex-negate": lambda c, rng: _set_vertex(c, rng, -1 - rng.randrange(3)),
    "vertex-repeat": _repeat_vertex,
    "vertices-truncate": lambda c, rng: rng.choice(c).update(
        vertices=rng.choice([[], [0]])),
    "vertices-not-list": lambda c, rng: rng.choice(c).update(
        vertices=rng.choice([None, 5, "0 1", {}])),
    "meet-next": _meet_next,
}


def _parse_outcome(text):
    try:
        return "ok", parse_certificate(text)
    except CertificateSchemaError as exc:
        return type(exc), str(exc)


def test_bulk_parse_matches_per_entry_parse(monkeypatch):
    # the bulk check must accept the writer's layout and, on every mutated
    # document, agree with the per-entry loop: the same certificate or the
    # same error text
    text = serialize_certificate(Certificate(8, tuple(range(8)), {
        (a, b): Route((a, 10 + a, 20 + b, b) if (a + b) % 2 else (a, b))
        for a in range(8) for b in range(a + 1, 8)}))
    assert toi.certificates._bulk_connections(json.loads(text)["connections"], 8)
    rng = random.Random(9)
    names = sorted(_CONNECTION_MUTATIONS)
    docs = []
    for _ in range(1000):
        doc = json.loads(text)
        _CONNECTION_MUTATIONS[rng.choice(names)](doc["connections"], rng)
        docs.append(json.dumps(doc))
    bulk = [_parse_outcome(d) for d in docs]
    monkeypatch.setattr(toi.certificates, "_bulk_connections", lambda conns, r: None)
    assert bulk == [_parse_outcome(d) for d in docs]
    assert {kind for kind, _ in bulk} == {"ok", CertificateSchemaError}


def test_parse_memory_follows_the_input_not_clique_size():
    # a short document naming a large clique: the r(r-1)/2 = 1,999,000
    # expected pairs must not be built before the list is found too short
    text = json.dumps({"clique_size": 2000, "terminals": [0] * 2000,
                       "connections": []})
    tracemalloc.start()
    try:
        with pytest.raises(CertificateSchemaError,
                           match=r"^connections: missing pair \(0, 1\)$"):
            parse_certificate(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_parse_reports_location():
    text = ('{"clique_size": 2, "terminals": [0, 1], "connections": '
            '[{"pair": [0, 1], "vertices": [0]}]}')
    with pytest.raises(CertificateSchemaError) as err:
        parse_certificate(text)
    assert "connections[0]" in str(err.value)


def test_certificate_permits_missing_pairs():
    # stays representable; verification reports the gap
    cert = Certificate(3, (0, 1, 2), {(0, 1): Route((0, 1))})
    rep = verify(complete_graph(3), cert)
    assert not rep.flags()["complete"]


def test_certificate_rejects_out_of_range_pair_keys():
    with pytest.raises(ValueError):
        Certificate(2, (0, 1), {(0, 2): Route((0, 1))})


def test_serialized_bytes_are_pinned():
    # one instance per branch of direct_kts's col-adjacent-wrap-high case:
    # s = 5, s = 6 and s >= 7
    for (t, s), digest in {
        (6, 5): "5ecc1fcc24d242dc9b11a1a13516625a660463c0ce9313f284e1c4b66392b0dd",
        (6, 6): "3115c1c7202c38c7cced9111e1c6921604dc80cf6742936faccfb378ba1e266e",
        (7, 9): "8f5ff1920ee8eb3ec6c70c86906125a751fc7fb044e6dd0aa1ea8d0d76f96ab4",
    }.items():
        text = serialize_certificate(direct_kts(t, s))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (t, s)


@pytest.mark.parametrize("t,s", [(6, 5), (7, 9)])
def test_parse_keeps_the_pair_order(t, s):
    cert = direct_kts(t, s)
    back = parse_certificate(serialize_certificate(cert))
    assert list(back.connections) == list(cert.connections)
    assert back == cert


def test_trusted_certificate_still_checks_size_and_terminals():
    with pytest.raises(ValueError, match="clique size must be positive"):
        Certificate._trusted(0, (), {})
    with pytest.raises(ValueError, match="terminal count must equal the clique size"):
        Certificate._trusted(2, (0,), {(0, 1): Route((0, 1))})
    cert = Certificate._trusted(2, (0, 1), {(0, 1): Route((0, 1))})
    assert cert == Certificate(2, (0, 1), {(0, 1): Route((0, 1))})


def test_bench_scale_certificate_bytes_are_pinned():
    # the K_432 certificate of the kts-roundtrip benchmark
    text = serialize_certificate(direct_kts(24, 18))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1d3a7c6d4487a83e60177b0640c86a5a8a5c397eb82bfc2e56e942617e66a4f6")


def _reference_line(pair, route):
    """The connection line format, spelled with json.dumps."""
    return json.dumps({"pair": list(pair), "vertices": list(route.vertices)},
                      separators=(", ", ": "))


@st.composite
def _complete_certificates(draw):
    """A complete certificate with random terminals and routes; the
    routes need not lie in any host, since serialization ignores it."""
    r = draw(st.integers(1, 6))
    terminals = tuple(draw(st.lists(st.integers(0, 10 ** 6),
                                    min_size=r, max_size=r)))
    vertex = st.integers(0, 10 ** 6)
    connections = {}
    for a in range(r):
        for b in range(a + 1, r):
            walk = draw(st.lists(vertex, min_size=2, max_size=6))
            verts = [v for i, v in enumerate(walk) if i == 0 or v != walk[i - 1]]
            if len(verts) < 2:
                verts = [verts[0], verts[0] + 1]
            connections[(a, b)] = Route(tuple(verts))
    order = draw(st.permutations(list(connections)))
    return Certificate(r, terminals, {p: connections[p] for p in order})


@given(_complete_certificates())
@settings(max_examples=200, deadline=None)
def test_certificate_text_round_trip(cert):
    text = serialize_certificate(cert)
    assert parse_certificate(text) == cert
    lines = text.splitlines()
    start = lines.index('"connections": [') + 1
    items = sorted(cert.connections.items())
    want = [_reference_line(p, route) + ("," if i + 1 < len(items) else "")
            for i, (p, route) in enumerate(items)]
    assert lines[start:len(lines) - 2] == want
    assert lines[-2:] == ["]", "}"]


@pytest.mark.parametrize("build, error, message", [
    (lambda: Route((1, 2, 2, 3)), ValueError,
     "route repeats vertex 2 immediately"),
    (lambda: parse_certificate(
        '{"clique_size": 2, "terminals": [0, 1], "connections": '
        '[{"pair": [0, 1], "vertices": [0, -1, 1]}]}'),
     CertificateSchemaError, "connections[0].vertices[1]: bad vertex id -1"),
    (lambda: parse_certificate(
        '{"clique_size": 2, "terminals": [0, 1], "connections": '
        '[{"pair": [0, 1], "vertices": [0, "2", 1]}]}'),
     CertificateSchemaError, "connections[0].vertices[1]: bad vertex id '2'"),
    (lambda: parse_certificate(
        '{"clique_size": 2, "terminals": [0, 1], "connections": '
        '[{"pair": [0, 1], "vertices": [0, true, -1]}]}'),
     CertificateSchemaError, "connections[0].vertices[1]: bad vertex id True"),
    (lambda: parse_certificate(
        '{"clique_size": 4, "terminals": [0, 1, 2, 3], "connections": ['
        '{"pair": [2, 3], "vertices": [2, 3]}, '
        '{"pair": [1, 3], "vertices": [1, 3]}, '
        '{"pair": [0, 2], "vertices": [0, 2]}, '
        '{"pair": [0, 1], "vertices": [0, 1]}]}'),
     CertificateSchemaError, "connections: missing pair (0, 3)"),
    (lambda: verify(complete_graph(3), Certificate(
        2, (0, 1), {(0, 1): Route((0, 7, 2, 9, 1))})),
     MalformedCertificateError,
     "route for pair (0, 1) visits vertex 7 outside host (n=3)"),
    (lambda: verify(complete_graph(3), Certificate(
        2, (0, 1), {(0, 1): Route((0, 2, -4, 1))})),
     MalformedCertificateError,
     "route for pair (0, 1) visits vertex -4 outside host (n=3)"),
    (lambda: verify(complete_graph(3), Certificate(
        2, (0, 1), {(0, 1): Route((0, 2, 3, 1))})),
     MalformedCertificateError,
     "route for pair (0, 1) visits vertex 3 outside host (n=3)"),
    (lambda: verify(complete_graph(3), Certificate(
        2, (0, 1), {(0, 1): Route((5, 0, 2, 1))})),
     MalformedCertificateError,
     "route for pair (0, 1) visits vertex 5 outside host (n=3)"),
    (lambda: verify(complete_graph(3), Certificate(
        2, (0, 1), {(0, 1): Route((6, -2, 0, 1))})),
     MalformedCertificateError,
     "route for pair (0, 1) visits vertex 6 outside host (n=3)"),
    # single-edge routes: the first vertex, the last, then both out of range
    (lambda: verify(complete_graph(3), Certificate(
        2, (0, 1), {(0, 1): Route((7, 0))})),
     MalformedCertificateError,
     "route for pair (0, 1) visits vertex 7 outside host (n=3)"),
    (lambda: verify(complete_graph(3), Certificate(
        2, (0, 1), {(0, 1): Route((0, 7))})),
     MalformedCertificateError,
     "route for pair (0, 1) visits vertex 7 outside host (n=3)"),
    (lambda: verify(complete_graph(3), Certificate(
        2, (0, 1), {(0, 1): Route((0, -4))})),
     MalformedCertificateError,
     "route for pair (0, 1) visits vertex -4 outside host (n=3)"),
    (lambda: verify(complete_graph(3), Certificate(
        2, (0, 1), {(0, 1): Route((5, -4))})),
     MalformedCertificateError,
     "route for pair (0, 1) visits vertex 5 outside host (n=3)"),
    (lambda: Certificate(0, ()), ValueError, "clique size must be positive"),
    (lambda: Certificate(2, (0,)), ValueError,
     "terminal count must equal the clique size"),
    # a key that is not a 2-tuple is named, not unpacked
    (lambda: Certificate(3, (0, 1, 2), {(0, 1, 2): Route((0, 1))}), ValueError,
     "pair (0, 1, 2) is not a valid terminal-index pair"),
    (lambda: Certificate(2, (0, 1), {(0,): Route((0, 1))}), ValueError,
     "pair (0,) is not a valid terminal-index pair"),
    (lambda: Certificate(2, (0, 1), {"ab": Route((0, 1))}), ValueError,
     "pair ab is not a valid terminal-index pair"),
    (lambda: Certificate(2, (0, 1), {5: Route((0, 1))}), ValueError,
     "pair 5 is not a valid terminal-index pair"),
    # a 2-tuple key whose entries do not compare with ints is named too
    (lambda: Certificate(2, (0, 1), {("a", "b"): Route((0, 1))}), ValueError,
     "pair ('a', 'b') is not a valid terminal-index pair"),
    (lambda: Certificate(2, (0, 1), {(0, "b"): Route((0, 1))}), ValueError,
     "pair (0, 'b') is not a valid terminal-index pair"),
    (lambda: Certificate(2, (0, 1), {(None, 1): Route((0, 1))}), ValueError,
     "pair (None, 1) is not a valid terminal-index pair"),
], ids=["route-repeat", "parse-vertex", "parse-string", "parse-bool-first",
        "parse-missing-first", "verify-high",
        "verify-negative", "verify-n", "verify-first", "verify-two",
        "verify-edge-first", "verify-edge-last", "verify-edge-negative", "verify-edge-both",
        "cert-size", "cert-terminals", "cert-pair-triple", "cert-pair-single",
        "cert-pair-str", "cert-pair-int", "cert-pair-str-pair",
        "cert-pair-str-second", "cert-pair-none"])
def test_error_messages(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message


def test_edges_exist_names_edge_low_high():
    # the route walks the non-edge 3 -> 1 of C5 from high to low
    cert = Certificate(2, (3, 0), {(0, 1): Route((3, 1, 0))})
    rep = verify(cycle_graph(5), cert)
    assert rep.first_violation == {
        "edges_exist": "pair (0, 1): (1, 3) is not a host edge",
        "all_odd": "pair (0, 1): route has even length 2",
    }


@pytest.mark.parametrize("host, cert, expected", [
    # a single non-edge, stored high to low
    (cycle_graph(5), Certificate(2, (2, 0), {(0, 1): Route((2, 0))}),
     {"edges_exist": "pair (0, 1): (0, 2) is not a host edge"}),
    # a single edge that the route of pair (0, 1) already took
    (complete_graph(4), Certificate(3, (0, 1, 2), {
        (0, 1): Route((0, 3, 2, 1)), (0, 2): Route((0, 2)), (1, 2): Route((1, 2))}),
     {"edge_disjoint": "edge (1, 2) reused by pair (1, 2)",
      "strong": "pair (0, 1): terminal 2 interior to route"}),
    # a single edge that an earlier single edge took
    (complete_graph(3), Certificate(3, (0, 1, 1), {
        (0, 1): Route((0, 1)), (0, 2): Route((0, 1))}),
     {"terminals_distinct": "terminal 1 repeats", "complete": "missing pair (1, 2)",
      "edge_disjoint": "edge (0, 1) reused by pair (0, 2)"}),
], ids=["non-edge", "reused-after-path", "reused-after-edge"])
def test_single_edge_route_violations(host, cert, expected):
    assert verify(host, cert).first_violation == expected


@pytest.mark.parametrize("pair", [(0, 5), (1, 0), (1, 1), (0, 1, 2)])
def test_verify_rejects_pair_key_added_after_construction(pair):
    # connections is a plain dict, so a key added later skips the range
    # check of Certificate.__post_init__; verify must still reject it
    cert = identity_certificate(complete_graph(2))
    cert.connections[pair] = Route((0, 1))
    with pytest.raises(MalformedCertificateError) as err:
        verify(complete_graph(2), cert)
    assert str(pair) in str(err.value)
    # with the valid pair deleted as well, the walk still reaches fewer
    # routes than the certificate holds
    del cert.connections[(0, 1)]
    with pytest.raises(MalformedCertificateError) as err:
        verify(complete_graph(2), cert)
    assert str(err.value) == f"pair {pair} is not a valid terminal-index pair"


@st.composite
def _certificates_with_bad_ids(draw):
    """A certificate in K4 or C5, possibly with an id pushed out of range
    (a terminal, or a route's first, middle or last vertex) and bad pair
    keys added after construction."""
    host = draw(st.sampled_from([complete_graph(4), cycle_graph(5)]))
    n = host.n
    r = draw(st.integers(1, 4))
    vertex = st.integers(0, n - 1)
    bad_vertex = st.sampled_from([-2, -1, n, n + 3])
    faults = draw(st.sets(st.sampled_from(["terminal", "route", "key"])))
    terminals = draw(st.lists(vertex, min_size=r, max_size=r))
    connections = {}
    for a in range(r):
        for b in range(a + 1, r):
            walk = [terminals[a], *draw(st.lists(vertex, max_size=3)), terminals[b]]
            if "route" in faults and draw(st.booleans()):
                walk[draw(st.sampled_from([0, len(walk) // 2, -1]))] = draw(bad_vertex)
            verts = [v for i, v in enumerate(walk) if i == 0 or v != walk[i - 1]]
            if len(verts) >= 2 and draw(st.booleans()):
                connections[(a, b)] = Route(tuple(verts))
    if "terminal" in faults:
        terminals[draw(st.integers(0, r - 1))] = draw(bad_vertex)
    cert = Certificate(r, tuple(terminals), connections)
    if "key" in faults:
        keys = st.one_of(
            st.tuples(st.integers(-1, 5), st.integers(-1, 5)).filter(
                lambda p: not 0 <= p[0] < p[1] < r),
            st.just((0, 1, 2)), st.just((0,)))
        for key in draw(st.lists(keys, min_size=1, max_size=2)):
            cert.connections[key] = Route((0, 1))
    return host, cert


@given(_certificates_with_bad_ids())
@settings(max_examples=200, deadline=None)
def test_verify_raises_exactly_on_bad_ids(case):
    host, cert = case
    n, r = host.n, cert.clique_size
    bad = (any(not 0 <= v < n for v in cert.terminals)
           or any(not 0 <= v < n
                  for route in cert.connections.values() for v in route.vertices)
           or any(len(p) != 2 or not 0 <= p[0] < p[1] < r for p in cert.connections))
    if bad:
        with pytest.raises(MalformedCertificateError):
            verify(host, cert)
    else:
        assert isinstance(verify(host, cert), VerificationReport)
