"""Certificate model, verification flags, serialization, mutation soundness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toi.certificates import (
    Certificate,
    CertificateSchemaError,
    MalformedCertificateError,
    Route,
    concatenate_routes,
    identity_certificate,
    parse_certificate,
    serialize_certificate,
    verify,
)
from toi.graphs import complete_graph, cycle_graph, path_graph


def test_route_basics():
    r = Route((0, 1, 2, 3))
    assert r.edge_count == 3
    assert r.is_odd
    assert r.reversed().vertices == (3, 2, 1, 0)
    assert r.edge_set() == [(0, 1), (1, 2), (2, 3)]
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
    assert not rep.complete
    assert rep.terminals_distinct and rep.endpoints_ok and rep.edges_exist
    assert rep.all_odd and rep.edge_disjoint
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
])
def test_parse_rejects_malformed(text):
    with pytest.raises(CertificateSchemaError):
        parse_certificate(text)


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
    assert not rep.complete


def test_certificate_rejects_out_of_range_pair_keys():
    with pytest.raises(ValueError):
        Certificate(2, (0, 1), {(0, 2): Route((0, 1))})
