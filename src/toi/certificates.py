"""Certificates for totally odd strong immersions of complete graphs.

A certificate names ``r`` distinct terminal vertices of a host graph and, for
every unordered pair of terminals, one connecting route.  A certificate may
store trails (walks that repeat no edge but may revisit a vertex); the
verifier reports simplicity as its own flag, ``routes_simple``.  The
``totally-odd-strong`` claim, and so ``toi`` as ``exact_toi`` computes it,
requires simple routes.

:func:`verify` reports eight flags.  Each requirement level (``toi verify
--require``) needs the flags of its row and of the rows above it; a
report's ``claim_level`` is that of the strongest level it meets, and
``none`` when it meets no level:

==================  =====================  ================================
level               claim_level            flags it adds
==================  =====================  ================================
immersion           none                   terminals_distinct, complete,
                                           endpoints_ok, edges_exist,
                                           edge_disjoint
totally-odd         totally-odd-immersion  all_odd
totally-odd-strong  totally-odd-strong     routes_simple, strong
==================  =====================  ================================
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass, field
from typing import Optional

from .graphs import Graph


class CertificateSchemaError(ValueError):
    """A certificate document does not match the JSON schema."""


class MalformedCertificateError(ValueError):
    """A certificate references vertices outside the host graph."""


@dataclass(frozen=True, slots=True)
class Route:
    """A walk given by its vertex sequence; edge count = len(vertices) - 1."""

    vertices: tuple

    def __post_init__(self):
        vs = self.vertices
        if len(vs) < 2:
            raise ValueError("a route needs at least one edge")
        if any(map(operator.eq, vs, vs[1:])):
            a = next(a for a, b in zip(vs, vs[1:]) if a == b)
            raise ValueError(f"route repeats vertex {a} immediately")

    @classmethod
    def _trusted(cls, vertices: tuple) -> "Route":
        """``Route(vertices)`` without the checks, which the caller has made."""
        route = object.__new__(cls)
        _set_vertices(route, vertices)
        return route

    @property
    def edge_count(self) -> int:
        return len(self.vertices) - 1

    def reversed(self) -> "Route":
        return Route(tuple(reversed(self.vertices)))


# the slot's own setter: one C call, past the frozen dataclass's __setattr__
_set_vertices = Route.vertices.__set__


def concatenate_routes(routes) -> Route:
    """Join routes end to start; parity of the result is the parity of the sum."""
    routes = list(routes)
    if not routes:
        raise ValueError("nothing to concatenate")
    vertices = list(routes[0].vertices)
    for r in routes[1:]:
        if r.vertices[0] != vertices[-1]:
            raise ValueError(
                f"route starting at {r.vertices[0]} does not continue from {vertices[-1]}")
        vertices.extend(r.vertices[1:])
    return Route(tuple(vertices))


@dataclass(frozen=True)
class Certificate:
    """Witness of a K_r immersion: terminals plus one route per terminal pair.

    ``connections`` maps each pair ``(a, b)`` of terminal indices,
    ``0 <= a < b < clique_size``, to its route, stored from either end:
    ``FactorImmersion.route`` and ``direct_lift`` orient it when they read it.
    Structural slack (missing pairs, repeated terminals) is legal here and is
    reported by the verifier; only index-range violations are rejected.
    """

    clique_size: int
    terminals: tuple
    connections: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.clique_size < 1:
            raise ValueError("clique size must be positive")
        if len(self.terminals) != self.clique_size:
            raise ValueError("terminal count must equal the clique size")
        # the handler sits around the loop, so a good key pays nothing for
        # it; a key whose entries do not compare with ints ends there
        try:
            for pair in self.connections:
                if not (isinstance(pair, tuple) and len(pair) == 2
                        and 0 <= pair[0] < pair[1] < self.clique_size):
                    break
            else:
                return
        except TypeError:
            pass
        raise ValueError(f"pair {pair} is not a valid terminal-index pair")

    @classmethod
    def _trusted(cls, clique_size: int, terminals: tuple, connections: dict):
        """``Certificate(...)`` without the per-key walk, for callers that prove every
        key a pair ``0 <= a < b < clique_size``: ``direct_kts`` and the parser."""
        cert = cls(clique_size, terminals)
        object.__setattr__(cert, "connections", connections)
        return cert


# flag -> the weakest requirement level that needs it, in report order
_FLAG_LEVELS = {
    "terminals_distinct": "immersion", "complete": "immersion",
    "endpoints_ok": "immersion", "edges_exist": "immersion",
    "all_odd": "totally-odd", "edge_disjoint": "immersion",
    "routes_simple": "totally-odd-strong", "strong": "totally-odd-strong",
}

# requirement level -> claim_level name when it is the strongest level met;
# weakest first, and each level needs its own flags and the weaker levels'
REQUIREMENT_LEVELS = {"immersion": "none", "totally-odd": "totally-odd-immersion",
                      "totally-odd-strong": "totally-odd-strong"}


@dataclass
class VerificationReport:
    """The first violation of each failed flag, in flag order; a flag holds
    when it has no entry."""

    first_violation: dict

    def flags(self) -> dict:
        return {name: name not in self.first_violation for name in _FLAG_LEVELS}

    @property
    def all_ok(self) -> bool:
        return not self.first_violation

    @property
    def claim_level(self) -> str:
        """'totally-odd-strong', 'totally-odd-immersion', or 'none'."""
        return next((claim for level, claim in reversed(REQUIREMENT_LEVELS.items())
                     if self.satisfies(level)), "none")

    def satisfies(self, level: str) -> bool:
        if level not in REQUIREMENT_LEVELS:
            raise ValueError(f"unknown requirement level {level!r}")
        levels = list(REQUIREMENT_LEVELS)
        return all(levels.index(_FLAG_LEVELS[name]) > levels.index(level)
                   for name in self.first_violation)


def verify(host: Graph, cert: Certificate) -> VerificationReport:
    """Compute every flag independently; never short-circuits.

    Each flag's ``first_violation`` entry names the first failure in
    sorted-pair order.  Raises :class:`MalformedCertificateError` for
    out-of-range vertex ids or pair keys; that is an input defect, not a
    false flag.  The first bad id met is named: a terminal, then a route's
    first bad vertex in pair order (checked only on non-host edges, which
    every edge at such a vertex is), then a key the pair walk missed.
    """
    n = host.n
    r = cert.clique_size
    terminals = cert.terminals
    violations = {}
    terminal_set = set()
    for v in terminals:
        if not (0 <= v < n):
            raise MalformedCertificateError(f"terminal {v} outside host (n={n})")
        if v in terminal_set:
            violations.setdefault("terminals_distinct", f"terminal {v} repeats")
        terminal_set.add(v)

    connections = cert.connections
    host_edges = host.edges
    used = set()  # edges as int keys lo * n + hi
    add = used.add
    missing = 0
    for a in range(r):
        ta = terminals[a]
        for b in range(a + 1, r):
            route = connections.get((a, b))
            if route is None:
                violations.setdefault("complete", f"missing pair {(a, b)}")
                missing += 1
                continue
            verts = route.vertices
            tb = terminals[b]
            first, last = verts[0], verts[-1]
            if not ((first == ta and last == tb) or (first == tb and last == ta)):
                violations.setdefault(
                    "endpoints_ok",
                    f"pair {(a, b)}: route ends {tuple(sorted({first, last}))}, "
                    f"expected {tuple(sorted({ta, tb}))}")
            if len(verts) == 2:  # odd, simple, no interior: only the edge can fail
                edge = (first, last) if first < last else (last, first)
                key = edge[0] * n + edge[1]
                if edge not in host_edges or key in used:
                    _edge_fault(violations, host, (a, b), first, last, key in used)
                add(key)
                continue
            if len(verts) % 2:
                violations.setdefault(
                    "all_odd", f"pair {(a, b)}: route has even length {len(verts) - 1}")
            if len(set(verts)) != len(verts):
                violations.setdefault("routes_simple",
                                      f"pair {(a, b)}: route revisits a vertex")
            interior = verts[1:-1]
            if not terminal_set.isdisjoint(interior):
                v = next(v for v in interior if v in terminal_set)
                violations.setdefault("strong",
                                      f"pair {(a, b)}: terminal {v} interior to route")
            u = first
            for v in verts[1:]:
                edge = (u, v) if u < v else (v, u)
                key = edge[0] * n + edge[1]
                if edge not in host_edges or key in used:
                    _edge_fault(violations, host, (a, b), u, v, key in used)
                add(key)
                u = v

    # the walk reached only the keys equal to pairs 0 <= a < b < r
    if r * (r - 1) // 2 - missing != len(connections):
        pair = next(p for p in connections
                    if not (isinstance(p, tuple) and len(p) == 2 and p[0] in range(r)
                            and p[1] in range(r) and p[0] < p[1]))
        raise MalformedCertificateError(f"pair {pair} is not a valid terminal-index pair")
    return VerificationReport({name: violations[name]
                               for name in _FLAG_LEVELS if name in violations})


def _edge_fault(violations, host, pair, u, v, reused):
    """Record u-v of ``pair`` as a non-host or reused edge; raise if it leaves the host."""
    lo, hi = (u, v) if u < v else (v, u)
    if (lo, hi) not in host.edges:
        n = host.n  # u can be out of range only as the route's first vertex
        if lo < 0 or hi >= n:
            raise MalformedCertificateError(f"route for pair {pair} visits vertex "
                                            f"{u if not 0 <= u < n else v} outside host (n={n})")
        violations.setdefault("edges_exist", f"pair {pair}: ({lo}, {hi}) is not a host edge")
    if reused:
        violations.setdefault("edge_disjoint", f"edge {(lo, hi)} reused by pair {pair}")


def identity_certificate(host: Graph) -> Certificate:
    """The trivial certificate of a complete host: every route a single edge."""
    if not host.is_complete():
        raise ValueError("identity certificate requires a complete host graph")
    conns = {(a, b): Route((a, b))
             for a in range(host.n) for b in range(a + 1, host.n)}
    return Certificate(host.n, tuple(range(host.n)), conns)


def serialize_certificate(cert: Certificate) -> str:
    """Canonical JSON text: ``clique_size``, ``terminals``, then one
    ``{"pair": [a, b], "vertices": [...]}`` connection object per line in
    ascending pair order, with ``", "`` and ``": "`` separators."""
    lines = ["{",
             f'"clique_size": {cert.clique_size},',
             f'"terminals": {json.dumps(list(cert.terminals))},',
             '"connections": [']
    if cert.connections:
        lines.append(",\n".join(
            '{"pair": [%d, %d], "vertices": [%s]}' % (a, b, ", ".join(map(str, route.vertices)))
            for (a, b), route in sorted(cert.connections.items())))
    lines += ["]", "}"]
    return "\n".join(lines) + "\n"


def _require(cond, msg, *args):
    """Raise ``msg % args`` unless ``cond``; the text is built only on failure."""
    if not cond:
        raise CertificateSchemaError(msg % args)


def parse_certificate(text: str) -> Certificate:
    """Parse and structurally validate a certificate document.

    Any text that is not a certificate document, from bad JSON to missing
    or duplicate pairs and bad vertex ids, raises CertificateSchemaError;
    semantic properties are left to :func:`verify`.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise CertificateSchemaError(f"not valid JSON: {exc}") from None
    _require(isinstance(doc, dict), "top level must be an object")
    _require(type(doc.get("clique_size")) is int and doc["clique_size"] >= 1,
             "clique_size: must be a positive integer")
    r = doc["clique_size"]
    terminals = doc.get("terminals")
    _require(isinstance(terminals, list) and len(terminals) == r,
             "terminals: expected a list of %d vertex ids", r)
    for i, v in enumerate(terminals):
        _require(type(v) is int and v >= 0, "terminals[%d]: bad vertex id %r", i, v)
    conns_doc = doc.get("connections")
    _require(isinstance(conns_doc, list), "connections: expected a list")
    connections = (_bulk_connections(conns_doc, r)
                   or _checked_connections(conns_doc, r))
    return Certificate._trusted(r, tuple(terminals), connections)


def _bulk_connections(conns_doc: list, r: int) -> Optional[dict]:
    """The connections in the writer's layout, each property checked over
    the whole list; None on any anomaly, for _checked_connections to name."""
    # first, so the pair list built below is never longer than the input
    if len(conns_doc) != r * (r - 1) // 2:
        return None
    try:  # a non-object entry raises TypeError, a missing key KeyError
        pairs = list(map(operator.itemgetter("pair"), conns_doc))
        vert_lists = list(map(operator.itemgetter("vertices"), conns_doc))
    except (KeyError, TypeError):
        return None
    # pairs equal to the ascending pair list are in range, ordered, distinct
    # and complete; the type test keeps out bools and floats equal to ints
    keys = list(itertools.combinations(range(r), 2))
    if (set(map(type, pairs)) != {list} or list(map(tuple, pairs)) != keys
            or set(map(type, itertools.chain.from_iterable(pairs))) != {int}
            or set(map(type, vert_lists)) != {list}
            or min(map(len, vert_lists)) < 2):
        return None
    # one flat list: an equal neighbour there is an immediate repeat, or a
    # route ending where the next begins, which the per-entry loop sorts out
    flat = list(itertools.chain.from_iterable(vert_lists))
    if (set(map(type, flat)) != {int} or min(flat) < 0
            or any(map(operator.eq, flat, itertools.islice(flat, 1, None)))):
        return None
    return dict(zip(keys, map(Route._trusted, map(tuple, vert_lists))))


def _checked_connections(conns_doc: list, r: int) -> dict:
    """The connections of any document; the error names the first bad entry."""
    connections = {}
    for i, entry in enumerate(conns_doc):
        _require(isinstance(entry, dict), "connections[%d]: expected an object", i)
        pair = entry.get("pair")
        _require(isinstance(pair, list) and len(pair) == 2
                 and type(pair[0]) is int and type(pair[1]) is int,
                 "connections[%d].pair: expected two terminal indices", i)
        a, b = pair
        _require(0 <= a < b < r, "connections[%d].pair: (%d, %d) is not a valid pair", i, a, b)
        _require((a, b) not in connections,
                 "connections[%d].pair: duplicate pair (%d, %d)", i, a, b)
        verts = entry.get("vertices")
        _require(isinstance(verts, list) and len(verts) >= 2,
                 "connections[%d].vertices: expected at least two vertex ids", i)
        # one bulk test per route; the first bad id is looked up on failure
        if set(map(type, verts)) != {int} or min(verts) < 0:
            j, v = next((j, v) for j, v in enumerate(verts)
                        if type(v) is not int or v < 0)
            raise CertificateSchemaError(
                f"connections[{i}].vertices[{j}]: bad vertex id {v!r}")
        try:
            connections[(a, b)] = Route(tuple(verts))
        except ValueError as exc:
            raise CertificateSchemaError(f"connections[{i}].vertices: {exc}") from None
    # every key is a distinct pair 0 <= a < b < r, so the count alone
    # tells whether one is missing
    if len(connections) != r * (r - 1) // 2:
        a, b = next((a, b) for a in range(r) for b in range(a + 1, r)
                    if (a, b) not in connections)
        raise CertificateSchemaError(f"connections: missing pair ({a}, {b})")
    return connections
