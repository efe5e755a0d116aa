"""Certificates for totally odd strong immersions of complete graphs.

A certificate names ``r`` distinct terminal vertices of a host graph and, for
every unordered pair of terminals, one connecting route.  A certificate may
store trails (walks that repeat no edge but may revisit a vertex); the
verifier reports simplicity as its own flag, ``routes_simple``.  The
``totally-odd-strong`` claim, and so ``toi`` as ``exact_toi`` computes it,
requires simple routes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .graphs import Graph


class CertificateSchemaError(ValueError):
    """A certificate document does not match the JSON schema."""


class MalformedCertificateError(ValueError):
    """A certificate references vertices outside the host graph."""


@dataclass(frozen=True)
class Route:
    """A walk given by its vertex sequence; edge count = len(vertices) - 1."""

    vertices: tuple

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise ValueError("a route needs at least one edge")
        for a, b in zip(self.vertices, self.vertices[1:]):
            if a == b:
                raise ValueError(f"route repeats vertex {a} immediately")

    @property
    def edge_count(self) -> int:
        return len(self.vertices) - 1

    @property
    def is_odd(self) -> bool:
        return self.edge_count % 2 == 1

    def edge_set(self):
        """Canonical undirected edges, as a list (may contain repeats)."""
        return [(min(a, b), max(a, b))
                for a, b in zip(self.vertices, self.vertices[1:])]

    def reversed(self) -> "Route":
        return Route(tuple(reversed(self.vertices)))


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
    ``0 <= a < b < clique_size``, to the route stored from ``terminals[a]``.
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
        for a, b in self.connections:
            if not (0 <= a < b < self.clique_size):
                raise ValueError(f"pair ({a}, {b}) is not a valid terminal-index pair")


_FLAGS = ("terminals_distinct", "complete", "endpoints_ok", "edges_exist",
          "all_odd", "edge_disjoint", "routes_simple", "strong")

# requirement level -> (flags it needs, claim_level name when it is the
# strongest level met); strongest first
REQUIREMENT_LEVELS = {
    "totally-odd-strong": (_FLAGS, "totally-odd-strong"),
    "totally-odd": (("terminals_distinct", "complete", "endpoints_ok",
                     "edges_exist", "all_odd", "edge_disjoint"),
                    "totally-odd-immersion"),
    "immersion": (("terminals_distinct", "complete", "endpoints_ok",
                   "edges_exist", "edge_disjoint"), "none"),
}


@dataclass
class VerificationReport:
    """Independent per-property flags plus first-failure diagnostics."""

    terminals_distinct: bool
    complete: bool
    endpoints_ok: bool
    edges_exist: bool
    all_odd: bool
    edge_disjoint: bool
    routes_simple: bool
    strong: bool
    first_violation: dict

    def flags(self) -> dict:
        return {name: getattr(self, name) for name in _FLAGS}

    @property
    def all_ok(self) -> bool:
        return self.satisfies("totally-odd-strong")

    @property
    def claim_level(self) -> str:
        """'totally-odd-strong', 'totally-odd-immersion', or 'none'."""
        return next((claim for level, (_, claim) in REQUIREMENT_LEVELS.items()
                     if self.satisfies(level)), "none")

    def satisfies(self, level: str) -> bool:
        if level not in REQUIREMENT_LEVELS:
            raise ValueError(f"unknown requirement level {level!r}")
        return all(getattr(self, name) for name in REQUIREMENT_LEVELS[level][0])


def verify(host: Graph, cert: Certificate) -> VerificationReport:
    """Compute every flag independently; never short-circuits.

    Each flag's ``first_violation`` entry names the first failure in
    sorted-pair order.  Raises :class:`MalformedCertificateError` for
    out-of-range vertex ids; that is an input defect, not a false flag.
    """
    for v in cert.terminals:
        if not (0 <= v < host.n):
            raise MalformedCertificateError(f"terminal {v} outside host (n={host.n})")
    for pair, route in cert.connections.items():
        for v in route.vertices:
            if not (0 <= v < host.n):
                raise MalformedCertificateError(
                    f"route for pair {pair} visits vertex {v} outside host (n={host.n})")

    violations = {}
    r = cert.clique_size

    seen = set()
    for v in cert.terminals:
        if v in seen:
            violations["terminals_distinct"] = f"terminal {v} repeats"
            break
        seen.add(v)

    expected_pairs = {(a, b) for a in range(r) for b in range(a + 1, r)}
    if set(cert.connections) != expected_pairs:
        missing = sorted(expected_pairs - set(cert.connections))
        extra = sorted(set(cert.connections) - expected_pairs)
        violations["complete"] = (f"missing pair {missing[0]}" if missing
                                  else f"unexpected pair {extra[0]}")

    terminal_set = set(cert.terminals)
    host_edges = host.edges
    used = set()
    for (a, b), route in sorted(cert.connections.items()):
        verts = route.vertices
        want = {cert.terminals[a], cert.terminals[b]}
        got = {verts[0], verts[-1]}
        if want != got:
            violations.setdefault(
                "endpoints_ok",
                f"pair {(a, b)}: route ends {tuple(sorted(got))}, expected {tuple(sorted(want))}")
        if not route.is_odd:
            violations.setdefault("all_odd",
                                  f"pair {(a, b)}: route has even length {route.edge_count}")
        if len(set(verts)) != len(verts):
            violations.setdefault("routes_simple",
                                  f"pair {(a, b)}: route revisits a vertex")
        for v in verts[1:-1]:
            if v in terminal_set:
                violations.setdefault("strong",
                                      f"pair {(a, b)}: terminal {v} interior to route")
                break
        for e in route.edge_set():
            if e not in host_edges:
                violations.setdefault("edges_exist",
                                      f"pair {(a, b)}: ({e[0]}, {e[1]}) is not a host edge")
            if e in used:
                violations.setdefault("edge_disjoint",
                                      f"edge {e} reused by pair {(a, b)}")
            used.add(e)

    return VerificationReport(
        **{name: name not in violations for name in _FLAGS},
        first_violation={name: violations[name]
                         for name in _FLAGS if name in violations},
    )


def identity_certificate(host: Graph) -> Certificate:
    """The trivial certificate of a complete host: every route a single edge."""
    if not host.is_complete():
        raise ValueError("identity certificate requires a complete host graph")
    conns = {(a, b): Route((a, b))
             for a in range(host.n) for b in range(a + 1, host.n)}
    return Certificate(host.n, tuple(range(host.n)), conns)


def serialize_certificate(cert: Certificate) -> str:
    """Canonical JSON text: pairs sorted lexicographically, one object per line."""
    lines = ["{",
             f'"clique_size": {cert.clique_size},',
             f'"terminals": {json.dumps(list(cert.terminals))},',
             '"connections": [']
    items = sorted(cert.connections.items())
    for idx, ((a, b), route) in enumerate(items):
        obj = json.dumps({"pair": [a, b], "vertices": list(route.vertices)},
                         separators=(", ", ": "))
        lines.append(obj + ("," if idx + 1 < len(items) else ""))
    lines.append("]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _require(cond, msg):
    if not cond:
        raise CertificateSchemaError(msg)


def _is_int(x) -> bool:
    """A JSON integer; ``true``/``false`` load as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_certificate(text: str) -> Certificate:
    """Parse and structurally validate a certificate document.

    Missing pairs, duplicate pairs, and bad vertex ids are schema errors;
    semantic properties are left to :func:`verify`.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateSchemaError(f"not valid JSON: {exc}") from None
    _require(isinstance(doc, dict), "top level must be an object")
    _require(_is_int(doc.get("clique_size")) and doc["clique_size"] >= 1,
             "clique_size: must be a positive integer")
    r = doc["clique_size"]
    terminals = doc.get("terminals")
    _require(isinstance(terminals, list) and len(terminals) == r,
             f"terminals: expected a list of {r} vertex ids")
    for i, v in enumerate(terminals):
        _require(_is_int(v) and v >= 0, f"terminals[{i}]: bad vertex id {v!r}")
    conns_doc = doc.get("connections")
    _require(isinstance(conns_doc, list), "connections: expected a list")
    connections = {}
    for i, entry in enumerate(conns_doc):
        where = f"connections[{i}]"
        _require(isinstance(entry, dict), f"{where}: expected an object")
        pair = entry.get("pair")
        _require(isinstance(pair, list) and len(pair) == 2
                 and all(_is_int(x) for x in pair),
                 f"{where}.pair: expected two terminal indices")
        a, b = pair
        _require(0 <= a < b < r, f"{where}.pair: ({a}, {b}) is not a valid pair")
        _require((a, b) not in connections, f"{where}.pair: duplicate pair ({a}, {b})")
        verts = entry.get("vertices")
        _require(isinstance(verts, list) and len(verts) >= 2,
                 f"{where}.vertices: expected at least two vertex ids")
        for j, v in enumerate(verts):
            _require(_is_int(v) and v >= 0,
                     f"{where}.vertices[{j}]: bad vertex id {v!r}")
        try:
            connections[(a, b)] = Route(tuple(verts))
        except ValueError as exc:
            raise CertificateSchemaError(f"{where}.vertices: {exc}") from None
    for a in range(r):
        for b in range(a + 1, r):
            _require((a, b) in connections, f"connections: missing pair ({a}, {b})")
    return Certificate(r, tuple(terminals), connections)
