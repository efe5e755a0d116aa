"""Independent certificate checker.

Shares no code with ``toi.certificates``: it reads the certificate as a
plain JSON document and the host as a set of edges, so a faster verifier
that stops catching a fault cannot pass the benchmark.
"""


def host_edges(graph_text):
    """Edge set of a graph file, read line by line from its ``e u v`` lines."""
    edges = set()
    for line in graph_text.splitlines():
        parts = line.split()
        if parts and parts[0] == "e":
            u, v = int(parts[1]), int(parts[2])
            edges.add((min(u, v), max(u, v)))
    return edges


def check(edges, doc):
    """Return None when ``doc`` is a totally odd strong K_r immersion in the
    host with edge set ``edges``, else the first fault found."""
    r, terms = doc["clique_size"], doc["terminals"]
    if len(terms) != r or len(set(terms)) != r:
        return "terminals are not distinct"
    inner_forbidden = set(terms)
    seen, used = set(), set()
    for conn in doc["connections"]:
        a, b = conn["pair"]
        verts = conn["vertices"]
        if not 0 <= a < b < r or (a, b) in seen:
            return f"pair {a}-{b} is out of range or repeated"
        seen.add((a, b))
        if (verts[0], verts[-1]) != (terms[a], terms[b]):
            return f"route {a}-{b} does not join its terminals"
        if len(verts) % 2 != 0:
            return f"route {a}-{b} has an even number of edges"
        if inner_forbidden.intersection(verts[1:-1]):
            return f"route {a}-{b} passes through a terminal"
        for u, v in zip(verts, verts[1:]):
            e = (min(u, v), max(u, v))
            if e not in edges:
                return f"route {a}-{b} uses non-edge {e}"
            if e in used:
                return f"route {a}-{b} reuses edge {e}"
            used.add(e)
    if len(seen) != r * (r - 1) // 2:
        return "some terminal pair has no route"
    return None


def certificate_doc(cert):
    """The JSON document of a certificate object, built from its fields."""
    return {"clique_size": cert.clique_size, "terminals": list(cert.terminals),
            "connections": [{"pair": list(pair), "vertices": list(route.vertices)}
                            for pair, route in cert.connections.items()]}
