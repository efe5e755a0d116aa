"""Totally odd strong immersions of complete graphs in graph products.

Construct, verify, and exactly compute toi(G), the largest t such that G
contains a totally odd strong immersion of K_t.
"""

from .certificates import (
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
from .constructions import (
    FactorImmersion,
    cartesian_32,
    cartesian_large,
    direct_kts,
    direct_lift,
)
from .graphs import (
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
from .solver import (
    ConjectureReport,
    SearchBudget,
    SolveResult,
    check_conjecture,
    chromatic_number,
    exact_toi,
)

__all__ = [
    "Certificate",
    "CertificateSchemaError",
    "ConjectureReport",
    "FactorImmersion",
    "Graph",
    "GraphFormatError",
    "MalformedCertificateError",
    "Route",
    "SearchBudget",
    "SolveResult",
    "VerificationReport",
    "cartesian_32",
    "cartesian_large",
    "cartesian_product",
    "check_conjecture",
    "chromatic_number",
    "complete_graph",
    "concatenate_routes",
    "cycle_graph",
    "direct_kts",
    "direct_lift",
    "direct_product",
    "exact_toi",
    "identity_certificate",
    "is_bipartite",
    "lexicographic_product",
    "parse_certificate",
    "path_graph",
    "read_graph_text",
    "serialize_certificate",
    "strong_product",
    "verify",
    "write_graph_text",
]

__version__ = "0.1.0"
