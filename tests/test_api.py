"""The public API: the exported names are pinned, so adding or removing one
is a visible change."""

import toi

PUBLIC_NAMES = [
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


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 33
    assert sorted(toi.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(toi, name) is not None, name
