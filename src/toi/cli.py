"""Command-line interface: products, constructions, verification, solving.

Exit codes: 0 success, 1 well-formed negative answer (failed verification,
timeout, indeterminate conjecture), 2 usage or format error.  Every command
is deterministic; ``--json`` replaces the human report with a single JSON
object on standard output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .certificates import (
    REQUIREMENT_LEVELS,
    Certificate,
    CertificateSchemaError,
    MalformedCertificateError,
    identity_certificate,
    parse_certificate,
    serialize_certificate,
    verify,
)
from .constructions import (
    FactorImmersion,
    cartesian_32,
    cartesian_33,
    cartesian_large,
    direct_kts,
    direct_lift,
)
from .graphs import (
    Graph,
    GraphFormatError,
    cartesian_product,
    complete_graph,
    direct_product,
    lexicographic_product,
    read_graph_text,
    strong_product,
    write_graph_text,
)
from .solver import SearchBudget, check_conjecture, exact_toi

_PRODUCTS = {
    "cartesian": cartesian_product,
    "direct": direct_product,
    "lex": lexicographic_product,
    "strong": strong_product,
}


class _UsageError(Exception):
    pass


def _read_graph(path: str) -> Graph:
    try:
        with open(path, encoding="utf-8") as fh:
            return read_graph_text(fh.read())
    except OSError as exc:
        raise _UsageError(f"cannot read graph file {path}: {exc}")
    except GraphFormatError as exc:
        raise _UsageError(f"bad graph file {path}: {exc}")


def _read_cert(path: str) -> Certificate:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_certificate(fh.read())
    except OSError as exc:
        raise _UsageError(f"cannot read certificate file {path}: {exc}")
    except CertificateSchemaError as exc:
        raise _UsageError(f"bad certificate file {path}: {exc}")


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}")


def _emit(report: dict, lines: list, as_json: bool):
    if as_json:
        print(json.dumps(report, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _factor(graph_path: str, cert_path: Optional[str]) -> FactorImmersion:
    g = _read_graph(graph_path)
    if cert_path is not None:
        cert = _read_cert(cert_path)
        try:
            return FactorImmersion(g, cert)
        except (ValueError, MalformedCertificateError) as exc:
            raise _UsageError(f"factor certificate {cert_path}: {exc}")
    if not g.is_complete():
        raise _UsageError(
            f"{graph_path} is not complete; supply an explicit certificate")
    return FactorImmersion.identity(g)


def _cmd_product(args) -> int:
    g = _read_graph(args.g)
    h = _read_graph(args.h)
    prod = _PRODUCTS[args.op](g, h)
    _write(args.output, write_graph_text(prod))
    report = {"command": "product", "op": args.op, "vertices": prod.n,
              "edges": prod.m, "output": args.output}
    _emit(report, [f"{args.op} product: {prod.n} vertices, {prod.m} edges",
                   f"wrote {args.output}"], args.json)
    return 0


def _cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    cert = _read_cert(args.cert)
    try:
        rep = verify(g, cert)
    except MalformedCertificateError as exc:
        raise _UsageError(f"certificate does not fit the graph: {exc}")
    ok = rep.satisfies(args.require)
    report = {"command": "verify", "clique_size": cert.clique_size,
              "flags": rep.flags(), "claim_level": rep.claim_level,
              "require": args.require, "ok": ok,
              "first_violation": rep.first_violation or None}
    lines = [f"clique_size: {cert.clique_size}"]
    lines += [f"{name}: {str(val).lower()}" for name, val in rep.flags().items()]
    lines.append(f"claim_level: {rep.claim_level}")
    lines.append(f"required: {args.require}")
    lines.append("result: PASS" if ok else "result: FAIL")
    if not ok and rep.first_violation:
        lines.append(f"violation: {rep.first_violation}")
    _emit(report, lines, args.json)
    return 0 if ok else 1


def _build_certificate(args):
    """Run one construction; returns (host graph, certificate, required level)."""
    kind = args.kind
    try:
        if kind == "direct-kts":
            host = direct_product(complete_graph(2 * args.t),
                                  complete_graph(args.s))
            return host, direct_kts(args.t, args.s), "totally-odd-strong"
        if kind == "direct-lift":
            fg = _factor(args.g, args.g_cert)
            fh = _factor(args.h, args.h_cert)
            base = _read_cert(args.base)
            host = direct_product(fg.host, fh.host)
            # strongness and route simplicity of the lift are reported, not
            # required; the guaranteed level is totally odd
            return host, direct_lift(fg, fh, base), "totally-odd"
        if kind == "cart-large":
            fg = _factor(args.g, args.g_cert)
            fh = _factor(args.h, args.h_cert)
            host = cartesian_product(fg.host, fh.host)
            return host, cartesian_large(fg, fh), "totally-odd-strong"
        if kind == "cart-33":
            fg = _factor(args.g, args.g_cert)
            fh = _factor(args.h, args.h_cert)
            host = cartesian_product(fg.host, fh.host)
            return host, cartesian_33(fg, fh), "totally-odd-strong"
        if kind == "cart-32":
            g = _read_graph(args.g)
            h = _read_graph(args.h)
            host = cartesian_product(g, h)
            return host, cartesian_32(g, h), "totally-odd-strong"
        raise AssertionError(kind)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _cmd_construct(args) -> int:
    host, cert, level = _build_certificate(args)
    rep = verify(host, cert)
    ok = rep.satisfies(level)
    report = {"command": "construct", "kind": args.kind,
              "clique_size": cert.clique_size, "host_vertices": host.n,
              "host_edges": host.m, "flags": rep.flags(),
              "claim_level": rep.claim_level, "ok": ok,
              "output": args.output if ok else None,
              "graph_output": args.emit_graph if ok and args.emit_graph else None}
    lines = [f"construct {args.kind}: K_{cert.clique_size} certificate "
             f"in a host with {host.n} vertices, {host.m} edges"]
    lines += [f"{name}: {str(val).lower()}" for name, val in rep.flags().items()]
    lines.append(f"claim_level: {rep.claim_level}")
    if ok:
        _write(args.output, serialize_certificate(cert))
        lines.append(f"wrote {args.output}")
        if args.emit_graph:
            _write(args.emit_graph, write_graph_text(host))
            lines.append(f"wrote {args.emit_graph}")
        lines.append("result: PASS")
    else:
        lines.append(f"self-verification failed: {rep.first_violation}")
        lines.append("result: FAIL")
    _emit(report, lines, args.json)
    return 0 if ok else 1


def _budget(args) -> SearchBudget:
    kwargs = {}
    if getattr(args, "nodes", None) is not None:
        kwargs["max_nodes"] = args.nodes
    if args.time_limit is not None:
        kwargs["time_limit"] = args.time_limit
    try:
        return SearchBudget(**kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _cmd_solve(args) -> int:
    if args.max_t is not None and args.max_t < 1:
        raise _UsageError(f"--max-t must be a positive integer, got {args.max_t}")
    g = _read_graph(args.graph)
    result = exact_toi(g, _budget(args), max_t=args.max_t)
    witness_path = None
    if result.witness is not None and args.witness:
        _write(args.witness, serialize_certificate(result.witness))
        witness_path = args.witness
    report = {"command": "solve", "value": result.value,
              "status": result.status, "nodes_explored": result.nodes_explored,
              "witness": witness_path}
    lines = [f"toi = {result.value} ({result.status})",
             f"nodes explored: {result.nodes_explored}"]
    if witness_path:
        lines.append(f"wrote witness {witness_path}")
    _emit(report, lines, args.json)
    return 0 if result.status != "timeout" else 1


def _cmd_check_conjecture(args) -> int:
    g = _read_graph(args.graph)
    outcome = check_conjecture(g, _budget(args))
    satisfied = outcome.satisfied
    verdict = {True: "satisfied", False: "VIOLATED", None: "indeterminate"}[satisfied]
    report = {"command": "check-conjecture",
              "chi": {"value": outcome.chi.value, "status": outcome.chi.status},
              "toi": {"value": outcome.toi.value, "status": outcome.toi.status},
              "satisfied": satisfied}
    lines = [f"chi = {outcome.chi.value} ({outcome.chi.status})",
             f"toi = {outcome.toi.value} ({outcome.toi.status})",
             f"conjecture chi <= toi: {verdict}"]
    _emit(report, lines, args.json)
    return 0 if satisfied else 1


def _add_factor_args(p, with_certs: bool):
    p.add_argument("--g", required=True, help="first factor graph file")
    p.add_argument("--h", required=True, help="second factor graph file")
    if with_certs:
        p.add_argument("--g-cert", help="certificate for the first factor "
                       "(defaults to the identity on a complete graph)")
        p.add_argument("--h-cert", help="certificate for the second factor "
                       "(defaults to the identity on a complete graph)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toi",
        description="Totally odd strong immersions of complete graphs "
                    "in graph products.")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as a single JSON object")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="write a product of two graphs")
    p.add_argument("--op", required=True, choices=sorted(_PRODUCTS))
    p.add_argument("g", help="first factor graph file")
    p.add_argument("h", help="second factor graph file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("verify", help="verify a certificate against a graph")
    p.add_argument("graph")
    p.add_argument("cert")
    p.add_argument("--require", default="totally-odd-strong",
                   choices=sorted(REQUIREMENT_LEVELS))
    p.set_defaults(func=_cmd_verify)

    c = sub.add_parser("construct", help="build a certificate constructively")
    csub = c.add_subparsers(dest="kind", required=True)

    p = csub.add_parser("direct-lift",
                        help="lift a base grid certificate into G x H")
    _add_factor_args(p, with_certs=True)
    p.add_argument("--base", required=True,
                   help="certificate file for the terminal grid")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--emit-graph", help="also write the host product graph")
    p.set_defaults(func=_cmd_construct)

    p = csub.add_parser("direct-kts",
                        help="K_{ts} certificate in K_{2t} x K_s")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--emit-graph", help="also write the host product graph")
    p.set_defaults(func=_cmd_construct)

    for kind, blurb in (("cart-large",
                         "K_{t+s-1} certificate in a Cartesian product, s >= 4"),
                        ("cart-33",
                         "K_4 certificate from two K_3 factor immersions")):
        p = csub.add_parser(kind, help=blurb)
        _add_factor_args(p, with_certs=True)
        p.add_argument("-o", "--output", required=True)
        p.add_argument("--emit-graph", help="also write the host product graph")
        p.set_defaults(func=_cmd_construct)

    p = csub.add_parser("cart-32",
                        help="K_4 certificate from an odd cycle and a "
                             "degree-2 vertex")
    _add_factor_args(p, with_certs=False)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--emit-graph", help="also write the host product graph")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("solve", help="compute toi exactly by search")
    p.add_argument("graph")
    p.add_argument("--max-t", type=int, help="stop the search at this size")
    p.add_argument("--time-limit", type=float, help="seconds")
    p.add_argument("--nodes", type=int, help="search node budget")
    p.add_argument("--witness", help="write the witness certificate here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check-conjecture",
                       help="check chi(G) <= toi(G) with both solvers exact")
    p.add_argument("graph")
    p.add_argument("--time-limit", type=float, help="seconds")
    p.add_argument("--nodes", type=int, help="search node budget")
    p.set_defaults(func=_cmd_check_conjecture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
