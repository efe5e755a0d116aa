"""Command-line interface: products, constructions, verification, solving.

Exit codes: 0 success, 1 well-formed negative answer (failed verification,
timeout, violated or indeterminate conjecture), 2 every input the library
rejects: a file that cannot be read, decoded as UTF-8 or parsed, and any
argument the library refuses.  Internal faults raise.
Every command is deterministic; ``--json`` replaces the human report with a
single JSON object on standard output.

Every command runs with the cyclic garbage collector paused: what the
commands build, from product hosts to the solver's search state, holds no
reference cycles, so the collector would only rescan it for cycles it
cannot find.  ``main`` re-enables the collector on return only if it was
enabled on entry, so library callers are unaffected.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from typing import Optional

from .certificates import (
    REQUIREMENT_LEVELS,
    MalformedCertificateError,
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


def _read(path: str, what: str, parse):
    """``parse`` of a file's UTF-8 text; a file that cannot be read, decoded
    or parsed raises a ValueError that names it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read {what} file {path}: {exc}")
    except ValueError as exc:
        raise ValueError(f"bad {what} file {path}: {exc}")


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}")


def _emit(report: dict, lines: list, as_json: bool):
    if as_json:
        print(json.dumps(report, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _verdict(rep):
    """The report keys and text lines of a verification, which ``verify``
    and ``construct`` print alike: each flag, then the claim level."""
    flags = rep.flags()
    return ({"flags": flags, "claim_level": rep.claim_level},
            [*(f"{name}: {str(ok).lower()}" for name, ok in flags.items()),
             f"claim_level: {rep.claim_level}"])


def _factor(graph_path: str, cert_path: Optional[str]) -> FactorImmersion:
    g = _read(graph_path, "graph", read_graph_text)
    if g.n == 0:
        raise ValueError(f"factor graph {graph_path} is empty")
    if cert_path is not None:
        cert = _read(cert_path, "certificate", parse_certificate)
        try:
            return FactorImmersion(g, cert)
        except ValueError as exc:
            raise ValueError(f"factor certificate {cert_path}: {exc}")
    if not g.is_complete():
        raise ValueError(
            f"{graph_path} is not complete; supply an explicit certificate")
    return FactorImmersion.identity(g)


def _cmd_product(args) -> int:
    g = _read(args.g, "graph", read_graph_text)
    h = _read(args.h, "graph", read_graph_text)
    prod = _PRODUCTS[args.op](g, h)
    _write(args.output, write_graph_text(prod))
    report = {"command": "product", "op": args.op, "vertices": prod.n,
              "edges": prod.m, "output": args.output}
    _emit(report, [f"{args.op} product: {prod.n} vertices, {prod.m} edges",
                   f"wrote {args.output}"], args.json)
    return 0


def _cmd_verify(args) -> int:
    g = _read(args.graph, "graph", read_graph_text)
    cert = _read(args.cert, "certificate", parse_certificate)
    try:
        rep = verify(g, cert)
    except MalformedCertificateError as exc:
        raise ValueError(f"certificate does not fit the graph: {exc}")
    ok = rep.satisfies(args.require)
    verdict, verdict_lines = _verdict(rep)
    report = {"command": "verify", "clique_size": cert.clique_size,
              **verdict, "require": args.require, "ok": ok,
              "first_violation": rep.first_violation or None}
    lines = [f"clique_size: {cert.clique_size}", *verdict_lines,
             f"required: {args.require}"]
    lines.append("result: PASS" if ok else "result: FAIL")
    if not ok and rep.first_violation:
        lines.append(f"violation: {rep.first_violation}")
    _emit(report, lines, args.json)
    return 0 if ok else 1


def _build_certificate(args):
    """Run one construction; returns (host graph, certificate, required level)."""
    kind = args.kind
    if kind == "direct-kts":
        # the construction checks t and s before the host is built
        cert = direct_kts(args.t, args.s)
        host = direct_product(complete_graph(2 * args.t),
                              complete_graph(args.s))
        return host, cert, "totally-odd-strong"
    if kind == "cart-32":
        g = _read(args.g, "graph", read_graph_text)
        h = _read(args.h, "graph", read_graph_text)
        return cartesian_product(g, h), cartesian_32(g, h), "totally-odd-strong"
    fg = _factor(args.g, args.g_cert)
    fh = _factor(args.h, args.h_cert)
    if kind == "direct-lift":
        base = _read(args.base, "certificate", parse_certificate)
        # strongness and route simplicity of the lift are reported, not
        # required; the guaranteed level is totally odd
        return (direct_product(fg.host, fh.host), direct_lift(fg, fh, base),
                "totally-odd")
    return (cartesian_product(fg.host, fh.host), cartesian_large(fg, fh),
            "totally-odd-strong")


def _cmd_construct(args) -> int:
    host, cert, level = _build_certificate(args)
    rep = verify(host, cert)
    ok = rep.satisfies(level)
    verdict, verdict_lines = _verdict(rep)
    report = {"command": "construct", "kind": args.kind,
              "clique_size": cert.clique_size, "host_vertices": host.n,
              "host_edges": host.m, **verdict, "ok": ok,
              "output": args.output if ok else None,
              "graph_output": args.emit_graph if ok and args.emit_graph else None}
    lines = [f"construct {args.kind}: K_{cert.clique_size} certificate "
             f"in a host with {host.n} vertices, {host.m} edges",
             *verdict_lines]
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


def _write_witness(result, path: Optional[str]) -> Optional[str]:
    """Write a solver result's witness certificate to ``path`` when both are
    given; returns the path written, else None."""
    if result.witness is None or not path:
        return None
    _write(path, serialize_certificate(result.witness))
    return path


def _cmd_solve(args) -> int:
    if args.max_t is not None and args.max_t < 1:
        raise ValueError(f"--max-t must be a positive integer, got {args.max_t}")
    g = _read(args.graph, "graph", read_graph_text)
    result = exact_toi(g, SearchBudget(args.nodes, args.time_limit), max_t=args.max_t)
    witness_path = _write_witness(result, args.witness)
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
    g = _read(args.graph, "graph", read_graph_text)
    outcome = check_conjecture(g, SearchBudget(args.nodes, args.time_limit))
    satisfied = outcome.satisfied
    verdict = {True: "satisfied", False: "VIOLATED", None: "indeterminate"}[satisfied]
    chi, toi = outcome.chi, outcome.toi
    witness_path = _write_witness(toi, args.witness)
    report = {"command": "check-conjecture",
              "chi": {"value": chi.value, "status": chi.status,
                      "colouring": outcome.colouring},
              "toi": {"value": toi.value, "status": toi.status,
                      "witness": witness_path},
              "satisfied": satisfied}
    lines = [f"chi = {chi.value} ({chi.status})",
             f"toi = {toi.value} ({toi.status})",
             f"conjecture chi <= toi: {verdict}"]
    if witness_path:
        lines.append(f"wrote witness {witness_path}")
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

    p = csub.add_parser("direct-kts",
                        help="K_{ts} certificate in K_{2t} x K_s")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--s", type=int, required=True)

    p = csub.add_parser("cart-large",
                        help="K_{t+s-1} certificate in a Cartesian product, "
                             "s >= 4")
    _add_factor_args(p, with_certs=True)

    p = csub.add_parser("cart-32",
                        help="K_4 certificate from an odd cycle and a "
                             "degree-2 vertex")
    _add_factor_args(p, with_certs=False)

    # every kind takes the same output options, after its own
    for p in csub.choices.values():
        p.add_argument("-o", "--output", required=True)
        p.add_argument("--emit-graph", help="also write the host product graph")
        p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("solve", help="compute toi exactly by search")
    p.add_argument("graph")
    p.add_argument("--max-t", type=int, help="stop the search at this size")
    p.add_argument("--time-limit", type=float, help="CPU seconds")
    p.add_argument("--nodes", type=int, default=SearchBudget.max_nodes,
                   help="search node budget")
    p.add_argument("--witness", help="write the witness certificate here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check-conjecture",
                       help="check chi(G) <= toi(G) from a colouring and a "
                            "K_k witness")
    p.add_argument("graph")
    p.add_argument("--time-limit", type=float, help="CPU seconds")
    p.add_argument("--nodes", type=int, default=SearchBudget.max_nodes,
                   help="search node budget")
    p.add_argument("--witness", help="write the toi witness certificate here")
    p.set_defaults(func=_cmd_check_conjecture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ValueError as exc:
        # ValueError signals bad input here and in the library; faults propagate
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
