"""Benchmark harness for the toi package (standard library only).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else.  Workloads (BENCHMARK.json records why
each was chosen):

  kts-roundtrip     in-process ``toi --json construct direct-kts --t 24 --s 18``
                    writing the certificate and host graph, then
                    ``toi --json verify`` on the two files
  solver-exact      exact_toi and chromatic_number, default budget, on the
                    hosts of bench/known_answers.json
  conjecture-sweep  check_conjecture on seeded random graphs

One operation ("op") is one roundtrip (both commands), one pass over all
solver hosts, or one sweep graph.  Ops run back to back in one thread until
the next op would overrun ``--seconds``.  With ``--trace 0`` the run
reports the end-to-end metrics, measured with tracing off: CPU seconds of
the benchmark's thread, each rescaled by the machine speed measured around
it (see calibrate.py), so that they read as seconds on the reference
machine; the raw CPU times are printed too.  With ``--trace 1`` it runs
half as many seconds untraced, replays the same ops traced, reports
per-layer metrics per op in raw CPU seconds of this process (see
``spans.clock``) and writes every span to .bench_out/.

Every run checks its outputs: CLI exit codes and reports, solver answers
against the known-answer table, every certificate against an independent
checker, and repeat ops against the first one (file digests, node counts).
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Compile from source on every import, reading and writing no bytecode cache,
# so that set-up time does not depend on what earlier runs or tests left.
sys.dont_write_bytecode = True
sys.pycache_prefix = str(OUT / "no-pycache")

import checker  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from spans import Tracer, clock  # noqa: E402

SETUP_REPS = 9
LAYERS = ("graphs", "constructions", "certificates", "solver", "cli")
PRODUCTS = ("cartesian_product", "direct_product", "strong_product",
            "lexicographic_product")

KTS_T, KTS_S = 24, 18
SWEEP_N = (6, 7, 8)
SWEEP_P = (0.3, 0.5, 0.7)


class Toi:
    """The package's modules, imported afresh from ``src/``."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "toi" or m.startswith("toi.")]:
            del sys.modules[name]
        sys.path.insert(0, str(SRC))
        try:
            pkg = importlib.import_module("toi")
        finally:
            sys.path.remove(str(SRC))
        if not Path(pkg.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"toi was imported from {pkg.__file__}, not {SRC}")
        for layer in LAYERS:
            setattr(self, layer, importlib.import_module("toi." + layer))


class Run:
    """Outcome bookkeeping shared by all workloads."""

    def __init__(self, clock):
        self.clock = clock  # what workloads time their ops with
        self.attempted = 0
        self.failed = 0
        self.proved = 0
        self.calls = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append("FAILED: " + what)

    def op(self, ok: bool, what: str, proved: bool):
        """One command or solver call; ``proved`` when its answer is exact."""
        self.check(ok, what)
        self.calls += 1
        self.proved += proved


def cli_call(toi: Toi, argv):
    """Run ``toi.cli.main(argv)`` in process; returns (exit code, report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = toi.cli.main(argv)
    out = buf.getvalue()  # empty when the command failed with a usage error
    return rc, json.loads(out) if out else {}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- workloads --------------------------------------------------------------
#
# Each workload is a class with ``__init__(toi, seed, run)`` (the set-up:
# input generation), ``op(i)`` returning the timed seconds of op ``i``,
# ``rewind()`` so that a traced replay sees the same inputs, ``finish()``
# for the checks that span passes, returning lines for the report, and
# ``MEMORY_SHARE``, the share of its time spent walking large heaps (see
# calibrate.py).


class KtsRoundtrip:
    # About half of a roundtrip walks large heaps: the collector's passes
    # are 40-50 % of verify and parse, and text I/O builds megabyte strings.
    MEMORY_SHARE = 0.5

    def __init__(self, toi: Toi, seed: int, run: Run):
        self.toi, self.run = toi, run
        self.cert, self.graph = OUT / "kts.cert", OUT / "kts.graph"
        self.construct = ["--json", "construct", "direct-kts", "--t", str(KTS_T),
                          "--s", str(KTS_S), "-o", str(self.cert),
                          "--emit-graph", str(self.graph)]
        self.verify = ["--json", "verify", str(self.graph), str(self.cert)]
        self.digests = None
        self.construct_s: list[float] = []
        self.verify_s: list[float] = []

    def rewind(self):
        pass

    def op(self, i: int) -> float:
        clock = self.run.clock
        t0 = clock()
        rc_c, rep_c = cli_call(self.toi, self.construct)
        t1 = clock()
        rc_v, rep_v = cli_call(self.toi, self.verify)
        t2 = clock()
        self.construct_s.append(t1 - t0)
        self.verify_s.append(t2 - t1)
        ok_c = rc_c == 0 and rep_c.get("ok") is True
        digests = (sha256(self.cert), sha256(self.graph))
        if self.digests is None:
            self.digests = digests
            fault = checker.check(checker.host_edges(self.graph.read_text()),
                                  json.loads(self.cert.read_text()))
            if fault:
                ok_c = False
                self.run.notes.append("independent checker: " + fault)
        else:
            self.run.check(digests == self.digests,
                           "output bytes differ between roundtrips")
        self.run.op(ok_c, f"construct (exit {rc_c})", proved=ok_c)
        ok_v = rc_v == 0 and rep_v.get("ok") is True
        self.run.op(ok_v, f"verify (exit {rc_v})", proved=ok_v)
        return t2 - t0

    def finish(self):
        cert, graph = self.digests or ("-", "-")
        return [f"sha256 {self.cert.name} {cert}",
                f"sha256 {self.graph.name} {graph}"]


def mycielskian(toi: Toi, g):
    """Mycielski's graph of ``g``: vertex v keeps its id, its copy is n + v
    and the apex is 2n.  Solver node counts depend on this numbering."""
    n = g.n
    edges = set(g.edges)
    for u, v in g.edges:
        edges.update({(u, n + v), (v, n + u)})
    edges.update((n + i, 2 * n) for i in range(n))
    return toi.graphs.Graph(n=2 * n + 1, edges=frozenset(edges))


def build_host(toi: Toi, name: str):
    gr = toi.graphs
    kind, *args = name.split("-")
    if kind == "mycielski":
        g = gr.complete_graph(2)
        for _ in range(int(args[0]) - 2):
            g = mycielskian(toi, g)
        return g
    factors = {"K": gr.complete_graph, "C": gr.cycle_graph, "P": gr.path_graph}
    op = {"cart": gr.cartesian_product, "direct": gr.direct_product,
          "strong": gr.strong_product, "lex": gr.lexicographic_product}[kind]
    return op(*(factors[a[0]](int(a[1:])) for a in args))


def known_answers():
    with open(Path(__file__).with_name("known_answers.json")) as fh:
        return json.load(fh)["hosts"]


class SolverExact:
    MEMORY_SHARE = 0.0  # small hosts: the searches stay in the core's caches

    def __init__(self, toi: Toi, seed: int, run: Run):
        self.toi, self.run = toi, run
        self.hosts = [(h, build_host(toi, h["name"])) for h in known_answers()]
        self.host_nodes = None

    def rewind(self):
        pass

    def _solve(self, fn, g):
        clock = self.run.clock
        t0 = clock()
        result = fn(g)
        return clock() - t0, result

    def op(self, i: int) -> float:
        solver = self.toi.solver
        elapsed = 0.0
        nodes = {}
        for entry, g in self.hosts:
            name = entry["name"]
            if "toi" in entry:
                dt, res = self._solve(solver.exact_toi, g)
                elapsed += dt
                low, high = entry["toi"]
                ok = (res.status != "timeout" and res.value >= low
                      and (high is None or res.value <= high))
                fault = checker.check(g.edges, checker.certificate_doc(res.witness))
                if fault:
                    ok = False
                    self.run.notes.append(f"independent checker, {name}: {fault}")
                self.run.op(ok, f"exact_toi {name} = {res.value} ({res.status})",
                            proved=res.status == "exact")
                nodes[name] = res.nodes_explored
            dt, res = self._solve(solver.chromatic_number, g)
            elapsed += dt
            self.run.op(res.status == "exact" and res.value == entry["chi"],
                        f"chromatic_number {name} = {res.value} ({res.status})",
                        proved=res.status == "exact")
            nodes[name] = nodes.get(name, 0) + res.nodes_explored
        if self.host_nodes is None:
            self.host_nodes = nodes
        else:
            self.run.check(nodes == self.host_nodes, "node counts differ between passes")
        return elapsed

    def finish(self):
        return [f"nodes {name} {count}" for name, count in (self.host_nodes or {}).items()]


class ConjectureSweep:
    MEMORY_SHARE = 0.0  # graphs of at most 8 vertices

    def __init__(self, toi: Toi, seed: int, run: Run):
        self.toi, self.run, self.seed = toi, run, seed
        self.first_pass = None
        self.graphs = 0
        self.rewind()

    def rewind(self):
        if self.graphs:
            self.first_pass = (self.graphs, self.node_total, self.node_digest.digest())
        self.rng = random.Random(self.seed)
        self.graphs = self.node_total = 0
        # digest of every graph's node counts: constant memory at any run length
        self.node_digest = hashlib.sha256()

    def _graph(self):
        rng = self.rng
        n, p = rng.choice(SWEEP_N), rng.choice(SWEEP_P)
        edges = frozenset((u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p)
        return self.toi.graphs.Graph(n=n, edges=edges)

    def op(self, i: int) -> float:
        g = self._graph()
        clock = self.run.clock
        t0 = clock()
        rep = self.toi.solver.check_conjecture(g)
        elapsed = clock() - t0
        ok = (rep.toi.status != "timeout" and rep.chi.status != "timeout"
              and rep.satisfied is not False)
        fault = checker.check(g.edges, checker.certificate_doc(rep.toi.witness))
        if fault:
            ok = False
            self.run.notes.append(f"independent checker, graph {i}: {fault}")
        self.graphs += 1
        self.node_total += rep.toi.nodes_explored + rep.chi.nodes_explored
        self.node_digest.update(b"%d,%d;" % (rep.toi.nodes_explored, rep.chi.nodes_explored))
        self.run.op(ok, f"check_conjecture graph {i}: chi {rep.chi.value} "
                        f"({rep.chi.status}), toi {rep.toi.value} ({rep.toi.status})",
                    proved=rep.satisfied is not None)
        return elapsed

    def finish(self):
        if self.first_pass is not None:
            self.run.check(self.first_pass == (self.graphs, self.node_total,
                                               self.node_digest.digest()),
                           "node counts differ on the traced replay")
        return [f"graphs {self.graphs}", f"nodes total {self.node_total}"]


WORKLOADS = {"kts-roundtrip": KtsRoundtrip, "solver-exact": SolverExact,
             "conjecture-sweep": ConjectureSweep}


# --- measurement --------------------------------------------------------------


class Timings:
    """Timed seconds of a series of intervals, with each interval's start
    and end on the same clock, so they can be rescaled by machine speed."""

    def __init__(self):
        # compact, so that run length barely moves peak RSS
        self.seconds, self.start, self.end = array("d"), array("d"), array("d")

    def add(self, seconds: float, start: float, end: float):
        self.seconds.append(seconds)
        self.start.append(start)
        self.end.append(end)

    def __len__(self):
        return len(self.seconds)

    def normalised(self, cal: Calibrator) -> array:
        return array("d", map(cal.normalise, self.seconds, self.start, self.end))


def run_ops(work, clock, seconds: float, min_ops: int) -> Timings:
    """Run ops until the next would overrun ``seconds`` of wall time, and at
    least ``min_ops``; returns each op's timed (CPU) seconds."""
    timings = Timings()
    start = last = time.perf_counter()
    while True:
        t0 = clock()
        timed = work.op(len(timings))
        timings.add(timed, t0, clock())
        now = time.perf_counter()
        if len(timings) >= min_ops and (now - start) + (now - last) > seconds:
            return timings
        last = now


def tail(samples):
    """Highest percentile with at least ten samples beyond it, else the max."""
    if len(samples) >= 20:
        cuts = statistics.quantiles(samples, n=100)
        for pct in range(99, 49, -1):
            if sum(x > cuts[pct - 1] for x in samples) >= 10:
                return f"p{pct}", cuts[pct - 1]
    return "max", max(samples)


def end_to_end(setups, durations, run):
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    label, tail_s = tail(durations)
    n = len(durations)
    return {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)}"),
        "peak_rss_mb": (peak_rss_mb, "MB", "1"),
        "ops_per_s": (n / sum(durations), "1/s", f"{n} ops"),
        "op_p50_ms": (statistics.median(durations) * 1e3, "ms", f"{n} ops"),
        "op_tail_ms": (tail_s * 1e3, "ms", f"{label} of {n} ops"),
        "proved_share": (run.proved / run.calls, "share", f"{run.calls} calls"),
    }


def layer_targets(toi: Toi):
    """Where wrappers go: ``(module, attribute, layer, span name, observe)``,
    on the names ``toi.cli`` and ``toi.solver`` look up at call time."""

    def add(key, value):
        def observe(counts, result):
            counts[key] += value(result)
        return observe

    def routes(counts, result):
        singles, paths = result
        counts["constructions.routes"] += len(singles) + len(paths)
        counts["constructions.pattern_routes"] += len(paths)
        counts["constructions.reroutes"] += sum(
            tag.endswith("+reroute") for *_, tag in paths)

    def command(argv):
        return "main:" + next(a for a in argv if not a.startswith("-"))

    cli, solver = toi.cli, toi.solver
    return [
        (cli, "main", "cli", command, None),
        *((cli, f, "graphs", None, None) for f in ("complete_graph", *PRODUCTS)),
        (cli, "read_graph_text", "graphs", None, None),
        (cli, "write_graph_text", "graphs", None, add("graphs.text_bytes", len)),
        (cli, "direct_kts", "constructions", None, None),
        (toi.constructions, "direct_kts_routes", "constructions", None, routes),
        (cli, "verify", "certificates", None, None),
        (cli, "parse_certificate", "certificates", None, None),
        (cli, "serialize_certificate", "certificates", None,
         add("certificates.cert_bytes", len)),
        (solver, "verify", "certificates", None, None),
        (solver, "is_bipartite", "graphs", None, None),
        (solver, "check_conjecture", "solver", None, None),
        (solver, "exact_toi", "solver", None,
         add("solver.nodes", lambda r: r.nodes_explored)),
        (solver, "chromatic_number", "solver", None,
         add("solver.chi_nodes", lambda r: r.nodes_explored)),
    ]


def per_layer(tracer: Tracer, ops: int, untraced, traced, work, hosts):
    """Per-layer metrics, each per op of the traced replay."""
    own = tracer.self_times()
    by_name, by_layer, calls = {}, {}, {}
    for span, (self_s, gc_s, gc_n) in zip(tracer.spans, own):
        for table, key in ((by_name, span.name), (by_layer, span.layer)):
            acc = table.setdefault(key, [0.0, 0.0, 0])
            acc[0] += self_s
            acc[1] += gc_s
            acc[2] += gc_n
        calls[span.name] = calls.get(span.name, 0) + 1

    def self_s(*names):
        return sum(by_name.get(n, (0.0,))[0] for n in names) / ops

    counts = tracer.counts
    exact_s = self_s("exact_toi")
    m = {
        "graphs.product_s": (self_s(*PRODUCTS), "s"),
        "graphs.write_text_s": (self_s("write_graph_text"), "s"),
        "graphs.read_text_s": (self_s("read_graph_text"), "s"),
        "graphs.text_bytes": (counts["graphs.text_bytes"] / ops, "bytes"),
        "graphs.is_bipartite_s": (self_s("is_bipartite"), "s"),
        "graphs.is_bipartite_calls": (calls.get("is_bipartite", 0) / ops, "count"),
        "constructions.direct_kts_s": (self_s("direct_kts", "direct_kts_routes"), "s"),
        "constructions.routes": (counts["constructions.routes"] / ops, "count"),
        "constructions.reroute_share": (
            counts["constructions.reroutes"] / counts["constructions.pattern_routes"]
            if counts["constructions.pattern_routes"] else 0.0, "share"),
        "certificates.verify_s": (self_s("verify"), "s"),
        "certificates.verify_calls": (calls.get("verify", 0) / ops, "count"),
        "certificates.serialize_s": (self_s("serialize_certificate"), "s"),
        "certificates.parse_s": (self_s("parse_certificate"), "s"),
        "certificates.cert_bytes": (counts["certificates.cert_bytes"] / ops, "bytes"),
        "solver.exact_toi_s": (exact_s, "s"),
        "solver.nodes": (counts["solver.nodes"] / ops, "count"),
        "solver.nodes_per_s": (counts["solver.nodes"] / ops / exact_s
                               if exact_s else 0.0, "1/s"),
        "solver.chromatic_s": (self_s("chromatic_number"), "s"),
        "solver.chi_nodes": (counts["solver.chi_nodes"] / ops, "count"),
    }
    nodes = getattr(work, "host_nodes", None) or {}
    for name in hosts:
        m[f"solver.nodes.{name}"] = (nodes.get(name, 0), "count")
    m["cli.construct_self_s"] = (self_s("main:construct"), "s")
    m["cli.verify_self_s"] = (self_s("main:verify"), "s")
    cmd = {"construct": getattr(work, "construct_s", []),
           "verify": getattr(work, "verify_s", [])}
    for which, samples in cmd.items():
        # untraced command times, from the first half of the run
        m[f"cli.{which}_cmd_s"] = (statistics.median(samples[:ops]) if samples else 0.0, "s")
    for layer in LAYERS:
        acc = by_layer.get(layer, (0.0, 0.0, 0))
        m[f"{layer}.self_s"] = (acc[0] / ops, "s")
        m[f"{layer}.gc_s"] = (acc[1] / ops, "s")
        m[f"{layer}.gc_collections"] = (acc[2] / ops, "count")
    # the replay runs after the untraced ops, on a warm process, so this
    # difference also holds their warm-up and can be negative
    m["trace.overhead_s"] = ((sum(traced) - sum(untraced)) / ops, "s")
    m["trace.spans"] = (len(tracer.spans) / ops, "count")
    return {k: (v, u, f"{ops} traced ops") for k, (v, u) in m.items()}


def span_sum_check(metrics):
    """kts-roundtrip: the layers' self times add up to the two command times
    within the tracing overhead."""
    layers = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    commands = metrics["cli.construct_cmd_s"][0] + metrics["cli.verify_cmd_s"][0]
    overhead = metrics["trace.overhead_s"][0]
    verdict = "ok" if abs(layers - commands) <= abs(overhead) + 0.01 * commands else "MISMATCH"
    return (f"span sum check: layer self times {layers:.4f} s vs untraced "
            f"commands {commands:.4f} s, overhead {overhead:+.4f} s: {verdict}")


def set_up(args, clock):
    """Import the package and build the workload's inputs ``SETUP_REPS``
    times; returns the set-up timings and the last repetition's objects, or
    ``work`` None when the package cannot be imported."""
    setups = Timings()
    try:
        for _ in range(SETUP_REPS):
            run = Run(clock)
            gc.collect()  # drop the previous repetition's modules first
            t0 = clock()
            toi = Toi()
            work = WORKLOADS[args.workload](toi, args.seed, run)
            t1 = clock()
            setups.add(t1 - t0, t0, t1)
    except ImportError as exc:
        print(f"error: cannot import the toi package from {SRC}: {exc}",
              file=sys.stderr)
        return setups, None, None, None
    return setups, run, toi, work


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"]
    if args.trace == 0:
        # end-to-end pass: every time is rescaled by the machine speed
        # measured around it (see calibrate.py)
        cal = Calibrator(WORKLOADS[args.workload].MEMORY_SHARE)
        process0, thread0 = time.process_time(), time.thread_time()
        with cal.running():
            setups, run, toi, work = set_up(args, cal.now)
            if work is not None:
                durations = run_ops(work, cal.now, args.seconds, min_ops=2)
        if work is None:
            return 2
        thread_s = time.thread_time() - thread0
        run.check(time.process_time() - process0 <= 1.02 * thread_s + 0.02,
                  "the package used CPU outside the benchmark's thread, "
                  "which the thread CPU clock of calibrate.py does not count")
        metrics = end_to_end(setups.normalised(cal), durations.normalised(cal), run)
        raw = end_to_end(setups.seconds, durations.seconds, run)
        speed = statistics.median(map(cal.speed, durations.start, durations.end))
        lines.append(f"machine speed {speed:.3f} of the reference machine "
                     f"({len(cal.at)} reference blocks); raw CPU times: " +
                     ", ".join(f"{k} {raw[k][0]:.6g}" for k in
                               ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms")))
    else:
        setups, run, toi, work = set_up(args, clock)
        if work is None:
            return 2
        untraced = run_ops(work, clock, args.seconds / 2, min_ops=1).seconds
        work.rewind()
        tracer = Tracer()
        with tracer.installed(layer_targets(toi)):
            traced = []
            for i in range(len(untraced)):
                tracer.op = i
                traced.append(work.op(i))
        hosts = [h["name"] for h in known_answers()]
        metrics = per_layer(tracer, len(traced), untraced, traced, work, hosts)
        spans_file = OUT / f"spans-{args.workload}.tsv"
        tracer.write(spans_file)
        lines.append(f"spans written to {spans_file.relative_to(ROOT)}")
        if args.workload == "kts-roundtrip":
            lines.append(span_sum_check(metrics))
    lines += work.finish()
    lines += [f"{name:32s} {value:14.6f} {unit:6s} n={n}"
              for name, (value, unit, n) in metrics.items()]
    lines += run.notes[:20]
    lines.append(f"attempted {run.attempted}  failed {run.failed}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
