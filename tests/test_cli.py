"""Command-line interface: exit codes, file round-trips, stable JSON."""

import gc
import json
from pathlib import Path

import pytest

import toi.cli
from toi.certificates import (
    Certificate,
    Route,
    identity_certificate,
    parse_certificate,
    serialize_certificate,
    verify,
)
from toi.cli import main
from toi.constructions import direct_kts
from toi.graphs import (
    cartesian_product,
    complete_graph,
    cycle_graph,
    path_graph,
    read_graph_text,
    write_graph_text,
)


@pytest.fixture
def files(tmp_path):
    def write(name, g):
        p = tmp_path / name
        p.write_text(write_graph_text(g))
        return str(p)

    return {
        "k2": write("k2.graph", complete_graph(2)),
        "k3": write("k3.graph", complete_graph(3)),
        "k4": write("k4.graph", complete_graph(4)),
        "c5": write("c5.graph", cycle_graph(5)),
        "p3": write("p3.graph", path_graph(3)),
        "dir": tmp_path,
    }


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- product ---------------------------------------------------------------

def test_product_round_trip(capsys, files):
    out = str(files["dir"] / "prod.graph")
    code, stdout, _ = run(capsys, "product", "--op", "cartesian",
                          files["k3"], files["k3"], "-o", out)
    assert code == 0
    assert "9 vertices, 18 edges" in stdout
    got = read_graph_text(Path(out).read_text())
    want = cartesian_product(complete_graph(3), complete_graph(3))
    assert got.edges == want.edges and got.labels == want.labels


def test_product_direct_k2(capsys, files):
    out = str(files["dir"] / "d.graph")
    code, stdout, _ = run(capsys, "--json", "product", "--op", "direct",
                          files["k2"], files["k2"], "-o", out)
    assert code == 0
    assert json.loads(stdout)["edges"] == 2


def test_product_missing_file(capsys, files):
    code, _, err = run(capsys, "product", "--op", "direct",
                       "/nonexistent.graph", files["k2"], "-o",
                       str(files["dir"] / "x.graph"))
    assert code == 2
    assert "error" in err


def test_bad_graph_file(capsys, files, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("p toi nonsense\n")
    code, _, err = run(capsys, "product", "--op", "strong",
                       str(bad), files["k2"], "-o",
                       str(files["dir"] / "x.graph"))
    assert code == 2


def test_duplicate_edge_graph_file(capsys, files, tmp_path):
    dup = tmp_path / "dup.graph"
    dup.write_text("p toi 3 2\ne 0 1\ne 0 1\n")
    code, _, err = run(capsys, "solve", str(dup))
    assert code == 2
    assert "duplicate edge" in err


# --- verify ----------------------------------------------------------------

def _make_identity_cert(files, capsys):
    cert_path = str(files["dir"] / "k4.cert")
    code, _, _ = run(capsys, "construct", "cart-large",
                     "--g", files["k2"], "--h", files["k4"],
                     "-o", cert_path)
    assert code == 0
    return cert_path


def test_verify_pass_and_fail(capsys, files):
    host_path = str(files["dir"] / "host.graph")
    cert_path = str(files["dir"] / "c.cert")
    assert run(capsys, "construct", "cart-large", "--g", files["k2"],
               "--h", files["k4"], "-o", cert_path,
               "--emit-graph", host_path)[0] == 0
    code, stdout, _ = run(capsys, "verify", host_path, cert_path,
                          "--require", "totally-odd-strong")
    assert code == 0
    assert "result: PASS" in stdout

    # mutate one route to even length
    cert = parse_certificate(Path(cert_path).read_text())
    pair = next(iter(cert.connections))
    conns = dict(cert.connections)
    verts = conns[pair].vertices
    host = read_graph_text(Path(host_path).read_text())
    nbr = next(w for w in host.adjacency[verts[-2]]
               if w not in (verts[-1], verts[0]))
    conns[pair] = Route(verts[:-1] + (nbr, verts[-1]))
    bad = Certificate(cert.clique_size, cert.terminals, conns)
    bad_path = str(files["dir"] / "bad.cert")
    with open(bad_path, "w") as fh:
        fh.write(serialize_certificate(bad))
    code, stdout, _ = run(capsys, "--json", "verify", host_path, bad_path)
    assert code == 1
    assert json.loads(stdout)["flags"]["all_odd"] is False


def test_verify_truncated_json(capsys, files, tmp_path):
    bad = tmp_path / "trunc.cert"
    bad.write_text('{"clique_size": 2, "terminals"')
    code, _, err = run(capsys, "verify", files["k4"], str(bad))
    assert code == 2


def test_verify_cert_for_other_graph(capsys, files):
    cert_path = str(files["dir"] / "big.cert")
    assert run(capsys, "construct", "direct-kts", "--t", "6", "--s", "5",
               "-o", cert_path)[0] == 0
    code, _, err = run(capsys, "verify", files["k4"], cert_path)
    assert code == 2


# --- construct ---------------------------------------------------------------

def test_construct_direct_kts(capsys, files):
    cert_path = str(files["dir"] / "kts.cert")
    graph_path = str(files["dir"] / "kts.graph")
    code, stdout, _ = run(capsys, "--json", "construct", "direct-kts",
                          "--t", "6", "--s", "5", "-o", cert_path,
                          "--emit-graph", graph_path)
    assert code == 0
    rep = json.loads(stdout)
    assert rep["clique_size"] == 30
    assert rep["host_vertices"] == 60 and rep["host_edges"] == 1320
    assert all(rep["flags"].values())
    # end-to-end: verify accepts what construct wrote
    assert run(capsys, "verify", graph_path, cert_path)[0] == 0


def test_construct_cart_32_end_to_end(capsys, files):
    cert_path = str(files["dir"] / "c32.cert")
    graph_path = str(files["dir"] / "c32.graph")
    code, _, _ = run(capsys, "construct", "cart-32",
                     "--g", files["c5"], "--h", files["p3"],
                     "-o", cert_path, "--emit-graph", graph_path)
    assert code == 0
    assert run(capsys, "verify", graph_path, cert_path)[0] == 0


def test_construct_cart_large_small_s(capsys, files):
    code, _, err = run(capsys, "construct", "cart-large",
                       "--g", files["k3"], "--h", files["k3"],
                       "-o", str(files["dir"] / "x.cert"))
    assert code == 2
    assert "requires s >= 4" in err


def test_construct_direct_kts_small(capsys, files):
    code, _, err = run(capsys, "construct", "direct-kts",
                       "--t", "3", "--s", "5",
                       "-o", str(files["dir"] / "x.cert"))
    assert code == 2
    assert "t >= 6" in err


@pytest.mark.parametrize("t, s", [(2, 2000), (-1, 5), (6, 0)])
def test_construct_direct_kts_checks_sizes_before_the_host(capsys, files,
                                                           monkeypatch, t, s):
    def no_host(g, h):
        raise AssertionError("host built before t and s were checked")

    # (2, 2000) would ask for a host with about 24 million edges
    monkeypatch.setattr(toi.cli, "direct_product", no_host)
    code, stdout, err = run(capsys, "construct", "direct-kts",
                            "--t", str(t), "--s", str(s),
                            "-o", str(files["dir"] / "x.cert"))
    assert code == 2
    assert stdout == ""
    assert err == "error: requires t >= 6 and s >= 5\n"


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_construct_self_verification_failure_writes_nothing(
        capsys, files, monkeypatch, as_json):
    def broken_kts(t, s):
        # the single (0, 6) becomes a two-edge, even route
        cert = direct_kts(t, s)
        return Certificate(cert.clique_size, cert.terminals,
                           {**cert.connections, (0, 6): Route((0, 7, 11))})

    monkeypatch.setattr(toi.cli, "direct_kts", broken_kts)
    out = files["dir"] / "x.cert"
    graph = files["dir"] / "x.graph"
    code, stdout, _ = run(capsys, *(["--json"] if as_json else []),
                          "construct", "direct-kts", "--t", "6", "--s", "5",
                          "-o", str(out), "--emit-graph", str(graph))
    assert code == 1
    if as_json:
        rep = json.loads(stdout)
        assert (rep["ok"], rep["output"], rep["graph_output"]) == (
            False, None, None)
    else:
        assert "self-verification failed: " in stdout
        assert stdout.endswith("result: FAIL\n")
    assert not out.exists() and not graph.exists()


def test_construct_incomplete_factor_needs_cert(capsys, files):
    code, _, err = run(capsys, "construct", "cart-large",
                       "--g", files["c5"], "--h", files["k4"],
                       "-o", str(files["dir"] / "x.cert"))
    assert code == 2
    assert "not complete" in err


def test_construct_cart_33_with_solver_cert(capsys, files):
    # solver witness as factor certificate
    from toi.certificates import serialize_certificate
    from toi.solver import exact_toi

    res = exact_toi(cycle_graph(5))
    cert_path = str(files["dir"] / "c5.cert")
    with open(cert_path, "w") as fh:
        fh.write(serialize_certificate(res.witness))
    out = str(files["dir"] / "c33.cert")
    code, _, _ = run(capsys, "construct", "cart-33",
                     "--g", files["c5"], "--g-cert", cert_path,
                     "--h", files["c5"], "--h-cert", cert_path,
                     "-o", out)
    assert code == 0
    host = cartesian_product(cycle_graph(5), cycle_graph(5))
    assert verify(host, parse_certificate(Path(out).read_text())).all_ok


def test_construct_direct_lift_cli(capsys, files):
    from toi.certificates import serialize_certificate
    from toi.graphs import direct_product
    from toi.solver import exact_toi

    base = exact_toi(direct_product(complete_graph(3),
                                    complete_graph(3))).witness
    base_path = str(files["dir"] / "base.cert")
    with open(base_path, "w") as fh:
        fh.write(serialize_certificate(base))
    out = str(files["dir"] / "lift.cert")
    code, stdout, _ = run(capsys, "--json", "construct", "direct-lift",
                          "--g", files["k3"], "--h", files["k3"],
                          "--base", base_path, "-o", out)
    assert code == 0
    rep = json.loads(stdout)
    assert rep["clique_size"] == base.clique_size
    assert rep["flags"]["all_odd"] and rep["flags"]["edge_disjoint"]


# --- solve and check-conjecture ---------------------------------------------

def test_solve_k3_cartesian_k3(capsys, files, tmp_path):
    prod = str(tmp_path / "p.graph")
    run(capsys, "product", "--op", "cartesian", files["k3"], files["k3"],
        "-o", prod)
    wit = str(tmp_path / "w.cert")
    code, stdout, _ = run(capsys, "--json", "solve", prod, "--witness", wit)
    assert code == 0
    rep = json.loads(stdout)
    assert rep["value"] == 4 and rep["status"] == "exact"
    host = read_graph_text(Path(prod).read_text())
    assert verify(host, parse_certificate(Path(wit).read_text())).all_ok


def test_solve_timeout_exit_code(capsys, files):
    code, stdout, _ = run(capsys, "--json", "solve", files["k4"],
                          "--nodes", "2")
    assert code == 1
    assert json.loads(stdout)["status"] == "timeout"


def test_solve_rejects_nonpositive_max_t(capsys, files):
    code, stdout, err = run(capsys, "solve", files["k4"], "--max-t", "0")
    assert code == 2
    assert stdout == ""
    assert "--max-t" in err


@pytest.mark.parametrize("command", ["solve", "check-conjecture"])
def test_nan_time_limit_is_a_usage_error(capsys, files, command):
    code, stdout, err = run(capsys, command, files["k4"], "--time-limit", "nan")
    assert code == 2
    assert stdout == ""
    assert err == "error: time_limit must be positive\n"


@pytest.mark.parametrize("argv, message", [
    (["solve", "{empty}"], "graph must be nonempty"),
    (["check-conjecture", "{empty}"], "graph must be nonempty"),
    (["product", "--op", "direct", "{empty}", "{k2}", "-o", "{dir}/x.graph"],
     "product factors must be nonempty"),
    (["construct", "cart-large", "--g", "{empty}", "--h", "{k4}",
      "-o", "{dir}/x.graph"], "factor graph {empty} is empty"),
    (["construct", "cart-33", "--g", "{k3}", "--h", "{empty}",
      "-o", "{dir}/x.graph"], "factor graph {empty} is empty"),
    (["construct", "direct-lift", "--g", "{empty}", "--h", "{k3}",
      "--base", "{dir}/none.cert", "-o", "{dir}/x.graph"],
     "factor graph {empty} is empty"),
    (["construct", "cart-32", "--g", "{c5}", "--h", "{empty}",
      "-o", "{dir}/x.graph"], "product factors must be nonempty"),
], ids=["solve", "check-conjecture", "product", "cart-large", "cart-33",
        "direct-lift", "cart-32"])
def test_empty_graph_is_a_usage_error(capsys, files, argv, message):
    empty = files["dir"] / "empty.graph"
    empty.write_text("p toi 0 0\n")
    code, stdout, err = run(capsys, *(a.format(empty=empty, **files)
                                      for a in argv))
    assert (code, stdout, err) == (2, "", f"error: {message.format(empty=empty)}\n")
    assert not (files["dir"] / "x.graph").exists()


@pytest.mark.parametrize("argv, message", [
    (["verify", "{k4}", "{dir}/missing.cert"],
     "cannot read certificate file {dir}/missing.cert: "
     "[Errno 2] No such file or directory: '{dir}/missing.cert'"),
    (["product", "--op", "direct", "{k2}", "{k2}", "-o", "{dir}/no/x.graph"],
     "cannot write {dir}/no/x.graph: "
     "[Errno 2] No such file or directory: '{dir}/no/x.graph'"),
], ids=["unreadable-cert", "unwritable-output"])
def test_missing_file_is_a_usage_error(capsys, files, argv, message):
    code, stdout, err = run(capsys, *(a.format(**files) for a in argv))
    assert (code, stdout, err) == (2, "", f"error: {message.format(**files)}\n")


def test_construct_rejects_a_factor_certificate_that_fails(capsys, files):
    # a K_3 certificate of K_3 whose (0, 2) route is even and runs
    # through terminal 1
    bad = identity_certificate(complete_graph(3))
    bad = Certificate(3, bad.terminals,
                      {**bad.connections, (0, 2): Route((0, 1, 2))})
    cert_path = files["dir"] / "bad.cert"
    cert_path.write_text(serialize_certificate(bad))
    out = files["dir"] / "x.cert"
    code, stdout, err = run(capsys, "construct", "cart-33",
                            "--g", files["k3"], "--g-cert", str(cert_path),
                            "--h", files["k3"], "-o", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: factor certificate {cert_path}: ")
    assert not out.exists()


def test_check_conjecture_c5(capsys, files):
    code, stdout, _ = run(capsys, "--json", "check-conjecture", files["c5"])
    assert code == 0
    rep = json.loads(stdout)
    assert rep["chi"]["value"] == 3 and rep["toi"]["value"] == 3
    assert rep["satisfied"] is True


def test_check_conjecture_writes_both_witnesses(capsys, files):
    # the DSATUR colouring in the report and the K_k certificate in a file
    wit = str(files["dir"] / "w.cert")
    code, stdout, _ = run(capsys, "--json", "check-conjecture", files["c5"],
                          "--witness", wit)
    assert code == 0
    rep = json.loads(stdout)
    assert rep["chi"] == {"value": 3, "status": "upper-bound-only",
                          "colouring": [0, 1, 0, 1, 2]}
    assert rep["toi"] == {"value": 3, "status": "exact", "witness": wit}
    host = cycle_graph(5)
    colouring = rep["chi"]["colouring"]
    assert all(colouring[u] != colouring[v] for u, v in host.edges)
    cert = parse_certificate(Path(wit).read_text())
    assert cert.clique_size == 3 and verify(host, cert).all_ok
    code, stdout, _ = run(capsys, "check-conjecture", files["c5"],
                          "--witness", wit)
    assert stdout.splitlines()[-1] == f"wrote witness {wit}"


def test_check_conjecture_timeout_is_indeterminate(capsys, files):
    code, stdout, _ = run(capsys, "--json", "check-conjecture", files["k4"],
                          "--nodes", "2")
    assert code == 1
    assert json.loads(stdout)["satisfied"] is None


# --- determinism and JSON stability -----------------------------------------

def test_reruns_byte_identical(capsys, files):
    a = run(capsys, "--json", "construct", "direct-kts", "--t", "6",
            "--s", "5", "-o", str(files["dir"] / "a.cert"))
    b = run(capsys, "--json", "construct", "direct-kts", "--t", "6",
            "--s", "5", "-o", str(files["dir"] / "b.cert"))
    assert a[1].replace("a.cert", "b.cert") == b[1]
    assert (files["dir"] / "a.cert").read_text() == \
        (files["dir"] / "b.cert").read_text()


def test_json_schema_stable(capsys, files):
    code, stdout, _ = run(capsys, "--json", "check-conjecture", files["k2"])
    assert code == 0
    assert sorted(json.loads(stdout)) == ["chi", "command", "satisfied", "toi"]


# --- collector pause ----------------------------------------------------------

@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("outcome", ["return", "usage-error", "exception"])
def test_main_leaves_collector_state_as_found(capsys, files, monkeypatch,
                                              enabled, outcome):
    during = []

    def spy(g):
        during.append(gc.isenabled())
        if outcome == "exception":
            raise RuntimeError("escapes the command")
        return write_graph_text(g)

    monkeypatch.setattr(toi.cli, "write_graph_text", spy)
    first = "/nonexistent.graph" if outcome == "usage-error" else files["k2"]
    argv = ["product", "--op", "direct", first, files["k2"],
            "-o", str(files["dir"] / "x.graph")]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if outcome == "exception":
            with pytest.raises(RuntimeError):
                main(argv)
        else:
            assert main(argv) == (0 if outcome == "return" else 2)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    # the command itself ran with the collector paused
    assert during == ([] if outcome == "usage-error" else [False])


@pytest.mark.parametrize("argv, code", [
    (["product", "--op", "direct", "{k2}", "{k3}", "-o", "{dir}/x.graph"], 0),
    (["construct", "cart-32", "--g", "{c5}", "--h", "{p3}", "-o", "{dir}/x.cert"],
     0),
    (["verify", "{k3}", "{dir}/k3.cert"], 0),
    (["solve", "{k3}"], 0),
    (["solve", "{k4}", "--nodes", "2"], 1),
    (["check-conjecture", "{k3}"], 0),
], ids=["product", "construct", "verify", "solve", "solve-timeout",
        "check-conjecture"])
def test_every_command_runs_paused(capsys, files, monkeypatch, argv, code):
    (files["dir"] / "k3.cert").write_text(
        serialize_certificate(identity_certificate(complete_graph(3))))
    during = []
    real = toi.cli.read_graph_text

    def spy(text):
        during.append(gc.isenabled())
        return real(text)

    monkeypatch.setattr(toi.cli, "read_graph_text", spy)
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        assert main([a.format(**files) for a in argv]) == code
        assert gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()
    assert during and set(during) == {False}
