"""Shared test helpers: one summary line per acceptance criterion, the
translation classes of edges of K_{2t} x K_s, and the declared edge classes
of the K_{ts} route table."""

from typing import NamedTuple

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


class EdgeClass(NamedTuple):
    """Translation class of a non-terminal edge of K_{2t} x K_s."""

    parity: int   # first index of the lower-column endpoint, mod 2
    di: int       # first-index difference, lower-column endpoint minus the other
    dj: int       # column difference, always positive


def edge_class(t: int, s: int, u: int, v: int) -> EdgeClass:
    """Translation class of an edge of K_{2t} x K_s (vertex ids, row-major by s).

    Defined only on edges not joining two terminals (odd 1-based rows);
    orientation fixed by the smaller column.
    """
    i, j = divmod(u, s)
    i2, j2 = divmod(v, s)
    i, j, i2, j2 = i + 1, j + 1, i2 + 1, j2 + 1  # 1-based grid coordinates
    if not (1 <= i <= 2 * t and 1 <= i2 <= 2 * t and u != v):
        raise ValueError("not a vertex pair of the product grid")
    if i == i2 or j == j2:
        raise ValueError(f"({u}, {v}) is not a direct-product edge")
    if i % 2 == 1 and i2 % 2 == 1:
        raise ValueError(f"({u}, {v}) joins two terminals; no class defined")
    if j > j2:
        i, j, i2, j2 = i2, j2, i, j
    return EdgeClass(i % 2, i - i2, j2 - j)


def is_translation(t: int, s: int, e, e2) -> bool:
    """Whether two grid edges differ by a (2a, b) shift of both endpoints."""

    def norm(edge):
        u, v = edge
        i, j = divmod(u, s)
        i2, j2 = divmod(v, s)
        if (j, i) > (j2, i2):
            i, j, i2, j2 = i2, j2, i, j
        return i, j, i2, j2

    i, j, i2, j2 = norm(e)
    k, l, k2, l2 = norm(e2)
    return (k - i) % 2 == 0 and k - i == k2 - i2 and l - j == l2 - j2


def kts_declared_classes(t, s, cells):
    """Edge classes ``(parity, row diff, column diff)`` of the route of every
    ``direct_kts_routes`` tag, for the terminal pair ``cells`` (1-based grid
    cells, lower terminal first) in K_{2t} x K_s."""
    (i, j), (i2, j2) = cells
    i, i2 = (i + 1) // 2, (i2 + 1) // 2  # back to clique row indices
    d = abs(j2 - j)
    z = i2 - i
    # col-adjacent-wrap-high: lower row 2t-5 (up = 0) or 2t-3 (up = 1),
    # column s-1 (c = 0) or s (c = 1); s = 5 and s = 6 differ in one cell
    up, c = int(i == t - 1), int(j == s)
    wrap_high = {
        (5, 0, 0): [(0, 7 - 2 * t, 2), (0, -2, 3), (1, 2 * t - 7, 1)],
        (5, 1, 0): [(0, 5 - 2 * t, 2), (0, -4, 1), (0, 7 - 2 * t, 1)],
        (6, 1, 0): [(0, 5 - 2 * t, 3), (0, -2, 4), (1, 2 * t - 5, 1)],
    }.get((s, up, c), [(0, 7 - 2 * t - 2 * up, s - 3 + 2 * c),
                       (0, -2, 2 + up),
                       (0, 7 - 2 * t - 2 * up, s - 5 - up + 2 * c)])
    return {
        "row": [(1, -1, d), (0, 2, d), (0, 3, d)],
        "row-wrap": [(1, -1, d), (0, 2 - 2 * t, d), (0, 3 - 2 * t, d)],
        "col-adjacent": [(1, -3, 2), (0, -2, 1), (1, 1, 1)],
        "col-adjacent-wrap-low": [(0, 1, 1), (0, 6, s - 3), (0, 5, s - 2)],
        "col-adjacent-wrap-high": wrap_high,
        "col-skip": [(1, -(2 * z + 1), 1), (0, 2 * z, 1), (1, 2 * z - 1, 2)],
        "col-skip-wrap-a": [(1, -(2 * z + 1), 1), (0, -2 * z, s - 1),
                            (0, 1 - 2 * z, s - 2)],
        "col-skip-wrap-b": [(0, 2 * z + 1, s - 1), (0, 2 * z, 1),
                            (0, 1 - 2 * z, s - 2)],
        "col-skip-extreme": [(0, 2 * t - 1, 1), (0, -6, 1), (0, -5, 2)],
    }
