"""Shared test helpers: one summary line per acceptance criterion, and the
declared edge classes of the K_{ts} route table."""

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


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
