"""Staircase boards, non-attacking rook placements, and the extended chain.

The board of height m has cells (r, c) with r, c >= 0 and r + c <= m - 1:
column c holds rows 0..m-1-c, so column heights step down m, m-1, ..., 1
and one further column is void. A rook at (r, c) encodes a particle with
remaining flight time r and elapsed flight time c; the exclusion rule makes
placements non-attacking (distinct rows, distinct columns).

Extended dynamics: every rook drifts (r, c) -> (r - 1, c + 1) unless the
bottom row holds a rook, in which case that rook is removed, the rest
drift, and the removed rook re-enters column 0 at a random row.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from itertools import accumulate, chain, combinations
from math import prod

from .qcomb import Scalar, gould_stirling
from .jep import BoundedGeometric, State, _check_size, truncated_geometric_pmf

Cell = tuple[int, int]
RookConfig = tuple[Cell, ...]

__all__ = [
    "Cell",
    "RookConfig",
    "validate_config",
    "enumerate_configs",
    "circ",
    "circ_histogram",
    "extensions",
    "row_projection",
    "extended_kernel_row",
    "extended_distribution",
    "extended_ground",
    "path_to_ground",
]


def validate_config(m: int, rooks: RookConfig) -> None:
    """Raise ValueError unless ``rooks`` is a non-attacking placement on the
    board of height m."""
    rows = [r for r, _ in rooks]
    cols = [c for _, c in rooks]
    if len(set(rows)) != len(rooks) or len(set(cols)) != len(rooks):
        raise ValueError(f"attacking placement: {rooks}")
    for r, c in rooks:
        if not (r >= 0 and c >= 0 and r + c <= m - 1):
            raise ValueError(f"cell {(r, c)} off the board of height {m}")


def enumerate_configs(m: int, n: int) -> list[RookConfig]:
    """All placements of n non-attacking rooks on the board of height m,
    sorted lexicographically by (row, column) cell lists."""
    return sorted(config for config, _ in _placements_with_circ(m, n))


def circ(m: int, rooks: RookConfig) -> int:
    """The circle statistic of a placement.

    Each rook disables every cell strictly to its left in its own row and
    every cell strictly below it in its own column; the statistic counts
    the surviving non-rook cells in rows that contain a rook: read from the
    top row down, a rook at (r, c) adds the columns in (c, m-1-r] that no
    higher rook holds. (The related inversion statistic that also circles
    cells in rook-free rows is a different quantity, not implemented.)
    """
    validate_config(m, rooks)
    taken: set[int] = set()
    count = 0
    for r, c in sorted(rooks, reverse=True):
        count += sum(col not in taken for col in range(c + 1, m - r))
        taken.add(c)
    return count


def circ_histogram(m: int, n: int) -> dict[int, int]:
    """How many placements of n rooks on the board of height m have each circ value, in increasing
    circ order, counted over groups of partial placements with no placement listed. Its generating
    sum in q is the Gould triangle value G[m+1, m-n+1]."""
    _check_placements(m, n)
    groups = {(0, 0): 1}  # (used columns as a bitmask, circ so far): one key, one set of completions
    for r in range(m - 1, -1, -1):  # from the top row down, by the rule of `circ`
        above, groups = groups, {}
        for (used, value), count in above.items():
            if used.bit_count() + r >= n:  # the r rows below can still take the rooks left
                groups[used, value] = groups.get((used, value), 0) + count
            for c in range(m - 1 - r, -1, -1) if used.bit_count() < n else ():
                if not used >> c & 1:
                    groups[used | 1 << c, value] = groups.get((used | 1 << c, value), 0) + count
                    value += 1  # the column is free and right of every later choice
    histogram = Counter()
    for (_, value), count in groups.items():
        histogram[value] += count
    return dict(sorted(histogram.items()))


def extensions(heights: State, m: int) -> list[RookConfig]:
    """All placements whose rook rows equal ``heights``: every consistent assignment of elapsed
    flight times to these remaining flight times. Row r, j-th from the top, has m-r-j choices."""
    _check_size(prod(m - r - j for j, r in enumerate(sorted(heights, reverse=True))), "extension set")
    return sorted(config for config, _ in _extensions_with_circ(heights, m))


def _check_placements(m: int, n: int) -> None:
    """Check 0 <= n <= m, then the cap on the S(m+1, m+1-n) placements of n rooks, board height m."""
    if not 0 <= n <= m:
        raise ValueError(f"need 0 <= n <= m, got m={m} n={n}")
    column = [1] + [0] * n  # S(j+i, j) for i = 0..n at j = 0: only the cells that reach S(m+1, m+1-n)
    for j in range(1, m + 2 - n):  # S(j+i, j) = S(j+i-1, j-1) + j S(j+i-1, j): O(m min(n, m+1-n))
        column = list(accumulate(column, lambda above, left: j * above + left))
    _check_size(column[n], "extended state space")


def _placements_with_circ(m: int, n: int) -> Iterator[tuple[RookConfig, int]]:
    """Every placement of n rooks on the board of height m, with its circ, one row set's list
    at a time. It checks n and then the cap when called, before any placement is walked."""
    _check_placements(m, n)
    return chain.from_iterable(_extensions_with_circ(rows, m) for rows in combinations(range(m), n))


def _extensions_with_circ(heights: State, m: int) -> list[tuple[RookConfig, int]]:
    """Every placement whose rook rows equal ``heights``, with its circ by the rule of `circ`,
    grown a row at a time from the top: (placement, used columns as a bitmask, circ so far). Its
    callers check the cap, on the whole walk's size or, in `extensions`, on this set's."""
    if len(set(heights)) != len(heights) or not all(0 <= h < m for h in heights):
        raise ValueError(f"heights {heights} must be distinct rows of the board of height {m}")
    level = [((), 0, 0)]
    for r in sorted(heights, reverse=True):
        cells = [(((r, c),), 1 << c) for c in range(m - 1 - r, -1, -1)]
        grown = []
        for acc, used, count in level:
            for cell, bit in cells:
                if not used & bit:
                    grown.append((cell + acc, used | bit, count))
                    count += 1  # the column is free and right of every later choice
        level = grown
    return [(acc, count) for acc, _, count in level]


def row_projection(rooks: RookConfig) -> State:
    """Forget elapsed flight times: the height set occupied by the rooks."""
    return tuple(sorted(r for r, _ in rooks))


def _successors(m: int, rooks: RookConfig) -> list[RookConfig]:
    """The placements one extended step can reach from a placement sorted by row. With no
    rook in the bottom row that is the lone drift; otherwise the bottom rook re-enters column
    0 in each row left free by the drift, lowest row first. Drifting keeps the row order, and
    row - k drifted rooks lie below the k-th free row (from 0), so each successor is sorted."""
    drifted = tuple((r - 1, c + 1) for r, c in rooks if r > 0)
    if len(drifted) == len(rooks):
        return [drifted]
    occupied = {r for r, _ in drifted}
    free = [row for row in range(m) if row not in occupied]
    return [drifted[: row - k] + ((row, 0),) + drifted[row - k :] for k, row in enumerate(free)]


def extended_kernel_row(m: int, rooks: RookConfig, q: Scalar) -> dict[RookConfig, Scalar]:
    """One row of the extended kernel.

    With no rook in the bottom row the step is a deterministic drift.
    Otherwise the bottom rook is removed, the rest drift, and the rook
    re-enters column 0: the k-th available row counting from the bottom is
    hit with truncated-geometric probability proportional to q^k, which is
    uniform at q = 1.
    """
    validate_config(m, rooks)
    return _extended_rows(m, len(rooks), [tuple(sorted(rooks))], q)[0]


def _extended_rows(m: int, n: int, configs: list[RookConfig], q: Scalar) -> list[dict]:
    """`extended_kernel_row` for n rooks: 1 or m - n + 1 successors, each law built once."""
    laws = {k: truncated_geometric_pmf(k, q) for k in (1, m - n + 1)}
    return [dict(zip(s, laws[len(s)])) for s in (_successors(m, c) for c in configs)]


def extended_distribution(m: int, n: int, q: Scalar) -> dict[RookConfig, Scalar]:
    """The extended stationary law over `enumerate_configs(m, n)`: each weight q^(-circ)
    divided by one Gould triangle value G[m+1, m-n+1] at base 1/q. After n and the cap, q
    is checked by `BoundedGeometric`, so an int q gives Fractions."""
    walk = _placements_with_circ(m, n)  # checks the cap before the triangle work
    q = BoundedGeometric(m, n, q).q
    z = gould_stirling(m + 1, m - n + 1, 1 / q)
    return {c: q**-v / z for c, v in sorted(walk)}


def extended_ground(n: int) -> RookConfig:
    """The diagonal placement (i, n-1-i): the fixed point of always
    throwing to the lowest available height."""
    return tuple((i, n - 1 - i) for i in range(n))


def path_to_ground(m: int, rooks: RookConfig) -> list[RookConfig]:
    """Drive the extended chain deterministically, always throwing to the
    lowest available row, until the ground diagonal is reached.

    Returns the visited path including both endpoints; raises RuntimeError
    if the ground is not reached within (m + 1)(m + 2) steps.
    """
    validate_config(m, rooks)
    ground = extended_ground(len(rooks))
    max_steps = (m + 1) * (m + 2)
    path = [tuple(sorted(rooks))]
    for _ in range(max_steps + 1):
        if path[-1] == ground:
            return path
        path.append(_successors(m, path[-1])[0])
    raise RuntimeError(f"ground not reached from {rooks} within {max_steps} steps")
