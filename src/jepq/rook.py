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
from itertools import combinations

from .qcomb import Scalar, gould_stirling
from .jep import State, truncated_geometric_pmf

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


def _canonical(cells) -> RookConfig:
    return tuple(sorted(cells))


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
    """How many placements of n rooks on the board of height m have each
    circ value, in increasing circ order. Its generating sum in q is the
    Gould triangle value G[m+1, m-n+1]."""
    return dict(sorted(Counter(value for _, value in _placements_with_circ(m, n)).items()))


def extensions(heights: State, m: int) -> list[RookConfig]:
    """All placements whose rook rows equal ``heights``: every consistent
    assignment of elapsed flight times to the given remaining flight times."""
    return sorted(config for config, _ in _extensions_with_circ(heights, m))


def _placements_with_circ(m: int, n: int) -> Iterator[tuple[RookConfig, int]]:
    """Every placement of n rooks on the board of height m, with its circ."""
    if not 0 <= n <= m:
        raise ValueError(f"need 0 <= n <= m, got m={m} n={n}")
    for rows in combinations(range(m), n):
        yield from _extensions_with_circ(rows, m)


def _extensions_with_circ(heights: State, m: int) -> Iterator[tuple[RookConfig, int]]:
    """Every placement whose rook rows equal ``heights``, with its circ,
    summed by the rule of `circ` as the rows are filled from the top down."""
    if any(h < 0 or h > m - 1 for h in heights):
        raise ValueError(f"heights {heights} out of range for board height {m}")
    if len(set(heights)) != len(heights):
        raise ValueError(f"heights must be distinct, got {heights}")
    rows = sorted(heights, reverse=True)

    def assign(i: int, used: frozenset, acc: RookConfig, count: int):
        if i == len(rows):
            yield acc, count
            return
        r = rows[i]
        for c in range(m - 1 - r, -1, -1):
            if c not in used:
                yield from assign(i + 1, used | {c}, ((r, c),) + acc, count)
                count += 1  # c is free and right of every later choice

    yield from assign(0, frozenset(), (), 0)


def row_projection(rooks: RookConfig) -> State:
    """Forget elapsed flight times: the height set occupied by the rooks."""
    return tuple(sorted(r for r, _ in rooks))


def _successors(m: int, rooks: RookConfig) -> list[RookConfig]:
    """The placements one extended step can reach. With no rook in the
    bottom row that is the lone drift; otherwise the bottom rook re-enters
    column 0 in each row left free by the drift, lowest row first."""
    drifted = _canonical((r - 1, c + 1) for r, c in rooks if r > 0)
    if len(drifted) == len(rooks):
        return [drifted]
    occupied = {r for r, _ in drifted}
    return [_canonical(drifted + ((row, 0),)) for row in range(m) if row not in occupied]


def extended_kernel_row(m: int, rooks: RookConfig, q: Scalar) -> dict[RookConfig, Scalar]:
    """One row of the extended kernel.

    With no rook in the bottom row the step is a deterministic drift.
    Otherwise the bottom rook is removed, the rest drift, and the rook
    re-enters column 0: the k-th available row counting from the bottom is
    hit with truncated-geometric probability proportional to q^k, which is
    uniform at q = 1.
    """
    validate_config(m, rooks)
    return _extended_rows(m, len(rooks), [rooks], q)[0]


def _extended_rows(m: int, n: int, configs: list[RookConfig], q: Scalar) -> list[dict]:
    """`extended_kernel_row` for n rooks: 1 or m - n + 1 successors, each law built once."""
    laws = {k: truncated_geometric_pmf(k, q) for k in (1, m - n + 1)}
    return [dict(zip(s, laws[len(s)])) for s in (_successors(m, c) for c in configs)]


def extended_distribution(m: int, n: int, q: Scalar) -> dict[RookConfig, Scalar]:
    """The extended stationary law over `enumerate_configs(m, n)`: each
    weight q^(-circ) divided by one Gould triangle value G[m+1, m-n+1] at
    base 1/q."""
    z = gould_stirling(m + 1, m - n + 1, 1 / q)
    return {c: q**-v / z for c, v in sorted(_placements_with_circ(m, n))}


def extended_ground(n: int) -> RookConfig:
    """The diagonal placement (i, n-1-i): the fixed point of always
    throwing to the lowest available height."""
    return _canonical((i, n - 1 - i) for i in range(n))


def path_to_ground(m: int, rooks: RookConfig) -> list[RookConfig]:
    """Drive the extended chain deterministically, always throwing to the
    lowest available row, until the ground diagonal is reached.

    Returns the visited path including both endpoints; raises RuntimeError
    if the ground is not reached within (m + 1)(m + 2) steps.
    """
    validate_config(m, rooks)
    ground = extended_ground(len(rooks))
    max_steps = (m + 1) * (m + 2)
    path = [rooks]
    for _ in range(max_steps + 1):
        if path[-1] == ground:
            return path
        path.append(_successors(m, path[-1])[0])
    raise RuntimeError(f"ground not reached from {rooks} within {max_steps} steps")
