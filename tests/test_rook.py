from fractions import Fraction as F

import pytest

from jepq.jep import BoundedGeometric, stationary_distribution
from jepq.qcomb import gould_stirling, q_int
from jepq.rook import (
    circ,
    circ_histogram,
    enumerate_configs,
    extended_distribution,
    extended_ground,
    extended_kernel_row,
    extensions,
    path_to_ground,
    row_projection,
    validate_config,
)

QS = (F(1, 3), F(1, 2), F(2, 3))
# the extended chain also runs at q = 1, where throws are uniform
EXT_QS = (*QS, F(1))


def classical_stirling(a, b):
    if b < 0 or b > a:
        return 0
    row = [1]
    for r in range(a):
        row = [
            (row[j - 1] if j >= 1 else 0) + (j * row[j] if j <= r else 0)
            for j in range(r + 2)
        ]
    return row[b]


def on_board(m, r, c):
    """Whether one rook at (r, c) is a placement on the board of height m."""
    try:
        validate_config(m, ((r, c),))
    except ValueError:
        return False
    return True


def test_board_geometry():
    for m in range(7):
        cells = [(r, c) for r in range(m + 1) for c in range(m + 1) if on_board(m, r, c)]
        assert len(cells) == m * (m + 1) // 2
        assert not on_board(m, 0, m)
        assert not on_board(m, -1, 0)


def test_validate_config():
    validate_config(3, ((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        validate_config(3, ((0, 0), (0, 1)))  # shared row
    with pytest.raises(ValueError):
        validate_config(3, ((0, 0), (1, 0)))  # shared column
    with pytest.raises(ValueError):
        validate_config(2, ((1, 1),))  # off the staircase


def test_enumerate_configs_counts():
    assert enumerate_configs(2, 1) == [((0, 0),), ((0, 1),), ((1, 0),)]
    assert enumerate_configs(4, 0) == [()]
    assert len(enumerate_configs(6, 3)) == 350
    for m in range(8):
        for n in range(m + 1):
            assert len(enumerate_configs(m, n)) == classical_stirling(m + 1, m + 1 - n)


def test_enumerate_configs_are_distinct_placements():
    for m in range(7):
        for n in range(m + 1):
            configs = enumerate_configs(m, n)
            assert configs == sorted(set(configs))
            for config in configs:
                validate_config(m, config)
                assert len(config) == n


def blocker_circ(m, rooks):
    """The circle statistic by its definition: right of each rook in its
    row, count the cells whose column holds no rook above this one."""
    col_of_row = {r: c for r, c in rooks}
    row_of_col = {c: r for r, c in rooks}
    count = 0
    for r, rook_c in col_of_row.items():
        for c in range(rook_c + 1, m - r):
            blocker = row_of_col.get(c)
            if blocker is not None and blocker > r:
                continue
            count += 1
    return count


def test_circ_matches_blocker_definition():
    from jepq.rook import _placements_with_circ

    for m in range(8):
        for n in range(m + 1):
            pairs = list(_placements_with_circ(m, n))
            assert sorted(config for config, _ in pairs) == enumerate_configs(m, n)
            for config, value in pairs:
                assert value == circ(m, config) == blocker_circ(m, config)


def recursive_extensions_with_circ(heights, m):
    """The placement walk as a recursive generator over frozensets of used
    columns, rows filled from the top down: the walk the row-by-row one replaced."""
    rows = sorted(heights, reverse=True)

    def assign(i, used, acc, count):
        if i == len(rows):
            yield acc, count
            return
        r = rows[i]
        for c in range(m - 1 - r, -1, -1):
            if c not in used:
                yield from assign(i + 1, used | {c}, ((r, c),) + acc, count)
                count += 1

    yield from assign(0, frozenset(), (), 0)


def test_walk_matches_recursive_walk():
    from itertools import combinations

    from jepq.rook import _extensions_with_circ, _placements_with_circ

    # the same pairs in the same order
    for m in range(9):
        for n in range(m + 1):
            reference = [
                pair
                for rows in combinations(range(m), n)
                for pair in recursive_extensions_with_circ(rows, m)
            ]
            assert list(_placements_with_circ(m, n)) == reference
    for m in range(8):
        for n in range(m + 1):
            for heights in combinations(range(m), n):
                for order in (heights, heights[::-1]):
                    expected = list(recursive_extensions_with_circ(order, m))
                    assert list(_extensions_with_circ(order, m)) == expected


def test_walk_rejects_bad_heights_when_called():
    from jepq.rook import _extensions_with_circ, _placements_with_circ

    for heights, m in (((3,), 3), ((-1,), 3), ((1, 1), 3), ((0, 2, 0), 4)):
        with pytest.raises(ValueError):
            _extensions_with_circ(heights, m)
    for m, n in ((3, 4), (3, -1)):
        with pytest.raises(ValueError):
            _placements_with_circ(m, n)


def test_circ_examples():
    assert circ(2, ((1, 0),)) == 0
    assert circ(2, ((0, 0),)) == 1
    assert circ(2, ((0, 1),)) == 0
    # diagonal ground state has no surviving cells to its right
    for n in range(1, 5):
        assert circ(n, extended_ground(n)) == 0


@pytest.mark.parametrize("q", QS)
def test_circ_sum_is_gould(q):
    for m in range(8):
        for n in range(m + 1):
            total = sum(q ** circ(m, c) for c in enumerate_configs(m, n))
            assert total == gould_stirling(m + 1, m - n + 1, q)


def test_circ_histogram():
    assert circ_histogram(2, 1) == {0: 2, 1: 1}
    assert circ_histogram(0, 0) == {0: 1}
    for m in range(7):
        for n in range(m + 1):
            histogram = circ_histogram(m, n)
            assert list(histogram) == sorted(histogram)
            counted: dict = {}
            for c in enumerate_configs(m, n):
                counted[circ(m, c)] = counted.get(circ(m, c), 0) + 1
            assert histogram == counted


def test_circ_histogram_counts_the_walk():
    from collections import Counter

    from jepq.rook import _placements_with_circ

    # the walk lists every placement; the count merges partial placements by used columns
    for m in range(10):
        for n in range(m + 1):
            walked = Counter(value for _, value in _placements_with_circ(m, n))
            histogram = circ_histogram(m, n)
            assert list(histogram.items()) == sorted(walked.items()), (m, n)


def test_circ_histogram_checks_without_the_walk(monkeypatch):
    from collections import Counter

    from jepq import rook

    def walk(m, n):
        raise AssertionError("circ_histogram walked the placements")

    walked = Counter(value for _, value in rook._placements_with_circ(4, 2))
    monkeypatch.setattr(rook, "_placements_with_circ", walk)
    assert circ_histogram(4, 2) == walked
    with pytest.raises(ValueError, match="^need 0 <= n <= m, got m=3 n=4$"):
        circ_histogram(3, 4)
    monkeypatch.setenv("JEPQ_STATE_CAP", "100")
    with pytest.raises(ValueError, match="^extended state space size 42525 exceeds cap 100$"):
        circ_histogram(9, 5)


def test_placement_count_is_the_q1_gould_value(monkeypatch):
    from jepq import rook

    counts = []
    monkeypatch.setattr(rook, "_check_size", lambda count, kind: counts.append((count, kind)))
    for m in range(41):
        for n in range(m + 1):
            counts.clear()
            rook._check_placements(m, n)
            assert counts == [(gould_stirling(m + 1, m + 1 - n, 1), "extended state space")], (m, n)


def test_extensions_examples():
    assert extensions((0,), 2) == [((0, 0),), ((0, 1),)]
    for m in range(1, 8):
        for x in range(m):
            assert len(extensions((x,), m)) == m - x
    # a full staircase forces the diagonal
    for n in range(1, 6):
        assert extensions(tuple(range(n)), n) == [extended_ground(n)]


@pytest.mark.parametrize("q", QS)
def test_extension_sum_identity(q):
    from itertools import combinations

    for m in range(1, 8):
        for n in range(m + 1):
            for heights in combinations(range(m), n):
                exts = extensions(heights, m)
                assert all(row_projection(c) == heights for c in exts)
                total = sum(q ** -circ(m, c) for c in exts)
                product = F(1)
                for k, x in enumerate(heights, start=1):
                    product *= q_int(m - n - x + k, 1 / q)
                assert total == product


def test_extended_kernel_examples():
    q = F(1, 2)
    assert extended_kernel_row(2, ((1, 0),), q) == {((0, 1),): 1}
    assert extended_kernel_row(2, ((0, 1),), q) == {
        ((0, 0),): 1 / (1 + q),
        ((1, 0),): q / (1 + q),
    }
    assert extended_kernel_row(3, (), q) == {(): 1}


@pytest.mark.parametrize("q", EXT_QS)
def test_extended_kernel_rows_stochastic(q):
    for m in range(1, 7):
        for n in range(m + 1):
            for config in enumerate_configs(m, n):
                assert sum(extended_kernel_row(m, config, q).values()) == 1


@pytest.mark.parametrize("q", EXT_QS)
def test_extended_kernel_projects_to_base_kernel(q):
    from jepq.jep import step_kernel_row

    for m in range(1, 7):
        for n in range(1, m + 1):
            model = BoundedGeometric(m, n, q)
            for config in enumerate_configs(m, n):
                projected: dict = {}
                for succ, p in extended_kernel_row(m, config, q).items():
                    key = row_projection(succ)
                    projected[key] = projected.get(key, 0) + p
                assert projected == step_kernel_row(row_projection(config), model)


def test_extended_weight_anchor():
    q = F(1, 2)
    weights = {c: q ** -circ(2, c) for c in enumerate_configs(2, 1)}
    assert sorted(weights.values()) == [1, 1, 2]
    assert gould_stirling(3, 2, 1 / q) == 4
    probs = extended_distribution(2, 1, q)
    assert probs.keys() == weights.keys()
    assert sum(probs.values()) == 1
    assert probs[((0, 0),)] == F(1, 2)


def test_extended_law_reads_q_as_the_bounded_model_does():
    for q in (0, 2):
        with pytest.raises(ValueError, match=f"^need 0 < q <= 1, got q={q}$"):
            extended_distribution(2, 1, q)
    law = extended_distribution(3, 1, 1)
    assert law == extended_distribution(3, 1, F(1))
    assert {type(p) for p in law.values()} == {F}


@pytest.mark.parametrize("q", EXT_QS)
def test_extended_stationarity_and_projection(q):
    from jepq.oracle import build_extended_matrix

    for m in range(1, 7):
        for n in range(m + 1):
            tm = build_extended_matrix(m, n, q)
            mu = extended_distribution(m, n, q)
            assert list(mu) == tm.states
            assert sum(mu.values()) == 1
            assert tm.push(mu) == mu
            if q == 1:
                assert set(mu.values()) == {F(1, classical_stirling(m + 1, m + 1 - n))}
            if n:
                marginal: dict = {}
                for config, p in mu.items():
                    key = row_projection(config)
                    marginal[key] = marginal.get(key, 0) + p
                assert marginal == stationary_distribution(BoundedGeometric(m, n, q))


def test_ground_reachable_from_everywhere():
    for m in range(1, 7):
        for n in range(m + 1):
            for config in enumerate_configs(m, n):
                path = path_to_ground(m, config)
                assert path[-1] == extended_ground(n)
    # the ground is a fixed point of the lowest-throw dynamics
    for n in range(1, 6):
        path = path_to_ground(n + 2, extended_ground(n))
        assert path == [extended_ground(n)]


def test_cell_order_of_the_input_does_not_matter():
    # successors are built in row order from the canonical placement
    q = F(1, 2)
    for m in range(1, 6):
        for n in range(2, m + 1):
            for config in enumerate_configs(m, n):
                shuffled = config[::-1]
                assert list(extended_kernel_row(m, shuffled, q).items()) == list(
                    extended_kernel_row(m, config, q).items()
                )
                assert path_to_ground(m, shuffled) == path_to_ground(m, config)
