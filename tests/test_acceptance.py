"""Acceptance suite: one test per criterion, exact where the contract is
exact, with the stated statistical tolerances where it is not. Run with
``pytest -v tests/test_acceptance.py`` to get one line per criterion.

Criteria that a `verify` check covers on the same grid assert on one
``run_checks(max_m=8)`` result, by check name, next to their anchor
values; `tests/test_verify.py` shows that each of those checks can fail.
"""

import time
from fractions import Fraction as F
from itertools import combinations

import pytest

from jepq.jep import (
    BoundedGeometric,
    closed_form_stats,
    stationary_distribution,
    stationary_prob,
)
from jepq.mc import coupled_simulate, empirical_distribution, simulate
from jepq.oracle import (
    limit_rows_fixed_n,
    limit_rows_growing_n,
    total_variation,
    tv_to_unbounded,
)
from jepq.qcomb import euler_phi, partition_z, q_int
from jepq.rook import enumerate_configs
from jepq.verify import run_checks

GRID_QS = (F(1, 3), F(1, 2), F(2, 3))


def report(number, text):
    print(f"[PASS] criterion {number}: {text}")


@pytest.fixture(scope="module")
def checks():
    """The `verify` suites over m <= 8, by check name, plus their wall time.
    The solver cross-check and `tv-bounds` run at q in GRID_QS; the
    equalities hold for every q."""
    start = time.time()
    results = run_checks(max_m=8, qs=GRID_QS)
    elapsed = time.time() - start
    return {r.name: r for r in results}, elapsed


def passed(checks, name):
    result = checks[0][name]
    assert result.passed, result.detail
    return result.detail


def test_criterion_01_closed_form_equals_exact_solve(checks):
    # m <= 8, every n, q in GRID_QS and q = 1
    detail = passed(checks, "stationary-vs-solver")
    elapsed = checks[1]
    assert elapsed < 60
    report(1, f"{detail} (all checks {elapsed:.1f}s)")


def test_criterion_02_weight_sums_equal_normalizer(checks):
    for q in GRID_QS:
        assert partition_z(2, 1, q) == 1 + 2 * q
        assert partition_z(3, 2, q) == q + 3 * q**2 + 3 * q**3
    # weight sums against Z for m <= 8, every n, every q
    report(2, passed(checks, "normalization"))


def test_criterion_03_circ_sums_match_gould_triangle(checks):
    assert len(enumerate_configs(6, 3)) == 350
    # placement counts and circ sums against Gould for m <= 8, every n
    report(3, passed(checks, "circ-statistic"))


def test_criterion_04_extension_sums_and_index_products(checks):
    # extension sums against the vacancy products for m <= 8
    passed(checks, "extension-sums")
    # the vacancy product rewrites as an index product through m = 10
    for m in range(1, 11):
        for n in range(m + 1):
            for heights in combinations(range(m), n):
                for q in GRID_QS:
                    direct = F(1)
                    indexed = F(1)
                    for k, x in enumerate(heights, start=1):
                        vacant = sum(1 for h in range(x, m) if h not in heights)
                        direct *= q_int(1 + vacant, 1 / q)
                        indexed *= q_int(m - n - x + k, 1 / q)
                    assert direct == indexed, (heights, m, q)
    report(4, "extension sums match the vacancy products (m<=8), index form exact to m=10")


def test_criterion_05_extended_chain_stationary_and_projects(checks):
    # normalized, stationary and projecting to the base law for m <= 6
    report(5, passed(checks, "extended-chain"))


def test_criterion_06_balance_residuals_vanish(checks):
    # bounded m <= 8, every n; unbounded n <= 3 at heights <= 10
    report(6, passed(checks, "balance-residuals"))


def test_criterion_07_closed_form_statistics(checks):
    for q in GRID_QS:
        for m in range(1, 9):
            for n in range(1, m + 1):
                model = BoundedGeometric(m, n, q)
                stats = closed_form_stats(m, n, q)
                ground = tuple(range(n))
                top = tuple(range(m - n, m))
                assert stats.ground == stationary_prob(ground, model)
                assert stats.top == stationary_prob(top, model)
    # the throw fraction against direct summation for m <= 8, every n
    passed(checks, "throw-fraction")
    literal = closed_form_stats(3, 2, F(1, 2)).throw_fraction_uncorrected
    assert literal == F(24, 13) > 1
    report(7, f"ground/top/throw-fraction forms exact; uncorrected form hits {literal} > 1 at (3,2,1/2)")


def test_criterion_08_tv_bound_chain():
    smallest = {}
    for q in (F(1, 3), F(1, 2)):
        for n in (1, 2, 3):
            previous = None
            for m in range(n, n + 13):
                row = tv_to_unbounded(m, n, q)
                assert 0 <= row.tv <= row.bound_exact <= row.bound_simple, (m, n, q)
                if previous is not None:
                    assert row.tv <= previous
                previous = row.tv
            key = q
            smallest[key] = min(smallest.get(key, F(1)), previous)
    # within each q's tabulated range the distance drops below 1e-3
    for q, value in smallest.items():
        assert value < F(1, 1000), (q, value)
    # the distance between the geometric law and its truncation is exactly q^ell
    for q in (F(1, 3), F(1, 2)):
        for ell in (1, 2, 4, 8):
            trunc = {x: (1 - q) * q**x / (1 - q**ell) for x in range(ell)}
            ceiling = ell + 6
            geo = {x: (1 - q) * q**x for x in range(ceiling)}
            assert total_variation(geo, trunc, mu_tail=q**ceiling) == q**ell
    report(8, "exact TV respects both bounds, decays below 1e-3, truncation distance exact")


def test_criterion_09_limit_formulas_float_mode():
    for n in (2, 3):
        rows = limit_rows_fixed_n(n, 0.5, range(n, 41))
        for row in rows:
            bound = row.m * 0.5 ** (row.m - row.n + 1)
            assert abs(row.value - row.target) <= bound + 1e-8, (row.m, n)
    # with m = 2n the ground probability approaches the Euler product
    rows = limit_rows_growing_n(0.5, range(1, 26))
    phi = euler_phi(0.5)
    assert abs(rows[-1].value - phi) < 1e-6
    # the uncorrected display converges to twice the target at n = 2, not to it
    last = limit_rows_fixed_n(2, 0.5, [40])[0]
    assert abs(last.value_uncorrected - 2 * last.target) < 1e-6
    assert abs(last.value_uncorrected - last.target) > 0.3
    report(9, "limit formulas verified in float mode to m=40 and n=25; uncorrected form diverges")


def test_criterion_10_monte_carlo():
    start = time.time()
    exact_model = BoundedGeometric(6, 3, F(1, 2))
    traj = simulate(BoundedGeometric(6, 3, 0.5), (0, 1, 2), 10**6, seed=20260808)
    emp = empirical_distribution(traj, burn_in=1000)
    exact = {s: float(p) for s, p in stationary_distribution(exact_model).items()}
    tv = total_variation(emp, exact)
    assert tv < 0.02
    stats = closed_form_stats(6, 3, F(1, 2))
    assert abs(traj.throw_fraction - float(stats.throw_fraction)) < 0.01
    replicas = 10_000
    agree = sum(
        coupled_simulate(8, 3, F(1, 2), (0, 1, 2), 8, seed=31337, stream=i).first_decouple_step
        is None
        for i in range(replicas)
    )
    target = (1 - 0.5**6) ** 8
    assert abs(agree / replicas - target) < 0.02
    elapsed = time.time() - start
    assert elapsed < 120
    report(10, f"seeded simulation matches the exact law (tv={tv:.4f}) in {elapsed:.0f}s")


def test_criterion_11_uniform_model(checks):
    # the uniform law is the bounded law at q = 1, solved for m <= 8
    detail = passed(checks, "stationary-vs-solver")
    assert "q=1" in detail
    report(11, "uniform law equals the exact solve at q = 1")
