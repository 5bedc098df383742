import math
import random
from fractions import Fraction as F
from time import perf_counter

import pytest

from jepq import oracle
from jepq.jep import (
    BoundedGeometric,
    BoundedUniform,
    UnboundedGeometric,
    _unbounded_probs,
    enumerate_states,
    stationary_distribution,
    stationary_prob,
)
from jepq.oracle import (
    ConvergenceRow,
    LimitRow,
    TransitionMatrix,
    build_extended_matrix,
    build_transition_matrix,
    limit_rows_fixed_n,
    limit_rows_growing_n,
    solve_stationary,
    total_variation,
    tv_to_unbounded,
)
from jepq.qcomb import binom2, euler_phi, q_int, q_pochhammer, scaled_partition_z

QS = (F(1, 3), F(1, 2), F(2, 3))


def test_build_matrix_anchor():
    q = F(1, 2)
    tm = build_transition_matrix(BoundedGeometric(2, 1, q))
    assert tm.states == [(0,), (1,)]
    assert tm.rows == [{(0,): 1 / (1 + q), (1,): q / (1 + q)}, {(0,): 1}]
    uni = build_transition_matrix(BoundedUniform(2, 1))
    assert uni.rows == [{(0,): F(1, 2), (1,): F(1, 2)}, {(0,): 1}]


def test_build_matrix_rejections():
    with pytest.raises(ValueError):
        build_transition_matrix(UnboundedGeometric(2, F(1, 2)))
    # C(30, 15) states and S(11, 6) = 179487 placements exceed the default cap
    with pytest.raises(ValueError):
        build_transition_matrix(BoundedGeometric(30, 15, F(1, 2)))
    with pytest.raises(ValueError):
        build_extended_matrix(10, 5, F(1, 2))


@pytest.mark.parametrize("q", QS)
def test_rows_sum_to_one(q):
    for m in range(1, 9):
        for n in range(m + 1):
            tm = build_transition_matrix(BoundedGeometric(m, n, q))
            assert all(sum(row.values()) == 1 for row in tm.rows)


def test_integer_kernels_equal_the_row_definitions():
    from jepq.jep import step_kernel_row
    from jepq.rook import extended_kernel_row

    def assert_integer_rows(tm):
        scale, scaled = oracle._scaled(tm)
        assert type(scale) is int and len(scaled) == len(tm)
        assert all(min(row.values()) > 0 and sum(row.values()) == scale for row in scaled)

    for q in (*QS, F(1)):
        for m in range(1, 9):
            for n in range(m + 1):
                model = BoundedGeometric(m, n, q)
                tm = build_transition_matrix(model)
                assert_integer_rows(tm)
                assert tm.rows == [step_kernel_row(s, model) for s in tm.states]
                if m <= 6:
                    tm = build_extended_matrix(m, n, q)
                    assert_integer_rows(tm)
                    assert tm.rows == [extended_kernel_row(m, c, q) for c in tm.states]
    for tm in (build_transition_matrix(BoundedGeometric(4, 2, 0.3)), build_extended_matrix(4, 2, 0.3)):
        assert not tm.is_exact()
        with pytest.raises(ValueError, match="^solve_stationary needs an exact kernel"):
            solve_stationary(tm)


def test_solve_anchors():
    q = F(1, 2)
    pi = solve_stationary(build_transition_matrix(BoundedGeometric(2, 1, q)))
    assert pi == {(0,): F(3, 4), (1,): F(1, 4)}
    pi32 = solve_stationary(build_transition_matrix(BoundedGeometric(3, 2, q)))
    total = (1 + q) ** 2 + q * (1 + q) + q**2
    assert pi32 == {
        (0, 1): (1 + q) ** 2 / total,
        (0, 2): q * (1 + q) / total,
        (1, 2): q**2 / total,
    }


def test_solve_residual_is_zero():
    q = F(2, 3)
    tm = build_transition_matrix(BoundedGeometric(5, 2, q))
    pi = solve_stationary(tm)
    assert tm.push(pi) == pi
    assert sum(pi.values()) == 1


def assert_exact_law(pi):
    # Fractions in lowest terms that sum to exactly 1
    assert all(type(p) is F and math.gcd(p.numerator, p.denominator) == 1 for p in pi.values())
    assert sum(pi.values()) == 1


@pytest.mark.parametrize("q", (F(1, 3), F(2, 3), F(1)))
def test_integer_back_substitution_matches_closed_form(q):
    model = BoundedGeometric(9, 4, q)
    pi = solve_stationary(build_transition_matrix(model))
    assert pi == stationary_distribution(model)
    assert list(pi) == enumerate_states(9, 4)
    assert_exact_law(pi)


def test_solve_rejects_float_kernel():
    float_kernel = build_transition_matrix(BoundedGeometric(6, 3, 0.5))
    assert not float_kernel.is_exact()
    with pytest.raises(ValueError, match="exact kernel"):
        solve_stationary(float_kernel)
    # the same chain at the exact q solves to the closed form
    model = BoundedGeometric(6, 3, F(1, 2))
    assert solve_stationary(build_transition_matrix(model)) == stationary_distribution(model)


def test_solve_rejects_reducible_kernel():
    # two absorbing states: every mixture of them is stationary
    tm = TransitionMatrix(["a", "b"], [{"a": 1}, {"b": 1}])
    with pytest.raises(ValueError, match="irreducible"):
        solve_stationary(tm)


def test_solve_hand_built_kernel():
    # a non-reversible chain with self-loops; balance at states 1, 2, 3
    # reads pi1 = 4/9 pi0, pi2 = 9/8 pi1 and pi3 = pi0/6 + pi2/3
    rows = [
        {0: F(1, 2), 1: F(1, 3), 3: F(1, 6)},
        {1: F(1, 4), 2: F(3, 4)},
        {0: F(1, 3), 2: F(1, 3), 3: F(1, 3)},
        {0: F(1)},
    ]
    tm = TransitionMatrix([0, 1, 2, 3], rows)
    pi = solve_stationary(tm)
    assert pi == {0: F(18, 41), 1: F(8, 41), 2: F(9, 41), 3: F(6, 41)}
    assert list(pi) == [0, 1, 2, 3]
    assert all(type(p) is F for p in pi.values())
    assert tm.push(pi) == pi
    assert_exact_law(pi)


def test_solve_accepts_mixed_int_and_fraction_rows():
    tm = TransitionMatrix(["x", "y"], [{"x": 0, "y": 1}, {"x": F(1, 3), "y": F(2, 3)}])
    pi = solve_stationary(tm)
    assert pi == {"x": F(1, 4), "y": F(3, 4)}
    assert_exact_law(pi)


def fraction_free_solve(tm):
    """The state reduction over integer rows that the modular solve replaced: each
    fold scales row i by the exit mass and divides by a gcd, so entries stay exact."""
    n = len(tm)
    rows, dens = [], []
    holders = [set() for _ in range(n)]
    for i, row in enumerate(tm.rows):
        entries = {tm.pos[succ]: p for succ, p in row.items() if p}
        d = math.lcm(*(p.denominator for p in entries.values()))
        rows.append({j: p.numerator * (d // p.denominator) for j, p in entries.items()})
        dens.append(d)
        for j in entries:
            if j > i:
                holders[j].add(i)
    into = [[] for _ in range(n)]
    for k in range(n - 1, 0, -1):
        row_k = rows[k]
        row_k.pop(k, None)
        s = sum(row_k.values())
        assert s > 0
        for i in holders[k]:
            entry = rows[i].pop(k)
            into[k].append((i, F(entry * dens[k], dens[i] * s)))
            h = math.gcd(s, entry)
            scale, entry, den = s // h, entry // h, dens[i] * (s // h)
            row_i = {j: scale * v for j, v in rows[i].items()}
            for j, v in row_k.items():
                row_i[j] = row_i.get(j, 0) + entry * v
                if j > i:
                    holders[j].add(i)
            g = math.gcd(den, *row_i.values())
            rows[i] = {j: v // g for j, v in row_i.items()}
            dens[i] = den // g
    pi = [F(1)] * n
    for k in range(1, n):
        pi[k] = sum(pi[i] * ratio for i, ratio in into[k])
    total = sum(pi)
    return {state: p / total for p, state in zip(pi, tm.states)}


@pytest.fixture
def primes_tried(monkeypatch):
    """The exponents e of the primes 2^e - 1 that each solve tries, in order."""
    tried = []
    certified_weights = oracle._certified_weights

    def spy(rows, dens, p):
        tried.append(p.bit_length())
        return certified_weights(rows, dens, p)

    monkeypatch.setattr(oracle, "_certified_weights", spy)
    return tried


def test_exit_mass_divisible_by_the_first_prime(primes_tried):
    big = 2**127 - 1
    # state 1 leaves with probability P/(P+1), which is 0 mod P
    tm = TransitionMatrix([0, 1], [{0: F(1, 2), 1: F(1, 2)}, {0: F(big, big + 1), 1: F(1, big + 1)}])
    pi = solve_stationary(tm)
    assert pi == {0: F(2 * big, 3 * big + 1), 1: F(big + 1, 3 * big + 1)}
    assert tm.push(pi) == pi
    assert primes_tried == [127, 521]
    # a denominator that P divides moves the solve on the same way
    primes_tried.clear()
    tm = TransitionMatrix([0, 1], [{0: F(1, big), 1: F(big - 1, big)}, {0: F(1)}])
    assert solve_stationary(tm) == {0: F(big, 2 * big - 1), 1: F(big - 1, 2 * big - 1)}
    assert primes_tried == [127, 521]


@pytest.mark.parametrize(
    "m, n, q, primes",
    [
        (11, 5, F(37, 100), [127, 521]),  # its weights do not reconstruct mod 2^127 - 1
        (12, 6, F(1, 2), [127]),  # 924 states
    ],
)
def test_solve_matches_closed_form_at_size(m, n, q, primes, primes_tried):
    model = BoundedGeometric(m, n, q)
    assert solve_stationary(build_transition_matrix(model)) == stationary_distribution(model)
    assert primes_tried == primes


def test_uncertified_weights_are_never_returned(monkeypatch, primes_tried):
    # pi_1 / pi_0 = 3/2, so the weights need a reconstructed denominator
    tm = TransitionMatrix([0, 1], [{0: F(1, 2), 1: F(1, 2)}, {0: F(1, 3), 1: F(2, 3)}])
    denominator = oracle._denominator
    monkeypatch.setattr(oracle, "_denominator", lambda y, p, bound: denominator(y, p, bound) + 1)
    with pytest.raises(ValueError, match="no prime in the ladder certifies"):
        solve_stationary(tm)
    assert primes_tried == list(oracle._MERSENNE_EXPONENTS)
    # a prime too narrow for the weights: each reconstruction is small but wrong, and N P = N
    # rejects the weights
    monkeypatch.setattr(oracle, "_denominator", denominator)
    monkeypatch.setattr(oracle, "_MERSENNE_EXPONENTS", (13,))
    with pytest.raises(ValueError, match="no prime in the ladder certifies"):
        solve_stationary(build_transition_matrix(BoundedGeometric(6, 3, F(1, 2))))
    monkeypatch.setattr(oracle, "_MERSENNE_EXPONENTS", (13, 127))
    assert solve_stationary(tm) == {0: F(2, 5), 1: F(3, 5)}


def random_kernel(rng, size):
    # a cycle through every state keeps it irreducible; other entries are random
    rows = []
    for i in range(size):
        support = {(i + 1) % size} | set(rng.sample(range(size), rng.randint(0, size)))
        weights = {j: F(rng.randint(1, 10**rng.randint(1, 30)), rng.randint(1, 99)) for j in support}
        total = sum(weights.values())
        rows.append({j: w / total for j, w in weights.items()})
    return TransitionMatrix(list(range(size)), rows)


def test_random_kernels_match_fraction_free_reference():
    rng = random.Random(20131)
    for _ in range(150):
        tm = random_kernel(rng, rng.randint(1, 8))
        pi = solve_stationary(tm)
        assert pi == fraction_free_solve(tm)
        assert list(pi) == tm.states
        assert_exact_law(pi)


def test_certificate_agrees_with_one_exact_step():
    rng = random.Random(2813)
    for size in range(1, 9):
        tm = random_kernel(rng, size)
        law = solve_stationary(tm)
        assert oracle._is_stationary(tm, law)
        assert tm.push(law) == law
        if size > 1:  # one unit of numerator over the law's lcm moved from the last state to the first
            unit = F(1, math.lcm(*(p.denominator for p in law.values())))
            moved = {**law, 0: law[0] + unit, size - 1: law[size - 1] - unit}
            assert sum(moved.values()) == 1 and min(moved.values()) >= 0
            assert not oracle._is_stationary(tm, moved) and tm.push(moved) != moved
        assert not oracle._is_stationary(tm, {s: p for s, p in law.items() if s != size - 1})
        assert not oracle._is_stationary(tm, {**law, "extra": F(0)})
    float_kernel = build_transition_matrix(BoundedGeometric(4, 2, 0.5))
    with pytest.raises(ValueError) as solved:
        solve_stationary(float_kernel)
    with pytest.raises(ValueError) as certified:
        oracle._is_stationary(float_kernel, {s: 0.5 for s in float_kernel.states})
    assert str(certified.value) == str(solved.value)


def _halved(tm, i):
    """tm with row i halved, so that it no longer sums to 1."""
    return TransitionMatrix(tm.states, [{s: p / 2 for s, p in row.items()} if j == i else row
                                        for j, row in enumerate(tm.rows)])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: TransitionMatrix(["x", "y"], [{"x": 1}]), "one row per state required"),
        (lambda: TransitionMatrix(["x", "x"], [{"x": 1}, {"x": 1}]), "duplicate states"),
        (lambda: solve_stationary(TransitionMatrix([], [])), "empty state space"),
        (lambda: solve_stationary(TransitionMatrix(["x"], [{"y": 1}])), "successor 'y' is not a state"),
        (lambda: solve_stationary(TransitionMatrix(["x", "y"], [{"x": F(3, 2), "y": F(-1, 2)},
                                                               {"x": F(1)}])),
         "the row of 'x' is not a probability law"),  # a negative entry in a row that sums to 1
        (lambda: solve_stationary(_halved(TransitionMatrix(["x", "y"], [{"y": F(1)}, {"x": F(1)}]), 1)),
         "the row of 'y' is not a probability law"),
        (lambda: total_variation({"a": F(1)}, {"a": F(1)}, nu_tail=F(-1, 2)), "negative tail mass"),
    ],
)
def test_bad_arguments_are_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_halved_row_is_refused_before_the_first_prime(primes_tried):
    tm = _halved(build_transition_matrix(BoundedGeometric(6, 3, F(1, 2))), 0)
    start = perf_counter()
    with pytest.raises(ValueError, match=r"^the row of \(0, 1, 2\) is not a probability law$"):
        solve_stationary(tm)
    assert perf_counter() - start < 0.1
    assert primes_tried == []


def test_total_variation_basics():
    assert total_variation({"a": F(1)}, {"a": F(1)}) == 0
    assert total_variation({"a": F(1)}, {"b": F(1)}) == 1
    # exact int inputs stay exact, and a float sum is halved bit for bit
    tv = total_variation({1: 1}, {2: 1})
    assert tv == 1 and type(tv) is F
    assert total_variation({1: 0.1}, {2: 0.7}).hex() == ((0.1 + 0.7) / 2).hex()
    with pytest.raises(ValueError):
        total_variation({"a": F(-1, 2)}, {})
    mu = {0: F(1, 2), 1: F(1, 2)}
    nu = {0: F(1, 4), 1: F(1, 4)}
    assert total_variation(mu, nu, nu_tail=F(1, 2)) == F(1, 2)


@pytest.mark.parametrize("q", QS)
def test_total_variation_metric_properties(q):
    a = {s: stationary_prob(s, BoundedGeometric(4, 2, q)) for s in enumerate_states(4, 2)}
    b = {s: stationary_prob(s, BoundedUniform(4, 2)) for s in enumerate_states(4, 2)}
    c = {s: F(1, 6) for s in enumerate_states(4, 2)}
    assert total_variation(a, b) == total_variation(b, a)
    assert total_variation(a, c) <= total_variation(a, b) + total_variation(b, c)
    assert total_variation(a, a) == 0


def test_geometric_truncation_distance():
    for q in QS:
        for ell in (1, 2, 3, 5):
            trunc = {x: (1 - q) * q**x / (1 - q**ell) for x in range(ell)}
            ceiling = ell + 4
            geo = {x: (1 - q) * q**x for x in range(ceiling)}
            assert total_variation(geo, trunc, mu_tail=q**ceiling) == q**ell


def test_tv_single_state_case():
    for n in (1, 2, 3):
        for q in QS:
            row = tv_to_unbounded(n, n, q)
            assert row.tv == 1 - q_pochhammer(n, q)


def test_tv_bound_chain_and_decay():
    for q in (F(1, 3), F(1, 2)):
        smallest = F(1)
        for n in (1, 2, 3):
            rows = [tv_to_unbounded(m, n, q) for m in range(n, n + 13)]
            for row in rows:
                assert 0 <= row.tv <= row.bound_exact <= row.bound_simple
            # monotone decrease along the tabulated range
            for a, b in zip(rows, rows[1:]):
                assert b.tv <= a.tv
            smallest = min(smallest, rows[-1].tv)
        # the tabulated distances drop below 1e-3 within each q's grid
        # (at q = 1/2 the n = 3 column alone bottoms out at ~1.05e-3)
        assert smallest < F(1, 1000)


def test_tv_specific_bound_instance():
    row = tv_to_unbounded(20, 3, F(1, 2))
    assert row.tv <= 20 * F(1, 2) ** 18


def reference_tv(m, n, q):
    """The distance summed over the two laws' dicts, as `tv_to_unbounded` did before
    it cross-multiplied in integers."""
    mu = stationary_distribution(BoundedGeometric(m, n, q))
    nu = _unbounded_probs(UnboundedGeometric(n, q), mu)
    return total_variation(mu, nu, nu_tail=1 - sum(nu.values()))


@pytest.mark.parametrize("q", (F(1, 3), F(1, 2), F(2, 3), F(9, 10)))
def test_integer_tv_matches_fraction_reference(q):
    for n in range(5):
        for m in range(n, n + 9):
            tv = tv_to_unbounded(m, n, q).tv
            assert tv == reference_tv(m, n, q) and type(tv) is F


def test_integer_tv_matches_fraction_reference_at_tiny_q():
    q = F(1e-320)
    for n in (1, 2):
        for m in range(max(3, n), 6):
            assert tv_to_unbounded(m, n, q).tv == reference_tv(m, n, q)


@pytest.mark.parametrize("q", (0.3, 0.37, 0.5, 0.9, 0.999))
def test_float_tv_matches_exact_tv(q):
    # the exact TV at the float's own dyadic value, from TV near 1 down to 1e-30
    for n in range(6):
        for m in range(n, n + 41):
            if math.comb(m, n) > 2000:
                break
            tv, exact = tv_to_unbounded(m, n, q).tv, tv_to_unbounded(m, n, F(q)).tv
            assert type(tv) is float
            assert tv == 0.0 if exact == 0 else abs(F(tv) - exact) <= exact * F(1e-12), (m, n)
            if exact < F(1, 10**30):
                break


@pytest.mark.parametrize(
    "m, n, q",
    [(160, 160, 127 / 128), (161, 160, 127 / 128), (100, 100, 1 - 2**-20), (101, 100, 1 - 2**-20)],
)
def test_float_tv_past_the_float_range_of_its_terms(m, n, q):
    # e^(L_x) underflows at the ground at q = 127/128, and (q;q)_n as well at q = 1 - 2^-20
    row = tv_to_unbounded(m, n, q)
    assert abs(F(row.tv) - tv_to_unbounded(m, n, F(q)).tv) <= F(1e-16)
    assert row.tv <= row.bound_exact <= row.bound_simple


def reference_limit_row(m, n, q, target):
    """One ground-state row from its own `scaled_partition_z` triangle row."""
    value = q_int(m - n + 1, q) ** n / scaled_partition_z(m, n, q)
    scale = q ** binom2(n)
    return LimitRow(m, n, value, value / scale if scale else math.inf, target)


def assert_same_rows(rows, reference):
    # exact equality in q's own type, so float rows agree bit for bit
    assert rows == reference
    for row, ref in zip(rows, reference):
        assert [type(v) for v in vars(row).values()] == [type(v) for v in vars(ref).values()]


@pytest.mark.parametrize("q", (F(1, 2), F(2, 3), 0.5, 0.3, 1e-200, F(1)))
def test_limit_rows_match_per_m_reference(q):
    for n, m_values in ((3, range(3, 30)), (2, [9, 4, 9, 2, 17, 5, 5]), (0, [3, 0, 1])):
        target = q_pochhammer(n, q)
        assert_same_rows(
            limit_rows_fixed_n(n, q, m_values),
            [reference_limit_row(m, n, q, target) for m in m_values],
        )
    if q == 1:  # the int 1 is the same exact q
        assert_same_rows(limit_rows_fixed_n(2, 1, [3, 4]), limit_rows_fixed_n(2, q, [3, 4]))
    if q < 1:
        for n_values in (range(1, 20), [6, 2, 6, 1, 0, 11]):
            assert_same_rows(
                limit_rows_growing_n(q, n_values),
                [reference_limit_row(2 * n, n, q, euler_phi(q)) for n in n_values],
            )


def test_limit_rows_raise_in_the_order_of_their_arguments():
    # q is checked first, even with no m; then n, then each m against n in the order given
    with pytest.raises(ValueError, match="need 0 < q <= 1, got q=2"):
        limit_rows_fixed_n(3, F(2), [])
    with pytest.raises(ValueError, match="need 0 < q <= 1, got q=2"):
        limit_rows_fixed_n(3, F(2), [5, 2])
    with pytest.raises(ValueError, match="need m >= n, got m=2 n=3"):
        limit_rows_fixed_n(3, F(1, 2), [2, 5])
    with pytest.raises(ValueError, match="need 0 < q <= 1, got q=-1/2"):
        limit_rows_fixed_n(3, F(-1, 2), [5])
    with pytest.raises(ValueError, match="q_pochhammer needs n >= 0"):
        limit_rows_fixed_n(-1, F(1, 2), [5])
    with pytest.raises(ValueError, match="need 0 < q < 1"):
        limit_rows_growing_n(F(1), [3])
    with pytest.raises(ValueError, match="needs over 496 factors"):
        limit_rows_growing_n(F(99999, 100000), [3])


def test_limit_rows_fixed_n():
    rows = limit_rows_fixed_n(1, F(1, 2), range(1, 12))
    for row in rows:
        assert row.value == row.value_uncorrected  # no correction at n = 1
    assert abs(rows[-1].value - rows[-1].target) < F(1, 500)
    assert rows[-1].target == F(1, 2)
    rows2 = limit_rows_fixed_n(2, F(1, 2), range(2, 15))
    assert rows2[0].target == q_pochhammer(2, F(1, 2))
    assert abs(rows2[-1].value - rows2[-1].target) < abs(rows2[0].value - rows2[0].target)
    with pytest.raises(ValueError):
        limit_rows_fixed_n(3, F(1, 2), [2])


def test_limit_rows_growing_n():
    rows = limit_rows_growing_n(0.5, range(1, 16))
    phi = euler_phi(0.5)
    assert abs(rows[-1].value - phi) < 1e-4
    assert abs(rows[-1].value - rows[-1].target) < abs(rows[0].value - rows[0].target)


def test_extended_solver_matches_weights_small():
    from jepq.rook import extended_distribution

    for q in QS:
        for m in range(1, 6):
            for n in range(m + 1):
                tm = build_extended_matrix(m, n, q)
                pi = solve_stationary(tm)
                assert pi == extended_distribution(m, n, q)


def test_extended_solver_matches_weights_m6():
    from jepq.rook import extended_distribution

    q = F(1, 2)
    for n in range(7):
        tm = build_extended_matrix(6, n, q)
        pi = solve_stationary(tm)
        assert pi == extended_distribution(6, n, q)
