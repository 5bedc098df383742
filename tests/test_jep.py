import re
from dataclasses import astuple
from fractions import Fraction as F
from itertools import combinations
from time import perf_counter

import pytest

from jepq import jep, mc
from jepq.jep import (
    BoundedGeometric,
    BoundedUniform,
    UnboundedGeometric,
    _step,
    closed_form_stats,
    enumerate_states,
    stationary_distribution,
    stationary_prob,
    stationary_weight,
    stationary_weights,
    step_kernel_row,
    theta,
    truncated_geometric_pmf,
    validate_state,
)
from jepq.oracle import (
    build_extended_matrix,
    build_transition_matrix,
    solve_stationary,
    tv_to_unbounded,
)
from jepq.qcomb import binom2, partition_z, q_int, q_pochhammer
from jepq.rook import circ_histogram, enumerate_configs, extended_distribution, extensions

QS = (F(1, 3), F(1, 2), F(2, 3))


def test_model_validation():
    with pytest.raises(ValueError):
        BoundedGeometric(2, 3, F(1, 2))
    with pytest.raises(ValueError):
        BoundedGeometric(3, 2, F(3, 2))
    with pytest.raises(ValueError):
        UnboundedGeometric(2, F(1))
    BoundedUniform(3, 0)
    with pytest.raises(ValueError):
        validate_state((0, 0), BoundedUniform(3, 2))
    with pytest.raises(ValueError):
        validate_state((1, 3), BoundedUniform(3, 2))


def test_theta():
    assert theta(set(), 5) == 5
    assert theta({1, 3}, 2) == 4
    assert theta({0, 1, 2}, 0) == 3
    for excluded in (set(), {1, 3}, {0, 1, 2}, {2, 5, 6}):
        complement = [h for h in range(20) if h not in excluded]
        assert [theta(excluded, x) for x in range(10)] == complement[:10]


def test_truncated_geometric_pmf():
    assert truncated_geometric_pmf(2, F(1, 2)) == (F(2, 3), F(1, 3))
    # the cached exact law is never handed to an equal float q, nor back
    assert [type(p) for p in truncated_geometric_pmf(2, 0.5)] == [float, float]
    assert [type(p) for p in truncated_geometric_pmf(2, F(1, 2))] == [F, F]
    assert truncated_geometric_pmf(1, F(1, 2)) == (1,)
    for ell in range(1, 11):
        assert truncated_geometric_pmf(ell, F(1)) == (F(1, ell),) * ell
    for ell in range(1, 11):
        for q in QS:
            assert sum(truncated_geometric_pmf(ell, q)) == 1
    with pytest.raises(ValueError):
        truncated_geometric_pmf(0, F(1, 2))


def test_throw_pmf_bounded():
    # the throw law from after-shift state (1,) sits on the vacancies 0 and 2
    q = F(1, 2)
    model = BoundedGeometric(3, 2, q)
    assert step_kernel_row((0, 2), model) == {(0, 1): 1 / (1 + q), (1, 2): q / (1 + q)}
    assert step_kernel_row((0, 2), BoundedUniform(3, 2)) == {(0, 1): F(1, 2), (1, 2): F(1, 2)}


def test_throw_pmf_unbounded_tail_is_exact():
    # the unbounded law has no finite kernel row
    with pytest.raises(ValueError):
        step_kernel_row((0,), UnboundedGeometric(1, F(1, 2)))


def test_step_kernel_examples():
    q = F(1, 2)
    assert step_kernel_row((1, 2), BoundedGeometric(3, 2, q)) == {(0, 1): 1}
    assert step_kernel_row((0, 2), BoundedGeometric(3, 2, q)) == {
        (0, 1): 1 / (1 + q),
        (1, 2): q / (1 + q),
    }
    assert step_kernel_row((0,), BoundedGeometric(2, 1, q)) == {
        (0,): F(2, 3),
        (1,): F(1, 3),
    }
    # empty system: a self-loop
    assert step_kernel_row((), BoundedGeometric(3, 0, q)) == {(): 1}


def vacancy_list_row(state, model):
    """A kernel row built from the list of vacant heights: the k-th vacancy
    of the shifted state, counted from below, gets the k-th throw
    probability."""
    if 0 not in state:
        return {tuple(b - 1 for b in state): F(1)}
    x_star = tuple(b - 1 for b in state[1:])
    vacancies = [h for h in range(model.m) if h not in x_star]
    pmf = truncated_geometric_pmf(model.ell, model.q)
    return {tuple(sorted(x_star + (h,))): p for h, p in zip(vacancies, pmf)}


@pytest.mark.parametrize("q", (F(1, 3), F(1, 2), F(1)))
def test_kernel_row_matches_vacancy_list_rule(q):
    for m in range(9):
        for n in range(m + 1):
            model = BoundedGeometric(m, n, q)
            for state in enumerate_states(m, n):
                row = step_kernel_row(state, model)
                assert list(row.items()) == list(vacancy_list_row(state, model).items())


def test_one_step_function():
    # kernel rows and the Monte Carlo successor table share one step
    assert mc._step is jep._step


@pytest.mark.parametrize("q", QS)
def test_kernel_rows_are_stochastic(q):
    for m in range(1, 7):
        for n in range(m + 1):
            geo = BoundedGeometric(m, n, q)
            uni = BoundedUniform(m, n)
            for state in enumerate_states(m, n):
                assert sum(step_kernel_row(state, geo).values()) == 1
                assert sum(step_kernel_row(state, uni).values()) == 1


def test_stationary_weight_anchors():
    q = F(1, 2)
    assert stationary_weight((0, 1), BoundedGeometric(3, 2, q)) == (1 + q) ** 2 * q
    for m, n in ((4, 2), (5, 3), (6, 1)):
        model = BoundedGeometric(m, n, q)
        top = tuple(range(m - n, m))
        assert stationary_weight(top, model) == q ** (n * m - binom2(n + 1))
        ground = tuple(range(n))
        assert stationary_weight(ground, model) == q_int(m - n + 1, q) ** n * q ** binom2(n)


@pytest.mark.parametrize("q", (F(1, 3), F(1, 2), F(1), 0.3, 0.5))
def test_stationary_weights_match_per_state(q):
    for m in range(0, 8):
        for n in range(m + 1):
            model = BoundedGeometric(m, n, q)
            weights = stationary_weights(model)
            assert list(weights) == enumerate_states(m, n)
            assert weights == {s: stationary_weight(s, model) for s in weights}
            # reference: each q-integer summed afresh by q_int
            for state, weight in weights.items():
                ref = 1 + 0 * q
                for k, x in enumerate(state, start=1):
                    ref = ref * q_int(m - n - x + k, q)
                assert weight == ref * q ** sum(state)
    with pytest.raises(ValueError):
        stationary_weights(UnboundedGeometric(2, F(1, 2)))


@pytest.mark.parametrize("q", (F(1, 3), F(1, 2), F(1), F(3, 2), 0.3, 1))
def test_q_int_table_matches_q_int(q):
    # the one state (0,) of (ell, 1) has weight [ell]_q = N_ell / b^(ell-1)
    exact = not isinstance(q, float)
    b = q.denominator if exact else 1
    for ell in range(1, 11):
        scale, stream = jep._numerators(ell, 1, q, [(0,)])
        [(state, numerator)] = stream
        assert state == (0,) and scale == b ** (ell - 1)
        assert numerator == q_int(ell, q) * b ** (ell - 1)
        assert type(numerator) is (int if exact else float)


def local_weight(state, m, q):
    """prod_k [m-n-x_k+k]_q * q^(sum of heights), each q-integer summed afresh."""
    weight = F(1)
    for k, x in enumerate(state, start=1):
        weight *= sum(q**j for j in range(m - len(state) - x + k))
    return weight * q ** sum(state)


@pytest.mark.parametrize("q", (F(1, 3), F(1, 2), F(2, 3), F(3, 7), F(1)))
def test_exact_law_matches_per_state_fraction_product(q):
    for m in range(10):
        for n in range(m + 1):
            model, states = BoundedGeometric(m, n, q), list(combinations(range(m), n))
            z = partition_z(m, n, q)
            ref_weights = {s: local_weight(s, m, q) for s in states}
            ref_law = {s: w / z for s, w in ref_weights.items()}
            for got, ref in ((stationary_weights(model), ref_weights),
                             (stationary_distribution(model), ref_law)):
                assert list(got) == states and got == ref
                assert all(type(v) is F for v in got.values())
            for s in states:
                weight, prob = stationary_weight(s, model), stationary_prob(s, model)
                assert (weight, prob) == (ref_weights[s], ref_law[s])
                assert type(weight) is type(prob) is F
            # integer numerators over b^E that add up to Z b^E
            scale, stream = jep._numerators(m, n, q, states)
            assert scale == q.denominator ** (n * (m - n) + binom2(n))
            numerators = dict(stream)
            assert list(numerators) == states
            assert all(type(w) is int and w == ref_weights[s] * scale for s, w in numerators.items())
            assert sum(numerators.values()) == z * scale


def local_float_law(m, n, q):
    """The float weights and law, in the order of operations of the per-state
    product: running-sum q-integers, the factors in particle order, then
    q^(sum of heights), then one division by Z."""
    qints, power = [0.0], 1.0
    for _ in range(m - n + 1):
        qints.append(qints[-1] + power)
        power = power * q
    weights = {}
    for state in combinations(range(m), n):
        weight = 1.0
        for k, x in enumerate(state, start=1):
            weight = weight * qints[m - n - x + k]
        weights[state] = weight * q ** sum(state)
    z = partition_z(m, n, q)
    return weights, {s: w / z for s, w in weights.items()}


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_float_law_is_bit_identical_to_per_state_product(q):
    def bits(law):
        return [(s, p.hex()) for s, p in law.items()]  # only a float has .hex()

    for m in range(10):
        for n in range(m + 1):
            model = BoundedGeometric(m, n, q)
            ref_weights, ref_law = local_float_law(m, n, q)
            assert bits(stationary_weights(model)) == bits(ref_weights)
            assert bits(stationary_distribution(model)) == bits(ref_law)
            for s in ref_weights:
                assert stationary_weight(s, model).hex() == ref_weights[s].hex()
                assert stationary_prob(s, model).hex() == ref_law[s].hex()


def test_int_q_is_exact():
    spellings = (BoundedGeometric(4, 2, 1), BoundedGeometric(4, 2, F(1)), BoundedUniform(4, 2))
    assert all(type(model.q) is F for model in spellings)
    laws = [stationary_distribution(model) for model in spellings]
    weights = [stationary_weights(model) for model in spellings]
    for got in (laws, weights):
        assert got[0] == got[1] == got[2]
        assert [list(map(type, g.values())) for g in got] == [[F] * 6] * 3
    assert laws[0][(0, 1)] == F(9, 25)
    solved = solve_stationary(build_transition_matrix(spellings[0]))
    assert solved == laws[0] and all(type(p) is F for p in solved.values())
    stats = closed_form_stats(4, 2, 1)
    assert stats == closed_form_stats(4, 2, F(1))
    assert [type(v) for v in astuple(stats)] == [F] * 4
    assert truncated_geometric_pmf(3, 1) == (F(1, 3),) * 3
    assert [type(p) for p in truncated_geometric_pmf(3, 1)] == [F] * 3


def test_stationary_prob_anchors():
    q = F(1, 2)
    assert stationary_prob((0,), BoundedGeometric(2, 1, q)) == F(3, 4)
    # q = 1 is the uniform-throw law
    assert stationary_distribution(BoundedGeometric(3, 2, F(1))) == {
        (0, 1): F(4, 7),
        (0, 2): F(2, 7),
        (1, 2): F(1, 7),
    }
    for n in range(1, 5):
        for qq in QS:
            assert stationary_prob(tuple(range(n)), UnboundedGeometric(n, qq)) == q_pochhammer(n, qq)
    for x in range(6):
        assert stationary_prob((x,), UnboundedGeometric(1, q)) == (1 - q) * q**x


@pytest.mark.parametrize("q", QS)
def test_stationary_distribution_normalized(q):
    for m in range(1, 8):
        for n in range(1, m + 1):
            law = stationary_distribution(BoundedGeometric(m, n, q))
            assert sum(law.values()) == 1
            assert all(p > 0 for p in law.values())


def test_stationary_distribution_float_mode_sums_near_one():
    for m, n in ((5, 2), (7, 3), (8, 4)):
        law = stationary_distribution(BoundedGeometric(m, n, 0.37))
        assert abs(sum(law.values()) - 1) < 1e-12


def test_closed_form_stats_anchors():
    q = F(1, 2)
    assert closed_form_stats(2, 1, q).throw_fraction == F(3, 4)
    stats = closed_form_stats(3, 2, q)
    expected = (1 + 3 * q + 2 * q**2) / (1 + 3 * q + 3 * q**2)
    assert stats.throw_fraction == expected
    assert stats.throw_fraction == q * partition_z(2, 1, q) * q_int(2, q) / partition_z(3, 2, q)
    assert stats.throw_fraction_uncorrected > 1
    for n in range(1, 5):
        ss = closed_form_stats(n, n, q)
        assert ss.ground == 1 and ss.top == 1


@pytest.mark.parametrize("q", QS)
def test_throw_fraction_matches_occupancy(q):
    for m in range(1, 8):
        for n in range(1, m + 1):
            model = BoundedGeometric(m, n, q)
            occupied = sum(
                p for s, p in stationary_distribution(model).items() if s[0] == 0
            )
            assert closed_form_stats(m, n, q).throw_fraction == occupied


@pytest.mark.parametrize("q", QS)
def test_balance_residual_zero_on_stationary(q):
    # pi P - pi vanishes: one step of the kernel leaves the law unchanged
    for m in range(2, 7):
        for n in range(1, m + 1):
            model = BoundedGeometric(m, n, q)
            law = stationary_distribution(model)
            assert build_transition_matrix(model).push(law) == law


def test_balance_residual_detects_perturbation():
    q = F(1, 2)
    model = BoundedGeometric(4, 2, q)
    law = dict(stationary_distribution(model))
    state = next(iter(law))
    law[state] *= 2
    assert build_transition_matrix(model).push(law) != law


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("n", (1, 2, 3))
def test_unbounded_balance(q, n):
    # one step of the unbounded law from every state below height 12; below
    # height 11 that misses no predecessor and no throw
    model = UnboundedGeometric(n, q)
    inflow: dict = {}
    for state in enumerate_states(12, n):
        mass = stationary_prob(state, model)
        ranks = range(11) if state[0] == 0 else [None]
        for r in ranks:
            p = 1 if r is None else (1 - q) * q**r
            succ = _step(state, r)
            inflow[succ] = inflow.get(succ, 0) + p * mass
    for state in enumerate_states(11, n):
        assert inflow[state] == stationary_prob(state, model)


def test_rook_connection_identity():
    # the vacancy product rewrites as an index product, in both bases
    for q in QS:
        for m in range(1, 11):
            for n in range(m + 1):
                for state in enumerate_states(m, n):
                    direct = F(1)
                    indexed = F(1)
                    for k, x in enumerate(state, start=1):
                        vacant = sum(1 for h in range(x, m) if h not in state)
                        direct *= q_int(1 + vacant, 1 / q)
                        indexed *= q_int(m - n - x + k, 1 / q)
                    assert direct == indexed


def test_unbounded_weight_is_a_power_of_q():
    q = F(1, 3)
    for n in (0, 1, 3):
        model = UnboundedGeometric(n, q)
        normalizer = q_pochhammer(n, q) * q ** -binom2(n)
        for state in combinations(range(7), n):
            weight = stationary_weight(state, model)
            assert weight == q ** sum(state)
            assert stationary_prob(state, model) / weight == normalizer


# (call, the start of its error message)
REJECTIONS = [
    (lambda: stationary_distribution(UnboundedGeometric(2, F(1, 2))), "unbounded law has infinite"),
    (lambda: closed_form_stats(3, 0, F(1, 2)), "need 1 <= n <= m, got m=3 n=0"),
    (lambda: UnboundedGeometric(-1, F(1, 2)), "need n >= 0, got n=-1"),
    (lambda: enumerate_states(2, 3), "need 0 <= n <= m, got m=2 n=3"),
    (lambda: validate_state((0,), BoundedUniform(3, 2)), "state (0,) has 1 particles, model needs 2"),
    (lambda: validate_state((-1, 2), BoundedUniform(3, 2)), "negative height in (-1, 2)"),
    (lambda: theta({1}, -1), "need x >= 0, got x=-1"),
    (lambda: truncated_geometric_pmf(3, 2), "need 0 < q <= 1, got q=2"),
]


@pytest.mark.parametrize("call, message", REJECTIONS)
def test_bad_arguments_are_rejected(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call()


Q = F(1, 2)
# every public function that enumerates height sets or rook placements, at (m, n)
ENUMERATIONS = {
    "enumerate_states": lambda m, n: enumerate_states(m, n),
    "stationary_weights": lambda m, n: stationary_weights(BoundedGeometric(m, n, Q)),
    "stationary_distribution": lambda m, n: stationary_distribution(BoundedGeometric(m, n, Q)),
    "build_transition_matrix": lambda m, n: build_transition_matrix(BoundedGeometric(m, n, Q)),
    "tv_to_unbounded": lambda m, n: tv_to_unbounded(m, n, Q),
    "tv_to_unbounded_float": lambda m, n: tv_to_unbounded(m, n, 0.5),
    "enumerate_configs": lambda m, n: enumerate_configs(m, n),
    "circ_histogram": lambda m, n: circ_histogram(m, n),
    "extensions": lambda m, n: extensions(tuple(range(n)), m),
    "extended_distribution": lambda m, n: extended_distribution(m, n, Q),
    "build_extended_matrix": lambda m, n: build_extended_matrix(m, n, Q),
}


@pytest.mark.parametrize("name", ENUMERATIONS)
def test_every_enumeration_respects_the_state_cap(name, monkeypatch):
    enumerate_ = ENUMERATIONS[name]
    # at (5, 2): 10 height sets, S(6, 4) = 65 placements, 4 * 4 extensions of (0, 1)
    monkeypatch.setenv("JEPQ_STATE_CAP", "5")
    with pytest.raises(ValueError, match="exceeds cap 5$"):
        enumerate_(5, 2)
    monkeypatch.setenv("JEPQ_STATE_CAP", "1000")
    enumerate_(5, 2)
    # an over-cap size is refused before any triangle or list is built
    for m, n in ((60, 30), (5000, 1), (5000, 4999)):
        start = perf_counter()
        with pytest.raises(ValueError, match="exceeds cap 1000$"):
            enumerate_(m, n)
        assert perf_counter() - start < 0.1, (m, n)


def test_builders_follow_the_environment(monkeypatch):
    # with the default lowered, only JEPQ_STATE_CAP admits these sizes
    monkeypatch.setattr(jep, "DEFAULT_STATE_CAP", 5)
    with pytest.raises(ValueError, match="state space size 10 exceeds cap 5$"):
        build_transition_matrix(BoundedGeometric(5, 2, Q))
    with pytest.raises(ValueError, match="extended state space size 65 exceeds cap 5$"):
        build_extended_matrix(5, 2, Q)
    monkeypatch.setenv("JEPQ_STATE_CAP", "65")
    assert len(build_transition_matrix(BoundedGeometric(5, 2, Q))) == 10
    assert len(build_extended_matrix(5, 2, Q)) == 65


@pytest.mark.parametrize("raw", ("abc", "0", "-5", "1.5"))
def test_a_malformed_cap_always_raises(raw, monkeypatch):
    monkeypatch.setenv("JEPQ_STATE_CAP", raw)
    with pytest.raises(ValueError, match=f"^JEPQ_STATE_CAP must be a positive integer, got {raw!r}$"):
        enumerate_states(0, 0)
