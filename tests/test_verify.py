"""Failure injection: each `verify` check must be able to fail.

Every case shifts one closed form that a single check compares, by a
small amount, and asserts that this check alone fails, that `jepq verify`
exits 1, and that every FAIL line names the check. `BRANCHES` and the
single-branch tests reach the other FAIL branches, one injection each, but one:
`(q;q)_n not decreasing` in `scalar-identities` reads only the check's own
integers (num * (b^n - a^n) < num * b^n for 0 < a < b), so no injected
library value can reach it.
"""

import dataclasses
from fractions import Fraction as F
from time import perf_counter

import pytest

from jepq import verify
from jepq.cli import main
from jepq.oracle import TransitionMatrix

EPS = F(1, 10**9)


def _bump_first(law):
    first = next(iter(law))
    return {**law, first: law[first] + EPS}


def _raise_top_circ(histogram):
    top = max(histogram)
    return {(v + 1 if v == top else v): count for v, count in histogram.items()}


# check name -> (name in jepq.verify, perturbation of its result given its arguments)
INJECTIONS = {
    "scalar-identities": ("euler_phi", lambda phi, q: phi + 1e-3),
    "stationary-vs-solver": (
        "stationary_distribution",
        lambda law, model: _bump_first(law) if model.q == 1 else law,
    ),
    "normalization": ("partition_z", lambda z, m, n, q: z + EPS),
    "circ-statistic": ("circ_histogram", lambda histogram, m, n: _raise_top_circ(histogram)),
    "extension-sums": (
        "_extensions_with_circ",
        lambda pairs, heights, m: ((config, value + 1) for config, value in pairs),
    ),
    "extended-chain": ("extended_distribution", lambda law, m, n, q: _bump_first(law)),
    "throw-fraction": (
        "closed_form_stats",
        lambda stats, m, n, q: dataclasses.replace(
            stats, throw_fraction=stats.throw_fraction + EPS
        ),
    ),
    "balance-residuals": (
        "_unbounded_probs",
        lambda probs, model, states: {state: p + EPS for state, p in probs.items()},
    ),
    "tv-bounds": ("total_variation", lambda tv, mu, nu: tv + EPS),
}


def test_injections_cover_every_check():
    assert sorted(INJECTIONS) == sorted(r.name for r in verify.run_checks(max_m=3))


@pytest.mark.parametrize("check", INJECTIONS)
def test_each_check_can_fail(check, monkeypatch, capsys):
    attr, perturb = INJECTIONS[check]
    original = getattr(verify, attr)
    monkeypatch.setattr(
        verify, attr, lambda *args, **kwargs: perturb(original(*args, **kwargs), *args)
    )
    results = verify.run_checks(max_m=3)
    assert [r.name for r in results if not r.passed] == [check]
    assert main(["verify", "--max-m", "3"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails
    assert all(line.startswith(f"FAIL {check}: ") for line in fails)


def _rotate_values(law):
    """The same values, each moved to the next key: still normalized, no longer stationary."""
    values = list(law.values())
    return dict(zip(law, values[1:] + values[:1]))


# (check, name in jepq.verify, perturbation of its result given its arguments, detail prefix)
# for each FAIL branch that `INJECTIONS` does not reach
BRANCHES = [
    ("scalar-identities", "q_int",  # [k] at base 1/q, an integer Fraction
     lambda v, k, q: v + EPS if isinstance(q, F) and q > 1 else v, "[1] reciprocal identity"),
    ("scalar-identities", "q_int",  # doubling both sides keeps the reciprocal identity
     lambda v, k, q: 2 * v if isinstance(q, F) else v, "[1] ratio identity"),
    ("scalar-identities", "q_stirling",
     lambda v, a, b, q: v + 1 if q == 1 else v, "classical limit at (0,0)"),
    ("scalar-identities", "gould_stirling",
     lambda v, a, b, q: v + 1 if q == 1 else v, "classical Gould limit at (0,0)"),
    ("scalar-identities", "q_stirling",  # normalization reads a <= max_m + 1 = 4 only
     lambda v, a, b, q: v + 1 if q > 1 and a > 4 else v, "triangle relation at (5,"),
    ("normalization", "partition_z",  # the anchors are at m = 2, 3
     lambda z, m, n, q: z + EPS if m == 0 and q != 1 else z, "scaled vs literal Z at (0,0,"),
    ("normalization", "stationary_weights",
     lambda weights, model: _bump_first(weights), "weight sum != Z at (1,1,"),
    ("circ-statistic", "circ_histogram",
     lambda histogram, m, n: {**histogram, 0: histogram[0] + 1}, "config count at (m=0, n=0)"),
    ("extension-sums", "_extensions_with_circ",
     lambda pairs, heights, m: pairs[:-1], "extension count at B=(), m=1"),
    ("extension-sums", "_extensions_with_circ",
     lambda pairs, heights, m: [(config[::-1], value) for config, value in pairs],
     "bad row projection at B=(0, 1)"),
    ("extended-chain", "build_extended_matrix",  # self-loops never reach a placement known to ground
     lambda tm, m, n, q: TransitionMatrix(tm.states, [{c: 1} for c in tm.states]),
     "ground unreachable from ((0, 1),)"),
    ("extended-chain", "extended_distribution",
     lambda law, m, n, q: {c: 2 * p for c, p in law.items()}, "extended law not normalized at (1,0,"),
    ("extended-chain", "extended_distribution",
     lambda law, m, n, q: _rotate_values(law), "extended law not stationary at (2,1,"),
    ("extended-chain", "row_projection",
     lambda rows, config: rows[::-1], "row projection off at (2,2,"),
    ("throw-fraction", "closed_form_stats",
     lambda stats, m, n, q: dataclasses.replace(
         stats, throw_fraction_uncorrected=stats.throw_fraction
     ), "uncorrected form should exceed 1 at (3,2,1/2)"),
    ("tv-bounds", "tv_to_unbounded",
     lambda row, m, n, q: dataclasses.replace(row, tv=row.tv + 1), "bound chain broken at (m=1, n=1,"),
]


@pytest.mark.parametrize("check, attr, perturb, prefix", BRANCHES)
def test_each_fail_branch_is_reached(check, attr, perturb, prefix, monkeypatch):
    original = getattr(verify, attr)
    monkeypatch.setattr(
        verify, attr, lambda *args, **kwargs: perturb(original(*args, **kwargs), *args)
    )
    failed = [(r.name, r.detail) for r in verify.run_checks(max_m=3) if not r.passed]
    assert [name for name, _ in failed] == [check]
    assert failed[0][1].startswith(prefix), failed[0][1]


def test_run_checks_refuses_a_cap_below_its_enumerations(monkeypatch):
    # balance-residuals enumerates the 220 height sets of 3 particles below 12
    monkeypatch.setenv("JEPQ_STATE_CAP", "100")
    with pytest.raises(ValueError, match="^state space size 220 exceeds cap 100$"):
        verify.run_checks(max_m=3)
    monkeypatch.setenv("JEPQ_STATE_CAP", "300")  # S(7, 4) = 350 placements at max_m = 6
    with pytest.raises(ValueError, match="^extended state space size 350 exceeds cap 300$"):
        verify.run_checks(max_m=6)
    # at the guard's own bound every check runs, and none meets the cap
    monkeypatch.setenv("JEPQ_STATE_CAP", "220")
    assert all(r.passed for r in verify.run_checks(max_m=5))
    # the default cap refuses S(3001, 3000) = 4501500 placements without a big triangle
    monkeypatch.delenv("JEPQ_STATE_CAP")
    start = perf_counter()
    with pytest.raises(ValueError, match="^extended state space size 4501500 exceeds cap 100000$"):
        verify.run_checks(max_m=3000)
    assert perf_counter() - start < 0.1


def test_bounded_balance_can_fail(monkeypatch):
    # the injection above reaches the unbounded half; this one the bounded half
    original = verify.stationary_distribution
    monkeypatch.setattr(verify, "stationary_distribution", lambda model: _bump_first(original(model)))
    passed, detail = verify._check_balance(3, verify.DEFAULT_QS)
    assert not passed
    assert detail.startswith("bounded law not stationary at (2,1,")


def test_raising_checks_are_fail_lines(monkeypatch, capsys):
    # a fault inside the library is that check's FAIL line, not a usage error
    def raiser(error):
        def fault(*args, **kwargs):
            raise error("injected fault")
        return fault

    monkeypatch.setattr(verify, "tv_to_unbounded", raiser(ValueError))
    class FaultyRow(dict):  # the extended-chain walk reads a row's first key
        __iter__ = raiser(RuntimeError)

    build = verify.build_extended_matrix
    monkeypatch.setattr(verify, "build_extended_matrix", lambda *args: TransitionMatrix(
        (tm := build(*args)).states, [FaultyRow(row) for row in tm.rows]))
    assert main(["verify", "--max-m", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    assert [line for line in lines if not line.startswith("PASS ")] == [
        "FAIL extended-chain: raised RuntimeError: injected fault",
        "FAIL tv-bounds: raised ValueError: injected fault",
    ]


@pytest.mark.parametrize("check", INJECTIONS)
def test_any_check_that_raises_fails_alone(check, monkeypatch):
    def fault(max_m, qs):
        raise RuntimeError("injected fault")

    monkeypatch.setitem(verify._CHECKS, check, fault)
    results = verify.run_checks(max_m=3)
    assert [r.name for r in results] == list(INJECTIONS)
    assert [(r.name, r.detail) for r in results if not r.passed] == [
        (check, "raised RuntimeError: injected fault")
    ]


def _vanishing(value, q):
    """value + EPS (3q - 1)(2q - 1)(3q - 2): unchanged at every q in DEFAULT_QS."""
    return value + EPS * (3 * q - 1) * (2 * q - 1) * (3 * q - 2)


# perturbations that a check sampling q only at DEFAULT_QS cannot see
VANISHING = {
    "normalization": ("partition_z", lambda z, m, n, q: _vanishing(z, q)),
    "throw-fraction": (
        "closed_form_stats",
        lambda stats, m, n, q: dataclasses.replace(
            stats, throw_fraction=_vanishing(stats.throw_fraction, q)
        ),
    ),
}


@pytest.mark.parametrize("check", VANISHING)
def test_certified_check_catches_what_sampling_misses(check, monkeypatch):
    attr, perturb = VANISHING[check]
    original = getattr(verify, attr)
    perturbed = lambda *args: perturb(original(*args), *args)
    # a check that compares these values only at DEFAULT_QS, as the sampled
    # checks did, gets exactly the unperturbed values and passes
    for q in verify.DEFAULT_QS:
        for m in range(1, 4):
            for n in range(1, m + 1):
                assert perturbed(m, n, q) == original(m, n, q)
    monkeypatch.setattr(verify, attr, perturbed)
    results = verify.run_checks(max_m=3)
    assert [r.name for r in results if not r.passed] == [check]


@pytest.mark.parametrize("q", (F(3, 7), F(1e-320)))
def test_euler_products_hold_at_an_exact_q(q):
    passed, detail = verify._check_scalar_identities(3, (q,))
    assert passed, detail


def test_running_product_is_compared_exactly(monkeypatch):
    # (q;q)_29 off by far less than any float could show still fails the check
    original = verify.q_pochhammer
    monkeypatch.setattr(verify, "q_pochhammer", lambda n, q: original(n, q) + F(1, 10**300))
    passed, detail = verify._check_scalar_identities(3, verify.DEFAULT_QS)
    assert not passed and detail.startswith("(q;q)_29 differs from its running product")
