"""Identity suites: every closed form checked against brute force.

Each check is exact and self-contained, so a single failure pinpoints the
identity that broke. An equality cleared of its denominators is one of integer
polynomials L, R in q or 1/q. If L - R has coefficients below t in absolute
value, L = R at q = t or 1/t only if L = R for every q (t = 1 + L(1) + R(1) will
do for nonnegative L, R), so each check states its t and evaluates once there.
Only `stationary-vs-solver`, `tv-bounds` and the Euler-product inequalities
sample q. Balance, law P = law, is the solver's N P = N certificate, and law sums
are integers over one common denominator. The CLI `verify` subcommand runs them
all, one line per check. A check that raises fails, with the exception as its
detail, and the others still run.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .qcomb import binom2, euler_phi, euler_phi_truncation, gould_stirling, partition_z
from .qcomb import q_int, q_pochhammer, q_stirling
from .jep import (
    BoundedGeometric,
    _step,
    _unbounded_probs,
    check_state_cap,
    closed_form_stats,
    enumerate_states,
    stationary_distribution,
    stationary_weights,
    UnboundedGeometric,
)
from .oracle import _bounded_shape, _is_stationary, _over_lcm, _scaled, _weighted
from .oracle import build_extended_matrix, build_transition_matrix, solve_stationary
from .oracle import total_variation, tv_to_unbounded
from .rook import (
    _check_placements,
    _extensions_with_circ,
    circ_histogram,
    extended_distribution,
    extended_ground,
    row_projection,
)

DEFAULT_QS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))

__all__ = ["CheckResult", "run_checks", "DEFAULT_QS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _classical_stirling(a: int, b: int) -> int:
    """S(a, b), 0 <= b, by inclusion-exclusion over maps onto b labelled blocks."""
    return sum((-1) ** (b - j) * math.comb(b, j) * j**a for j in range(b + 1)) // math.factorial(b)


def _check_scalar_identities(max_m: int, qs) -> tuple[bool, str]:
    for k in range(1, 21):
        # either difference has absolute coefficients summing to at most 2[k](1) + 2 < t
        q = Fraction(1, 3 + 2 * q_int(k, 1))
        if q_int(k, q) != q ** (k - 1) * q_int(k, 1 / q):
            return False, f"[{k}] reciprocal identity at q={q}"
        if q_int(k, q) * (1 - q) != 1 - q**k:
            return False, f"[{k}] ratio identity at q={q}"
    for a in range(11):
        for b in range(a + 1):
            s, g = q_stirling(a, b, 1), gould_stirling(a, b, 1)
            if s != _classical_stirling(a, b):
                return False, f"classical limit at ({a},{b})"
            if g != _classical_stirling(a, b):
                return False, f"classical Gould limit at ({a},{b})"
            t = 1 + s + g  # both triangles have nonnegative coefficients
            if q_stirling(a, b, t) != t ** binom2(b) * gould_stirling(a, b, t):
                return False, f"triangle relation at ({a},{b},{t})"
    for q in qs:
        # (q;q)_n = num / den with den = b^binom(n+1,2), compared by cross-multiplication
        floor, poch = euler_phi(q) - euler_phi_truncation(q)[1], q_pochhammer(29, q)
        a, b, num, den = q.numerator, q.denominator, 1, 1
        for n in range(1, 30):
            prev, num, den = num * b**n, num * (b**n - a**n), den * b**n
            if n > 1 and not num < prev:
                return False, f"(q;q)_n not decreasing at n={n}, q={q}"
            if num * floor.denominator < floor.numerator * den:
                return False, f"(q;q)_n fell below the Euler product at n={n}"
        if num * poch.denominator != poch.numerator * den:
            return False, f"(q;q)_29 differs from its running product at q={q}"
    return True, "q-integer, triangle, and product identities hold"


def _check_closed_form_vs_solver(max_m: int, qs) -> tuple[bool, str]:
    for m in range(1, max_m + 1):
        for n in range(1, m + 1):
            shape = _bounded_shape(m, n)  # built once, weighted at each q
            # q = 1, uniform throws, is solved on top of the sampled qs
            for q in (*qs, Fraction(1)):
                model = BoundedGeometric(m, n, q)
                solved = solve_stationary(_weighted(shape, model.q))
                closed = stationary_distribution(model)
                if solved != closed:
                    return False, f"mismatch at (m={m}, n={n}, q={q})"
    return True, f"closed form equals exact solve through m={max_m}, q=1 included"


def _check_normalization(max_m: int, qs) -> tuple[bool, str]:
    for (m, n), coefficients in {(2, 1): (1, 2), (3, 2): (0, 1, 3, 3)}.items():
        q = Fraction(1, 1 + partition_z(m, n, 1) + sum(coefficients))  # both sides nonnegative
        if partition_z(m, n, q) != sum(c * q**i for i, c in enumerate(coefficients)):
            return False, f"Z({m},{n},{q}) anchor"
    for m in range(0, max_m + 1):
        # Z, its literal form and the weight sum (at most binom(m, n) ell^n at q = 1) have
        # nonnegative coefficients, so t exceeds any two of their values at q = 1, for every n
        t = 1 + max(partition_z(m, n, 1) + q_stirling(m + 1, m - n + 1, 1)
                    + math.comb(m, n) * (m - n + 1) ** n for n in range(m + 1))
        q = Fraction(1, t)
        for n in range(m + 1):
            z = partition_z(m, n, q)
            literal = q ** (binom2(m + 1) - n) * q_stirling(m + 1, m - n + 1, t)
            if z != literal:
                return False, f"scaled vs literal Z at ({m},{n},{q})"
            if n >= 1:
                total = sum(stationary_weights(BoundedGeometric(m, n, q)).values())
                if total != z:
                    return False, f"weight sum != Z at ({m},{n},{q})"
    return True, f"weight sums equal the normalizer through m={max_m}"


def _check_circ_gould(max_m: int, qs) -> tuple[bool, str]:
    for m in range(0, max_m + 1):
        for n in range(m + 1):
            histogram = circ_histogram(m, n)
            placements = sum(histogram.values())
            if placements != _classical_stirling(m + 1, m + 1 - n):
                return False, f"config count at (m={m}, n={n})"
            # the histogram is its sum's coefficient list: t = 1 + placements + G(1)
            t = 1 + placements + gould_stirling(m + 1, m - n + 1, 1)
            total = sum(count * t**value for value, count in histogram.items())
            if total != gould_stirling(m + 1, m - n + 1, t):
                return False, f"circ sum at (m={m}, n={n}, q={t})"
    return True, f"circ generating sums match the Gould triangle through m={max_m}"


def _check_extensions(max_m: int, qs) -> tuple[bool, str]:
    for m in range(1, max_m + 1):
        for n in range(0, m + 1):
            for heights in enumerate_states(m, n):
                pairs = list(_extensions_with_circ(heights, m))
                counts = [m - n - x + k for k, x in enumerate(heights, start=1)]
                if len(pairs) != math.prod(counts):
                    return False, f"extension count at B={heights}, m={m}"
                rows = [r for c, _ in pairs for r, _ in c]  # every placement: n rows, heights in order
                if {len(c) for c, _ in pairs} - {n} or rows != [*heights] * len(pairs):
                    return False, f"bad row projection at B={heights}"
                # vacant heights above each particle: the gaps above it, summed
                gaps = [above - x - 1 for x, above in zip(heights, heights[1:] + (m,))]
                lengths = [1 + v for v in accumulate(reversed(gaps))]
                # in 1/q all three sides are nonnegative: t = 1 + their values at q = 1
                t = 1 + len(pairs) + math.prod(counts) + math.prod(lengths)
                histogram = Counter([value for _, value in pairs])
                total = sum(count * t**value for value, count in histogram.items())
                q_ints = {c: q_int(c, t) for c in {*counts, *lengths}}  # one per distinct c
                product, direct = (math.prod(map(q_ints.get, side)) for side in (counts, lengths))
                if total != product or product != direct:
                    return False, f"extension sum at B={heights}, q={Fraction(1, t)}"
    return True, f"extension sums match the vacancy products through m={max_m}"


def _check_extended_chain(max_m: int, qs) -> tuple[bool, str]:
    top = min(max_m, 6)
    for m in range(1, top + 1):
        for n in range(0, m + 1):
            # Cleared of G(1/q), [ell]_q and Z(q), the sides below are nonnegative; at q = 1 they
            # are N, G(1); at most ell N (N rows), ell; at most N Z(1), ell^n G(1) (weights <= ell^n)
            ell, size = m - n + 1, _classical_stirling(m + 1, m + 1 - n)
            g, z = gould_stirling(m + 1, m - n + 1, 1), partition_z(m, n, 1)
            q = Fraction(1, 1 + max(size + g, ell * (size + 1), size * z + ell**n * g))
            tm = build_extended_matrix(m, n, q)
            rows = _scaled(tm)[1]
            reached = {extended_ground(n)}  # `path_to_ground`'s walks, each stopped once known
            for path in ([config] for config in tm.states):
                while path[-1] not in reached:
                    if len(path) > (m + 1) * (m + 2):
                        return False, f"ground unreachable from {path[0]}"
                    path.append(tm.states[next(iter(rows[tm.pos[path[-1]]]))])  # its lowest throw
                reached.update(path)
            common, weights = _over_lcm(extended_distribution(m, n, q))
            if sum(weights.values()) != common:
                return False, f"extended law not normalized at ({m},{n},{q})"
            if not _is_stationary(tm, weights):
                return False, f"extended law not stationary at ({m},{n},{q})"
            if n >= 1:
                marginal = Counter()
                for config, w in weights.items():
                    marginal[row_projection(config)] += w
                closed = stationary_distribution(BoundedGeometric(m, n, q))
                if {state: Fraction(w, common) for state, w in marginal.items()} != closed:
                    return False, f"row projection off at ({m},{n},{q})"
    return True, f"extended law is stationary and projects correctly through m={top}"


def _check_throw_fraction(max_m: int, qs) -> tuple[bool, str]:
    for m in range(1, max_m + 1):
        # Cleared of Z, q^(n-1) [ell] Z(m-1, n-1) and the weights with a ball at 0 are
        # nonnegative, each at most binom(m-1, n-1) ell^n at q = 1
        q = Fraction(1, 1 + max(2 * math.comb(m - 1, n - 1) * (m - n + 1) ** n for n in range(1, m + 1)))
        for n in range(1, m + 1):
            law = stationary_distribution(BoundedGeometric(m, n, q))
            direct = sum(p for s, p in law.items() if s[0] == 0)
            stats = closed_form_stats(m, n, q)
            if stats.throw_fraction != direct:
                return False, f"corrected form off at ({m},{n},{q})"
    bad = closed_form_stats(3, 2, Fraction(1, 2)).throw_fraction_uncorrected
    if not bad > 1:
        return False, f"uncorrected form should exceed 1 at (3,2,1/2), got {bad}"
    return True, (f"corrected form matches direct summation through m={max_m}; "
                  f"uncorrected form reaches {bad} > 1 at (3,2,1/2)")


def _check_balance(max_m: int, qs) -> tuple[bool, str]:
    for m in range(2, max_m + 1):
        # Cleared of Z and [ell]_q, a state's inflow and mass are nonnegative; at q = 1 they
        # are at most binom(m, n) ell^(n+1) (weights <= ell^n, pmf numerators <= ell) and ell^(n+1)
        bound = max((math.comb(m, n) + 1) * (m - n + 1) ** (n + 1) for n in range(1, m + 1))
        for n in range(1, m + 1):
            model = BoundedGeometric(m, n, Fraction(1, 1 + bound))
            law = _over_lcm(stationary_distribution(model))[1]
            if not _is_stationary(build_transition_matrix(model), law):
                return False, f"bounded law not stationary at ({m},{n},{model.q})"
    for n in range(1, 4):
        # Every predecessor of a state below height 11 lies below height 12, and a throw
        # landing below 11 has rank at most 10, so this one-step inflow is exact there. Cleared
        # of (q;q)_n q^-binom(n,2), inflow - mass has absolute coefficients summing to at most
        # 2 per move (a q-power times 1 or 1 - q), 11 binom(12, n) moves, plus 1: below t.
        d = 2 + 22 * math.comb(12, n)
        q, scale = Fraction(1, d), d**11
        throws = [(d - 1) * d ** (10 - r) for r in range(11)]  # (1 - q) q^r, over d^11
        law = _unbounded_probs(UnboundedGeometric(n, q), enumerate_states(12, n))
        weights = _over_lcm(law)[1]  # inflow is over the same lcm, times d^11
        inflow = Counter()
        for state, w in weights.items():
            for rank, p in enumerate(throws) if state[0] == 0 else [(None, scale)]:
                inflow[_step(state, rank)] += p * w
        for state in enumerate_states(11, n):
            if inflow[state] != weights[state] * scale:
                return False, f"unbounded residual at B={state}, n={n}, q={q}"
    return True, f"balance holds everywhere through m={max_m} and below height 11"


def _check_tv_bounds(max_m: int, qs) -> tuple[bool, str]:
    for q in qs:
        for n in (1, 2, 3):
            for m in range(n, n + 7):
                row = tv_to_unbounded(m, n, q)
                if not row.tv <= row.bound_exact <= row.bound_simple:
                    return False, f"bound chain broken at (m={m}, n={n}, q={q})"
        for ell in (1, 2, 4, 6):
            trunc = {x: (1 - q) * q**x / (1 - q**ell) for x in range(ell)}
            ceiling = ell + 5
            geo = {x: (1 - q) * q**x for x in range(ceiling)}
            tv = total_variation(geo, trunc, mu_tail=q**ceiling)
            if tv != q**ell:
                return False, f"geometric truncation distance at ell={ell}, q={q}"
    return True, "distance bounds and the truncation distance are exact"


_CHECKS = {
    "scalar-identities": _check_scalar_identities,
    "stationary-vs-solver": _check_closed_form_vs_solver,
    "normalization": _check_normalization,
    "circ-statistic": _check_circ_gould,
    "extension-sums": _check_extensions,
    "extended-chain": _check_extended_chain,
    "throw-fraction": _check_throw_fraction,
    "balance-residuals": _check_balance,
    "tv-bounds": _check_tv_bounds,
}


def run_checks(max_m: int = 6, qs=DEFAULT_QS) -> list[CheckResult]:
    """Run every identity suite up to the given size; exact throughout."""
    if max_m < 3:
        raise ValueError("max_m below 3 would skip the anchor cases")
    for n in range(max_m + 1):  # the placements at max_m, the most that any check walks
        _check_placements(max_m, n)
    check_state_cap(12, 3)  # the unbounded height sets of balance-residuals
    qs = tuple(Fraction(q) for q in qs)
    for q in qs:
        if not 0 < q < 1:
            raise ValueError(f"verification runs on exact q in (0,1), got {q}")
        euler_phi_truncation(q)  # refuses a q whose exact Euler product is too long
    results = []
    for name, check in _CHECKS.items():
        try:
            passed, detail = check(max_m, qs)
        except Exception as err:  # a fault in the library fails its check, not the run
            passed, detail = False, f"raised {type(err).__name__}: {err}"
        results.append(CheckResult(name, passed, detail))
    return results
