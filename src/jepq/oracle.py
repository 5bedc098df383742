"""Brute-force machinery independent of the closed forms: full transition
matrices over enumerated state spaces, exact stationary solves, total
variation distances, and convergence tables against the unbounded chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .qcomb import (
    Scalar,
    binom2,
    euler_phi,
    _reduce,
    _triangle_rows,
    q_int,
    q_pochhammer,
)
from .jep import (
    BoundedGeometric,
    ThrowModel,
    UnboundedGeometric,
    _numerators,
    _unbounded_probs,
    enumerate_states,
    stationary_distribution,
    step_kernel_row,
)
from .rook import _extended_rows, enumerate_configs

__all__ = [
    "TransitionMatrix",
    "ConvergenceRow",
    "LimitRow",
    "build_transition_matrix",
    "build_extended_matrix",
    "solve_stationary",
    "total_variation",
    "tv_to_unbounded",
    "limit_rows_fixed_n",
    "limit_rows_growing_n",
]


class TransitionMatrix:
    """Row-stochastic kernel over an explicitly enumerated state list."""

    def __init__(self, states: list, rows: list[dict]):
        if len(states) != len(rows):
            raise ValueError("one row per state required")
        self.states = list(states)
        self.rows = list(rows)
        self.pos = {s: i for i, s in enumerate(self.states)}

    def __len__(self) -> int:
        return len(self.states)

    def push(self, dist: dict) -> dict:
        """One step of the chain applied to a distribution: dist -> dist P."""
        out: dict = {}
        for state, mass in dist.items():
            for succ, p in self.rows[self.pos[state]].items():
                out[succ] = out.get(succ, 0) + mass * p
        return out

    def is_exact(self) -> bool:
        return all(
            not isinstance(p, float) for row in self.rows for p in row.values()
        )


def build_transition_matrix(model: ThrowModel) -> TransitionMatrix:
    """Assemble the full kernel of a bounded model over all its states."""
    if isinstance(model, UnboundedGeometric):
        raise ValueError("unbounded model has an infinite state space")
    states = enumerate_states(model.m, model.n)
    return TransitionMatrix(states, [step_kernel_row(s, model) for s in states])


def build_extended_matrix(m: int, n: int, q: Scalar) -> TransitionMatrix:
    """Assemble the kernel of the extended rook chain on the board of height m."""
    configs = enumerate_configs(m, n)
    return TransitionMatrix(configs, _extended_rows(m, n, configs, q))


def solve_stationary(tm: TransitionMatrix) -> dict:
    """The unique stationary distribution of an ergodic kernel with rational
    entries, by exact state-reduction elimination over integer rows (no
    pivoting: every entry stays nonnegative). A float kernel is rejected."""
    if len(tm) == 0:
        raise ValueError("empty state space")
    if not tm.is_exact():
        raise ValueError("solve_stationary needs an exact kernel; build it with a rational q")
    n = len(tm)
    # a[i][j] = rows[i][j] / dens[i] in integers; holders[k]: rows i < k holding k
    rows, dens = [], []
    holders: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(tm.rows):
        entries = {tm.pos[succ]: p for succ, p in row.items() if p}
        d = math.lcm(*(p.denominator for p in entries.values()))
        rows.append({j: p.numerator * (d // p.denominator) for j, p in entries.items()})
        dens.append(d)
        for j in entries:
            if j > i:
                holders[j].add(i)
    # Censor states from the top index down. a[i][k] over the exit mass of k, s / dens[k]
    # (into[k] keeps it as an integer pair), is the chance that i enters k per unit of time
    # k eventually spends below k, as the forward recursion needs; row i folds in s * row k.
    into: list[list] = [[] for _ in range(n)]
    for k in range(n - 1, 0, -1):
        row_k = rows[k]
        row_k.pop(k, None)  # the self-loop of k never enters
        s = sum(row_k.values())
        if s == 0:
            raise ValueError("kernel is not irreducible: no exit from a top block")
        for i in holders[k]:
            entry = rows[i].pop(k)
            into[k].append((i, entry * dens[k], dens[i] * s))
            h = math.gcd(s, entry)  # the fold is (s row_i + entry row_k) / (dens[i] s)
            scale, entry, den = s // h, entry // h, dens[i] * (s // h)
            row_i = {j: scale * v for j, v in rows[i].items()}
            for j, v in row_k.items():
                row_i[j] = row_i.get(j, 0) + entry * v
                if j > i:
                    holders[j].add(i)
            g = math.gcd(den, *row_i.values())
            rows[i] = {j: v // g for j, v in row_i.items()} if g > 1 else row_i
            dens[i] = den // g
    # pi[k] = pi_num[k] / pi_den[k]: its terms over the lcm of their denominators, reduced once
    pi_num, pi_den = [1] * n, [1] * n
    for k in range(1, n):
        terms = [(pi_num[i] * num, pi_den[i] * den) for i, num, den in into[k]]
        d = math.lcm(*(den for _, den in terms))
        p = sum(num * (d // den) for num, den in terms)
        g = math.gcd(p, d)
        pi_num[k], pi_den[k] = p // g, d // g
    d = math.lcm(*pi_den)
    weights = [p * (d // den) for p, den in zip(pi_num, pi_den)]
    total = sum(weights)
    return {state: Fraction(w, total) for w, state in zip(weights, tm.states)}


def total_variation(mu: dict, nu: dict, mu_tail: Scalar = 0, nu_tail: Scalar = 0) -> Scalar:
    """Half the l1 distance between two sub-distributions on a common space.

    A tail argument is extra mass living strictly outside the other
    distribution's support (used when one side has countable support that
    was only materialized up to a ceiling); it enters the sum whole.
    """
    for dist in (mu, nu):
        for value in dist.values():
            if value < 0:
                raise ValueError(f"negative probability {value}")
    if mu_tail < 0 or nu_tail < 0:
        raise ValueError("negative tail mass")
    diff = mu_tail + nu_tail
    for key in mu.keys() | nu.keys():
        diff += abs(mu.get(key, 0) - nu.get(key, 0))
    return diff / 2


@dataclass(frozen=True)
class ConvergenceRow:
    """Exact distance between the bounded and unbounded stationary laws at
    one parameter point, with the two provable bounds alongside."""

    m: int
    n: int
    q: Scalar
    tv: Scalar
    bound_exact: Scalar
    bound_simple: Scalar


def tv_to_unbounded(m: int, n: int, q: Scalar) -> ConvergenceRow:
    """Exact total variation between the bounded law at (m, n, q) and the
    unbounded law with the same n and q.

    The bounded law is supported on height sets inside {0..m-1}, so the
    unbounded law's mass outside those sets is exactly one minus its mass on
    them; no truncation error enters. For an exact q = a/b, TV = 1 - sum min(mu, nu) is
    one integer sum, reduced once: mu = W / S with S = sum W (`jep._numerators`), and
    nu = V / L with V = P a^s b^(top-s), L = D b^top, where (q;q)_n = P / D,
    s = sum(x) - binom(n,2) and top = n(m-n). A float q sums the float laws, as the
    integer form would round differently and cancel when TV is small. Either way the
    binom(m, n) height sets are enumerated, so over the state cap it raises ValueError.
    """
    bounded, unbounded = BoundedGeometric(m, n, q), UnboundedGeometric(n, q)  # validate first
    if isinstance(q, float):
        mu = stationary_distribution(bounded)
        nu = _unbounded_probs(unbounded, mu)
        tv = total_variation(mu, nu, nu_tail=1 - sum(nu.values()))
    else:
        _, _, numerators = _numerators(m, n, q, enumerate_states(m, n))
        weights = [(w, sum(state) - binom2(n)) for state, w in numerators]
        (a, b), poch, top = q.as_integer_ratio(), q_pochhammer(n, q), n * (m - n)
        total, scale = sum(w for w, _ in weights), poch.denominator * b**top  # S and L
        vs = [poch.numerator * a**s * b ** (top - s) * total for s in range(top + 1)]  # V S
        tv = Fraction(total * scale - sum(min(w * scale, vs[s]) for w, s in weights), total * scale)
    ell = m - n + 1
    return ConvergenceRow(m=m, n=n, q=q, tv=tv, bound_exact=1 - (1 - q**ell) ** m,
                          bound_simple=m * q**ell)


@dataclass(frozen=True)
class LimitRow:
    """Ground-state probability at (m, n, q) against its large-m target.

    ``value`` is the full ground-state probability; ``value_uncorrected``
    omits the q^binom(n,2) factor and does not converge to the target for
    n >= 2 (kept for side-by-side comparison). In floats it is inf once
    q^binom(n,2) underflows."""

    m: int
    n: int
    value: Scalar
    value_uncorrected: Scalar
    target: Scalar


def _limit_rows(q: Scalar, pairs, target: Scalar) -> list[LimitRow]:
    """The ground-state rows of the (m, n) pairs, in their order, raising what evaluating
    them one by one would. Each m comes with one n, and Z(m, n) / q^binom(n,2) is
    R[m+1, m-n+1] (`scaled_partition_z`): one running R triangle is walked once, to the
    largest m + 1, and only the entries read are reduced."""
    todo = []
    for m, n in pairs:
        todo.append((m, n, q_int(m - n + 1, q) ** n))
        if not 0 < q <= 1:
            raise ValueError(f"need 0 < q <= 1, got q={q}")
    wanted = {m + 1: m - n + 1 for m, n, _ in todo}
    rows = _triangle_rows(max(wanted, default=0), q, "R")
    zs = {r: _reduce(q, row[wanted[r]], binom2(r)) for r, row in enumerate(rows) if r in wanted}
    values = [(m, n, power / zs[m + 1], q ** binom2(n)) for m, n, power in todo]
    return [LimitRow(m, n, v, v / s if s else math.inf, target) for m, n, v, s in values]


def limit_rows_fixed_n(n: int, q: Scalar, m_values) -> list[LimitRow]:
    """Ground-state probabilities for fixed n over a range of m; the target
    is the n-term product (q;q)_n."""
    target = q_pochhammer(n, q)
    def pairs():
        for m in m_values:
            if m < n:
                raise ValueError(f"need m >= n, got m={m} n={n}")
            yield m, n
    return _limit_rows(q, pairs(), target)


def limit_rows_growing_n(q: Scalar, n_values) -> list[LimitRow]:
    """Ground-state probabilities with m = 2n, so that m - n grows with n;
    the target is the full Euler product, truncated at tail 1e-9."""
    return _limit_rows(q, ((2 * n, n) for n in n_values), euler_phi(q))
