"""Brute-force machinery independent of the closed forms: full transition
matrices over enumerated state spaces, exact stationary solves, total
variation distances, and convergence tables against the unbounded chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .qcomb import Scalar, binom2, euler_phi, _reduce, _table, _triangle_rows, q_int, q_pochhammer
from .jep import BoundedGeometric, ThrowModel, UnboundedGeometric, _numerators, _step
from .jep import check_state_cap, enumerate_states
from .rook import _successors, enumerate_configs

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
    """Row-stochastic kernel over an explicitly enumerated state list. A builder gives it its
    rows as integers over one scale (`_weighted`), and `rows` is built from those when read."""

    def __init__(self, states: list, rows: list[dict]):
        if len(states) != len(rows):
            raise ValueError("one row per state required")
        self.states = list(states)
        self._rows, self._scaled_rows = list(rows), None  # the scale and rows of `_weighted`
        self.pos = {s: i for i, s in enumerate(self.states)}
        if len(self.pos) != len(self.states):
            raise ValueError("duplicate states")

    @property
    def rows(self) -> list[dict]:
        if self._rows is None:  # a float scale gives float entries
            scale, rows = self._scaled_rows
            self._rows = [{self.states[j]: Fraction(v) / scale for j, v in r.items()} for r in rows]
        return self._rows

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
        if self._scaled_rows:  # a builder's kernel is exact unless its scale is a float
            return not isinstance(self._scaled_rows[0], float)
        return all(not isinstance(p, float) for row in self._rows for p in row.values())


def build_transition_matrix(model: ThrowModel) -> TransitionMatrix:
    """Assemble the full kernel of a bounded model over all its states."""
    if isinstance(model, UnboundedGeometric):
        raise ValueError("unbounded model has an infinite state space")
    return _weighted(_bounded_shape(model.m, model.n), model.q)


def build_extended_matrix(m: int, n: int, q: Scalar) -> TransitionMatrix:
    """Assemble the kernel of the extended rook chain on the board of height m."""
    configs = enumerate_configs(m, n)
    q, pos = BoundedGeometric(m, n, q).q, {c: i for i, c in enumerate(configs)}
    return _weighted((configs, [[pos[s] for s in _successors(m, c)] for c in configs]), q)


def _bounded_shape(m: int, n: int) -> tuple[list, list[list[int]]]:
    """The states of n balls below m and each one's successor indices, by `jep._step`."""
    states, ranks = enumerate_states(m, n), range(m - n + 1)
    pos = {s: i for i, s in enumerate(states)}
    return states, [[pos[_step(s, r)] for r in (ranks if 0 in s else (None,))] for s in states]


def _weighted(shape: tuple[list, list[list[int]]], q: Scalar) -> TransitionMatrix:
    """The kernel of a shape: states and each one's successor indices, one for a fall or drift,
    or ell in rank order for a throw. With q = a/b (`qcomb._table`; a float q is (q, 1), so its
    kernel stays inexact) a throw to rank r weighs a^r b^(ell-1-r), a fall their sum L = N_ell:
    as a and b are coprime, L is the lcm of the entries' denominators, as `_scaled` takes it."""
    states, successors = shape
    ell = max(map(len, successors))
    _, _, _, pows, bpows = _table(ell, q)
    weights = [x * y for x, y in zip(pows, [*bpows][ell - 1 :: -1])]
    scale = sum(weights)
    rows = [dict(zip(s, weights)) if len(s) == ell else {s[0]: scale} for s in successors]
    tm = TransitionMatrix(states, rows)  # checks the states; `rows` is then built when read
    tm._rows, tm._scaled_rows = None, (scale, rows)
    return tm


# Exponents e of the Mersenne primes 2^e - 1 that the solve tries, in order
_MERSENNE_EXPONENTS = (127, 521, 1279, 2203, 4423, 9689, 19937, 44497, 86243, 216091)


def solve_stationary(tm: TransitionMatrix) -> dict:
    """The unique stationary distribution of an ergodic kernel whose rows are laws on its
    states, with rational entries; any other kernel is refused before the first prime. State
    reduction (Grassmann, Taksar and Heyman) runs mod a Mersenne prime with no pivoting: exact
    entries stay nonnegative, so supports are kept exactly, zero residues included. Rational
    reconstruction gives weights N >= 0, returned only if N P = N in integers (every state
    reaches state 0, so N is the law); else the next prime, and ValueError after the last."""
    if len(tm) == 0:
        raise ValueError("empty state space")
    lcm, scaled = _scaled(tm)
    for e in _MERSENNE_EXPONENTS:
        weights = _certified_weights(scaled, lcm, (1 << e) - 1)
        if weights is not None:
            total = sum(weights)
            return {state: Fraction(w, total) for w, state in zip(weights, tm.states)}
    raise ValueError("no prime in the ladder certifies the stationary law")


def _scaled(tm: TransitionMatrix) -> tuple[int, list[dict]]:
    """L, the lcm of the entry denominators, and the rows as {successor index: entry L}, zero
    entries dropped; ValueError unless the kernel is exact and every row a law on its states.
    A builder's integer rows are returned as they were built; only hand-built rows are read."""
    if not tm.is_exact():
        raise ValueError("solve_stationary needs an exact kernel; build it with a rational q")
    if tm._scaled_rows is not None:
        return tm._scaled_rows
    lcm = math.lcm(*(p.denominator for row in tm.rows for p in row.values()))
    try:
        scaled = [{tm.pos[succ]: p.numerator * (lcm // p.denominator) for succ, p in row.items() if p}
                  for row in tm.rows]
    except KeyError as err:  # the first successor, in row order, that is not a state
        raise ValueError(f"successor {err.args[0]!r} is not a state") from None
    for state, row in zip(tm.states, scaled):
        if min(row.values(), default=0) < 0 or sum(row.values()) != lcm:
            raise ValueError(f"the row of {state!r} is not a probability law")
    return lcm, scaled


def _balanced(scaled: list[dict], lcm: int, weights: list[int]) -> bool:
    """Whether N P = N for integer weights N, with P = scaled / lcm."""
    flow = [0] * len(weights)  # N P, over lcm
    for w, row in zip(weights, scaled):
        for j, v in row.items():
            flow[j] += w * v
    return flow == [w * lcm for w in weights]


def _over_lcm(law: dict) -> tuple[int, dict]:
    """D, the lcm of an exact law's denominators, and the law as {key: mass D}."""
    common = math.lcm(*(p.denominator for p in law.values()))
    return common, {key: p.numerator * (common // p.denominator) for key, p in law.items()}


def _is_stationary(tm: TransitionMatrix, law: dict) -> bool:
    """Whether exact weights on exactly the states of tm have law P = law. That holds at any
    scale, so a law put over a common denominator (`_over_lcm`) is certified in integers."""
    lcm, scaled = _scaled(tm)  # raises as `solve_stationary` does for a kernel it refuses
    return law.keys() == tm.pos.keys() and _balanced(scaled, lcm, [law[s] for s in tm.states])


def _certified_weights(scaled: list[dict], lcm: int, p: int) -> list[int] | None:
    """The law's weights N by state reduction mod p if N P = N holds in integers, else None."""
    n = len(scaled)
    a = [{j: v % p for j, v in row.items()} for row in scaled]  # the common lcm cancels
    holders = [set() for _ in range(n)]  # holders[k]: rows i < k holding k
    for i, row in enumerate(a):
        for j in row:
            if j > i:
                holders[j].add(i)
    # Censor k: row i folds in a[i][k] row k / s, s the exit mass of k; into[k] keeps a[i][k] / s
    into: list[list] = [[] for _ in range(n)]
    for k in range(n - 1, 0, -1):
        row_k = a[k]
        row_k.pop(k, None)  # the self-loop of k never enters
        if not row_k:
            raise ValueError("kernel is not irreducible: no exit from a top block")
        if (s := sum(row_k.values()) % p) == 0:
            return None
        inv = pow(s, -1, p)
        row_k = {j: v * inv % p for j, v in row_k.items()}
        for i in holders[k]:
            row_i = a[i]
            entry = row_i.pop(k) % p  # folded entries are reduced when read
            into[k].append((i, entry * inv))
            for j, v in row_k.items():
                row_i[j] = row_i.get(j, 0) + entry * v
                if j > i:
                    holders[j].add(i)
    # pi_0 = 1; one common denominator, grown by reconstruction where a weight is not small
    pi, common, bound = [1] * n, 1, math.isqrt(p >> 1)
    for k in range(1, n):
        pi[k] = sum(pi[i] * ratio for i, ratio in into[k]) % p
        if (y := common * pi[k] % p) > bound:
            if (den := _denominator(y, p, bound)) > bound:
                return None  # no fraction this small: p is too narrow
            common = common * den % p  # never 0: each factor is below p
    weights = [common * x % p for x in pi]  # in [0, p), so N >= 0
    return weights if _balanced(scaled, lcm, weights) else None


def _denominator(y: int, p: int, bound: int) -> int:
    """b with y = a / b mod p, |a| <= bound, by extended Euclid (Wang); b <= bound if one exists."""
    r0, r1, t0, t1 = p, y, 0, 1
    while r1 > bound:
        quotient = r0 // r1
        r0, r1, t0, t1 = r1, r0 - quotient * r1, t1, t0 - quotient * t1
    return abs(t1)


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
    return diff * Fraction(1, 2)  # exact for exact inputs; a float diff is halved as by / 2


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
    """Total variation between the bounded law at (m, n, q) and the unbounded law with the
    same n and q: exact for an exact q, and summed with no cancelling term for a float q.

    For an exact q = a/b, TV = 1 - sum min(mu, nu) is one integer sum, reduced once: mu = W / S,
    S = sum W (`jep._numerators`), nu = V / L, V = P a^s b^(top-s), L = D b^top, (q;q)_n = P / D,
    s = sum(x) - binom(n,2), top = n(m-n). A float q walks vacancies v_k = x_k - (k-1) < l = m-n+1:
    mu_x = nu_x e^(L_x) / S, L_x = sum log1p(-q^(l-v_k)), and TV is nu's mass off the height sets
    plus sum nu_x max(-expm1(L_x - log S), 0), log S = log1p(-D) while D = 1 - S, a sum of
    nonnegative terms, is below 1/2. A float bound_exact is -expm1(m log1p(-q^l)). Over the state
    cap it raises ValueError."""
    BoundedGeometric(m, n, q), UnboundedGeometric(n, q)  # validate first
    ell = m - n + 1
    if isinstance(q, float):
        check_state_cap(m, n)
        lg = [math.log1p(-q ** (ell - v)) for v in range(ell)]  # L_x = sum of lg[v_k]
        pw = [q**v for v in range(ell)]  # nu_x = (q;q)_n prod of pw[v_k]
        laws = [(0.0, 1.0, 0)]  # (L_x, nu_x / (q;q)_n, last v) over the v_k placed so far
        for _ in range(n):
            laws = [(g + lg[w], r * pw[w], w) for g, r, v in laws for w in range(v, ell)]
        lp = math.fsum(math.log1p(-q**k) for k in range(1, n + 1))  # log (q;q)_n
        poch = math.exp(lp)  # 0.0 where (q;q)_n underflows; lp stays finite
        outside = -math.expm1(math.fsum(math.log1p(-q**k) for k in range(ell, m + 1)))  # nu's mass
        d = poch * math.fsum(r * -math.expm1(g) for g, r, _ in laws) + outside  # D = 1 - S
        g0 = laws[0][0]  # the ground's L_x: shifted by it and by log (q;q)_n, S's sum is >= 1
        log_s = (math.log1p(-d) if d < 0.5  # near TV = 1, log S comes from S's own sum
                 else lp + g0 + math.log(math.fsum(r * math.exp(g - g0) for g, r, _ in laws)))
        tv = outside + poch * math.fsum(r * -math.expm1(g - log_s) for g, r, _ in laws if g < log_s)
        bound_exact = -math.expm1(m * math.log1p(-q**ell))
    else:
        _, numerators = _numerators(m, n, q, enumerate_states(m, n))
        weights = [(w, sum(state) - binom2(n)) for state, w in numerators]
        (a, b), poch, top = q.as_integer_ratio(), q_pochhammer(n, q), n * (m - n)
        total, scale = sum(w for w, _ in weights), poch.denominator * b**top  # S and L
        vs = [poch.numerator * a**s * b ** (top - s) * total for s in range(top + 1)]  # V S
        tv = Fraction(total * scale - sum(min(w * scale, vs[s]) for w, s in weights), total * scale)
        bound_exact = 1 - (1 - q**ell) ** m
    return ConvergenceRow(m=m, n=n, q=q, tv=tv, bound_exact=bound_exact, bound_simple=m * q**ell)


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
    """The ground-state rows of the (m, n) pairs, in their order, at a q its callers have
    checked, raising what the pairs raise, then OverflowError if a float Z read is inf. Each m
    has one n, and Z(m, n) / q^binom(n,2) is R[m+1, m-n+1] (`scaled_partition_z`): one running
    R triangle is walked once, to the largest m + 1, and only the entries read are reduced."""
    todo = [(m, n, q_int(m - n + 1, q) ** n) for m, n in pairs]
    wanted = {m + 1: m - n + 1 for m, n, _ in todo}
    rows = _triangle_rows(max(wanted, default=0), q, "R")
    zs = {r: _reduce(q, row[wanted[r]], binom2(r)) for r, row in enumerate(rows) if r in wanted}
    if math.inf in zs.values():
        raise OverflowError("a scaled normalizer exceeds the float range")
    values = [(m, n, power / zs[m + 1], q ** binom2(n)) for m, n, power in todo]
    return [LimitRow(m, n, v, v / s if s else math.inf, target) for m, n, v, s in values]


def limit_rows_fixed_n(n: int, q: Scalar, m_values) -> list[LimitRow]:
    """Ground-state probabilities for fixed n over a range of m against the n-term product
    (q;q)_n. q is checked first, by `BoundedGeometric` (an int q gives Fractions), then n."""
    q = BoundedGeometric(0, 0, q).q
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
