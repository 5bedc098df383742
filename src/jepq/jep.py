"""The juggling exclusion chain: states, throw laws, kernels, closed forms.

A state is a strictly increasing tuple of particle heights. One step of the
dynamics: if height 0 is vacant, every particle falls by one; otherwise the
particle at 0 is picked up, the rest fall, and the picked-up particle is
rethrown to a vacant height drawn from the model's throw law. Two throw
laws are supported: truncated geometric on the m heights, plain geometric on
all of the nonnegative integers. Uniform throws on the m heights are the
truncated geometric law at q = 1.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, log10
from typing import Union

from .qcomb import Scalar, _table, binom2, partition_z, q_int, q_pochhammer

State = tuple[int, ...]
DEFAULT_STATE_CAP = 100_000

__all__ = [
    "State",
    "BoundedGeometric",
    "UnboundedGeometric",
    "BoundedUniform",
    "ThrowModel",
    "SteadyStats",
    "enumerate_states",
    "validate_state",
    "theta",
    "truncated_geometric_pmf",
    "step_kernel_row",
    "stationary_weight",
    "stationary_weights",
    "stationary_prob",
    "stationary_distribution",
    "closed_form_stats",
]


@dataclass(frozen=True)
class BoundedGeometric:
    """n particles on heights {0..m-1}; throws hit the x-th vacancy from
    below with probability proportional to q^x. q = 1 gives uniform throws."""

    m: int
    n: int
    q: Scalar

    def __post_init__(self):
        if not 0 <= self.n <= self.m:
            raise ValueError(f"need 0 <= n <= m, got n={self.n} m={self.m}")
        object.__setattr__(self, "q", Fraction(self.q) if isinstance(self.q, int) else self.q)
        if not 0 < self.q <= 1:
            raise ValueError(f"need 0 < q <= 1, got q={self.q}")

    @property
    def ell(self) -> int:
        return self.m - self.n + 1


@dataclass(frozen=True)
class UnboundedGeometric:
    """n particles on all nonnegative heights; throws hit the x-th vacancy
    from below with probability (1-q) q^x."""

    n: int
    q: Scalar

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"need n >= 0, got n={self.n}")
        if not 0 < self.q < 1:
            raise ValueError(f"need 0 < q < 1, got q={self.q}")


def BoundedUniform(m: int, n: int) -> BoundedGeometric:
    """n particles on heights {0..m-1}; throws hit each vacancy equally."""
    return BoundedGeometric(m, n, Fraction(1))


ThrowModel = Union[BoundedGeometric, UnboundedGeometric]


@dataclass(frozen=True)
class SteadyStats:
    """Closed-form steady-state statistics of the bounded geometric chain.

    ``throw_fraction`` carries a q^(n-1) factor relative to the raw ratio
    of normalizers; the raw form (``throw_fraction_uncorrected``) exceeds 1
    for n >= 2 and is kept only for side-by-side comparison. Exactness of
    the corrected form against direct summation is asserted in the tests.
    """

    ground: Scalar
    top: Scalar
    throw_fraction: Scalar
    throw_fraction_uncorrected: Scalar


def check_state_cap(m: int, n: int) -> None:
    """Raise ValueError when the height sets of n particles on {0..m-1} outnumber the state cap."""
    _check_size(comb(m, n), "state space")


def _check_size(count: int, kind: str) -> None:
    """The one home of the state cap, which every enumeration checks before it builds a list:
    JEPQ_STATE_CAP when set and not empty, else DEFAULT_STATE_CAP. A malformed cap always raises."""
    raw = os.environ.get("JEPQ_STATE_CAP")
    try:
        cap = int(raw) if raw else DEFAULT_STATE_CAP
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"JEPQ_STATE_CAP must be a positive integer, got {raw!r}")
    if count > cap:
        try:
            size = str(count)
        except ValueError:  # beyond Python's limit on int-to-decimal conversion
            size = f"of about {int(log10(count)) + 1} digits"
        raise ValueError(f"{kind} size {size} exceeds cap {cap}")


def enumerate_states(m: int, n: int) -> list[State]:
    """All n-subsets of {0..m-1} as sorted tuples, in lexicographic order."""
    if not 0 <= n <= m:
        raise ValueError(f"need 0 <= n <= m, got m={m} n={n}")
    check_state_cap(m, n)
    return list(combinations(range(m), n))


def validate_state(state: State, model: ThrowModel) -> None:
    """Raise ValueError unless ``state`` is legal for ``model``."""
    if len(state) != model.n:
        raise ValueError(f"state {state} has {len(state)} particles, model needs {model.n}")
    if any(b < 0 for b in state):
        raise ValueError(f"negative height in {state}")
    if any(state[i] >= state[i + 1] for i in range(len(state) - 1)):
        raise ValueError(f"heights must be strictly increasing, got {state}")
    if isinstance(model, BoundedGeometric):
        if state and state[-1] > model.m - 1:
            raise ValueError(f"height {state[-1]} out of range for m={model.m}")


def theta(excluded, x: int) -> int:
    """The (x+1)-th smallest nonnegative integer outside ``excluded``."""
    if x < 0:
        raise ValueError(f"need x >= 0, got x={x}")
    h = x
    for a in sorted(excluded):
        if a > h:
            break
        h += 1
    return h


@lru_cache(maxsize=4, typed=True)
def truncated_geometric_pmf(ell: int, q: Scalar) -> tuple[Scalar, ...]:
    """The geometric law conditioned on {0..ell-1}: pmf(x) = q^x / [ell]_q,
    which is uniform at q = 1. The last few laws are cached, keyed by the
    type of q as well as its value, so an exact caller never gets a float law."""
    if ell < 1:
        raise ValueError(f"need ell >= 1, got ell={ell}")
    if not 0 < q <= 1:
        raise ValueError(f"need 0 < q <= 1, got q={q}")
    out = []
    power = Fraction(1) / q_int(ell, q)  # exact for an int q, 1.0 / [ell]_q for a float
    for _ in range(ell):
        out.append(power)
        power = power * q
    return tuple(out)


def _step(state: State, rank: int | None) -> State:
    """One transition: every ball falls one height, and on a throw step
    (``rank`` not None) the ball that fell from height 0 lands on vacancy
    ``rank`` of the shifted state."""
    shifted = tuple([b - 1 for b in state])
    if rank is None:
        return shifted
    x_star = shifted[1:]
    return tuple(sorted(x_star + (theta(x_star, rank),)))


def step_kernel_row(state: State, model: ThrowModel) -> dict[State, Scalar]:
    """One row of the transition kernel: successor states and probabilities.

    Bounded models only; the empty state (n = 0) is a self-loop.
    """
    if isinstance(model, UnboundedGeometric):
        raise ValueError("kernel rows need a finite state space")
    validate_state(state, model)
    if 0 not in state:
        return {_step(state, None): Fraction(1)}
    pmf = truncated_geometric_pmf(model.ell, model.q)
    return {_step(state, rank): p for rank, p in enumerate(pmf)}


def _numerators(m: int, n: int, q: Scalar, states):
    """The bounded law over one denominator. With q = a/b in lowest terms, `qcomb`'s
    table gives [c]_q = N_c / b^(c-1), so the weight of x_1 < ... < x_n is W / b^E
    with W = prod_k N_(m-n-x_k+k) * a^(x_1+...+x_n) and E = n(m-n) + binom(n,2).
    Returns b^E and a stream of (state, W). A float q takes a = q and b = 1: the
    product's float steps."""
    a, b, nums, _, _ = _table(m - n + 1, q)
    nums = list(nums)
    def stream():
        for state in states:
            w = 1 + 0 * a
            for k, x in enumerate(state, start=1):
                w = w * nums[m - n - x + k]
            yield state, w * a ** sum(state)
    return b ** (n * (m - n) + binom2(n)), stream()


def _bounded_law(model: BoundedGeometric, states, normalized: bool = False) -> dict[State, Scalar]:
    """The weights of the given states, in their order; divided by Z when ``normalized``."""
    scale, numerators = _numerators(model.m, model.n, model.q, states)
    den = partition_z(model.m, model.n, model.q) * scale if normalized else scale
    if isinstance(model.q, float):
        return {state: w / den for state, w in numerators}
    # an exact q: one reduction of each integer W by den, an int or (as Z b^E is) a Fraction
    return {state: Fraction(w * den.denominator, den.numerator) for state, w in numerators}


def stationary_weight(state: State, model: ThrowModel) -> Scalar:
    """Unnormalized stationary weight of a state.

    Bounded geometric: prod over x in B of [1 + v(x)] * q^x, with v(x) the
    number of vacant heights in {x..m-1}; at q = 1 (uniform throws) this is
    prod (1 + v(x)), the number of rook extensions of B. Unbounded
    geometric: q^(sum of heights).
    """
    validate_state(state, model)
    if isinstance(model, UnboundedGeometric):
        return model.q ** sum(state)
    return _bounded_law(model, [state])[state]


def stationary_weights(model: ThrowModel) -> dict[State, Scalar]:
    """Unnormalized stationary weights of every state of a bounded model, in
    `enumerate_states` order; each equals `stationary_weight` of its state."""
    if isinstance(model, UnboundedGeometric):
        raise ValueError("unbounded law has infinite support; use stationary_weight")
    return _bounded_law(model, enumerate_states(model.m, model.n))


def _unbounded_probs(model: UnboundedGeometric, states) -> dict[State, Scalar]:
    """Unbounded stationary probabilities of the given (valid) states: one
    normalizer (q;q)_n q^(-binom(n,2)) times each weight q^(sum of heights)."""
    n, q = model.n, model.q
    try:
        scale = q_pochhammer(n, q) * q ** (-binom2(n))
    except OverflowError:
        raise ValueError(f"q={q} is too small: q^-{binom2(n)} exceeds the float range") from None
    return {state: scale * q ** sum(state) for state in states}


def stationary_prob(state: State, model: ThrowModel) -> Scalar:
    """Stationary probability of a state under the model's closed form."""
    validate_state(state, model)
    if isinstance(model, UnboundedGeometric):
        return _unbounded_probs(model, [state])[state]
    return _bounded_law(model, [state], normalized=True)[state]


def stationary_distribution(model: ThrowModel) -> dict[State, Scalar]:
    """The full closed-form stationary law of a bounded model."""
    if isinstance(model, UnboundedGeometric):
        raise ValueError("unbounded law has infinite support; use stationary_prob")
    return _bounded_law(model, enumerate_states(model.m, model.n), normalized=True)


def closed_form_stats(m: int, n: int, q: Scalar) -> SteadyStats:
    """Ground-state, top-state, and throw-fraction statistics of the
    bounded geometric chain in steady state; an int q gives Fractions."""
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got m={m} n={n}")
    q = BoundedGeometric(m, n, q).q
    z = partition_z(m, n, q)
    ell = m - n + 1
    ground = q_int(ell, q) ** n * q ** binom2(n) / z
    top = q ** (n * m - binom2(n + 1)) / z
    uncorrected = q_int(ell, q) * partition_z(m - 1, n - 1, q) / z
    return SteadyStats(ground, top, q ** (n - 1) * uncorrected, uncorrected)
