"""Seeded simulation of the juggling chains and the coupled two-chain run.

Randomness comes from a small counter-based generator (Weyl sequence fed
through the SplitMix64 finalizer), so every draw is a pure function of
(seed, stream, call index): trajectories reproduce bit for bit on any
platform, and parallel replicas get independent streams by mixing the
replica index into the seed rather than by sharing state.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Callable

from .qcomb import Scalar
from .jep import (
    BoundedGeometric,
    State,
    ThrowModel,
    UnboundedGeometric,
    _step,
    validate_state,
)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

__all__ = [
    "RngStream",
    "Trajectory",
    "CoupledRun",
    "simulate",
    "empirical_distribution",
    "coupled_throw_pair",
    "coupled_simulate",
]


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class RngStream:
    """Deterministic generator: output i of stream s under seed x is
    mix64(mix64(x XOR mix64(s * GAMMA)) + i * GAMMA)."""

    def __init__(self, seed: int, stream: int = 0):
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        self.seed = seed
        self.stream = stream
        self._counter = _mix64(seed ^ _mix64(stream * _GAMMA & _MASK64))

    def next_u64(self) -> int:
        self._counter = (self._counter + _GAMMA) & _MASK64
        return _mix64(self._counter)

    def uniform(self) -> float:
        """A float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randrange(self, k: int) -> int:
        """An integer uniform on {0..k-1} (bias below 2^-53, irrelevant here)."""
        return min(int(self.uniform() * k), k - 1)

    def geometric(self, q: float) -> int:
        """Inverse-CDF geometric draw: P(X = x) = (1-q) q^x."""
        u = 1.0 - self.uniform()
        return int(math.log(u) / math.log(q))

    def truncated_geometric(self, ell: int, q: float) -> int:
        """Inverse-CDF draw of the geometric law conditioned on {0..ell-1};
        q = 1 is the uniform law."""
        if q == 1:
            return self.randrange(ell)
        u = self.uniform()
        # the two logarithms share a sign, so x >= 0; rounding can reach ell
        x = int(math.log(1.0 - u * (1.0 - q**ell)) / math.log(q))
        return x if x < ell else ell - 1


@dataclass
class Trajectory:
    initial: State
    states: list[State]
    throw_count: int

    @property
    def steps(self) -> int:
        return len(self.states) - 1

    @property
    def throw_fraction(self) -> float:
        return self.throw_count / self.steps if self.steps else 0.0


@dataclass
class CoupledRun:
    """A bounded and an unbounded path driven by one coupled throw sequence.

    ``first_decouple_step`` is the first step index (1-based) at which the
    two throw draws differed, or None if they agreed throughout."""

    first_decouple_step: int | None
    bounded_states: list[State]
    unbounded_states: list[State]


def _rank_sampler(rng: RngStream, model: ThrowModel) -> Callable[[], int]:
    """A draw of the model's throw rank: which vacancy, counted from below,
    the rethrown particle lands on."""
    q = float(model.q)
    if isinstance(model, UnboundedGeometric):
        return lambda: rng.geometric(q)
    ell = model.ell
    return lambda: rng.truncated_geometric(ell, q)


class _Successors:
    """The transitions one run takes, over interned states.

    Each distinct state is stored once, in ``states``, under an integer id.
    ``rows[i]`` is the id state i falls to (None until that step is first
    taken) or, when state i has a ball at height 0, its throw row
    {rank: id}. Missing entries are filled by `_step`. Given the rank, a
    transition does not depend on the throw model, so chains of different
    models can share one table. ``throws`` counts the throw steps taken.
    """

    def __init__(self, initial: State):
        self.states: list[State] = []
        self.ids: dict[State, int] = {}
        self.rows: list[int | dict[int, int] | None] = []
        self.throws = 0
        self._intern(initial)

    def _intern(self, state: State) -> int:
        i = self.ids.get(state)
        if i is None:
            i = self.ids[state] = len(self.states)
            self.states.append(state)
            self.rows.append({} if state[:1] == (0,) else None)
        return i

    def step(self, i: int, rank: Callable[[], int]) -> int:
        """The id after one step from id ``i``; ``rank`` is called for the
        throw rank on throw steps only, so a chain that merely falls
        consumes no randomness."""
        row = self.rows[i]
        if isinstance(row, dict):
            self.throws += 1
            r = rank()
            j = row.get(r)
            if j is None:
                j = row[r] = self._intern(_step(self.states[i], r))
            return j
        if row is None:
            row = self.rows[i] = self._intern(_step(self.states[i], None))
        return row


def simulate(model: ThrowModel, initial: State, steps: int, seed: int, stream: int = 0) -> Trajectory:
    """Run the chain for ``steps`` transitions from ``initial``. The
    trajectory holds one reference per step to the run's interned states."""
    validate_state(initial, model)
    if steps < 0:
        raise ValueError(f"need steps >= 0, got {steps}")
    rank = _rank_sampler(RngStream(seed, stream), model)
    table = _Successors(initial)
    states = [initial]
    current = 0
    for _ in range(steps):
        current = table.step(current, rank)
        states.append(table.states[current])
    return Trajectory(initial=initial, states=states, throw_count=table.throws)


def empirical_distribution(traj: Trajectory, burn_in: int = 1000) -> dict[State, float]:
    """Visit frequencies over the states at times burn_in..T."""
    if burn_in < 0:
        raise ValueError(f"need burn_in >= 0, got {burn_in}")
    if burn_in >= len(traj.states):
        raise ValueError(f"burn_in {burn_in} leaves no samples")
    counts = Counter(islice(traj.states, burn_in, None))
    total = len(traj.states) - burn_in
    return {state: c / total for state, c in counts.items()}


def coupled_throw_pair(rng: RngStream, ell: int, q: float) -> tuple[int, int, bool]:
    """One maximal-coupling draw of (unbounded, truncated) throw ranks.

    The unbounded draw is geometric; when it lands below ell the truncated
    draw copies it, otherwise the truncated draw is fresh. Disagreement
    happens exactly with probability q^ell (the distance between the two
    laws), and the copy-plus-residual construction leaves the truncated
    marginal exact."""
    xi = rng.geometric(q)
    if xi < ell:
        return xi, xi, True
    return xi, rng.truncated_geometric(ell, q), False


def coupled_simulate(
    m: int, n: int, q: Scalar, initial: State, steps: int, seed: int, stream: int = 0
) -> CoupledRun:
    """Run the bounded and unbounded chains from one initial state, feeding
    both from a per-step sequence of coupled throw ranks.

    One coupled pair is consumed every step whether or not a throw happens,
    so the two paths agree through step t whenever the first t pairs agree;
    that event has probability exactly (1 - q^ell)^t."""
    bounded = BoundedGeometric(m, n, q)
    unbounded = UnboundedGeometric(n, q)
    validate_state(initial, bounded)
    rng = RngStream(seed, stream)
    qf = float(q)
    ell = bounded.ell
    table = _Successors(initial)
    b_states = [initial]
    u_states = [initial]
    b_cur = u_cur = 0
    decouple: int | None = None
    for t in range(1, steps + 1):
        xi, xi_hat, agreed = coupled_throw_pair(rng, ell, qf)
        b_cur = table.step(b_cur, lambda: xi_hat)
        u_cur = table.step(u_cur, lambda: xi)
        b_states.append(table.states[b_cur])
        u_states.append(table.states[u_cur])
        if decouple is None:
            if not agreed:
                decouple = t
            else:
                assert b_cur == u_cur, "coupled paths must agree while draws agree"
    return CoupledRun(
        first_decouple_step=decouple,
        bounded_states=b_states,
        unbounded_states=u_states,
    )
