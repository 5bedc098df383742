"""Seeded simulation of the juggling chains and the coupled two-chain run.

Randomness comes from a small counter-based generator (Weyl sequence fed
through the SplitMix64 finalizer): a draw is a 53-bit integer, the same pure function
of (seed, stream, call index) on any platform, and replicas get independent streams
by mixing the replica index into the seed. Ranks go through the platform's
``math.log`` (`_rank`), so trajectories reproduce bit for bit where it rounds alike.
`_rank` is monotone in the draw, so a block of draws is ranked by a table on each draw's top
byte: the rank `_rank` gives at both ends of the byte's bucket, or a mark where those differ, and
a marked draw goes through `_rank`. The coupled run is one chain on (bounded, unbounded) state
pairs: a step whose ranks agree is one lookup.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from operator import length_hint

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
# a run draws uniforms in blocks of at most this many, never past what it can use
_MAX_BLOCK = 512
_LANE = struct.Struct("<Q8x")  # a lane of a block: the word whose top 53 bits are the draw

__all__ = [
    "RngStream",
    "Trajectory",
    "CoupledRun",
    "simulate",
    "empirical_distribution",
    "coupled_simulate",
]


def _mix64(z: int, lanes: int = _MASK64) -> int:
    """SplitMix64's finalizer on each 64-bit word of z that ``lanes`` masks; a word in a 128-bit
    lane times a 64-bit constant never carries over, and the masks drop what a shift brings in."""
    z = ((z ^ z >> 30) & lanes) * 0xBF58476D1CE4E5B9 & lanes
    z = ((z ^ z >> 27) & lanes) * 0x94D049BB133111EB & lanes
    return z ^ z >> 31


@lru_cache(maxsize=None)
def _block_constants() -> tuple[int, int, int, int]:
    """1, 2^64 - 1, (i+1) * GAMMA and _MAX_BLOCK * GAMMA mod 2^64 in lane i of a full block."""
    ones = int.from_bytes((b"\1" + bytes(15)) * _MAX_BLOCK, "little")
    gammas = b"".join((i * _GAMMA).to_bytes(16, "little") for i in range(1, _MAX_BLOCK + 1))
    stride = ones * (_MAX_BLOCK * _GAMMA & _MASK64)
    return ones, ones * _MASK64, int.from_bytes(gammas, "little"), stride


class RngStream:
    """Deterministic generator: output i of stream s under seed x is
    mix64(mix64(x XOR mix64(s * GAMMA)) + i * GAMMA).

    A block of draws is computed at once, in 128-bit lanes of one integer;
    a draw is still a pure function of (seed, stream, index)."""

    def __init__(self, seed: int, stream: int = 0):
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        if not 0 <= stream <= _MASK64:
            raise ValueError(f"stream must fit in 64 bits, got {stream}")
        self._counter = _mix64(seed ^ _mix64(stream * _GAMMA & _MASK64))
        self._lanes = 0  # the counters of the last block if it was full, else 0

    def uniforms(self, k: int) -> list[float]:
        """The next k floats in [0, 1), 53 random bits each; the stream advances by k."""
        if k < 0:
            raise ValueError(f"need k >= 0, got {k}")
        blocks = (self._block(min(k - i, _MAX_BLOCK)) for i in range(0, k, _MAX_BLOCK))
        return [(w >> 11) * 2.0**-53 for block in blocks for w, in _LANE.iter_unpack(block)]

    def _block(self, k: int) -> bytes:
        """The next k <= _MAX_BLOCK draws, 16 little-endian bytes each: lane i's low 8 bytes are a
        word whose top 53 bits are draw i, so byte 16i + 7 is its top byte (d >> 45); the high 8
        bytes are unused. A full block after a full block adds _MAX_BLOCK * GAMMA to its counters."""
        ones, words, gammas, stride = _block_constants()
        c, self._counter = self._counter, (self._counter + k * _GAMMA) & _MASK64
        if k == _MAX_BLOCK and self._lanes:
            lanes = self._lanes = (self._lanes + stride) & words
        else:
            low = (1 << 128 * k) - 1
            lanes = (c * (ones & low) + (gammas & low)) & words
            self._lanes = lanes if k == _MAX_BLOCK else 0
        return _mix64(lanes, words).to_bytes(16 * k, "little")


def _rank(u: float, log_q: float, mass: float = 1.0, ell: float = math.inf) -> int:
    """The inverse CDF of a throw law at a uniform u in [0, 1): geometric by
    default; with mass = 1 - q^ell, conditioned on {0..ell-1}; with mass = 0
    (q = 1), uniform on {0..ell-1}. The logarithms share a sign, so ranks are
    >= 0; rounding can reach ell."""
    x = int(math.log(1.0 - u * mass) / log_q) if mass else int(u * ell)
    return x if x < ell else ell - 1


@lru_cache(maxsize=16)
def _ranker(model: ThrowModel):
    """`_rank` of ``model``'s throw law on a block of draws (`RngStream._block`; u = d * 2^-53).
    A draw's top byte b indexes a table built from `_rank` at the least and greatest words of
    b's bucket, b << 56 and (b + 1 << 56) - 1: where `_rank` is monotone in the draw, every draw
    in the bucket has the rank those two share. A bucket whose ends differ, or share a rank of
    255 or more, is marked 255, and its draws go through `_rank`. Replicas share one table."""
    q = float(model.q)
    law = () if isinstance(model, UnboundedGeometric) else (1.0 - q**model.ell, model.ell)
    rank = lambda w, log_q=math.log(q): _rank((w >> 11) * 2.0**-53, log_q, *law)
    spans = ((rank(b << 56), rank((b + 1 << 56) - 1)) for b in range(256))
    table = bytes(lo if lo == hi < 255 else 255 for lo, hi in spans)
    def ranks(block: bytes) -> bytes | list[int]:
        tops = block[7::16].translate(table)
        i = tops.find(255)
        if i < 0:
            return tops
        out = list(tops)
        while i >= 0:
            (w,) = _LANE.unpack_from(block, 16 * i)
            out[i] = rank(w)
            i = tops.find(255, i + 1)
        return out
    return ranks


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


class _Successors:
    """The transitions one run takes, over interned states.

    Each distinct state is stored once, in ``states``, under an integer id.
    ``rows[i]`` is the id state i falls to (None until that step is first
    taken) or, when state i has a ball at height 0, its throw row
    {rank: id}. `step` reads an entry and fills a missing one through
    `_step`. Given the rank, a transition does not depend on the throw
    model, so chains of different models can share one table.
    """

    def __init__(self, initial: State):
        self.states: list[State] = []
        self.ids: dict[State, int] = {}
        self.rows: list[int | dict[int, int] | None] = []
        self._intern(initial)

    def _intern(self, state: State) -> int:
        i = self.ids.get(state)
        if i is None:
            i = self.ids[state] = len(self.states)
            self.states.append(state)
            self.rows.append({} if state[:1] == (0,) else None)
        return i

    def step(self, i: int, rank: int | None) -> int:
        """The id state ``i`` moves to: its fall (``rank`` unread) or its throw to ``rank``. A
        transition not taken before is filled in through `_step`."""
        row = self.rows[i]
        if type(row) is dict:
            if (j := row.get(rank)) is None:
                j = row[rank] = self._intern(_step(self.states[i], rank))
            return j
        if row is None:
            row = self.rows[i] = self._intern(_step(self.states[i], None))
        return row


def simulate(model: ThrowModel, initial: State, steps: int, seed: int, stream: int = 0) -> Trajectory:
    """Run the chain for ``steps`` transitions from ``initial``, drawing a rank
    on throw steps only. The trajectory holds one reference per step to the
    run's interned states."""
    validate_state(initial, model)
    if steps < 0:
        raise ValueError(f"need steps >= 0, got {steps}")
    rng, ranks = RngStream(seed, stream), _ranker(model)
    table = _Successors(initial)
    rows, table_states, step = table.rows, table.states, table.step
    states, end = [initial], steps + 1
    current = falls = 0
    pending = iter(())  # the ranks drawn and not yet used, never more than the steps left
    while (left := end - len(states)) > 0:
        row = rows[current]
        if type(row) is not dict:  # a fall takes no rank
            current = step(current, None) if row is None else row
            states.append(table_states[current])
            falls += 1
            continue
        if (held := length_hint(pending)) > left:  # falls since the draw left fewer steps
            pending = iter(tuple(islice(pending, left)))
        elif not held:  # each remaining step throws at most once
            pending = iter(ranks(rng._block(min(_MAX_BLOCK, left))))
        for r in pending:  # throw until the chain falls or the ranks run out
            try:
                current = row[r]
            except KeyError:
                current = step(current, r)
            states.append(table_states[current])
            if type(row := rows[current]) is not dict:
                break
    return Trajectory(initial=initial, states=states, throw_count=steps - falls)


def empirical_distribution(traj: Trajectory, burn_in: int = 1000) -> dict[State, float]:
    """Visit frequencies over the states at times burn_in..T."""
    if burn_in < 0:
        raise ValueError(f"need burn_in >= 0, got {burn_in}")
    if burn_in >= len(traj.states):
        raise ValueError(f"burn_in {burn_in} leaves no samples")
    counts = Counter(islice(traj.states, burn_in, None))
    total = len(traj.states) - burn_in
    return {state: c / total for state, c in counts.items()}


def coupled_simulate(
    m: int, n: int, q: Scalar, initial: State, steps: int, seed: int, stream: int = 0
) -> CoupledRun:
    """Run the bounded and unbounded chains from one initial state, feeding
    both one maximal-coupling pair of throw ranks per step.

    The unbounded rank is geometric. The truncated rank copies it when it is
    below ell, and is otherwise a fresh truncated-geometric draw from the
    next uniform, so a pair disagrees with probability exactly q^ell (the
    distance between the two laws) and the truncated marginal stays exact.
    A pair is consumed every step whether or not a throw happens, so the two
    paths agree through step t, with probability exactly (1 - q^ell)^t,
    whenever the first t pairs agree."""
    if steps < 0:
        raise ValueError(f"need steps >= 0, got {steps}")
    bounded = BoundedGeometric(m, n, q)
    geometric = _ranker(UnboundedGeometric(n, q))  # checks 0 < q < 1
    validate_state(initial, bounded)
    rng, ell, truncated = RngStream(seed, stream), bounded.ell, _ranker(bounded)
    table = _Successors(initial)
    # by pair id: its (bounded, unbounded) ids, their states, and its row, whose entry xi < ell is
    # the pair that an agreeing rank xi leads to (missing, or None, until first taken)
    pairs, keys, b_of, u_of, pair_rows = {(0, 0): 0}, [(0, 0)], [initial], [initial], [[]]
    b_states, u_states = [initial], [initial]
    p, row, decouple = 0, pair_rows[0], None
    while (done := len(b_states) - 1) < steps:  # every step takes at least one draw
        xis = iter(geometric(block := rng._block(min(_MAX_BLOCK, steps - done))))
        path = []  # the block's pair ids
        for xi in xis:
            try:
                row = pair_rows[j := row[xi]]  # IndexError past the row, TypeError at a gap
            except (IndexError, TypeError):  # a pair's first step at xi, or xi >= ell
                xi_hat = xi
                if xi >= ell:  # the residual draw is the block's next lane, or a fresh one past it
                    i = len(block) - 16 * length_hint(xis)
                    xi_hat = truncated(block[i : i + 16] or rng._block(1))[0]
                    next(xis, None)
                    decouple = decouple or done + len(path) + 1
                b, u = keys[p]
                key = table.step(b, xi_hat), table.step(u, xi)
                if (j := pairs.setdefault(key, len(keys))) == len(keys):
                    assert decouple or key[0] == key[1], "coupled paths must agree while draws agree"
                    keys.append(key)
                    b_of.append(table.states[key[0]])
                    u_of.append(table.states[key[1]])
                    pair_rows.append([])
                if xi < ell:
                    row += [None] * (xi + 1 - len(row))
                    row[xi] = j
                row = pair_rows[j]
            path.append(p := j)
        b_states += map(b_of.__getitem__, path)
        u_states += map(u_of.__getitem__, path)
    return CoupledRun(decouple, b_states, u_states)
