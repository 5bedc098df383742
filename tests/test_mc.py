import hashlib
import math
import random
from fractions import Fraction as F
from itertools import count, islice

import pytest

from jepq import mc
from jepq.jep import (
    BoundedGeometric,
    BoundedUniform,
    UnboundedGeometric,
    stationary_distribution,
    stationary_prob,
    theta,
    truncated_geometric_pmf,
)
from jepq.mc import (
    RngStream,
    coupled_simulate,
    empirical_distribution,
    simulate,
)
from jepq.oracle import total_variation

# upper 99.9% chi-square quantiles by degrees of freedom
CHI2_999 = {1: 10.828, 2: 13.816, 3: 16.266, 5: 20.515, 9: 27.877, 10: 29.588}


def chi2_stat(counts, probs, total):
    return sum(
        (counts.get(k, 0) - total * p) ** 2 / (total * p) for k, p in probs.items()
    )


def test_rng_reproducibility():
    a = RngStream(12345, stream=7)
    b = RngStream(12345, stream=7)
    assert a.uniforms(100) == b.uniforms(100)
    c = RngStream(12345, stream=8)
    assert c.uniforms(1) != RngStream(12345, stream=7).uniforms(1)
    with pytest.raises(ValueError):
        RngStream(-1)


@pytest.mark.parametrize("stream", [-1, 2**64, 2**64 + 7])
def test_rng_rejects_streams_outside_64_bits(stream):
    # stream 2^64 would replay stream 0, and stream -1 stream 2^64 - 1
    with pytest.raises(ValueError, match="stream must fit in 64 bits"):
        RngStream(1, stream)
    assert RngStream(1, 2**64 - 1).uniforms(3) != RngStream(1, 0).uniforms(3)


def test_rng_uniform_range():
    rng = RngStream(99)
    values = rng.uniforms(10_000)
    assert all(0 <= v < 1 for v in values)
    assert abs(sum(values) / len(values) - 0.5) < 0.02


GAMMA = 0x9E3779B97F4A7C15


def splitmix64(z):
    """SplitMix64's finalizer on one 64-bit word."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    return z ^ (z >> 31)


def scalar_uniforms(seed, stream):
    """Outputs i = 1, 2, ... of the `RngStream` docstring formula
    mix64(mix64(x XOR mix64(s * GAMMA)) + i * GAMMA), one word at a time,
    each as the float of its top 53 bits."""
    base = splitmix64(seed ^ splitmix64(stream * GAMMA % 2**64))
    for i in count(1):
        yield (splitmix64((base + i * GAMMA) % 2**64) >> 11) / 2**53


# a partial block, one exact block and several blocks, either side of the edges
DRAW_COUNTS = [0, 1, 2, 511, 512, 513, 1025, 5000]


@pytest.mark.parametrize("stream", [0, 7, 2**16])
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_uniforms_match_scalar_reference(seed, stream):
    for k in DRAW_COUNTS:
        rng, ref = RngStream(seed, stream), scalar_uniforms(seed, stream)
        assert rng.uniforms(k) == list(islice(ref, k))
        # the stream stands at draw k: the next draws go on from there
        assert rng.uniforms(3) == list(islice(ref, 3))


@pytest.mark.parametrize(
    "split",
    [
        (300, 300), (511, 1, 513), (1, 512, 0, 1025), (0, 0, 7), (512, 512, 512),
        # a full block after a partial one starts from the stream's counter, not from the
        # counters of the full block before the partial one
        (512, 1, 512), (1024, 5, 1536),
    ],
)
def test_split_uniforms_equal_one_call(split):
    rng = RngStream(2**64 - 1, 7)
    parts = [rng.uniforms(k) for k in split]
    assert [len(p) for p in parts] == list(split)
    joined = [u for p in parts for u in p]
    assert joined == RngStream(2**64 - 1, 7).uniforms(sum(split))
    assert joined == list(islice(scalar_uniforms(2**64 - 1, 7), sum(split)))


@pytest.mark.parametrize(
    "seed, stream, digest",
    [
        (20140901, 0, "bdf01e24af620ed80e344b16cf911702f141bd041b24a478959f07c26e009ca8"),
        (2**64 - 1, 12345, "0ff386e1514867443f99719165529ff0185de51e7c2a3291f32e23f4e9dbf97f"),
    ],
)
def test_uniforms_pinned(seed, stream, digest):
    values = RngStream(seed, stream).uniforms(2000)
    assert hashlib.sha256(repr(values).encode()).hexdigest() == digest


def test_uniforms_reject_negative_count():
    rng = RngStream(5)
    with pytest.raises(ValueError):
        rng.uniforms(-1)
    assert rng.uniforms(0) == []
    # neither call moved the stream
    assert rng.uniforms(4) == RngStream(5).uniforms(4)


def test_truncated_geometric_sampler_fits_pmf():
    rng = RngStream(2024)
    total = 1_000_000
    counts: dict[int, int] = {}
    for u in rng.uniforms(total):
        x = mc._rank(u, math.log(0.5), 1.0 - 0.5**4, 4)
        counts[x] = counts.get(x, 0) + 1
    probs = {x: float(p) for x, p in enumerate(truncated_geometric_pmf(4, F(1, 2)))}
    assert set(counts) <= set(probs)
    assert chi2_stat(counts, probs, total) < CHI2_999[3]


def test_geometric_sampler_fits_pmf():
    rng = RngStream(2025)
    total = 1_000_000
    counts: dict[int, int] = {}
    for u in rng.uniforms(total):
        x = min(mc._rank(u, math.log(0.5)), 10)  # lump the tail into one bin
        counts[x] = counts.get(x, 0) + 1
    probs = {x: 0.5**x * 0.5 for x in range(10)}
    probs[10] = 0.5**10
    assert chi2_stat(counts, probs, total) < CHI2_999[10]


def test_uniform_sampler_fits_pmf():
    rng = RngStream(2026)
    total = 1_000_000
    counts: dict[int, int] = {}
    for u in rng.uniforms(total):
        x = mc._rank(u, 0.0, 0.0, 6)
        counts[x] = counts.get(x, 0) + 1
    probs = {x: 1 / 6 for x in range(6)}
    assert chi2_stat(counts, probs, total) < CHI2_999[5]


@pytest.mark.parametrize(
    "model, seed, bins, dof",
    [
        pytest.param(
            BoundedGeometric(4, 1, F(1, 2)), 2024,
            {x: float(p) for x, p in enumerate(truncated_geometric_pmf(4, F(1, 2)))}, 3,
            id="truncated",
        ),
        pytest.param(
            UnboundedGeometric(1, F(1, 2)), 2025, {**{x: 0.5**x * 0.5 for x in range(10)}, 10: 0.5**10},
            10, id="geometric",
        ),
        pytest.param(BoundedUniform(6, 1), 2026, {x: 1 / 6 for x in range(6)}, 5, id="uniform"),
    ],
)
def test_table_sampler_fits_pmf(model, seed, bins, dof):
    # the chi-square tests above, on the same draws ranked as the runs rank them
    total = 1_000_000
    counts: dict[int, int] = {}
    rng, ranks = RngStream(seed), mc._ranker(model)
    blocks = (rng._block(min(total - i, mc._MAX_BLOCK)) for i in range(0, total, mc._MAX_BLOCK))
    for x in (x for block in blocks for x in ranks(block)):
        x = min(x, max(bins))  # the geometric case lumps its tail into the last bin
        counts[x] = counts.get(x, 0) + 1
    assert set(counts) <= set(bins)
    assert chi2_stat(counts, bins, total) < CHI2_999[dof]


def first_draw_of_rank(rank, r):
    """The least 53-bit draw d with rank(d) >= r, by a plain binary search."""
    lo, hi = 0, 2**53
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if rank(mid) >= r else (mid + 1, hi)
    return lo


def as_block(draws):
    """``draws`` laid out as `RngStream._block` lays them out, each under 11 random low bits and a
    random high word, which ranking must ignore."""
    junk = random.Random(0).getrandbits
    return b"".join((d << 11 | junk(11) | junk(64) << 64).to_bytes(16, "little") for d in draws)


TABLE_QS = [F(1, 2), 0.3, 0.9, 0.99, 0.99999, 1e-300]


@pytest.mark.parametrize(
    "model",
    [
        *(pytest.param(UnboundedGeometric(1, q), id=f"unbounded-{float(q)}") for q in TABLE_QS),
        *(
            pytest.param(BoundedGeometric(ell, 1, q), id=f"ell{ell}-{float(q)}")
            for ell in (1, 2, 7)
            for q in TABLE_QS
        ),
        *(pytest.param(BoundedUniform(ell, 1), id=f"uniform-ell{ell}") for ell in (1, 6)),
    ],
)
def test_rank_table_matches_rank(model):
    q = float(model.q)
    ell = None if isinstance(model, UnboundedGeometric) else model.ell
    rank = lambda d: reference_rank(d / 2**53, q, ell)
    ranker = mc._ranker(model)
    ranks = lambda draws: list(ranker(as_block(draws)))
    # the least draw of each rank up to 66, and the draws around it
    top = min(rank(2**53 - 1), 66)
    if q == 1e-300:
        assert top == 0  # no draw reaches rank 1: every bucket holds rank 0
    for r in range(1, top + 1):
        t = first_draw_of_rank(rank, r)
        assert rank(t - 1) < r <= rank(t)
        near = list(range(max(t - 4096, 0), min(t + 4097, 2**53)))
        assert ranks(near) == [rank(d) for d in near]
    # each edge of each top-byte bucket
    edges = [d for b in range(257) for d in (b * 2**45 - 1, b * 2**45, b * 2**45 + 1) if 0 <= d < 2**53]
    assert ranks(edges) == [rank(d) for d in edges]
    draws = [int(u * 2**53) for u in RngStream(18, ell or 0).uniforms(10**5)] + [0, 2**53 - 1]
    got = ranks(draws)
    assert got == [rank(d) for d in draws]
    if q == 0.99999 and ell is None:
        assert max(got) > 255  # a rank past the table's byte comes back whole
    if q == 0.99 and ell is None:
        # a bucket that holds one rank past 63 is ranked by the table alone
        b = next(b for b in range(256) if 64 <= rank(b * 2**45) == rank((b + 1) * 2**45 - 1))
        junk = random.Random(1).getrandbits
        draws = [b * 2**45, *(b * 2**45 + junk(45) for _ in range(510)), (b + 1) * 2**45 - 1]
        got = ranker(as_block(draws))
        assert type(got) is bytes and list(got) == [rank(d) for d in draws]


def test_simulate_deterministic_fall():
    model = BoundedGeometric(5, 2, F(1, 2))
    traj = simulate(model, (1, 3), 1, seed=0)
    assert traj.states == [(1, 3), (0, 2)]
    assert traj.throw_count == 0
    again = simulate(model, (1, 3), 1, seed=0)
    assert again.states == traj.states


def test_full_system_rethrows_to_the_single_vacancy():
    # n = m leaves ell = 1: every throw lands on the one vacancy, at the top
    traj = simulate(BoundedGeometric(3, 3, F(1, 2)), (0, 1, 2), 50, seed=32)
    assert set(traj.states) == {(0, 1, 2)}
    assert traj.throw_count == 50


def test_simulate_transitions_are_legal():
    from jepq.jep import step_kernel_row

    model = BoundedGeometric(5, 3, F(1, 2))
    traj = simulate(model, (0, 1, 2), 2000, seed=11)
    throws = 0
    for prev, cur in zip(traj.states, traj.states[1:]):
        assert cur in step_kernel_row(prev, model)
        throws += prev[0] == 0
    assert throws == traj.throw_count


def reference_step(state, draw):
    """One transition written out with `theta`; ``draw`` gives the throw
    rank and is called on throw steps only."""
    if state and state[0] == 0:
        rest = [b - 1 for b in state[1:]]
        return tuple(sorted(rest + [theta(rest, draw())])), True
    return tuple(b - 1 for b in state), False


def reference_rank(u, q, ell=None):
    """The inverse CDF of a throw law at a uniform u, written out: geometric
    when ell is None, else the geometric law on {0..ell-1}, uniform at q = 1."""
    if ell is None:
        return int(math.log(1.0 - u) / math.log(q))
    if q == 1:
        return min(int(u * ell), ell - 1)
    return min(int(math.log(1.0 - u * (1.0 - q**ell)) / math.log(q)), ell - 1)


def reference_uniforms(seed):
    """The run's uniforms, read from the stream in blocks (the split tests
    pin a block's draws to the same draws read one at a time)."""
    rng = RngStream(seed)
    while True:
        yield from rng.uniforms(512)


def reference_pair(us, ell, q):
    """One maximal-coupling pair (unbounded, truncated, agreed) from the
    uniforms ``us``: the truncated rank copies a geometric rank below ell
    and is drawn afresh from the next uniform otherwise."""
    xi = reference_rank(next(us), q)
    if xi < ell:
        return xi, xi, True
    return xi, reference_rank(next(us), q, ell), False


def reference_simulate(model, initial, steps, seed):
    """The states and throw count of `simulate`, one uniform per throw."""
    us, q = reference_uniforms(seed), float(model.q)
    ell = None if isinstance(model, UnboundedGeometric) else model.ell
    draw = lambda: reference_rank(next(us), q, ell)
    states, throws = [initial], 0
    for _ in range(steps):
        state, threw = reference_step(states[-1], draw)
        states.append(state)
        throws += threw
    return states, throws


def reference_coupled(m, n, q, initial, steps, seed):
    """The paths of `coupled_simulate`, one coupled pair per step."""
    us = reference_uniforms(seed)
    bounded, unbounded = [initial], [initial]
    for _ in range(steps):
        xi, xi_hat, _ = reference_pair(us, m - n + 1, float(q))
        bounded.append(reference_step(bounded[-1], lambda: xi_hat)[0])
        unbounded.append(reference_step(unbounded[-1], lambda: xi)[0])
    return bounded, unbounded


MODELS = [
    pytest.param(BoundedGeometric(7, 3, F(1, 2)), (0, 1, 2), id="half"),
    pytest.param(BoundedGeometric(7, 3, 0.3), (0, 1, 2), id="float"),
    pytest.param(BoundedUniform(7, 3), (0, 1, 2), id="uniform"),
    pytest.param(UnboundedGeometric(4, F(1, 2)), (0, 1, 2, 3), id="unbounded"),
    pytest.param(BoundedGeometric(4, 0, F(1, 2)), (), id="empty"),
    # most draws at q = 0.99 fall in marked buckets and go through `_rank`; at 1e-300 every rank is 0
    pytest.param(UnboundedGeometric(3, 0.99), (0, 1, 2), id="unbounded-0.99"),
    pytest.param(UnboundedGeometric(3, 1e-300), (0, 1, 2), id="unbounded-1e-300"),
]


@pytest.mark.parametrize("model, initial", MODELS)
def test_simulate_matches_reference_loop_and_interns(model, initial, monkeypatch):
    tables = []

    class Recorded(mc._Successors):
        def __init__(self, first):
            super().__init__(first)
            tables.append(self)

    monkeypatch.setattr(mc, "_Successors", Recorded)
    traj = simulate(model, initial, 5000, seed=21)
    assert (traj.states, traj.throw_count) == reference_simulate(model, initial, 5000, 21)
    # each distinct state is one object, shared by every step that visits it,
    # and the run's table holds one entry per distinct state visited
    assert len({id(s) for s in traj.states}) == len(set(traj.states))
    assert len(tables[0].states) == len(tables[0].rows) == len(set(traj.states))


def test_coupled_simulate_matches_reference_loop_and_interns():
    initial = (0, 1, 2)
    run = coupled_simulate(6, 3, F(1, 2), initial, 5000, seed=8)
    assert run.first_decouple_step is not None
    bounded, unbounded = reference_coupled(6, 3, F(1, 2), initial, 5000, 8)
    assert run.bounded_states == bounded
    assert run.unbounded_states == unbounded
    # the two paths draw their states from one table
    both = run.bounded_states + run.unbounded_states
    assert len({id(s) for s in both}) == len(set(both))


# step counts on each side of one and of two full blocks; a chain that
# throws on every step draws one uniform per step
BLOCK_EDGES = [blocks * mc._MAX_BLOCK + d for blocks in (1, 2) for d in (-1, 0, 1)]


@pytest.mark.parametrize("steps", BLOCK_EDGES)
@pytest.mark.parametrize(
    "model, initial",
    [
        pytest.param(BoundedGeometric(3, 3, F(1, 2)), (0, 1, 2), id="every-step-throws"),
        *MODELS[1:4],
        *MODELS[5:],
        # falls before the first throw: the first ranks drawn outnumber the steps left once
        # the chain falls again
        pytest.param(BoundedGeometric(12, 3, F(1, 2)), (5, 9, 11), id="high-start"),
        pytest.param(UnboundedGeometric(3, F(1, 2)), (2, 5, 9), id="unbounded-high-start"),
    ],
)
def test_simulate_matches_reference_loop_at_block_edges(model, initial, steps):
    traj = simulate(model, initial, steps, seed=steps)
    assert (traj.states, traj.throw_count) == reference_simulate(model, initial, steps, steps)


@pytest.mark.parametrize("steps", BLOCK_EDGES)
@pytest.mark.parametrize("m, n", [(6, 3), (3, 3)], ids=["ell4", "ell1"])
def test_coupled_simulate_matches_reference_loop_at_block_edges(m, n, steps):
    # at ell = 1 half the steps take a residual uniform, so blocks often
    # run out in the middle of a step
    initial = tuple(range(n))
    run = coupled_simulate(m, n, F(1, 2), initial, steps, seed=steps)
    bounded, unbounded = reference_coupled(m, n, F(1, 2), initial, steps, steps)
    assert run.bounded_states == bounded
    assert run.unbounded_states == unbounded


def test_coupled_simulate_matches_reference_loop_from_a_high_start():
    # both chains fall before their first throw, so the pair table meets steps whose
    # agreeing ranks are not read, and pairs of one shared state, before any decoupling
    initial = (3, 5, 7)
    run = coupled_simulate(10, 3, F(1, 2), initial, 3000, seed=5)
    assert run.first_decouple_step is not None
    falls = [initial, (2, 4, 6), (1, 3, 5), (0, 2, 4)]
    assert run.bounded_states[:4] == run.unbounded_states[:4] == falls
    reference = reference_coupled(10, 3, F(1, 2), initial, 3000, 5)
    assert (run.bounded_states, run.unbounded_states) == reference


def test_runs_draw_no_more_uniforms_than_they_can_use(monkeypatch):
    drawn = []
    block = RngStream._block

    def recording(self, k):
        drawn.append(k)
        return block(self, k)

    monkeypatch.setattr(RngStream, "_block", recording)
    cases = [
        (BoundedGeometric(4, 0, F(1, 2)), ()),
        (BoundedGeometric(5, 2, F(1, 2)), (1, 3)),  # falls before the first throw
        (BoundedGeometric(12, 2, F(1, 2)), (0, 1)),
        (BoundedGeometric(3, 3, F(1, 2)), (0, 1, 2)),
        (UnboundedGeometric(3, F(1, 2)), (0, 1, 2)),
    ]
    for steps in (0, 1, 5, 12, 17, 100, 20000):
        for model, initial in cases:
            drawn.clear()
            traj = simulate(model, initial, steps, seed=steps)
            assert traj.throw_count <= sum(drawn) <= steps
            assert traj.throw_count or not drawn  # a block is drawn only when a throw needs a rank
            assert max(drawn, default=0) <= mc._MAX_BLOCK
        for m, n in ((6, 3), (3, 3)):
            drawn.clear()
            coupled_simulate(m, n, F(1, 2), tuple(range(n)), steps, seed=steps)
            assert steps <= sum(drawn) <= 2 * steps
            assert max(drawn, default=0) <= mc._MAX_BLOCK


@pytest.mark.parametrize("steps", [0, 1, 513, 3000])
@pytest.mark.parametrize("model, initial", MODELS)
def test_throw_count_counts_steps_from_a_ball_at_height_zero(model, initial, steps):
    traj = simulate(model, initial, steps, seed=steps + 1)
    assert traj.throw_count == sum(s[:1] == (0,) for s in traj.states[:-1])


def test_coupled_simulate_matches_reference_loop_past_the_rank_table():
    # at q = 0.99 and ell = 78 both laws rank most draws through `_rank`, in marked buckets
    initial = (0, 1, 2)
    run = coupled_simulate(80, 3, 0.99, initial, 3000, seed=4)
    assert run.first_decouple_step is not None
    assert (run.bounded_states, run.unbounded_states) == reference_coupled(80, 3, 0.99, initial, 3000, 4)


def test_empirical_distribution_basics():
    model = BoundedGeometric(4, 2, F(1, 2))
    traj = simulate(model, (0, 1), 5000, seed=3)
    emp = empirical_distribution(traj, burn_in=100)
    assert abs(sum(emp.values()) - 1) < 1e-12
    with pytest.raises(ValueError):
        empirical_distribution(traj, burn_in=6000)
    constant = simulate(BoundedGeometric(2, 0, F(1, 2)), (), 10, seed=0)
    assert empirical_distribution(constant, burn_in=0) == {(): 1.0}


def test_empirical_distribution_rejects_negative_burn_in():
    traj = simulate(BoundedGeometric(4, 2, F(1, 2)), (0, 1), 50, seed=3)
    with pytest.raises(ValueError):
        empirical_distribution(traj, burn_in=-5)


def test_empirical_tv_shrinks_with_run_length():
    model = BoundedGeometric(6, 3, 0.5)
    exact = {s: float(p) for s, p in stationary_distribution(BoundedGeometric(6, 3, F(1, 2))).items()}
    tvs = []
    for steps in (10_000, 100_000, 1_000_000):
        traj = simulate(model, (0, 1, 2), steps, seed=404)
        emp = empirical_distribution(traj, burn_in=1000)
        tvs.append(total_variation(emp, exact))
    assert tvs[2] < tvs[1] < tvs[0]
    assert tvs[2] < 0.02


def test_unbounded_simulation_reaches_closed_form():
    # start inside {0..5}; by step 12 every particle has been rethrown, and
    # the replica-ensemble law should match the closed form
    q = F(1, 2)
    model = UnboundedGeometric(3, q)
    replicas = 100_000
    t_star = 12
    counts: dict = {}
    for i in range(replicas):
        traj = simulate(model, (0, 1, 2), t_star, seed=777, stream=i)
        final = traj.states[-1]
        counts[final] = counts.get(final, 0) + 1
    emp = {s: c / replicas for s, c in counts.items()}
    exact = {s: float(stationary_prob(s, model)) for s in emp}
    tail = 1.0 - sum(exact.values())
    assert total_variation(emp, exact, nu_tail=tail) < 0.02


def test_coupled_throw_pair_statistics():
    # the reference pair is tied to `coupled_simulate` by the reference-loop tests
    us = reference_uniforms(606)
    total = 1_000_000
    agreed = 0
    hist: dict[int, int] = {}
    for _ in range(total):
        xi, xi_hat, ok = reference_pair(us, 4, 0.5)
        agreed += ok
        hist[xi_hat] = hist.get(xi_hat, 0) + 1
        if not ok:
            assert xi >= 4 > xi_hat
        else:
            assert xi == xi_hat
    assert abs(agreed / total - (1 - 0.5**4)) < 0.002
    pmf = truncated_geometric_pmf(4, F(1, 2))
    for x in range(4):
        assert abs(hist[x] / total - float(pmf[x])) < 0.005


def test_coupled_simulate_rejects_negative_steps():
    with pytest.raises(ValueError, match="need steps >= 0"):
        coupled_simulate(6, 3, F(1, 2), (0, 1, 2), -5, 1)
    with pytest.raises(ValueError, match="need steps >= 0"):
        simulate(BoundedGeometric(6, 3, F(1, 2)), (0, 1, 2), -5, 1)
    assert coupled_simulate(6, 3, F(1, 2), (0, 1, 2), 0, 1).bounded_states == [(0, 1, 2)]


def test_coupled_simulate_reproducible_and_consistent():
    q = F(1, 2)
    a = coupled_simulate(6, 3, q, (0, 1, 2), 50, seed=42, stream=9)
    b = coupled_simulate(6, 3, q, (0, 1, 2), 50, seed=42, stream=9)
    assert a.first_decouple_step == b.first_decouple_step
    assert a.bounded_states == b.bounded_states
    assert a.unbounded_states == b.unbounded_states
    if a.first_decouple_step is not None:
        t = a.first_decouple_step
        assert a.bounded_states[: t - 1] == a.unbounded_states[: t - 1]
    # pinned digest: one coupled pair per step, the draw order must not change
    run = coupled_simulate(10, 4, q, (0, 1, 2, 3), 20000, seed=7)
    assert run.first_decouple_step == 13
    assert run.bounded_states[-1] == run.unbounded_states[-1] == (0, 1, 2, 3)
    paths = repr((run.bounded_states, run.unbounded_states)).encode()
    assert hashlib.sha256(paths).hexdigest() == (
        "e4143df5e134c18ee061af3ad5e3654aa92c1aaa9c4292eeb1c1343357ac6892"
    )


def test_coupled_agreement_frequency():
    q = F(1, 2)
    t = 8
    replicas = 10_000
    agree = sum(
        coupled_simulate(8, 3, q, (0, 1, 2), t, seed=1234, stream=i).first_decouple_step
        is None
        for i in range(replicas)
    )
    target = (1 - 0.5**6) ** t
    assert abs(agree / replicas - target) < 0.02


def test_no_decoupling_in_wide_system():
    # ell = 28 makes disagreement within 30 steps essentially impossible
    q = F(1, 2)
    for i in range(2000):
        run = coupled_simulate(30, 3, q, (0, 1, 2), 30, seed=5, stream=i)
        assert run.first_decouple_step is None
        assert run.bounded_states == run.unbounded_states
