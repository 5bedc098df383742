"""Property tests: invariants of the kernels and the generator over drawn
parameters. Examples are derived from each test's name, so every run draws
the same ones."""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from jepq.jep import BoundedGeometric, _step, step_kernel_row
from jepq.mc import RngStream
from jepq.rook import enumerate_configs, extended_kernel_row, row_projection

fixed = settings(derandomize=True, deadline=None)
exact_qs = st.fractions(min_value=F(1, 12), max_value=1, max_denominator=12)


@st.composite
def base_rows(draw):
    """A bounded model with m <= 9 and one of its states."""
    m = draw(st.integers(0, 9))
    n = draw(st.integers(0, m))
    state = tuple(sorted(draw(st.permutations(range(m)))[:n]))
    return BoundedGeometric(m, n, draw(exact_qs)), state


@st.composite
def extended_rows(draw):
    """A board height m <= 6, a rook placement on it and a q."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(0, m))
    return m, draw(st.sampled_from(enumerate_configs(m, n))), draw(exact_qs)


@fixed
@given(base_rows())
def test_base_row_is_exact_stochastic_and_built_by_step(case):
    model, state = case
    row = step_kernel_row(state, model)
    assert all(isinstance(p, F) for p in row.values())
    assert sum(row.values()) == 1
    ranks = range(model.ell) if state[:1] == (0,) else [None]
    assert set(row) == {_step(state, r) for r in ranks}


@fixed
@given(extended_rows())
def test_extended_row_projects_onto_base_row(case):
    m, rooks, q = case
    row = extended_kernel_row(m, rooks, q)
    assert sum(row.values()) == 1
    projected: dict = {}
    for config, p in row.items():
        heights = row_projection(config)
        projected[heights] = projected.get(heights, 0) + p
    model = BoundedGeometric(m, len(rooks), q)
    assert projected == step_kernel_row(row_projection(rooks), model)


@fixed
@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**16),
    st.integers(1, 40),
    st.floats(min_value=0.01, max_value=1.0),
)
def test_rng_stream_replays_and_truncated_draws_stay_in_range(seed, stream, ell, q):
    a, b = RngStream(seed, stream), RngStream(seed, stream)
    draws = [a.truncated_geometric(ell, q) for _ in range(20)]
    assert draws == [b.truncated_geometric(ell, q) for _ in range(20)]
    assert all(0 <= x < ell for x in draws)
