"""Property tests: invariants of the kernels, the generator and the CLI's
exit codes over drawn parameters. Examples are derived from each test's name, so every run draws
the same ones."""

import argparse
import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from jepq.cli import _COMMANDS, _OPTIONS, _emit, main
from jepq.jep import BoundedGeometric, _step, step_kernel_row
from jepq.mc import RngStream, _rank
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
    us = a.uniforms(20)
    assert us == b.uniforms(20)
    draws = [_rank(u, math.log(q), 1.0 - q**ell, ell) for u in us]
    assert all(0 <= x < ell for x in draws)


@fixed
@given(
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**16),
    k=st.integers(0, 64),
    ell=st.integers(1, 12),
    q=st.one_of(exact_qs, st.floats(min_value=0.01, max_value=1.0)),
)
@example(seed=0, stream=0, k=9, ell=1, q=1.0)
@example(seed=1, stream=2, k=9, ell=5, q=F(1))
@example(seed=3, stream=4, k=9, ell=1, q=F(1, 2))
def test_batched_draws_equal_per_call_draws(seed, stream, k, ell, q):
    batched, single = RngStream(seed, stream), RngStream(seed, stream)
    us = batched.uniforms(k)
    assert us == [single.uniforms(1)[0] for _ in range(k)]
    assert all(0 <= u < 1 for u in us)
    # the stream goes on where the k single draws left it
    assert batched.uniforms(3) == single.uniforms(3)

    # each rank is its law's inverse CDF, written out here, at the uniforms
    # of the batch
    def uniform_rank(u):
        return min(int(u * ell), ell - 1)

    def truncated_rank(u):
        if q == 1:
            return uniform_rank(u)
        return min(int(math.log(1.0 - u * (1.0 - q**ell)) / math.log(q)), ell - 1)

    log_q = math.log(q)
    truncated = [_rank(u, log_q, 1.0 - q**ell, ell) for u in us]
    assert truncated == list(map(truncated_rank, us))
    assert all(0 <= x < ell for x in truncated)
    assert [_rank(u, 0.0, 0.0, ell) for u in us] == list(map(uniform_rank, us))
    if q < 1:
        geometric = [_rank(u, log_q) for u in us]
        assert geometric == [int(math.log(1.0 - u) / math.log(q)) for u in us]


# small value pools for every known option; "--out" is left out so that no
# run writes a file
ints = st.integers(-2, 6).map(str)
Q_POOL = ["0", "1/2", "1", "2", "0.99999", "1e-320", "1e400", "x"]
VALUES = {
    "m": ints,
    "n": ints,
    "seed": ints,
    "burn-in": ints,
    "max-m": st.sampled_from(["-1", "3", "4"]),
    "steps": st.integers(-2, 300).map(str),
    "q": st.sampled_from(Q_POOL),
    "m-range": st.sampled_from(["0:8", "3:2", "a:b", "2:5"]),
    "model": st.sampled_from(_OPTIONS["model"]["choices"]),
    "format": st.sampled_from(["json", "csv"]),
}
FLAGS = sorted(name for name, spec in _OPTIONS.items() if spec.get("action") == "store_true")


@st.composite
def hostile_argvs(draw, command):
    """The command with its required options, some of its other options and
    now and then one more known option, each given a value from the pools
    above, in any order."""
    tokens = _COMMANDS[command][1].split() + ["format"]
    names = [t.rstrip("!") for t in tokens if t.endswith("!") or draw(st.integers(0, 3)) < 3]
    if draw(st.integers(0, 3)) == 3:
        names.append(draw(st.sampled_from(sorted(VALUES) + FLAGS)))
    values = VALUES
    if command == "verify":
        # verify passes at q = 1e-320, but its exact checks then take about 0.5 s a run:
        # drawing it took this test from 0.24-0.29 s to 2.6 s (2-vCPU Xeon, Python 3.11)
        values = {**VALUES, "q": st.sampled_from([q for q in Q_POOL if q != "1e-320"])}
    argv = [command]
    for name in draw(st.permutations(names)):
        argv.append(f"--{name}")
        if name not in FLAGS:
            argv.append(draw(values[name]))
    if command == "verify":
        # the last --max-m wins; an earlier --m or --max-m of up to 6 would
        # make one run several seconds long
        argv += ["--max-m", draw(VALUES["max-m"])]
    return argv


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(fixed, max_examples=20)
@given(data=st.data())
def test_hostile_argv_exits_cleanly(command, data):
    argv = data.draw(hostile_argvs(command))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as info:
            code = info.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


# every scalar kind a report holds, with the strings and floats whose JSON
# forms differ most: escapes, non-ASCII, long ints and the non-finite floats
json_scalars = st.one_of(
    st.text(),
    st.text(alphabet='"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'),
    st.booleans(),
    st.none(),
    st.integers(-(10**300), 10**300),
    st.floats(),
    st.sampled_from([-0.0, 1e308, 5e-324, math.nan, math.inf, -math.inf]),
)
json_summaries = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def json_reports(draw):
    """A report head, its columns, rows of scalars in column order and the rows' key."""
    rows_key = draw(st.sampled_from(["rows", "checks"]))
    report = draw(st.dictionaries(st.text().filter(lambda k: k != rows_key), json_summaries,
                                  max_size=3))
    columns = draw(st.lists(st.text(), min_size=1, max_size=4, unique=True))
    row = st.tuples(*[json_scalars] * len(columns))
    return report, tuple(columns), draw(st.lists(row, max_size=4)), rows_key


@fixed
@given(json_reports())
def test_emitted_json_is_json_dumps_layout(case):
    report, columns, rows, rows_key = case
    expected = io.StringIO()
    json.dump({**report, rows_key: [dict(zip(columns, r)) for r in rows]}, expected, indent=2)
    expected.write("\n")
    out = io.StringIO()
    with redirect_stdout(out):
        _emit(report, columns, rows, argparse.Namespace(format="json", out=None), rows_key)
    assert out.getvalue() == expected.getvalue()
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "report.json")
        _emit(report, columns, rows, argparse.Namespace(format="json", out=path), rows_key)
        with open(path, encoding="ascii", newline="") as handle:
            assert handle.read() == expected.getvalue()
