"""Run one benchmark job in this fresh interpreter and print its result.

Usage: python3 bench/worker.py '<job spec as JSON>' [--trace]

The job is timed around its calls into jepq's public entry points; its
output is then checked outside the timed region. With --trace, every
function in TRACED is wrapped with a span before the job starts, and the
per-function call counts and self times are returned with the result. The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import resource
import sys
from collections import Counter
from fractions import Fraction
from math import comb
from time import perf_counter

# Functions wrapped in a traced run, by jepq module. Each reports
# `<module>.<function>.calls` and `.self_s`; see bench/README.md for the
# end-to-end metric and workload each one should move.
TRACED = {
    "qcomb": ("partition_z", "gould_stirling"),
    "jep": (
        "stationary_weight",
        "stationary_distribution",
        "closed_form_stats",
        "stationary_prob",
        "step_kernel_row",
    ),
    "oracle": (
        "build_transition_matrix",
        "solve_stationary",
        "build_extended_matrix",
        "tv_to_unbounded",
        "total_variation",
    ),
    "rook": ("enumerate_configs", "circ", "extensions", "extended_kernel_row"),
    "mc": ("simulate", "empirical_distribution", "coupled_simulate"),
    "verify": ("run_checks",),
    "cli": ("main",),
}

# Work counters read off a traced function's result, reported as
# `<module>.<function>.<counter>`.
TRACED_COUNTS = {
    "oracle.solve_stationary": ("states", lambda law: len(law)),
    "mc.simulate": ("steps", lambda traj: traj.steps),
    "mc.coupled_simulate": ("steps", lambda run: len(run.bounded_states) - 1),
}


class Tracer:
    """Spans around the TRACED functions, folded into per-function totals.

    A span's self time is its duration minus the durations of the spans it
    directly encloses. Parent-to-child call counts are kept as well, so the
    call graph of a job can be read back from a result file.
    """

    def __init__(self):
        self.active = True
        self.stack: list[list] = []  # [name, start, time in child spans]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.edges: Counter = Counter()
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        counter = TRACED_COUNTS.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self.stack[-1][0] if self.stack else "job"
            span = [name, perf_counter(), 0.0]
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - span[1]
                self.stack.pop()
                if self.stack:
                    self.stack[-1][2] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - span[2]
                self.edges[f"{parent}>{name}"] += 1
            if counter is not None:
                self.counts[f"{name}.{counter[0]}"] += counter[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every TRACED function and rebind each name that refers to it.

        `from .x import f` copies the reference into the importing module,
        so patching only the defining module would miss those calls.
        """
        homes = {name: importlib.import_module(f"jepq.{name}") for name in TRACED}
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "jepq"]
        for mod_name, functions in TRACED.items():
            home = homes[mod_name]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "edges": dict(self.edges),
        }


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python kernel that does not touch jepq.

    The host's speed drifts by up to 2x over minutes, and job times follow
    this kernel's time closely, so the harness divides times by it (see
    run.CAL_REF_S). The kernel mixes the work jepq does: a q-Stirling
    triangle over Fraction, a walk over sorted tuples counted in a dict, and
    float logarithms.
    """
    start = perf_counter()
    _q_stirling(36, 18, Fraction(2))
    state, counts = (0, 1, 2, 3, 4, 5), {}
    for i in range(40_000):
        rest = tuple(b - 1 for b in state if b)
        if len(rest) < len(state):
            vacant = [h for h in range(12) if h not in rest]
            rest = tuple(sorted(rest + (vacant[i % len(vacant)],)))
        state = rest
        counts[state] = counts.get(state, 0) + 1
    total = 0.0
    for i in range(1, 100_000):
        total += math.log(i)
    return perf_counter() - start


# --- jobs: each returns (seconds, outcome); only the jepq calls are timed ---


def _run_cli(job):
    from jepq import cli

    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(job["argv"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return perf_counter() - start, (code, out.getvalue())


def _run_solve(job):
    from jepq import jep, oracle

    model = jep.BoundedGeometric(job["m"], job["n"], Fraction(job["q"]))
    start = perf_counter()
    law = oracle.solve_stationary(oracle.build_transition_matrix(model))
    return perf_counter() - start, (model, law)


def _run_coupled(job):
    from jepq import jep, mc, oracle

    m, n, q = job["m"], job["n"], Fraction(job["q"])
    initial = tuple(range(n))
    start = perf_counter()
    run = mc.coupled_simulate(m, n, q, initial, job["steps"], job["seed"])
    # Only the visited states matter to the empirical law; the bounded path
    # of a coupled run carries no throw count.
    path = mc.Trajectory(initial=initial, states=run.bounded_states, throw_count=0)
    empirical = mc.empirical_distribution(path, job["burn_in"])
    exact = jep.stationary_distribution(jep.BoundedGeometric(m, n, float(q)))
    tv = oracle.total_variation(empirical, {s: float(p) for s, p in exact.items()})
    return perf_counter() - start, (run, tv)


RUNNERS = {"cli": _run_cli, "solve": _run_solve, "coupled": _run_coupled}


# --- output checks: exact reference values computed independently of jepq ---


def _q_int(k: int, q: Fraction) -> Fraction:
    return sum((q**i for i in range(k)), Fraction(0))


def _q_stirling(a: int, b: int, q: Fraction) -> Fraction:
    """S[a, b] from S[a+1, b] = q^(b-1) S[a, b-1] + [b]_q S[a, b], S[0, 0] = 1."""
    row = [Fraction(1)]
    for r in range(a):
        row = [
            (q ** (j - 1) * row[j - 1] if j >= 1 else 0)
            + (_q_int(j, q) * row[j] if j <= r else 0)
            for j in range(r + 2)
        ]
    return row[b] if 0 <= b <= a else Fraction(0)


def _stirling2(a: int, b: int) -> int:
    """Classical Stirling number of the second kind S(a, b)."""
    row = [1]
    for r in range(a):
        row = [
            (row[j - 1] if j >= 1 else 0) + (j * row[j] if j <= r else 0)
            for j in range(r + 2)
        ]
    return row[b] if 0 <= b <= a else 0


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _check_cli(job, outcome):
    """Return (ok, detail, digest) for a CLI job; digest is set for simulate."""
    code, text = outcome
    command = job["argv"][0]
    if code != 0:
        return False, f"exit code {code}", None
    if command == "verify":
        lines = text.splitlines()
        bad = [line for line in lines if not line.startswith("PASS ")]
        return bool(lines) and not bad, f"{len(lines)} checks, not passed: {bad}", None
    report = json.loads(text)
    summary, rows = report["summary"], report["rows"]
    if command == "stationary":
        m, n, q = summary["m"], summary["n"], Fraction(summary["q"]["exact"])
        total = sum(Fraction(row["prob"]) for row in rows)
        z = q ** (comb(m + 1, 2) - n) * _q_stirling(m + 1, m - n + 1, 1 / q)
        ok = len(rows) == comb(m, n) and total == 1 and Fraction(summary["Z"]["exact"]) == z
        return ok, f"{len(rows)} states, sum {total}, Z {summary['Z']['exact']} vs {z}", None
    if command == "converge":
        exact = "--exact" in job["argv"]
        lo, hi = map(int, job["argv"][job["argv"].index("--m-range") + 1].split(":"))
        broken = [
            row["m"]
            for row in rows
            if not (Fraction(row["tv"]) if exact else row["tv_float"])
            <= row["bound_exact"]
            <= row["bound_simple"]
        ]
        expected_rows = hi - max(lo, summary["n"]) + 1
        ok = len(rows) == expected_rows and not broken
        return ok, f"{len(rows)}/{expected_rows} rows, bound chain broken at m={broken}", None
    if command == "rook":
        m, n = summary["m"], summary["n"]
        expected = _stirling2(m + 1, m + 1 - n)
        counted = sum(row["count"] for row in rows)
        ok = summary["match"] is True and summary["configs"] == expected == counted
        return ok, f"match={summary['match']}, configs {summary['configs']} vs S={expected}", None
    if command == "simulate":
        tv = summary["tv_empirical_vs_exact"]
        ok = tv < job["tv_bound"]
        return ok, f"tv {tv} vs bound {job['tv_bound']}", _digest(summary)
    return False, f"no check for command {command!r}", None


def _check_solve(job, outcome):
    from jepq import jep

    model, law = outcome
    closed = jep.stationary_distribution(model)
    ok = law == closed and len(law) == comb(model.m, model.n)
    return ok, f"{len(law)} states, equal to closed form: {law == closed}", None


def _check_coupled(job, outcome):
    run, tv = outcome
    decoupled = run.first_decouple_step
    agree_until = len(run.bounded_states) if decoupled is None else decoupled
    ok = (
        tv < job["tv_bound"]
        and len(run.bounded_states) == job["steps"] + 1
        and run.bounded_states[:agree_until] == run.unbounded_states[:agree_until]
    )
    digest = _digest([decoupled, repr(tv), run.bounded_states[-1], run.unbounded_states[-1]])
    return ok, f"tv {tv} vs bound {job['tv_bound']}, decoupled at {decoupled}", digest


CHECKS = {"cli": _check_cli, "solve": _check_solve, "coupled": _check_coupled}


def run_job(job: dict, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    cal_before = calibrate()
    seconds, outcome = RUNNERS[job["kind"]](job)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cal_s = (cal_before + calibrate()) / 2
    if tracer:
        tracer.active = False
    ok, detail, digest = CHECKS[job["kind"]](job, outcome)
    result = {"ok": ok, "detail": detail, "seconds": seconds, "cal_s": cal_s,
              "rss_kb": rss_kb, "digest": digest}
    if tracer:
        result["trace"] = tracer.report()
    return result


def main(argv: list[str]) -> int:
    job = json.loads(argv[0])
    try:
        result = run_job(job, trace="--trace" in argv[1:])
    except Exception as exc:  # a failing job is a result to report, not a crash
        result = {"ok": False, "detail": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
