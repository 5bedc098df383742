"""Command-line front end.

Subcommands: stationary, verify, simulate, converge, limits, rook; each
accepts only the options it reads (see `_COMMANDS`). Output is JSON
(verify defaults to text lines) or CSV; every rational quantity is
emitted both as an exact "p/r" string and as a float, so reports can be
re-parsed without losing exactness.

Exit codes: 0 success, 1 verification failure, 2 usage or parameter error,
3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager, suppress
from json.encoder import encode_basestring_ascii
from math import gcd, isfinite

from .qcomb import Scalar, gould_stirling, parse_scalar, partition_z
from .jep import (
    BoundedGeometric,
    BoundedUniform,
    UnboundedGeometric,
    _numerators,
    _unbounded_probs,
    check_state_cap,
    closed_form_stats,
    enumerate_states,
    stationary_distribution,
)
from .mc import empirical_distribution, simulate
from .oracle import (
    limit_rows_fixed_n,
    limit_rows_growing_n,
    total_variation,
    tv_to_unbounded,
)
from .rook import circ_histogram
from .verify import DEFAULT_QS, run_checks

__all__ = ["main"]


def _state_key(state) -> str:
    return "-".join(map(str, state)) if state else "empty"


def _exact_str(num: int, den: int) -> str:
    """The "p/r" string of an exact value as a reduced pair; "p" where r is 1, as for `str`."""
    try:
        return f"{num}/{den}" if den != 1 else f"{num}"
    except ValueError:  # beyond Python's limit on int-to-decimal conversion
        bits = max(num.bit_length(), den.bit_length())
        raise ValueError(
            f"an exact value of about {round(bits * 0.30103)} digits is too long "
            "to print; choose a --q whose powers have shorter exact forms"
        ) from None


def _scalar_fields(value: Scalar) -> dict:
    if isinstance(value, float):
        return {"exact": None, "float": value}
    try:
        as_float = float(value)
    except OverflowError:
        raise ValueError("a reported value exceeds the float range") from None
    return {"exact": _scalar_cell(value), "float": as_float}


def _scalar_cell(value: Scalar) -> str:
    return repr(value) if isinstance(value, float) else _exact_str(value.numerator, value.denominator)


def _json_cell(value) -> str:
    """One scalar as `json` writes it, through the encoder's own functions."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:  # not bool
        return int.__repr__(value)
    if type(value) is float and isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)  # true, false, null, NaN, Infinity


@contextmanager
def _destination(args):
    """The handle a report is streamed into: the --out file, or stdout."""
    if not args.out:
        yield sys.stdout
        return
    try:
        with open(args.out, "w") as handle:
            yield handle
    except OSError as err:
        raise ValueError(f"cannot write {args.out}: {err.strerror}") from None


def _emit(report: dict, columns: tuple, rows: list[tuple], args, rows_key: str = "rows") -> None:
    """Write the report as JSON (report plus rows) or CSV (rows only); rows are in column
    order. JSON is laid out as `json.dump(indent=2)` of the report with its rows as dicts:
    the head goes through `json`, then each row is written as it is encoded, cell by cell."""
    with _destination(args) as handle:
        if args.format == "json":
            keys = [f"      {encode_basestring_ascii(c)}: " for c in columns]
            def texts(sep="\n"):
                for row in rows:
                    cells = ",\n".join(map(str.__add__, keys, map(_json_cell, row)))
                    yield sep + "    {\n" + cells + "\n    }"
                    sep = ",\n"
            head = json.dumps({**report, rows_key: []}, indent=2)
            handle.write(head[:-3])  # through the "[" of the empty row list
            handle.writelines(texts())
            handle.write("\n  ]\n}\n" if rows else "]\n}\n")
        else:
            csv.writer(handle).writerows([columns, *rows])


def _build_model(args) -> BoundedGeometric | UnboundedGeometric:
    name = args.model
    if name == "bounded-geometric":
        return BoundedGeometric(args.m, args.n, args.q_value)
    if name == "bounded-uniform":
        return BoundedUniform(args.m, args.n)
    return UnboundedGeometric(args.n, args.q_value)


def _cmd_stationary(args) -> int:
    if args.model == "unbounded-geometric":
        raise ValueError("stationary tables need a bounded model")
    model = _build_model(args)
    # q is exact here (stationary always reads --q exactly). With the int scale and
    # Z scale = zn/zd in lowest terms, w/scale and w zd/zn are each reduced by one gcd
    # with w, and w zd / zn is the correctly rounded float.
    scale, stream = _numerators(model.m, model.n, model.q, enumerate_states(model.m, model.n))
    z = partition_z(model.m, model.n, model.q)
    z_scaled = z * scale
    zn, zd, rows = z_scaled.numerator, z_scaled.denominator, []
    for state, w in stream:
        g, h = gcd(w, scale), gcd(w, zn)
        weight, prob = _exact_str(w // g, scale // g), _exact_str(w // h * zd, zn // h)
        rows.append((_state_key(state), weight, prob, w * zd / zn))
    summary: dict = {"m": args.m, "n": args.n, "model": args.model}
    if model.n:
        stats = closed_form_stats(model.m, model.n, model.q)
        summary.update(
            q=_scalar_fields(model.q),
            Z=_scalar_fields(z),
            ground=_scalar_fields(stats.ground),
            top=_scalar_fields(stats.top),
            throw_fraction=_scalar_fields(stats.throw_fraction),
            throw_fraction_uncorrected=_scalar_fields(stats.throw_fraction_uncorrected),
        )
    _emit({"summary": summary}, ("state", "weight", "prob", "prob_float"), rows, args)
    return 0


def _cmd_verify(args) -> int:
    qs = (args.q_value,) if args.q else DEFAULT_QS
    results = run_checks(max_m=args.max_m, qs=qs)
    if args.format == "text":
        with _destination(args) as handle:
            for r in results:
                handle.write(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}\n")
    else:
        rows = [(r.name, r.passed, r.detail) for r in results]
        _emit({"max_m": args.max_m}, ("name", "passed", "detail"), rows, args, rows_key="checks")
    return 0 if all(r.passed for r in results) else 1


def _cmd_simulate(args) -> int:
    model = _build_model(args)
    initial = tuple(range(model.n))
    traj = simulate(model, initial, args.steps, args.seed)
    empirical = empirical_distribution(traj, args.burn_in)
    summary = {
        "model": args.model,
        "m": args.m,
        "n": args.n,
        "seed": args.seed,
        "steps": args.steps,
        "burn_in": args.burn_in,
        "throw_count": traj.throw_count,
        "throw_fraction_empirical": traj.throw_fraction,
        "states_visited": len(empirical),
    }
    if isinstance(model, UnboundedGeometric):
        exact = {s: float(p) for s, p in _unbounded_probs(model, empirical).items()}
        summary["tv_empirical_vs_exact"] = total_variation(
            empirical, exact, nu_tail=1.0 - sum(exact.values())
        )
    else:
        try:
            check_state_cap(model.m, model.n)
        except ValueError:
            # The exact law is only needed for the TV; over the cap it is skipped.
            summary["tv_empirical_vs_exact"] = None
        else:
            exact = {s: float(p) for s, p in stationary_distribution(model).items()}
            summary["tv_empirical_vs_exact"] = total_variation(empirical, exact)
    if isinstance(model, BoundedGeometric) and model.n:
        exact = float("nan")  # stays NaN where the float closed form leaves the float range
        with suppress(OverflowError, ValueError):
            exact = float(closed_form_stats(model.m, model.n, model.q).throw_fraction)
        summary["throw_fraction_exact"] = exact if abs(exact) <= sys.float_info.max else None
    rows = [(_state_key(s), f) for s, f in sorted(empirical.items())]
    _emit({"summary": summary}, ("state", "frequency"), rows, args)
    return 0


def _cmd_converge(args) -> int:
    lo, hi = args.m_range
    UnboundedGeometric(args.n, args.q_value)  # checks n and q, even for an empty range
    rows = []
    for m in range(max(lo, args.n), hi + 1):
        row = tv_to_unbounded(m, args.n, args.q_value)
        rows.append((
            m, args.n, _scalar_cell(args.q_value), _scalar_cell(row.tv), float(row.tv),
            float(row.bound_exact), float(row.bound_simple),
        ))
    report = {"summary": {"n": args.n, "q": _scalar_fields(args.q_value)}}
    _emit(report, ("m", "n", "q", "tv", "tv_float", "bound_exact", "bound_simple"), rows, args)
    return 0


def _cmd_limits(args) -> int:
    lo, hi = args.m_range
    try:
        if args.n is not None:
            rows = limit_rows_fixed_n(args.n, args.q_value, range(max(lo, args.n), hi + 1))
            mode = "fixed-n"
        else:
            rows = limit_rows_growing_n(args.q_value, range(max(lo, 1), hi + 1))
            mode = "growing-n"
    except OverflowError:  # a float power of a q-integer; exact rows have no such limit
        raise ValueError("a ground-state value exceeds the float range; use --exact") from None
    out = []
    for row in rows:
        shown = row.value_uncorrected if args.paper_literal else row.value
        if shown > sys.float_info.max:
            raise ValueError(
                f"uncorrected value at m={row.m}, n={row.n} exceeds the float range"
            )
        out.append((
            row.m, row.n, _scalar_cell(shown), float(shown), float(row.target),
            abs(float(shown) - float(row.target)),
        ))
    report = {
        "summary": {
            "mode": mode,
            "uncorrected": bool(args.paper_literal),
            "q": _scalar_fields(args.q_value),
        }
    }
    _emit(report, ("m", "n", "value", "value_float", "target", "abs_error"), out, args)
    return 0


def _cmd_rook(args) -> int:
    histogram = circ_histogram(args.m, args.n)
    total = sum(count * args.q_value**value for value, count in histogram.items())
    gould = gould_stirling(args.m + 1, args.m - args.n + 1, args.q_value)
    report = {
        "summary": {
            "m": args.m,
            "n": args.n,
            "configs": sum(histogram.values()),
            "q": _scalar_fields(args.q_value),
            "circ_sum": _scalar_fields(total),
            "gould_value": _scalar_fields(gould),
            "match": total == gould,
        }
    }
    _emit(report, ("circ", "count"), list(histogram.items()), args)
    return 0


def _parse_m_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A:B, got {text!r}")
    if lo_i > hi_i:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo_i, hi_i


_OPTIONS = {
    "m": dict(type=int, help="number of admissible heights"),
    "n": dict(type=int, help="number of particles"),
    "q": dict(help='throw parameter, "p/r" or decimal'),
    "model": dict(
        choices=["bounded-geometric", "unbounded-geometric", "bounded-uniform"],
        default="bounded-geometric",
    ),
    "seed": dict(type=int, default=0, help="64-bit simulation seed"),
    "steps": dict(type=int, default=100_000),
    "burn-in": dict(type=int, default=1000),
    "m-range": dict(type=_parse_m_range),
    "max-m": dict(type=int, default=6),
    "exact": dict(action="store_true", help="keep q as an exact rational"),
    "paper-literal": dict(
        action="store_true",
        help="report the uncorrected published forms instead of the corrected ones",
    ),
}

# The options each command reads; "!" marks a required one. simulate reports
# only floats and reads q as a float; any other command without --exact
# always keeps q exact.
_COMMANDS = {
    "stationary": (_cmd_stationary, "m n! q model"),
    "verify": (_cmd_verify, "max-m q"),
    "simulate": (_cmd_simulate, "m n! q model seed steps burn-in"),
    "converge": (_cmd_converge, "n! q! m-range! exact"),
    "limits": (_cmd_limits, "n q! m-range! exact paper-literal"),
    "rook": (_cmd_rook, "m! n! q!"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jepq",
        description="Stationary laws, identity verification, and simulation "
        "for juggling exclusion chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, options) in _COMMANDS.items():
        cmd = sub.add_parser(command)
        for option in options.split():
            name = option.rstrip("!")
            cmd.add_argument(f"--{name}", required=option.endswith("!"), **_OPTIONS[name])
        formats = ["text", "json", "csv"] if command == "verify" else ["json", "csv"]
        cmd.add_argument("--format", choices=formats, default=formats[0])
        cmd.add_argument("--out", help="write the report to a file")
        cmd.set_defaults(handler=handler)
    args = parser.parse_args(argv)

    if "model" in args:
        if args.model != "unbounded-geometric" and args.m is None:
            parser.error(f"bounded {args.command} requires --m")
        if args.model != "bounded-uniform" and args.q is None:
            parser.error(f"geometric {args.command} requires --q")
        if args.model == "unbounded-geometric" and args.m is not None:
            parser.error(f"unbounded {args.command} takes no --m")
        if args.model == "bounded-uniform" and args.q is not None:
            parser.error(f"uniform {args.command} takes no --q")

    args.q_value = None
    if args.q is not None:
        exact = getattr(args, "exact", args.command != "simulate")
        try:
            args.q_value = parse_scalar(args.q, exact=exact)
        except (ValueError, ZeroDivisionError):
            parser.error(f"cannot parse q={args.q!r}")
        except OverflowError:
            parser.error(f"q={args.q!r} exceeds the float range")
    try:
        check_state_cap(0, 0)  # a malformed JEPQ_STATE_CAP fails before any command runs
        code = args.handler(args)
        sys.stdout.flush()  # so a closed stdout is caught below, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does. Point stdout at
        # devnull so that the interpreter's own flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ValueError as err:
        print(f"jepq: error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # a defect, kept apart from the codes above
        print(f"jepq: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
