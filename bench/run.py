"""jepq benchmark harness (standard library only).

    python3 bench/run.py --workload exact-law --seed 1 --seconds 38 --trace 0

Runs one workload's job list in closed loop, concurrency 1: each job in a
fresh worker process (bench/worker.py), one job at a time, so every job pays
interpreter start, import and cold caches the way a CLI user does. Rounds of
the job list repeat until --seconds is used up (at least two rounds). Each
job's output is checked, and a job that raises, exits nonzero or fails its
check counts as failed.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json. --trace 1
alternates untraced and traced rounds and reports per-function call counts,
work counts and self times from the traced rounds, plus the tracing
overhead (traced minus untraced wall time). --workload all runs every
workload in turn. The last line of standard output is one JSON object;
--out PATH also writes a result file with the machine and run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from worker import TRACED, TRACED_COUNTS, calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170  # a run must finish well inside three minutes
SETUP_REPEATS = 9
# Times are reported in reference seconds: seconds on a machine where the
# calibration kernel (worker.calibrate) takes CAL_REF_S. Each job time is
# scaled by the kernel's mean time just before and after the job in its
# worker, each round's wall time by the mean over its jobs, and each setup
# sample by the kernel run just before it. Within a run, job and kernel times
# move together (correlation 0.8-0.98), so these per-sample ratios spread
# less between runs than raw times or one scale per run. Round and job times
# are means over the rounds: with 3-6 rounds a run, means spread less between
# runs than medians. Setup time is the median of SETUP_REPEATS samples.
CAL_REF_S = 0.2
MIN_ROUNDS = 2  # a repeated simulation seed must give an identical summary

# Simulation sizes (steps) and the total-variation bound each run must meet.
# The bounds are about twice the largest distance seen over seeds 0..19 at
# these sizes (0.0082, 0.0078, 0.0049); the tiny sizes only exercise the
# harness.
SIM_SIZES = {  # keyed by `tiny`
    False: {"bounded": (200_000, 0.016), "unbounded": (300_000, 0.016), "coupled": (300_000, 0.010)},
    True: {"bounded": (3_000, 1.0), "unbounded": (3_000, 1.0), "coupled": (3_000, 1.0)},
}


def _cli(metric: str, *argv) -> dict:
    return {"metric": metric, "kind": "cli", "argv": [str(a) for a in argv]}


def workload_jobs(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The job list of a workload. q is fixed at 1/2: the cost of Fraction
    arithmetic depends on q's bit length, so the seed only picks the 64-bit
    simulation seeds."""
    if workload == "exact-law":
        m, n, hi_exact, hi_float = (6, 3, 6, 7) if tiny else (14, 7, 15, 20)
        return [
            _cli("stationary_s", "stationary", "--m", m, "--n", n, "--q", "1/2"),
            _cli("converge_exact_s", "converge", "--n", 3, "--q", "1/2",
                 "--m-range", f"3:{hi_exact}", "--exact"),
            _cli("converge_float_s", "converge", "--n", 4, "--q", "1/2",
                 "--m-range", f"4:{hi_float}"),
        ]
    if workload == "verify-oracle":
        max_m, (rm, rn), (sm, sn) = (3, (4, 2), (5, 2)) if tiny else (8, (9, 5), (11, 5))
        return [
            _cli("verify_s", "verify", "--max-m", max_m),
            _cli("rook_s", "rook", "--m", rm, "--n", rn, "--q", "1/2"),
            {"metric": "solve_s", "kind": "solve", "m": sm, "n": sn, "q": "1/2"},
        ]
    if workload == "simulate":
        rng = random.Random(seed)
        seeds = [rng.getrandbits(64) for _ in range(3)]
        sizes = SIM_SIZES[tiny]
        (b_steps, b_tv), (u_steps, u_tv), (c_steps, c_tv) = (
            sizes["bounded"], sizes["unbounded"], sizes["coupled"])
        burn_in = 1000 if not tiny else 100
        bounded = _cli("sim_steps_per_s", "simulate", "--m", 12, "--n", 6, "--q", "1/2",
                       "--steps", b_steps, "--burn-in", burn_in, "--seed", seeds[0])
        unbounded = _cli("sim_unbounded_steps_per_s", "simulate", "--model",
                         "unbounded-geometric", "--n", 4, "--q", "1/2", "--steps", u_steps,
                         "--burn-in", burn_in, "--seed", seeds[1])
        bounded.update(steps=b_steps, tv_bound=b_tv)
        unbounded.update(steps=u_steps, tv_bound=u_tv)
        coupled = {"metric": "coupled_steps_per_s", "kind": "coupled", "m": 10, "n": 4,
                   "q": "1/2", "steps": c_steps, "seed": seeds[2], "burn_in": burn_in,
                   "tv_bound": c_tv}
        return [bounded, unbounded, coupled]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("exact-law", "verify-oracle", "simulate")
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "job1_s": "s", "job2_s": "s", "job3_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for module, functions in TRACED.items():
        for fn in functions:
            units[f"{module}.{fn}.calls"] = "count"
            units[f"{module}.{fn}.self_s"] = "s"
    for name, (counter, _) in TRACED_COUNTS.items():
        units[f"{name}.{counter}"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}


def measure_setup() -> tuple[list[float], list[float]]:
    """Times from a fresh interpreter to `import jepq.cli` done, and the
    calibration timings taken between them."""
    cmd = [sys.executable, "-c", "import jepq.cli"]
    subprocess.run(cmd, env=_env(), check=True, capture_output=True, timeout=60)  # warms .pyc
    times, cals = [], []
    for _ in range(SETUP_REPEATS):
        cals.append(calibrate())
        start = perf_counter()
        subprocess.run(cmd, env=_env(), check=True, capture_output=True, timeout=60)
        times.append(perf_counter() - start)
    return times, cals


def run_job(job: dict, trace: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps(job)] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        return {"ok": False, "detail": "timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "detail": f"worker exit {proc.returncode}: {proc.stderr[-500:]}"}
    return json.loads(lines[-1])


def measure(jobs: list[dict], seconds: float, trace: bool) -> dict:
    """Run rounds of the job list until `seconds` is used up; in a traced
    measurement, odd rounds are traced. Returns the rounds and a verdict."""
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    rounds = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        round_start = perf_counter()
        results = [run_job(job, traced, deadline) for job in jobs]
        wall = perf_counter() - round_start
        cals = [res["cal_s"] for res in results if "cal_s" in res]
        scale = CAL_REF_S / statistics.fmean(cals) if cals else 1.0
        for res in results:
            if "cal_s" in res:
                res["ref_s"] = res["seconds"] * CAL_REF_S / res["cal_s"]
        rounds.append({"traced": traced, "wall_s": wall * scale, "raw_wall_s": wall,
                       "jobs": results})
        elapsed = perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
        if perf_counter() > deadline:
            break
    failures = []
    for i, job in enumerate(jobs):
        runs = [r["jobs"][i] for r in rounds]
        failures += [f"{job['metric']}: {res['detail']}" for res in runs if not res["ok"]]
        digests = {res.get("digest") for res in runs if res["ok"]}
        if len(digests) > 1:
            failures.append(f"{job['metric']}: repeated seed gave different summaries")
    traced_calls = [_round_trace(r)["calls"] for r in rounds if r["traced"]]
    if any(calls != traced_calls[0] for calls in traced_calls):
        failures.append("traced call counts differ between rounds")
    attempted = len(jobs) * len(rounds)
    failed = min(attempted, len(failures))
    return {"rounds": rounds, "attempted": attempted, "failed": failed, "failures": failures}


def _round_trace(rnd: dict) -> dict:
    """Sum the per-job trace reports of one traced round; self times are
    scaled to reference seconds like their job."""
    total = {"calls": {}, "self_s": {}, "counts": {}, "edges": {}}
    for res in rnd["jobs"]:
        scale = res["ref_s"] / res["seconds"] if "ref_s" in res else 1.0
        for kind, values in res.get("trace", {}).items():
            for name, value in values.items():
                value = value * scale if kind == "self_s" else value
                total[kind][name] = total[kind].get(name, 0) + value
    return total


def end_to_end(jobs: list[dict], rounds: list[dict], setup_s: float) -> tuple[dict, dict]:
    """Contract metrics (job slots) and the same figures under their job names."""
    plain = [r for r in rounds if not r["traced"]]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(r["wall_s"] for r in plain),
        "peak_rss_mb": max(res.get("rss_kb", 0) for r in plain for res in r["jobs"]) / 1024,
    }
    named = dict(metrics)
    for i, job in enumerate(jobs):
        times = [r["jobs"][i]["ref_s"] for r in plain if "ref_s" in r["jobs"][i]]
        seconds = statistics.fmean(times) if times else float("nan")
        metrics[f"job{i + 1}_s"] = seconds
        named[job["metric"]] = job["steps"] / seconds if "steps" in job else seconds
    return metrics, named


def per_layer(rounds: list[dict]) -> dict:
    traces = [_round_trace(r) for r in rounds if r["traced"]]
    out = {}
    for name in per_layer_units():
        if name == "trace.overhead_s":
            walls = {t: statistics.fmean(r["wall_s"] for r in rounds if r["traced"] == t)
                     for t in (True, False)}
            out[name] = walls[True] - walls[False]
        elif name.endswith(".self_s"):
            out[name] = statistics.fmean(t["self_s"].get(name[:-7], 0.0) for t in traces)
        elif name.endswith(".calls"):
            out[name] = traces[0]["calls"].get(name[:-6], 0)
        else:
            out[name] = traces[0]["counts"].get(name, 0)
    return out


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name == "fail_ratio":
        return "ratio"
    return END_TO_END_UNITS.get(name) or per_layer_units().get(name) or "s"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    jobs = workload_jobs(workload, seed, tiny)
    setup_times, setup_cals = measure_setup()
    result = measure(jobs, seconds, trace)
    setup_s = statistics.median(t * CAL_REF_S / c for t, c in zip(setup_times, setup_cals))
    metrics, named = end_to_end(jobs, result["rounds"], setup_s)
    named["fail_ratio"] = result["failed"] / result["attempted"]
    if trace:
        metrics = per_layer(result["rounds"])
        named.update(metrics)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "jobs": jobs,
        "setup_raw_s": setup_times,
        "setup_cal_s": setup_cals,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
        "named": {k: {"value": v, "unit": _unit(k)} for k, v in named.items()},
        "rounds": result["rounds"],
    }


def machine_meta() -> dict:
    """Python version, CPU count and model, and the git commit if known."""
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": commit,
    }


def _print_named(report: dict) -> None:
    print(f"# {report['workload']} seed={report['seed']} trace={int(report['trace'])} "
          f"rounds={len(report['rounds'])} failed={report['failed']}/{report['attempted']}")
    for name, entry in report["named"].items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
    for failure in report["failures"]:
        print(f"FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="jepq benchmark harness")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="also write a result file with run metadata")
    args = parser.parse_args(argv)

    if not (SRC / "jepq" / "__init__.py").is_file():
        print(f"jepq sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        reports = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    except subprocess.CalledProcessError as err:
        print(f"cannot import jepq: {err.stderr}", file=sys.stderr)
        return 2
    for report in reports:
        _print_named(report)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"meta": machine_meta(), "reports": reports}, handle, indent=1)
    metrics = (reports[0]["metrics"] if len(reports) == 1 else
               {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
