import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction as F

import pytest

import jepq
from jepq.cli import _exact_str, _state_key, main
from jepq.jep import BoundedGeometric, BoundedUniform, stationary_distribution, stationary_weights
from jepq.oracle import tv_to_unbounded


def run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def test_stationary_table_exact():
    code, out = run_cli(["stationary", "--m", "2", "--n", "1", "--q", "1/2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["Z"] == {"exact": "2", "float": 2.0}
    rows = {row["state"]: row for row in doc["rows"]}
    assert rows["0"]["prob"] == "3/4"
    assert rows["1"]["prob"] == "1/4"
    # exact strings round-trip to the emitted floats
    for row in doc["rows"]:
        assert float(F(row["prob"])) == row["prob_float"]


def test_stationary_output_pinned():
    # digests of the full report, recorded before the weights were
    # computed in one pass
    digests = {
        "json": "c36fddad6ecc6b709218c9e375504f4e6d26966446f871fe438a6f09e3074dad",
        "csv": "3ea34d137c37fe33101b68d0d62edf87e7ff75449b67c60c4558d6c69d705e29",
    }
    for fmt, digest in digests.items():
        code, out = run_cli(
            ["stationary", "--m", "14", "--n", "7", "--q", "1/2", "--format", fmt]
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_stationary_reports_both_throw_fractions():
    code, out = run_cli(["stationary", "--m", "3", "--n", "2", "--q", "1/2"])
    doc = json.loads(out)
    assert doc["summary"]["throw_fraction"]["exact"] == "12/13"
    assert doc["summary"]["throw_fraction_uncorrected"]["exact"] == "24/13"


def test_stationary_csv_columns():
    code, out = run_cli(
        ["stationary", "--m", "3", "--n", "1", "--q", "1/3", "--format", "csv"]
    )
    lines = out.strip().splitlines()
    assert lines[0] == "state,weight,prob,prob_float"
    assert len(lines) == 4


def test_stationary_uniform_model():
    code, out = run_cli(
        ["stationary", "--m", "3", "--n", "2", "--model", "bounded-uniform"]
    )
    assert code == 0
    doc = json.loads(out)
    rows = {row["state"]: row["prob"] for row in doc["rows"]}
    assert rows == {"0-1": "4/7", "0-2": "2/7", "1-2": "1/7"}
    assert doc["summary"]["Z"]["exact"] == "7"
    # the alias names the bounded geometric law at q = 1
    code, out = run_cli(["stationary", "--m", "3", "--n", "2", "--q", "1"])
    assert code == 0
    assert {row["state"]: row["prob"] for row in json.loads(out)["rows"]} == rows


@pytest.mark.parametrize("law", [["--q", "1/2"], ["--q", "3/7"], ["--q", "2/3"],
                                 ["--model", "bounded-uniform"]])
def test_stationary_integer_cells_match_the_fraction_law(law):
    # the exact cells are reduced in integers; the library's Fractions, as `str`
    # formats them, are the reference
    for m in range(9):
        for n in range(m + 1):
            model = BoundedGeometric(m, n, F(law[1])) if law[0] == "--q" else BoundedUniform(m, n)
            code, out = run_cli(["stationary", "--m", str(m), "--n", str(n), *law])
            assert code == 0
            rows = json.loads(out)["rows"]
            weights, probs = stationary_weights(model), stationary_distribution(model)
            assert [row["state"] for row in rows] == [_state_key(s) for s in probs]
            for row, w, p in zip(rows, weights.values(), probs.values()):
                assert row["weight"] == str(w) == _exact_str(w.numerator, w.denominator)
                assert row["prob"] == str(p) == _exact_str(p.numerator, p.denominator)
                assert row["prob_float"] == float(p)


@pytest.mark.parametrize(
    "q, digest",
    [
        # q = 3/10 read exactly (stationary has no --exact), so a != 1 and b = 10
        ("0.3", "90dc6d356086b71378aed33c1d8b86748b034e29b3e34598fc7712c215a0aecc"),
        ("3/7", "44ed5e752880f702967d3786d4203202c22eead13e0fd4d80b79558551c9cd56"),
    ],
)
def test_stationary_cells_pinned(q, digest):
    # digests recorded while every exact cell was built as a Fraction and every
    # report went through json.dump
    code, out = run_cli(["stationary", "--m", "8", "--n", "4", "--q", q])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_passes_and_is_deterministic():
    code, out = run_cli(["verify", "--max-m", "3"])
    assert code == 0
    assert out.count("PASS") == 9
    assert "FAIL" not in out
    code2, out2 = run_cli(["verify", "--max-m", "3"])
    assert out2 == out


def test_verify_json_format():
    code, out = run_cli(["verify", "--max-m", "3", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert all(check["passed"] for check in doc["checks"])


def test_simulate_summary():
    code, out = run_cli(
        [
            "simulate",
            "--m", "4", "--n", "2", "--q", "1/2",
            "--steps", "30000", "--seed", "9", "--burn-in", "500",
        ]
    )
    assert code == 0
    doc = json.loads(out)
    summary = doc["summary"]
    assert summary["tv_empirical_vs_exact"] < 0.05
    assert abs(summary["throw_fraction_empirical"] - summary["throw_fraction_exact"]) < 0.02
    # reruns with the same seed reproduce the report
    assert run_cli(
        [
            "simulate",
            "--m", "4", "--n", "2", "--q", "1/2",
            "--steps", "30000", "--seed", "9", "--burn-in", "500",
        ]
    )[1] == out
    # pinned digests: the uniform draw sequence must not change
    code, out = run_cli(
        [
            "simulate", "--model", "bounded-uniform",
            "--m", "5", "--n", "2", "--steps", "5000", "--seed", "0",
        ]
    )
    assert code == 0
    doc = json.loads(out)
    summary = doc["summary"]
    assert summary["throw_count"] == 3091
    assert summary["throw_fraction_empirical"] == 0.6182
    assert summary["states_visited"] == 10
    assert summary["tv_empirical_vs_exact"] == 0.01047814969334591
    assert summary["throw_fraction_exact"] == 8 / 13
    rows_digest = hashlib.sha256(json.dumps(doc["rows"], sort_keys=True).encode()).hexdigest()
    assert rows_digest == "73bd4b1313d4f0778c8e0a08ed2a8c4c1b47b56b4db0c91ff3603f3136790eb7"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["--m", "8", "--n", "3", "--q", "1/2", "--steps", "20000"],
            "e4a5457fb0163cc92a4c577658135d1e2178c7a9249c7847a5585b2a4f19cb41",
        ),
        (
            ["--m", "8", "--n", "3", "--q", "0.3", "--steps", "20000"],
            "fc28f19efbf316a02e047a3ee22de4124d13bdb48cf4b4426ecba189b75ffbae",
        ),
        (
            ["--model", "unbounded-geometric", "--n", "4", "--q", "1/2", "--steps", "20000"],
            "ea1568e317a22be820efe5c5f7b65526a0db12f812131d40e8d4f73b066b4734",
        ),
        (
            ["--m", "4", "--n", "4", "--q", "1/2", "--steps", "2000", "--burn-in", "10"],
            "9486f41485f5f611e18abdf2a7b066f115197ea90e786c51afb799e592203a7b",
        ),
    ],
)
def test_simulate_output_pinned(argv, digest):
    # digests of the full report, recorded before the chains ran over a
    # successor table: the draws and the paths must not change
    code, out = run_cli(["simulate", *argv, "--seed", "5"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "line, digest",
    [
        (
            "converge --n 3 --q 1/2 --m-range 3:15 --exact",
            "03b12d3ecbd78e05c0c0ab3ab1143253e462efc4a79498131960399887332fe6",
        ),
        (
            "converge --n 4 --q 1/2 --m-range 4:20 --format csv",
            "8d687e87fdd768dfc4fe2dbc5bcb1d24d891c4fdc5eb4c29d49d194322127fb5",
        ),
        # an empty range prints the header only
        (
            "converge --n 5 --q 1/2 --m-range 1:3 --format csv",
            "221c3ba06f74f9ed4a818a1d5db441f5543388827e1e931a76cfbe212dd93783",
        ),
        (
            "limits --q 1/2 --m-range 1:20",
            "1ce1d1d07702a274e4afb448ee5ba05b24fc6e1ce020fe1a483779dc14ff7809",
        ),
        (
            "limits --n 2 --q 1/2 --m-range 2:10 --paper-literal --format csv",
            "8d4a5877f0471b1dff379726914b2f5562c61938eb15f6f41914c4d42dc544c1",
        ),
        (
            "rook --m 6 --n 3 --q 1/2",
            "8c2f41afedc8fa499929c55bdba90e2ba2367c88042192648aabf4ef5847d564",
        ),
        (
            "rook --m 6 --n 3 --q 1/2 --format csv",
            "cd49a22c881f7bc708d667564bbeca3ce178b613f0b3e8b1caa741352ff18162",
        ),
        # the bench's rook job: 42525 placements, counted over used-column groups
        (
            "rook --m 9 --n 5 --q 1/2",
            "144199d18bbb67bc4ea64511676fd793d072f9d496b1ce6ee97abe236e490860",
        ),
        (
            "verify --max-m 4",
            "923dc34306376692e487e7f5049277db4d9220125bac6e96f79e7487c32d3cfb",
        ),
        (
            "verify --max-m 4 --format json",
            "26c9c860f88fc49b9a0b241c60984c5a1420bd6e7c9089441fac1fcbc09b5686",
        ),
        (
            "verify --max-m 4 --format csv",
            "aad26ce3b7def98315781debeeceac9d35e6c0f0de11fa965e9cec5ecd38fcc9",
        ),
    ],
)
def test_report_output_pinned(line, digest):
    # digests of the full report, recorded before the reports were streamed
    # into their destination: every byte must stay as it was
    code, out = run_cli(line.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_rook_counts_past_the_default_cap_and_refuses_below_it(monkeypatch, capsys):
    # 246730 placements at m = 10: recorded while the histogram still listed every placement
    monkeypatch.setenv("JEPQ_STATE_CAP", "300000")
    code, out = run_cli("rook --m 10 --n 5 --q 1/3 --format csv".split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a8322ffd37a9c8038999d94d3e9ccfbe3e984ec3aea9eba7fa2438017d8c6398"
    )
    # the count checks the cap first, as the listing did
    monkeypatch.setenv("JEPQ_STATE_CAP", "100")
    capsys.readouterr()
    assert run_cli("rook --m 9 --n 5 --q 1/2".split()) == (2, "")
    assert capsys.readouterr().err == "jepq: error: extended state space size 42525 exceeds cap 100\n"


@pytest.mark.parametrize(
    "line",
    [
        "stationary --m 4 --n 2 --q 1/2 --format json",
        "rook --m 5 --n 2 --q 1/3 --format csv",
        "verify --max-m 3 --format text",
    ],
)
def test_out_file_matches_stdout(line, tmp_path):
    target = tmp_path / "report"
    code, out = run_cli(line.split())
    assert code == 0
    code, nothing = run_cli([*line.split(), "--out", str(target)])
    assert code == 0
    assert nothing == ""
    assert target.read_bytes() == out.encode()


def test_closed_stdout_exits_quietly():
    # the report is far larger than a pipe buffer, so the writer is still
    # writing when the reader goes away, as with `jepq ... | head -c 20`
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(jepq.__file__))}
    argv = [sys.executable, "-m", "jepq.cli", "stationary", "--m", "14", "--n", "7", "--q", "1/2"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_converge_rows_respect_bounds():
    code, out = run_cli(
        ["converge", "--n", "2", "--q", "1/2", "--m-range", "2:14", "--exact"]
    )
    assert code == 0
    doc = json.loads(out)
    for row in doc["rows"]:
        assert row["tv_float"] <= row["bound_exact"] <= row["bound_simple"]
    assert doc["rows"][-1]["tv_float"] < 1e-3
    # in floats too, past m = 55, where 1 - q^l rounds to 1, down to TV near 1e-22
    code, out = run_cli(["converge", "--n", "2", "--q", "1/2", "--m-range", "2:80"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 79
    for row in rows:
        assert row["tv_float"] <= row["bound_exact"] <= row["bound_simple"], row["m"]


@pytest.mark.parametrize(
    "line, count",
    [("converge --n 2 --q 1e-320 --m-range 2:5", 4), ("converge --n 6 --q 1e-60 --m-range 6:8", 3)],
)
def test_float_converge_at_tiny_q_matches_exact_tv(line, count):
    # no q^-binom(n, 2) is formed, so these runs are tables rather than refusals
    code, out = run_cli(line.split())
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == count
    for row in rows:
        exact = tv_to_unbounded(row["m"], row["n"], F(float(row["q"]))).tv  # q's dyadic value
        assert math.isclose(row["tv_float"], float(exact), rel_tol=1e-12), row["m"]


def test_limits_fixed_and_growing(capsys):
    code, out = run_cli(["limits", "--n", "2", "--q", "1/2", "--m-range", "2:20"])
    doc = json.loads(out)
    assert doc["summary"]["mode"] == "fixed-n"
    assert doc["rows"][-1]["abs_error"] < 1e-4
    code, out = run_cli(["limits", "--q", "1/2", "--m-range", "1:12"])
    doc = json.loads(out)
    assert doc["summary"]["mode"] == "growing-n"
    assert doc["rows"][-1]["m"] == 24
    # the uncorrected display does not approach the target at n = 2
    code, out = run_cli(
        ["limits", "--n", "2", "--q", "1/2", "--m-range", "2:20", "--paper-literal"]
    )
    doc = json.loads(out)
    assert doc["rows"][-1]["abs_error"] > 0.3
    # growing n stays finite where q^binom(n,2) underflows
    code, out = run_cli(["limits", "--q", "1/2", "--m-range", "1:100"])
    assert code == 0
    last = json.loads(out)["rows"][-1]
    assert last["n"] == 100
    assert last["abs_error"] < 1e-9
    # the uncorrected form leaves the float range: one error line, exit 2
    capsys.readouterr()
    code, out = run_cli(["limits", "--q", "1/2", "--m-range", "1:100", "--paper-literal"])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("jepq: error: ") and err.count("\n") == 1


def test_rook_histogram_cross_check():
    code, out = run_cli(["rook", "--m", "6", "--n", "3", "--q", "1/2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["configs"] == 350
    assert doc["summary"]["match"] is True
    assert sum(row["count"] for row in doc["rows"]) == 350


def test_output_file(tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli(
        ["stationary", "--m", "2", "--n", "1", "--q", "1/2", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["summary"]["Z"]["exact"] == "2"


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        run_cli(["stationary", "--m", "2", "--n", "1"])  # missing q
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run_cli(["converge", "--n", "2", "--q", "1/2", "--m-range", "oops"])
    assert info.value.code == 2
    # invalid model parameters are reported as usage errors too
    code, _ = run_cli(["stationary", "--m", "2", "--n", "5", "--q", "1/2"])
    assert code == 2
    code, _ = run_cli(["stationary", "--m", "2", "--n", "1", "--q", "3/2"])
    assert code == 2


def test_state_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("JEPQ_STATE_CAP", "5")
    code, _ = run_cli(["converge", "--n", "3", "--q", "1/2", "--m-range", "8:9"])
    assert code == 2
    # enumerating commands stop with one error line over the cap
    for argv in (
        ["stationary", "--m", "5", "--n", "2", "--q", "1/2"],  # 10 height sets
        ["rook", "--m", "3", "--n", "2", "--q", "1/2"],  # 7 placements
    ):
        capsys.readouterr()
        code, out = run_cli(argv)
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("jepq: error: ") and err.count("\n") == 1
    code, out = run_cli(["stationary", "--m", "5", "--n", "1", "--q", "1/2"])
    assert code == 0
    assert len(json.loads(out)["rows"]) == 5
    # simulate still runs; only the TV against the exact law is skipped
    argv = ["simulate", "--m", "5", "--n", "2", "--q", "1/2", "--steps", "2000"]
    code, out = run_cli(argv)
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["tv_empirical_vs_exact"] is None
    assert summary["throw_fraction_exact"] == 13 / 16
    monkeypatch.setenv("JEPQ_STATE_CAP", "10")
    code, out = run_cli(argv)
    assert isinstance(json.loads(out)["summary"]["tv_empirical_vs_exact"], float)
    # a malformed cap is rejected before any command runs
    for raw in ("abc", "0", "-5"):
        monkeypatch.setenv("JEPQ_STATE_CAP", raw)
        capsys.readouterr()
        code, out = run_cli(["stationary", "--m", "2", "--n", "1", "--q", "1/2"])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert "JEPQ_STATE_CAP" in err and repr(raw) in err


def exit_code(argv):
    """The exit code of one run, whether main returns it or argparse exits."""
    try:
        return run_cli(argv)[0]
    except SystemExit as info:
        return info.code


@pytest.mark.parametrize(
    "argv",
    [
        "converge --n 5 --q 2 --m-range 1:4",
        "converge --n 5 --q 1 --m-range 1:4",
        "limits --n 5 --q 2 --m-range 1:4",
        "limits --n 5 --q 0 --m-range 1:4",
    ],
)
def test_an_empty_m_range_still_checks_q(argv, capsys):
    # every m of the range is below n, so no row is built to check q
    assert exit_code(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("jepq: error: need 0 < q") and err.count("\n") == 1


def test_an_empty_m_range_with_valid_parameters_is_an_empty_table():
    for argv in ("converge --n 5 --q 1/2 --m-range 1:4", "limits --n 5 --q 1 --m-range 1:4"):
        code, out = run_cli(argv.split())
        assert code == 0
        assert json.loads(out)["rows"] == []


@pytest.mark.parametrize(
    "argv, code",
    [
        # an option the command does not read is a usage error
        (["stationary", "--m", "2", "--n", "1", "--q", "1/2", "--seed", "1"], 2),
        (["stationary", "--m", "2", "--n", "1", "--q", "1/2", "--exact"], 2),
        (["rook", "--m", "3", "--n", "2", "--q", "1/2", "--model", "bounded-uniform"], 2),
        (["converge", "--n", "2", "--q", "1/2", "--m-range", "2:3", "--steps", "5"], 2),
        (["verify", "--max-m", "3", "--n", "3"], 2),
        # a missing required option
        (["rook", "--m", "3", "--n", "2"], 2),
        (["converge", "--n", "2", "--q", "1/2"], 2),
        (["limits", "--q", "1/2"], 2),
        (["stationary", "--m", "3", "--q", "1/2"], 2),
        (["simulate", "--n", "2", "--q", "1/2"], 2),
        (["verify", "--max-m", "3", "--format", "csv"], 0),
        # an option the chosen model cannot use
        (["stationary", "--m", "3", "--n", "2", "--model", "bounded-uniform", "--q", "1/2"], 2),
        (["simulate", "--model", "unbounded-geometric", "--n", "2", "--q", "1/2", "--m", "5"], 2),
        # simulate reads q as a float, so q near 1 stays fast and --exact is not an option
        (["simulate", "--model", "unbounded-geometric", "--n", "3", "--q", "0.99999",
          "--steps", "10", "--burn-in", "0"], 0),
        (["simulate", "--model", "unbounded-geometric", "--n", "3", "--q", "0.99999",
          "--steps", "10", "--burn-in", "0", "--exact"], 2),
    ],
)
def test_parser_surface(argv, code):
    assert exit_code(argv) == code


def test_verify_option_spellings():
    default = run_cli(["verify", "--max-m", "4"])
    assert default[0] == 0
    assert run_cli(["verify", "--max-m", "4", "--format", "text"]) == default
    # --m is an unambiguous prefix of --max-m
    assert run_cli(["verify", "--m", "4"]) == default


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--n", "2", "--q", "1e400", "--m-range", "2:3"],
        ["simulate", "--m", "4", "--n", "2", "--q", "1/2", "--steps", "100",
         "--burn-in", "-5"],
        ["verify", "--max-m", "10"],
        ["simulate", "--model", "unbounded-geometric", "--n", "3", "--q", "1e-300",
         "--steps", "100", "--burn-in", "10"],
        # Z underflows to 0
        ["simulate", "--m", "6", "--n", "5", "--q", "1e-200", "--steps", "100",
         "--burn-in", "0"],
        # an exact weight too long for Python to print in decimal
        ["stationary", "--m", "6", "--n", "5", "--q", "1e-320"],
        # an exact Euler product with too many factors
        ["verify", "--max-m", "3", "--q", "0.99999"],
        ["limits", "--q", "0.99999", "--m-range", "1:2", "--exact"],
    ],
)
def test_bad_input_is_one_error_line(argv, capsys):
    assert exit_code(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("jepq")
    assert "set_int_max_str_digits" not in err


def test_exact_value_too_long_names_q(capsys):
    assert exit_code(["stationary", "--m", "6", "--n", "5", "--q", "1e-320"]) == 2
    err = capsys.readouterr().err
    assert "4800 digits" in err and "--q" in err


@pytest.mark.parametrize(
    "argv, line",
    [
        # C(20000, 10000) has more digits than Python prints in decimal
        ("stationary --m 20000 --n 10000 --q 1/2",
         r"state space size of about 6019 digits exceeds cap 100000"),
        # [m-n+1]_q^n leaves the float range
        ("limits --n 200 --q 0.99 --m-range 400:400", r".*float range.*--exact"),
        ("limits --q 0.99 --m-range 300:300", r".*float range.*--exact"),
        # the scaled normalizer overflows while [m-n+1]_q^n does not: the value would read 0
        ("limits --n 100 --q 0.9999 --m-range 1000:1000", r".*float range.*--exact"),
        ("limits --q 0.9999 --m-range 130:130", r".*float range.*--exact"),
    ],
)
def test_out_of_range_values_are_one_error_line(argv, line, capsys):
    assert exit_code(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(f"jepq: error: {line}\n", err), err


@pytest.mark.parametrize(
    "argv",
    [
        # [m-n+1]_q^n overflows
        "--m 300 --n 150 --q 0.999",
        "--m 3000 --n 1500 --q 1/2",
        # Z underflows to 0
        "--m 80 --n 40 --q 0.1",
        # Z overflows to inf, and the throw fraction is inf / inf
        "--m 1099 --n 100 --q 0.9999999",
    ],
)
def test_simulate_reports_null_where_the_float_closed_form_fails(argv):
    code, out = run_cli(["simulate", *argv.split(), "--steps", "200", "--burn-in", "0"])
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["throw_fraction_exact"] is None
    assert summary["tv_empirical_vs_exact"] is None  # over the state cap
    assert summary["throw_count"] > 0


def test_unwritable_out_is_one_error_line(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    argv = ["stationary", "--m", "3", "--n", "2", "--q", "1/2", "--out", str(target)]
    assert exit_code(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("jepq: error: cannot write ") and err.count("\n") == 1


def test_verify_respects_state_cap(monkeypatch, capsys):
    monkeypatch.setenv("JEPQ_STATE_CAP", "5")
    code, out = run_cli(["verify", "--max-m", "4"])  # S(5, 4) = 10 placements
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("jepq: error: ") and err.count("\n") == 1
    # the placements at --max-m 3 fit, but balance-residuals' 220 height sets do not
    monkeypatch.setenv("JEPQ_STATE_CAP", "100")
    assert run_cli(["verify", "--max-m", "3"]) == (2, "")
    assert capsys.readouterr().err == "jepq: error: state space size 220 exceeds cap 100\n"


# Each argv below once ended, or could end, in a traceback; "{missing}" is a
# path in a directory that does not exist.
HOSTILE_ARGVS = [
    "stationary --m 3 --n 2 --q 1/2 --out {missing}",
    "converge --n 2 --q 1e-320 --m-range 2:5",
    "simulate --model unbounded-geometric --n 3 --q 1e-300 --steps 100 --burn-in 10",
    "simulate --model unbounded-geometric --n 2 --q 1e-320 --steps 100 --burn-in 0",
    "simulate --m 4 --n 2 --q 1/2 --steps -1",
    "simulate --m 4 --n 2 --q 1/2 --steps 0 --burn-in 0",
    "simulate --m 4 --n 2 --q 1/2 --steps 10 --burn-in 100",
    "simulate --m 4 --n 2 --q 1/2 --seed -1",
    "simulate --m 4 --n 2 --q 1/2 --seed 18446744073709551616",
    "simulate --m 6 --n 5 --q 1e-200 --steps 100 --burn-in 0",
    "simulate --model unbounded-geometric --n 2 --q 1 --steps 10",
    "simulate --model bounded-uniform --m 3 --n 4",
    "converge --n 2 --q 1e400 --m-range 2:3",
    "converge --n 6 --q 1e-60 --m-range 6:8",
    "converge --n 0 --q 1/2 --m-range 0:3",
    "converge --n 2 --q 1 --m-range 2:3",
    "converge --n 2 --q 1/2 --m-range 5:2",
    "converge --n 2 --q 1/2 --m-range a:b",
    "stationary --m 3 --n 2 --q 1e400",
    "stationary --m 3 --n 2 --q 1e-320",
    "stationary --m 6 --n 5 --q 1e-200",
    "stationary --m 3 --n 2 --q 0",
    "stationary --m 3 --n 2 --q nan",
    "stationary --m 3 --n 2 --q inf",
    "stationary --m 3 --n 2 --q 1/0",
    "stationary --m -1 --n 0 --q 1/2",
    "stationary --m 3 --n -1 --q 1/2",
    "stationary --m 3 --n 2 --q 1/2 --format xml",
    "limits --q 1 --m-range 1:5",
    "limits --q 1e-320 --m-range 1:5",
    "limits --n 2 --q 1e-320 --m-range 2:5",
    "rook --m 3 --n 2 --q 1e400",
    "rook --m 3 --n 5 --q 1/2",
    "rook --m -2 --n 1 --q 1/2",
    "rook --m 0 --n 0 --q 1/2",
    "verify --max-m -1",
    "verify --max-m 2 --q 1",
    "nonsense",
]


@pytest.mark.parametrize("line", HOSTILE_ARGVS)
def test_hostile_input_never_tracebacks(line, tmp_path, capsys):
    argv = line.format(missing=tmp_path / "missing" / "x.json").split()
    # an exception escaping main is what a command-line user sees as a traceback
    assert exit_code(argv) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_internal_error_exits_3(monkeypatch, capsys):
    from jepq import cli

    def broken(args):
        raise RuntimeError("broken handler")

    monkeypatch.setitem(cli._COMMANDS, "rook", (broken, cli._COMMANDS["rook"][1]))
    assert exit_code(["rook", "--m", "3", "--n", "1", "--q", "1/2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "jepq: internal error: RuntimeError: broken handler\n"
