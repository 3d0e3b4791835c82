import csv
import io
import json
import math
import pathlib
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import hypothesis.strategies as st
import mpmath
import pytest
from hypothesis import given, settings

from bdecay import (
    build_eps_sis_ladder,
    char_coeffs,
    exact_zeta,
    lagrange_zeta,
    lifetime_direct,
    restrict_transient,
)
from bdecay import decay
from bdecay.cli import _fmt, _json_value, main
from bdecay.validate import run_suite
from sweep_reference import COLUMNS, reference_rows


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "bdecay.cli", *args], capture_output=True, text=True
    )


def parse_exact(text: str) -> Fraction:
    """An --exact field "p/q" or "p" as a Fraction.  Fraction(text) would
    convert p and q by int(str), which refuses more than 4300 digits, so
    they are read through Decimal, which holds any int exactly.
    """
    num, _, den = text.partition("/")
    assert num.lstrip("-").isdigit() and (den == "" or den.isdigit()), text[:40]
    return Fraction(Decimal(num)) / Fraction(Decimal(den or "1"))


class TestDecayCommand:
    def test_two_node_epidemic(self, capsys):
        rc = main(["decay", "--n", "2", "--beta", "1", "--delta", "1", "--eps", "0"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["zeta_exact"] == pytest.approx(-(2 - math.sqrt(2)), abs=1e-12)
        assert out["zeta_lagrange2"] == -0.5625
        assert out["bound_ordering_ok"] is True
        assert set(out) == {
            "n", "beta", "delta", "eps", "tau", "x",
            "zeta_exact", "zeta_lagrange1", "zeta_lagrange2", "zeta_lagrange3",
            "zeta_newton", "bound_ordering_ok", "precision_bits",
        }

    def test_single_node_all_estimators_collapse(self, capsys):
        rc = main(["decay", "--n", "1", "--beta", "1", "--delta", "1", "--eps", "0"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        for key in ("zeta_exact", "zeta_lagrange1", "zeta_lagrange2", "zeta_lagrange3",
                    "zeta_newton"):
            assert out[key] == pytest.approx(-1.0, abs=1e-12)

    def test_order_flag_caps_series(self, capsys):
        rc = main(["decay", "--n", "2", "--tau", "1", "--eps", "0", "--order", "1"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["zeta_lagrange1"] == -0.5
        assert out["zeta_lagrange2"] is None
        assert out["zeta_lagrange3"] is None

    def test_invalid_order_is_usage_error(self):
        proc = run_cli(["decay", "--n", "2", "--tau", "1", "--order", "7"])
        assert proc.returncode == 2

    def test_invalid_parameters_exit_2(self):
        proc = run_cli(["decay", "--n", "0", "--tau", "1"])
        assert proc.returncode == 2
        proc = run_cli(["decay", "--n", "2", "--tau", "1", "--eps", "-3"])
        assert proc.returncode == 2

    def test_tau_and_x_mutually_exclusive(self):
        proc = run_cli(["decay", "--n", "2", "--tau", "1", "--x", "2"])
        assert proc.returncode == 2

    def test_exact_flag_prints_rationals(self, capsys):
        rc = main(["decay", "--n", "2", "--tau", "1", "--eps", "0", "--exact"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["zeta_lagrange2"] == "-9/16"


    def test_exact_values_past_the_digit_limit(self, capsys):
        # the exact Lagrange values at n = 1000 run to more than 4300 digits
        rc = main(["decay", "--n", "1000", "--x", "3", "--exact"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        sub = restrict_transient(build_eps_sis_ladder(1000, Fraction(3, 1000), 1, 0))
        coeffs = char_coeffs(sub, kmax=3)
        for order in (1, 2, 3):
            value = parse_exact(out[f"zeta_lagrange{order}"])
            assert value == lagrange_zeta(coeffs, order)
            assert float(value) == pytest.approx(out["zeta_exact"], rel=1e-15)

    def test_ten_thousand_nodes(self, capsys):
        # above threshold every estimate agrees with zeta ~ -6.45e-1875 to
        # the 17 digits printed
        rc = main(["decay", "--n", "10000", "--x", "3"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        for key in ("zeta_exact", "zeta_lagrange1", "zeta_lagrange2", "zeta_lagrange3",
                    "zeta_newton"):
            assert out[key] == "-6.4532552321648151e-1875", key
        assert out["bound_ordering_ok"] is True

    def test_lagrange_stays_above_zeta_below_double_range(self, capsys):
        # zeta ~ -4.89e-562: L1 > zeta exactly, and must print so; a 53-bit
        # rounding of L1 printed -4.8907968246755041e-562, below zeta's
        # -4.8907968246755038e-562
        rc = main(["decay", "--n", "3000", "--x", "3"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert Decimal(out["zeta_lagrange1"]) >= Decimal(out["zeta_exact"])


class TestSweepCommand:
    def test_header_and_meta(self, capsys):
        rc = main(["sweep", "--n-min", "4", "--n-max", "5", "--x-values", "0.5,2",
                   "--eps", "1e-5"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert rc == 0
        assert lines[0].startswith("# meta: bdecay")
        assert lines[1] == ("n,tau,x,eps,zeta_exact,zeta_lagrange2,zeta_newton,"
                            "rel_err_lagrange2,rel_err_newton,precision_bits")
        assert len(lines) == 2 + 4  # two n values x two tau rules

    def test_byte_stable(self, tmp_path):
        args = ["sweep", "--n-min", "4", "--n-max", "6", "--x-values", "2",
                "--eps", "1e-5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_matches_decay_command(self, capsys):
        rc = main(["sweep", "--n-values", "5", "--x-values", "2", "--eps", "1e-5",
                   "--precision-bits", "128"])
        sweep_lines = capsys.readouterr().out.strip().split("\n")
        row = dict(zip(sweep_lines[1].split(","), sweep_lines[2].split(",")))
        rc2 = main(["decay", "--n", "5", "--x", "2", "--eps", "1e-5",
                    "--precision-bits", "128"])
        point = json.loads(capsys.readouterr().out)
        assert rc == rc2 == 0
        assert float(row["zeta_exact"]) == point["zeta_exact"]
        assert float(row["zeta_lagrange2"]) == point["zeta_lagrange2"]

    def test_full_grid_row_count(self, capsys):
        # 57 sizes x 4 infection-rate rules = 228 data rows
        rc = main(["sweep", "--n-min", "4", "--n-max", "60",
                   "--x-values", "0.5,1,2,3", "--eps", "1e-5",
                   "--precision-bits", "128"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert rc == 0
        assert len(lines) == 2 + 57 * 4

    @pytest.mark.parametrize("strict,want_rc", [(False, 0), (True, 1)])
    def test_failed_row_fills_the_error_column(self, strict, want_rc, stall_perron, capsys):
        stall_perron(60)
        argv = ["sweep", "--n-values", "4,60", "--x-values", "3"]
        rc = main(argv + (["--strict"] if strict else []))
        captured = capsys.readouterr()
        assert rc == want_rc
        assert captured.err == "warning: 1 row(s) failed; see the error column\n"
        rows = list(csv.DictReader(io.StringIO(captured.out.split("\n", 1)[1])))
        assert [row["n"] for row in rows] == ["4", "60"]
        assert rows[0]["error"] == "" and rows[0]["zeta_exact"] != ""
        assert rows[1]["error"] == "Perron bracket stopped shrinking; raise the precision"
        assert rows[1]["zeta_exact"] == ""

    def test_row_order_deterministic(self, capsys):
        rc = main(["sweep", "--n-values", "6,4", "--x-values", "3,0.5",
                   "--eps", "1e-5"])
        lines = capsys.readouterr().out.strip().split("\n")[2:]
        keys = [(int(l.split(",")[0]), float(l.split(",")[2])) for l in lines]
        assert keys == sorted(keys)
        assert rc == 0


class TestJsonValue:
    def test_subnormal_zeta_keeps_its_digits(self):
        # n = 1700, x = 3: zeta ~ -2.72e-318 is a subnormal double, whose
        # float form would be wrong from the 7th digit on
        n, x = 1700, Fraction(3)
        z = exact_zeta(restrict_transient(build_eps_sis_ladder(n, x / n, 1, 0)))
        value = _json_value(z)
        assert isinstance(value, str)
        with mpmath.mp.workprec(128):
            lifetime = lifetime_direct(n, mpmath.mpf(3) / n)
            assert abs(mpmath.mpf(value) * lifetime + 1) <= 1e-6

    def test_normal_and_zero_values_stay_numbers(self):
        assert _json_value(mpmath.mpf("-2.5e-300")) == -2.5e-300
        assert _json_value(0.0) == 0.0

    def test_wide_mantissa_prints(self):
        # Python converts no integer of more than 4300 digits to decimal
        with mpmath.mp.workprec(16000):
            value = -mpmath.mpf(1) / 3 * mpmath.mpf(10) ** -1875
        assert _fmt(value) == _json_value(value) == "-3.3333333333333333e-1876"

    def test_rational_below_double_range_keeps_its_digits(self):
        # like the exact Lagrange values at n = 1750, x = 3 (~ -1.2e-327),
        # which are -0.0 as doubles
        value = Fraction(-1, 3 * 10**1875)
        assert _fmt(value) == _json_value(value) == "-3.3333333333333333e-1876"


def correctly_rounded(value: Fraction) -> Decimal:
    """value rounded once to 17 significant digits, half to even."""
    with localcontext() as ctx:
        ctx.prec = 17
        return Decimal(value.numerator) / Decimal(value.denominator)


class TestOutOfRangeFormat:
    """An exact value outside double range prints the 17 digits of its own
    correct rounding, not of a 53-bit rounding of it.
    """

    @pytest.mark.parametrize(
        "value",
        [
            Fraction(-1, 3 * 10**1875),
            Fraction(2, 3) * 10**400,
            Fraction(-(10**5000) - 1, 7),
            Fraction(7, 9 * 10**310),  # a subnormal double
            Fraction(2**1100 + 1, 3),
        ],
        ids=["-1/3e-1875", "2/3e400", "-1e5000/7", "7/9e-310", "2^1100/3"],
    )
    def test_rational_is_correctly_rounded(self, value):
        assert Decimal(_fmt(value)) == correctly_rounded(value)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(10**39, 10**40 - 1),
        st.one_of(st.integers(-2000, -349), st.integers(270, 2000)),
        st.booleans(),
    )
    def test_random_rational_is_correctly_rounded(self, mantissa, exponent, negative):
        # 40 random digits lie within 2^-128 of a 17-digit tie with odds of
        # about 1e-22, so one rounding to 128 bits keeps the correct rounding
        value = Fraction(-mantissa if negative else mantissa, 3) * Fraction(10) ** exponent
        assert Decimal(_fmt(value)) == correctly_rounded(value)

    def test_lifetime_beyond_the_double_range(self):
        # at 53 bits this lifetime printed 7.6394500212162925e+314
        value = lifetime_direct(520, Fraction(10, 520))
        assert _fmt(value) == "7.639450021216293e+314"
        assert Decimal(_fmt(value)) == correctly_rounded(value)


class TestLifetimeCommand:
    def test_three_nodes(self, capsys):
        rc = main(["lifetime", "--n", "3", "--tau", "1", "--delta", "1"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["e_t"] == pytest.approx(23 / 6)
        assert out["f_taylor"] == pytest.approx(23 / 6)
        assert out["regime"] == "above"

    def test_pure_death_limit(self, capsys):
        rc = main(["lifetime", "--n", "3", "--tau", "1e-12"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["e_t"] == pytest.approx(11 / 6, rel=1e-9)
        assert out["f_asymptotic"] is None

    def test_zeta_product_residual_above_threshold(self, capsys):
        rc = main(["lifetime", "--n", "60", "--x", "2"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["zeta_f_residual"] < 1e-4

    def test_lifetime_beyond_the_double_range(self, capsys):
        # F ~ 7.6e314, and the zeta residual resolves zeta ~ -1/F at 128 bits
        rc = main(["lifetime", "--n", "520", "--x", "10"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert float(out["zeta_f_residual"]) < 1e-30
        exact = lifetime_direct(520, Fraction(10, 520))
        assert out["f_direct"] == out["f_taylor"] == out["e_t"]
        assert abs(Fraction(out["e_t"]) - exact) <= exact / 2 ** 52
        assert out["f_expint"] is None
        assert abs(Fraction(out["f_asymptotic"]) / exact - 1) < 1e-3

    def test_ten_thousand_nodes(self, capsys):
        # F ~ 3.4e837 exactly by the product tree; the Taylor route is out of
        # its domain and the expint route leaves the double range
        rc = main(["lifetime", "--n", "10000", "--x", "2"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["e_t"] == out["f_direct"] == "3.3716657325570255e+837"
        assert out["f_taylor"] is None
        assert out["f_expint"] is None

    def test_exact_lifetime_past_the_digit_limit(self, capsys):
        rc = main(["lifetime", "--n", "2000", "--x", "2", "--exact"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        exact = lifetime_direct(2000, Fraction(2, 2000))
        assert parse_exact(out["f_direct"]) == parse_exact(out["e_t"]) == exact
        assert len(out["f_direct"]) > 4300

    def test_nonzero_eps_rejected(self):
        proc = run_cli(["lifetime", "--n", "3", "--tau", "1", "--eps", "0.5"])
        assert proc.returncode == 2


class TestRegimesCommand:
    def test_csv_rows(self, capsys):
        rc = main(["regimes", "--n-values", "50", "--x-values", "0.5,1,2"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert rc == 0
        assert lines[1] == "n,x,regime,leading_estimate,order_only"
        regimes = [l.split(",")[2] for l in lines[2:]]
        assert regimes == ["below", "at", "above"]

    def test_estimate_below_the_double_range(self, capsys):
        # 1/F at n=2000, x=3 is about 1.6e-374: printed from an mpf, not
        # through a float that cannot hold F
        argv = ["regimes", "--n-values", "400,2000", "--x-values", "3"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[2:] == [
            "400,3,above,9.7388062707257777e-75,False",
            "2000,3,above,1.5589033760218997e-374,False",
        ]

    def test_json_rows_match_csv(self, capsys):
        argv = ["regimes", "--n-values", "2,50", "--x-values", "0.5,1,2"]
        assert main(argv) == 0
        csv_rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out.split("\n", 1)[1])))
        assert main(argv + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["rows"]
        assert len(payload["rows"]) == 6
        assert [{k: str(v) for k, v in row.items()} for row in payload["rows"]] == csv_rows


@pytest.mark.parametrize("command", ["decay", "lifetime"])
def test_unresolved_zeta_exits_3(command, stall_perron, capsys):
    stall_perron(60)
    rc = main([command, "--n", "60", "--x", "3"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == "error: Perron bracket stopped shrinking; raise the precision\n"


def test_zeta_far_below_the_old_floor_exits_0(capsys):
    # n = 200, x = 10: |zeta| ~ 6.8e-121, which n log2(x) + 96 bits with an
    # absolute width of 2^-(bits/2) could not resolve
    assert main(["decay", "--n", "200", "--x", "10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert main(["lifetime", "--n", "200", "--x", "10"]) == 0
    lifetime = json.loads(capsys.readouterr().out)
    assert report["zeta_exact"] == -6.795100134755441e-121
    assert report["bound_ordering_ok"] is True
    assert lifetime["zeta_f_residual"] < 1e-30


class TestSimulateCommand:
    def test_summary_and_reproducibility(self, capsys):
        args = ["simulate", "--n", "4", "--tau", "0.1", "--runs", "500", "--seed", "9"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["mean"] == second["mean"]
        assert first["rng"] == second["rng"]
        assert "MT19937" in first["rng"]["algorithm"]
        derivation = first["rng"]["stream_derivation"]
        assert derivation.startswith('run r: u = random.Random(f"{seed}:{r}").random')
        want = float(lifetime_direct(4, Fraction(1, 10)))
        assert abs(first["mean"] - want) < 6 * first["stderr"]

    def test_samples_out(self, tmp_path, capsys):
        path = tmp_path / "samples.csv"
        rc = main(["simulate", "--n", "2", "--tau", "0.2", "--runs", "50",
                   "--seed", "3", "--samples-out", str(path)])
        capsys.readouterr()
        assert rc == 0
        lines = path.read_text().strip().split("\n")
        assert 'seed_policy=mt19937("3:<run>")' in lines[0]
        assert lines[1] == "run,t"
        assert len(lines) == 52


class TestValidateCommand:
    def test_quick_suite_passes(self, capsys):
        rc = main(["validate", "--level", "quick"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["failed"] == 0
        assert out["first_failure"] is None
        assert any(c["name"] == "bound-ordering" for c in out["checks"])

    def test_full_suite_passes_every_check(self):
        summary = run_suite("full")
        failed = [(c["name"], c["detail"]) for c in summary["checks"] if not c["ok"]]
        assert failed == []
        names = {c["name"] for c in summary["checks"]}
        assert {"zeta-lifetime-product", "gillespie-mean"} <= names

    def test_injected_fault_names_bound_ordering(self, monkeypatch, capsys):
        decimal_coeffs = decay._decimal_coeffs

        def f2_sign_flipped(*args):
            coeffs = decimal_coeffs(*args)
            return replace(coeffs, f=coeffs.f[:2] + (-coeffs.f[2],) + coeffs.f[3:])

        monkeypatch.setattr(decay, "_decimal_coeffs", f2_sign_flipped)
        rc = main(["validate", "--level", "quick"])
        captured = capsys.readouterr()
        assert rc == 1
        summary = json.loads(captured.out)
        assert summary["first_failure"] == "bound-ordering"
        assert "bound-ordering" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["decay", "--n", "5", "--x", "2", "--precision-bits", "32"],
        ["decay", "--n", "5", "--x", "2", "--precision-bits", "0"],
        ["decay", "--n", "5", "--x", "2", "--precision-bits", "-64"],
        ["sweep", "--n-values", "4,8", "--x-values", "2", "--precision-bits", "32"],
        ["sweep", "--n-min", "4", "--n-max", "8", "--n-step", "0", "--x-values", "2"],
        ["lifetime", "--n", "5", "--x", "2", "--precision-bits", "0"],
        ["lifetime", "--n", "5", "--x", "1/2", "--precision-bits", "32"],
        ["regimes", "--n-min", "4", "--n-max", "8", "--n-step", "0", "--x-values", "2"],
        ["decay", "--n", "0", "--x", "2"],
        ["lifetime", "--n", "0", "--x", "2"],
        ["simulate", "--n", "0", "--x", "1"],
        ["sweep", "--n-values", "4,x", "--x-values", "2"],
        ["sweep", "--n-values", "4", "--x-values", "2,abc"],
        ["sweep", "--n-values", "4", "--x-values", "1/0"],
        ["regimes", "--n-values", "4", "--x-values", "abc"],
        ["sweep", "--n-min", "5", "--n-max", "4", "--x-values", "2"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_flag_values_are_usage_errors(argv, capsys):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["decay", "--n", "5", "--x", "2", "--out"],
        ["simulate", "--n", "3", "--tau", "1/2", "--runs", "5", "--samples-out"],
    ],
    ids=["decay-out", "simulate-samples-out"],
)
def test_unwritable_output_path_is_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "x.out"
    assert main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {path}: No such file or directory\n"


@pytest.mark.parametrize("command", ["sweep", "regimes"])
def test_empty_n_range_is_named(command, capsys):
    assert main([command, "--n-min", "5", "--n-max", "4", "--x-values", "2"]) == 2
    assert capsys.readouterr().err == "error: --n-min 5 --n-max 4: empty range\n"


DATA = pathlib.Path(__file__).resolve().parent / "data"

# Each file holds the stdout of its argv, written once by a known-good build.
GOLDEN = [
    ("sweep_eps0.csv", ["sweep", "--n-min", "4", "--n-max", "30", "--x-values", "1/2,1,2,3",
                        "--eps", "0"]),
    ("sweep_eps1e-5.csv", ["sweep", "--n-min", "4", "--n-max", "30", "--x-values", "1/2,1,2,3",
                           "--eps", "1e-5"]),
    ("decay_n100_x1-2.json", ["decay", "--n", "100", "--x", "1/2"]),
    ("decay_n200_x1.json", ["decay", "--n", "200", "--x", "1"]),
    ("decay_n300_x2.json", ["decay", "--n", "300", "--x", "2"]),
    ("decay_n400_x3.json", ["decay", "--n", "400", "--x", "3"]),
]


@pytest.mark.parametrize("name,argv", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_output_matches_golden_file(name, argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == (DATA / name).read_bytes()


@pytest.mark.parametrize(
    "n_min,n_max,x_values,eps",
    [("4", "16", "1/2,1,2,3", "0"), ("4", "16", "1/2,1,2,3", "1e-5"),
     # at x = 3, n = 58 and 59, the 17th digit of rel_err_newton turns on zeta's last bits
     ("55", "60", "3", "0")],
    ids=["0", "1e-5", "n55-60_x3_eps0"],
)
def test_sweep_relative_errors_match_reference(n_min, n_max, x_values, eps, capsys):
    # 17 printed digits of |estimate - zeta| / |zeta| need zeta far below
    # the bracket tolerance: they must equal the ones from zeta at 4x the bits
    argv = ["sweep", "--n-min", n_min, "--n-max", n_max, "--x-values", x_values, "--eps", eps]
    assert main(argv) == 0
    rows = list(reference_rows(capsys.readouterr().out, Fraction(eps)))
    assert len(rows) == (int(n_max) - int(n_min) + 1) * len(x_values.split(","))
    for row, ref in rows:
        assert {c: row[c] for c in COLUMNS} == ref, (row["n"], row["x"])
