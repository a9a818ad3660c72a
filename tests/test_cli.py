"""CLI surface: parsing, exit codes, report round-trips, determinism."""

import csv
import dataclasses
import hashlib
import io
import json
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from qident.askey_wilson import eval_special_value
from qident.cli import CHECKS, EXIT_CONFIG, EXIT_FAIL, EXIT_NOCONV, EXIT_OK, main
from qident.products import product_coefficient_check
from qident.qkernel import ExactScalar, format_exact, parse_exact
from qident.reporting import CSV_COLUMNS, ReportFile, VerificationReport

from test_products import PRODUCT_POINTS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# the flags without which a section's check cannot run; a product id given --n
# runs its exact check instead of its value check
_NEEDED_FLAGS = {"terminating summations": ["--n", "1"], "quadratic special values": ["--n", "1"],
                 "integral representations": ["--sigma", "1", "--f", "1/2"]}


def _needed_flags(ident) -> list:
    return _NEEDED_FLAGS.get(CHECKS[ident].section, [])


class TestRationalLiterals:
    def test_roundtrip_random_gaussian(self):
        rng = random.Random(2024)
        for _ in range(10_000):
            re = F(rng.randint(-99, 99), rng.randint(1, 99))
            im = F(rng.randint(-99, 99), rng.randint(1, 99))
            v = ExactScalar(re, im)
            assert parse_exact(format_exact(v)) == v

    def test_plain_forms(self):
        assert parse_exact("1/2").re == F(1, 2)
        assert parse_exact("-3").re == F(-3)
        v = parse_exact("1/2+2/3*i")
        assert v.re == F(1, 2) and v.im == F(2, 3)


class TestList:
    def test_listing_covers_all_namespaces(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == EXIT_OK
        assert "T_BAILEY41" in out and "SRIV_JAIN" in out and "IR_THM21" in out
        assert "CLAUSEN" in out

    def test_every_listed_id_is_routed_by_verify(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        ids = [
            line.strip().split()[0]
            for line in out.splitlines()
            if line.startswith("  ")
        ]
        assert len(ids) >= 45
        for ident in ids:
            # every listed id reaches its own check, given the flags that it
            # needs, and the check names its parameters
            code, _, err = run_cli(capsys, "verify", ident, "--params", "zz=1",
                                   *_needed_flags(ident))
            assert code == EXIT_CONFIG, ident
            assert err.startswith(f"error: {ident} takes parameters ("), err

    def test_listing_bytes_are_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0f0d41ffc8af8d7b8ec75a50b4b1118cf27ad8d307b69916b9a97e338451adcf"
        )


class TestVerify:
    def test_bailey41_exact_point(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "T_BAILEY41", "--params", "q=1/2,a=1/3,b=1/5", "--n", "4",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["summary"] == {"total": 1, "passed": 1, "failed": 0, "degenerate": 0}

    def test_parity_point_flagged_degenerate(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "T_ANDREWS_WATSON", "--params", "q=1/2,sqa=1/3,sc=1/5", "--n", "3",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["reports"][0]["degenerate"] is True
        assert payload["reports"][0]["lhs"] == "0"

    def test_unknown_identity_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "nope", "--n", "1")
        assert code == EXIT_CONFIG
        assert "nope" in err

    def test_malformed_parameter_is_named(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "T_BAILEY41", "--params", "q=1e-1x,a=1/3,b=1/5", "--n", "2"
        )
        assert code == EXIT_CONFIG
        assert err.startswith("error: parameter 'q': ")

    def test_repeated_parameter_is_named(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "T_BAILEY41", "--params", "q=1/2,q=1/3,a=1/3,b=1/5", "--n", "2"
        )
        assert code == EXIT_CONFIG
        assert err == "error: parameter 'q' is given twice\n"

    def test_n_with_n_range_is_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "T_BAILEY41", "--params", "q=1/2,a=1/3,b=1/5",
            "--n", "2", "--n-range", "3..4",
        )
        assert code == EXIT_CONFIG and out == ""
        assert "--n " in err and "--n-range" in err

    def test_exponent_literal_parameter(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "T_BAILEY41", "--params", "q=5e-1,a=1/3,b=1/5", "--n", "2"
        )
        assert code == EXIT_OK
        assert json.loads(out)["reports"][0]["params"]["q"] == "1/2"

    def test_missing_n_is_config_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "T_BAILEY41", "--params", "q=1/2,a=1/3,b=1/5")
        assert code == EXIT_CONFIG

    def test_product_identity(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "SRIV_JAIN", "--params", "q=1/2,a=1/3,b=1/4,z=1/5",
            "--eps", "1e-30",
        )
        assert code == EXIT_OK

    def test_product_identity_at_the_safety_radius(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "SRIV_JAIN", "--params", "q=1/2,a=1/3,b=2/5,z=1/4")
        assert code == EXIT_OK and json.loads(out)["summary"]["passed"] == 1

    @pytest.mark.parametrize("argv, message", [
        (["AWGF", "--params", "q=1/2,a=1/3,b=1/5,c=2/3,d=1/7,w=1/10,t=1/5"],
         "need |t| < min(|w|, 1/|w|)"),
        (["WD_APPELL", "--params", "q=1/3,u=3/5,t=1/8,a=1/2,b=1/3,d=9/10"],
         "need |t| < |d| and |u| < |a|"),
        (["WD_APPELL", "--params", "q=1/3,u=1/10,t=1/8,a=1/2,b=1/3,d=1/10"],
         "need |t| < |d| and |u| < |a|"),
        (["TRIPLE_32PF", "--params", "u=3/4,w=9/10,t=1/8,a=1/2,b=1/3,c=1/2,d=1/5,q=1/3"],
         "hypotheses |u| < min(|a|,|c|), |t| < min(|w|,1/|w|) fail"),
        (["TRIPLE_32PF", "--params", "u=1/10,w=1/10,t=1/8,a=1/2,b=1/3,c=1/2,d=1/5,q=1/3"],
         "hypotheses |u| < min(|a|,|c|), |t| < min(|w|,1/|w|) fail"),
        (["QUAD_COR13", "--params", "t=3/4,w=9/10,a=1/2,b=1/3,c=1/2,d=1/5,q=1/3"],
         "hypothesis |t| < min(|a|,|c|,|w|,1/|w|) fails"),
        (["CAYLEY_ORR_A", "--params", "q=1/2,a=1/3,b=1/5,c=7/2,z=1/5"],
         "the lemma needs |q^2 c z| < |ab|"),
        (["CAYLEY_ORR_B", "--params", "q=1/2,a=1/3,b=1/5,c=5,z=1/5"],
         "the lemma needs |c z| < |ab|"),
    ], ids=["AWGF-t", "WD_APPELL-u", "WD_APPELL-t", "TRIPLE_32PF-u", "TRIPLE_32PF-t",
            "QUAD_COR13-t", "CAYLEY_ORR_A-c", "CAYLEY_ORR_B-c"])
    def test_convergence_hypothesis_is_named(self, capsys, argv, message):
        # each product check states its hypothesis before any series runs
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out, err) == (EXIT_CONFIG, "", f"error: {message}\n")

    def test_magnitude_past_float_range_exits_3(self, capsys):
        # at base 9999/10000 a series term passes 2^1024: a named reason, not a crash
        code, out, err = run_cli(
            capsys,
            "verify", "SRIV_JAIN", "--params", "q=9999/10000,a=1/3,b=1/4,z=1/5",
            "--eps", "1e-30",
        )
        assert (code, out) == (EXIT_NOCONV, "")
        assert re.fullmatch(
            r"error: a magnitude of about 2\^\d+ passes the float range \(2\^1024\)\n", err
        )

    def test_classical_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "CLAUSEN", "--params", "a=1/3,b=1/4,z=1/5"
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize("ident, params, n", [
        ("T_GASPER_RAHMAN_WATSON", "q=1/2,b=1/3,c=1/5", "4"),
        ("T_ANDREWS_WHIPPLE_E", "q=1/2,c=1/3,e=1/5", "5"),
    ])
    def test_approx_only_mode_follows_record(self, capsys, ident, params, n):
        code, out, _ = run_cli(capsys, "verify", ident, "--params", params, "--n", n)
        assert code == EXIT_OK
        [report] = json.loads(out)["reports"]
        assert report["passed"] and report["mode"] == "exact"

    @pytest.mark.parametrize("ident, params, problem", [
        ("T_BAILEY41", "q=1/2,a=1/3,x=1/5", "T_BAILEY41 takes parameters (q, a, b): "
         "missing b; unexpected x"),
        ("CLAUSEN", "a=1/3", "CLAUSEN takes parameters (a, b, z): missing b, z"),
        ("SRIV_JAIN", "q=1/2", "SRIV_JAIN takes parameters (q, a, b, z): missing a, b, z"),
        ("CAYLEY_ORR_B", "q=1/2,a=1/3,b=1/5,c=1/7",
         "CAYLEY_ORR_B takes parameters (q, a, b, c, z): missing z"),
        ("TRIPLE_32PF", "u=1/10,w=9/10,t=1/8,a=1/2,b=1/3,c=1/2,d=1/5",
         "TRIPLE_32PF takes parameters (u, w, t, a, b, c, d, q): missing q"),
        ("QUAD_COR13", "u=1/10,t=1/8,w=9/10,a=1/2,b=1/3,c=1/2,q=1/3",
         "QUAD_COR13 takes parameters (t, w, a, b, c, d, q): missing d"),
        ("WD_APPELL", "q=1/3,u=1/10,t=1/8,a=1/2,b=1/3,d=9/10,z=1/5",
         "WD_APPELL takes parameters (q, u, t, a, b, d): unexpected z"),
        ("AWGF", "q=1/2,a=1/3,b=1/5,c=2/3,d=1/7,w=9/10",
         "AWGF takes parameters (q, a, b, c, d, w, t): missing t"),
        ("IR_SRIV_JAIN", "q=1/2", "IR_SRIV_JAIN takes parameters (q, a, b, z): missing a, b, z"),
    ])
    def test_parameter_names_are_named(self, capsys, ident, params, problem):
        code, _, err = run_cli(capsys, "verify", ident, "--params", params, *_needed_flags(ident))
        assert code == EXIT_CONFIG
        assert err == f"error: {problem}\n"

    def test_complex_classical_parameter_is_named(self, capsys):
        code, _, err = run_cli(capsys, "verify", "CLAUSEN", "--params", "a=1/3+1/2*i,b=1/5,z=1/3")
        assert code == EXIT_CONFIG
        assert err == (
            "error: CLAUSEN: parameter a = 1/3+1/2*i is complex; "
            "the classical limits take real parameters only\n"
        )

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    @pytest.mark.parametrize("n_range, problem", [
        ("5..2", "is empty"),
        ("0..x", "is not of the form n or lo..hi"),
        ("3..", "is not of the form n or lo..hi"),
    ])
    def test_malformed_n_range_is_named(self, capsys, command, n_range, problem):
        code, _, err = run_cli(
            capsys, command, "T_BAILEY41", "--params", "q=1/2,a=1/3,b=1/5", "--n-range", n_range
        )
        assert code == EXIT_CONFIG
        assert err == f"error: --n-range {n_range!r} {problem}\n"

    @pytest.mark.parametrize("flag, value", [("--sigma", "abc"), ("--f", "1/0")])
    def test_malformed_sigma_and_f_are_named(self, capsys, flag, value):
        args = {"--sigma": "1", "--f": "1/2", flag: value}
        code, _, err = run_cli(
            capsys, "verify", "IR_SRIV_JAIN", "--params", "q=1/2,a=1/3,b=2/5,z=1/5",
            "--sigma", args["--sigma"], "--f", args["--f"],
        )
        assert code == EXIT_CONFIG
        assert err == f"error: {flag} {value!r} is not a rational literal\n"

    @pytest.mark.parametrize("argv", [
        # a complex f, parsed as --params parses values; no mirror at either
        ["IR_SRIV_JAIN", "--params", "q=1/2,a=1/3,b=1/5,z=1/5", "--sigma", "1/2", "--f", "1/2*i"],
        ["IR_THM21", "--params", "p=7/10,a=1/2,b=2/5,z=1/5", "--sigma", "1/2",
         "--f=3/2+1/2*i"],
        # a negative f, given with = so that argparse does not read it as a flag
        ["IR_SRIV_JAIN", "--params", "q=1/2,a=1/3,b=2/5,z=1/5", "--sigma", "3/5", "--f=-3/2"],
    ])
    def test_gaussian_and_negative_f_are_accepted(self, capsys, argv):
        code, out, _ = run_cli(capsys, "verify", *argv, "--eps", "1e-12")
        assert code == EXIT_OK
        assert json.loads(out)["reports"][0]["passed"]

    @pytest.mark.parametrize("sigma", ["1/2+1/10*i", "i", "-1/2"])
    def test_non_real_sigma_is_refused(self, capsys, sigma):
        code, _, err = run_cli(
            capsys, "verify", "IR_SRIV_JAIN", "--params", "q=1/2,a=1/3,b=2/5,z=1/5",
            f"--sigma={sigma}", "--f", "3/2",
        )
        assert code == EXIT_CONFIG
        assert err == "error: sigma must be a positive real\n"

    def test_integral_needs_sigma_and_f(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "IR_SRIV_JAIN", "--params", "q=1/2,a=1/3,b=2/5,z=1/5"
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("eps", ["0", "-1", "nan"])
    @pytest.mark.parametrize("ident, extra", [
        ("CLAUSEN", ["--params", "a=1/3,b=1/4,z=1/5"]),
        ("SRIV_JAIN", ["--params", "q=1/2,a=1/3,b=1/4,z=1/5"]),
        ("IR_THM21", ["--params", "p=7/10,a=1/2,b=2/5,z=1/5", "--sigma", "1/2", "--f", "3/2"]),
    ])
    def test_nonpositive_eps_is_named(self, capsys, ident, extra, eps):
        # rejected before any series runs: exit 2, not a run to the term cap and exit 3
        code, _, err = run_cli(capsys, "verify", ident, *extra, "--eps", eps)
        assert code == EXIT_CONFIG
        assert err == f"error: eps must be positive, got {float(eps)!r}\n"

    @pytest.mark.parametrize("argv", [
        ["verify", "T_ANDREWS_WHIPPLE_E", "--params", "q=1/2,c=1/3,e=1/5", "--n", "2", "--eps", "-1"],
        ["verify", "T_ANDREWS_WHIPPLE_E", "--params", "q=1/2,c=1/3,e=1/5", "--n", "2", "--eps", "0"],
        ["sweep", "T_ANDREWS_WHIPPLE_E", "--eps", "0"],
        ["verify", "T_BAILEY41", "--params", "q=1/2,a=1/3,b=1/5", "--n", "2", "--eps", "-1"],
    ])
    def test_summation_eps_is_named_as_given(self, capsys, argv):
        # the value typed is named, and no record or eps of 0 passes it over,
        # though eps has no other effect on an exact record
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"error: eps must be positive, got {float(argv[-1])!r}\n"


    @pytest.mark.parametrize("bits", ["-5", "8", "63"])
    @pytest.mark.parametrize("argv", [
        ["verify", "T_BAILEY41", "--params", "q=1/2,a=1/3,b=1/5", "--n", "2"],
        ["sweep", "T_BAILEY41", "--trials", "1"],
        ["verify", "SRIV_JAIN", "--params", "q=1/2,a=1/3,b=1/4,z=1/5"],
        ["verify", "IR_SRIV_JAIN", "--params", "q=1/2,a=1/3,b=2/5,z=1/5", "--sigma", "3/5",
         "--f", "3/2"],
    ])
    def test_precision_bits_below_minimum_is_named(self, capsys, argv, bits):
        # one check for every id, before any check runs: the exact summation
        # records, which use no working precision, reject it too
        code, out, err = run_cli(capsys, *argv, "--precision-bits", bits)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"error: --precision-bits must be >= 64, got {bits}\n"

    @pytest.mark.parametrize("argv", [
        ["verify", "IR_SRIV_JAIN", "--params", "q=1/2,a=1/3,b=2/5,z=1/5", "--sigma", "3/5",
         "--f", "3/2", "--eps", "1e-80"],
        ["verify", "SRIV_JAIN", "--params", "q=1/2,a=1/3,b=1/4,z=1/5", "--eps", "1e-90"],
        ["verify", "WD_APPELL", "--params", "q=1/3,u=1/10,t=1/8,a=1/2,b=1/3,d=9/10",
         "--eps", "1e-90"],
        ["sweep", "T_BAILEY41", "--trials", "1", "--eps", "1e-90"],
    ])
    def test_eps_below_the_precision_is_refused(self, capsys, argv):
        # at the default 256 bits a value rounds at about 2^-256 relative: the
        # three verify points read rel_err about 1.6e-77 and failed a true identity
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == (f"error: --eps {float(argv[-1])!r} is below what --precision-bits 256 "
                       "resolves: eps < 2^(16 - precision_bits) = 5.66e-73\n")

    @pytest.mark.parametrize("eps, bits", [("1e-90", "400"), ("1e-72", "320")])
    def test_eps_within_the_precision_runs(self, capsys, eps, bits):
        # the same point passes once the working precision resolves eps; 1e-72
        # at 320 bits is the smallest pair the tests use
        code, out, err = run_cli(capsys, "verify", "SRIV_JAIN", "--params",
                                 "q=1/2,a=1/3,b=1/4,z=1/5", "--eps", eps, "--precision-bits", bits)
        assert (code, err) == (EXIT_OK, "") and json.loads(out)["reports"][0]["passed"]

    @pytest.mark.parametrize("argv, name", [
        (["SCHLOSSER_T4", "--params", "q=1/2,a=0,b=7/10,z=1/5"], "a"),
        (["NASSRALLAH_1", "--params", "p=0,a=1/2,b=2/5,z=1/5"], "p"),
        (["THM21", "--params", "p=0,a=1/2,b=2/5,z=1/5"], "p"),
        (["IR_SCHLOSSER", "--params", "q=1/2,a=0,b=7/10,z=1/5", "--sigma", "4/5", "--f", "3/2"],
         "a"),
        (["IR_THM21", "--params", "p=0,a=1/2,b=2/5,z=1/5", "--sigma", "1/2", "--f", "3/2"], "p"),
        (["AWGF", "--params", "q=1/2,a=1/3,b=1/5,c=1/7,d=1/11,w=0,t=1/5"], "w"),
        (["WD_APPELL", "--params", "q=1/3,u=1/10,t=1/8,a=1/2,b=1/3,d=0"], "d"),
        (["TRIPLE_32PF", "--params", "u=1/10,w=9/10,t=0,a=1/2,b=1/3,c=1/2,d=1/5,q=1/3"], "t"),
        (["QUAD_COR13", "--params", "t=1/10,w=0,a=1/2,b=1/3,c=1/2,d=1/5,q=1/3"], "w"),
    ])
    def test_zero_divisor_parameter_is_named(self, capsys, argv, name):
        # a side that divides by a zero parameter is malformed input, not a
        # failed verdict: exit 2, naming the parameter
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("error: ") and f"zero parameter: {name} = 0" in err, err


    @pytest.mark.parametrize("argv", [
        ["T516", "--params", "q=1/2,a=1/3,c=-3,t=1/6"],
        ["T516", "--params", "q=1/2,a=1/3,c=-3", "--n", "2"],
    ], ids=["value", "coefficients"])
    def test_vanishing_prefactor_is_named(self, capsys, argv):
        # ac = -1 zeroes 1 + ac, a denominator of a T516 prefactor: exit 2 and
        # the factor named, for the value check and the coefficient check alike
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "error: T516: a prefactor's denominator vanishes: 1 + ac = 0\n"


class TestUnreadFlags:
    """A flag that the id's check does not read exits 2, naming the flag and the id:
    one case per section of the listing."""

    @pytest.mark.parametrize("argv, flag", [
        (["T_BAILEY41", "--params", "q=1/2,a=1/3,b=1/5", "--n", "2", "--sigma", "1/2"], "--sigma"),
        (["SRIV_JAIN", "--params", "q=1/2,a=1/3,b=1/4,z=1/5", "--eps", "1e-30", "--n", "3",
          "--sigma", "7"], "--sigma"),
        (["WD_APPELL", "--params", "q=1/3,u=1/10,t=1/8,a=1/2,b=1/3,d=9/10", "--n", "3"], "--n"),
        (["CLAUSEN", "--params", "a=1/3,b=1/4,z=1/5", "--n", "4"], "--n"),
        (["IR_SRIV_JAIN", "--params", "q=1/2,a=1/3,b=2/5,z=1/5", "--sigma", "3/5", "--f", "3/2",
          "--n", "5"], "--n"),
        (["IR_THM21", "--params", "p=7/10,a=1/2,b=2/5,z=1/5", "--sigma", "1/2", "--f", "3/2",
          "--n-range", "0..2"], "--n-range"),
        (["NEWQUAD", "--params", "q=1/2,a=1/3,b=2/5", "--n", "2", "--f", "3/2"], "--f"),
    ], ids=["summation", "product-sigma", "product-n", "classical", "integral-n",
            "integral-n-range", "special-value"])
    def test_unread_flag_is_named(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"error: {flag} does not apply to {argv[0]}\n"


class TestProductExactChecks:
    """verify <product id> --n N runs the row's exact check through z^N (t^N),
    one report per n, at parameters without the series variable."""

    AWGF_POINT = "q=1/2,a=1/3,b=1/5,c=2/3,d=1/7,w=9/10"

    @staticmethod
    def _exact_point(ident):
        return ",".join(f"{k}={v}" for k, v in PRODUCT_POINTS[ident].items() if k not in "zt")

    @pytest.mark.parametrize("ident", sorted(PRODUCT_POINTS))
    def test_through_z9(self, capsys, ident):
        code, out, _ = run_cli(capsys, "verify", ident, "--params", self._exact_point(ident),
                               "--n", "9")
        assert code == EXIT_OK
        (rep,) = json.loads(out)["reports"]
        assert (rep["identity_id"], rep["mode"], rep["n"]) == (ident, "exact", 9) and rep["passed"]

    def test_awgf_runs_its_coefficient_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "AWGF", "--params", self.AWGF_POINT, "--n", "9")
        assert code == EXIT_OK
        (rep,) = json.loads(out)["reports"]
        assert (rep["lhs"], rep["rhs"], rep["passed"]) == (
            "t^0..t^9 product coefficients", "p_n/(q,ab,cd;q)_n", True)

    def test_one_report_per_n(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "CAYLEY_ORR_B", "--params",
                               self._exact_point("CAYLEY_ORR_B"), "--n-range", "0..10")
        assert code == EXIT_OK
        params = {k: v for k, v in PRODUCT_POINTS["CAYLEY_ORR_B"].items() if k != "z"}
        expected = [json.loads(json.dumps(dataclasses.asdict(
            product_coefficient_check("CAYLEY_ORR_B", params, n)))) for n in range(11)]
        assert json.loads(out)["reports"] == expected

    @pytest.mark.parametrize("ident, point, zname", [
        ("SRIV_JAIN", "q=1/2,a=1/3,b=1/4,z=1/5", "z"),
        ("T515", "q=1/2,a=1/3,c=1/5,t=1/6", "t"),
        ("CAYLEY_ORR_A", "q=1/2,a=1/3,b=1/5,c=2/7,z=1/5", "z"),
        ("AWGF", AWGF_POINT + ",t=1/5", "t"),
    ])
    def test_series_variable_with_n_is_unexpected(self, capsys, ident, point, zname):
        code, out, err = run_cli(capsys, "verify", ident, "--params", point, "--n", "9")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith(f"error: {ident} takes parameters (")
        assert err.endswith(f": unexpected {zname}\n")


class TestSpecialValues:
    # acceptance criterion 4's two points, and AW32 at criterion 3's w = d point
    POINTS = {
        "q=1/2,a=1/3,b=2/5": ("BAILEY0", "ANDREWS_WHIPPLE0", "NEWQUAD", "ESOTERIC"),
        "q=2/5,a=1/4,b=1/3": ("BAILEY0", "ANDREWS_WHIPPLE0", "NEWQUAD", "ESOTERIC"),
        "q=1/2,a=1/3,b=1/5,c=2/3,d=1/7": ("AW32",),
    }

    @pytest.mark.parametrize("point, ident", [(p, i) for p, ids in POINTS.items() for i in ids])
    def test_reports_carry_the_evaluated_pair(self, capsys, point, ident):
        code, out, _ = run_cli(capsys, "verify", ident, "--params", point, "--n-range", "0..10")
        assert code == EXIT_OK
        reports = json.loads(out)["reports"]
        params = {k: F(v) for k, v in (kv.split("=") for kv in point.split(","))}
        for n, rep in enumerate(reports):
            lhs, rhs = eval_special_value(ident, params, n)
            assert (rep["n"], rep["mode"], rep["passed"]) == (n, "exact", True)
            assert (rep["lhs"], rep["rhs"]) == (str(lhs), str(rhs))
        assert len(reports) == 11

    @pytest.mark.parametrize("ident", ["BAILEY0", "NEWQUAD", "ESOTERIC"])
    def test_vanishing_denominator_is_named(self, capsys, ident):
        # a^2 b^2 = 1: the closed form divides by (a^2 b^2; q^2)_1 = 0
        code, out, err = run_cli(capsys, "verify", ident, "--params", "q=1/2,a=2,b=1/2", "--n", "2")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == (f"error: {ident}: closed-form denominator vanishes at "
                       "q=1/2, a=2, b=1/2, n=2\n")

    def test_series_pole_is_named(self, capsys):
        # ab = 1 is a pole of CONV's (ab; q)_n
        code, _, err = run_cli(capsys, "verify", "AW32", "--params",
                               "q=1/2,a=3,b=1/3,c=2/3,d=1/7", "--n", "3")
        assert code == EXIT_CONFIG
        assert err == "error: AW32: ab = q^-0 lies in the pole set\n"

    def test_degree_past_the_cap_is_named(self, capsys):
        code, out, err = run_cli(capsys, "verify", "NEWQUAD", "--params", "q=1/2,a=1/3,b=2/5",
                                 "--n", "11")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "error: n = 11 exceeds the degree cap 10 of the exact special values\n"

    def test_missing_n_is_named(self, capsys):
        code, _, err = run_cli(capsys, "verify", "ESOTERIC", "--params", "q=1/2,a=1/3,b=2/5")
        assert code == EXIT_CONFIG
        assert err == "error: verify needs --n or --n-range for ESOTERIC\n"


class TestExactChecksIgnoreEpsAndBits:
    """--eps and --precision-bits are validated and otherwise unused by the
    exact checks: a special value's and a product id's --n reports are the
    same, byte for byte, with and without both; only the config echoes them."""

    @pytest.mark.parametrize("ident, point", [
        *((i, p) for p, ids in TestSpecialValues.POINTS.items() for i in ids),
        *((i, TestProductExactChecks._exact_point(i)) for i in sorted(PRODUCT_POINTS)),
        ("AWGF", TestProductExactChecks.AWGF_POINT),
    ])
    def test_report_bytes_do_not_move(self, capsys, ident, point):
        argv = ["verify", ident, "--params", point, "--n-range", "0..4"]
        runs = [run_cli(capsys, *argv, *flags)
                for flags in ([], ["--eps", "1e-30", "--precision-bits", "300"])]
        assert [(code, err) for code, _, err in runs] == [(EXIT_OK, "")] * 2
        plain, flagged = (out[out.index('"reports": '):] for _, out, _ in runs)
        assert flagged == plain and json.loads(runs[1][1])["config"]["precision_bits"] == 300


class TestSweepAndReport:
    def test_sweep_runs_and_roundtrips(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        code = main([
            "sweep", "T_NEW_N2", "--trials", "3", "--seed", "7", "--n-range", "0..4",
            "--output", str(out_path),
        ])
        assert code == EXIT_OK
        payload = json.loads(out_path.read_text())
        assert payload["summary"]["total"] == 15
        assert payload["summary"]["failed"] == 0

        # report: JSON -> CSV row count equals entry count
        csv_path = tmp_path / "sweep.csv"
        code = main(["report", str(out_path), "--output", str(csv_path), "--format", "csv"])
        assert code == EXIT_OK
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) - 1 == payload["summary"]["total"]

    def test_sweep_determinism_byte_identical(self, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            p = tmp_path / name
            code = main([
                "sweep", "T_NEW_N2", "--trials", "2", "--seed", "7",
                "--n-range", "0..3", "--output", str(p),
            ])
            assert code == EXIT_OK
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_missing_report_path_is_named(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.json")
        code, _, err = run_cli(capsys, "report", missing)
        assert code == EXIT_CONFIG
        assert err == f"error: cannot read report {missing!r}: No such file or directory\n"

    def test_sweep_rejects_product_ids(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "SRIV_JAIN", "--trials", "1")
        assert code == EXIT_CONFIG

    def test_rewrite_over_a_longer_file_leaves_the_new_report(self, tmp_path):
        # --output is written in place and then cut to the report's length
        argv = ["sweep", "T_BAILEY41", "--trials", "2", "--seed", "7", "--n-range", "0..3"]
        fresh, old = tmp_path / "fresh.json", tmp_path / "old.json"
        old.write_bytes(bytes(range(256)) * 256)
        for path in (fresh, old):
            assert main(argv + ["--output", str(path)]) == EXIT_OK
        assert 0 < len(fresh.read_bytes()) < 256 * 256
        assert old.read_bytes() == fresh.read_bytes()

    def test_output_to_a_device_is_not_truncated(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "T_BAILEY41", "--trials", "1",
                                 "--output", "/dev/null")
        assert (code, out, err) == (EXIT_OK, "", "")

    @pytest.mark.parametrize("where, strerror", [
        ("missing/x.json", "No such file or directory"),
        ("", "Is a directory"),
    ])
    def test_unwritable_output_is_named(self, capsys, tmp_path, where, strerror):
        path = str(tmp_path / where)
        code, out, err = run_cli(capsys, "sweep", "T_BAILEY41", "--trials", "1", "--output", path)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"error: cannot write report {path!r}: {strerror}\n"


_STRINGS = st.text(st.characters(codec="utf-8"), max_size=12)
_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _STRINGS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_STRINGS, inner, max_size=4),
    max_leaves=25,
)
_OPTIONAL_FLOATS = st.none() | st.floats()
_REPORTS = st.builds(
    VerificationReport,
    identity_id=_STRINGS, params=st.dictionaries(_STRINGS, _STRINGS, max_size=4),
    n=st.none() | st.integers(0, 40), mode=st.sampled_from(("exact", "approx")),
    lhs=_STRINGS, rhs=_STRINGS, abs_err=_OPTIONAL_FLOATS, rel_err=_OPTIONAL_FLOATS,
    passed=st.booleans(), degenerate=st.booleans(), truncation_terms=st.none() | st.integers(),
    quadrature_nodes=st.none() | st.integers(), note=_STRINGS,
)


def _json_dumps(rf: ReportFile) -> str:
    """The reference for ReportFile.to_json: the stdlib encoder on the file's payload."""
    payload = {"schema_version": rf.schema_version, "tool_version": rf.tool_version,
               "config": rf.config, "reports": [vars(e) for e in rf.entries],
               "summary": rf.summary}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class TestReportFile:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_REPORTS, max_size=4), st.dictionaries(_STRINGS, _JSON_TREES, max_size=4))
    @example([], {})
    @example([], {"nan": float("nan"), "inf": [float("inf"), float("-inf")], "zero": -0.0,
                  "tiny": 1e-300, "text": "\u00e9\u2603\U0001f600 \x00\x1f\x7f\"\\/",
                  "empty": [{}, [], ()], "nested": {"a": [{"b": [None, True, 10**30]}]}})
    def test_json_matches_stdlib_bytes(self, reports, config):
        rf = ReportFile("\u00e9", config, reports)
        assert rf.to_json() == _json_dumps(rf)

    def test_json_of_scalar_subclasses_matches_stdlib_bytes(self):
        class Int(int):
            pass

        class Float(float):
            pass

        class Str(str):
            pass

        rf = ReportFile("x", {"i": Int(3), "f": [Float(0.5)], "s": Str("\u00e9"), "b": [False]})
        assert rf.to_json() == _json_dumps(rf)

    def test_json_refuses_values_and_keys_outside_the_schema(self):
        # a set is refused as json.dumps refuses it; a non-str key, which
        # json.dumps would convert, is refused too, as the schema has none
        for config in ({"a": {1, 2}}, {"a": {1: 2}}):
            with pytest.raises(TypeError):
                ReportFile("x", config).to_json()

    def test_csv_is_rfc4180(self):
        rf = ReportFile(tool_version="x", config={})
        text = rf.to_csv()
        assert text.endswith("\r\n")
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == CSV_COLUMNS

    def test_exit_code_one_on_failure(self, tmp_path):
        # hand-build a failing report file and re-render it
        rf = ReportFile(tool_version="x", config={})
        rf.add(
            VerificationReport(
                identity_id="T", params={}, n=0, mode="exact", lhs="1", rhs="2",
                abs_err=1.0, rel_err=1.0, passed=False,
            )
        )
        p = tmp_path / "fail.json"
        p.write_text(rf.to_json())
        assert main(["report", str(p), "--format", "csv", "--output", str(tmp_path / "o.csv")]) == EXIT_FAIL
