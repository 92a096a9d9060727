"""Command line behaviour: output content, determinism, exit codes.

Exit codes and byte stability are asserted black-box through subprocesses;
content checks run in-process for speed.
"""

import ast
import json
import os
import random
import subprocess
import sys
import time
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ffgenus import ffpoly, oracle
from ffgenus.cli import main
from ffgenus.ramify import profile_from_dict

EX51 = ["genus", "--field", "3", "--n", "2", "--gamma", "1",
        "--poly", "T^3+2T+1"]
EX53 = ["genus", "--field", "3", "--n", "10", "--gamma", "-1",
        "--poly", "T^2*(T^2-T-1)"]
PHI = ["phi", "--field", "3", "--poly", "T^2"]


def run_cli(argv, timeout=120):
    return subprocess.run([sys.executable, "-m", "ffgenus.cli"] + argv,
                          capture_output=True, timeout=timeout)


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_phi_example(capsys):
    code, out = run_main(capsys, PHI)
    assert code == 0
    assert out == "6\n"


def test_genus_example_51(capsys):
    code, out = run_main(capsys, EX51)
    assert code == 0
    assert "t0 = 1" in out
    assert "F0 = k((-(T^3 + 2*T + 1))^(1/2))" in out
    assert "F  = k" in out
    assert "EXACT [abelian_tame]: K_ge = k((T^3 + 2*T + 1)^(1/2))" in out


def test_genus_example_53(capsys):
    code, out = run_main(capsys, EX53)
    assert code == 0
    assert "place T: e = 5, c = 1" in out
    assert "place T^2 + 2*T + 2: e = 10, c = 2" in out
    assert "e_inf = 5" in out and "t0 = 2" in out
    assert ("EXACT [F_equals_F0]: K_ge = "
            "k((T^2 + 2*T + 2)^(1/2), (-(T^4 + 2*T^3 + 2*T^2))^(1/10)) * F_9") in out


def test_genus_json_round_trips(capsys):
    code, out = run_main(capsys, EX53 + ["--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["exact"] is True
    assert data["lower"] == data["upper"] == data["exact_field"]
    assert data["t0"] == 2
    assert [c["e"] for c in data["components"]] == [5, 10]
    assert data["infinity"]["e_inf"] == 5 and data["infinity"]["c_inf"] == 1


def test_analyze_prints_profile_only(capsys):
    code, out = run_main(capsys, ["analyze"] + EX53[1:])
    assert code == 0
    assert "t0 = 2" in out
    assert "geometric: true" in out
    assert "lower" not in out and "K_ge" not in out


def test_factor_text_and_json(capsys):
    code, out = run_main(capsys, ["factor", "--field", "3", "--poly", "2T^6+T^2"])
    assert code == 0
    assert out == "2 * (T)^2 * (T + 1) * (T + 2) * (T^2 + 1)\n"
    code, out = run_main(
        capsys, ["factor", "--field", "3", "--poly", "2T^6+T^2",
                 "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["unit"] == "2"
    assert data["factors"][0] == {"poly": "T", "mult": 2}


def test_carlitz_coefficients(capsys):
    code, out = run_main(capsys, ["carlitz", "--field", "3", "--poly", "T^2"])
    assert code == 0
    assert out == "u^(q^0): T^2\nu^(q^1): T^3 + T\nu^(q^2): 1\n"


def test_field_accepts_prime_power_and_caret_forms(capsys):
    code1, out1 = run_main(capsys, ["factor", "--field", "9", "--poly", "T^2+1"])
    code2, out2 = run_main(capsys, ["factor", "--field", "3^2", "--poly", "T^2+1"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "T + g" in out1


def test_implicit_products_match_explicit(capsys):
    _, implicit = run_main(capsys, EX53)
    _, explicit = run_main(
        capsys, ["genus", "--field", "3", "--n", "10", "--gamma", "-1",
                 "--poly", "T^4 + 2*T^3 + 2*T^2"])
    assert implicit == explicit


def test_base_constants_flag(capsys):
    code, out = run_main(
        capsys, ["genus", "--field", "5", "--n", "3", "--gamma", "1",
                 "--poly", "T(T^2+T+1)", "--base-constants", "2"])
    assert code == 0
    assert "t0 = 2" in out
    assert "EXACT" in out and "F_25" in out


F256 = ["--field", "2^8", "--n", "3", "--gamma", "g", "--poly", "T*(T+1)*(T+g)"]
F65536 = ["--field", "2^16", "--n", "3", "--gamma", "g", "--poly", "T*(T+1)*(T+g)"]
# the largest S whose residue degrees t = S * (orbit of at most 64 roots) stay
# within 2^1024, the bound on a profile's t
MAX_S = 2 ** 1018


@pytest.mark.parametrize("argv,code,line", [
    (["genus"] + F256 + ["--base-constants", "4"], 0, b"t0 = 12"),
    (["analyze"] + F256 + ["--base-constants", "4"], 0, b"t0 = 12"),
    (["genus"] + F256 + ["--base-constants", "8"], 0, b"t0 = 24"),
    (["analyze"] + F256 + ["--base-constants", "8"], 0, b"t0 = 24"),
    (["analyze", "--field", "3", "--n", "2", "--gamma", "1", "--poly", "T*(T+1)",
      "--base-constants", "64"], 0, b"t0 = 64"),
    # S * m = 72 and 1024 pass 64: t is counted on integers, as is a profile's t
    (["genus"] + F256 + ["--base-constants", "9"], 0, b"t0 = 9"),
    (["analyze"] + F256 + ["--base-constants", "9"], 0, b"t0 = 9"),
    (["genus"] + F65536 + ["--base-constants", "64"], 0, b"t0 = 192"),
    (["genus"] + F256 + ["--base-constants", "65"], 0, b"t0 = 195"),
    pytest.param(["genus"] + F256 + ["--base-constants", str(MAX_S)], 0,
                 f"t0 = {3 * MAX_S}".encode(), id="genus-S-at-cap"),
    pytest.param(["analyze"] + F256 + ["--base-constants", str(MAX_S)], 0,
                 f"t0 = {3 * MAX_S}".encode(), id="analyze-S-at-cap"),
    pytest.param(["genus"] + F256 + ["--base-constants", str(MAX_S + 1)], 1,
                 f"error: base constants degree s = {MAX_S + 1} exceeds cap 65536^64/64\n"
                 .encode(), id="genus-S-past-cap"),
    pytest.param(["analyze"] + F256 + ["--base-constants", str(MAX_S + 1)], 1,
                 f"error: base constants degree s = {MAX_S + 1} exceeds cap 65536^64/64\n"
                 .encode(), id="analyze-S-past-cap"),
])
def test_base_constants_end_fast(argv, code, line):
    # F_{q^s} is never built: over F_256 this took 18.9 s (s = 4) and over a
    # minute (s = 8), and 17.6 s over F_3 with s = 64; S enters only exponents
    start = time.perf_counter()
    proc = run_cli(argv, timeout=60)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == code
    if code == 0:
        assert line + b"\n" in proc.stdout and proc.stderr == b""
    else:
        assert proc.stderr == line and proc.stdout == b""


@pytest.mark.parametrize("argv", [
    ["carlitz", "--field", "2", "--poly", "T^20"],  # q^deg M = MAX_X_DEG
    ["carlitz", "--field", "3", "--poly", "T^12"],
    ["phi", "--field", "3^10", "--poly", "T+1"],  # the slowest field build
    ["genus", "--field", "25", "--n", "24", "--gamma", "1",
     "--poly", "T*(T+1)*(T+2)*(T^2+T+g)"],  # a 331,776-element subfield lattice
    # the splitting check would trial-divide X^n - c by about q^(n/2) candidates
    ["oracle-verify", "--field", "17", "--n", "16", "--gamma", "3", "--poly", "T"],
    ["oracle-verify", "--field", "32", "--n", "9", "--gamma", "g", "--poly", "T"],
    ["oracle-verify", "--field", "81"],  # the largest field of the composition check
    # the splitting check's cap is decided before 3^(n//2 + 1) is built
    ["oracle-verify", "--field", "3", "--n", "100000001", "--gamma", "1", "--poly", "T"],
    ["oracle-verify", "--field", "3", "--n", "1000000000000000000001", "--gamma", "1",
     "--poly", "T"],
    # factor at the degree cap, one field of each element class: an odd-p extension,
    # a large prime field and a binary extension
    ["factor", "--field", "3^10", "--poly", "T^64+T^3+g"],
    ["factor", "--field", "65521", "--poly", "T^64+T+1"],
    ["factor", "--field", "2^16", "--poly", "T^64+T+g"],
    # d = gcd(deg D, n) at the cap: the infinite primes are Frobenius orbits on
    # the d-th roots of gamma, counted on integers; X^d - gamma is not factored
    ["analyze", "--field", "65521", "--n", "64", "--gamma", "3", "--poly", "T^63*(T+1)"],
    ["analyze", "--field", "2^16", "--n", "63", "--gamma", "g", "--poly", "T^62*(T+1)"],
], ids=["carlitz-2-T^20", "carlitz-3-T^12", "phi-3^10", "genus-25-n24",
        "oracle-verify-17-n16", "oracle-verify-32-n9", "oracle-verify-81",
        "oracle-verify-3-n1e8", "oracle-verify-3-n1e21",
        "factor-3^10-deg64", "factor-65521-deg64", "factor-2^16-deg64",
        "analyze-65521-d64", "analyze-2^16-d63"])
def test_valid_inputs_at_a_cap_end_within_budget(argv):
    start = time.perf_counter()
    proc = run_cli(argv, timeout=60)
    assert time.perf_counter() - start < 10.0
    assert proc.returncode == 0, proc.stderr
    if argv[0] == "oracle-verify" and "--n" in argv:  # every such row is past the splitting cap
        assert proc.stdout.endswith(b"skip splitting_at_finite vs ram_finite\nall checks passed\n")


def test_profile_file_runs_abstract_path(capsys, tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({
        "q": 3,
        "finite": [{"deg": 2, "e": [2]}],
        "infinity": [{"e": 1, "t": 1}],
    }))
    code, out = run_main(capsys, ["genus", "--profile", str(path)])
    assert code == 0
    assert "EXACT [F_equals_F0]: K_ge = K * k(cyclo[place deg 2; deg 2])" in out
    # two places of equal degree and c_P are two cyclic degree-7 fields, and F_0,
    # of degree 49, names both, in text and with one JSON entry per place
    path = str(DATA / "profile-3-two-deg6.json")
    code, out = run_main(capsys, ["genus", "--profile", path])
    assert code == 0
    two = "k(cyclo[place deg 6; deg 7], cyclo[place deg 6; deg 7])"
    assert out == f"""\
place <place of degree 6>: e = 7, c = 7
place <place of degree 6>: e = 7, c = 7
infinity: e_inf = 1, c_inf = 1, c'_inf = 1 (divides 1)
t0 = 1
F0 = {two}
F  = {two}
lower: K * {two}
upper: K * {two}
EXACT [F_equals_F0]: K_ge = K * {two}
"""
    code, out = run_main(capsys, ["genus", "--profile", path, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    place = {"cyclo": None, "place_deg": 6, "degree": 7}
    for field in (data["lower"], data["upper"], data["exact_field"],
                  data["infinity"]["F0"], data["infinity"]["F"]):
        assert field["cyclo"] == [place, place]


def test_profile_conflicts_and_errors(capsys, tmp_path):
    assert main(["genus", "--profile", "/nonexistent.json"]) == 1
    capsys.readouterr()
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["genus", "--profile", str(path)]) == 1
    capsys.readouterr()
    huge = tmp_path / "huge.json"
    huge.write_text('{"q": ' + "7" * 5000 + ', "infinity": [{"e": 1, "t": 1}]}')
    assert main(["genus", "--profile", str(huge)]) == 1  # int() refuses 5000 digits
    capsys.readouterr()
    assert main(["genus", "--profile", str(path), "--n", "2"]) == 2
    capsys.readouterr()
    # flags the command would ignore: the profile carries its own q and s,
    # and the splitting check needs all three radical flags
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"q": 3, "infinity": [{"e": 1, "t": 1}]}))
    for argv in (["genus", "--profile", str(good), "--field", "3"],
                 ["genus", "--profile", str(good), "--base-constants", "2"],
                 ["oracle-verify", "--field", "5", "--poly", "T", "--n", "2"],
                 ["oracle-verify", "--field", "5", "--gamma", "2"],
                 ["oracle-verify", "--field", "5", "--base-constants", "2"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().out == ""
    assert main(["genus", "--profile", str(good), "--base-constants", "1"]) == 0
    capsys.readouterr()


def test_oracle_verify_splitting_check_keeps_to_its_budget(capsys):
    # about q^(n//2 + 1) trial divisors over all linear places: 7^5 stay within
    # cli.ENUM_BUDGET and run, 17^9 do not and are skipped
    for field, n, tag in (("7", "9", "ok  "), ("17", "16", "skip")):
        code, out = run_main(capsys, ["oracle-verify", "--field", field, "--n", n,
                                      "--gamma", "3", "--poly", "T"])
        assert code == 0
        assert f"{tag} splitting_at_finite vs ram_finite\n" in out, (field, n)


def test_oracle_verify_passes(capsys):
    code, out = run_main(
        capsys, ["oracle-verify", "--field", "5", "--n", "4", "--gamma", "2",
                 "--poly", "T(T+1)^2"])
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out
    assert out.count("ok ") == 5


@pytest.mark.parametrize("argv,tag", [
    (["--field", "9", "--n", "4", "--gamma", "g", "--poly", "T*(T+1)", "--base-constants", "2"],
     "ok"),
    (["--field", "9", "--n", "4", "--gamma", "g", "--poly", "T*(T+1)", "--base-constants", "3"],
     "ok"),
    # q^(n//2 + 1) = 3^51 is past the budget, with or without base constants
    (["--field", "3", "--n", "101", "--gamma", "1", "--poly", "T", "--base-constants", "2"],
     "skip"),
])
def test_oracle_verify_checks_splitting_under_base_constants(capsys, argv, tag):
    # constants change no ramification at finite places, and X^n - gamma*D that is
    # irreducible over F_{q^S}(T) is irreducible over F_q(T): K is checked over F_q(T)
    code, out = run_main(capsys, ["oracle-verify"] + argv)
    assert code == 0
    assert out == ("ok   naive_factor vs factor\n"
                   "ok   unit_count vs euler_phi\n"
                   "ok   carlitz composition laws\n"
                   "ok   t0_root_degrees vs t0_radical\n"
                   f"{tag:4s} splitting_at_finite vs ram_finite\n"
                   "all checks passed\n")


def test_exit_codes_black_box():
    assert run_cli(PHI).returncode == 0
    assert run_cli(["factor", "--field", "3", "--poly", "T^^"]).returncode == 2
    assert run_cli(["genus", "--field", "3", "--n", "6", "--gamma", "1",
                    "--poly", "T"]).returncode == 1
    assert run_cli(["genus", "--field", "3"]).returncode == 2
    assert run_cli(["nope"]).returncode == 2
    assert run_cli([]).returncode == 2


def test_byte_identical_runs_black_box():
    for argv in (EX51, EX53, PHI):
        first = run_cli(argv)
        second = run_cli(argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"\n")


def test_json_byte_identical_black_box():
    argv = EX53 + ["--format", "json"]
    assert run_cli(argv).stdout == run_cli(argv).stdout


def test_large_lattice_report_has_clean_stderr():
    # q = 25, n = 24: a subfield lattice of 24^4 = 331776 elements, F still determined
    proc = run_cli(["genus", "--field", "25", "--n", "24", "--gamma", "1",
                    "--poly", "T*(T+1)*(T+2)*(T^2+T+g)"])
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert b"\nF  = k((T + 2)^(1/12), (T^2 + 2*T)^(1/24), " in proc.stdout


BIG_N = ["genus", "--field", "5", "--n", "1000000000000000003", "--gamma", "2",
         "--poly", "T*(T+1)"]


def test_huge_prime_n_report_golden(capsys):
    code, out = run_main(capsys, BIG_N)
    assert code == 0
    assert out == """\
place T: e = 1000000000000000003, c = 1
place T + 1: e = 1000000000000000003, c = 1
infinity: e_inf = 1000000000000000003, c_inf = 1, c'_inf = 1 (divides 1)
t0 = 1
F0 = k
F  = k
lower: k((2*(T^2 + T))^(1/1000000000000000003))
upper: k((2*(T^2 + T))^(1/1000000000000000003))
EXACT [F_equals_F0]: K_ge = k((2*(T^2 + T))^(1/1000000000000000003))
"""


def test_text_command_leaves_heavy_modules_unloaded():
    # none of these is needed by a text command, and each costs start-up time on every
    # call: hashlib loads OpenSSL (_hashlib), json is only for --format json and --profile
    code = ("import contextlib, io, sys, ffgenus, ffgenus.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = ffgenus.cli.main(['phi', '--field', '3', '--poly', 'T+1'])\n"
            "print(code, sorted(m for m in ('sympy', 'dataclasses', 'inspect', 'fractions',\n"
            "                               'hashlib', '_hashlib', 'json')\n"
            "                   if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"


@pytest.mark.parametrize("argv,code", [
    (["phi", "--field", "1000000000000000000000007", "--poly", "T"], 1),
    (["phi", "--field", "2^9999999", "--poly", "T"], 1),
    (["phi", "--field", "65537", "--poly", "T"], 1),
    (["phi", "--field", "6", "--poly", "T"], 2),
    (["factor", "--field", "3", "--poly", "T^99999999999"], 2),
    # integer literals longer than int() converts
    (["phi", "--field", "7" * 5000, "--poly", "T"], 2),
    (["factor", "--field", "3", "--poly", "T+" + "7" * 5000], 2),
])
def test_oversized_inputs_end_fast_with_one_error_line(argv, code):
    proc = run_cli(argv, timeout=5)
    assert proc.returncode == code
    err = proc.stderr.decode()
    assert err.count("error:") == 1 and err.endswith("\n") and err.count("\n") == 1
    assert proc.stdout == b""


@pytest.mark.parametrize("argv", [
    ["phi", "--poly", "T"],
    ["genus", "--field", "3", "--n", "x", "--gamma", "1", "--poly", "T"],
    ["frobnicate"],
    ["factor", "--field", "3", "--poly", "T", "--bogus"],
    # a flag the command would ignore, reported before the profile file is read
    ["genus", "--profile", "no-such-profile.json", "--field", "3"],
    ["genus", "--profile", "no-such-profile.json", "--base-constants", "2"],
    ["oracle-verify", "--field", "5", "--poly", "T", "--n", "2"],
])
def test_usage_errors_exit_2_with_one_error_line(argv):
    proc = run_cli(argv, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.decode().startswith("error: ") and proc.stderr.count(b"\n") == 1
    assert proc.stdout == b""


@pytest.mark.parametrize("argv", [PHI, EX53 + ["--format", "json"]], ids=["phi", "genus-json"])
def test_closed_stdout_exits_1_without_traceback(argv):
    # `ffgenus ... | head -1` after head has gone: the read end is already closed
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "ffgenus.cli"] + argv, stdout=w,
                              stderr=subprocess.PIPE, timeout=30)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (1, b"")  # no traceback, no error line


def test_help_still_exits_0():
    for argv in (["--help"], ["genus", "--help"]):
        proc = run_cli(argv, timeout=30)
        assert proc.returncode == 0 and proc.stdout.startswith(b"usage: ffgenus")


def test_long_product_literal_ends_fast():
    # each factor is cheap, but multiplying 2,000 of them out took minutes
    start = time.perf_counter()
    proc = run_cli(["factor", "--field", "65521", "--poly", "*".join(["(T+1)^64"] * 2000)],
                   timeout=30)
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 2
    assert proc.stderr == b"error: degree 128 of a product exceeds cap 64\n"


@pytest.mark.parametrize("profile", [
    {"q": 3, "finite": [{"e": [2]}], "infinity": [{"e": 1, "t": 1}]},
    {"q": 3, "s": "x", "finite": [{"deg": 2, "e": [2]}], "infinity": [{"e": 1, "t": 1}]},
    {"q": 1000000007, "infinity": [{"e": 1, "t": 1}]},
    # degrees far above MAX_POLY_DEG would build q ** deg
    {"q": 9, "finite": [{"deg": 1000000000, "e": [2]}], "infinity": [{"e": 1, "t": 1}]},
    # just past the bounds of t and s, 2^1024 and 2^1018 (t = s * 64 <= 2^1024)
    {"q": 9, "finite": [{"deg": 1, "e": [2]}], "infinity": [{"e": 2, "t": 2 ** 1024 + 1}]},
    {"q": 9, "s": 2 ** 1018 + 1, "finite": [{"deg": 1, "e": [2]}],
     "infinity": [{"e": 2, "t": 1}]},
    # truncating these to q = 9, deg = 2, e = 2 would give a report
    {"q": 9.7, "finite": [{"deg": 2.9, "e": [2.5]}], "infinity": [{"e": 1, "t": 1}]},
    # the e_P multiply past 2^1024: the wild bound 2^28000, and [F_0 meet R+ : k]
    # near 65521^1024, have more digits than str() takes
    {"q": 2, "finite": [{"deg": 1, "e": [2 ** 14000]}] * 2, "infinity": [{"e": 1, "t": 1}]},
    {"q": 65521, "finite": [{"deg": 64, "e": [65521 ** 64 - 1]}] * 16,
     "infinity": [{"e": 1, "t": 1}]},
    # raw text, nested past the JSON decoder's recursion limit
    pytest.param("[" * 100000 + "]" * 100000, id="nested"),
])
def test_malformed_profile_exits_1_with_one_error_line(tmp_path, profile):
    path = tmp_path / "profile.json"
    path.write_text(profile if isinstance(profile, str) else json.dumps(profile))
    for fmt in ("text", "json"):
        proc = run_cli(["genus", "--profile", str(path), "--format", fmt], timeout=5)
        assert proc.returncode == 1
        err = proc.stderr.decode()
        assert err.startswith("error:") and err.count("error:") == 1, err
        assert err.count("\n") == 1
        assert proc.stdout == b""


def test_profile_at_the_e_P_bound_reports(capsys, tmp_path):
    # the e_P multiply to exactly 2^1024, and the wild bound prints all 309 digits
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"q": 2, "finite": [{"deg": 1, "e": [2 ** 1024]}],
                                "infinity": [{"e": 1, "t": 1}]}))
    code, out = run_main(capsys, ["genus", "--profile", str(path)])
    assert code == 0
    assert f"wild bounds: finite <= {2 ** 1024} [deg 1: p^1024]" in out
    code, out = run_main(capsys, ["genus", "--profile", str(path), "--format", "json"])
    assert code == 0
    assert json.loads(out)["wild"]["finite_wild_degree_bound"] == 2 ** 1024


# every prime power q <= 81, as (p, m)
_ROUND_TRIP_FIELDS = [(p, m) for q in range(2, 82)
                      if len(f := ffpoly.factor_int(q)) == 1 for p, m in f.items()]


def _radical_analyze_argv(rng):
    """analyze --format json on a random K over q <= 81 with S <= 70, D a
    product of up to three irreducibles of degree <= 2 (so the e_P, each at
    most n <= 24, multiply far below 2^1024); the radicand may be reducible."""
    p, m = rng.choice(_ROUND_TRIP_FIELDS)
    ctx = ffpoly.make_context(p, m)
    n = rng.choice([n for n in range(2, 25) if n % p])
    D, Ps = ffpoly.FqPoly.const(ctx, ctx.one()), []
    for _ in range(rng.randrange(1, 4)):
        P = ffpoly.FqPoly(ctx, tuple(ctx.from_int(rng.randrange(ctx.q))
                                     for _ in range(rng.randrange(1, 3))) + (ctx.one(),))
        alpha = rng.randrange(1, n)
        if P not in Ps and D.degree + alpha * P.degree <= 64 and ffpoly.is_irreducible(P):
            Ps.append(P)
            D = D * P ** alpha
    return ["analyze", "--field", f"{p}^{m}", "--n", str(n),
            "--gamma", ffpoly.render_element(ctx.from_int(rng.randrange(1, ctx.q))),
            "--poly", ffpoly.render_poly(D), "--base-constants", str(rng.randrange(1, 71)),
            "--format", "json"]


def test_analyze_json_loads_back_as_a_profile(capsys, tmp_path):
    # the t at infinity are S times an orbit size, so S and the orbits drive t
    # past 64, which profile_from_dict once refused
    rng = random.Random(20261020)
    path = tmp_path / "profile.json"
    valid = past_64 = 0
    while valid < 200:
        argv = _radical_analyze_argv(rng)
        code = main(argv)
        out, err = capsys.readouterr()
        if code == 1 and "is reducible" in err:
            continue
        assert code == 0, (argv, err)
        payload = json.loads(out)
        prof = profile_from_dict(payload)
        assert prof.infinity == tuple((i["e"], i["t"]) for i in payload["infinity"]), argv
        assert (prof.e_inf, prof.t0, prof.s) == (
            payload["e_inf"], payload["t0"], payload["s"]), argv
        assert [(pl.deg, pl.e_P) for pl in prof.finite] == [
            (pl["deg"], pl["e_P"]) for pl in payload["finite"]], argv
        path.write_text(out)
        assert main(["genus", "--profile", str(path)]) == 0, (argv, capsys.readouterr().err)
        capsys.readouterr()
        # one generator per place: the degrees of the abstract F_0 multiply to prod c_P
        assert main(["genus", "--profile", str(path), "--format", "json"]) == 0, argv
        abstract = json.loads(capsys.readouterr().out)
        F0 = abstract["infinity"]["F0"]
        assert F0["radicals"] == [], argv
        assert prod(g["degree"] for g in F0.get("cyclo", [])) == prod(
            gcd(pl["e_P"], payload["q"] ** pl["deg"] - 1) for pl in payload["finite"]), argv
        # the radical report reads the same ramification data, and certifies at least as much
        assert main(["genus"] + argv[1:]) == 0, argv
        radical = json.loads(capsys.readouterr().out)
        for r in (abstract, radical):
            r["components"] = sorted((pl["deg"], pl["e"], pl["c"]) for pl in r["components"])
            r.update((key, r["infinity"][key])
                     for key in ("e_inf", "c_inf", "cprime_bound", "F0_plus_deg"))
        keys = ("t0", "e_inf", "c_inf", "cprime_bound", "F0_plus_deg", "components")
        assert [abstract[key] for key in keys] == [radical[key] for key in keys], argv
        if abstract["exact"]:
            assert radical["infinity"]["exactness_reason"] == "F_equals_F0", argv
        valid += 1
        past_64 += max(t for _, t in prof.infinity) > 64
    assert past_64 >= 20


DATA = Path(__file__).parent / "data"
GOLDENS = json.loads((DATA / "cli_goldens.json").read_text())


def _golden_ids(cases):
    """command-field[-json][-sS], or command-profile[-json] for a profile file
    profile.json, with the fourth argument appended where that repeats an
    earlier id."""
    ids = []
    for argv in (case["argv"] for case in cases):
        gid = f"{argv[0]}-{argv[2].removesuffix('.json')}" + ("-json" if "json" in argv else "")
        if "--base-constants" in argv:
            gid += f"-s{argv[argv.index('--base-constants') + 1]}"
        ids.append(f"{gid}-{argv[4]}" if gid in ids else gid)
    return ids


WORK_COUNTS = DATA / "work_counts.json"
WORK_TABLE = json.loads(WORK_COUNTS.read_text())
COUNTED_FUNCTIONS = ("powmod", "factor", "make_context", "is_eth_power")
COUNTED_METHODS = (("FqPoly", "__mul__"), ("FqPoly", "divrem"), ("FqContext", "extension"))


def counted_run(argv):
    """main(argv) run as one fresh CLI call: (exit code, {counted name: calls}).

    A --profile file is looked up in tests/data. The run starts from an
    empty context cache and empty oracle field tables, so its counts include
    context construction and do not depend on what ran before in the same
    process. Every binding of a counted function in an ffgenus module and
    every counted method is replaced by a counter, as the benchmark's tracer
    does, and restored when the run ends.
    """
    names = [f"{cls}.{name}" for cls, name in COUNTED_METHODS] + list(COUNTED_FUNCTIONS)
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    modules = [mod for name, mod in sys.modules.items() if name.startswith("ffgenus.")]
    with pytest.MonkeyPatch.context() as mp:
        for name in COUNTED_FUNCTIONS:
            fn = getattr(ffpoly, name)
            counted = counting(name, fn)
            for mod in modules:
                if vars(mod).get(name) is fn:
                    mp.setattr(mod, name, counted)
        for cls, name in COUNTED_METHODS:
            owner = getattr(ffpoly, cls)
            mp.setattr(owner, name, counting(f"{cls}.{name}", getattr(owner, name)))
        mp.setattr(ffpoly, "_CTX_CACHE", {})
        oracle._field.cache_clear()
        code = main([str(DATA / arg) if flag == "--profile" else arg
                     for flag, arg in zip([None] + argv, argv)])
    return code, calls


@pytest.mark.parametrize("case", GOLDENS, ids=_golden_ids(GOLDENS))
def test_cli_golden_output(capsys, case, request):
    """factor/phi/carlitz/analyze/genus over q = 3 .. 2^12 and oracle-verify
    over q <= 25, captured before the integer element kernel, carlitz at
    degree 12 over F_2 and 11 over F_3, captured before the coefficient
    recursion, and analyze in text and JSON for two K with constant field
    F_{q^2} (gcd(n, alpha_1, ...) = 2), captured when geometric became
    exact, and the reducible radicand that base constants F_9 make of
    2T^2 (exit 1); then one genus report per branch, in text and JSON: the
    F_37 CONJECTURE, F undetermined, constants_collapse, a cyclo[...]
    generator with and without base constants, and three --profile files
    (two places of equal degree with infinity split and inert, and a wild
    profile with F undetermined); oracle-verify with its splitting check,
    and a usage error (exit 2). stdout and stderr must match byte for byte,
    and the kernel calls of the run, from empty caches, must match the
    case's row of tests/data/work_counts.json. A change that alters the
    calls regenerates that row and says which rows moved and why; the counts
    do not depend on PYTHONHASHSEED or on python -O."""
    code, calls = counted_run(case["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["code"], case["stdout"], case.get("stderr", ""))
    assert calls == WORK_TABLE[request.node.callspec.id]


# inputs beyond the goldens: a genus input whose residue tower F_{11^10} takes
# seconds, the largest oracle-verify field and a degree-64 factor
WORK_ROWS = {
    "stall-genus-11-n10": ["genus", "--field", "11", "--n", "10", "--gamma", "2",
                           "--poly", "T*(T+1)^9"],
    "oracle-verify-81": ["oracle-verify", "--field", "81"],
    "factor-3^10-deg64": ["factor", "--field", "3^10", "--poly", "T^64+T^3+g"],
}


def test_golden_work_counts_match_the_pinned_table():
    """The kernel calls of each WORK_ROWS input, each run from empty caches,
    are pinned in tests/data/work_counts.json beside the goldens' rows."""
    for row, argv in WORK_ROWS.items():
        assert counted_run(argv)[1] == WORK_TABLE[row], row


# -- the functions the goldens reach --

REACH = DATA / "golden_reach.json"
REACH_MODULES = ("genus", "ramify", "cli")
# the functions of REACH_MODULES that no golden calls, and why
UNREACHED = {
    "genus.estar_interval": "no command prints it; the tests and the benchmark call it "
                            "(ROADMAP item 23)",
}


def _defined_functions(module):
    """(file, {first line: qualified name}) of each def in ffgenus.<module>.

    The first line is that of the first decorator of a decorated def, as in
    its code object's co_firstlineno; the name is module.Class.method or
    module.outer.<locals>.inner, as __qualname__ spells it.
    """
    path = sys.modules[f"ffgenus.{module}"].__file__
    found = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[min([d.lineno for d in child.decorator_list] + [child.lineno])] = (
                    prefix + child.name)
                walk(child, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, prefix)

    with open(path, encoding="utf-8") as fh:
        walk(ast.parse(fh.read()), f"{module}.")
    return path, found


def _reach_recorder(reached):
    """A sys.setprofile hook that adds to reached the name of each function
    of REACH_MODULES that is called."""
    names = {(path, line): name for path, found in map(_defined_functions, REACH_MODULES)
             for line, name in found.items()}

    def hook(frame, event, arg):
        if event == "call":
            name = names.get((frame.f_code.co_filename, frame.f_code.co_firstlineno))
            if name is not None:
                reached.add(name)
    return hook


def test_goldens_reach_every_report_function():
    """Each function of genus, ramify and cli is called by some golden, or is
    named in UNREACHED with its reason. tests/data/golden_reach.json holds the
    names that the goldens reach; `PYTHONPATH=src python tests/test_cli.py`
    records it, and a renamed or deleted function shows up here as stale."""
    reached = set(json.loads(REACH.read_text()))
    defined = {name for module in REACH_MODULES
               for name in _defined_functions(module)[1].values()}
    assert sorted(defined - reached - UNREACHED.keys()) == []
    assert sorted(reached & UNREACHED.keys()) == []
    assert sorted(reached - defined) == []


@pytest.mark.parametrize("field", ["16", "27", "32", "49"])
def test_oracle_verify_large_fields_end_in_time(field):
    # their t0 splitting fields (up to F_32^4) exceed the enumeration budget
    proc = run_cli(["oracle-verify", "--field", field, "--format", "json"], timeout=60)
    assert proc.returncode == 0
    checks = {c["name"]: c["ok"] for c in json.loads(proc.stdout)["checks"]}
    assert checks == {"naive_factor vs factor": True, "unit_count vs euler_phi": None,
                      "carlitz composition laws": True,
                      "t0_root_degrees vs t0_radical": None}


def test_oracle_verify_past_the_table_cap_exits_1():
    # the first check, naive_factor, refuses a base field it cannot tabulate
    proc = run_cli(["oracle-verify", "--field", "3^5"], timeout=30)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"error: field size 243 exceeds oracle cap 81\n"


# -- the CLI contract under fuzzed argv --

_FIELDS = ["2", "3", "4", "5", "7", "8", "9", "3^2", "2^8", "0", "6", "2^99", "65537",
           "x", "7" * 5000]
_LITERALS = st.one_of(
    st.sampled_from(["T", "T+1", "T^3+2T+1", "T^2(T+1)", "T*(T+1)*(T+g)", "g", "g^5",
                     "1", "-1", "2", "[1,1]", "0", "T^65", "7" * 5000, "T+" + "7" * 5000]),
    st.builds(lambda base, k: "*".join([base] * k),
              st.sampled_from(["T", "(T+1)", "(T+1)^64", "(T^2+T+1)^8"]),
              st.integers(1, 3000)),
    st.text(alphabet="Tg0123456789+-*^()[], x?é", max_size=30),
)
_INTS = st.one_of(st.integers(-3, 40).map(str),
                  st.sampled_from(["x", "7" * 5000, "1000000000000000003"]))
_VALUES = {
    "--field": st.sampled_from(_FIELDS),
    "--poly": _LITERALS,
    "--gamma": _LITERALS,
    "--n": _INTS,
    "--base-constants": st.one_of(st.integers(-1, 8).map(str),
                                  st.sampled_from(["65", str(2 ** 1018 + 1), "x"])),
    "--format": st.sampled_from(["text", "json", "xml"]),
    "--profile": st.just("PROFILE"),  # replaced by the generated profile's path
    "--bogus": st.just("1"),
}
# mostly valid radical inputs, so that the report paths run, --base-constants included
_RADICAL = {
    "--field": st.sampled_from(["3", "4", "5", "7", "8", "9", "13", "2^8"]),
    "--poly": st.sampled_from(["T", "T*(T+1)", "T*(T+1)*(T+g)", "T^3+2T+1", "T^2(T+1)"]),
    "--gamma": st.sampled_from(["1", "-1", "2", "g", "g^5"]),
    "--n": st.integers(2, 12).map(str),
    "--base-constants": st.integers(1, 8).map(str),
}
_JSON_INTS = st.one_of(st.integers(-2, 30),
                       st.sampled_from([65537, 10 ** 30, 2 ** 14000, 2.5, "9", True, None]))
_PROFILES = st.one_of(
    st.fixed_dictionaries(
        {"q": st.one_of(st.sampled_from([2, 3, 4, 5, 9, 25, 27, 6, 1]), _JSON_INTS),
         "infinity": st.lists(st.fixed_dictionaries({"e": _JSON_INTS, "t": _JSON_INTS}),
                              max_size=3)},
        optional={"finite": st.lists(st.fixed_dictionaries(
                      {"deg": _JSON_INTS, "e": st.lists(_JSON_INTS, max_size=3)}), max_size=3),
                  "s": _JSON_INTS,
                  "geometric": st.sampled_from([True, False, None, "false", 0])}),
    st.sampled_from([[], 7, "q", None, {}]),
)


@st.composite
def _fuzzed_argv(draw):
    if draw(st.booleans()):
        argv = [draw(st.sampled_from(["analyze", "genus"]))]
        for flag, values in _RADICAL.items():
            argv += [flag, draw(values)]
        return argv + draw(st.sampled_from([[], ["--format", "json"]]))
    argv = [draw(st.sampled_from(["factor", "phi", "carlitz", "analyze", "genus",
                                  "oracle-verify", "frobnicate"]))]
    for flag in draw(st.lists(st.sampled_from(sorted(_VALUES)), max_size=7)):
        argv += [flag, draw(_VALUES[flag])]
    if draw(st.booleans()):
        argv.append(draw(st.sampled_from(sorted(_VALUES))))  # a flag without its value
    return argv


@settings(max_examples=80, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow, HealthCheck.data_too_large])
@given(argv=_fuzzed_argv(), profile=_PROFILES)
def test_fuzzed_argv_keeps_the_cli_contract(tmp_path, argv, profile):
    """Any argv ends with exit 0, 1 or 2 in bounded time, with no traceback and
    at most one stderr line, which starts with `error:`."""
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    proc = run_cli([str(path) if a == "PROFILE" else a for a in argv], timeout=30)
    err = proc.stderr.decode()
    assert proc.returncode in (0, 1, 2), err
    assert "Traceback" not in err
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_cli.py rewrites tests/data/work_counts.json,
    # one fresh counted run per golden, then per WORK_ROWS input, and
    # tests/data/golden_reach.json, the functions of REACH_MODULES the goldens call
    import contextlib
    import io

    goldens = dict(zip(_golden_ids(GOLDENS), (case["argv"] for case in GOLDENS)))
    reached = set()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(_reach_recorder(reached))
        table = {row: counted_run(argv)[1] for row, argv in goldens.items()}
        sys.setprofile(None)
        table.update((row, counted_run(argv)[1]) for row, argv in WORK_ROWS.items())
    WORK_COUNTS.write_text("{\n" + ",\n".join(f" {json.dumps(row)}: {json.dumps(calls)}"
                                               for row, calls in table.items()) + "\n}\n")
    REACH.write_text(json.dumps(sorted(reached), indent=1) + "\n")
