import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import elliptic_dedekind
from elliptic_dedekind import QuadOrder, SumContext, Target, approximate, cli, d_norm, d_norm_exact, d_sum
from elliptic_dedekind.cli import main
from elliptic_dedekind.errors import (
    ConstructionError,
    DedekindError,
    ExcludedRingError,
    InadmissibleTargetError,
    NotAMultiplierError,
    PrecisionLossError,
    SearchLimitError,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sum_text(capsys):
    code, out, _ = run_cli(capsys, "sum", "--dk", "-8", "-f", "1", "--h", "1,0", "--k", "0,1")
    assert code == 0
    assert "coset count: 18" in out
    assert "Dtilde" in out


def test_sum_json_roundtrip_and_determinism(capsys):
    args = ("sum", "--dk", "-8", "--h", "1,0", "--k", "0,1", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    doc = json.loads(out1)
    assert set(doc) == {"config", "records", "summary"}
    rec = doc["records"][0]
    assert rec["coset_count"] == 18
    assert abs(rec["d_norm"] - 8 / 9) < 1e-8
    # 17 significant digits survive the round trip
    assert json.loads(json.dumps(doc)) == doc


def test_sum_prints_an_exactly_zero_part_as_zero(capsys):
    # d_sum's real part is -0.0 on this (-8, 3) pair: sum prints 0 in every format.
    ctx = SumContext(QuadOrder(-8, 3))
    value = d_sum(ctx.order.element(-16, -98), ctx.order.element(-79, -66), ctx)
    assert value.real == 0 and math.copysign(1, value.real) < 0
    argv = ("sum", "--dk", "-8", "-f", "3", "--h=-16,-98", "--k=-79,-66", "--format")
    code, out, _ = run_cli(capsys, *argv, "json")
    assert code == 0 and '"d_sum":{"re":0,"im":-22.020407929387517}' in out
    code, out, _ = run_cli(capsys, *argv, "csv")
    assert code == 0 and out.splitlines()[1].startswith('"-16,-98","-79,-66",0.0,-22.020407929387517,')
    code, out, _ = run_cli(capsys, *argv, "text")
    assert code == 0 and "D_L(h,k)  = +0.000000000000e+00 -2.202040792939e+01i\n" in out


def test_sum_zero_modulus(capsys):
    code, _, err = run_cli(capsys, "sum", "--dk", "-8", "--h", "1,0", "--k", "0,0")
    assert code == 2
    assert "zero modulus" in err


def test_sum_huge_h_equals_its_residue(capsys):
    # h = (3 + theta) + (7 + 2*theta)*(10**17 + 10**17*theta), so h = 3 + theta (mod k).
    records = []
    for h in ("-2899999999999999997,-699999999999999999", "3,1"):
        code, out, _ = run_cli(capsys, "sum", "--dk", "-8", f"--h={h}", "--k", "7,2", "--format", "json")
        assert code == 0
        records.append(json.loads(out)["records"][0])
    assert records[0]["d_sum"] == records[1]["d_sum"]
    assert records[0]["d_norm"] == records[1]["d_norm"]
    assert abs(records[1]["d_norm"] + 4 / 9) < 1e-12


def test_sum_norm_above_int64_bound_usage_error(capsys):
    # On d = -20, (11 + theta, 46346) = (1 + sqrt(-5), 2) is not principal.  Its N(k) is at or
    # above 2**31, where the E1 table refuses, and no usage error is left: the walk serves
    # it, stopping at the cusp (1 + theta)/2, and h + k gives the same bytes.
    outs = []
    for h in ("11,1", "46357,1"):
        code, out, _ = run_cli(capsys, "sum", "--dk", "-20", "--h", h, "--k", "46346,0", "--format", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1].replace("46357", "11")
    rec = json.loads(outs[0])["records"][0]
    assert rec["coset_count"] == 2147951716
    ctx = SumContext(QuadOrder(-20))
    assert rec["d_norm"] == d_norm(ctx.order.element(11, 1), ctx.order.element(46346), ctx)


@pytest.mark.parametrize(
    "argv, walked, d_norm",
    [
        ("--dk -8 --h 6,2 --k 46342,0", "--dk -8 --h 3,1 --k 23171,0", "-7723.3333045617364"),
        ("--dk -8 -f 3 --h 3,0 --k 46341,0", "--dk -8 -f 3 --h 1,0 --k 15447,0", "0"),
    ],
    ids=["d-8-gcd-2", "d-72-gcd-3"],
)
def test_sum_walks_a_principal_gcd_above_the_table_bound(capsys, argv, walked, d_norm):
    # D_L(g*h, g*k) = D_L(h, k), and the walk of (g*h, g*k) takes the steps of (h, k):
    # N(k) >= 2**31 here, where the E1 table refuses.
    outs = []
    for args in (argv, walked):
        code, out, _ = run_cli(capsys, "sum", *args.split(), "--format", "json")
        assert code == 0
        outs.append(out)
    assert f'"d_norm":{d_norm},' in outs[0]
    records = [json.loads(out)["records"][0] for out in outs]
    assert records[0]["coset_count"] >= 2**31
    assert records[0]["d_sum"] == records[1]["d_sum"] and records[0]["d_norm"] == records[1]["d_norm"]


def test_sum_zero_h_needs_no_table(capsys):
    # D_L(0, k) = 0 exactly, at any N(k): here above 2**31, where a table is refused.
    code, out, _ = run_cli(capsys, "sum", "--dk", "-8", "--h", "0,0", "--k", "46341,0", "--format", "json")
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert rec["d_sum"] == {"re": 0, "im": 0} and rec["d_norm"] == 0 and rec["coset_count"] == 2147488281
    code, out, _ = run_cli(capsys, "sum", "--dk", "-8", "--h", "0,0", "--k", "3,1", "--format", "json")
    assert code == 0 and '"d_sum":{"re":0,"im":0}' in out
    # So does a k beyond the double range: no float of k is taken.
    code, out, _ = run_cli(capsys, "sum", "--dk", "-8", "--h", "0,0", "--k", f"{10**400},0", "--format", "json")
    assert code == 0
    assert '"d_sum":{"re":0,"im":0},"d_norm":0,' in out


@pytest.mark.parametrize("argv", ["--dk -20 --h 0,0 --k 7,2", "--dk -8 -f 3 --h 0,0 --k 5,1"])
def test_sum_zero_h_prints_an_unsigned_zero(capsys, argv):
    # D_L(0, k) is an exact 0, so neither part nor its normalization is a -0.
    code, out, _ = run_cli(capsys, "sum", *argv.split(), "--format", "json")
    assert code == 0
    assert '"d_sum":{"re":0,"im":0},"d_norm":0,' in out


def test_sum_refuses_an_exact_r_beyond_the_double_range(capsys):
    # The walk of (1, 10**400*theta) finishes; its exact R does not fit a double.  Exit 2, not a traceback.
    code, out, err = run_cli(capsys, "sum", "--dk", "-8", "--h", "1,0", "--k", f"0,{10**400}", "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "double range" in err


def test_sum_conj_stable_conductor_example(capsys):
    # k = 1560 + 130*theta = 390*sqrt(-2) = p*e*sqrt(d) with p = 13, e = 5, d = -72
    # on the conductor-3 order, so Dtilde = 2e/p + 4/(p*e*d) = 899/1170.
    code, out, _ = run_cli(
        capsys, "sum", "--dk", "-8", "-f", "3", "--h", "1081,0", "--k", "1560,130", "--format", "json"
    )
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert rec["coset_count"] == 304200
    assert abs(rec["d_norm"] - 899 / 1170) <= 1e-13 * (899 / 1170)


def test_sum_euclid_path_above_the_table_bound(capsys):
    # Z[sqrt(-2)] is norm-Euclidean: the density witnesses A3 of 1/3, with
    # N(c3) from 4.6e13 up, are summed exactly by the walk, with Euclidean steps only.
    order = QuadOrder(-8)
    for step in approximate(Target(1, 3, order), 3):
        h, k = step.A3.a, step.A3.c
        assert k.norm() > 2**31
        code, out, _ = run_cli(
            capsys, "sum", "--dk", "-8", f"--h={h.u},{h.v}", f"--k={k.u},{k.v}", "--format", "json"
        )
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["coset_count"] == k.norm()
        expected = float(step.dtilde_exact)
        assert abs(rec["d_norm"] - expected) <= 4e-16 * abs(expected)


def test_sum_excluded_ring_exit_code(capsys):
    code, _, err = run_cli(capsys, "sum", "--dk", "-4", "--h", "1,0", "--k", "2,0")
    assert code == 2
    assert "normalized sums are undefined" in err


def test_sum_custom_basis(capsys):
    code, out, _ = run_cli(
        capsys,
        "sum",
        "--dk",
        "-8",
        "--h",
        "1,0",
        "--k",
        "0,1",
        "--omega1",
        "1",
        "--omega2",
        "1.4142135623730951j",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["records"][0]["d_norm"] - 8 / 9) < 1e-8


@pytest.mark.parametrize(
    "h, k, pinned",
    [
        # 291 constants beside the singular cusp, each table through _theta_matrix's float branch.
        (
            "3196,291",
            "600,2",
            '"d_sum":{"re":-1.1653639437600268e-17,"im":4.2146291182771112},"d_norm":6.854090076350154,',
        ),
        # A cusp stop.
        ("11,1", "10,0", '"d_norm":-2.7708203932499367,'),
    ],
    ids=["crawl", "cusp"],
)
def test_sum_walk_bytes_on_a_float_basis(capsys, h, k, pinned):
    # The ideal lattice (2, 1 + sqrt(-5)) of d = -20, given as a float basis.
    basis = ["--omega1", "2", "--omega2", "1+2.23606797749979j"]
    code, out, _ = run_cli(capsys, "sum", "--dk", "-20", *basis, "--h", h, "--k", k, "--format", "json")
    assert code == 0
    assert pinned in out


def test_sum_refuses_a_lattice_whose_j_is_not_real(capsys):
    # Form (2, 1, 3) on d = -23: Dtilde would be -0.4295 - 0.1540i.
    code, out, err = run_cli(
        capsys,
        "sum",
        "--dk",
        "-23",
        "--omega1",
        "2",
        "--omega2=-0.5+2.3979157616563596j",
        "--h",
        "1,1",
        "--k",
        "3,1",
        "--format",
        "json",
    )
    assert code == 2
    assert out == ""
    assert "j(L)" in err and "not real" in err


@pytest.mark.parametrize("dk", [-60007, -100003])
def test_sum_serves_large_discriminants(capsys, dk):
    # j overflows a double once Im tau > ~113, yet it is real on the order's own lattice: the
    # reality test reads the reduced tau, so these exit 0, with d_norm within 1 ulp of the exact value.
    code, out, _ = run_cli(capsys, "sum", "--dk", str(dk), "--h", "1,0", "--k", "3,1", "--format", "json")
    assert code == 0
    order = QuadOrder(dk)
    exact = float(d_norm_exact(order.one(), order.element(3, 1), SumContext(order)))
    assert abs(json.loads(out)["records"][0]["d_norm"] - exact) <= math.ulp(exact)


def test_sum_refuses_a_basis_too_large_to_solve(capsys):
    code, out, err = run_cli(
        capsys, "sum", "--dk", "-8", "--h", "1,0", "--k", "0,1", "--omega1", "1", "--omega2", "1e308j"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


def test_sum_refuses_a_basis_too_small_for_doubles(capsys):
    code, out, err = run_cli(
        capsys, "sum", "--dk", "-8", "--h", "1,0", "--k", "0,1", "--omega1", "1", "--omega2", "1e-320j"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize(
    "exc, code, prefix",
    [
        (InadmissibleTargetError, 2, "error: "),
        (ExcludedRingError, 2, "error: "),
        (NotAMultiplierError, 2, "error: "),
        (ValueError, 2, "error: "),
        (DedekindError, 2, "error: "),
        (PrecisionLossError, 3, "internal error: "),
        (ConstructionError, 3, "internal error: "),
        (SearchLimitError, 3, "internal error: "),
    ],
)
def test_each_error_class_maps_to_one_exit_code(capsys, monkeypatch, exc, code, prefix):
    def failing(*args, **kwargs):
        raise exc("boom")

    monkeypatch.setattr(cli, "run_suite", failing)
    assert run_cli(capsys, "verify", "--suite", "phi") == (code, "", f"{prefix}boom\n")


def test_verify_phi_gaussian(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "phi", "--dk", "-4")
    assert code == 0
    assert "FAIL" not in out


def test_verify_all_on_a_non_euclidean_order(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--dk", "-20")
    assert code == 0
    assert "FAIL" not in out


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_verify_cosets_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "cosets", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["passed"] is True


def test_verify_cosets_checks_the_given_order(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "cosets", "--dk", "-20", "--format", "json")
    assert code == 0
    names = [rec["name"] for rec in json.loads(out)["records"]]
    assert len(names) == 3 and all(name.endswith("-d-20f1") for name in names)


def test_approximate_worked_example(capsys):
    code, out, _ = run_cli(
        capsys, "approximate", "--a", "1", "--b", "3", "--dk", "-8", "--steps", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    rows = doc["records"]
    assert rows[0]["p"] == 2689
    assert abs(rows[0]["abs_err"] - 2.48e-4) < 1e-6
    for row in rows:
        assert row["abs_err"] <= row["bound"]
    assert doc["summary"]["two_x"] == pytest.approx(2 / 3)


def test_approximate_rejects_bad_denominator(capsys):
    code, _, err = run_cli(capsys, "approximate", "--a", "1", "--b", "4", "--dk", "-8")
    assert code == 2
    assert "gcd" in err


def test_approximate_csv_columns(capsys):
    code, out, _ = run_cli(
        capsys, "approximate", "--a", "1", "--b", "3", "--dk", "-8", "--steps", "2", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "p", "e", "dtilde", "abs_err", "bound", "wall_time_s"]
    assert rows[1][1] == "2689"
    assert len(rows) == 3


def test_approximate_csv_times_every_step(capsys):
    code, out, _ = run_cli(
        capsys, "approximate", "--a", "1", "--b", "3", "--dk", "-8", "--steps", "3", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(row["index"]) for row in rows] == [0, 1, 2]
    assert all(float(row["wall_time_s"]) >= 0.0 for row in rows)


def test_approximate_json_determinism(capsys):
    args = ("approximate", "--a", "2", "--b", "5", "--dk", "-8", "--steps", "2", "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_approximate_json_bytes_at_large_primes(capsys):
    # p reaches 4.1e16, where Baillie-PSW decides each candidate; the bytes are
    # those the A014233 witness tiers gave.
    code, out, _ = run_cli(
        capsys, "approximate", "--a", "4999", "--b", "10007", "--dk", "-7", "--steps", "40", "--format", "json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1a1cef8df148d83deee8ab2ffdc56456be6d841f3a7de1c24ff78039bb0ec3ed"
    )


def assert_usage_error(*argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2



@pytest.mark.parametrize("steps", ["-1", "-5", "two"])
def test_approximate_bad_steps_usage_error(steps):
    assert_usage_error("approximate", "--a", "1", "--b", "3", "--steps", steps)


def test_approximate_zero_steps(capsys):
    code, out, _ = run_cli(capsys, "approximate", "--a", "1", "--b", "3", "--steps", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["records"] == [] and doc["summary"]["steps"] == 0


# Each subcommand accepts only the flags it reads; the ones below were removed.


@pytest.mark.parametrize("flag", ["--threads", "--zeta-radius", "--q-terms", "--tol", "--seed", "--max-prime"])
def test_sum_removed_flags_usage_error(flag):
    assert_usage_error("sum", "--dk", "-8", "--h", "3,1", "--k", "7,2", flag, "4")


@pytest.mark.parametrize("flag", ["--omega1", "--omega2", "--q-terms", "--tol", "--max-prime"])
def test_verify_removed_flags_usage_error(flag):
    assert_usage_error("verify", "--suite", "lemma", flag, "4")


@pytest.mark.parametrize("flag", ["--omega1", "--omega2", "--q-terms", "--tol", "--seed", "--max-prime"])
def test_approximate_removed_flags_usage_error(flag):
    assert_usage_error("approximate", "--a", "1", "--b", "3", flag, "4")


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["sum", "--h", "1,0", "--k", "0,1"], ["command", "d_k", "conductor", "format"]),
        (
            ["sum", "--h", "1,0", "--k", "0,1", "--omega1", "1", "--omega2", "1.4142135623730951j"],
            ["command", "d_k", "conductor", "format", "omega1", "omega2"],
        ),
        (["verify", "--suite", "cosets"], ["command", "d_k", "conductor", "seed", "format"]),
        (["approximate", "--a", "1", "--b", "3", "--steps", "1"], ["command", "d_k", "conductor", "format"]),
    ],
)
def test_config_has_exactly_the_command_keys(capsys, argv, keys):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert list(json.loads(out)["config"]) == keys


def test_sum_scaled_basis_is_not_an_excluded_ring(capsys):
    # 1e7 times the basis (1, sqrt(-2)): E2(0) is ~1e-14, but the ring is Z[sqrt(-2)].
    code, out, err = run_cli(
        capsys,
        "sum",
        "--dk",
        "-8",
        "--h",
        "1,0",
        "--k",
        "0,1",
        "--omega1",
        "10000000",
        "--omega2",
        "14142135.623730951j",
        "--format",
        "json",
    )
    assert code == 0, err
    assert abs(json.loads(out)["records"][0]["d_norm"] - 8 / 9) < 1e-8
    for dk in ("-4", "-3"):
        code, _, err = run_cli(capsys, "sum", "--dk", dk, "--h", "1,0", "--k", "2,0")
        assert code == 2
        assert "normalized sums are undefined" in err


def test_verify_json_determinism(capsys):
    args = ("verify", "--suite", "cosets", "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# --- JSON bytes and the process-wide parser -----------------------------------


def test_to_json_golden_bytes():
    record = {
        "ints": [-7, 0, 2**70],
        "flags": [True, False],
        "none": None,
        "floats": [0.1, -0.0, 2.0, 1e-300],
        "z": complex(-1.5, 0.25),
        "nested": [(1, [2.5, ("a", None)]), [], ()],
        "text": 'say "hi" \\ then \u00e9',
        'key "q" \\': -3,
    }
    assert cli._to_json(record) == (
        '{"ints":[-7,0,1180591620717411303424],"flags":[true,false],"none":null,'
        '"floats":[0.10000000000000001,-0,2,1e-300],"z":{"re":-1.5,"im":0.25},'
        '"nested":[[1,[2.5,["a",null]]],[],[]],"text":"say \\"hi\\" \\\\ then \u00e9",'
        '"key \\"q\\" \\\\":-3}'
    )


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), -float("inf"), complex(1.0, float("nan")), [float("inf")]]
)
def test_to_json_rejects_non_finite(value):
    with pytest.raises(ValueError):
        cli._to_json({"x": value})


LATER_CALLS = [
    ["sum", "--dk", "-8", "--h", "1,0", "--k", "0,1", "--format", "json"],
    ["verify", "--suite", "cosets", "--format", "json"],
    ["approximate", "--a", "1", "--b", "3", "--steps", "2", "--format", "json"],
]


def test_usage_error_leaves_later_calls_unchanged(capsys):
    assert_usage_error("verify", "--suite", "nonsense")
    capsys.readouterr()
    after_error = [run_cli(capsys, *argv)[:2] for argv in LATER_CALLS]
    src = str(Path(elliptic_dedekind.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv, (code, out) in zip(LATER_CALLS, after_error):
        alone = subprocess.run(
            [sys.executable, "-m", "elliptic_dedekind", *argv], capture_output=True, text=True, env=env, check=False
        )
        assert (code, out) == (alone.returncode, alone.stdout)


def test_cli_leaves_numpy_random_unimported():
    # numpy.random adds about 5.5 MB of peak RSS; verify draws its inputs with the random module.
    code = (
        "import contextlib, io, sys\n"
        "from elliptic_dedekind import cli\n"
        "assert 'numpy.random' not in sys.modules, 'after the import'\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert cli.main(['verify', '--suite', 'all']) == 0\n"
        "assert 'numpy.random' not in sys.modules, 'after verify'\n"
    )
    src = str(Path(elliptic_dedekind.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=False)
    assert done.returncode == 0, done.stderr


def test_parser_is_built_once_across_calls(capsys, monkeypatch):
    run_cli(capsys, *LATER_CALLS[0])
    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counting(self, **kwargs):
        built.append(self.prog)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    for argv in LATER_CALLS:
        assert run_cli(capsys, *argv)[0] == 0
    assert_usage_error("verify", "--suite", "nonsense")
    assert built == []


# --- One parse per call ---------------------------------------------------------

TOP_USAGE = "usage: elliptic-dedekind [-h] {sum,verify,approximate} ...\n"
SUM_USAGE = (
    "usage: elliptic-dedekind sum [-h] [--dk DK] [-f CONDUCTOR]\n"
    "                             [--format {text,json,csv}] [--omega1 OMEGA1]\n"
    "                             [--omega2 OMEGA2] --h U,V --k U,V\n"
)

# (argv, exit code, stdout, stderr) at 80 columns, as the two-level parse of
# the top-level parser wrote them.
USAGE_GOLDEN = [
    (
        ["--help"],
        0,
        TOP_USAGE + "\n"
        "Elliptic Dedekind sums over imaginary quadratic orders\n"
        "\n"
        "positional arguments:\n"
        "  {sum,verify,approximate}\n"
        "    sum                 compute D_L and the normalized sum for one (h, k) pair\n"
        "    verify              run an invariant suite\n"
        "    approximate         approximate 2a/b by normalized sums\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n",
        "",
    ),
    ([], 2, "", TOP_USAGE + "elliptic-dedekind: error: the following arguments are required: command\n"),
    (
        ["bogus"],
        2,
        "",
        TOP_USAGE + "elliptic-dedekind: error: argument command: invalid choice: 'bogus' "
        "(choose from 'sum', 'verify', 'approximate')\n",
    ),
    (
        ["sum", "-h"],
        0,
        SUM_USAGE + "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --dk DK               fundamental discriminant d_K < 0 (default -8)\n"
        "  -f CONDUCTOR, --conductor CONDUCTOR\n"
        "                        conductor f >= 1 (default 1)\n"
        "  --format {text,json,csv}\n"
        "                        output format\n"
        "  --omega1 OMEGA1       custom basis vector omega1\n"
        "  --omega2 OMEGA2       custom basis vector omega2\n"
        "  --h U,V               h in theta-coordinates\n"
        "  --k U,V               k in theta-coordinates\n",
        "",
    ),
    (
        ["sum", "--h", "1,0"],
        2,
        "",
        SUM_USAGE + "elliptic-dedekind sum: error: the following arguments are required: --k\n",
    ),
    (
        ["verify", "--suite", "nonsense"],
        2,
        "",
        "usage: elliptic-dedekind verify [-h] [--dk DK] [-f CONDUCTOR]\n"
        "                                [--format {text,json,csv}] --suite\n"
        "                                {phi,lemma,e1,cosets,all} [--seed SEED]\n"
        "elliptic-dedekind verify: error: argument --suite: invalid choice: 'nonsense' "
        "(choose from 'phi', 'lemma', 'e1', 'cosets', 'all')\n",
    ),
    (
        ["approximate", "--a", "1", "--b", "3", "--steps", "-1"],
        2,
        "",
        "usage: elliptic-dedekind approximate [-h] [--dk DK] [-f CONDUCTOR]\n"
        "                                     [--format {text,json,csv}] --a A --b B\n"
        "                                     [--steps STEPS]\n"
        "elliptic-dedekind approximate: error: argument --steps: steps must be >= 0, got -1\n",
    ),
    (
        ["sum", "--omega1", "1", "--h", "1,0", "--k", "0,1"],
        2,
        "",
        "error: --omega1 and --omega2 must be given together\n",
    ),
]


def run_main(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), the code of a SystemExit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, code, out, err", USAGE_GOLDEN)
def test_usage_golden(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_main(capsys, argv) == (code, out, err)


@pytest.mark.parametrize(
    "argv",
    [argv for argv, *_ in USAGE_GOLDEN]
    + LATER_CALLS
    + [
        ["sum", "--h", "1,0", "--k", "0,1", "--bogus"],
        ["sum", "--h", "1,0", "--k", "0,1", "extra", "words"],
        ["sum", "--h", "1,0", "--k", "0,1", "--dk", "-8", "--dk", "-7"],
        ["sum", "--h=1,0", "--k=0,1", "--form", "json"],
        ["sum", "--", "--h", "1,0"],
        ["--", "sum", "--h", "1,0", "--k", "0,1"],
        ["-x", "sum"],
        ["su"],
        ["verify"],
    ],
)
def test_subcommand_dispatch_parses_as_the_top_level_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    parser, _ = cli.build_parser()

    def outcome(parse):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
        return result, capsys.readouterr()

    assert outcome(cli._parse_args) == outcome(parser.parse_args)


def test_each_call_parses_its_arguments_once(capsys, monkeypatch):
    run_cli(capsys, *LATER_CALLS[0])
    parsed = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    for argv in LATER_CALLS:
        parsed.clear()
        assert run_cli(capsys, *argv)[0] == 0
        assert parsed == [f"elliptic-dedekind {argv[0]}"]


# --- The one-pass JSON encoder --------------------------------------------------


def recursive_to_json(obj) -> str:
    """The recursive encoder _to_json replaced, the reference for its bytes."""
    json_str = json.JSONEncoder(ensure_ascii=False).encode
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return cli._fmt_float(obj)
    if isinstance(obj, complex):
        return recursive_to_json({"re": obj.real, "im": obj.imag})
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(recursive_to_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json_str(str(key))}:{recursive_to_json(val)}" for key, val in obj.items())
        return "{" + ",".join(items) + "}"
    return json_str(obj)


class Pair(tuple):
    pass


class Record(dict):
    pass


class Complex(complex):
    pass


class Text(str):
    pass


JSON_CORPUS = [
    {"f64": np.float64(0.1), "arr": [np.float64(-2.5), np.float64(5e-324)], "c": complex(np.float64(1.5), -0.0)},
    [True, [False, True], None, 1, (True,)],
    (1, (2, (3,)), [], (), {}, [[]]),
    {"big": 2**70, "neg": -(2**70), "zero": -0.0, "sub": 5e-324, "tiny": 2.2250738585072014e-308 / 3},
    {'q"uo\\te': 1, "é ü 雪 \u2028": "\x00\n\t\"", 3: "int key", 0.5: "float key", True: "bool key"},
    Record(a=Pair((1, 2.0)), b=[Record()]),
    {"z": [0j, complex(-1e300, 1e-300)], "s": "", "n": 0, "m": -0.0},
    1e16,
    "plain",
    # The exact complex and str are written in one step, their subclasses by the general branches.
    complex(2.5, -1e-300),
    [Complex(-0.0, 3.0), Complex()],
    {"s": "é \u2028 \x00", "sub": Text('t"x'), "empty": "", "empty_sub": Text("")},
    "",
]


@pytest.mark.parametrize("obj", JSON_CORPUS)
def test_to_json_matches_the_recursive_encoder(obj):
    assert cli._to_json(obj) == recursive_to_json(obj)


def test_to_json_matches_the_recursive_encoder_on_cli_output(capsys):
    for argv in LATER_CALLS:
        doc = json.loads(run_cli(capsys, *argv)[1])
        assert cli._to_json(doc) == recursive_to_json(doc)


@pytest.mark.parametrize(
    "obj, error",
    [
        (np.float64("nan"), ValueError),
        ({"x": [float("-inf")]}, ValueError),
        ({"x": {1, 2}}, TypeError),
        ([np.int64(3)], TypeError),
        ((b"bytes",), TypeError),
        (object(), TypeError),
        (complex(float("inf"), 1.0), ValueError),
        ([Complex(1.0, float("-inf"))], ValueError),
    ],
)
def test_to_json_raises_as_the_recursive_encoder(obj, error):
    for encode in (cli._to_json, recursive_to_json):
        with pytest.raises(error):
            encode(obj)


@pytest.mark.parametrize(
    "obj, part",
    [
        (complex(float("inf"), 1.0), "inf"),
        (complex(2.0, float("nan")), "nan"),
        (complex(float("nan"), float("-inf")), "nan"),
        ({"z": complex(0.5, -float("inf"))}, "-inf"),
        (Complex(-float("inf"), 0.0), "-inf"),
    ],
)
def test_to_json_names_the_part_of_a_complex_that_is_not_finite(obj, part):
    # Either part is checked, the real part first, as the {"re", "im"} dict of the recursive encoder does.
    for encode in (cli._to_json, recursive_to_json):
        with pytest.raises(ValueError, match=f"non-finite value {part} in JSON output"):
            encode(obj)
