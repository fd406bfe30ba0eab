import argparse
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dickekit as dk

from dickekit import cli, selftest
from dickekit.cli import main


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_witness_subcommand_json(capsys):
    status, out, _err = run_cli(capsys, "witness", "--n", "4", "--m", "2")
    assert status == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(1.0)
    assert doc["bound"] == pytest.approx(2 / 3)
    assert doc["detected"] == "genuine_multipartite"


def test_witness_with_noise(capsys):
    status, out, _err = run_cli(capsys, "witness", "--n", "4", "--p", "0.3")
    assert status == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.71875)


def test_dicke_subcommand(capsys):
    status, out, _err = run_cli(capsys, "dicke", "--n", "2", "--m", "1")
    assert status == 0
    doc = json.loads(out)
    amps = [complex(re, im) for re, im in doc["amplitudes"]]
    assert amps[1] == pytest.approx(2 ** -0.5)
    assert amps[0] == 0


def test_criterion_subcommand(capsys):
    status, out, _err = run_cli(capsys, "criterion", "--n", "4", "--criterion", "theorem2")
    assert status == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(6.0)
    assert doc["detected"] == "entangled"


def test_crit2_needs_m_signed(capsys):
    status, _out, err = run_cli(capsys, "criterion", "--n", "4", "--criterion", "crit2")
    assert status == 2
    assert "crit2" in err
    status, out, _err = run_cli(
        capsys, "criterion", "--n", "4", "--m", "1", "--criterion", "crit2", "--m-signed", "1"
    )
    assert status == 0
    assert json.loads(out)["value"] == pytest.approx(7.0)


def test_bound_subcommand(capsys):
    status, out, _err = run_cli(capsys, "bound", "--n", "4")
    assert status == 0
    assert json.loads(out)["bound"] == pytest.approx(5.0)
    status, out, _err = run_cli(capsys, "bound", "--n", "4", "--a", "1,1,1")
    assert json.loads(out)["bound"] == pytest.approx(6.0)


@pytest.mark.parametrize("command", [("bound", "--n", "4"), ("criterion", "--n", "4", "--criterion", "crit2")])
def test_a_shift_beyond_the_float_range_exits_2(capsys, command):
    status, out, err = run_cli(capsys, *command, "--m-signed", "9" * 400)
    assert status == 2 and out == "" and "must be a finite number" in err


def test_oracle_subcommands(capsys):
    status, out, _err = run_cli(capsys, "oracle", "eigmax", "--n", "4")
    assert status == 0
    assert json.loads(out)["value"] == pytest.approx(6.0)
    status, out, _err = run_cli(
        capsys, "oracle", "product-max", "--n", "3", "--restarts", "16", "--seed", "1"
    )
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(3.0, abs=1e-6)  # (N/2)(N/2+1/2) at N=3
    assert doc["restarts_used"] == 16 and doc["seed"] == 1  # the parsed flags
    status, out, _err = run_cli(
        capsys, "oracle", "bisep-max", "--n", "3", "--restarts", "16", "--seed", "0"
    )
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(2 + 5 ** 0.5 / 2, abs=1e-6)


def test_sweep_noise_csv_rows_and_detection_flip(capsys):
    status, out, _err = run_cli(
        capsys, "sweep-noise", "--n", "4", "--criterion", "theorem2", "--grid", "0:1:11"
    )
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,value,bound,margin,detected"
    assert len(lines) == 12
    detected = [line.split(",")[-1] for line in lines[1:]]
    assert detected[2] == "entangled"  # p = 0.2
    assert detected[3] == "none"  # p = 0.3
    row0 = lines[1].split(",")
    assert float(row0[1]) == pytest.approx(6.0)


def test_sweep_noise_fidelity_margin_at_zero(capsys):
    status, out, _err = run_cli(
        capsys, "sweep-noise", "--n", "4", "--criterion", "fidelity", "--grid", "0:1:5",
        "--format", "csv",
    )
    assert status == 0
    first = out.strip().splitlines()[1].split(",")
    assert float(first[3]) == pytest.approx(1 / 3)


def test_sweep_csv_round_trips_bit_for_bit(capsys):
    args = ("sweep-noise", "--n", "4", "--criterion", "theorem2", "--grid", "0:1:7")
    _status, out, _err = run_cli(capsys, *args)
    lines = out.strip().splitlines()
    rebuilt = [lines[0]]
    for line in lines[1:]:
        p, value, bound, _margin, detected = line.split(",")
        margin = float(value) - float(bound)
        rebuilt.append(",".join([p, value, bound, f"{margin:.17g}", detected]))
    assert "\n".join(rebuilt) == out.strip()
    # and rerunning reproduces the identical document
    _status, again, _err = run_cli(capsys, *args)
    assert again == out


def test_sweep_noise_psixy(capsys):
    status, out, _err = run_cli(
        capsys, "sweep-noise", "--n", "4", "--criterion", "theorem2", "--noise", "psixy",
        "--grid", "0:0.999:5",
    )
    assert status == 0
    detected = [line.split(",")[-1] for line in out.strip().splitlines()[1:]]
    assert all(d == "entangled" for d in detected)


def test_intensity_subcommand(capsys):
    status, out, _err = run_cli(capsys, "intensity", "--n", "4", "--m", "2")
    assert status == 0
    assert json.loads(out)["intensity"] == pytest.approx(6.0)
    status, out, _err = run_cli(capsys, "intensity", "--n", "1000", "--i0", "2.0")
    assert status == 0
    assert json.loads(out)["intensity"] == pytest.approx(2 * 500 * 501)
    status, out, _err = run_cli(capsys, "intensity", "--n", "4", "--m", "4", "--p", "0.5")
    assert status == 0
    # white noise interpolates toward the maximally mixed intensity N/2
    assert json.loads(out)["intensity"] == pytest.approx(0.5 * 4.0 + 0.5 * 2.0)
    # noisy intensities stay on the O(N) backend far beyond the dense limit
    status, out, _err = run_cli(capsys, "intensity", "--n", "10000", "--p", "0.1")
    assert status == 0
    assert json.loads(out)["intensity"] == pytest.approx(0.9 * 5000 * 5001 + 0.1 * 5000)


def test_verify_appendix_subcommand(capsys):
    status, out, _err = run_cli(capsys, "verify-appendix", "--n", "20")
    assert status == 0
    doc = json.loads(out)
    assert doc["argmax"] == [2, 1]
    assert doc["ok"] is True


def test_domain_errors_exit_2(capsys):
    status, _out, err = run_cli(capsys, "dicke", "--n", "4", "--m", "9")
    assert status == 2 and "error" in err
    status, _out, err = run_cli(
        capsys, "sweep-noise", "--n", "3", "--criterion", "theorem2", "--noise", "psixy",
        "--grid", "0:1:3",
    )
    assert status == 2
    status, _out, err = run_cli(
        capsys, "sweep-noise", "--n", "4", "--criterion", "theorem2", "--grid", "1:0:5"
    )
    assert status == 2
    status, _out, err = run_cli(
        capsys, "sweep-noise", "--n", "4", "--criterion", "theorem2", "--grid", "0:1:1"
    )
    assert status == 2


def test_psixy_noise_needs_half_excitation(capsys):
    status, out, err = run_cli(capsys, "witness", "--n", "4", "--m", "1", "--noise", "psixy",
                               "--p", "0.5")
    assert status == 2 and out == "" and "--m" in err
    status, out, _err = run_cli(capsys, "witness", "--n", "4", "--m", "2", "--noise", "psixy",
                                "--p", "0.5")
    assert status == 0
    assert json.loads(out)["value"] == pytest.approx(0.5 + 0.5 * 6 / 16)  # |<2,4|psixy>|^2 = 6/16


def test_bound_past_the_float_count_exits_2(capsys):
    status, out, err = run_cli(capsys, "bound", "--n", "9" * 400)
    assert status == 2 and out == "" and "n must be an integer in [1, 9007199254740992]" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    *(("oracle", mode, "--n", "2", "--a", "1e308,1e308,1e308") for mode in ("eigmax", "product-max", "bisep-max")),
    ("bound", "--n", "10", "--a", "1e308,0,0", "--b", "1,0,0"),
    ("bound", "--n", "10", "--a", "1e308,0,0"),
])
def test_a_form_beyond_the_float_range_exits_2(capsys, argv):
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and out == "" and "leaves the float range" in err


@pytest.mark.filterwarnings("error")  # refused before any arithmetic can warn
def test_non_finite_numbers_exit_2_without_a_document(capsys):
    status, out, err = run_cli(capsys, "bound", "--n", "4", "--a", "nan,1,0")
    assert status == 2 and out == "" and "error" in err
    # a NaN phase is refused when the state is built, in JSON and in CSV alike
    for fmt in ("json", "csv"):
        status, out, err = run_cli(capsys, "witness", "--n", "4", "--phi", "nan",
                                   "--noise", "psixy", "--p", "0.5", "--format", fmt)
        assert status == 2 and out == "" and "psixy phase must be a finite number" in err
    # an infinite rate is refused by the library, not only by the document writer
    status, out, err = run_cli(capsys, "intensity", "--n", "4", "--i0", "inf")
    assert status == 2 and out == "" and "i0 must be a finite number > 0" in err
    # a finite rate whose intensity overflows is refused by the library
    status, out, err = run_cli(capsys, "intensity", "--n", "10000", "--i0", "1e308")
    assert status == 2 and out == "" and "leaves the float range of the intensity" in err


def test_unknown_flags_exit_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["witness", "--qubits", "4"])
    assert excinfo.value.code == 2


def test_tolerance_override(capsys):
    # an absurdly large detection tolerance suppresses detection
    status, out, _err = run_cli(
        capsys, "witness", "--n", "4", "--tolerance", "detection_tolerance=10"
    )
    assert status == 0
    assert json.loads(out)["detected"] == "none"
    # the fixed tolerances are no names
    for name in ("bogus", "psd_atol", "norm_atol", "symmetry_atol", "convergence_tol"):
        status, out, err = run_cli(capsys, "criterion", "--n", "4", "--criterion", "theorem2",
                                   "--tolerance", f"{name}=1e-3")
        assert status == 2 and out == "" and "unknown tolerance" in err


@pytest.mark.parametrize("override", [
    "detection_tolerance=nan", "detection_tolerance=inf", "detection_tolerance=-1",
])
def test_bad_tolerance_values_exit_2_before_any_work(capsys, monkeypatch, override):
    def refuse(_config):
        raise AssertionError("a bad tolerance reached the command")

    monkeypatch.setattr(cli, "run", refuse)
    status, out, err = run_cli(capsys, "criterion", "--n", "3", "--criterion", "theorem2",
                               "--tolerance", override)
    assert status == 2 and out == "" and "must be a finite number >= 0" in err


# for every name --tolerance accepts: a command and a value of it that changes
# the command's document or exit status
_TOLERANCE_PROBES = {
    "detection_tolerance": (("witness", "--n", "4"), "10"),
}


def test_every_tolerance_name_changes_some_command(capsys):
    assert set(_TOLERANCE_PROBES) == {f.name for f in fields(dk.Tolerances)}
    for name, (argv, value) in _TOLERANCE_PROBES.items():
        default = run_cli(capsys, *argv)[:2]
        changed = run_cli(capsys, *argv, "--tolerance", f"{name}={value}")[:2]
        assert changed != default, name


@pytest.mark.parametrize("argv", [
    (command, *args, flag, value)
    for command, *args in (("dicke", "--n", "2"), ("bound", "--n", "4"), ("intensity", "--n", "4"),
                           ("verify-appendix", "--n", "4"), ("selftest", "--only", "7"))
    for flag, value in (("--seed", "4"), ("--tolerance", "detection_tolerance=3"))
] + [
    ("oracle", mode, "--n", "3", "--tolerance", "detection_tolerance=3")
    for mode in ("product-max", "bisep-max", "eigmax")
] + [
    (command, "--n", "4", *args, "--seed", "4")
    for command, *args in (("witness",), ("criterion", "--criterion", "theorem2"),
                           ("sweep-noise", "--criterion", "theorem2"))
] + [("witness", "--n", "4", "--state", "dicke"), ("bound", "--n", "4", "--b", "1,2,3", "--m-signed", "1")])
def test_flags_a_command_does_not_read_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, message", [
    (("criterion", "--n", "4", "--criterion", "theorem2", "--m-signed", "5"),
     "criterion reads --m-signed only with --criterion crit2"),
    (("sweep-noise", "--n", "4", "--criterion", "fidelity", "--m-signed", "3"),
     "sweep-noise reads --m-signed only with --criterion crit2"),
    (("witness", "--n", "4", "--phi", "0.3"), "witness reads --phi only with --noise psixy"),
    (("criterion", "--n", "4", "--criterion", "theorem2", "--noise", "white", "--phi", "1"),
     "criterion reads --phi only with --noise psixy"),
    (("sweep-noise", "--n", "4", "--criterion", "theorem2", "--phi", "0"),
     "sweep-noise reads --phi only with --noise psixy"),
    # a noise family the kind does not take, once noise is mixed in
    (("criterion", "--n", "4", "--criterion", "symmetric_jz", "--p", "1e-12"),
     "symmetric_jz takes psixy noise only, got 'white'"),
    (("sweep-noise", "--n", "4", "--criterion", "symmetric_jz"), "symmetric_jz takes psixy noise only"),
    (("criterion", "--n", "3", "--criterion", "genuine3", "--noise", "psixy", "--p", "0.3"),
     "genuine3 takes white noise only, got 'psixy'"),
    # crit2 reads its shift from --m-signed, which has no default
    (("criterion", "--n", "4", "--criterion", "crit2"), "criterion --criterion crit2 needs --m-signed"),
    (("sweep-noise", "--n", "4", "--criterion", "crit2", "--grid", "0:0.5:3"),
     "sweep-noise --criterion crit2 needs --m-signed"),
])
def test_flags_a_command_does_not_read_for_the_given_values_exit_2_before_any_work(
        capsys, monkeypatch, argv, message):
    def refuse(_config):
        raise AssertionError("a refused combination reached the command")

    monkeypatch.setattr(cli, "run", refuse)
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and out == "" and message in err


@pytest.mark.parametrize("argv", [
    ("criterion", "--n", "4", "--criterion", "symmetric_jz"),  # no noise mixed in
    ("sweep-noise", "--n", "4", "--criterion", "symmetric_jz", "--grid", "0:0:2"),
    ("sweep-noise", "--n", "4", "--criterion", "symmetric_jz", "--noise", "psixy", "--phi", "0.2"),
    ("criterion", "--n", "3", "--criterion", "genuine3", "--p", "0.3"),
    ("criterion", "--n", "4", "--criterion", "crit2", "--m-signed", "0", "--noise", "psixy", "--phi", "0"),
    ("bound", "--n", "4", "--b", "0,0,-2"),
    ("witness", "--n", "4", "--m", "2", "--noise", "psixy"),
])
def test_flags_read_for_the_given_values_still_run(capsys, argv):
    status, out, err = run_cli(capsys, *argv)
    assert status == 0 and err == "" and out


@pytest.mark.parametrize("flags", [
    ("--n", "4"), ("--n", "4", "--p", "0.3", "--format", "csv"), ("--n", "6", "--m", "1", "--p", "0.2"),
    ("--n", "4", "--p", "0.3", "--noise", "psixy", "--phi", "0.4"),
    ("--n", "4", "--tolerance", "detection_tolerance=10"),
])
def test_criterion_fidelity_prints_the_witness_document(capsys, flags):
    witness = run_cli(capsys, "witness", *flags)
    assert witness[0] == 0
    assert run_cli(capsys, "criterion", "--criterion", "fidelity", *flags) == witness


# single-row documents, all written by one writer: (test id, argv)
_SINGLE_ROW_RUNS = [
    (mode, ("oracle", mode, "--n", "4", *restarts, "--a", "1,0.5,0.2", "--b", "0,0,0.3"))
    for mode, restarts in (("eigmax", ()), ("product-max", ("--restarts", "2")), ("bisep-max", ("--restarts", "2")))
] + [
    ("witness", ("witness", "--n", "4", "--p", "0.3")),
    ("criterion", ("criterion", "--n", "4", "--m", "1", "--criterion", "crit2", "--m-signed", "1")),
    ("intensity", ("intensity", "--n", "6", "--m", "2", "--i0", "2.5", "--p", "0.1")),
]


@pytest.mark.parametrize("argv", [pytest.param(argv, id=name) for name, argv in _SINGLE_ROW_RUNS])
def test_oracle_csv_rows_parse_to_the_header(capsys, argv):
    _status, out, _err = run_cli(capsys, *argv)
    doc = json.loads(out)
    status, out, _err = run_cli(capsys, *argv, "--format", "csv")
    assert status == 0
    header, *rows = list(csv.reader(out.splitlines()))
    assert header == list(doc) and len(rows) == 1 and len(rows[0]) == len(header)
    for key, cell in zip(header, rows[0]):
        if isinstance(doc[key], list):
            assert [float(x) for x in cell.split(",")] == doc[key]
        elif isinstance(doc[key], str):
            assert cell == doc[key]
        else:
            assert float(cell) == doc[key]


def test_json_numbers_use_17_significant_digits(capsys):
    _status, out, _err = run_cli(capsys, "witness", "--n", "4", "--m", "2")
    assert "0.66666666666666663" in out


def test_selftest_single_fast_criterion(capsys):
    status, out, _err = run_cli(capsys, "selftest", "--only", "7")
    assert status == 0
    assert "criterion 07  PASS" in out
    for k in ("0", "11"):  # refused by the suite's own range check
        status, _out, err = run_cli(capsys, "selftest", "--only", k)
        assert status == 2
        assert f"only must be an integer in [1, 10], got {k}" in err


def test_importing_the_cli_leaves_the_acceptance_suite_unloaded():
    # only the selftest command imports it; the child imports the dickekit this process imported
    path = [str(Path(dk.__file__).parents[1])] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, dickekit.cli; assert 'dickekit.selftest' not in sys.modules, 'selftest loaded'"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr


def test_selftest_reports_the_known_red_criterion(capsys, monkeypatch):
    # a red criterion makes selftest exit 3 and prints its FAIL detail
    def red_stub():
        return selftest.CheckResult(1, "stub", False, 0.0, ["ok  passing part", "FAIL stub sub-check"])

    monkeypatch.setattr(selftest, "ALL_CRITERIA", (red_stub,))
    status, out, _err = run_cli(capsys, "selftest")
    assert status == 3
    assert "criterion 01  FAIL" in out
    assert "FAIL stub sub-check" in out
    assert "0/1 criteria passed" in out


@pytest.mark.parametrize("argv, message", [
    (("oracle", "product-max", "--n", "3", "--restarts", str(cli.MAX_RESTARTS + 1)),
     f"--restarts must be an integer in [1, {cli.MAX_RESTARTS}]"),
    (("oracle", "bisep-max", "--n", "3", "--restarts", "0"),
     f"--restarts must be an integer in [1, {cli.MAX_RESTARTS}]"),
    (("sweep-noise", "--n", "4", "--criterion", "theorem2", "--grid", f"0:1:{cli.MAX_GRID_STEPS + 1}"),
     f"grid steps must be an integer in [2, {cli.MAX_GRID_STEPS}]"),
    (("oracle", "bisep-max", "--n", "9"), "n = 9 exceeds the biseparable-search limit of 8"),
])
def test_sizes_past_their_caps_exit_2_before_any_work(capsys, monkeypatch, argv, message):
    def refuse(_config):
        raise AssertionError("a capped size reached the command")

    monkeypatch.setattr(cli, "run", refuse)
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and out == ""
    assert message in err


def test_sizes_at_their_caps_parse():
    # parsing only: a capped size is never run
    parser = cli.build_parser()
    cfg = cli._validate(parser.parse_args(
        ["oracle", "product-max", "--n", "3", "--restarts", str(cli.MAX_RESTARTS)]))
    assert cfg.restarts == cli.MAX_RESTARTS
    cfg = cli._validate(parser.parse_args(
        ["sweep-noise", "--n", "4", "--criterion", "theorem2", "--grid", f"0:1:{cli.MAX_GRID_STEPS}"]))
    assert cfg.grid == (0.0, 1.0, cli.MAX_GRID_STEPS)


@pytest.mark.parametrize("argv", [
    ("oracle", mode, "--n", "2", "--restarts", "1", "--seed", "-1")
    for mode in ("product-max", "bisep-max", "eigmax")
] + [
    ("sweep-noise", "--n", "4", "--criterion", "theorem2", f"--grid={grid}")
    for grid in ("-0.1:1:5", "0:1.5:5", "nan:1:3", "0:nan:3", "0:inf:3")
])
def test_seed_and_grid_ranges_exit_2_before_any_work(capsys, monkeypatch, argv):
    def refuse(_config):
        raise AssertionError("a value out of range reached the command")

    monkeypatch.setattr(cli, "run", refuse)
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and out == ""
    assert ("--seed must be an integer >= 0" in err
            or re.search(r"noise grid (start|stop) must be a finite number in \[0\.0, 1\.0\]", err))


@pytest.mark.parametrize("argv, message", [
    (("oracle", "product-max", "--n", "3", "--a", "1,2"), "--a must be three comma-separated numbers, got '1,2'"),
    (("bound", "--n", "3", "--a", "1,x,2"), "--a: could not convert string to float: 'x'"),
    (("sweep-noise", "--n", "4", "--criterion", "theorem2", "--grid", "a:1:3"),
     "grid: could not convert string to float: 'a'"),
    (("sweep-noise", "--n", "4", "--criterion", "theorem2", "--grid", "0:1"),
     "grid must look like start:stop:steps, got '0:1'"),
    (("witness", "--n", "4", "--tolerance", "detection_tolerance=x"),
     "tolerance detection_tolerance: could not convert string to float: 'x'"),
], ids=["a-two-numbers", "a-not-a-number", "grid-not-a-number", "grid-two-parts", "tolerance-not-a-number"])
def test_unparsable_numbers_exit_2_before_any_work(capsys, monkeypatch, argv, message):
    def refuse(_config):
        raise AssertionError("an unparsable number reached the command")

    monkeypatch.setattr(cli, "run", refuse)
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and out == "" and message in err


def test_an_invariant_violation_exits_3_without_a_document(capsys, monkeypatch):
    def violated(*_args):
        raise dk.InvariantViolationError("stub self-check")

    monkeypatch.setattr(cli, "lemma1_bound", violated)
    status, out, err = run_cli(capsys, "bound", "--n", "4")
    assert status == 3 and out == "" and "invariant violation: stub self-check" in err


@pytest.mark.parametrize("flags", [("--restarts", "5"), ("--seed", "9")])
def test_eigmax_refuses_the_search_flags(capsys, monkeypatch, flags):
    def refuse(_config):
        raise AssertionError("a flag eigmax does not read reached the command")

    monkeypatch.setattr(cli, "run", refuse)
    status, out, err = run_cli(capsys, "oracle", "eigmax", "--n", "3", *flags)
    assert status == 2 and out == "" and f"oracle eigmax does not read {flags[0]}" in err


# one small run per subcommand
_SMALL_RUNS = {
    "dicke": ("--n", "3"),
    "witness": ("--n", "3", "--p", "0.2"),
    "criterion": ("--n", "3", "--criterion", "genuine3"),
    "bound": ("--n", "3", "--m-signed", "1"),
    "oracle": ("bisep-max", "--n", "3", "--restarts", "2"),
    "sweep-noise": ("--n", "4", "--criterion", "fidelity", "--noise", "psixy", "--grid", "0:1:3"),
    "intensity": ("--n", "3"),
    "verify-appendix": ("--n", "4"),
}


def test_every_subcommand_runs_in_both_formats(capsys):
    (commands,) = [a.choices for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert set(commands) == set(_SMALL_RUNS) | {"selftest"}
    for command, args in _SMALL_RUNS.items():
        for fmt in ("json", "csv"):
            status, out, err = run_cli(capsys, command, *args, "--format", fmt)
            assert status == 0 and err == "", (command, fmt)
            if fmt == "json":
                assert isinstance(json.loads(out), dict)
            else:
                header, *rows = list(csv.reader(out.splitlines()))
                assert rows and all(len(row) == len(header) for row in rows), command
    # selftest prints one text report and takes no --format
    status, out, err = run_cli(capsys, "selftest", "--only", "7")
    assert status == 0 and err == "" and "1/1 criteria passed" in out
    for fmt in ("json", "csv"):
        with pytest.raises(SystemExit) as excinfo:
            main(["selftest", "--only", "7", "--format", fmt])
        assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# the exit contract, drawn from the parser itself
# ---------------------------------------------------------------------------

# the largest --n each command is drawn with, so each run stays small
_N_CAP = {"dicke": 8, "witness": 8, "criterion": 8, "sweep-noise": 8, "oracle": 6,
          "bound": 10_000, "intensity": 10_000, "verify-appendix": 64}


_BAD = ["", "nan", "inf", "-inf", "1e308", "-1e308", "1e309", "-1", "0", "1.5", "x", "1,2", "0:1", "=1"]


def _triple(part):
    return st.lists(part, min_size=3, max_size=3).map(",".join)


_GARBAGE = st.one_of(
    st.sampled_from(_BAD),
    st.integers(16, 400).map(lambda e: str(10 ** e)),  # past every size cap and, from 1e309, the float range
    st.text(max_size=6),
    _triple(st.sampled_from(_BAD + ["1", "0.5"])),
)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(repr)


_GRID = st.tuples(st.floats(0, 1), st.floats(0, 1), st.integers(2, 50)).map(
    lambda g: f"{min(g[:2])!r}:{max(g[:2])!r}:{g[2]}")

# valid values of every flag that takes a value and has no choices, by dest
_VALID = {
    "m": st.integers(0, 8).map(str),
    "m_signed": st.integers(-10, 10).map(str),
    "p": _floats(0, 1),
    "phi": _floats(-10, 10),
    "i0": _floats(0, 10),
    "seed": st.integers(0, 2 ** 64).map(str),
    "restarts": st.integers(1, 8).map(str),
    "a": _triple(_floats(0, 2)),
    "b": _triple(_floats(-2, 2)),
    "grid": _GRID,
    "tol": st.tuples(st.sampled_from([f.name for f in fields(dk.Tolerances)]), _floats(0, 1)).map("=".join),
}


def _value(command: str, action: argparse.Action, garbage: bool):
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    valid = st.integers(0, _N_CAP[command]).map(str) if action.dest == "n" else _VALID[action.dest]
    return st.one_of(valid, valid, _GARBAGE) if garbage else valid


(_SUBPARSERS,) = [a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]


@st.composite
def _argvs(draw):
    """A subcommand other than selftest, its required flags and a subset of
    the others; in half the command lines some values are garbage."""
    command = draw(st.sampled_from(sorted(set(_SUBPARSERS) - {"selftest"})))
    garbage = draw(st.booleans())
    argv = [command]
    for action in _SUBPARSERS[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:  # a positional
            argv.append(draw(_value(command, action, garbage)))
        elif action.required or draw(st.booleans()):
            argv += [action.option_strings[0], draw(_value(command, action, garbage))]
    return argv


def _no_constant(name):
    raise ValueError(f"{name} in a JSON document")


@settings(max_examples=150, deadline=None)
@given(argv=_argvs())
def test_every_drawn_command_line_exits_0_with_a_document_or_2_with_an_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse refused the command line
            status = exc.code
    out, err = out.getvalue(), err.getvalue()
    if status == 0:
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else None
        if (fmt or ("csv" if argv[0] == "sweep-noise" else "json")) == "json":
            assert isinstance(json.loads(out, parse_constant=_no_constant), dict), argv
        else:
            header, *rows = list(csv.reader(io.StringIO(out)))
            assert rows and all(len(row) == len(header) for row in rows), argv
    else:
        assert status == 2, (argv, status, err)
        assert out == "" and "error:" in err.splitlines()[-1], (argv, err)
