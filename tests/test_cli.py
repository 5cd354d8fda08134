"""In-process CLI exercises for all five subcommands and the exit codes."""

import math

import pytest

from gleason.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_axis_example(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--k", "1", "--l", "1", "--p1", "0", "--p2", "0.5", "--f", "z1"
    )
    lines = out.splitlines()
    assert code == 0
    assert err == ""
    assert lines[0] == "f1 = 2z2"
    assert lines[1] == "f2 = -2z1"
    assert "residual_max=0" in lines
    assert "mode=p1_zero" in lines
    assert "bound_rhs=8" in lines


def test_solve_nonvanishing_rejection(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--k", "1", "--l", "1", "--p1", "0.5", "--p2", "0.8", "--f", "z2"
    )
    assert code == 2
    assert out == ""
    assert "f(p) = 0.8 != 0" in err
    assert "--subtract-value" in err


def test_solve_subtract_value_recovers(capsys):
    code, out, _ = run_cli(
        capsys,
        "solve", "--k", "1", "--l", "1", "--p1", "0.5", "--p2", "0.8",
        "--f", "z2", "--subtract-value",
    )
    assert code == 0
    assert "f1 = 0" in out.splitlines()[0]
    assert "f2 = 1" in out.splitlines()[1]


def test_info_cone(capsys):
    code, out, _ = run_cli(capsys, "info", "--k", "2", "--l", "3")
    assert code == 0
    assert "cone: a >= 0 and 3a + 2b >= 0" in out
    assert "kind: hartogs_full" in out


def test_info_strip(capsys):
    code, out, _ = run_cli(
        capsys,
        "info", "--k", "1", "--l", "1", "--mode", "omega2",
        "--strip-lower", "0.5", "--strip-upper", "2", "--cut-m", "1", "--cut-n", "2",
        "--cut-r", "-0.25",
    )
    assert code == 0
    assert "kind: strip_omega2" in out
    assert "strip: 0.5 < |z1^k/z2^l| < 2" in out
    assert "cone: 1a + 1b >= 0" in out


def test_byte_identical_reruns(capsys):
    argv = [
        "solve", "--k", "2", "--l", "1", "--p1", "0.3", "--p2", "0.7",
        "--f", "z1^2*z2^-1 + 0.25z1", "--subtract-value", "--samples", "500",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert (code1, out1) == (code2, out2)
    assert code1 == 0


def test_solve_interior_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "solve", "--k", "1", "--l", "1", "--p1", "0.5", "--p2", "0.8",
        "--f", "z1*z2^-1 - 0.625",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "f1 = 1.25"
    assert lines[1] == "f2 = -1.25z1*z2^-1"
    assert "mode=p1_nonzero" in lines


def test_solve_verification_failure_exit_one(capsys):
    # force an unachievable tolerance on a perturbed verify instead: use the
    # verify subcommand, which shares _passed, to get exit 1 deterministically
    code, out, _ = run_cli(
        capsys,
        "verify", "--k", "1", "--l", "1", "--p1", "0.25", "--p2", "0.5",
        "--f", "z2 - 0.5", "--f1", "0.001z1", "--f2", "1",
    )
    assert code == 1
    assert "residual_max=" in out
    assert "mode=verify" in out


def test_verify_passes_good_pair(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--k", "1", "--l", "1", "--p1", "0", "--p2", "0.5",
        "--f", "z1", "--f1", "2z2", "--f2=-2z1",
    )
    assert code == 0
    assert "residual_max=0" in out


def test_verify_tolerance_flag(capsys):
    argv = [
        "verify", "--k", "1", "--l", "1", "--p1", "0.25", "--p2", "0.5",
        "--f", "z2 - 0.5", "--f1", "0.0000001z1", "--f2", "1",
    ]
    code_strict, _, _ = run_cli(capsys, *argv)
    code_loose, _, _ = run_cli(capsys, *argv, "--tol", "0.01")
    assert code_strict == 1
    assert code_loose == 0


@pytest.mark.parametrize("command", ["verify", "solve"])
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_tolerance_without_samples_is_exit_two(capsys, command, samples):
    # nothing sampled means residual_max=0, which any --tol would accept
    argv = [
        command, "--k", "1", "--l", "1", "--p1", "0.5", "--p2", "0.5",
        "--f", "z1 - 0.5", "--samples", samples, "--tol", "1e-9",
    ]
    if command == "verify":
        argv += ["--f1", "7", "--f2", "3"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: --tol needs --samples > 0\n"


def test_decompose_routing(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--k", "2", "--l", "1", "--f", "z1^3 + z1*z2^-1 + 4"
    )
    assert code == 0
    assert out.splitlines() == [
        "f[0,0] = 4",
        "f[0,1] = 0",
        "f[1,0] = z1^2",
        "f[1,1] = z2^-2",
    ]


def test_exact_flag_solves_every_symmetrization_order(capsys):
    code, out, err = run_cli(
        capsys,
        "solve", "--k", "3", "--l", "1", "--p1", "0.5", "--p2", "0.9",
        "--f", "z1^3 - 0.125", "--exact",
    )
    assert code == 0
    assert err == ""
    assert "residual_max=0" in out.splitlines()
    # k = 2 is fine
    code, out, _ = run_cli(
        capsys,
        "solve", "--k", "2", "--l", "1", "--p1", "0.5", "--p2", "0.9",
        "--f", "z2 - 0.9", "--exact",
    )
    assert code == 0
    assert "residual_max=0" in out


def test_solve_from_file_and_mutual_exclusion(tmp_path, capsys):
    poly = tmp_path / "f.txt"
    poly.write_text("z2 - 0.5\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        "solve", "--k", "1", "--l", "1", "--p1", "0.25", "--p2", "0.5",
        "--f-file", str(poly),
    )
    assert code == 0
    assert out.splitlines()[1] == "f2 = 1"
    with pytest.raises(SystemExit):
        main([
            "solve", "--k", "1", "--l", "1", "--p1", "0.25", "--p2", "0.5",
            "--f", "z2-0.5", "--f-file", str(poly),
        ])
    capsys.readouterr()


def test_missing_file_is_exit_two(capsys):
    code, _, err = run_cli(
        capsys,
        "solve", "--k", "1", "--l", "1", "--p1", "0.25", "--p2", "0.5",
        "--f-file", "/nonexistent/path.txt",
    )
    assert code == 2
    assert "error:" in err


def test_bad_polynomial_is_exit_two(capsys):
    code, _, err = run_cli(
        capsys,
        "solve", "--k", "1", "--l", "1", "--p1", "0.25", "--p2", "0.5",
        "--f", "z1^",
    )
    assert code == 2
    assert "offset 3" in err


def test_split_line_command(tmp_path, capsys):
    rows = []
    count = 56
    for i in range(count):
        t = math.radians(170.0 + (5.0 - 170.0) * i / (count - 1))
        rows.append(f"{math.cos(t)},{math.sin(t)},1")
    csv = tmp_path / "arc.csv"
    csv.write_text("\n".join(rows), encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        "split-line", "--boundary", str(csv), "--cusp-slope", "1", "--base", "0,0",
    )
    assert code == 0
    m, n, r, delta = out.split()
    assert (m, n) == ("0", "1")
    assert 0.0871 < float(r) < 0.7071
    assert float(delta) > 0
    # infeasible flags exit 2
    csv.write_text("\n".join(row[:-1] + "0" for row in rows), encoding="utf-8")
    code, _, err = run_cli(
        capsys,
        "split-line", "--boundary", str(csv), "--cusp-slope", "1", "--base", "0,0",
    )
    assert code == 2
    assert "error:" in err


def test_split_line_bad_flags(tmp_path, capsys):
    csv = tmp_path / "b.csv"
    csv.write_text("0,0,1\n1,1,1\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys,
        "split-line", "--boundary", str(csv), "--cusp-slope", "x/y", "--base", "0,0",
    )
    assert code == 2 and "cusp-slope" in err
    code, _, err = run_cli(
        capsys,
        "split-line", "--boundary", str(csv), "--cusp-slope", "1", "--base", "zero",
    )
    assert code == 2 and "base" in err


def test_strip_solve_via_cli(capsys):
    code, out, _ = run_cli(
        capsys,
        "solve", "--k", "1", "--l", "1", "--mode", "omega2",
        "--strip-lower", "0.25", "--strip-upper", "4", "--cut-r", "-0.05",
        "--p1", "0.5", "--p2", "0.6", "--f", "z1*z2 - 0.3", "--samples", "200",
    )
    assert code == 0
    assert "mode=omega2_local" in out


BIG = "1" + "0" * 400


@pytest.mark.parametrize("flag, value", [("--p1", "1e400"), ("--p2", f"0.5+{BIG}i")])
def test_out_of_range_scalar_is_exit_two(capsys, flag, value):
    argv = {"--p1": "0.5", "--p2": "0.5", "--f": "z1 - 0.5"}
    argv[flag] = value
    code, out, err = run_cli(
        capsys,
        "solve", "--k", "1", "--l", "1", *(f"{name}={text}" for name, text in argv.items()),
    )
    assert code == 2
    assert out == ""
    assert err == f"error: numeric literal {value!r} is out of the float range\n"


@pytest.mark.parametrize("coeff", [BIG, f"(1-{BIG}i)"])
def test_out_of_range_coefficient_is_exit_two(capsys, coeff):
    code, out, err = run_cli(
        capsys,
        "solve", "--k", "1", "--l", "1", "--p1", "0.5", "--p2", "0.5",
        "--f", f"{coeff} *z1 + z2",
    )
    assert code == 2
    assert out == ""
    assert err == f"error: numeric literal {coeff!r} is out of the float range\n"


TINY = "0." + "0" * 400 + "1"


@pytest.mark.parametrize("flag, value", [("--p2", "1e-400"), ("--p1", "0.5+1e-400i")])
def test_underflowing_scalar_is_exit_two(capsys, flag, value):
    # a nonzero literal must not turn into 0.0 and move the base point
    argv = {"--p1": "0.5", "--p2": "0.75", "--f": "z1 - 0.5"}
    argv[flag] = value
    code, out, err = run_cli(
        capsys,
        "solve", "--k", "1", "--l", "1", *(f"{name}={text}" for name, text in argv.items()),
    )
    assert code == 2
    assert out == ""
    assert err == f"error: numeric literal {value!r} underflows to zero as a float\n"


@pytest.mark.parametrize("coeff", [TINY, f"(1-{TINY}i)"])
def test_underflowing_coefficient_is_exit_two(capsys, coeff):
    # a nonzero coefficient must not be dropped from f without a word
    code, out, err = run_cli(
        capsys,
        "solve", "--k", "1", "--l", "1", "--p1", "0.5", "--p2", "0.75",
        "--f", f"{coeff} *z2 + z1 - 0.5",
    )
    assert code == 2
    assert out == ""
    assert err == f"error: numeric literal {coeff!r} underflows to zero as a float\n"


@pytest.mark.parametrize("flag, value", [
    ("--strip-upper", "inf"), ("--strip-upper", "nan"), ("--cut-r", "nan"), ("--cut-r", "-inf"),
])
def test_info_non_finite_strip_is_exit_two(capsys, flag, value):
    argv = {"--strip-lower": "0.5", "--strip-upper": "2", "--cut-r": "0"}
    argv[flag] = value
    code, out, err = run_cli(
        capsys,
        "info", "--k", "1", "--l", "1", "--mode", "omega2",
        *(f"{name}={text}" for name, text in argv.items()),
    )
    assert code == 2
    assert out == ""
    assert "must be finite" in err
