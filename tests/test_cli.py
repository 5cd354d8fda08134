"""In-process CLI exercises for all five subcommands and the exit codes."""

import math
import random

import pytest

from gleason import CuspDomain, format_poly, parse_poly, parse_scalar
from gleason import cli
from gleason.cli import main
from gleason.errors import GleasonError, NonvanishingError
from gleason.exprio import format_scalar

from conftest import rand_bounded_poly, rand_interior_point, subtract_value_at

AXIS_BOUND = "the axis bound 2^(l+1)*|f|_1/|p2|^l"


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


@pytest.mark.parametrize("mode", [[], ["--exact"]], ids=["float", "exact"])
def test_strip_solve_outside_the_ratio_cone(capsys, mode):
    # z2^2 = u^-1 v for u = z1/z2 and the cut v = z1*z2: bounded on the strip
    code, out, err = run_cli(
        capsys,
        "solve", *mode, "--k", "1", "--l", "1", "--mode", "omega2",
        "--strip-lower", "0.25", "--strip-upper", "2", "--cut-m", "1", "--cut-n", "1",
        "--p1", "0.25", "--p2", "0.5", "--f", "z2^2 - 0.25",
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["f1 = -4z2^2 + 2z2", "f2 = 4z1*z2 + 0.5"]
    assert "residual_max=0" in out.splitlines()


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


# 1.7e308: each part is a float, the modulus of (HUGE + HUGE*i) is not
HUGE = "17" + "0" * 307


@pytest.mark.parametrize(
    "f",
    [f"({HUGE}+{HUGE}i)*z2 + z1 - 0.5", f"({HUGE}+0i)*z2 + (0+{HUGE}i)*z2 + z1 - 0.5"],
    ids=["one_literal", "two_terms"],
)
def test_coefficient_modulus_out_of_range_is_exit_two(capsys, f):
    code, out, err = run_cli(
        capsys,
        "solve", "--k", "1", "--l", "1", "--p1", "0.5", "--p2", "0.75", "--f", f,
    )
    assert code == 2
    assert out == ""
    assert err == "error: a coefficient's modulus is out of the float range\n"


def test_exact_coefficient_beyond_the_float_range_is_exit_two(capsys):
    # f vanishes at p, but the report's norms need a float modulus of 10^400
    code, out, err = run_cli(
        capsys,
        "solve", "--exact", "--samples", "0", "--k", "1", "--l", "1",
        "--p1", "1/2", "--p2", "3/4", "--f", f"{BIG}*z2 - 3{BIG[1:]}/2*z1",
    )
    assert code == 2
    assert out == ""
    assert err == "error: a coefficient's modulus is out of the float range\n"


@pytest.mark.parametrize("mode", [[], ["--exact"]], ids=["float", "exact"])
def test_coefficient_sum_beyond_the_float_range_is_exit_two(capsys, mode):
    # each modulus is 10^308, but the report's sup_f_upper would add them to inf
    big = "1" + "0" * 308
    code, out, err = run_cli(
        capsys,
        "solve", *mode, "--samples", "0", "--k", "1", "--l", "1",
        "--p1", "1/2", "--p2", "3/4", "--subtract-value",
        "--f", f"{big}*z2 + {big}*z2^2 - {big}*z1 - {big}*z1^2",
    )
    assert code == 2
    assert out == ""
    assert err == "error: the coefficient sum of f is out of the float range\n"


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


def _decimal(exponent: int) -> str:
    """10**exponent written out, as the polynomial grammar has no exponent notation."""
    return "1" + "0" * exponent if exponent >= 0 else "0." + "0" * (-exponent - 1) + "1"


def test_deep_point_whose_float_powers_underflow_solves(capsys):
    # |p1|^10 and |p2|^10 both underflow to 0, yet 1e-200 < 1e-175 < 1
    code, out, err = run_cli(
        capsys,
        "solve", "--k", "5", "--l", "5", "--p1", "1e-40", "--p2", "1e-35",
        "--f", f"z1 - {_decimal(-40)}", "--samples", "0",
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["f1 = 1", "f2 = 0"]


def test_strip_bound_whose_square_overflows_solves(capsys):
    code, out, err = run_cli(
        capsys,
        "solve", "--k", "1", "--l", "1", "--p1", "0.25", "--p2", "0.5", "--f", "z1 - 0.25",
        "--samples", "0", "--mode", "omega2", "--strip-lower", "0.1", "--strip-upper", "1e200",
    )
    assert (code, err) == (0, "")
    assert "mode=omega2_local" in out.splitlines()


def test_point_whose_float_power_overflows_is_outside(capsys):
    code, out, err = run_cli(
        capsys,
        "solve", "--k", "4", "--l", "1", "--p1", "1e80", "--p2", "0.5",
        "--f", f"z1 - {_decimal(80)}", "--samples", "0",
    )
    assert (code, out) == (2, "")
    assert err == "error: base point is not inside the domain\n"


@pytest.mark.parametrize("mode", [[], ["--mode", "omega2", "--strip-lower", "0.25", "--strip-upper", "2"]],
                         ids=["hartogs", "strip"])
def test_point_whose_modulus_overflows_is_outside(capsys, mode):
    # both parts are finite, but |p1| is past the largest float
    code, out, err = run_cli(
        capsys,
        "solve", "--k", "1", "--l", "1", "--p1", "1.5e308+1.5e308i", "--p2", "0.5",
        "--f", "z1", *mode,
    )
    assert (code, out) == (2, "")
    assert err == "error: base point is not inside the domain\n"


def test_render_error_prints_no_partial_output(capsys):
    # 1e200 / p2^6 overflows on the axis branch, which names the overflow before any
    # prune at an infinite scale drops f1's terms; nothing may reach stdout
    code, out, err = run_cli(
        capsys,
        "solve", "--k", "1", "--l", "6", "--p1", "0", "--p2", "1e-20",
        "--f", f"{_decimal(200)}*z1", "--samples", "0",
    )
    assert (code, out) == (2, "")
    assert err == "error: float overflow: a coefficient scale is out of the float range\n"


def test_correction_polynomial_overflow_names_its_cause(capsys):
    # p2^-6 = 1e420 makes the correction polynomial inf * z1^2 z2^5, which is no
    # reason to read f as nonvanishing: --subtract-value is passed
    code, out, err = run_cli(
        capsys,
        "solve", "--k", "6", "--l", "5", "--p1", "1e-60", "--p2", "1e-70",
        "--f", "z1^2*z2^-1", "--subtract-value", "--samples", "0",
    )
    assert (code, out) == (2, "")
    assert err == "error: float overflow: the correction polynomial is out of the float range\n"


def test_sampled_check_overflow_names_its_cause(capsys):
    # f1 of this exact solve has a coefficient past the float range, which the
    # sampled check cannot evaluate in floats
    f = (
        "823256426841748086489461202089669114722944951984176148340617150159543147439196392369989938529855"
        "184040550285039395797429877943682605916984436045442478636939879208228410740022916009321690677687"
        "37423479577705277145239001088834748466335528980689793448605756493869570466701639680*z1^5*z2^-12"
    )
    code, out, err = run_cli(
        capsys,
        "solve", "--k", "2", "--l", "5", "--samples", "16", "--exact", "--subtract-value",
        "--p1=-4.453575332577525e-22-6.958268757307672e-21i", "--p2=8.94900611470324e-09+5.417927065856662e-09i",
        f"--f={f}",
    )
    assert (code, out) == (2, "")
    assert err == "error: float overflow: the sampled check cannot read f1 as floats\n"


@pytest.mark.parametrize("argv, quantity", [
    # p2^6 = 1e-360 underflows to 0 in floats: 1/p2^l of the axis split
    (["--p1", "0", "--p2", "1e-60", "--k", "1", "--l", "6"], "1/p2^l"),
    # the same power in the ratio split of the interior pipeline
    (["--p1", "1e-61", "--p2", "1e-60", "--k", "6", "--l", "6", "--subtract-value"], "1/p2^l"),
    # exact p2^l is exact, but the report's axis bound divides by its float modulus, 0.0
    (["--exact", "--p1", "0", "--p2", "1e-60", "--k", "1", "--l", "6"], AXIS_BOUND),
    # a float modulus of 1e-320 is subnormal, and 4 / 1e-320 is past the float range
    (["--exact", "--p1", "0", "--p2", "1e-320", "--k", "1", "--l", "1"], AXIS_BOUND),
], ids=["float axis", "ratio split", "exact axis", "exact subnormal axis"])
def test_deep_axis_points_name_the_float_overflow(capsys, argv, quantity):
    code, out, err = run_cli(capsys, "solve", *argv, "--f", "z1", "--samples", "0")
    assert (code, out) == (2, "")
    assert err == f"error: float overflow: {quantity} is out of the float range\n"


def test_axis_bound_past_the_float_range_names_its_cause(capsys):
    # fuzz seed 156: the report's bound_rhs, 2^7 |f|_1 / |p2|^6, is past the float range
    f = (
        "174259704878517836264891235006187751996487241789745422961496487106493610894113105415598853057396"
        "736428567901612278129953166767537465529050130625619528370349562774159360*z1^8*z2^-11 + (-9186781"
        "878400295437804193970004919603740973632214738019613533976928844599892961756057011051037127121329"
        "560866073873056285068531722647349116387066977004821038416313111722990766415455398160368823039905"
        "495384429416865796642071609746660998626518913557009368222114838433046047125040644660897251328-57"
        "265862472652684346236338176i)*z1^8*z2^-11 - 7247702904203217633796346867960484284585028452339607"
        "531512254385780840767457368264628405928000014363149619552763195242622373546102229575528629053818"
        "668907925912000251904795572171225076844855459693302473781331268863758007161714242498301559151001"
        "60*z1^6*z2^-8"
    )
    code, out, err = run_cli(
        capsys,
        "solve", "--k", "4", "--l", "6", "--samples", "0", "--p1=0",
        "--p2=-4.2871602806060144e-05-4.036671084278909e-05i", "--exact", "--subtract-value",
        f"--f={f}",
    )
    assert (code, out) == (2, "")
    assert err == f"error: float overflow: {AXIS_BOUND} is out of the float range\n"


@pytest.mark.parametrize("argv, axis", [
    (["--p1", "0", "--p2", "1e-60", "--k", "1", "--l", "6"], True),
    (["--exact", "--p1", "0", "--p2", "1e-60", "--k", "1", "--l", "6"], True),
    (["--p1", "1e-61", "--p2", "1e-60", "--k", "6", "--l", "6"], False),
], ids=["float axis", "exact axis", "ratio split"])
def test_zero_f_at_a_deep_point_is_solved(capsys, argv, axis):
    # f1 = f2 = 0 solve f = 0 without the 1/p2^l that a deep p2 takes past the float range
    code, out, err = run_cli(capsys, "solve", *argv, "--f", "0", "--samples", "0")
    lines = out.splitlines()
    assert (code, err) == (0, "")
    assert lines[:2] == ["f1 = 0", "f2 = 0"]
    assert ("bound_rhs=0" in lines) == axis
    assert "residual_max=0" in lines


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the one error line is all the user sees
def test_sampled_overflow_warns_nothing(capsys):
    # z2^-27 overflows at the deepest samples, and z1^6 underflows there
    code, out, err = run_cli(
        capsys,
        "solve", "--k", "1", "--l", "5", "--p1", "0.01", "--p2", "0.5",
        "--f", "z1^6*z2^-27", "--subtract-value",
    )
    assert (code, out) == (2, "")
    assert err == "error: float overflow: f2 on the samples is out of the float range\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the one error line is all the user sees
def test_sampled_maximum_past_the_float_range_names_its_cause(capsys):
    # fuzz seed 1270: f2 is finite, but its values at the deepest samples overflow
    f = (
        "92120584596059440145729465818280022706750064013189404296322211328859028357556487869823019122688*"
        "z1^3*z2^1 + (29697972991758836167312946457429957937546088191918924016982183872882657231355864110"
        "305412699005511635841884393054009876295302657557723706342753870909914456785233906470422508506413"
        "1462856495515652303213297664+1056404160500189190577697378326896739188279174673876098179939050019"
        "2518144i)*z1^0*z2^-2 + (158063153163746998665427604348202298635670187934112205117671009827596027"
        "202645921203296818139887938422611646054291833816400791345445952438752168558757607491195282292386"
        "435592084275048292024320-83438631495281825877430306218247672910391393870471885763318821798579116"
        "270247156725386689667583717297607550916121409042018310165125901347239927828991226228153207683251"
        "517325218811323776796375038645804195141147072512151019475516325461686422635864045733806080i)*z1^"
        "6*z2^-27 + 4844743245373575164622111804543086573613922209847083062944887074164874483525599000631"
        "961364676417816390133081214711671830228565013152382508851383538002555863079036443689949408772246"
        "44795408281026612415762325901177104910291982171152310560324861500181184512*z1^3*z2^-11"
    )
    code, out, err = run_cli(
        capsys,
        "solve", "--k", "1", "--l", "5", "--samples", "16",
        "--p1=1.1412196813895052e-16-4.143067062624166e-17i",
        "--p2=0.0008812695777463689-0.0001253709029770261i", "--subtract-value", f"--f={f}",
    )
    assert (code, out) == (2, "")
    assert err == "error: float overflow: f2 on the samples is out of the float range\n"


def test_nonfinite_value_at_the_base_point_names_its_cause(capsys):
    # p1^5 underflows to 0 and p2^-27 overflows to inf, so f(p) is NaN, which
    # is no value to subtract or to print
    code, out, err = run_cli(
        capsys,
        "solve", "--k", "1", "--l", "6", "--samples", "0", "--subtract-value",
        "--p1=-7.468128838115509e-161-1.818117934617235e-162i",
        "--p2=1.773400053450685e-27-1.1110675712579096e-27i",
        "--f=720960292854512512*z1^5*z2^-27",
    )
    assert (code, out) == (2, "")
    assert err == "error: float overflow: f(p) is out of the float range\n"


def test_subtract_value_keeps_every_monomial_of_f(capsys):
    # f(p) = 1e15 is over 1e14 times f's coefficient; subtracting it must not
    # prune z1*z2^-3 away, so the solve names the unbounded monomial, not f(p)
    code, out, err = run_cli(
        capsys,
        "solve", "--k", "1", "--l", "1", "--p1", "1e-9", "--p2", "1e-8",
        "--f", "z1*z2^-3", "--subtract-value", "--samples", "0",
    )
    assert (code, out) == (2, "")
    assert err == "error: f has monomials outside the bounded cone\n"


def _solved_f(monkeypatch, capsys, *argv):
    """The f that `gleason solve` hands to solve, which is made to raise."""
    seen = []

    def capture(domain, f, p, **kwargs):
        seen.append(f)
        raise GleasonError("captured")

    monkeypatch.setattr(cli, "solve", capture)
    assert run_cli(capsys, "solve", *argv)[0] == 2
    return seen[0]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_subtract_value_is_f_minus_its_value_when_that_value_is_small(seed, exact, monkeypatch, capsys):
    # whenever |f(p)| <= max |c|, f - f(p) pruned at f's norm is the operator
    # chain's f - constant(f(p)), bit for bit
    rng = random.Random(seed)
    domain = CuspDomain.hartogs(2, 1)
    f = rand_bounded_poly(rng, domain, 6, exact=exact)
    p = rand_interior_point(rng, domain, exact=exact)
    assert abs(complex(f.eval(*p))) <= f.max_norm()
    mode = ["--exact"] if exact else []
    args = ["--k", "2", "--l", "1", f"--p1={format_scalar(p[0])}", f"--p2={format_scalar(p[1])}",
            f"--f={format_poly(f)}", "--subtract-value", "--samples", "0", *mode]
    got = _solved_f(monkeypatch, capsys, *args)
    f, p = parse_poly(format_poly(f), exact), tuple(parse_scalar(format_scalar(q), exact) for q in p)
    want = subtract_value_at(f, p)
    assert [(e, repr(c)) for e, c in got.terms.items()] == [(e, repr(c)) for e, c in want.terms.items()]


@pytest.mark.parametrize("flag", [False, True], ids=["without", "with"])
def test_nonvanishing_hint_only_without_the_flag(flag, monkeypatch, capsys):
    def nonvanishing(*args, **kwargs):
        raise NonvanishingError("polynomial does not vanish at the base point", 1.0)

    monkeypatch.setattr(cli, "solve", nonvanishing)
    argv = ["solve", "--k", "1", "--l", "1", "--p1", "0.5", "--p2", "0.8", "--f", "z2"]
    code, out, err = run_cli(capsys, *argv, *(["--subtract-value"] if flag else []))
    assert (code, out) == (2, "")
    hint = "" if flag else " (pass --subtract-value to solve f - f(p))"
    assert err == f"error: polynomial does not vanish at the base point{hint}\n"
