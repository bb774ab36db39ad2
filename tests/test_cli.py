import argparse
import os
import re

import pytest

from zetatheta import cli
from zetatheta import critical_line as cl
from zetatheta import inverse_theta as iv
from zetatheta import steen as st
from zetatheta import theta as th
from zetatheta.errors import ValidationError

SCI = re.compile(r"-?\d\.\d{14}e[+-]\d{2,3}$")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(out):
    lines = [ln for ln in out.strip().splitlines() if ln]
    header = lines[0].split("\t")
    return header, [ln.split("\t") for ln in lines[1:]]


def subcommands():
    """name -> subparser, read from the parser that cli.main uses."""
    return next(a for a in cli.PARSER._actions
                if isinstance(a, argparse._SubParsersAction)).choices


@pytest.fixture(scope="module")
def zeros_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("zeros") / "riemann30.txt"
    src = os.path.join(os.path.dirname(__file__), "data", "riemann_zeros_30.txt")
    p.write_text(open(src).read())
    return str(p)


class TestFieldInfo:
    def test_builtin(self, capsys):
        code, out, _ = run(capsys, "field-info", "sqrt5")
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["field", "r1", "r2", "degree", "disc", "H_F", "C_F"]
        row = rows[0]
        assert row[1:5] == ["2", "0", "2", "5"]
        assert float(row[6]) == pytest.approx(-0.2406059125, abs=1e-9)
        assert SCI.match(row[6])

    def test_rational(self, capsys):
        code, out, _ = run(capsys, "field-info", "Q")
        header, rows = rows_of(out)
        assert code == 0
        assert float(rows[0][5]) == pytest.approx(1.0)
        assert float(rows[0][6]) == pytest.approx(-0.5)

    def test_character_file(self, capsys, tmp_path):
        p = tmp_path / "myfield.chars"
        p.write_text("char 1 1 0\nchar 5 2 0,1,1,0,-1\n")
        code, out, _ = run(capsys, "field-info", str(p))
        assert code == 0
        assert rows_of(out)[1][0][4] == "5"

    def test_malformed_file(self, capsys, tmp_path):
        p = tmp_path / "bad.chars"
        p.write_text("char oops\n")
        code, out, err = run(capsys, "field-info", str(p))
        assert code == 2
        assert err

    @pytest.mark.parametrize("argv", [("field-info",), ("zeros-scan", "--range", "0,10", "--field")])
    def test_non_group_file_is_refused(self, capsys, tmp_path, argv):
        # {1, chi_5, chi_8} lacks chi_5 chi_8, of conductor 40: no field has these characters
        p = tmp_path / "nogroup.chars"
        p.write_text("char 1 1 0\nchar 5 2 0,1,1,0,-1\nchar 8 2 0,-1,1,-1,1,-1,0,-1\n")
        code, out, err = run(capsys, *argv, str(p))
        assert (code, out) == (2, "")
        assert "not a group" in err

    def test_unknown_field(self, capsys):
        code, _, err = run(capsys, "field-info", "nosuchfield")
        assert code == 2
        assert "neither" in err

    def test_builtin_name_wins_over_a_file(self, capsys, tmp_path, monkeypatch):
        # a file named like a builtin field in the working directory does not shadow it
        (tmp_path / "Q").write_text("char oops\n")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "field-info", "Q")
        assert code == 0
        assert rows_of(out)[1][0][:5] == ["Q", "1", "0", "1", "1"]


class TestThetaCheck:
    def test_rational(self, capsys):
        code, out, _ = run(capsys, "theta-check", "--field", "Q", "--k", "1", "--x", "4")
        assert code == 0
        header, rows = rows_of(out)
        assert float(rows[0][5]) < 1e-10

    def test_exact_eval_route(self, capsys):
        # x = -1 is the relation on the sheet log x = i pi, one theta row like any x
        code, out, _ = run(capsys, "theta-check", "--field", "cubic7", "--x", "-1",
                           "--tol", "1e-6")
        assert code == 0
        header, rows = rows_of(out)
        assert len(rows) == 1
        assert rows[0][0] == "theta"
        assert rows[0][6] == "ok"
        assert float(rows[0][5]) <= 1e-12

    def test_exact_eval_k2_and_sector(self, capsys):
        for field in ("cubic7", "zeta5"):
            code, out, err = run(capsys, "theta-check", "--field", field, "--k", "2", "--x", "-1",
                                 "--tol", "1e-10")
            assert code == 0, err
            assert [row[-1] for row in rows_of(out)[1]] == ["ok"]
        # log x = i pi lies outside the sector |Im log x| < pi d/2 - 0.2 for d <= 2
        for field in ("Q", "sqrt5"):
            code, out, err = run(capsys, "theta-check", "--field", field, "--x", "-1")
            assert code == 2
            assert out == ""
            assert "|Arg x| must stay below" in err

    def test_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "theta-check", "--field", "Q", "--x", "0")
        assert code == 2

    def test_impossible_tolerance_fails(self, capsys):
        # sqrt5 at x = 4 reads a residual of 7.4e-15 (Q's closed-form kernel reads 0 there)
        code, _, _ = run(capsys, "theta-check", "--field", "sqrt5", "--x", "4",
                         "--tol", "1e-18")
        assert code == 1

    def test_complex_argument(self, capsys):
        code, out, _ = run(capsys, "theta-check", "--field", "sqrt5", "--x", "2,1")
        assert code == 0


class TestZerosScanAndConsumers:
    def test_scan_rows(self, capsys):
        code, out, _ = run(capsys, "zeros-scan", "--field", "Q", "--range", "0,30",
                           "--step", "0.05")
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["gamma", "xi_residual"]
        assert len(rows) == 3
        assert float(rows[0][0]) == pytest.approx(14.134725141, abs=1e-6)

    def test_emit_round_trip(self, capsys, tmp_path):
        emitted = tmp_path / "q.zeros"
        code, out, err = run(capsys, "zeros-scan", "--field", "Q", "--range", "0,30",
                             "--step", "0.05", "--emit", str(emitted))
        assert code == 0
        zl = iv.load_zeros(emitted)
        assert len(zl) == 3
        code, out, _ = run(capsys, "inverse-check", "--field", "Q", "--k", "1",
                           "--x", "4", "--zeros", str(emitted), "--tol", "1e-4")
        assert code == 0

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "zeros-scan", "--field", "Q", "--range", "5,5")
        assert code == 2


class TestInverseAndIdentityChecks:
    def test_inverse(self, capsys, zeros_file):
        code, out, _ = run(capsys, "inverse-check", "--field", "Q", "--k", "1",
                           "--x", "4", "--zeros", zeros_file)
        assert code == 0
        header, rows = rows_of(out)
        assert float(rows[0][4]) < 1e-5

    def test_inverse_k0_names_k(self, capsys, zeros_file):
        code, out, err = run(capsys, "inverse-check", "--field", "Q", "--k", "0",
                             "--x", "4", "--zeros", zeros_file)
        assert code == 2
        assert out == ""
        assert "k must be >= 1" in err

    def test_hlr(self, capsys, zeros_file):
        code, out, _ = run(capsys, "hlr-check", "--x", "1", "--zeros", zeros_file)
        assert code == 0
        header, rows = rows_of(out)
        assert float(rows[0][3]) < 1e-4

    def test_hlr_n_smooth_removed(self, capsys, zeros_file):
        code, _, err = run(capsys, "hlr-check", "--x", "1", "--zeros", zeros_file,
                           "--n-smooth", "200000")
        assert code == 2
        assert "--n-smooth" in err

    def test_hlr_missing_zeros(self, capsys):
        code, _, err = run(capsys, "hlr-check", "--x", "1", "--zeros", "/nonexistent")
        assert code == 2

    def test_dgv(self, capsys, zeros_file):
        code, out, _ = run(capsys, "dgv-check", "--field", "Q", "--x", "4",
                           "--zeros", zeros_file, "--tol", "1e-4")
        assert code == 0

    def test_dgv_zeta5(self, capsys):
        # the relation is checked in every degree, here a quartic field
        zeros = os.path.join(os.path.dirname(__file__), "data", "zeta5_zeros_30.txt")
        code, out, err = run(capsys, "dgv-check", "--field", "zeta5", "--x", "0.25", "--x", "4",
                             "--zeros", zeros)
        assert code == 0, err
        header, rows = rows_of(out)
        assert header == ["x", "lhs", "rhs", "residual", "zeros"]
        assert len(rows) == 2 and all(float(row[3]) < 1e-10 for row in rows)

    def test_inverse_zeta5(self, capsys):
        zeros = os.path.join(os.path.dirname(__file__), "data", "zeta5_zeros_30.txt")
        code, out, err = run(capsys, "inverse-check", "--field", "zeta5", "--x", "2",
                             "--zeros", zeros)
        assert code == 0, err
        assert float(rows_of(out)[1][0][4]) < 1e-12

    @pytest.mark.parametrize("offset", [0.3, 1e-4])
    @pytest.mark.parametrize("argv", [
        ("inverse-check", "--field", "Q", "--x", "4"),
        ("dgv-check", "--field", "Q", "--x", "4"),
        ("hlr-check", "--x", "4"),
    ])
    def test_ordinate_off_a_zero(self, capsys, tmp_path, zeros_file, argv, offset):
        gammas = list(iv.load_zeros(zeros_file).gammas)
        gammas[4] += offset
        moved = tmp_path / "moved.zeros"
        iv.write_zeros(moved, gammas)
        code, out, err = run(capsys, *argv, "--zeros", str(moved))
        assert code == 2
        assert out == ""
        assert "is not a zero" in err


class TestPhiCheck:
    def test_quadratic(self, capsys):
        code, out, _ = run(capsys, "phi-check", "--field", "sqrt5", "--z", "0.5")
        assert code == 0
        header, rows = rows_of(out)
        assert float(rows[0][4]) < 1e-6

    def test_imaginary_z(self, capsys):
        code, out, _ = run(capsys, "phi-check", "--field", "sqrt5", "--z", "0,-0.3")
        assert code == 0


class TestTwoFactorKernels:
    """(2, 0) and (0, 2), the kernels of sqrt5 and zeta5 at k = 1 and of Q and gauss at k = 2,
    are read through K_0: no saddle line is planned and no left-pole series summed."""

    REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench", "reference")

    def test_no_line_or_series(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a two-factor kernel took a general route")
        monkeypatch.setattr(st, "_line_plan", refuse)
        monkeypatch.setattr(st, "z_small_series_many", refuse)
        xs = ("--x", "0.3", "--x", "2.5", "--x", "0.7,0.3", "--x", "0.05")

        def zeros(field):
            return ("--zeros", os.path.join(self.REFERENCE, f"{field}-inverse.zeros"))

        runs = [("theta-check", "--field", field, "--k", k, *xs)
                for field, k in (("sqrt5", "1"), ("Q", "2"), ("gauss", "2"))]
        runs += [("theta-check", "--field", "zeta5", *xs, "--x=-1"),
                 ("phi-check", "--field", "sqrt5", "--z", "0.25", "--z", "0.5,0.3"),
                 ("phi-check", "--field", "zeta5", "--z", "0.25", "--z", "0.5,0.3"),
                 ("inverse-check", "--field", "sqrt5", "--x", "0.5", "--x", "2", *zeros("sqrt5")),
                 ("inverse-check", "--field", "Q", "--k", "2", "--x", "0.5", "--x", "2", *zeros("Q")),
                 ("dgv-check", "--field", "sqrt5", "--x", "0.5", "--x", "2", *zeros("sqrt5")),
                 ("dgv-check", "--field", "Q", "--x", "0.5", "--x", "2", *zeros("Q"))]
        for argv in runs:
            code, out, err = run(capsys, *argv)
            assert code == 0 and out, (argv, err)


class TestExitCode:
    # every check returns one Report, and its residual alone decides the exit code
    @pytest.mark.parametrize("factor,expected", [(0.99, 0), (1.01, 1), (float("nan"), 1)])
    @pytest.mark.parametrize("module,name,argv", [
        (th, "check_theta_many", ("theta-check", "--field", "Q", "--x", "2")),
        (th, "check_theta_many", ("theta-check", "--field", "cubic7", "--x=-1")),
        (iv, "check_inverse_theta", ("inverse-check", "--field", "Q", "--x", "2", "--zeros")),
        (iv, "hlr_check", ("hlr-check", "--x", "2", "--zeros")),
        (iv, "dgv_check", ("dgv-check", "--field", "Q", "--x", "2", "--zeros")),
        (cl, "phi_identity_check", ("phi-check", "--field", "Q", "--z", "0.3")),
    ])
    def test_residual_against_tol(self, capsys, monkeypatch, zeros_file, module, name, argv,
                                  factor, expected):
        tol = 1e-6
        report = th.Report(lhs=1.0 + 0.0j, rhs=1.0, residual=factor * tol, budget={})
        if name == "check_theta_many":
            # a theta-check makes one call for all its x, which returns a report per x
            monkeypatch.setattr(module, name,
                                lambda field, k, xs, *args, **kwargs: [report] * len(xs))
        else:
            monkeypatch.setattr(module, name, lambda *args, **kwargs: report)
        if argv[-1] == "--zeros":
            argv += (zeros_file,)
        code, out, err = run(capsys, *argv, "--tol", str(tol))
        assert code == expected, err
        assert len(rows_of(out)[1]) == 1
        if argv[0] == "theta-check":
            # the status cell is the row's verdict, at x = -1 too
            assert rows_of(out)[1][0][-1] == ("ok", "fail")[expected]

    def test_theta_near_a_zero_of_w(self, capsys):
        # the sides agree to 5e-14 where W(1/16) = 3.2e-8 sits next to terms of 2.6e-2
        code, out, err = run(capsys, "theta-check", "--field", "zeta5", "--k", "2", "--x", "16")
        assert code == 0, out
        assert rows_of(out)[1][0][-1] == "ok"


class TestSignedValues:
    # a value such as -0.5,0.3 is no plain negative number, so argparse
    # would take it for an option
    @pytest.mark.parametrize("argv", [
        ("theta-check", "--field", "sqrt5", "--x", "-0.5,0.3"),
        ("phi-check", "--field", "sqrt5", "--z", "-0.25,0.1"),
    ])
    def test_space_form_equals_equals_form(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        joined = argv[:-2] + (f"{argv[-2]}={argv[-1]}",)
        code_eq, out_eq, _ = run(capsys, *joined)
        assert code_eq == 0
        assert out == out_eq
        assert len(rows_of(out)[1]) == 1

    # the rule of the regex -([\d.]|inf|nan), in any case, that the string tests replace
    @pytest.mark.parametrize("tok, attached", [
        ("-1", True), ("-.5", True), ("-0.5,0.3", True), ("-1e-3", True), ("-inf", True),
        ("-NaN", True), ("-Infinity", True), ("-x", False), ("--tol", False), ("-", False)])
    def test_token_table(self, tok, attached):
        assert bool(re.match(r"-([\d.]|inf|nan)", tok, re.IGNORECASE)) == attached
        assert cli._attach_signed_values(["--tol", tok]) == (
            ["--tol=" + tok] if attached else ["--tol", tok])
        assert not hasattr(cli, "re")


class TestParser:
    def test_main_builds_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(2):
            code, _, err = run(capsys, "field-info", "Q")
            assert code == 0, err
        assert built == []

    @pytest.mark.parametrize("name", sorted(subcommands()))
    def test_help(self, capsys, name):
        code, out, err = run(capsys, name, "--help")
        assert code == 0
        assert out.startswith(f"usage: zetatheta {name}")
        assert err == ""

    # every option with a type= parser, read from the parser itself, takes a
    # value that starts with '-' in the space form too
    @pytest.mark.parametrize("name,flag", sorted(
        (name, flag) for name, sub in subcommands().items() for action in sub._actions
        if action.type is not None for flag in action.option_strings))
    def test_signed_value_reaches_type(self, capsys, monkeypatch, name, flag):
        action = next(a for a in subcommands()[name]._actions if flag in a.option_strings)
        seen = []

        def refuse(text):
            seen.append(text)
            raise argparse.ArgumentTypeError(f"refused {text!r}")
        monkeypatch.setattr(action, "type", refuse)
        code, out, err = run(capsys, name, flag, "-1,2")
        assert code == 2
        assert seen == ["-1,2"]
        assert "expected one argument" not in err
        assert out == ""


class TestOutputDiscipline:
    def test_stdout_is_tsv_only(self, capsys, tmp_path):
        emitted = tmp_path / "e.zeros"
        code, out, err = run(capsys, "zeros-scan", "--field", "Q", "--range", "0,30",
                             "--step", "0.05", "--emit", str(emitted))
        for line in out.strip().splitlines():
            assert "\t" in line
        assert "wrote" in err   # diagnostics on stderr


class TestNonFiniteInput:
    # each probe must be a usage error: exit 2, an `error:` line naming the
    # value on stderr and nothing on stdout, never a traceback or exit 0/1
    @pytest.mark.parametrize("argv, value", [
        (("inverse-check", "--field", "Q", "--x", "4", "--tol", "nan"), "nan"),
        (("hlr-check", "--x", "1", "--tol", "nan"), "nan"),
        (("dgv-check", "--field", "Q", "--x", "4", "--tol", "nan"), "nan"),
        (("dgv-check", "--field", "Q", "--x", "4", "--tol", "-inf"), "-inf"),
        (("dgv-check", "--field", "Q", "--x", "4", "--tol", "0"), "0"),
        (("theta-check", "--field", "Q", "--x", "nan"), "nan"),
        (("theta-check", "--field", "Q", "--x", "2", "--x", "1,inf"), "inf"),
        (("phi-check", "--field", "sqrt5", "--z", "nan"), "nan"),
        (("dgv-check", "--field", "Q", "--x", "inf"), "inf"),
        (("inverse-check", "--field", "Q", "--x", "nan"), "nan"),
        (("hlr-check", "--x", "nan"), "nan"),
        (("hlr-check", "--x", "-inf"), "-inf"),
        (("zeros-scan", "--field", "Q", "--range", "0,inf"), "inf"),
        (("zeros-scan", "--field", "Q", "--range", "0,30", "--step", "nan"), "nan"),
        (("zeros-scan", "--field", "Q", "--range", "0,30", "--step", "-0.1"), "-0.1"),
    ])
    def test_rejected(self, capsys, zeros_file, argv, value):
        if argv[0] in ("inverse-check", "hlr-check", "dgv-check"):
            argv = argv + ("--zeros", zeros_file)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error:" in err and repr(value) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry", ["inf", "nan"])
    def test_zeros_file_entry(self, capsys, tmp_path, entry):
        p = tmp_path / "bad.zeros"
        p.write_text(f"14.134725141735\n{entry}\n")
        code, out, err = run(capsys, "hlr-check", "--x", "1", "--zeros", str(p))
        assert code == 2
        assert out == ""
        assert "line 2" in err and entry in err

    def test_zero_list_rejects_non_finite(self):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValidationError):
                iv.ZeroList(gammas=(14.134725141735, bad))

    def test_empty_zeros_file_message_is_neutral(self, capsys, tmp_path):
        p = tmp_path / "empty.zeros"
        p.write_text("# no zeros\n")
        code, out, err = run(capsys, "hlr-check", "--x", "1", "--zeros", str(p))
        assert code == 2
        assert out == ""
        assert "nonempty zero list" in err and "DGV" not in err
