"""Command-line surface: every checker as a subcommand with TSV output.

Each subcommand is declared once, in `COMMANDS`: its name and help, its
options, and the function that runs it.  An option that several subcommands
take is declared once, in `OPTIONS`, and every value is parsed and validated
by its `type=` function, which names the value when it refuses it.  A check
subcommand declares its default `--tol`, its TSV columns, the check of one
point and the row of its report.  The parser is built from these
declarations once, when the module is imported, and `main` reuses it.

Exit codes: 0 all checks passed, 1 some residual is above its tolerance or
is not a number, 2 input or usage error.  stdout carries data only (header
line plus TSV rows, 15-significant-digit scientific notation); diagnostics
go to stderr.
"""

import argparse
import math
import os
import re
import sys

from . import critical_line, fields, inverse_theta, theta
from .errors import ConvergenceError, ValidationError, ZetaThetaError


def _sci(v):
    return f"{float(v):.14e}"


def _resolve_field(spec_str):
    """The builtin field of that name, else the field of the character file at that path."""
    try:
        return fields.builtin_field(spec_str)
    except ValidationError:
        pass
    if os.path.exists(spec_str):
        chars = fields.parse_character_file(spec_str)
        label = os.path.splitext(os.path.basename(spec_str))[0]
        return fields.make_field_abelian(chars, label=label)
    raise ZetaThetaError(f"{spec_str!r} is neither a readable file nor a builtin field name")


def _real(text, valid=math.isfinite, expected="a finite number"):
    """argparse type: a float v with valid(v)."""
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not valid(v):
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return v


def _positive(text):
    """argparse type of --tol and --step: a finite number > 0."""
    return _real(text, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")


def _reals(text, counts, expected):
    parts = text.split(",")
    if len(parts) not in counts:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return [_real(part) for part in parts]


def _complex(text):
    """argparse type of --x and --z: re or re,im."""
    return complex(*_reals(text, (1, 2), "re or re,im"))


def _range(text):
    """argparse type of --range: a,b."""
    return tuple(_reals(text, (2,), "a,b"))


def _emit(columns, rows):
    print("\t".join(columns))
    for row in rows:
        print("\t".join(row))


def _xy(z):
    return [_sci(z.real), _sci(z.imag)]


def _field_info(a):
    F = a.field
    _emit(["field", "r1", "r2", "degree", "disc", "H_F", "C_F"],
          [[F.label, str(F.r1), str(F.r2), str(F.degree), str(F.disc),
            _sci(fields.residue_constant(F)), _sci(fields.laurent_constant(F))]])
    return 0


def _zeros_scan(a):
    result = critical_line.scan_zeros(a.field, *a.range, a.step)
    _emit(["gamma", "xi_residual"],
          [[f"{g:.12f}", _sci(r)] for g, r in zip(result.refined, result.residuals)])
    if a.emit:
        inverse_theta.write_zeros(a.emit, result.refined)
        print(f"wrote {len(result.refined)} zeros to {a.emit}", file=sys.stderr)
    return 0


def _check(columns, point, row):
    """Run of a check subcommand: a TSV row per point, once every point's report is in.

    The exit code is 0 iff every residual is <= --tol, so a NaN residual fails.
    """
    def run(a):
        reports = [point(a, p) for p in a.points]
        _emit(columns, [row(a, p, rep) for p, rep in zip(a.points, reports)])
        return 0 if all(rep.residual <= a.tol for rep in reports) else 1
    return run


def _theta_point(a, x):
    if x != -1.0:
        return theta.check_theta(a.field, a.k, x, tol=a.tol)
    if a.k != 1:
        raise ValidationError(f"x = -1 (exact evaluation) needs k = 1, got k = {a.k}")
    return theta.exact_eval_check(a.field, tol=a.tol)


def _theta_row(a, x, rep):
    if x == -1.0:
        # boundary form: Re + Im of the kernel sum against 2^r1 C_F
        return ["exact-eval", *_xy(x), _sci(rep.lhs.real + rep.lhs.imag), _sci(rep.rhs),
                _sci(rep.residual), "boundary-form"]
    return ["theta", *_xy(x), _sci(abs(rep.lhs)), _sci(abs(rep.rhs)), _sci(rep.residual), "ok"]


# the options that several subcommands take; the points of a check go to `points`
OPTIONS = {
    "--field": dict(required=True),
    "--k": dict(type=int, default=1),
    "--x": dict(type=_complex, action="append", required=True, dest="points",
                metavar="RE[,IM]"),
    "--zeros": dict(required=True),
    "--tol": dict(type=_positive),
}
_REAL_X = dict(type=_real, metavar="X")

# name, help, options (flag -> what it adds to or changes in OPTIONS), run
COMMANDS = (
    ("field-info", "signature, discriminant and constants of a field",
     {"field": dict(metavar="field_file", help="character file path or builtin name "
                                               "(Q, sqrt5, cubic7, zeta5, gauss)")},
     _field_info),
    ("theta-check", "forward theta relation W(1/x) = sqrt(x) W(x)",
     {"--field": {}, "--k": {},
      "--x": dict(help="evaluation point; -1 routes to the exact boundary evaluation (k = 1)"),
      "--tol": dict(default=1e-8)},
     _check(["check", "x_re", "x_im", "lhs", "rhs", "residual", "status"],
            _theta_point, _theta_row)),
    ("inverse-check", "inverse theta relation U(1/x) = sqrt(x) U(x)",
     {"--field": {}, "--k": {}, "--x": {},
      "--zeros": dict(help="zeros file (see zeros-scan --emit)"), "--tol": dict(default=1e-5)},
     _check(["x_re", "x_im", "lhs", "rhs", "rel_error", "zeros"],
            lambda a, x: inverse_theta.check_inverse_theta(a.field, a.k, x, a.zeros, tol=a.tol),
            lambda a, x, rep: [*_xy(x), _sci(abs(rep.lhs)), _sci(abs(rep.rhs)),
                               _sci(rep.residual), str(len(a.zeros))])),
    ("hlr-check", "Hardy-Littlewood-Ramanujan exponential identity",
     {"--x": _REAL_X, "--zeros": {}, "--tol": dict(default=1e-4)},
     _check(["x", "lhs", "rhs", "residual", "zeros"],
            lambda a, x: inverse_theta.hlr_check(x, a.zeros, tol=a.tol),
            lambda a, x, rep: [_sci(x), _sci(rep.lhs.real), _sci(rep.rhs.real),
                               _sci(rep.residual), str(len(a.zeros))])),
    ("dgv-check", "Dixit-Gupta-Vatwani identity (Q and quadratic fields)",
     {"--field": {}, "--x": _REAL_X, "--zeros": {}, "--tol": dict(default=1e-5)},
     _check(["x", "lhs", "rhs", "residual", "zeros"],
            lambda a, x: inverse_theta.dgv_check(a.field, x, a.zeros, tol=a.tol),
            lambda a, x, rep: [_sci(x), _sci(abs(rep.lhs)), _sci(abs(rep.rhs)),
                               _sci(rep.residual), str(len(a.zeros))])),
    ("zeros-scan", "sign-change scan of Xi_F on the critical line",
     {"--field": {}, "--range": dict(type=_range, required=True, metavar="A,B"),
      "--step": dict(type=_positive, default=0.02),
      "--emit": dict(help="write refined zeros to this file")},
     _zeros_scan),
    ("phi-check", "Phi integral identity between Xi and the theta side",
     {"--field": {}, "--z": OPTIONS["--x"], "--tol": dict(default=1e-6)},
     _check(["z_re", "z_im", "integral", "theta_side", "residual"],
            lambda a, z: critical_line.phi_identity_check(a.field, z, tol=a.tol),
            lambda a, z, rep: [*_xy(z), _sci(rep.lhs.real), _sci(rep.rhs.real),
                               _sci(rep.residual)])),
)


def _build_parser():
    """The parser of COMMANDS, and the flags of every option that has a `type=`."""
    parser = argparse.ArgumentParser(
        prog="zetatheta",
        description="Numerical checks of theta relations and critical-line zeros "
                    "for Dedekind zeta functions of abelian number fields.")
    sub = parser.add_subparsers(dest="command", required=True)
    numeric = set()
    for name, help_text, options, run in COMMANDS:
        q = sub.add_parser(name, help=help_text)
        for flag, changes in options.items():
            action = q.add_argument(flag, **{**OPTIONS.get(flag, {}), **changes})
            if action.type is not None:
                numeric.update(action.option_strings)
        q.set_defaults(func=run)
    return parser, frozenset(numeric)


PARSER, _NUMERIC = _build_parser()


def _attach_signed_values(argv):
    """Rewrite `--x -0.5,0.3` as `--x=-0.5,0.3`, and likewise for every numeric option.

    argparse reads a separate token that starts with '-' and is not a plain
    number (a complex `re,im` pair is not, nor is `-inf`) as an option, not
    as a value.
    """
    out = []
    for tok in argv:
        if out and out[-1] in _NUMERIC and re.match(r"-([\d.]|inf|nan)", tok, re.IGNORECASE):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None):
    try:
        args = PARSER.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        if "field" in args:
            args.field = _resolve_field(args.field)
        if "zeros" in args:
            args.zeros = inverse_theta.load_zeros(args.zeros)
        return args.func(args)
    except ConvergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except (ZetaThetaError, OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
