"""Command-line surface: every checker as a subcommand with TSV output.

Exit codes: 0 all checks passed, 1 a numeric check exceeded its tolerance,
2 input or usage error.  stdout carries data only (header line plus TSV
rows, 15-significant-digit scientific notation); diagnostics go to stderr.
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
    if os.path.exists(spec_str):
        chars = fields.parse_character_file(spec_str)
        label = os.path.splitext(os.path.basename(spec_str))[0]
        return fields.make_field_abelian(chars, label=label)
    try:
        return fields.builtin_field(spec_str)
    except ZetaThetaError:
        raise ZetaThetaError(
            f"{spec_str!r} is neither a readable file nor a builtin field name")


def _parse_real(text):
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {text!r}")
    return v


def _parse_complex(text):
    parts = text.split(",")
    if len(parts) == 1:
        return complex(_parse_real(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(_parse_real(parts[0]), _parse_real(parts[1]))
    raise ValueError(f"expected re or re,im, got {text!r}")


def _parse_range(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected a,b, got {text!r}")
    return _parse_real(parts[0]), _parse_real(parts[1])


def _positive_float(text):
    """argparse type of --tol and --step: a finite number > 0."""
    v = float(text)
    if not (math.isfinite(v) and v > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return v


def _emit(columns, rows):
    print("\t".join(columns))
    for row in rows:
        print("\t".join(row))


def _cmd_field_info(args):
    F = _resolve_field(args.field_file)
    h = fields.residue_constant(F)
    c = fields.laurent_constant(F)
    _emit(["field", "r1", "r2", "degree", "disc", "H_F", "C_F"],
          [[F.label or args.field_file, str(F.r1), str(F.r2), str(F.degree),
            str(F.disc), _sci(h), _sci(c)]])
    return 0


def _checks(columns, points, check, row, tol):
    """Emit one TSV row per point; 1 iff some report's residual exceeds tol, else 0."""
    reports = [check(p) for p in points]
    _emit(columns, [row(p, rep) for p, rep in zip(points, reports)])
    return 1 if any(rep.residual > tol for rep in reports) else 0


def _cmd_theta_check(args):
    F = _resolve_field(args.field)
    points = [_parse_complex(xs) for xs in args.x]
    if -1.0 in points and args.k != 1:
        raise ValidationError(f"x = -1 (exact evaluation) needs k = 1, got k = {args.k}")

    def check(x):
        if x == -1.0:
            return theta.exact_eval_check(F, tol=args.tol)
        return theta.check_theta(F, args.k, x, tol=args.tol)

    def row(x, rep):
        if x == -1.0:
            # boundary form: Re + Im of the kernel sum against 2^r1 C_F
            return ["exact-eval", _sci(x.real), _sci(x.imag), _sci(rep.lhs.real + rep.lhs.imag),
                    _sci(rep.rhs), _sci(rep.residual), "boundary-form"]
        return ["theta", _sci(x.real), _sci(x.imag), _sci(abs(rep.lhs)), _sci(abs(rep.rhs)),
                _sci(rep.residual), "ok"]

    return _checks(["check", "x_re", "x_im", "lhs", "rhs", "residual", "status"],
                   points, check, row, args.tol)


def _cmd_inverse_check(args):
    F = _resolve_field(args.field)
    zeros = inverse_theta.load_zeros(args.zeros)
    return _checks(
        ["x_re", "x_im", "lhs", "rhs", "rel_error", "zeros"], [_parse_complex(xs) for xs in args.x],
        lambda x: inverse_theta.check_inverse_theta(F, args.k, x, zeros, tol=args.tol),
        lambda x, rep: [_sci(x.real), _sci(x.imag), _sci(abs(rep.lhs)), _sci(abs(rep.rhs)),
                        _sci(rep.residual), str(len(zeros))],
        args.tol)


def _cmd_hlr_check(args):
    zeros = inverse_theta.load_zeros(args.zeros)
    return _checks(
        ["x", "lhs", "rhs", "residual", "zeros"], [_parse_real(xs) for xs in args.x],
        lambda x: inverse_theta.hlr_check(x, zeros, tol=args.tol),
        lambda x, rep: [_sci(x), _sci(rep.lhs.real), _sci(rep.rhs.real), _sci(rep.residual),
                        str(len(zeros))],
        args.tol)


def _cmd_dgv_check(args):
    F = _resolve_field(args.field)
    zeros = inverse_theta.load_zeros(args.zeros)
    return _checks(
        ["x", "lhs", "rhs", "residual", "zeros"], [_parse_real(xs) for xs in args.x],
        lambda x: inverse_theta.dgv_check(F, x, zeros, tol=args.tol),
        lambda x, rep: [_sci(x), _sci(abs(rep.lhs)), _sci(abs(rep.rhs)), _sci(rep.residual),
                        str(len(zeros))],
        args.tol)


def _cmd_zeros_scan(args):
    F = _resolve_field(args.field)
    lo, hi = _parse_range(args.range)
    result = critical_line.scan_zeros(F, lo, hi, args.step)
    rows = [[f"{g:.12f}", _sci(r)] for g, r in zip(result.refined, result.residuals)]
    _emit(["gamma", "xi_residual"], rows)
    if args.emit:
        inverse_theta.write_zeros(args.emit, result.refined)
        print(f"wrote {len(result.refined)} zeros to {args.emit}", file=sys.stderr)
    return 0


def _cmd_phi_check(args):
    F = _resolve_field(args.field)
    return _checks(
        ["z_re", "z_im", "integral", "theta_side", "residual"],
        [_parse_complex(zs) for zs in args.z],
        lambda z: critical_line.phi_identity_check(F, z, tol=args.tol),
        lambda z, rep: [_sci(z.real), _sci(z.imag), _sci(rep.lhs.real), _sci(rep.rhs.real),
                        _sci(rep.residual)],
        args.tol)


def build_parser():
    p = argparse.ArgumentParser(
        prog="zetatheta",
        description="Numerical checks of theta relations and critical-line zeros "
                    "for Dedekind zeta functions of abelian number fields.")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("field-info", help="signature, discriminant and constants of a field")
    q.add_argument("field_file", help="character file path or builtin name (Q, sqrt5, cubic7, zeta5, gauss)")
    q.set_defaults(func=_cmd_field_info)

    q = sub.add_parser("theta-check", help="forward theta relation W(1/x) = sqrt(x) W(x)")
    q.add_argument("--field", required=True)
    q.add_argument("--k", type=int, default=1)
    q.add_argument("--x", action="append", required=True, metavar="RE[,IM]",
                   help="evaluation point; -1 routes to the exact boundary evaluation (k = 1)")
    q.add_argument("--tol", type=_positive_float, default=1e-8)
    q.set_defaults(func=_cmd_theta_check)

    q = sub.add_parser("inverse-check", help="inverse theta relation U(1/x) = sqrt(x) U(x)")
    q.add_argument("--field", required=True)
    q.add_argument("--k", type=int, default=1)
    q.add_argument("--x", action="append", required=True, metavar="RE[,IM]")
    q.add_argument("--zeros", required=True, help="zeros file (see zeros-scan --emit)")
    q.add_argument("--tol", type=_positive_float, default=1e-5)
    q.set_defaults(func=_cmd_inverse_check)

    q = sub.add_parser("hlr-check", help="Hardy-Littlewood-Ramanujan exponential identity")
    q.add_argument("--x", action="append", required=True)
    q.add_argument("--zeros", required=True)
    q.add_argument("--tol", type=_positive_float, default=1e-4)
    q.set_defaults(func=_cmd_hlr_check)

    q = sub.add_parser("dgv-check", help="Dixit-Gupta-Vatwani identity (Q and quadratic fields)")
    q.add_argument("--field", required=True)
    q.add_argument("--x", action="append", required=True)
    q.add_argument("--zeros", required=True)
    q.add_argument("--tol", type=_positive_float, default=1e-5)
    q.set_defaults(func=_cmd_dgv_check)

    q = sub.add_parser("zeros-scan", help="sign-change scan of Xi_F on the critical line")
    q.add_argument("--field", required=True)
    q.add_argument("--range", required=True, metavar="A,B")
    q.add_argument("--step", type=_positive_float, default=0.02)
    q.add_argument("--emit", help="write refined zeros to this file")
    q.set_defaults(func=_cmd_zeros_scan)

    q = sub.add_parser("phi-check", help="Phi integral identity between Xi and the theta side")
    q.add_argument("--field", required=True)
    q.add_argument("--z", action="append", required=True, metavar="RE[,IM]")
    q.add_argument("--tol", type=_positive_float, default=1e-6)
    q.set_defaults(func=_cmd_phi_check)
    return p


def _attach_signed_values(argv):
    """Rewrite `--x -0.5,0.3` as `--x=-0.5,0.3`, and likewise for every numeric option.

    argparse reads a separate token that starts with '-' and is not a plain
    number (a complex `re,im` pair is not, nor is `-inf`) as an option, not
    as a value.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--x", "--z", "--range", "--tol", "--step") and i + 1 < len(argv) \
                and re.match(r"-([\d.]|inf|nan)", argv[i + 1], re.IGNORECASE):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_attach_signed_values(list(argv)))
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except (ZetaThetaError, OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
