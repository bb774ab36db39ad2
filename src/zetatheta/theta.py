"""Forward theta side: the ideal-count kernel sums and the theta relation.

W(x) is an infinite sum of Mellin-Barnes kernel values weighted by ideal
counts, minus the residue of the completed zeta power at s = 0; the relation
W(1/x) = sqrt(x) W(x) is the number-field counterpart of the Jacobi theta
transformation and holds exactly when the functional equation does, so its
numerical residual is the verification target.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import fields, numerics, steen
from .errors import (
    CoefficientTableExhausted,
    DomainError,
    SectorError,
)


@dataclass(frozen=True)
class Report:
    """What every check returns: both sides, the residual its tol judges, its error terms."""
    lhs: complex
    rhs: complex
    residual: float
    budget: dict            # error terms the check computed on the way, by name


def _require_sector(field, log_x):
    """SectorError unless |Im log x| < pi d/2 - 0.2: the sector of the theta kernels."""
    d = field.degree
    if abs(log_x.imag) >= math.pi * d / 2.0 - 0.2:
        raise SectorError(
            f"|Arg x| must stay below pi*{d}/2 - 0.2 for {field.label or 'field'}")


def _series_plan(field, k, log_x, tol):
    """Pick the truncation point and certified tail for the forward series at x = e^{log_x}."""
    kr1, kr2 = k * field.r1, k * field.r2
    abs_y1 = fields.kernel_scale(field, k) * math.exp(log_x.real / 2.0)
    arg_y = log_x.imag / 2.0
    n_table, n_table_max = 128, 1 << 21
    while True:
        table = fields.power_coeffs(field, k, n_table)
        vals = table.values[1:]
        n_idx = np.arange(1, n_table + 1, dtype=float)
        c_maj = 1.5 * float(np.max(vals / np.sqrt(n_idx)))
        bounds = c_maj * np.sqrt(n_idx) * \
            steen.z_tail_bound_complex_many(kr1, kr2, abs_y1 * n_idx, arg_y)
        usable = (abs_y1 * n_idx >= 1.5) & (bounds < tol / 10.0)
        usable[:-1] &= bounds[1:] < bounds[:-1]
        for i in np.nonzero(usable[:-1])[0]:
            ratio = min(bounds[i + 1] / max(bounds[i], 1e-300), 0.95)
            tail = bounds[i + 1] / (1.0 - ratio)
            if tail < tol / 2.0:
                return int(i + 1), table, float(tail)
        if n_table >= n_table_max:
            raise CoefficientTableExhausted(
                f"series for {field.label} needs more than {n_table_max} coefficients "
                f"at |x| = {math.exp(log_x.real):.3g}, tol = {tol:g}")
        n_table *= 2


def _s_series_log(field, k, log_x, tol):
    """(S_{F,k}, n_stop, error terms) at x = e^{log_x}, on the sheet log_x names.

    The error terms are series_tail, the certified remainder past n_stop, and
    kernel_quadrature, sum_n |a(n)| times the proven quadrature error of Z~(y n).
    """
    _require_sector(field, log_x)
    kr1, kr2 = k * field.r1, k * field.r2
    y1 = fields.kernel_scale(field, k) * cmath.exp(log_x / 2.0)
    n_stop, table, tail = _series_plan(field, k, log_x, tol)
    ns = np.nonzero(table.values[1:n_stop + 1])[0] + 1
    z, charge = steen._kernel_many(kr1, kr2, y1 * ns, 1e-13, shifted=False)
    total = 0.0 + 0.0j
    # summed in n order, one term at a time, so the value does not hang on numpy's summation
    for n, zn in zip(ns, z):
        total += table[n] * complex(zn)
    quadrature = float(np.sum(np.abs(table.values[ns]) * charge))
    return total, n_stop, {"series_tail": tail, "kernel_quadrature": quadrature}


def _log_of(x, name):
    x = complex(x)
    if x == 0:
        raise DomainError(f"{name} undefined at x = 0")
    return cmath.log(x)


def s_series(field, k, x, tol=1e-10):
    """S_{F,k}(x): sum over n of a_{F,k}(n) * Z~_{k r1, k r2}(scale * n * sqrt(x)).

    Truncated where the kernel tail bound times the coefficient majorant
    certifies the remainder below `tol`.  x is taken on the principal sheet.
    """
    return _s_series_log(field, k, _log_of(x, "s_series"), tol)[0]


def r0_theta_polynomial(field, k):
    """LogPolynomial P with Res_{s=0}[Omega_F^k(s) x^{-s/2}] = P(log x)."""
    return numerics.memo(("r0_theta", field.cache_key, k), lambda: numerics.residue_polynomial(
        lambda s: fields.omega_many(field, s, k), 0.0, k, scale=0.5))


def r0_theta(field, k, x):
    """Residue at s = 0 of Omega_F^k(s) x^{-s/2}; for k = 1 it is 2^r1 C_F."""
    return r0_theta_polynomial(field, k).eval_log(_log_of(x, "r0_theta"))


def w_theta(field, k, x, tol=1e-10):
    """W_{F,k}(x) = S_{F,k}(x) - R_0(x), x on the principal sheet."""
    log_x = _log_of(x, "w_theta")
    return _s_series_log(field, k, log_x, tol)[0] - r0_theta_polynomial(field, k).eval_log(log_x)


def check_theta(field, k, x, tol=1e-8):
    """Verify W(1/x) = sqrt(x) W(x): lhs W(1/x), rhs sqrt(x) W(x), relative residual.

    1/x is taken as log(1/x) = -log x, so both sides sit on the sheet of x.
    The budget's series_tail is the certified remainder of both truncated
    series and kernel_quadrature the proven quadrature error of their terms.
    """
    log_x = _log_of(x, "check_theta")
    inner = min(tol * 1e-2, 1e-10)
    s_x, _, budget_x = _s_series_log(field, k, log_x, inner)
    s_inv, _, budget_inv = _s_series_log(field, k, -log_x, inner)
    r0 = r0_theta_polynomial(field, k)
    lhs = s_inv - r0.eval_log(-log_x)
    rhs = cmath.exp(log_x / 2.0) * (s_x - r0.eval_log(log_x))
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
    return Report(lhs=lhs, rhs=rhs, residual=rel,
                  budget={key: budget_x[key] + budget_inv[key] for key in budget_x})


def exact_eval_check(field, tol=1e-8):
    """Evaluation of the kernel sum at x = -1 for degree >= 3 against 2^r1 C_F.

    The two sides come from independent routes: saddle-line quadratures summed
    against the ideal counts, versus the Laurent constant of zeta_F at s = 0.

    lhs is the kernel sum of a(n) Z~(scale * n * i) on the sheet log x = i pi,
    rhs is 2^r1 C_F.  The sum itself is genuinely complex: with the principal
    branch, letting x -> -1 from above in the theta relation gives
    conj(W(-1)) = i W(-1), so the consequence of the relation is
    Re(lhs) + Im(lhs) = 2^r1 C_F, and the residual is that boundary form;
    the flat distance |lhs - rhs| does not vanish.  The budget holds the
    series' series_tail and kernel_quadrature (see _s_series_log).
    """
    if field.degree < 3:
        raise DomainError("exact evaluation needs a field of degree >= 3")
    lhs, _, budget = _s_series_log(field, 1, 1j * math.pi, tol)
    rhs = 2.0 ** field.r1 * fields.laurent_constant(field)
    return Report(lhs=lhs, rhs=rhs, residual=abs(lhs.real + lhs.imag - rhs), budget=budget)
