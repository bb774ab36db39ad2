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
    _require_sector(field, log_x)
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
        # falling from i on, or underflowed: every later majorant is an exact 0 too
        usable[:-1] &= (bounds[1:] < bounds[:-1]) | (bounds[1:] == 0.0)
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


def _s_series_many(field, k, log_xs, tol):
    """Yield (S_{F,k}, n_stop, error terms) at x = e^{log_x}, on the sheet log_x names, per log_x.

    Each sheet has its own _series_plan; the kernel entries of all sheets are one
    steen._kernel_many call.  The error terms are series_tail, the certified remainder
    past n_stop, and kernel_quadrature, sum_n |a(n)| times the proven error of Z~(y n).
    """
    plans = [_series_plan(field, k, log_x, tol) for log_x in log_xs]
    ns = [np.nonzero(table.values[1:n_stop + 1])[0] + 1 for n_stop, table, _ in plans]
    ys = [fields.kernel_scale(field, k) * cmath.exp(log_x / 2.0) * n for log_x, n in zip(log_xs, ns)]
    z, charge = steen._kernel_many(k * field.r1, k * field.r2, np.concatenate(ys), shifted=False)
    cut = np.cumsum([len(n) for n in ns])[:-1]
    for (n_stop, table, tail), n, zs, qs in zip(plans, ns, np.split(z, cut), np.split(charge, cut)):
        total = 0.0 + 0.0j
        # summed in n order, one term at a time, so the value does not hang on numpy's summation
        for m, zm in zip(n, zs):
            total += table[m] * complex(zm)
        yield total, n_stop, {"series_tail": tail,
                              "kernel_quadrature": float(np.sum(np.abs(table.values[n]) * qs))}


def _s_series_log(field, k, log_x, tol):
    return next(_s_series_many(field, k, [log_x], tol))


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
    """LogPolynomial P with Res_{s=0}[Omega_F^k(s) x^{-s/2}] = P(log x).

    Omega_F has a simple pole at s = 0; its jet there is that of the prefactor
    (fields.prefactor_jet) times that of zeta_F (numerics.dedekind_zeta_jet).
    """
    return numerics.memo(("r0_theta", field.cache_key, k), lambda: numerics.jet_residue_polynomial(
        k, lambda n: (fields.prefactor_jet(field, [0], 1, n)
                      * numerics.dedekind_zeta_jet(field, [0.0], n)) ** k, 0.5))


def r0_theta(field, k, x):
    """Residue at s = 0 of Omega_F^k(s) x^{-s/2}; for k = 1 it is 2^r1 C_F."""
    return r0_theta_polynomial(field, k).eval_log(_log_of(x, "r0_theta"))


def w_theta(field, k, x, tol=1e-10):
    """W_{F,k}(x) = S_{F,k}(x) - R_0(x), x on the principal sheet."""
    log_x = _log_of(x, "w_theta")
    return _s_series_log(field, k, log_x, tol)[0] - r0_theta_polynomial(field, k).eval_log(log_x)


def check_theta_many(field, k, xs, tol=1e-8):
    """Verify W(1/x) = sqrt(x) W(x) per x: lhs W(1/x), rhs sqrt(x) W(x), relative residual.

    1/x is log(1/x) = -log x, on the sheet of x; the series at every x and 1/x are one
    _s_series_many call.  The residual is |lhs - rhs| over the largest modulus the sides
    are summed from: |lhs|, |rhs|, |S| and |R_0| at 1/x, and sqrt(x) times them at x, so
    a side near a zero of W does not read rounding as a failure.  The budget's terms are
    those of the two series of an x summed.  At x = -1, log x = i pi (in the sector for
    d >= 3), the relation reads conj(W) = i W, that is Re S + Im S = 2^r1 C_F.
    """
    log_xs = [_log_of(x, "check_theta") for x in xs]
    series = list(_s_series_many(field, k, [s for log_x in log_xs for s in (log_x, -log_x)],
                                 min(tol * 1e-2, 1e-10)))
    r0 = r0_theta_polynomial(field, k)
    reports = []
    for log_x, (s_x, _, budget_x), (s_inv, _, budget_inv) in zip(log_xs, series[::2], series[1::2]):
        r0_x, r0_inv, root = r0.eval_log(log_x), r0.eval_log(-log_x), abs(cmath.exp(log_x / 2.0))
        lhs, rhs = s_inv - r0_inv, cmath.exp(log_x / 2.0) * (s_x - r0_x)
        scale = max(abs(lhs), abs(rhs), abs(s_inv), abs(r0_inv), root * abs(s_x), root * abs(r0_x), 1e-30)
        reports.append(Report(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs) / scale,
                              budget={key: budget_x[key] + budget_inv[key] for key in budget_x}))
    return reports


def check_theta(field, k, x, tol=1e-8):
    """check_theta_many at the one point x."""
    return check_theta_many(field, k, [x], tol)[0]

