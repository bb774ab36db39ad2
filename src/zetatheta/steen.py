"""Steen function and the Koshliakov-type kernels by Mellin-Barnes quadrature.

The kernels are inverse Mellin transforms of gamma-power products evaluated
on vertical lines.  The quadrature line is moved to the (approximate) saddle
of the integrand so the values stay accurate in a relative sense even deep in
the exponentially small regime; the integrand is assembled in log space since
individual gamma factors overflow long before the product does.
"""

import cmath
import math

import numpy as np

from . import numerics
from .errors import ConvergenceError, DomainError, SectorError

# Underflow cutoff: if the whole contour sits below this in log magnitude the
# integral is an exact 0 in double precision.
_LOG_UNDERFLOW = -760.0


def _sector_rate(r1, r2, arg_x, margin=0.1):
    """Exponential decay rate of the integrand on a vertical line, with sector check."""
    d = r1 + 2 * r2
    rate = math.pi * d / 4.0 - abs(arg_x)
    if rate < margin:
        raise SectorError(
            f"|Arg x| = {abs(arg_x):.4f} too close to the sector boundary "
            f"pi*{d}/4 = {math.pi * d / 4.0:.4f} for Z~_{{{r1},{r2}}}")
    return rate


def _refined_line_integral(f, c, T, panels, max_doublings=3):
    """line_integral with panel doubling until the node-doubling check passes."""
    res = numerics.line_integral(f, numerics.QuadratureSpec(
        abscissa=c, half_height=T, panel_count=panels, nodes_per_panel=24))
    for _ in range(max_doublings):
        if res.converged:
            break
        panels *= 2
        res = numerics.line_integral(f, numerics.QuadratureSpec(
            abscissa=c, half_height=T, panel_count=panels, nodes_per_panel=24))
    return res


def _gamma_power_quadrature(r1, r2, log_x, c, rate, tol, t_offset=0.0):
    """(1/2 pi i) int_(c) Gamma^r1(s/2) Gamma^r2(s) x^{-s} ds, c >= 2.

    Log-space integrand; panel count chosen from a phase estimate and then
    verified by node doubling with panel escalation.  `t_offset` widens the
    window when the integrand's mass sits off the real axis (complex x).
    """
    T = c + t_offset + (math.log(1.0 / max(tol, 1e-16)) + 25.0) / rate

    if c >= 1.1:
        def f(s):
            lg = np.zeros_like(s)
            if r1:
                lg = lg + r1 * numerics.loggamma(s / 2.0)
            if r2:
                lg = lg + r2 * numerics.loggamma(s)
            lg = lg - s * log_x
            return np.where(lg.real < _LOG_UNDERFLOW, 0.0, np.exp(lg))
    else:
        # low abscissa: magnitudes are moderate, direct products are safe
        def f(s):
            vals = np.exp(-s * log_x)
            if r1:
                vals = vals * numerics.gamma_many(s / 2.0) ** r1
            if r2:
                vals = vals * numerics.gamma_many(s) ** r2
            return vals

    d = r1 + 2 * r2
    freq = 0.5 * d * math.log(2.0 + c + T) + abs(log_x.imag) + abs(log_x.real)
    panels = max(8, int(math.ceil(2.0 * T * freq / (2.0 * math.pi) / 6.0)))
    return _refined_line_integral(f, c, T, panels)


def steen_v(x, params, c=None, tol=1e-12):
    """V(x | a_1..a_n) = (1/2 pi i) int_(c) prod Gamma(s + a_j) x^{-s} ds.

    Requires |Arg x| < pi*n/2 with a 0.1 margin and c to the right of every
    pole of the gamma factors.
    """
    x = complex(x)
    if x == 0:
        raise DomainError("steen_v undefined at x = 0")
    n = len(params)
    if n < 1:
        raise DomainError("steen_v needs at least one gamma factor")
    arg_x = cmath.phase(x)
    rate = math.pi * n / 2.0 - abs(arg_x)
    if rate < 0.1:
        raise SectorError(f"|Arg x| = {abs(arg_x):.4f} outside the Steen sector pi*{n}/2")
    log_x = cmath.log(x)
    c_min = max(-a for a in params) + 1.6
    if c is None:
        c = max(c_min, 2.0, abs(x) ** (1.0 / n))
    elif c <= max(-a for a in params):
        raise DomainError("abscissa must lie right of every gamma pole")
    T = c + (math.log(1.0 / max(tol, 1e-16)) + 25.0) / rate

    def f(s):
        lg = np.zeros_like(s)
        for a in params:
            lg = lg + numerics.loggamma(s + a)
        lg = lg - s * log_x
        return np.where(lg.real < _LOG_UNDERFLOW, 0.0, np.exp(lg))

    freq = 0.5 * n * math.log(2.0 + c + T) + abs(log_x.imag) + abs(log_x.real)
    panels = max(8, int(math.ceil(2.0 * T * freq / (2.0 * math.pi) / 6.0)))
    return _refined_line_integral(f, c, T, panels).require("in steen_v")


def _saddle_point(r1, r2, x):
    """Approximate saddle of Gamma^r1(s/2) Gamma^r2(s) x^{-s} (complex for complex x)."""
    d = r1 + 2 * r2
    return (x * 2.0 ** (r1 / 2.0)) ** (2.0 / d)


def z_tilde(r1, r2, x, c=None, tol=1e-12):
    """Kernel Z~_{r1,r2}(x): inverse Mellin transform of Gamma^r1(s/2) Gamma^r2(s).

    The line abscissa defaults to the real part of the integrand's saddle
    (clamped to [2, 2000]) so relative accuracy survives into the
    exponentially small tail; the window height covers the saddle's offset
    along the line for complex arguments.
    """
    x = complex(x)
    if x == 0:
        raise DomainError("z_tilde undefined at x = 0")
    if r1 < 0 or r2 < 0 or r1 + r2 == 0:
        raise DomainError("need r1, r2 >= 0 with r1 + r2 >= 1")
    arg_x = cmath.phase(x)
    rate = _sector_rate(r1, r2, arg_x)
    if c is None and abs(x) <= 0.4:
        # near 0 the value is residue-dominated; the ascending expansion is
        # exact there while a vertical line would drown in cancellation
        return _r0_polynomial(r1, r2)(x) + z_small_series(r1, r2, x, tol=tol)
    saddle = _saddle_point(r1, r2, x)
    if c is None:
        c = min(max(2.0, saddle.real), 2000.0)
    elif c <= 0:
        raise DomainError("abscissa must be positive")
    res = _gamma_power_quadrature(r1, r2, cmath.log(x), c, rate, tol,
                                  t_offset=abs(saddle.imag))
    return res.require("in z_tilde")


def gamma_power_principal_part(r1, r2, order=None):
    """Principal-part coefficients [c_-1, c_-2, ...] of Gamma^r1(s/2) Gamma^r2(s) at s = 0."""
    if order is None:
        order = r1 + r2
    res = numerics.laurent_coefficients(
        lambda s: numerics.gamma_many(s / 2.0) ** r1 * numerics.gamma_many(s) ** r2,
        0.0, 0.25, count=order)
    if not res.converged:
        raise ConvergenceError("gamma principal part extraction did not converge")
    return [res.coefficient(-m) for m in range(1, order + 1)]


_r0_poly_cache = {}


def _r0_polynomial(r1, r2):
    key = (r1, r2)
    if key not in _r0_poly_cache:
        principal = gamma_power_principal_part(r1, r2)
        _r0_poly_cache[key] = numerics.residue_log_polynomial(principal, scale=1.0)
    return _r0_poly_cache[key]


def r0_gamma(r1, x):
    """Residue at s = 0 of Gamma^r1(s/2) x^{-s}: a degree r1-1 polynomial in log x."""
    if r1 < 1:
        raise DomainError("r0_gamma needs r1 >= 1")
    x = complex(x)
    if x == 0:
        raise DomainError("r0_gamma undefined at x = 0")
    return _r0_polynomial(r1, 0)(x)


def r0_gamma_polynomial(r1):
    return _r0_polynomial(r1, 0)


def z_shifted(r1, r2, x, b=-0.5, route="auto", tol=1e-12):
    """Kernel Z_{r1,r2}(x) on a line -1 < b < 0; equals Z~ minus the residue at 0.

    route="subtract" computes Z~(x) - Res_0, route="direct" quadratures on
    Re(s) = b, route="series" uses the ascending expansion (best for small
    |x|), and "auto" picks by magnitude.
    """
    x = complex(x)
    if x == 0:
        raise DomainError("z_shifted undefined at x = 0")
    if not -1.0 < b < 0.0:
        raise DomainError("shift abscissa must satisfy -1 < b < 0")
    arg_x = cmath.phase(x)
    rate = _sector_rate(r1, r2, arg_x)
    if route == "auto":
        route = "series" if abs(x) <= 0.5 else "subtract"
    if route == "series":
        return z_small_series(r1, r2, x, tol=tol)
    if route == "subtract":
        return z_tilde(r1, r2, x, tol=tol) - _r0_polynomial(r1, r2)(x)
    if route != "direct":
        raise DomainError(f"unknown route {route!r}")

    log_x = cmath.log(x)

    def f(s):
        vals = np.ones_like(s)
        if r1:
            vals = vals * numerics.gamma_many(s / 2.0) ** r1
        if r2:
            vals = vals * numerics.gamma_many(s) ** r2
        return vals * np.exp(-s * log_x)

    T = (math.log(1.0 / max(tol, 1e-16)) + 25.0) / rate
    d = r1 + 2 * r2
    freq = 0.5 * d * math.log(2.0 + T) + abs(log_x.imag) + abs(log_x.real)
    panels = max(8, int(math.ceil(2.0 * T * freq / (2.0 * math.pi) / 6.0)))
    return _refined_line_integral(f, b, T, panels).require("in z_shifted")


# ---------------------------------------------------------------------------
# ascending expansion of Z about x = 0 (residues at the left poles)
# ---------------------------------------------------------------------------

_left_pole_cache = {}


def _left_pole_polynomial(r1, r2, m):
    """LogPolynomial P_m with Res_{s=-m}[Gamma^r1(s/2) Gamma^r2(s) x^{-s}] = x^m P_m(log x)."""
    key = (r1, r2, m)
    if key in _left_pole_cache:
        return _left_pole_cache[key]
    order = r2 + (r1 if m % 2 == 0 else 0)
    if order == 0:
        poly = numerics.LogPolynomial(coeffs=(0.0 + 0.0j,))
    else:
        res = numerics.laurent_coefficients(
            lambda s: numerics.gamma_many(s / 2.0) ** r1 * numerics.gamma_many(s) ** r2,
            -float(m), 0.25, count=order)
        if not res.converged:
            raise ConvergenceError(f"left-pole extraction at s = -{m} did not converge")
        principal = [res.coefficient(-j) for j in range(1, order + 1)]
        poly = numerics.residue_log_polynomial(principal, scale=1.0)
    _left_pole_cache[key] = poly
    return poly


def z_small_series(r1, r2, x, tol=1e-14, m_max=80):
    """Z_{r1,r2}(x) for small |x| as sum_m x^m P_m(log x) over the left poles."""
    x = complex(x)
    if x == 0:
        return 0.0 + 0.0j
    logx = cmath.log(x)
    total = 0.0 + 0.0j
    small_run = 0
    for m in range(1, m_max + 1):
        poly = _left_pole_polynomial(r1, r2, m)
        if poly.degree == 0 and poly.coeffs[0] == 0:
            continue
        term = x ** m * poly.eval_log(logx)
        total += term
        if abs(term) < tol * 0.01:
            small_run += 1
            if small_run >= 2:
                return total
        else:
            small_run = 0
    raise ConvergenceError(f"z_small_series needed more than {m_max} terms at |x| = {abs(x)}")


def z_small_series_many(r1, r2, xs, tol=1e-14, m_max=80):
    """Vectorized z_small_series over an array of arguments with |x| <= ~1."""
    xs = np.asarray(xs, dtype=complex)
    logx = np.log(xs)
    total = np.zeros_like(xs)
    small_run = 0
    for m in range(1, m_max + 1):
        poly = _left_pole_polynomial(r1, r2, m)
        if poly.degree == 0 and poly.coeffs[0] == 0:
            continue
        acc = np.zeros_like(xs)
        for cco in reversed(poly.coeffs):
            acc = acc * logx + cco
        term = xs ** m * acc
        total = total + term
        if float(np.max(np.abs(term))) < tol * 0.01:
            small_run += 1
            if small_run >= 2:
                return total
        else:
            small_run = 0
    raise ConvergenceError("z_small_series_many did not converge")


# ---------------------------------------------------------------------------
# tail bound for series truncation
# ---------------------------------------------------------------------------

_tail_const_cache = {}


def _tail_shape(r1, r2, y):
    d = r1 + 2 * r2
    return y ** (-(r1 + r2 - 1) / d) * math.exp(-d * (y / 2.0 ** r2) ** (2.0 / d))


def _tail_constant(r1, r2):
    """Calibrated constant: 4 * max over a log grid on [1, 50] of |Z~| / shape."""
    key = (r1, r2)
    if key in _tail_const_cache:
        return _tail_const_cache[key]
    worst = 0.0
    for y in np.geomspace(1.0, 50.0, 30):
        shape = _tail_shape(r1, r2, float(y))
        if shape < 1e-300:
            continue
        ratio = abs(z_tilde(r1, r2, float(y), tol=1e-10)) / shape
        worst = max(worst, ratio)
    const = 4.0 * max(worst, 1e-3)
    _tail_const_cache[key] = const
    return const


def z_tail_bound(r1, r2, y):
    """Majorant of |Z~_{r1,r2}(y)| for real y >= 1, for series truncation."""
    if y <= 0:
        raise DomainError("z_tail_bound needs y > 0")
    return _tail_constant(r1, r2) * _tail_shape(r1, r2, y)


def z_tail_bound_complex_many(r1, r2, abs_y, arg_y):
    """Vectorized decay majorant over an array of magnitudes at one fixed argument angle."""
    abs_y = np.asarray(abs_y, dtype=float)
    d = r1 + 2 * r2
    cosf = math.cos(2.0 * abs(arg_y) / d)
    if cosf <= 0:
        raise SectorError("argument outside the decaying sector")
    decay = np.exp(-d * (abs_y / 2.0 ** r2) ** (2.0 / d) * cosf)
    return 4.0 * _tail_constant(r1, r2) * abs_y ** (-(r1 + r2 - 1) / d) * decay
