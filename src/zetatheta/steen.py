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


def _sector_rate(r1, r2, arg_x):
    """Exponential decay rate of the integrand on a vertical line, with sector check."""
    d = r1 + 2 * r2
    rate = math.pi * d / 4.0 - abs(arg_x)
    if rate < 0.1:
        raise SectorError(
            f"|Arg x| = {abs(arg_x):.4f} too close to the sector boundary "
            f"pi*{d}/4 = {math.pi * d / 4.0:.4f} for Z~_{{{r1},{r2}}}")
    return rate


def _mellin_barnes(f, c, log_x, d, rate, tol, t_offset=0.0):
    """(1/2 pi i) int_(c) f(s) ds for a gamma-product integrand f(s) times x^{-s}.

    The window |Im s| <= T runs until the integrand, decaying like
    e^{-rate |Im s|}, is below tol, measured from c0 = max(c, 0) and widened
    by `t_offset` when the integrand's mass sits off the real axis (complex
    x).  The panel count comes from the phase estimate
    freq = d/2 * log(2 + c0 + T) + |log x|_1, where d is the growth
    coefficient of the gamma phase (the degree r1 + 2 r2 for the kernels,
    the factor count n for steen_v); it is doubled up to three times until
    the node-doubling check passes, else ConvergenceError: the one verdict
    on whether a Mellin-Barnes integral converged.
    """
    c0 = max(c, 0.0)
    T = c0 + t_offset + (math.log(1.0 / max(tol, 1e-16)) + 25.0) / rate
    freq = 0.5 * d * math.log(2.0 + c0 + T) + abs(log_x.imag) + abs(log_x.real)
    panels = max(8, int(math.ceil(2.0 * T * freq / (2.0 * math.pi) / 6.0)))
    for doubling in range(4):
        res = numerics.line_integral(f, numerics.QuadratureSpec(
            abscissa=c, half_height=T, panel_count=panels << doubling, nodes_per_panel=24))
        if res.converged:
            return res.value
    raise ConvergenceError(f"Mellin-Barnes integral on Re(s) = {c} did not converge with "
                           f"{panels << 3} panels: node-doubling delta {res.doubling_delta:.2e}")


def _gamma_power_integrand(r1, r2, log_x, c):
    """s -> Gamma^r1(s/2) Gamma^r2(s) x^{-s} on the line Re(s) = c, for arrays of s.

    Assembled in log space at every abscissa, since single gamma factors
    overflow long before the product does.
    """
    def f(s):
        lg = numerics.log_gamma_factor(r1, r2, s) - s * log_x
        return np.where(lg.real < _LOG_UNDERFLOW, 0.0, np.exp(lg))
    return f


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

    def f(s):
        lg = np.zeros_like(s)
        for a in params:
            lg = lg + numerics.loggamma(s + a)
        lg = lg - s * log_x
        return np.where(lg.real < _LOG_UNDERFLOW, 0.0, np.exp(lg))

    return _mellin_barnes(f, c, log_x, n, rate, tol)


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
    log_x = cmath.log(x)
    return _mellin_barnes(_gamma_power_integrand(r1, r2, log_x, c), c, log_x, r1 + 2 * r2,
                          rate, tol, t_offset=abs(saddle.imag))


def _gamma_power(r1, r2):
    return lambda s: np.exp(numerics.log_gamma_factor(r1, r2, s))


def _r0_polynomial(r1, r2):
    """LogPolynomial P with Res_{s=0}[Gamma^r1(s/2) Gamma^r2(s) x^{-s}] = P(log x)."""
    return numerics.memo(("gamma_power_r0", r1, r2), lambda: numerics.residue_polynomial(
        _gamma_power(r1, r2), 0.0, r1 + r2, scale=1.0))


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
    return _mellin_barnes(_gamma_power_integrand(r1, r2, log_x, b), b, log_x, r1 + 2 * r2,
                          rate, tol)


# ---------------------------------------------------------------------------
# ascending expansion of Z about x = 0 (residues at the left poles)
# ---------------------------------------------------------------------------

def _left_pole_polynomial(r1, r2, m):
    """LogPolynomial P_m with Res_{s=-m}[Gamma^r1(s/2) Gamma^r2(s) x^{-s}] = x^m P_m(log x)."""
    return numerics.memo(("gamma_power_left_pole", r1, r2, m), lambda: numerics.residue_polynomial(
        _gamma_power(r1, r2), -float(m), r2 + (r1 if m % 2 == 0 else 0), scale=1.0))


def z_small_series(r1, r2, x, tol=1e-14):
    """Z_{r1,r2}(x) for small |x| as sum_m x^m P_m(log x) over the left poles."""
    x = complex(x)
    if x == 0:
        return 0.0 + 0.0j
    return complex(z_small_series_many(r1, r2, np.array([x]), tol=tol)[0])


def z_small_series_many(r1, r2, xs, tol=1e-14):
    """Vectorized z_small_series over an array of arguments with |x| <= ~1.

    Stops after two consecutive orders whose largest term is below tol/100;
    ConvergenceError if that takes more than 80 orders.
    """
    xs = np.asarray(xs, dtype=complex)
    logx = np.log(xs)
    total = np.zeros_like(xs)
    small_run = 0
    m_max = 80
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
    raise ConvergenceError(f"z_small_series needed more than {m_max} terms "
                           f"at |x| up to {float(np.max(np.abs(xs))):.3g}")


# ---------------------------------------------------------------------------
# tail bound for series truncation
# ---------------------------------------------------------------------------

def z_tail_bound(r1, r2, y):
    """Majorant of Z~_{r1,r2}(y) for real y > 0: z_tail_bound_complex_many at angle 0."""
    if y <= 0:
        raise DomainError("z_tail_bound needs y > 0")
    return float(z_tail_bound_complex_many(r1, r2, [y], 0.0)[0])


def z_tail_bound_complex_many(r1, r2, abs_y, arg_y):
    """Majorant of |Z~_{r1,r2}(|y| e^{i arg_y})| over an array of |y| at one angle.

    Proven, with no quadrature.  Real Y > 0: Z~ is the multiplicative
    convolution of r1 copies of 2 e^{-u^2} and r2 copies of e^{-u}, the
    inverse Mellin transforms of Gamma(s/2) and Gamma(s), so it is positive
    and decreasing, and for every c > 0
        Z~(Y) Y^c / c <= int_0^Y Z~(u) u^{c-1} du <= G(c) = Gamma^r1(c/2) Gamma^r2(c),
    that is Z~(Y) <= c G(c) Y^{-c}.  c is the saddle (2^{r1/2} Y)^{2/d},
    clamped to c >= 1; any c > 0 gives a bound, so the choice sets only its
    tightness (about sqrt(pi d c) times Z~).  Complex y with |arg y| < pi d/4:
    rotate the variable of each factor with kernel e^{-u^p} by 2 arg_y/(d p);
    its modulus is then the real kernel at v cos^{1/p}(2 arg_y/d), so
    |Z~(y)| <= Z~(|y| cos^{d/2}(2 arg_y/d)), with equality for (1, 0).
    """
    d = r1 + 2 * r2
    cosf = math.cos(2.0 * abs(arg_y) / d)
    if cosf <= 0:
        raise SectorError("argument outside the decaying sector")
    y = np.asarray(abs_y, dtype=float) * cosf ** (d / 2.0)
    c = np.maximum(1.0, (2.0 ** (r1 / 2.0) * y) ** (2.0 / d))
    return np.exp(np.log(c) - c * np.log(y) + numerics.log_gamma_factor(r1, r2, c).real)
