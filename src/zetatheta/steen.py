"""Steen function and the Koshliakov-type kernels by Mellin-Barnes quadrature.

The kernels are inverse Mellin transforms of gamma-power products evaluated
on vertical lines.  The quadrature line is moved to the (approximate) saddle
of the integrand so the values stay accurate in a relative sense even deep in
the exponentially small regime; the integrand is assembled in log space since
individual gamma factors overflow long before the product does.  Every
line integral is one nested trapezoid rule (numerics.line_integral_many),
and the quadrature entries of a kernel array share each of its step
halvings.
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
    """Exponential decay rate of Gamma^r1(s/2) Gamma^r2(s) x^{-s} on a vertical line, per Arg x.

    SectorError when any |Arg x| comes within 0.1 of pi d/4, d = r1 + 2 r2;
    with r1 = 0, r2 = n it is the sector |Arg x| < pi n/2 of an n-factor
    steen_v.
    """
    d = r1 + 2 * r2
    worst = float(np.max(np.abs(arg_x), initial=0.0))
    if math.pi * d / 4.0 - worst < 0.1:
        raise SectorError(
            f"|Arg x| = {worst:.4f} too close to the sector boundary "
            f"pi*{d}/4 = {math.pi * d / 4.0:.4f}")
    return math.pi * d / 4.0 - np.abs(arg_x)


def _mellin_barnes(f, c, log_x, d, rate, gap, tol, t_offset):
    """(1/2 pi i) int_(c_i) f(s, i) ds for each entry i of a batch of gamma-product integrands times x_i^{-s}.

    c and log_x are arrays over the entries; rate, gap and t_offset are
    arrays like them or scalars for all.  The window |Im s| <= T runs until the integrand, decaying like
    e^{-rate |Im s|}, is below tol, measured from c0 = max(c, 0) and widened
    by `t_offset` when the integrand's mass sits off the real axis (complex
    x).  One nested trapezoid rule (numerics.line_integral_many) integrates
    all entries at once.  Its first step is the smallest of T/32,
    1.5 pi/freq and 2 pi gap/30.  freq = d/2 log(2 + c0 + T) + |log x|_1 is
    the phase estimate, where d is the growth coefficient of the gamma phase
    (the degree r1 + 2 r2 for the kernels, the factor count n for steen_v).
    `gap` is the distance from the line to the nearest gamma pole: the
    step-h sum errs by alias terms of size about e^{-2 pi gap/h}.  An entry
    that has not converged after the last step halving raises
    ConvergenceError: the one verdict on whether a Mellin-Barnes integral
    converged.
    """
    c0 = np.maximum(c, 0.0)
    T = c0 + t_offset + (math.log(1.0 / max(tol, 1e-16)) + 25.0) / rate
    freq = 0.5 * d * np.log(2.0 + c0 + T) + np.abs(log_x.imag) + np.abs(log_x.real)
    step = np.minimum(np.minimum(T / 32.0, 1.5 * math.pi / freq), 2.0 * math.pi * gap / 30.0)
    values, deltas, converged = numerics.line_integral_many(f, c, T, step)
    if not np.all(converged):
        i = int(np.argmin(converged))
        raise ConvergenceError(f"Mellin-Barnes integral on Re(s) = {c[i]} did not converge in "
                               f"{numerics._TRAPEZOID_HALVINGS} step halvings: "
                               f"halving delta {deltas[i]:.2e}")
    return values


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
    rate = _sector_rate(0, n, cmath.phase(x))
    log_x = cmath.log(x)
    pole = max(-a for a in params)
    if c is None:
        c = max(pole + 1.6, 2.0, abs(x) ** (1.0 / n))
    elif c <= pole:
        raise DomainError("abscissa must lie right of every gamma pole")

    def f(s, entry):
        lg = np.zeros_like(s)
        for a in params:
            lg = lg + numerics.loggamma(s + a)
        lg = lg - s * log_x
        return np.where(lg.real < _LOG_UNDERFLOW, 0.0, np.exp(lg))

    return complex(_mellin_barnes(f, np.array([float(c)]), np.array([log_x]), n, rate,
                                  c - pole, tol, 0.0)[0])


def _saddle_point(r1, r2, x):
    """Approximate saddle of Gamma^r1(s/2) Gamma^r2(s) x^{-s} (complex for complex x)."""
    d = r1 + 2 * r2
    return (x * 2.0 ** (r1 / 2.0)) ** (2.0 / d)


def _kernel_lines(r1, r2, xs, c, tol, t_offset):
    """Inverse Mellin transform of Gamma^r1(s/2) Gamma^r2(s) at each xs[i] on the line Re(s) = c[i].

    That is Z~_{r1,r2}(x) for c > 0 and Z = Z~ - Res_0 for -1 < c < 0, where
    the line has crossed the pole at 0 and no other.  `t_offset` widens each
    window by the offset of the integrand's mass along the line.  All entries
    go through one _mellin_barnes call, so log_gamma_factor runs once per
    chunk of nodes per step halving.
    """
    c = np.asarray(c, dtype=float)
    if not np.all((c > 0) | ((-1.0 < c) & (c < 0))):
        raise DomainError("abscissa must satisfy c > 0 or -1 < c < 0")
    xs = np.asarray(xs, dtype=complex)
    rate = _sector_rate(r1, r2, np.angle(xs))
    log_x = np.log(xs)
    gap = np.where(c > 0, c, np.minimum(-c, 1.0 + c))

    def f(s, entry):
        lg = numerics.log_gamma_factor(r1, r2, s) - s * log_x[entry]
        return np.where(lg.real < _LOG_UNDERFLOW, 0.0, np.exp(lg))

    return _mellin_barnes(f, c, log_x, r1 + 2 * r2, rate, gap, tol, t_offset)


def _kernel_many(r1, r2, xs, tol, shifted):
    """(Z~_{r1,r2}, or Z = Z~ - Res_0 when `shifted`, on an array; quadrature charge per entry).

    The one route rule of the kernels.  Near 0 (|x| <= 0.4) the value is
    residue-dominated: the ascending expansion is exact there while a vertical
    line would drown in cancellation.  It runs in two magnitude blocks, since
    its stop rule reads the largest term of a block.  Further out each entry
    gets a line integral through the real part of the integrand's saddle
    (clamped to [2, 2000]), so relative accuracy survives into the
    exponentially small tail; the window covers the saddle's offset along the
    line for complex x.  All those lines are integrated together, one
    _kernel_lines call per array.  The charge is 1e-11 |Z~| where a
    quadrature ran (the accuracy its step-halving check holds) and 0
    elsewhere.  The sector is checked for the whole array before any work.
    """
    xs = np.asarray(xs, dtype=complex)
    if r1 < 0 or r2 < 0 or r1 + r2 == 0:
        raise DomainError("need r1, r2 >= 0 with r1 + r2 >= 1")
    if np.any(xs == 0):
        raise DomainError("the kernels are undefined at x = 0")
    _sector_rate(r1, r2, np.angle(xs))
    values = np.zeros_like(xs)
    charge = np.zeros(xs.shape)
    abs_x = np.abs(xs)
    near = abs_x <= 0.4
    # Res_0 is read only where an entry needs it: its first read costs a contour
    for block in (near & (abs_x > 0.05), abs_x <= 0.05):
        if np.any(block):
            values[block] = z_small_series_many(r1, r2, xs[block], tol=tol)
            if not shifted:
                r0 = _r0_polynomial(r1, r2)
                values[block] += [r0(x) for x in xs[block]]
    far = np.nonzero(~near)[0]
    if len(far):
        saddle = _saddle_point(r1, r2, xs[far])
        z = _kernel_lines(r1, r2, xs[far], np.clip(saddle.real, 2.0, 2000.0), tol,
                          np.abs(saddle.imag))
        charge[far] = [1e-11 * abs(complex(v)) for v in z]
        if shifted:
            r0 = _r0_polynomial(r1, r2)
            z = z - [r0(x) for x in xs[far]]
        values[far] = z
    return values, charge


def z_tilde_many(r1, r2, xs, tol=1e-12):
    """Kernel Z~_{r1,r2} on an array: inverse Mellin transform of Gamma^r1(s/2) Gamma^r2(s)."""
    return _kernel_many(r1, r2, xs, tol, shifted=False)[0]


def z_tilde(r1, r2, x, tol=1e-12):
    """Kernel Z~_{r1,r2}(x) at one point; see z_tilde_many."""
    return complex(z_tilde_many(r1, r2, [x], tol)[0])


def z_shifted_many(r1, r2, xs, tol=1e-12):
    """(Z_{r1,r2} = Z~ - Res_0 on an array, quadrature charge per entry); see _kernel_many."""
    return _kernel_many(r1, r2, xs, tol, shifted=True)


def z_shifted(r1, r2, x, tol=1e-12):
    """Kernel Z_{r1,r2}(x) = Z~(x) - Res_{s=0}, the transform on a line -1 < Re s < 0."""
    return complex(z_shifted_many(r1, r2, [x], tol)[0][0])


def _gamma_power(r1, r2):
    return lambda s: np.exp(numerics.log_gamma_factor(r1, r2, s))


def _r0_polynomial(r1, r2):
    """LogPolynomial P with Res_{s=0}[Gamma^r1(s/2) Gamma^r2(s) x^{-s}] = P(log x)."""
    return numerics.memo(("gamma_power_r0", r1, r2), lambda: numerics.residue_polynomial(
        _gamma_power(r1, r2), 0.0, r1 + r2, scale=1.0))


# ---------------------------------------------------------------------------
# ascending expansion of Z about x = 0 (residues at the left poles)
# ---------------------------------------------------------------------------

def _left_pole_polynomial(r1, r2, m):
    """LogPolynomial P_m with Res_{s=-m}[Gamma^r1(s/2) Gamma^r2(s) x^{-s}] = x^m P_m(log x)."""
    return numerics.memo(("gamma_power_left_pole", r1, r2, m), lambda: numerics.residue_polynomial(
        _gamma_power(r1, r2), -float(m), r2 + (r1 if m % 2 == 0 else 0), scale=1.0))


def z_small_series_many(r1, r2, xs, tol=1e-14):
    """Z_{r1,r2}(x) = sum_m x^m P_m(log x) over the left poles, on an array of |x| <= ~1.

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
