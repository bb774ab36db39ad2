"""Steen function and the Koshliakov-type kernels by Mellin-Barnes quadrature.

The kernels are inverse Mellin transforms of gamma-power products evaluated
on vertical lines.  The quadrature line is moved to the (approximate) saddle
of the integrand so the values stay accurate in a relative sense even deep in
the exponentially small regime; the integrand is assembled in log space since
individual gamma factors overflow long before the product does.  Every
line integral is one nested trapezoid rule (numerics.line_integral_many).
A kernel line takes its step and window from a proven error bound, the
trapezoid alias identity plus a Stirling tail (_line_plan), so one level of
nodes usually settles it and each value carries its proven quadrature
error; steen_v and _kernel_lines' lines are checked by step halving.  The
quadrature entries of a kernel array share each level of nodes.
"""

import cmath
import math

import numpy as np

from . import numerics
from .errors import ConvergenceError, DomainError, SectorError

# Underflow cutoff: an integrand value, or a kernel's majorant, below this in
# log magnitude is an exact 0 in double precision.
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


def _mellin_barnes(f, c, T, step, error=None):
    """((1/2 pi i) int_(c_i) f(s, i) ds, its error) for each entry i of a batch of integrands.

    One nested trapezoid rule (numerics.line_integral_many) integrates all
    entries at once on |Im s| <= T[i] from the first step step[i].  Its stop
    rule is the proven error `error(entries, steps)` where the caller has
    one, else the halving delta.  An entry that has not met it after the
    last step halving raises ConvergenceError: the one verdict on whether a
    Mellin-Barnes integral converged.
    """
    values, errors, converged = numerics.line_integral_many(f, c, T, step, error)
    if not np.all(converged):
        i = int(np.argmin(converged))
        raise ConvergenceError(f"Mellin-Barnes integral on Re(s) = {c[i]} did not converge in "
                               f"{numerics._TRAPEZOID_HALVINGS} step halvings: "
                               f"error {errors[i]:.2e}")
    return values, errors


def _halving_plan(c, log_x, d, rate, gap, tol, t_offset):
    """(T, first step) of lines checked by step halving: steen_v and _kernel_lines.

    The window |Im s| <= T runs until the integrand, decaying like
    e^{-rate |Im s|}, is below tol, measured from c0 = max(c, 0) and widened
    by `t_offset` when the integrand's mass sits off the real axis (complex
    x).  The first step is the smallest of T/32, 1.5 pi/freq and
    2 pi gap/30.  freq = d/2 log(2 + c0 + T) + |log x|_1 is the phase
    estimate, where d is the growth coefficient of the gamma phase (the
    degree r1 + 2 r2 for the kernels, the factor count n for steen_v).
    `gap` is the distance from the line to the nearest gamma pole: the
    step-h sum errs by alias terms of size about e^{-2 pi gap/h}.
    """
    c0 = np.maximum(c, 0.0)
    T = c0 + t_offset + (math.log(1.0 / max(tol, 1e-16)) + 25.0) / rate
    freq = 0.5 * d * np.log(2.0 + c0 + T) + np.abs(log_x.imag) + np.abs(log_x.real)
    return T, np.minimum(np.minimum(T / 32.0, 1.5 * math.pi / freq), 2.0 * math.pi * gap / 30.0)


def steen_v(x, params, c=None, tol=1e-12):
    """V(x | a_1..a_n) = (1/2 pi i) int_(c) prod Gamma(s + a_j) x^{-s} ds.

    Requires |Arg x| < pi*n/2 with a 0.1 margin and c to the right of every
    pole of the gamma factors.  The line is checked by step halving.
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

    c = np.array([float(c)])
    T, step = _halving_plan(c, np.array([log_x]), n, rate, c - pole, tol, 0.0)
    return complex(_mellin_barnes(f, c, T, step)[0][0])


def _saddle_point(r1, r2, x):
    """Approximate saddle of Gamma^r1(s/2) Gamma^r2(s) x^{-s} (complex for complex x)."""
    d = r1 + 2 * r2
    return (x * 2.0 ** (r1 / 2.0)) ** (2.0 / d)


def _kernel_integrand(r1, r2, log_x):
    """f(s, entry) = Gamma^r1(s/2) Gamma^r2(s) x_entry^{-s}, assembled in log space."""
    def f(s, entry):
        lg = numerics.log_gamma_factor(r1, r2, s) - s * log_x[entry]
        return np.where(lg.real < _LOG_UNDERFLOW, 0.0, np.exp(lg))
    return f


def _kernel_lines(r1, r2, xs, c, tol, t_offset):
    """Inverse Mellin transform of Gamma^r1(s/2) Gamma^r2(s) at each xs[i] on the line Re(s) = c[i].

    That is Z~_{r1,r2}(x) for c > 0 and Z = Z~ - Res_0 for -1 < c < 0, where
    the line has crossed the pole at 0 and no other: any such line, checked
    by step halving, with `t_offset` widening each window by the offset of
    the integrand's mass along the line.  All entries go through one
    _mellin_barnes call.  The kernels themselves run on _line_plan's lines.
    """
    c = np.asarray(c, dtype=float)
    if not np.all((c > 0) | ((-1.0 < c) & (c < 0))):
        raise DomainError("abscissa must satisfy c > 0 or -1 < c < 0")
    xs = np.asarray(xs, dtype=complex)
    rate = _sector_rate(r1, r2, np.angle(xs))
    log_x = np.log(xs)
    gap = np.where(c > 0, c, np.minimum(-c, 1.0 + c))
    T, step = _halving_plan(c, log_x, r1 + 2 * r2, rate, gap, tol, t_offset)
    return _mellin_barnes(_kernel_integrand(r1, r2, log_x), c, T, step)[0]


# ---------------------------------------------------------------------------
# the kernel lines with a proven quadrature error
# ---------------------------------------------------------------------------

# The plan puts each entry's proven error at this much of its estimated
# |Z~|, a hundredth of the 1e-11 at which nested_trapezoid halves the entry.
_PLAN_RTOL = 1e-13
# Trial abscissae of the alias majorants, in units of the line's c: the
# k >= 1 terms are bounded at c (1 + a), the k <= -1 terms at c (1 - b).
_ALIAS_RIGHT = 1.0 + np.array([1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1.0, 2.0])
_ALIAS_LEFT = 1.0 - np.array([1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 3.0 / 4, 7.0 / 8])
# Trial node counts n per side, window T = (n + 1/2) h: the first power of 2
# whose bound meets the plan, then three steps of 2^(1/4) up from its half,
# so the window taken is within a factor 1.19 of the smallest.
_WINDOW_COARSE = 2.0 ** np.arange(17)
_WINDOW_FINE = 2.0 ** (np.arange(-3, 0) / 4.0)


def _log_expm1(a):
    """log(e^a - 1) for a > 0, without overflow."""
    return a + np.log(-np.expm1(-a))


def _stirling(z):
    """(z - 1/2) log z - z + log(2 pi)/2 + 1/(12 z), log Gamma(z) to O(|z|^-3) for Re z > 0.

    For real z > 0 it is an upper bound (Binet: log Gamma(z) is the first
    three terms plus mu(z), 0 < mu(z) < 1/(12 z)).
    """
    return (z - 0.5) * np.log(z) - z + numerics._HALF_LOG_TWO_PI + 1.0 / (12.0 * z)


def _log_gamma_factor_up(r1, r2, c):
    """Upper bound of r1 log Gamma(c/2) + r2 log Gamma(c) for real c > 0, by _stirling."""
    out = 0.0
    for count, u in ((r1, 0.5 * c), (r2, c)):
        if count:
            out = out + count * _stirling(u)
    return out


def _log_integrand_up(r1, r2, c, t, log_abs_x, arg_x):
    """Upper bound of log |Gamma^r1(s/2) Gamma^r2(s) x^{-s}| at s = c + i t, c > 0.

    Stirling with the exact phase, whose remainder is at most
    sec^2(ph z/2)/(12 |z|) <= 1/(6 |z|) for Re z > 0 (DLMF 5.11(ii)):
    log |Gamma(sigma + i u)| <= log(2 pi)/2 + (sigma - 1/2) log|z|
    - |u| atan(|u|/sigma) - sigma + 1/(6 |z|).  Its |u|-derivative is at
    most -atan(|u|/sigma), so past |t| = T the bound falls at least at the
    rate (d/2) atan(T/c) - arg x for t > 0 and (d/2) atan(T/c) + arg x for t < 0.
    """
    out = t * arg_x - c * log_abs_x
    for count, scale in ((r1, 0.5), (r2, 1.0)):
        if count:
            sigma, u = scale * c, np.abs(scale * t)
            mod = np.hypot(sigma, u)
            out = out + count * (numerics._HALF_LOG_TWO_PI + (sigma - 0.5) * np.log(mod)
                                 - u * np.arctan(u / sigma) - sigma + 1.0 / (6.0 * mod))
    return out


def _log_window_error(r1, r2, c, log_abs_x, arg_x, last, step):
    """log of a bound on (1/2 pi) step sum_{|j step| > last} |f(j step)|, last the outermost node.

    Each side's dropped nodes sum to at most step m(last)/(2 pi (e^{kappa step} - 1))
    with kappa its rate (_log_integrand_up); inf where a rate is not positive.
    """
    sign = np.array([1.0, -1.0]).reshape((2,) + (1,) * np.ndim(last))
    kappa = 0.5 * (r1 + 2 * r2) * np.arctan(last / c) - sign * arg_x
    side = np.log(step / (2.0 * math.pi)) + _log_integrand_up(r1, r2, c, sign * last, log_abs_x, arg_x) \
        - _log_expm1(np.maximum(kappa, 1e-300) * step)
    side = np.where(kappa > 0.0, side, np.inf)
    return np.logaddexp(side[0], side[1])


def _line_plan(r1, r2, xs, rtol=_PLAN_RTOL):
    """Proven trapezoid plan of the saddle line of each x: (live, c, T, h, error).

    `live` indexes the entries above the underflow cut, and c, T, h and
    error(entries, steps) run over those: the line Re s = c, the real part
    of the saddle clamped to [2, 2000], the window |t| <= T, the first step
    h, and a proven bound on the error of the step sum.

    By Poisson summation the step-h trapezoid sum over the whole line is
    exactly Z~(x) + sum_{k != 0} e^{2 pi k c/h} Z~(x e^{2 pi k/h}).  The
    majorant of z_tail_bound_complex_many, |Z~(y)| <= c' G(c') Y^{-c'} with
    Y = |y| cos^{d/2}(2 arg y/d), holds at every c' > 0; at one c1 > c for
    k >= 1 and one c2 in (0, c) for k <= -1 it turns the alias terms into
    two geometric series, each at most c_j G(c_j) Y^{-c_j} q_j/(1 - q_j),
    q_j = e^{-2 pi |c_j - c|/h}.  The window adds the nodes past T, which
    _log_window_error bounds.

    The plan reads elementary functions only: Binet's upper bound for G and
    Stirling for the estimate, no log-gamma evaluation.  Per entry it takes
    the trial c1 and c2 that allow the largest steps with either alias
    series within rtol/4 of the saddle-point estimate of |Z~(x)|, h the
    smaller of the two, and the smallest trial window within rtol/2.  An
    entry whose majorant at the saddle is below the underflow cut is left
    out of `live`.
    """
    d = r1 + 2 * r2
    log_x = np.log(xs)
    # log Y; _sector_rate has kept cos(2 arg x/d) > 0
    log_y = log_x.real + 0.5 * d * np.log(np.cos(2.0 * log_x.imag / d))

    def log_majorant(cj, log_y):
        return np.log(cj) + _log_gamma_factor_up(r1, r2, cj) - cj * log_y

    c_cut = np.maximum(1.0, np.exp((log_y + 0.5 * r1 * math.log(2.0)) * (2.0 / d)))
    live = np.flatnonzero(log_majorant(c_cut, log_y) >= _LOG_UNDERFLOW)
    log_x, log_y = log_x[live], log_y[live]
    saddle = _saddle_point(r1, r2, xs[live])
    c = np.clip(saddle.real, 2.0, 2000.0)

    # |Z~(x)| ~ |e^{Phi(s*)}| / sqrt(2 pi |Phi''(s*)|), Phi'' ~ d/(2 s*); log Gamma(z)
    # within about 1e-4 as Stirling at z + 3 less log z(z+1)(z+2)
    phi = -saddle * log_x
    for count, z in ((r1, 0.5 * saddle), (r2, saddle)):
        if count:
            phi = phi + count * (_stirling(z + 3.0) - np.log(z * (z + 1.0) * (z + 2.0)))
    log_target = phi.real - 0.5 * np.log(math.pi * d / np.abs(saddle)) + math.log(rtol)
    rows = np.arange(len(live))

    # per trial c_j, the largest h with c_j G(c_j) Y^{-c_j} q/(1 - q) <= target/4
    cj = c[:, None] * np.concatenate([_ALIAS_RIGHT, _ALIAS_LEFT])
    log_a = log_majorant(cj, log_y[:, None])
    hj = 2.0 * math.pi * np.abs(cj - c[:, None]) \
        / np.logaddexp(0.0, log_a - log_target[:, None] + math.log(4.0))
    split = len(_ALIAS_RIGHT)
    right = np.argmax(hj[:, :split], axis=1)
    left = split + np.argmax(hj[:, split:], axis=1)
    c1, log_a1, c2, log_a2 = cj[rows, right], log_a[rows, right], cj[rows, left], log_a[rows, left]
    h = np.minimum(hj[rows, right], hj[rows, left])

    def window(n):
        return _log_window_error(r1, r2, c[:, None], log_x.real[:, None], log_x.imag[:, None],
                                 n * h[:, None], h[:, None])

    budget = (log_target - math.log(2.0))[:, None]
    fits = window(_WINDOW_COARSE) <= budget
    if not np.all(fits.any(axis=1)):
        i = live[np.argmin(fits.any(axis=1))]
        raise ConvergenceError(f"no window of up to {int(_WINDOW_COARSE[-1])} steps certifies "
                               f"Z~_({r1},{r2}) at x = {complex(xs[i]):.6g}")
    top = _WINDOW_COARSE[np.argmax(fits, axis=1)][:, None]
    trials = np.concatenate([np.ceil(top * _WINDOW_FINE), top], axis=1)
    windows = window(trials)
    pick = np.argmax(windows <= budget, axis=1)          # the last trial, `top`, fits
    T = (trials[rows, pick] + 0.5) * h

    def log_alias(entry, step):
        return np.logaddexp(log_a1[entry] - _log_expm1(2.0 * math.pi * (c1[entry] - c[entry]) / step),
                            log_a2[entry] - _log_expm1(2.0 * math.pi * (c[entry] - c2[entry]) / step))

    first = np.exp(np.logaddexp(log_alias(rows, h), windows[rows, pick]))

    def error(entry, step):
        if np.array_equal(step, h[entry]):
            return first[entry]
        last = np.floor(T[entry] / step) * step       # the outermost node, as nested_trapezoid has it
        return np.exp(np.logaddexp(log_alias(entry, step), _log_window_error(
            r1, r2, c[entry], log_x.real[entry], log_x.imag[entry], last, step)))

    return live, c, T, h, error


def _kernel_many(r1, r2, xs, tol, shifted):
    """(Z~_{r1,r2}, or Z = Z~ - Res_0 when `shifted`, on an array; proven quadrature error per entry).

    The one route rule of the kernels.  Near 0 (|x| <= 0.4) the value is
    residue-dominated: the ascending expansion is exact there while a vertical
    line would drown in cancellation.  It runs in two magnitude blocks, since
    its stop rule reads the largest term of a block, and its charge is 0.
    Further out each entry gets a line integral through the real part of the
    integrand's saddle, so relative accuracy survives into the exponentially
    small tail.  One _line_plan sizes every line and one level of nodes is
    evaluated; an entry whose proven error, alias terms plus window, exceeds
    1e-11 of its value is halved, with ConvergenceError after the fourth
    halving.  Its charge is that proven error.  An entry whose majorant is
    below the underflow cut is 0 with no node evaluated; its charge is 0, the
    majorant rounded.  `tol` steers the ascending series only.  The sector
    is checked for the whole array before any work.
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
        live, c, T, h, error = _line_plan(r1, r2, xs[far])
        z = np.zeros(len(far), dtype=complex)
        if len(live):
            z[live], charge[far[live]] = _mellin_barnes(
                _kernel_integrand(r1, r2, np.log(xs[far[live]])), c, T, h, error)
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

# Orders of one ring call of z_small_series_many, whose stop order is not known in advance.
_LEFT_POLE_BLOCK = 8


def _left_pole_polynomials(r1, r2, m_lo, m_hi):
    """[P_m for m = m_lo .. m_hi], Res_{s=-m}[Gamma^r1(s/2) Gamma^r2(s) x^{-s}] = x^m P_m(log x).

    Memoized per m; the orders not yet stored share one 128-sample ring call
    (laurent_coefficients_many), each checked against its 64 even samples.
    The samples are elementwise, so a P_m does not depend on which orders
    were extracted with it, and each keeps exactly its own pole order
    r2 + (r1 if m is even), read off the shared principal parts.
    """
    def order(m):
        return r2 + (r1 if m % 2 == 0 else 0)

    def compute(missing):
        ms = [key[3] for key in missing]
        polys = {m: numerics.LogPolynomial(coeffs=(0.0 + 0.0j,)) for m in ms}
        poles = [m for m in ms if order(m)]
        if poles:
            rings = numerics.laurent_coefficients_many(
                _gamma_power(r1, r2), [-float(m) for m in poles], 0.25,
                count=max(order(m) for m in poles))
            for m, ring in zip(poles, rings):
                polys[m] = numerics.residue_log_polynomial(
                    [ring.coefficient(-j) for j in range(1, order(m) + 1)], 1.0)
        return [polys[m] for m in ms]
    return numerics.memo_many([("gamma_power_left_pole", r1, r2, m)
                               for m in range(m_lo, m_hi + 1)], compute)


def z_small_series_many(r1, r2, xs, tol=1e-14):
    """Z_{r1,r2}(x) = sum_m x^m P_m(log x) over the left poles, on an array of |x| <= ~1.

    Stops after two consecutive orders whose largest term is below tol/100;
    ConvergenceError if that takes more than 80 orders.  The P_m are read in
    blocks of _LEFT_POLE_BLOCK orders, one ring call per block not yet stored.
    """
    xs = np.asarray(xs, dtype=complex)
    logx = np.log(xs)
    total = np.zeros_like(xs)
    small_run = 0
    m_max = 80
    for m in range(1, m_max + 1):
        if m % _LEFT_POLE_BLOCK == 1:
            block = _left_pole_polynomials(r1, r2, m, m + _LEFT_POLE_BLOCK - 1)
        poly = block[(m - 1) % _LEFT_POLE_BLOCK]
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
