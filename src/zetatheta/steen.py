"""Steen function and the Koshliakov-type kernels by Mellin-Barnes quadrature.

The kernels are inverse Mellin transforms of gamma-power products evaluated
on vertical lines.  The quadrature line is moved to the (approximate) saddle
of the integrand so the values stay accurate in a relative sense even deep in
the exponentially small regime; the integrand is assembled in log space since
individual gamma factors overflow long before the product does.  Every
kernel line is one trapezoid level (numerics.line_integral_many) whose
step and window come from a proven error bound, the trapezoid alias
identity plus a Stirling tail (_line_plan), so each value carries its
proven quadrature error.  The quadrature entries of a kernel array share
one pass over their nodes.
Near 0 the ascending series reads the principal parts of the gamma power at
s = -m off numerics.gamma_factor_jet, one exp of the log jet the integrand reads.
One gamma factor needs neither: Z~ = 2 e^{-x^2} or e^{-x} is read in closed form.
"""

import math

import numpy as np

from . import numerics
from .errors import ConvergenceError, DomainError, SectorError

# Underflow cutoff: an integrand value, or a kernel's majorant, below this in
# log magnitude is an exact 0 in double precision.
_LOG_UNDERFLOW = -760.0


def _sector_rate(r1, r2, arg_x):
    """Exponential decay rate of Gamma^r1(s/2) Gamma^r2(s) x^{-s} on a vertical line, per Arg x.

    SectorError when any |Arg x| comes within 0.1 of pi d/4, d = r1 + 2 r2.
    """
    d = r1 + 2 * r2
    worst = float(np.max(np.abs(arg_x), initial=0.0))
    if math.pi * d / 4.0 - worst < 0.1:
        raise SectorError(
            f"|Arg x| = {worst:.4f} too close to the sector boundary "
            f"pi*{d}/4 = {math.pi * d / 4.0:.4f}")
    return math.pi * d / 4.0 - np.abs(arg_x)


def _mellin_barnes(f, c, T, step, error):
    """(1/2 pi i) int_(c_i) f(s, i) ds for each entry i of a batch of integrands.

    One trapezoid level (numerics.line_integral_many) integrates all entries
    at once on |Im s| <= T[i] at the step step[i], whose proven error is
    error[i].  An entry whose error exceeds 1e-11 of its value raises
    ConvergenceError: the one verdict on whether a Mellin-Barnes integral
    converged.
    """
    values = numerics.line_integral_many(f, c, T, step)
    loose = error > 1e-11 * np.maximum(np.abs(values), 1e-250)
    if np.any(loose):
        i = int(np.argmax(loose))
        raise ConvergenceError(f"Mellin-Barnes integral on Re(s) = {c[i]}: proven error "
                               f"{error[i]:.2e} exceeds 1e-11 of |value| = {abs(values[i]):.2e}")
    return values


def _kernel_integrand(r1, r2, log_x):
    """f(s, entry) = Gamma^r1(s/2) Gamma^r2(s) x_entry^{-s}, assembled in log space."""
    def f(s, entry):
        lg = numerics.log_gamma_factor(r1, r2, s) - s * log_x[entry]
        return np.where(lg.real < _LOG_UNDERFLOW, 0.0, np.exp(lg))
    return f


# ---------------------------------------------------------------------------
# the kernel lines with a proven quadrature error
# ---------------------------------------------------------------------------

# The plan puts each entry's proven error at this much of its estimated
# |Z~|, a hundredth of the 1e-11 at which _mellin_barnes refuses the entry.
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

    `live` indexes the entries above the underflow cut, and the arrays c, T,
    h and error run over those: the line Re s = c, the real part of the
    saddle clamped to [2, 2000], the window |t| <= T, the step h, and a
    proven bound on the error of the step sum.

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
    saddle = (xs[live] * 2.0 ** (r1 / 2.0)) ** (2.0 / d)      # approximate saddle of the integrand
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

    log_alias = np.logaddexp(log_a1 - _log_expm1(2.0 * math.pi * (c1 - c) / h),
                             log_a2 - _log_expm1(2.0 * math.pi * (c - c2) / h))
    error = np.exp(np.logaddexp(log_alias, windows[rows, pick]))
    return live, c, T, h, error


def _kernel_many(r1, r2, xs, shifted):
    """(Z~_{r1,r2}, or Z = Z~ - Res_0 when `shifted`, on an array; proven error per entry).

    The one route rule of the kernels.  A single gamma factor is read in closed form,
    Z~ = s e^w or Z = s expm1(w) with (s, w) = (2, -x^2) for (1, 0) and (1, -x) for
    (0, 1), charged eps s |e^w| (1.5 r1 |w| + 4) or eps (9 |Z| + 1.5 r1 s |w| |e^w|),
    plus 2^-1070 for a subnormal e^w: x*x rounds within 1.5 eps |x|^2, each part of
    e^w within 2.5 eps (exp, cos, sin and expm1 within 1 ulp), and Re w < 0 in the
    sector, so the terms expm1(Re w) cos(Im w) and -2 sin^2(Im w/2) of expm1's real
    part share a sign or, where cos(Im w) < 0 and so |Re Z| >= 1, sum to at most 3 |Z|.
    Every other power takes the ascending series near 0 (|x| <= 0.4), exact where a
    vertical line would drown in cancellation; its charge is z_small_series_many's
    bound.  Further out each entry gets a line integral through the real part of the
    integrand's saddle, so relative accuracy survives into the exponentially small tail.
    One _line_plan sizes every line and one level of nodes is evaluated; an entry whose
    proven error, alias terms plus window, exceeds 1e-11 of its value raises
    ConvergenceError (_mellin_barnes).  Its charge is that proven error; below the
    underflow cut it is 0 with no node evaluated (the majorant rounded).  The sector is
    checked for the whole array before any work.
    """
    xs = np.asarray(xs, dtype=complex)
    if r1 < 0 or r2 < 0 or r1 + r2 == 0:
        raise DomainError("need r1, r2 >= 0 with r1 + r2 >= 1")
    if np.any(xs == 0):
        raise DomainError("the kernels are undefined at x = 0")
    _sector_rate(r1, r2, np.angle(xs))
    if r1 + r2 == 1:
        # past |x| = 1e150, where x*x would overflow, e^w is 0 anyway
        scale, x = 2.0 * r1 + r2, np.where(np.abs(xs) < 1e150, xs, 1e150)
        w = -x * x if r1 else -x
        z = scale * (np.expm1(w) if shifted else np.exp(w))
        size = scale * np.exp(w.real) * (1.5 * r1 * np.abs(w) + (0.0 if shifted else 4.0))
        return z, numerics._EPS * (size + (9.0 * np.abs(z) if shifted else 0.0)) + 2.0 ** -1070
    values, charge = np.zeros_like(xs), np.zeros(xs.shape)
    near = np.abs(xs) <= 0.4
    # Res_0 is read only where an entry needs it
    if np.any(near):
        values[near], charge[near] = z_small_series_many(r1, r2, xs[near])
        if not shifted:
            r0 = _r0_polynomial(r1, r2)
            values[near] += [r0(x) for x in xs[near]]
    far = np.nonzero(~near)[0]
    if len(far):
        live, c, T, h, error = _line_plan(r1, r2, xs[far])
        z = np.zeros(len(far), dtype=complex)
        if len(live):
            z[live] = _mellin_barnes(_kernel_integrand(r1, r2, np.log(xs[far[live]])), c, T, h, error)
            charge[far[live]] = error
        if shifted:
            r0 = _r0_polynomial(r1, r2)
            z = z - [r0(x) for x in xs[far]]
        values[far] = z
    return values, charge


def z_tilde_many(r1, r2, xs):
    """Kernel Z~_{r1,r2} on an array: inverse Mellin transform of Gamma^r1(s/2) Gamma^r2(s)."""
    return _kernel_many(r1, r2, xs, shifted=False)[0]


def z_tilde(r1, r2, x):
    """Kernel Z~_{r1,r2}(x) at one point; see z_tilde_many."""
    return complex(z_tilde_many(r1, r2, [x])[0])


def z_shifted_many(r1, r2, xs):
    """(Z_{r1,r2} = Z~ - Res_0 on an array, truncation charge per entry); see _kernel_many."""
    return _kernel_many(r1, r2, xs, shifted=True)


def z_shifted(r1, r2, x):
    """Kernel Z_{r1,r2}(x) = Z~(x) - Res_{s=0}, the transform on a line -1 < Re s < 0."""
    return complex(z_shifted_many(r1, r2, [x])[0][0])


def _r0_polynomial(r1, r2):
    """LogPolynomial P with Res_{s=0}[Gamma^r1(s/2) Gamma^r2(s) x^{-s}] = P(log x): P_0 below."""
    return _left_pole_polynomials(r1, r2, 0, 0)[0]


# ---------------------------------------------------------------------------
# ascending expansion of Z about x = 0 (residues at the left poles)
# ---------------------------------------------------------------------------

def _left_pole_polynomials(r1, r2, m_lo, m_hi):
    """[P_m for m = m_lo .. m_hi], Res_{s=-m}[Gamma^r1(s/2) Gamma^r2(s) x^{-s}] = x^m P_m(log x).

    Memoized per m; the orders not yet stored share one
    numerics.gamma_factor_jet call, elementwise, so a P_m does not depend on
    which orders were computed with it.  Each keeps exactly its own pole
    order r2 + (r1 if m is even), read off the shared principal parts.
    """
    def order(m):
        return r2 + (r1 if m % 2 == 0 else 0)

    def compute(missing):
        ms = [key[3] for key in missing]
        polys = {m: numerics.LogPolynomial(coeffs=(0.0 + 0.0j,)) for m in ms}
        poles = [m for m in ms if order(m)]
        if poles:
            jet = numerics.gamma_factor_jet(r1, r2, -np.array(poles), 1, r1 + r2)
            bounds = numerics.Jet(jet.err, jet.err, jet.lowest).principal()    # sliced like the parts
            for m, principal, err in zip(poles, jet.principal(), bounds):
                polys[m] = numerics.residue_log_polynomial(principal[:order(m)], 1.0, err[:order(m)])
        return [polys[m] for m in ms]
    return numerics.memo_many([("gamma_power_left_pole", r1, r2, m)
                               for m in range(m_lo, m_hi + 1)], compute)


# log Gamma(M/2 + 5/4) and log Gamma(M + 3/2) for the orders M = 0 .. 80 the ascending series may take
_SERIES_LOG_GAMMA = np.array([[math.lgamma(m / 2.0 + 1.25), math.lgamma(m + 1.5)] for m in range(81)])


def z_small_series_many(r1, r2, xs):
    """(Z_{r1,r2}(x) = sum_m x^m P_m(log x) over the left poles, a proven bound on each error).

    The remainder after order M is the Mellin-Barnes integral on Re s = -M - 1/2.  There
    the reflection formula and |Gamma(a + it)| >= Gamma(a) cosh(pi t)^(-1/2), a >= 1/2,
    give |Gamma(s)| <= pi sqrt(2) e^{-pi|t|/2}/Gamma(M + 3/2) and |Gamma(s/2)| <=
    2 pi e^{-pi|t|/4}/Gamma(M/2 + 5/4), so with kappa = pi d/4 and theta = arg x it is at most
        B_M = |x|^(M+1/2) 2^(r1 + r2/2) pi^(r1+r2-1) kappa
              / ((kappa^2 - theta^2) Gamma(M/2 + 5/4)^r1 Gamma(M + 3/2)^r2).
    Each entry stops at its own least M with B_M <= eps |x|^m0, below the rounding of the
    first term (m0 its order; bisection, as B_M then falls with M), so no value depends on
    the rest of the array; its charge is B_M, the P_m's coefficient errors (Jet.err) and
    (M + r1 + r2 + 4) eps times the terms' moduli.  One _left_pole_polynomials call reads every order up to
    the largest M; more than 80 orders raise ConvergenceError first.
    """
    xs = np.asarray(xs, dtype=complex)
    logx = np.log(xs)
    kappa, rate = math.pi * (r1 + 2 * r2) / 4.0, _sector_rate(r1, r2, logx.imag)   # kappa - |theta|
    entry = np.log(2.0 ** (r1 + r2 / 2) * math.pi ** (r1 + r2 - 1) * kappa / (rate * (2 * kappa - rate)))
    target = math.log(numerics._EPS) + (1 if r2 else 2) * logx.real

    def log_bound(m):
        return (m + 0.5) * logx.real + entry - r1 * _SERIES_LOG_GAMMA[m, 0] - r2 * _SERIES_LOG_GAMMA[m, 1]
    lo, stop = np.zeros(len(xs), dtype=int), np.full(len(xs), 80)
    if np.any(log_bound(stop) > target):
        raise ConvergenceError(f"z_small_series needs over 80 orders at |x| up to {np.max(np.abs(xs)):.3g}")
    for _ in range(7):                                       # 80 orders, halved 7 times
        mid = (lo + stop) // 2
        fits = log_bound(mid) <= target
        lo, stop = np.where(fits, lo, mid), np.where(fits, mid, stop)
    total, charge = np.zeros_like(xs), np.exp(log_bound(stop))
    abs_x, abs_log, rounding = np.abs(xs), np.abs(logx), (stop + r1 + r2 + 4) * numerics._EPS
    for m, poly in enumerate(_left_pole_polynomials(r1, r2, 1, int(stop.max(initial=0))), 1):
        if poly.degree == 0 and poly.coeffs[0] == 0:
            continue
        acc, slack = np.zeros_like(xs), 0.0
        for c, e in zip(reversed(poly.coeffs), reversed(poly.err)):
            acc = acc * logx + c
            slack = slack * abs_log + (e + abs(c) * rounding)
        total = total + np.where(m <= stop, xs ** m * acc, 0.0)
        charge += np.where(m <= stop, abs_x ** m * slack, 0.0)
    return total, charge


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

    Proven, with no quadrature.  Real Y > 0: Z~ is the multiplicative convolution
    of r1 copies of 2 e^{-u^2} and r2 copies of e^{-u}, the inverse Mellin transforms
    of Gamma(s/2) and Gamma(s), so it is positive and decreasing, and for every c > 0
        Z~(Y) Y^c / c <= int_0^Y Z~(u) u^{c-1} du <= G(c) = Gamma^r1(c/2) Gamma^r2(c),
    that is Z~(Y) <= c G(c) Y^{-c}, with G(c) read as Binet's bound, no log-gamma
    evaluation (_log_gamma_factor_up, at most exp(r1/(6c) + r2/(12c)) G(c)).  c is
    the saddle (2^{r1/2} Y)^{2/d}, clamped to c >= 1; any c > 0 gives a bound, so the
    choice sets only its tightness (about sqrt(pi d c) times Z~).  Complex y with
    |arg y| < pi d/4: rotate the variable of each factor with kernel e^{-u^p} by
    2 arg_y/(d p); its modulus is then the real kernel at v cos^{1/p}(2 arg_y/d), so
    |Z~(y)| <= Z~(|y| cos^{d/2}(2 arg_y/d)), with equality for (1, 0).
    """
    d = r1 + 2 * r2
    cosf = math.cos(2.0 * abs(arg_y) / d)
    if cosf <= 0:
        raise SectorError("argument outside the decaying sector")
    y = np.asarray(abs_y, dtype=float) * cosf ** (d / 2.0)
    c = np.maximum(1.0, (2.0 ** (r1 / 2.0) * y) ** (2.0 / d))
    return np.exp(np.log(c) - c * np.log(y) + _log_gamma_factor_up(r1, r2, c))
