"""Completed zeta, the real even Xi function, and critical-line zero scanning.

Xi_F(t) = xi_F(1/2 + it) is real and even.  zeta_F is the product of its
L-factors, so the scanner finds its zeros on the critical line as the sign
changes of each factor's real Hardy Z on a grid, and refines all brackets by
ITP steps in lockstep: one array evaluation of Z per step, at ITP's point
and three companion points per bracket still open.  The grid values seed the
bracket ends, and the degree-9 interpolant through ten of them a guess of
each zero, so a bracket closes in one step on a point whose value is its
residual; a width-5 scan at the default step makes 2 Z calls in all.  The
Phi integral ties the Xi profile back to the forward theta function.
"""

import cmath
import functools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from . import fields, numerics, steen, theta
from .errors import (
    ConvergenceError,
    DomainError,
    RealityViolationError,
    SectorError,
    ValidationError,
)


def _xi_scaled_many(field, s, log_scale):
    """(e^{log_scale} xi_F(s), its error bound), the scale taken into the gamma prefactor's exponent.

    zeta_F and its error bound are coefficient 0 of the product of the
    L-factor jets (numerics._l_factor_jets), each bounded at its point.  The
    bound is |s (s-1)/2| times the prefactor's modulus times zeta_F's, plus
    |value| times the prefactor's relative error, which is its exponent's
    absolute error: the gamma factor's error bound (coefficient 0 of
    numerics.log_gamma_factor_jet), and 8 eps times |log prefactor| +
    |log_scale| + 1 for the rounding of the exponent and of the products.
    xi_F is entire: at the gamma factor's poles, s = 0, -2, .., it is read
    off the Laurent product of (1/2) s (s - 1), fields.prefactor_jet and
    numerics.dedekind_zeta_jet, with its proven error.
    """
    s = np.asarray(s, dtype=complex)
    gamma, orders = numerics.log_gamma_factor_jet(field.r1, field.r2, s, 1, 1)
    log_prefactor, gamma_error = s * fields.half_log_q(field) + gamma.coeffs[..., 0], gamma.err[..., 0]
    prefactor = np.exp(log_prefactor + log_scale)
    polynomial = 0.5 * s * (s - 1.0)
    jet = functools.reduce(operator.mul, numerics._l_factor_jets(field.characters, s, 1))
    zeta, zeta_error = (a[:, 0].reshape(s.shape) for a in (jet.coeffs, jet.err))
    vals = polynomial * (prefactor * zeta)
    exponent_error = gamma_error + 8.0 * numerics._EPS * (np.abs(log_prefactor) + np.abs(log_scale) + 1.0)
    error = np.abs(polynomial * prefactor) * zeta_error + np.abs(vals) * exponent_error
    if np.count_nonzero(orders):
        pole, count = orders != 0, int(orders.max()) + 1
        jet = fields.prefactor_jet(field, s[pole], 1, count) * numerics.dedekind_zeta_jet(field, s[pole], count)
        terms = [(p, -jet.lowest - i) for i, p in enumerate((polynomial[pole], s[pole] - 0.5, 0.5))
                 if 0 <= -jet.lowest - i < count]
        scale = np.exp(np.broadcast_to(log_scale, s.shape)[pole])
        vals[pole] = scale * sum(p * jet.coeffs[:, i] for p, i in terms)
        error[pole] = np.abs(scale) * sum(np.abs(p) * (jet.err[:, i] + 4.0 * numerics._EPS * np.abs(jet.coeffs[:, i]))
                                          for p, i in terms)
    return vals, error


def xi_many(field, s):
    """xi_F(s) = (1/2) s (s-1) Omega_F(s) on an array of s; entire, symmetric under s -> 1-s."""
    return _xi_scaled_many(field, s, 0.0)[0]


def xi_completed(field, s):
    """xi_F(s) at one point."""
    return complex(xi_many(field, np.array([complex(s)]))[0])


def _xi_real_many(field, ts, log_scale):
    """e^{log_scale} Xi_F(t) on an array of real t, with the imaginary part checked and dropped.

    Xi_F is real on the real line, so the imaginary part of a value is its
    error alone: RealityViolationError where |Im| exceeds the value's error
    bound (_xi_scaled_many), naming the worst t.
    """
    ts = np.asarray(ts, dtype=float)
    vals, error = _xi_scaled_many(field, 0.5 + 1j * ts, log_scale)
    if np.any(np.abs(vals.imag) > error):
        i = int(np.argmax(np.abs(vals.imag) / np.maximum(error, 1e-300)))
        raise RealityViolationError(
            f"Xi_F(t) imaginary part too large at t = {ts.flat[i]}: {vals.flat[i]}, "
            f"error bound {error.flat[i]:.3g}")
    return vals.real


def big_xi(field, t):
    """Xi_F(t) = xi_F(1/2 + it); the imaginary part is checked and discarded."""
    return float(_xi_real_many(field, [float(t)], 0.0)[0])


def _hardy_z_many(field, ts):
    """Each L-factor's Hardy Z on a 1-d array of real t: (values, error bounds), a row per field.factors record.

    Z_f(t) = e^{pi t/4} eps^{-1/2} (q/pi)^{(s+a)/2} Gamma((s+a)/2) L(s, chi)
    at s = 1/2 + it, for the factor's shift a, conductor q and root number
    eps, is real, since Lambda(s, chi) = eps conj Lambda(s, chi) on the line,
    and e^{pi t/4} keeps it from underflowing.  L comes from one
    numerics._l_factor_jets call, log Gamma from one
    numerics.log_gamma_factor_jet call over the shifts 0 .. max a.  The error
    is |prefactor| times L's bound plus |value| times the gamma error and
    8 eps (|exponent| + sqrt q), the rounding of the exponent, the product
    and eps's Gauss sum of q terms.  RealityViolationError where |Im|
    exceeds the error, naming the factor and t.
    """
    ts = np.asarray(ts, dtype=float)
    s = 0.5 + 1j * ts
    a, half_log, half_arg, root_q = np.array([
        (f.shift, 0.5 * math.log(f.conductor / math.pi), 0.5 * cmath.phase(f.root_number), math.sqrt(f.conductor))
        for f in field.factors]).T[:, :, None]
    row = a[:, 0].astype(int)           # gamma's row a is log Gamma((s + a)/2), a = 0 or 1
    gamma = numerics.log_gamma_factor_jet(1, 0, s + np.arange(row.max() + 1)[:, None], 1, 1)[0]
    exponent = (s + a) * half_log + gamma.coeffs[row, :, 0] + 0.25 * math.pi * ts - 1j * half_arg
    prefactor = np.exp(exponent)
    jets = numerics._l_factor_jets(field.characters, s, 1)
    vals = prefactor * np.array([jet.coeffs[:, 0] for jet in jets])
    error = np.abs(prefactor) * np.array([jet.err[:, 0] for jet in jets]) \
        + np.abs(vals) * (gamma.err[row, :, 0] + 8.0 * numerics._EPS * (np.abs(exponent) + root_q))
    if np.any(np.abs(vals.imag) > error):
        i, j = np.unravel_index(np.argmax(np.abs(vals.imag) / np.maximum(error, 1e-300)), vals.shape)
        raise RealityViolationError(
            f"Z of factor {i} (conductor {field.factors[i].conductor}) has too large an imaginary part "
            f"at t = {ts[j]}: {vals[i, j]}, error bound {error[i, j]:.3g}")
    return vals.real, error


@dataclass(frozen=True)
class ScanResult:
    brackets: tuple          # (t_lo, t_hi) sign-change intervals of the factor's Z
    refined: tuple           # zero ordinates, one per bracket, ascending
    residuals: tuple         # |Z| of the factor that owns the zero, at its ordinate


_ORDINATE_TOL = 1e-9


def _itp_lockstep(field, rows, lo, hi, f_lo, f_hi, tol, guess, radius):
    """Zeros of Z, each within tol/2 of a sign change, in brackets whose end values f_lo, f_hi differ in sign.

    Bracket k holds a sign change of row rows[k] of _hardy_z_many.  All take
    ITP steps in lockstep, kappa1 = 0.2/(b0 - a0), kappa2 = 2, n0 = 1 and
    epsilon = tol/4 (Oliveira & Takahashi, ACM TOMS 47(1), 2020).  Each step
    evaluates, per bracket, ITP's point and the companion points g - r, g
    and g + r of a guess g of radius r >= tol/4, all in one _hardy_z_many
    call over the distinct points, each read off its bracket's row.  The new
    bracket is the narrowest sign change among its ends and these points;
    ITP's point is one of them, so a bracket of width w0 takes at most
    ceil(log2(w0 / (tol/2))) + 1 steps, ITP's worst case.  A point where Z
    is 0 ends its bracket.  The next guess is the new bracket's regula falsi
    point, of radius 2m min(1, m/w) for a guess that moved by m and a
    bracket of width w.  Every point stays at least tol/8 inside its
    bracket: without the inset, a point that lands on the root to about
    1e-15 is evaluated again at every step until the projection moves it.
    Returns the ordinates and the |value| read at each: the last bracket's
    regula falsi point, with NaN, or its end within 3e-13 of that point,
    with |Z| there.
    """
    lo, hi, f_lo, f_hi, guess, radius = (np.array(v, dtype=float)
                                         for v in (lo, hi, f_lo, f_hi, guess, radius))
    width = hi - lo
    kappa1 = 0.2 / width
    n_max = np.ceil(np.log2(width / (0.5 * tol))) + 1.0
    out, value = np.empty(len(lo)), np.full(len(lo), np.nan)
    done = np.zeros(len(lo), dtype=bool)
    step = 0
    live = np.nonzero(width > 0.5 * tol)[0]
    while len(live):
        a, b, fa, fb, g = lo[live], hi[live], f_lo[live], f_hi[live], guess[live]
        w = b - a
        mid = 0.5 * (a + b)
        x_f = a + w * (fa / (fa - fb))
        sigma = np.sign(mid - x_f)
        delta = kappa1[live] * w * w
        x_t = np.where(delta <= np.abs(mid - x_f), x_f + sigma * delta, mid)
        r = 0.25 * tol * 2.0 ** (n_max[live] - step) - 0.5 * w
        x = np.where(np.abs(x_t - mid) <= r, x_t, mid - sigma * r)
        r_g = np.maximum(radius[live], 0.25 * tol)
        points = np.clip(np.column_stack([x, g - r_g, g, g + r_g]),
                         (a + 0.125 * tol)[:, None], (b - 0.125 * tol)[:, None])
        first = np.argmax(points[:, :, None] == points[:, None, :], axis=2)     # each point's first copy
        fresh = first == np.arange(4)
        owner = rows[live[np.nonzero(fresh)[0]]]
        f_points = np.empty(points.shape)
        f_points[fresh] = _hardy_z_many(field, points[fresh])[0][owner, np.arange(len(owner))]
        f_points = np.take_along_axis(f_points, first, axis=1)
        hit = f_points == 0.0
        ended = hit.any(axis=1)
        out[live[ended]], value[live[ended]] = points[ended, np.argmax(hit[ended], axis=1)], 0.0
        done[live[ended]] = True
        ts = np.column_stack([a, points, b])
        order = np.argsort(ts, axis=1)
        ts = np.take_along_axis(ts, order, axis=1)
        fs = np.take_along_axis(np.column_stack([fa, f_points, fb]), order, axis=1)
        change = np.sign(fs[:, :-1]) * np.sign(fs[:, 1:]) < 0
        kept = np.nonzero(~ended)[0]
        j = np.argmin(np.where(change, ts[:, 1:] - ts[:, :-1], np.inf), axis=1)[kept]
        i = live[kept]
        lo[i], hi[i], f_lo[i], f_hi[i] = ts[kept, j], ts[kept, j + 1], fs[kept, j], fs[kept, j + 1]
        guess[i] = lo[i] + (hi[i] - lo[i]) * (f_lo[i] / (f_lo[i] - f_hi[i]))
        move = np.abs(guess[i] - g[kept])
        radius[i] = 2.0 * move * np.minimum(1.0, move / (hi[i] - lo[i]))
        step += 1
        # n_max steps leave at most tol/2 in exact arithmetic; the cap keeps a
        # width that rounding leaves an ulp above it from taking one more
        live = np.nonzero(~done & (hi - lo > 0.5 * tol) & (step < n_max))[0]
    falsi = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
    end, f_end = (np.where(hi - falsi < falsi - lo, x, y) for x, y in ((hi, lo), (f_hi, f_lo)))
    snap = ~done & (np.abs(end - falsi) <= 3e-13)
    out[~done], value[snap] = np.where(snap, end, falsi)[~done], np.abs(f_end[snap])
    return out, value


def _lagrange_rows(nodes):
    """Row j: the v^0, v^1, .. coefficients of the Lagrange polynomial of nodes[j], each rounded once."""
    p, q = np.poly(nodes), np.ones((len(nodes), len(nodes)))
    for i in range(1, len(nodes)):                  # P(v)/(v - node), highest power first
        q[:, i] = p[i] + nodes * q[:, i - 1]
    return q[:, ::-1] / (nodes[:, None] - nodes + np.eye(len(nodes))).prod(axis=1)[:, None]


# the degree-9 interpolant through a 10-point window, at v = m - 4.5 for point m, and the
# degree-7 one through its middle 8 points
_SEED_WEIGHTS = np.array([_lagrange_rows(np.arange(-4.5, 5.0)),
                          np.pad(_lagrange_rows(np.arange(-3.5, 4.0)), ((1, 1), (0, 2)))])


def _grid_seeds(ts, vals, rows, flips):
    """A guess and a radius for the zero in each sign-change cell [t_i, t_{i+1}] of row rows[k] of an even grid.

    The guess is the root in the cell of the degree-9 interpolant through the
    row's 10 grid values t_{i-4} .. t_{i+5}, and its radius twice the
    distance to the root of the degree-7 one through the middle 8 of them.
    Within four points of a grid end the window is the grid's first or last
    10 points.  Newton steps from the regula falsi point, kept in the cell,
    find both roots.  A grid of fewer than 10 points seeds the regula falsi
    point, of radius an eighth of the cell.
    """
    w = ts[flips + 1] - ts[flips]
    u = vals[rows, flips] / (vals[rows, flips] - vals[rows, flips + 1])
    if len(ts) < 10:
        return ts[flips] + w * u, w / 8.0
    start = np.minimum(np.maximum(flips - 4, 0), len(ts) - 10)
    y = vals[rows[:, None], start[:, None] + np.arange(10)]
    c = (y[:, None, :, None] * _SEED_WEIGHTS).sum(axis=2)     # (cell, interpolant, power of v)
    left = (flips - start)[:, None] - 4.5                       # the cell is [left, left + 1] in v
    v = left + u[:, None]
    for _ in range(5):
        powers = v[..., None] ** np.arange(9)
        slope = (c[..., 1:] * np.arange(1, 10) * powers).sum(axis=-1)
        step = (c[..., 0] + v * (c[..., 1:] * powers).sum(axis=-1)) / np.where(slope == 0.0, np.inf, slope)
        v = np.minimum(np.maximum(v - step, left), left + 1.0)
    return ts[flips] + w * (v[:, 0] - left[:, 0]), 2.0 * w * np.abs(v[:, 0] - v[:, 1])


def scan_zeros(field, t_min, t_max, step):
    """Bracket and refine every sign change of each L-factor's Z (_hardy_z_many) on [t_min, t_max].

    zeta_F's zeros on the line are its factors', which do not hide each
    other, and Z_chi(-t) = Z_conj chi(t) covers the negative ordinates.  A
    grid sign counts only where |Z| exceeds its error bound; ConvergenceError
    names the factor and t where it does not.  The grid values seed the
    bracket ends of _itp_lockstep, so no end is evaluated twice, and by
    their degree-9 interpolants its guesses (_grid_seeds).  A residual is the
    |Z| the steps read at its ordinate, or a fresh one where none was read.
    """
    if not (0 <= t_min < t_max):
        raise ValidationError("need 0 <= t_min < t_max")
    if step <= 0:
        raise ValidationError("step must be positive")
    n_pts = int(math.ceil((t_max - t_min) / step)) + 1
    ts = np.linspace(t_min, t_max, n_pts)
    vals, error = _hardy_z_many(field, ts)
    unsure = ~(np.abs(vals) > error)
    if unsure.any():
        i, j = np.argwhere(unsure)[0]
        raise ConvergenceError(f"the sign of factor {i}'s Z at t = {ts[j]} is not proven: "
                               f"|Z| = {abs(vals[i, j]):.3g}, error bound {error[i, j]:.3g}")
    signs = np.sign(vals)
    rows, flips = np.nonzero(signs[:, :-1] * signs[:, 1:] < 0)
    refined, residuals = _itp_lockstep(field, rows, ts[flips], ts[flips + 1], vals[rows, flips],
                                       vals[rows, flips + 1], _ORDINATE_TOL,
                                       *_grid_seeds(ts, vals, rows, flips))
    missing = np.nonzero(np.isnan(residuals))[0]
    if len(missing):
        fresh = _hardy_z_many(field, refined[missing])[0]
        residuals[missing] = np.abs(fresh[rows[missing], np.arange(len(missing))])
    for k in np.nonzero((rows[1:] == rows[:-1]) & (refined[1:] - refined[:-1] < 2.0 * step))[0]:
        warnings.warn(f"zeros at {refined[k]:.6f} and {refined[k + 1]:.6f} of factor {rows[k]} closer "
                      f"than twice the scan step {step}; consider a finer grid", stacklevel=2)
    order = np.argsort(refined)
    return ScanResult(brackets=tuple((float(ts[i]), float(ts[i + 1])) for i in flips[order]),
                      refined=tuple(refined[order].tolist()), residuals=tuple(residuals[order].tolist()))


# zeta(3/2), the constant of Rademacher's bound at eta = 1/2; the Phi plan's alias line
# Re s = 1/2 + _PHI_STRIP, inside the strip of analyticity; the cells summing its integral.
_ZETA_THREE_HALVES = 2.6123753486854883
_PHI_STRIP = 31.0 / 64.0
_PHI_CELL = 0.125


def _log_omega_bound(field, sigma, lo, hi):
    """log of a bound on |Omega_F(sigma + iu)| over 0 <= lo <= u <= hi, for 0 < sigma <= 3/2.

    The exact-phase Stirling bound of the prefactor (steen._log_integrand_up)
    times Rademacher's bound (Math. Z. 72 (1959)) at eta = 1/2:
    |zeta_F(s)| <= 3 |(1 + s)/(1 - s)| (D (|1 + s|/2 pi)^d)^e zeta(3/2)^d,
    e = (3/2 - sigma)/2.  Its falling parts are taken at lo and its rising
    one at hi; past u it falls at least at the rate (d/2) atan(u/sigma) - d e/u.
    """
    d, s_lo, s_hi = field.degree, sigma + 1j * lo, sigma + 1j * hi
    return steen._log_integrand_up(field.r1, field.r2, sigma, lo, -fields.half_log_q(field), 0.0) \
        + np.log(3.0 * np.abs((1.0 + s_lo) / (1.0 - s_lo))) + d * math.log(_ZETA_THREE_HALVES) \
        + (0.75 - 0.5 * sigma) * (math.log(field.disc) + d * np.log(np.abs(1.0 + s_hi) / (2.0 * math.pi)))


def _phi_plan(field, z, target):
    """(n, h, error) of the Phi integral's even trapezoid rule on the nodes jh, j = 0..n.

    f(t) = Xi_F(t)/(t^2 + 1/4) cos(zt) = -Omega_F(1/2 + it) cos(zt)/2 is
    analytic in |Im t| < 1/2, where s = 1/2 + it misses the poles s = 0, 1.
    By Poisson summation the even sum h (f(0)/2 + sum_{j>=1} f(jh)) errs from
    int_0^inf f by at most M/(e^{2 pi a/h} - 1), a = _PHI_STRIP, where
    M >= int_0^inf |Omega_F(1/2 + a + iu)| cosh(|Im z| u + |Re z| a) du
    bounds int_R |f(u +- ia)| du: the functional equation and conjugate
    symmetry take both edges to the line Re s = 1/2 + a, and |cos w| <=
    cosh(Im w) (Trefethen & Weideman, SIAM Rev. 56 (2014), Thm 5.1).  The
    nodes past nh add h sum_{j>n} |f(jh)|.  Both read _log_omega_bound,
    whose log with the cosh falls past u at least at the rate
    (d/2) atan(u/sigma) - |Im z| - d e/u.  M sums cells of width _PHI_CELL
    up to U = 6 d/(pi d/4 - |Im z|), past which that rate is above 7/8 of
    pi d/4 - |Im z|, and bounds the rest by the rate.  h makes the alias
    term target/2, and n is the smallest count that leaves the nodes past
    nh within target/4; error is the sum of the two terms.  SectorError
    unless |Im z| < pi d/4 - 0.2.
    """
    d, y = field.degree, abs(z.imag)
    if math.pi * d / 4.0 - y < 0.2:
        raise SectorError(f"|Im z| must stay below pi*{d}/4 - 0.2")

    def log_bound(sigma, lo, hi, shift):
        return _log_omega_bound(field, sigma, lo, hi) + np.logaddexp(y * hi + shift, -y * hi - shift) \
            - math.log(2.0)

    def rate(sigma, u):
        return 0.5 * d * np.arctan(u / sigma) - y - d * (0.75 - 0.5 * sigma) / u

    sigma, shift = 0.5 + _PHI_STRIP, abs(z.real) * _PHI_STRIP
    cells = np.arange(0.0, 6.0 * d / (math.pi * d / 4.0 - y), _PHI_CELL)
    end = cells[-1] + _PHI_CELL
    log_m = np.logaddexp(
        math.log(_PHI_CELL) + np.logaddexp.reduce(log_bound(sigma, cells, cells + _PHI_CELL, shift)),
        log_bound(sigma, end, end, shift) - math.log(rate(sigma, end)))
    h = 2.0 * math.pi * _PHI_STRIP / np.logaddexp(0.0, log_m - math.log(target / 2.0))

    def log_window(last):
        """log of (h/2) sum_{j>=1} |Omega_F(1/2 + i u_j)| cosh(|Im z| u_j), u_j = last + jh."""
        kappa = rate(0.5, last)
        return np.where(kappa > 0.0, np.log(0.5 * h) + log_bound(0.5, last, last, 0.0)
                        - steen._log_expm1(np.maximum(kappa, 1e-300) * h), np.inf)

    grid = np.arange(0.5, 2000.0, 0.5)
    fits = log_window(grid) <= math.log(target / 4.0)
    if not fits.any():
        raise ConvergenceError(f"no Phi window up to t = {grid[-1]} is proven at z = {z}")
    n = math.ceil(grid[np.argmax(fits)] / h)
    alias = log_m - steen._log_expm1(2.0 * math.pi * _PHI_STRIP / h)
    return n, float(h), float(np.exp(np.logaddexp(alias, log_window(n * h))))


def phi_identity_check(field, z, tol=1e-6):
    """Check the Phi integral identity tying Xi_F to the forward theta function.

    Both sides are independently computable: lhs is the quadrature of
    int_0^inf Xi_F(t)/(t^2 + 1/4) cos(zt) dt, rhs the theta side
    -(pi/2)[e^{-z/2} W(e^{-2z}) + 2^r1 C_F (e^{-z/2} + e^{z/2})].  At k = 1
    R_0 is the constant 2^r1 C_F, so with W = S - R_0 the rhs is
    -(pi/2)[e^{-z/2} S(e^{-2z}) + 2^r1 C_F e^{z/2}].  The residual is
    |lhs - rhs|.  The integrand is even in t, so lhs is the trapezoid rule on
    the nodes jh, j = 0..n, with half weight at t = 0, whose step and window
    _phi_plan proves to err by at most min(1e-3 tol, 1e-12): the budget's
    quadrature_error.  The budget also holds the series' series_tail and
    kernel_quadrature (see theta._s_series_log) times (pi/2)|e^{-z/2}|, as
    they enter the rhs, and the rounding: (n + 1) eps times h sum_j |f(jh)|
    for the sum, plus h times each Xi value's error bound (_xi_scaled_many)
    times its weight cos(zt)/(t^2 + 1/4).
    """
    z = complex(z)
    n, h, quadrature = _phi_plan(field, z, min(1e-3 * tol, 1e-12))
    t = h * np.arange(n + 1)
    weight = np.cos(z * t) / (t * t + 0.25) * np.where(t > 0.0, 1.0, 0.5)     # half weight at t = 0
    xi, xi_error = _xi_scaled_many(field, 0.5 + 1j * t, 0.0)
    vals = xi * weight
    if not np.all(np.isfinite(vals)):
        raise DomainError("the Phi integrand is not finite on its nodes")
    lhs = complex(h * np.sum(vals))
    # S at x = e^{-2z} on the sheet log x = -2z, which leaves the principal one at |Im z| > pi/2
    s_val, _, series = theta._s_series_log(field, 1, -2.0 * z, min(tol * 1e-2, 1e-9))
    r0 = 2.0 ** field.r1 * fields.laurent_constant(field)
    rhs = -(math.pi / 2.0) * (cmath.exp(-z / 2.0) * s_val + r0 * cmath.exp(z / 2.0))
    scale = (math.pi / 2.0) * abs(cmath.exp(-z / 2.0))
    rounding = h * float(np.sum((n + 1) * numerics._EPS * np.abs(vals) + xi_error * np.abs(weight)))
    return theta.Report(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs),
                        budget={"quadrature_error": quadrature, "rounding": rounding,
                                "series_tail": scale * series["series_tail"],
                                "kernel_quadrature": scale * series["kernel_quadrature"]})
