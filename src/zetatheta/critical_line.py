"""Completed zeta, the real even Xi function, and critical-line zero scanning.

Xi_F(t) = xi_F(1/2 + it) is real and even, so its sign changes locate the
non-trivial zeros of zeta_F on the critical line.  The scanner works on an
exponentially rescaled copy of Xi (a positive factor, so the sign pattern is
untouched) to keep magnitudes in a sane range, brackets every sign change on
a grid, and refines all brackets by bisection in lockstep: each halving step
is one array evaluation of Xi over the brackets still open, so a scan at the
default step makes about 28 Xi calls in all, not about 27 per zero.  The
Phi integral ties the Xi profile back to the forward theta function,
crossing the whole stack.
"""

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import fields, numerics, theta
from .errors import (
    ConvergenceError,
    LostBracketError,
    RealityViolationError,
    SectorError,
    ValidationError,
)


def _xi_scaled_many(field, s, log_scale):
    """e^{log_scale} xi_F(s), the scale taken into the gamma prefactor's exponent."""
    s = np.asarray(s, dtype=complex)
    prefactor = np.exp(fields.log_gamma_prefactor_many(field, s) + log_scale)
    return 0.5 * s * (s - 1.0) * (prefactor * numerics.dedekind_zeta_many(s, field))


def xi_many(field, s):
    """xi_F(s) = (1/2) s (s-1) Omega_F(s) on an array of s; entire, symmetric under s -> 1-s."""
    return _xi_scaled_many(field, s, 0.0)


def xi_completed(field, s):
    """xi_F(s) at one point."""
    return complex(xi_many(field, np.array([complex(s)]))[0])


def _xi_real_many(field, ts, log_scale):
    """e^{log_scale} Xi_F(t) on an array of real t, with the imaginary part checked and dropped.

    RealityViolationError where |Im| > 1e-9 (1 + |Re|), naming the worst t.
    """
    ts = np.asarray(ts, dtype=float)
    vals = _xi_scaled_many(field, 0.5 + 1j * ts, log_scale)
    bad = np.abs(vals.imag) > 1e-9 * (1.0 + np.abs(vals.real))
    if np.any(bad):
        i = int(np.argmax(np.abs(vals.imag) / (1.0 + np.abs(vals.real))))
        raise RealityViolationError(
            f"Xi_F(t) imaginary part too large at t = {ts.flat[i]}: {vals.flat[i]}")
    return vals.real


def _xi_rescaled_many(field, ts):
    """exp(pi d t / 4) * Xi_F(t) on an array of real t, with reality check.

    The factor enters the gamma prefactor's exponent, so nothing underflows at height.
    """
    ts = np.asarray(ts, dtype=float)
    return _xi_real_many(field, ts, math.pi * field.degree * ts / 4.0)


def big_xi(field, t):
    """Xi_F(t) = xi_F(1/2 + it); the imaginary part is checked and discarded."""
    return float(_xi_real_many(field, [float(t)], 0.0)[0])


@dataclass(frozen=True)
class ScanResult:
    brackets: tuple          # (t_lo, t_hi) sign-change intervals
    refined: tuple           # zero ordinates, one per bracket
    residuals: tuple         # |rescaled Xi| at each refined ordinate


def refine_zeros(field, brackets, tol=1e-9):
    """Bisect sign-change brackets of the rescaled Xi, all in lockstep, down to width `tol`.

    Each halving step is one Xi evaluation over the brackets still open.  A
    bracket ends at an endpoint or midpoint where Xi is exactly zero, or at
    the midpoint of its last interval once that is no wider than `tol`.
    Returns the ordinates as an array, in bracket order.
    """
    lo = np.array([float(b[0]) for b in brackets])
    hi = np.array([float(b[1]) for b in brackets])
    if not np.all(hi > lo):
        raise ValidationError("bracket must satisfy t_lo < t_hi")
    if not len(lo):
        return lo
    f_ends = _xi_rescaled_many(field, np.concatenate([lo, hi]))
    f_lo, f_hi = f_ends[:len(lo)], f_ends[len(lo):]
    out = np.empty(len(lo))
    done = np.zeros(len(lo), dtype=bool)
    for i in range(len(lo)):
        if f_lo[i] == 0.0:
            out[i], done[i] = lo[i], True
        elif f_hi[i] == 0.0:
            out[i], done[i] = hi[i], True
        elif f_lo[i] * f_hi[i] > 0:
            raise LostBracketError(f"no sign change across [{lo[i]}, {hi[i]}]")
    live = np.nonzero(~done & (hi - lo > tol))[0]
    while len(live):
        mid = 0.5 * (lo[live] + hi[live])
        f_mid = _xi_rescaled_many(field, mid)
        hit = f_mid == 0.0
        out[live[hit]], done[live[hit]] = mid[hit], True
        left = f_lo[live] * f_mid < 0
        hi[live[left]] = mid[left]
        lo[live[~left]], f_lo[live[~left]] = mid[~left], f_mid[~left]
        live = np.nonzero(~done & (hi - lo > tol))[0]
    out[~done] = 0.5 * (lo[~done] + hi[~done])
    return out


def refine_zero(field, bracket, tol=1e-9):
    """Bisect one sign-change bracket of the rescaled Xi down to width `tol`."""
    return float(refine_zeros(field, [bracket], tol)[0])


def scan_zeros(field, t_min, t_max, step):
    """Bracket and refine every sign change of Xi_F on [t_min, t_max]."""
    if not (0 <= t_min < t_max):
        raise ValidationError("need 0 <= t_min < t_max")
    if step <= 0:
        raise ValidationError("step must be positive")
    n_pts = int(math.ceil((t_max - t_min) / step)) + 1
    ts = np.linspace(t_min, t_max, n_pts)
    vals = _xi_rescaled_many(field, ts)
    signs = np.sign(vals)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    brackets = [(float(ts[i]), float(ts[i + 1])) for i in flips]
    refined = [float(g) for g in refine_zeros(field, brackets)]
    residuals = [float(r) for r in np.abs(_xi_rescaled_many(field, refined))]
    for a, b in zip(refined, refined[1:]):
        if b - a < 2.0 * step:
            warnings.warn(f"zeros at {a:.6f} and {b:.6f} closer than twice the "
                          f"scan step {step}; consider a finer grid", stacklevel=2)
    return ScanResult(brackets=tuple(brackets), refined=tuple(refined),
                      residuals=tuple(residuals))


def phi_identity_check(field, z, T=None, tol=1e-6):
    """Check the Phi integral identity tying Xi_F to the forward theta function.

    Both sides are independently computable: lhs is the quadrature of
    int_0^T Xi_F(t)/(t^2 + 1/4) cos(zt) dt, rhs the theta side
    -(pi/2)[e^{-z/2} W(e^{-2z}) + 2^r1 C_F (e^{-z/2} + e^{z/2})].  At k = 1
    R_0 is the constant 2^r1 C_F, so with W = S - R_0 the rhs is
    -(pi/2)[e^{-z/2} S(e^{-2z}) + 2^r1 C_F e^{z/2}].  The residual is
    |lhs - rhs|.  The integrand is even in t, so lhs is the trapezoid rule on
    [0, T] with half weight at t = 0 (numerics.nested_trapezoid), from the
    step 1/4 that the poles at t = +-i/2 allow, halved until two levels
    differ by at most max(0.1 tol, 1e-12); the budget's quadrature_delta is
    that last difference, and its kernel_quadrature the proven quadrature
    error of the terms of S (see theta._s_series_log).
    """
    z = complex(z)
    d = field.degree
    rate = math.pi * d / 4.0 - abs(z.imag)
    if rate < 0.2:
        raise SectorError(f"|Im z| must stay below pi*{d}/4 - 0.2")
    if T is None:
        T = (math.log(1.0 / tol) + 25.0) / rate

    def integrand(t, entry):
        return xi_many(field, 0.5 + 1j * t) / (t * t + 0.25) * np.cos(z * t)

    values, deltas, converged = numerics.nested_trapezoid(
        integrand, [T], [0.25], even=True, rtol=0.0, atol=max(tol * 0.1, 1e-12))
    lhs, delta = complex(values[0]), float(deltas[0])
    if not converged[0]:
        raise ConvergenceError(f"Phi integral did not settle: delta {delta:.2e}")
    # S at x = e^{-2z} on the sheet log x = -2z, which leaves the principal one at |Im z| > pi/2
    s_val, _, series = theta._s_series_log(field, 1, -2.0 * z, min(tol * 1e-2, 1e-9))
    r0 = 2.0 ** field.r1 * fields.laurent_constant(field)
    rhs = -(math.pi / 2.0) * (cmath.exp(-z / 2.0) * s_val + r0 * cmath.exp(z / 2.0))
    return theta.Report(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs),
                        budget={"quadrature_delta": delta,
                                "kernel_quadrature": series["kernel_quadrature"]})
