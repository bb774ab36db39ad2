"""Independent reference implementations used only by the tests.

Most avoid the package's own evaluation routes: zeta from the Hasse series,
gamma_by_integral from the defining integral, Bessel K from its cosh
integral, W_1 and W_2 from their direct series, coefficient tables from
brute-force enumeration, the Moebius sum from a smoothed cutoff.  Slow and
simple on purpose.  Four read the package: gamma is exp(numerics.loggamma),
zeta_derivative reads hurwitz_zeta_many's Taylor data off
laurent_coefficients, and r1_theta/r1_inverse run residue_polynomial on
omega_many/lambda_many, but on their own contour at s = 1, not the s = 0
one that theta.r0_theta and inverse_theta.r0_inverse read.
"""

import cmath
import functools
import math

import numpy as np

from zetatheta import fields, numerics
from zetatheta.errors import ConvergenceError, DomainError, PoleError, ValidationError

EULER_GAMMA = 0.5772156649015328606


@functools.lru_cache(maxsize=None)
def _leggauss(n_nodes):
    """Gauss-Legendre nodes and weights, computed once per node count (read-only)."""
    return np.polynomial.legendre.leggauss(n_nodes)


def hasse_zeta(s, n_terms=120):
    """zeta(s) by the globally convergent Hasse/Sondow binomial series (s != 1):
    zeta(s) = 1/(1 - 2^{1-s}) * sum_n 2^{-(n+1)} sum_k (-1)^k C(n,k) (k+1)^{-s}."""
    s = complex(s)
    total = 0.0 + 0.0j
    for n in range(n_terms):
        inner = 0.0 + 0.0j
        for k in range(n + 1):
            inner += (-1) ** k * math.comb(n, k) * (k + 1) ** (-s)
        total += inner / 2.0 ** (n + 1)
    return total / (1.0 - 2.0 ** (1.0 - s))


def gamma(s):
    """Gamma(s) = exp(numerics.loggamma(s)), scalar or array, off the non-positive integers."""
    z = np.asarray(s, dtype=complex)
    pole = (z.real < 0.5) & (np.abs(z.imag) < 1e-12) & (np.abs(z.real - np.round(z.real)) < 1e-12)
    if np.any(pole):
        raise PoleError(f"gamma pole at s = {int(np.round(z[pole][0].real))}")
    out = np.exp(numerics.loggamma(z.reshape(-1))).reshape(z.shape)
    return complex(out) if z.ndim == 0 else out


def gamma_by_integral(s, t_max=80.0, n_nodes=800):
    """Gamma(s) for Re(s) > 0: recurrence into Re(s) >= 3, then Gauss-Legendre
    on the defining integral with t = u^4 (smooths the endpoint)."""
    s = complex(s)
    shift = 0
    while (s + shift).real < 3.0:
        shift += 1
    x, w = _leggauss(n_nodes)
    u_max = t_max ** 0.25
    u = 0.5 * u_max * (x + 1.0)
    wu = 0.5 * u_max * w
    vals = 4.0 * u ** (4.0 * (s + shift) - 1.0) * np.exp(-u ** 4)
    out = complex(np.sum(vals * wu))
    for j in range(shift):
        out = out / (s + j)
    return out


def bessel_k_integral(nu, z, t_max=None, n_nodes=800):
    """K_nu(z) = int_0^inf e^{-z cosh t} cosh(nu t) dt for Re(z) > 0."""
    z = complex(z)
    if t_max is None:
        t_max = math.acosh(1.0 + 60.0 / z.real)
    x, w = _leggauss(n_nodes)
    t = 0.5 * t_max * (x + 1.0)
    wt = 0.5 * t_max * w
    vals = np.exp(-z * np.cosh(t)) * np.cosh(nu * t)
    return complex(np.sum(vals * wt))


def bessel_k(nu, z):
    """K_nu(z), real nu, Re z > 0: the trapezoid rule on int_0^inf e^{-z cosh t} cosh(nu t) dt.

    The step pi (pi/2 - |arg z|)/(40 + Re z + |nu|) and the cut-off
    acosh(1 + (40 + |nu|)/Re z) hold ~1e-14 relative for |nu| <= 2 and
    |arg z| <= pi/2 - 0.2; cancellation gives 2e-10 at nu = 5, arg z = pi/2 - 0.1.
    """
    z = complex(z)
    if not z.real > 0:
        raise DomainError("bessel_k requires Re z > 0")
    nu = abs(float(nu))
    step = math.pi * (math.pi / 2.0 - abs(cmath.phase(z))) / (40.0 + z.real + nu)
    t = np.arange(0.0, math.acosh(1.0 + (40.0 + nu) / z.real) + step, step)
    # e^{-z} e^{-z (cosh t - 1)}: the exponent stays small where the terms are large
    vals = np.exp(-2.0 * z * np.sinh(t / 2.0) ** 2) * np.cosh(nu * t)
    vals[0] *= 0.5
    out = cmath.exp(-z) * step * complex(np.sum(vals))
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise ConvergenceError(f"bessel_k({nu}, {z}) did not evaluate finitely")
    return out


def brute_hurwitz(s, a, n_terms=2_000_000):
    """Direct partial sum for Re(s) > 1.5 with an integral tail correction."""
    s = complex(s)
    n = np.arange(n_terms, dtype=float)
    head = complex(np.sum((n + a) ** (-s)))
    # integral tail + half-term correction
    base = n_terms + a
    return head + base ** (1.0 - s) / (s - 1.0) - 0.5 * base ** (-s)


def kronecker_ideal_count(d_symbol, n, kron):
    """a_F(n) for a quadratic field as sum over divisors of the Kronecker symbol."""
    total = 0
    for dd in range(1, n + 1):
        if n % dd == 0:
            total += kron(d_symbol, dd)
    return total


def brute_dk(k, n):
    """d_k(n): ordered k-tuples with product n, by recursion."""
    if k == 1:
        return 1
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += brute_dk(k - 1, n // d)
    return total


def brute_dirichlet_inverse(a_vals, n_max):
    """Dirichlet inverse by the textbook gather recursion (a_vals index 1..N)."""
    inv = [0] * (n_max + 1)
    inv[1] = 1
    for n in range(2, n_max + 1):
        acc = 0
        for d in range(2, n + 1):
            if n % d == 0:
                acc += a_vals[d] * inv[n // d]
        inv[n] = -acc
    return inv


def _direct_series(total, term, tol, n_max, name):
    """total + sum_{n >= 1} term(n), stopped at the first |term(n)| < tol with n >= 3."""
    for n in range(1, n_max + 1):
        t = term(n)
        total += t
        if abs(t) < tol and n >= 3:
            return total
    raise ConvergenceError(f"{name} series did not reach tolerance")


def jacobi_theta_w1(x, tol=1e-15):
    """W_1(x) = 1 + 2 sum e^{-pi n^2 x} by direct summation (F = Q, k = 1)."""
    x = complex(x)
    if x.real <= 0:
        raise DomainError("jacobi_theta_w1 needs Re(x) > 0")
    return _direct_series(1.0 + 0.0j, lambda n: 2.0 * cmath.exp(-math.pi * n * n * x),
                          tol, 10000, "jacobi")


def koshliakov_theta_w2(x, tol=1e-13):
    """W_2(x) = gamma - log(4 pi) + log sqrt(x) + 4 sum d(n) K_0(2 n pi sqrt(x)) (F = Q, k = 2)."""
    x = complex(x)
    if x == 0 or (x.real <= 0 and x.imag == 0):
        raise DomainError("koshliakov_theta_w2 needs x off (-inf, 0]")
    rx = cmath.sqrt(x)
    table = fields.power_coeffs(fields.builtin_field("Q"), 2, 256)
    return _direct_series(EULER_GAMMA - math.log(4.0 * math.pi) + cmath.log(rx),
                          lambda n: 4.0 * table[n] * bessel_k(0, 2.0 * n * math.pi * rx),
                          tol, 255, "koshliakov")


def zeta_derivative(s, order=1):
    """zeta'(s) or zeta''(s) by Taylor-coefficient extraction on a radius-0.05 circle."""
    s = complex(s)
    if order not in (1, 2):
        raise ValidationError("order must be 1 or 2")
    if abs(s - 1.0) < 0.1:
        raise PoleError("zeta_derivative too close to the pole at s = 1")
    res = numerics.laurent_coefficients(lambda z: numerics.hurwitz_zeta_many(z, 1.0), s, 0.05,
                                        count=1, lowest=order)
    return res.coefficient(order) * math.factorial(order)


def finite_difference(f, s, h=1e-4, order=1):
    """Central finite differences, richardson-free; good to ~1e-8 for smooth f."""
    if order == 1:
        return (f(s + h) - f(s - h) - (f(s + 2 * h) - f(s - 2 * h)) / 8.0) / (1.5 * h)
    if order == 2:
        return (f(s + h) + f(s - h) - 2.0 * f(s)) / (h * h)
    raise ValueError("order must be 1 or 2")


def _smooth_weight(u):
    """C^2 bump: 1 on [0, 1/2], quintic smoothstep down to 0 at 1."""
    v = np.clip((np.asarray(u, dtype=float) - 0.5) * 2.0, 0.0, 1.0)
    return 1.0 - v ** 3 * (10.0 - 15.0 * v + 6.0 * v * v)


def moebius_sieve(n_max):
    """mu(0..n_max) by a prime sieve (mu(0) = 0)."""
    mu = np.ones(n_max + 1, dtype=np.int64)
    mu[0] = 0
    composite = np.zeros(n_max + 1, dtype=bool)
    for p in range(2, n_max + 1):
        if composite[p]:
            continue
        composite[2 * p::p] = True
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    return mu


def smoothed_mu_exp_sum(x, n_smooth=1_000_000):
    """sum mu(n)/n * exp(-x/n^2), Abel-stabilized with a smooth cutoff at n_smooth
    (about 1e-5 off at n_smooth = 10^6)."""
    mu = moebius_sieve(n_smooth)
    n = np.arange(1, n_smooth + 1, dtype=float)
    w = _smooth_weight(n / n_smooth)
    return float(np.sum(mu[1:] / n * np.exp(-x / (n * n)) * w))


def r1_inverse(field, k, x):
    """Residue at s = 1 of Lambda_F^k(s) x^{-s/2}, by its own contour at s = 1."""
    x = complex(x)
    poly = numerics.residue_polynomial(
        lambda s: fields.lambda_many(field, s, k), 1.0, k * field.unit_rank, scale=0.5)
    return poly(x) / cmath.sqrt(x)


def r1_theta(field, k, x):
    """Residue at s = 1 of Omega_F^k(s) x^{-s/2}, by its own contour at s = 1."""
    x = complex(x)
    poly = numerics.residue_polynomial(
        lambda s: fields.omega_many(field, s, k), 1.0, k, scale=0.5)
    return poly(x) / cmath.sqrt(x)
