"""Independent reference implementations used only by the tests.

Everything here avoids the package's own evaluation routes: the zeta values
come from the globally convergent Hasse series, gamma from a direct integral
plus recurrence, Bessel K from its cosh integral, coefficient tables from
brute-force enumeration, the exponential Moebius sum from a smoothed cutoff.
Slow and simple on purpose.  One oracle, r1_inverse, does use the package's
lambda_many and residue_polynomial, but on its own contour at s = 1, not the
s = 0 contour that inverse_theta.r0_inverse reads.
"""

import cmath
import functools
import math

import numpy as np

from zetatheta import fields, numerics


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


def gamma_by_integral(s, t_max=80.0, n_nodes=4000):
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


def bessel_k_integral(nu, z, t_max=None, n_nodes=6000):
    """K_nu(z) = int_0^inf e^{-z cosh t} cosh(nu t) dt for Re(z) > 0."""
    z = complex(z)
    if t_max is None:
        t_max = math.acosh(1.0 + 60.0 / z.real)
    x, w = _leggauss(n_nodes)
    t = 0.5 * t_max * (x + 1.0)
    wt = 0.5 * t_max * w
    vals = np.exp(-z * np.cosh(t)) * np.cosh(nu * t)
    return complex(np.sum(vals * wt))


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


def jacobi_theta_w1(x, n_terms=60):
    """1 + 2 sum e^{-pi n^2 x}, direct."""
    x = complex(x)
    return 1.0 + 2.0 * sum(cmath.exp(-math.pi * n * n * x) for n in range(1, n_terms))


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
