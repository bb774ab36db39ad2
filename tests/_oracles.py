"""Independent reference implementations used only by the tests.

Most avoid the package's own evaluation routes: zeta from the Hasse series,
gamma_by_integral from the defining integral, Bessel K from its cosh
integral, W_1 and W_2 from their direct series, coefficient tables from
brute-force enumeration or a plain Dirichlet convolution, the Moebius sum
from a smoothed cutoff.  Slow and simple on purpose.  laurent_coefficients(_many) reads Laurent data off
sampled rings of 128 points, each checked against its 64 even ones: the
reference the package's Taylor jets are compared against.  Some read the package: gamma
is exp(numerics.loggamma), zeta_derivative reads hurwitz_zeta_many's Taylor
data off laurent_coefficients, and r1_theta/r1_inverse run
residue_polynomial on omega_many/lambda_many (the package's gamma prefactor
times zeta_F^k or 1/zeta_F(1 - s)^k) at s = 1, where the package
reads no Laurent data (theta.r0_theta and inverse_theta.r0_inverse read
jets at s = 0).  hlr_zero_term is the package's zero sum for Q in
the Hardy-Littlewood-Ramanujan normalization.  steen_v and
kernel_lines integrate on lines of their own choosing (any abscissa, the
line left of the pole at 0 included), checked by step halving
(halving_line_integral) in place of the kernels' proven plan.
"""

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from zetatheta import fields, inverse_theta, numerics, steen
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


def characters_mod(q):
    """Every Dirichlet character mod q, by brute force, at the order m of the unit group's exponent.

    Each choice of exponents mod m on a greedy generating set of the units is
    spread over the products of the generators and kept if it is multiplicative.
    """
    units = [a for a in range(q) if math.gcd(a, q) == 1]
    m = math.lcm(*(next(k for k in range(1, q + 1) if pow(a, k, q) == 1 % q) for a in units))
    gens, span = [], {1 % q}
    for u in units:
        if u not in span:
            gens.append(u)
            span = {x * pow(u, j, q) % q for x in span for j in range(q)}
    chars = []
    for choice in itertools.product(range(m), repeat=len(gens)):
        exps = {1 % q: 0}
        for g, e in zip(gens, choice):
            exps.update({x * pow(g, j, q) % q: (v + j * e) % m for x, v in list(exps.items()) for j in range(q)})
        if all(exps[a * b % q] == (exps[a] + exps[b]) % m for a in units for b in units):
            chars.append(fields.DirichletCharacter(q, m, tuple(exps.get(a, -1) for a in range(q))))
    assert len(chars) == len(units), (q, len(chars))
    return chars


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


def dirichlet_convolve(f, g):
    """(f*g)(n) = sum_{d|n} f(d) g(n/d) on arrays indexed 1..N, one slice per divisor d."""
    n_max = len(f) - 1
    out = np.zeros_like(f)
    for d in range(1, n_max + 1):
        if f[d] != 0:
            out[d::d] += f[d] * g[1:n_max // d + 1]
    return out


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


@dataclass(frozen=True)
class LaurentResult:
    lowest: int
    coeffs: np.ndarray          # coeffs[i] multiplies (s - s0)**(lowest + i)

    def coefficient(self, power):
        return complex(self.coeffs[power - self.lowest])

    @property
    def residue(self):
        return self.coefficient(-1)


def laurent_coefficients_many(f, centres, radius, count, lowest=None):
    """Laurent coefficients of f about every centre by the trapezoid rule on rings of 128 samples.

    Returns one LaurentResult per centre, with the coefficients of
    (s - s0)**m for m = lowest .. lowest+count-1 (default: the principal part
    c_{-count} .. c_{-1}): the means over the samples at theta_j =
    2 pi (j + 1/2)/128 about it.  f is evaluated once, on the rings of all
    centres together.  The even samples are a 64-point ring turned by a
    quarter step; if that rule differs from the 128-point one by more than
    1e-11 of max(1, the centre's largest coefficient), ConvergenceError names
    the first such centre.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    if lowest is None:
        lowest = -count
    centres = list(centres)
    s0 = np.asarray(centres, dtype=complex).reshape(-1)
    ring = radius * np.exp(1j * (2.0 * math.pi * (np.arange(128) + 0.5) / 128))
    vals = np.asarray(f((s0[:, None] + ring).ravel()), dtype=complex).reshape(len(s0), 128)
    if np.any(~np.isfinite(vals)) or np.max(np.abs(vals)) > 1e250:
        raise DomainError("non-finite or overflowing sample on the extraction circle")
    terms = [vals * ring ** (-m) for m in range(lowest, lowest + count)]
    coeffs = np.array([np.mean(t, axis=1) for t in terms])
    delta = np.max(np.abs(np.array([np.mean(t[:, ::2], axis=1) for t in terms]) - coeffs), axis=0)
    bad = np.flatnonzero(delta > 1e-11 * np.maximum(np.max(np.abs(coeffs), axis=0), 1.0))
    if bad.size:
        i = int(bad[0])
        raise ConvergenceError(
            f"Laurent coefficients about s0 = {centres[i]} on radius {radius} did not converge: "
            f"64 -> 128 samples moved them by {delta[i]:.2e}")
    return [LaurentResult(lowest=lowest, coeffs=coeffs[:, j].copy()) for j in range(len(s0))]


def laurent_coefficients(f, s0, radius, count, lowest=None):
    """Laurent coefficients of f about s0: laurent_coefficients_many at one centre."""
    return laurent_coefficients_many(f, [s0], radius, count, lowest)[0]


def residue_polynomial(f, s0, order, scale):
    """Residue of f(s) * exp(-scale*(s-s0)*log x) at a pole of f of `order` at s0.

    The principal part comes from laurent_coefficients on a radius-0.25
    circle, turned into a LogPolynomial by numerics.residue_log_polynomial;
    order 0 gives the zero polynomial.
    """
    if order == 0:
        return numerics.LogPolynomial(coeffs=(0.0 + 0.0j,))
    res = laurent_coefficients(f, s0, 0.25, count=order)
    return numerics.residue_log_polynomial([res.coefficient(-m) for m in range(1, order + 1)], scale)


def zeta_derivative(s, order=1):
    """zeta'(s) or zeta''(s) by Taylor-coefficient extraction on a radius-0.05 circle."""
    s = complex(s)
    if order not in (1, 2):
        raise ValidationError("order must be 1 or 2")
    if abs(s - 1.0) < 0.1:
        raise PoleError("zeta_derivative too close to the pole at s = 1")
    res = laurent_coefficients(lambda z: numerics.hurwitz_zeta_many(z, 1.0), s, 0.05,
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


def hlr_zero_term(x, zeros):
    """HLR's zero term (1/(2 sqrt(pi))) sum over zero pairs of (pi/sqrt(x))^rho
    Gamma((1-rho)/2)/zeta'(rho): half the package's zero sum for Q at x/pi."""
    return 0.5 * inverse_theta.zero_sum(fields.builtin_field("Q"), 1, x / math.pi, zeros)[0].real


def gamma_prefactor_many(field, s, k=1):
    """[ (D/(4^r2 pi^d))^{s/2} Gamma^{r1}(s/2) Gamma^{r2}(s) ]^k, vectorized."""
    s = np.asarray(s, dtype=complex)
    gamma = numerics.log_gamma_factor_jet(field.r1, field.r2, s, 1, 1)[0].coeffs[..., 0]
    return np.exp(k * (s * fields.half_log_q(field) + gamma))


def omega_many(field, s, k=1):
    """Omega_F(s)^k = [prefactor * zeta_F(s)]^k, vectorized off the poles."""
    s = np.asarray(s, dtype=complex)
    return gamma_prefactor_many(field, s, k) * numerics.dedekind_zeta_many(s, field) ** k


def lambda_many(field, s, k=1):
    """Lambda_F(s)^k = [prefactor / zeta_F(1-s)]^k, vectorized."""
    s = np.asarray(s, dtype=complex)
    return gamma_prefactor_many(field, s, k) / numerics.dedekind_zeta_many(1.0 - s, field) ** k


def r1_inverse(field, k, x):
    """Residue at s = 1 of Lambda_F^k(s) x^{-s/2}, by its own contour at s = 1."""
    x = complex(x)
    poly = residue_polynomial(
        lambda s: lambda_many(field, s, k), 1.0, k * field.unit_rank, scale=0.5)
    return poly(x) / cmath.sqrt(x)


def r1_theta(field, k, x):
    """Residue at s = 1 of Omega_F^k(s) x^{-s/2}, by its own contour at s = 1."""
    x = complex(x)
    poly = residue_polynomial(
        lambda s: omega_many(field, s, k), 1.0, k, scale=0.5)
    return poly(x) / cmath.sqrt(x)


# Step halvings of halving_line_integral after its first level: the finest
# step is 1/16 of the first.
HALVINGS = 4


def halving_line_integral(f, abscissae, half_heights, steps):
    """(1/2 pi i) int f(s, i) ds on each vertical segment i, by step halving.

    Each entry starts with the nodes Im s = j steps[i], |Im s| <=
    half_heights[i], and is halved until two successive levels differ by at
    most 1e-11 of the newer, up to HALVINGS times, else ConvergenceError.
    Each halving adds the new midpoints to the entry's running node sum, so
    every node is evaluated once.
    """
    c = np.asarray(abscissae, dtype=float)
    T = np.asarray(half_heights, dtype=float)
    h = np.asarray(steps, dtype=float)
    totals = np.zeros(len(c), dtype=complex)
    sums = []
    for level in range(HALVINGS + 1):
        step = h / 2.0 ** level
        top = np.floor(T / step).astype(np.int64)       # the largest j with j step <= T
        for i in range(len(c)):
            odd = 2 * ((top[i] + 1) // 2)               # the count of new midpoints
            j = np.arange(-top[i], top[i] + 1) if level == 0 else np.arange(1 - odd, odd, 2)
            vals = np.asarray(f(c[i] + 1j * (j * step[i]), np.full(len(j), i)), dtype=complex)
            totals[i] += np.add.reduceat(vals, [0])[0]   # the package's segment-sum order
        sums.append(step * totals)
    sums = np.array(sums)
    deltas = np.abs(sums[1:] - sums[:-1])
    settled = deltas <= 1e-11 * np.maximum(np.abs(sums[1:]), 1e-250)
    if not np.all(settled.any(axis=0)):
        i = int(np.argmin(settled.any(axis=0)))
        raise ConvergenceError(f"Mellin-Barnes integral on Re(s) = {c[i]} did not converge in "
                               f"{HALVINGS} step halvings: "
                               f"error {deltas[-1, i] / (2.0 * math.pi):.2e}")
    return sums[np.argmax(settled, axis=0) + 1, np.arange(len(c))] / (2.0 * math.pi)


def halving_plan(c, log_x, d, rate, gap, tol, t_offset):
    """(T, first step) of a line checked by step halving.

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
    rate = steen._sector_rate(0, n, cmath.phase(x))
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
        return np.where(lg.real < steen._LOG_UNDERFLOW, 0.0, np.exp(lg))

    c = np.array([float(c)])
    T, step = halving_plan(c, np.array([log_x]), n, rate, c - pole, tol, 0.0)
    return complex(halving_line_integral(f, c, T, step)[0])


def kernel_lines(r1, r2, xs, c, tol, t_offset):
    """Inverse Mellin transform of Gamma^r1(s/2) Gamma^r2(s) at each xs[i] on the line Re(s) = c[i].

    That is Z~_{r1,r2}(x) for c > 0 and Z = Z~ - Res_0 for -1 < c < 0, where
    the line has crossed the pole at 0 and no other: any such line, checked
    by step halving, with `t_offset` widening each window by the offset of
    the integrand's mass along the line.
    """
    c = np.asarray(c, dtype=float)
    if not np.all((c > 0) | ((-1.0 < c) & (c < 0))):
        raise DomainError("abscissa must satisfy c > 0 or -1 < c < 0")
    xs = np.asarray(xs, dtype=complex)
    rate = steen._sector_rate(r1, r2, np.angle(xs))
    log_x = np.log(xs)
    gap = np.where(c > 0, c, np.minimum(-c, 1.0 + c))
    T, step = halving_plan(c, log_x, r1 + 2 * r2, rate, gap, tol, t_offset)
    f = steen._kernel_integrand(r1, r2, log_x)
    return halving_line_integral(lambda s, entry: f(s, entry)[0], c, T, step)
