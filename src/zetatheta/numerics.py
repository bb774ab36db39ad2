"""Complex-plane special-function backbone.

Log-gamma on the whole plane (Lanczos) and the gamma factor of Lambda_F in
log space, Hurwitz zeta (Euler-Maclaurin), Dirichlet L, Dedekind zeta,
vertical-line quadrature (one nested trapezoid rule over a batch of lines),
contour-based Laurent coefficient extraction, residue polynomials, and the
package's one memo.
Everything downstream (kernels, theta sums, zero scans) is built on the
operations in this module.

All functions but `memo` are pure; vectorized variants take numpy arrays and
are safe to call concurrently.
"""

from dataclasses import dataclass
import cmath
import math

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    PoleError,
    SingularityOnCircleError,
    ValidationError,
)

# Lanczos rational approximation, g = 7 with 9 coefficients: ~13 significant
# digits in double precision over the right half-plane.
_LANCZOS_G = 7.0
_LANCZOS_C = np.array([
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)

# B_2 .. B_24, the Euler-Maclaurin depth used by hurwitz_zeta.
_BERNOULLI = np.array([
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
])


def loggamma(z):
    """log Gamma(z) on the whole plane off the poles, scalar or array.

    Lanczos for Re(z) >= 1/2.  Left of that, the reflection
    log pi - log sin(pi z) - log Gamma(1 - z) with
    log sin(pi z) = -i s pi z + log(s expm1(2 i s pi z) / 2i), s = 1 for
    Im z >= 0 and -1 below, whose exponential never exceeds 1 in modulus, so
    nothing overflows at any height.  One Lanczos pass serves both half-planes.  The branch may differ
    from the continuous log-gamma by multiples of 2 pi i, which is harmless
    for the integer gamma powers this package exponentiates.
    """
    shape = np.shape(z)
    z = np.asarray(z, dtype=complex).ravel()
    left = z.real < 0.5
    w = z - 1.0
    if np.any(left):
        w[left] = -z[left]      # Lanczos at 1 - z
    acc = np.full_like(z, _LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        acc = acc + _LANCZOS_C[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    out = _HALF_LOG_TWO_PI + (w + 0.5) * np.log(t) - t + np.log(acc)
    if np.any(left):
        pz = math.pi * z[left]
        sign = np.where(pz.imag < 0.0, -1.0, 1.0)
        log_sin = -1j * sign * pz + np.log(sign * np.expm1(2j * sign * pz) / 2j)
        out[left] = _LOG_PI - log_sin - out[left]
    return out.reshape(shape) if shape else complex(out[0])


def log_gamma_factor(r1, r2, s):
    """r1 log Gamma(s/2) + r2 log Gamma(s), the gamma factor of Lambda_F in log space."""
    s = np.asarray(s, dtype=complex)
    out = np.zeros_like(s)
    if r1:
        out = out + r1 * loggamma(s / 2.0)
    if r2:
        out = out + r2 * loggamma(s)
    return out


def digamma_real(x):
    """psi(x) for real x > 0 (used by L(1, chi))."""
    if x <= 0:
        raise DomainError("digamma_real requires x > 0")
    acc = 0.0
    while x < 12.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 / 132.0))))
    return acc + math.log(x) - 0.5 / x - tail


def _hurwitz_core(s_arr, a, shift):
    """Euler-Maclaurin evaluation of zeta_H(s, a) for 1-d arrays of s and a sharing one shift.

    Returns shape (len(a), len(s_arr)).
    """
    # the head runs along the last, contiguous axis, so numpy sums it pairwise
    # whatever the number of points: a value does not depend on its chunk
    n = np.arange(shift, dtype=float)[None, None, :] + a[:, None, None]
    head = (n ** (-s_arr[None, :, None])).sum(axis=2)
    base = float(shift) + a[:, None]
    bs = base ** (-s_arr)
    total = head + base * bs / (s_arr - 1.0) + 0.5 * bs
    # correction: sum_j B_2j/(2j)! (s)_{2j-1} base^{-s-2j+1}
    poch = s_arr.copy()
    fac = 2.0
    power = bs / base
    for j, b2j in enumerate(_BERNOULLI, start=1):
        total = total + (b2j / fac) * poch * power
        # update for next order: multiply pochhammer by (s+2j-1)(s+2j), factorial by (2j+1)(2j+2)
        poch = poch * (s_arr + (2 * j - 1)) * (s_arr + 2 * j)
        fac *= (2 * j + 1) * (2 * j + 2)
        power = power / (base * base)
    return total


# Upper bound on shift * len(a) * points for one _hurwitz_core call: the head
# matrix of a bank stays near 16 MiB however many points are evaluated.
_HURWITZ_CHUNK_ELEMENTS = 2 ** 20


def hurwitz_zeta_many(s, a):
    """Vectorized Hurwitz zeta over an array of s, for a scalar a in (0, 1] or a 1-d bank of them.

    A scalar a gives s.shape; a 1-d array a gives (len(a),) + s.shape.  All
    values share one summation shift, set by the whole s array, and are
    evaluated in chunks of points, so the result does not depend on the chunk
    size.
    """
    s = np.asarray(s, dtype=complex)
    a_arr = np.asarray(a, dtype=float)
    bank = a_arr.reshape(-1)
    if a_arr.ndim > 1 or not np.all((bank > 0.0) & (bank <= 1.0)):
        raise DomainError("hurwitz_zeta requires a in (0, 1], as a scalar or a 1-d array")
    if np.any(np.abs(s - 1.0) < 1e-12):
        raise PoleError("hurwitz zeta pole at s = 1")
    im_max = float(np.max(np.abs(s.imag))) if s.size else 0.0
    re_min = float(np.min(s.real)) if s.size else 0.0
    # balance the Euler-Maclaurin remainder (grows with |Im s|) against the
    # cancellation of the head sum for Re(s) < 0 (grows with the shift)
    shift = int(max(16.0, math.ceil(0.62 * im_max + 8.0 + 2.0 * max(0.0, -re_min))))
    flat = s.ravel()
    out = np.empty((len(bank), len(flat)), dtype=complex)
    chunk = max(1, _HURWITZ_CHUNK_ELEMENTS // (shift * max(1, len(bank))))
    for lo in range(0, len(flat), chunk):
        out[:, lo:lo + chunk] = _hurwitz_core(flat[lo:lo + chunk], bank, shift)
    return out.reshape(a_arr.shape + s.shape)


def hurwitz_zeta(s, a=1.0):
    """zeta_H(s, a) = sum_{n>=0} (n+a)^(-s), continued to all s != 1.

    Euler-Maclaurin with the 12 Bernoulli terms B_2 .. B_24; the summation
    shift grows with |Im s| so accuracy holds uniformly on desk-scale strips
    (|Im s| <~ 100).
    """
    return complex(hurwitz_zeta_many(np.array([complex(s)]), a)[0])


def _l_factors(s, characters):
    """[L(s, chi) for chi in characters] on an array of s away from s = 1.

    One Hurwitz bank holds zeta_H(s, a/q) for every distinct (q, a) with
    chi(a) != 0 over all the characters; each L-factor is then
    q^(-s) * sum_a chi(a) zeta_H(s, a/q), summed in residue order.
    """
    slots = {}
    for chi in characters:
        for a in range(1, chi.modulus + 1):
            if chi.value(a) != 0:
                slots.setdefault((chi.modulus, a), len(slots))
    bank = hurwitz_zeta_many(s, np.array([a / q for q, a in slots]))
    factors = []
    for chi in characters:
        q = chi.modulus
        total = np.zeros_like(s)
        for a in range(1, q + 1):
            v = chi.value(a)
            if v != 0:
                total = total + v * bank[slots[(q, a)]]
        factors.append(q ** (-s) * total)
    return factors


def dirichlet_l(s, chi):
    """L(s, chi) via Hurwitz zeta: q^(-s) * sum_a chi(a) zeta_H(s, a/q).

    At s = 1 a non-principal character is evaluated with the digamma closed
    form; the principal character raises PoleError there.
    """
    s = complex(s)
    q = chi.modulus
    at_one = abs(s - 1.0) < 1e-12
    if chi.is_principal and at_one:
        raise PoleError("L(s, principal) has a pole at s = 1")
    if at_one:
        return -sum(chi.value(a) * digamma_real(a / q) for a in range(1, q + 1)) / q
    return complex(dirichlet_l_many(np.array([s]), chi)[0])


def dirichlet_l_many(s, chi):
    """Vectorized L(s, chi) over an array of s staying away from s = 1."""
    return _l_factors(np.asarray(s, dtype=complex), (chi,))[0]


def dedekind_zeta(s, field):
    """zeta_F(s), the product of its Dirichlet L-factors: dedekind_zeta_many at one point."""
    s = complex(s)
    if abs(s - 1.0) < 1e-12:
        raise PoleError("Dedekind zeta pole at s = 1")
    return complex(dedekind_zeta_many(np.array([s]), field)[0])


def dedekind_zeta_many(s, field):
    """Vectorized Dedekind zeta: one Hurwitz bank shared by all L-factors."""
    s = np.asarray(s, dtype=complex)
    out = np.ones_like(s)
    for factor in _l_factors(s, field.characters):
        out = out * factor
    return out


# ---------------------------------------------------------------------------
# vertical-line quadrature
# ---------------------------------------------------------------------------

# Nodes of one integrand call of nested_trapezoid: the entries are grouped by
# the slot of this width that their first node falls in, and an entry with
# more nodes than that is a group of its own.
_TRAPEZOID_CHUNK_NODES = 4096
# Step halvings after the first pass: the finest step is 1/16 of the first.
_TRAPEZOID_HALVINGS = 4


def nested_trapezoid(g, half_heights, steps, even=False, rtol=1e-11, atol=0.0):
    """int_{-T_i}^{T_i} g(t, i) dt for every entry i by one nested trapezoid rule.

    Entry i starts with nodes t = j steps[i], |t| <= T_i, and each of up to
    four halvings of the step adds the midpoints, so every node is evaluated
    once.  With `even` the integrand is even in t: only t >= 0 is evaluated,
    with half weight at t = 0, and the value is int_0^{T_i}.  `g(t, entry)`
    gets a 1-d array of nodes and the entry of each; every call holds whole
    entries and about _TRAPEZOID_CHUNK_NODES nodes.  An entry stops once two
    successive levels differ by at most max(atol, rtol max(|value|, 1e-250)).
    Each entry's nodes are summed over their own segment in one fixed order,
    so its value does not depend on the other entries.  Returns arrays of
    (values, last halving deltas, converged flags).
    """
    T = np.asarray(half_heights, dtype=float)
    h = np.asarray(steps, dtype=float)
    if not np.all((h > 0) & (h <= T)):
        raise ValidationError("steps must satisfy 0 < step <= half_height")
    values = np.zeros(len(T), dtype=complex)
    totals = np.zeros(len(T), dtype=complex)      # sum of g over every node so far
    deltas = np.full(len(T), np.inf)
    converged = np.zeros(len(T), dtype=bool)
    live = np.arange(len(T))
    for level in range(_TRAPEZOID_HALVINGS + 1):
        step = h[live] / 2.0 ** level
        top = np.floor(T[live] / step).astype(np.int64)     # the largest j with j step <= T
        if level == 0:
            counts = top + 1 if even else 2 * top + 1
        else:                                               # the odd j, the new midpoints
            counts = (top + 1) // 2 if even else 2 * ((top + 1) // 2)
        starts = np.cumsum(counts) - counts
        slot = starts // _TRAPEZOID_CHUNK_NODES
        big = counts > _TRAPEZOID_CHUNK_NODES
        first = np.ones(len(live), dtype=bool)
        first[1:] = (slot[1:] != slot[:-1]) | big[1:] | big[:-1]
        bounds = np.append(np.flatnonzero(first), len(live))
        sums = np.empty(len(live), dtype=complex)
        for a, b in zip(bounds[:-1], bounds[1:]):
            cnt = counts[a:b]
            seg = starts[a:b] - starts[a]
            k = np.arange(seg[-1] + cnt[-1]) - np.repeat(seg, cnt)
            if level == 0:
                j = k if even else k - np.repeat(top[a:b], cnt)
            else:
                j = 2 * k + 1 if even else 2 * k - np.repeat(cnt - 1, cnt)
            vals = np.asarray(g(j * np.repeat(step[a:b], cnt), np.repeat(live[a:b], cnt)),
                              dtype=complex)
            if np.any(~np.isfinite(vals)):
                raise DomainError("integrand returned a non-finite value on the contour")
            if even and level == 0:
                vals[seg] *= 0.5
            sums[a:b] = np.add.reduceat(vals, seg)
        totals[live] += sums
        new = step * totals[live]
        if level:
            deltas[live] = np.abs(new - values[live])
            converged[live] = deltas[live] <= np.maximum(
                atol, rtol * np.maximum(np.abs(new), 1e-250))
        values[live] = new
        live = live[~converged[live]]
        if not len(live):
            break
    return values, deltas, converged


def line_integral_many(f, abscissae, half_heights, steps):
    """(1/2 pi i) int f(s, i) ds over each vertical segment i of a batch.

    Segment i is Re(s) = abscissae[i], |Im s| <= half_heights[i], integrated
    by nested_trapezoid from the step steps[i]; `f(s, entry)` gets a 1-d
    array of points and the entry of each.  Returns arrays of (values,
    halving deltas, converged flags); converged means the last halving moved
    the value by at most 1e-11 relative.
    """
    c = np.asarray(abscissae, dtype=float)
    values, deltas, converged = nested_trapezoid(
        lambda t, entry: f(c[entry] + 1j * t, entry), half_heights, steps)
    return values / (2.0 * math.pi), deltas / (2.0 * math.pi), converged


# ---------------------------------------------------------------------------
# contour-based Laurent coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaurentResult:
    lowest: int
    coeffs: np.ndarray          # coeffs[i] multiplies (s - s0)**(lowest + i)

    def coefficient(self, power):
        return complex(self.coeffs[power - self.lowest])

    @property
    def residue(self):
        return self.coefficient(-1)


def laurent_coefficients(f, s0, radius, count, lowest=None):
    """Laurent coefficients of f about s0 by trapezoidal contour quadrature.

    Returns coefficients of (s-s0)**m for m = lowest .. lowest+count-1
    (default: the principal part c_{-count} .. c_{-1}): means over one ring of
    128 samples at theta_j = 2 pi (j + 1/2)/128, so f is evaluated once.  The
    check costs no extra evaluation: the even samples are a 64-point ring
    turned by a quarter step, and if its rule differs from the 128-point one
    by more than 1e-11 of max(1, largest coefficient), ConvergenceError is
    raised, so a returned result is a converged one.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    if lowest is None:
        lowest = -count
    theta = 2.0 * math.pi * (np.arange(128) + 0.5) / 128
    ring = radius * np.exp(1j * theta)
    vals = np.asarray(f(s0 + ring), dtype=complex)
    if np.any(~np.isfinite(vals)):
        raise SingularityOnCircleError("non-finite sample on extraction circle")
    if np.max(np.abs(vals)) > 1e250:
        raise SingularityOnCircleError("samples exceed overflow threshold; singularity on circle?")
    terms = [vals * ring ** (-m) for m in range(lowest, lowest + count)]
    a = np.array([np.mean(t[::2]) for t in terms])
    b = np.array([np.mean(t) for t in terms])
    delta = float(np.max(np.abs(a - b)))
    scale = max(float(np.max(np.abs(b))), 1.0)
    if delta > 1e-11 * scale:
        raise ConvergenceError(
            f"Laurent coefficients about s0 = {s0} on radius {radius} did not converge: "
            f"64 -> 128 samples moved them by {delta:.2e}")
    return LaurentResult(lowest=lowest, coeffs=b)


# ---------------------------------------------------------------------------
# residue terms as polynomials in log x
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogPolynomial:
    """Polynomial in log(x); coeffs[j] multiplies (log x)**j."""
    coeffs: tuple

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def eval_log(self, logx):
        acc = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            acc = acc * logx + c
        return acc

    def __call__(self, x):
        return self.eval_log(cmath.log(complex(x)))


def residue_log_polynomial(principal, scale):
    """Residue of f(s) * exp(-scale*(s-s0)*log x) as a LogPolynomial in log x.

    `principal` lists the principal-part coefficients [c_{-1}, c_{-2}, ...]
    of f at s0.  The residue is sum_m c_{-m} (-scale*log x)^{m-1}/(m-1)!.
    """
    coeffs = []
    for j in range(len(principal)):
        coeffs.append(principal[j] * (-scale) ** j / math.factorial(j))
    return LogPolynomial(coeffs=tuple(coeffs))


def residue_polynomial(f, s0, order, scale):
    """Residue of f(s) * exp(-scale*(s-s0)*log x) at a pole of f of `order` at s0.

    The principal part is extracted on a circle of radius 0.25 about s0
    (laurent_coefficients raises if the extraction does not converge) and
    turned into a LogPolynomial by residue_log_polynomial; order 0 gives the
    zero polynomial.
    """
    if order == 0:
        return LogPolynomial(coeffs=(0.0 + 0.0j,))
    res = laurent_coefficients(f, s0, 0.25, count=order)
    return residue_log_polynomial([res.coefficient(-m) for m in range(1, order + 1)], scale)


# ---------------------------------------------------------------------------
# one memo for every derived quantity that is computed once per key
# ---------------------------------------------------------------------------

_MEMO = {}


def memo(key, compute):
    """compute() on the first call with `key`, the stored value after that.

    key[0] names the quantity, the rest identifies it (usually starting with
    field.cache_key).  If compute raises, nothing is stored.  There is no
    size bound: the entries (fields, coefficient tables, constants, residue
    polynomials) grow only with the distinct fields, orders, table sizes and
    zeros a process asks for.
    """
    if key not in _MEMO:
        _MEMO[key] = compute()
    return _MEMO[key]
