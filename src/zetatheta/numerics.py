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
# matrix of a bank stays near 1 MiB however many points are evaluated.
_HURWITZ_CHUNK_ELEMENTS = 2 ** 16


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


def dedekind_zeta_majorant(field, centres, radius):
    """M >= |zeta_F(s)| on each circle |s - s0| = radius, for circles in Re s > 0 missing s = 1.

    Euler-Maclaurin to first order gives, for sigma = Re s > 0 and K >= 1,
    |zeta_H(s, a)| <= sum_{n<K} (n+a)^-sigma + (K+a)^(1-sigma)/|s-1|
    + (K+a)^-sigma/2 + |s| (K+a)^-sigma/(2 sigma), each term taken here at
    its worst point of the circle, with K = ceil(max |s|/2), about where the
    last two terms balance.  Then |L(s, chi)| <= q^-sigma sum_a |zeta_H(s, a/q)|
    over chi(a) != 0, and zeta_F is the product of its L-factors.
    """
    c = np.asarray(centres, dtype=complex).reshape(-1)
    lo = c.real - radius                    # the smallest sigma on the circle
    hi = c.real + radius
    near = np.abs(c - 1.0) - radius         # the smallest |s - 1|
    if np.any(lo <= 0.0) or np.any(near <= 0.0):
        raise DomainError("the majorant needs circles inside Re s > 0 that miss s = 1")
    far = np.abs(c) + radius                # the largest |s|
    big_k = np.maximum(1.0, np.ceil(far / 2.0))
    n = np.arange(int(np.max(big_k)), dtype=float)
    hurwitz = {}
    for chi in field.characters:
        q = chi.modulus
        for a in range(1, q + 1):
            if chi.value(a) != 0 and (q, a) not in hurwitz:
                base = n[None, :] + a / q
                head = np.maximum(base ** -lo[:, None], base ** -hi[:, None])
                head = np.where(n[None, :] < big_k[:, None], head, 0.0).sum(axis=1)
                end = big_k + a / q
                hurwitz[(q, a)] = head + end ** (1.0 - lo) / near + end ** -lo / 2.0 \
                    + far * end ** -lo / (2.0 * lo)
    out = np.ones(len(c))
    for chi in field.characters:
        q = chi.modulus
        out = out * float(q) ** -lo * sum(hurwitz[(q, a)] for a in range(1, q + 1)
                                          if chi.value(a) != 0)
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


def nested_trapezoid(g, half_heights, steps, even=False, rtol=1e-11, atol=0.0, error=None):
    """int_{-T_i}^{T_i} g(t, i) dt for every entry i by one nested trapezoid rule.

    Entry i starts with nodes t = j steps[i], |t| <= T_i, and each of up to
    four halvings of the step adds the midpoints, so every node is evaluated
    once.  With `even` the integrand is even in t: only t >= 0 is evaluated,
    with half weight at t = 0, and the value is int_0^{T_i}.  `g(t, entry)`
    gets a 1-d array of nodes and the entry of each; every call holds whole
    entries and about _TRAPEZOID_CHUNK_NODES nodes.

    An entry stops once its error is at most max(atol, rtol max(|value|,
    1e-250)).  The error is the caller's `error(entries, steps)`, the proven
    error of those entries' sums at those steps, read from the first level
    on, so a proven entry is halved only where its bound asks for it;
    without a callback it is the halving delta, the difference of two
    successive levels.  Each entry's nodes are summed over their own segment
    in one fixed order, so its value does not depend on the other entries.
    Returns arrays of (values, last errors, converged flags).
    """
    T = np.asarray(half_heights, dtype=float)
    h = np.asarray(steps, dtype=float)
    if not np.all((h > 0) & (h <= T)):
        raise ValidationError("steps must satisfy 0 < step <= half_height")
    values = np.zeros(len(T), dtype=complex)
    totals = np.zeros(len(T), dtype=complex)      # sum of g over every node so far
    errors = np.full(len(T), np.inf)
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
        if error is not None:
            errors[live] = error(live, step)
        elif level:
            errors[live] = np.abs(new - values[live])
        converged[live] = errors[live] <= np.maximum(atol, rtol * np.maximum(np.abs(new), 1e-250))
        values[live] = new
        live = live[~converged[live]]
        if not len(live):
            break
    return values, errors, converged


def line_integral_many(f, abscissae, half_heights, steps, error=None):
    """(1/2 pi i) int f(s, i) ds over each vertical segment i of a batch.

    Segment i is Re(s) = abscissae[i], |Im s| <= half_heights[i], integrated
    by nested_trapezoid from the step steps[i]; `f(s, entry)` gets a 1-d
    array of points and the entry of each.  `error(entries, steps)`, if
    given, is the proven error of those entries' values at those steps, and
    is the stop rule; else the halving delta is.  Returns arrays of (values,
    errors, converged flags); converged means the error is at most 1e-11
    relative.
    """
    c = np.asarray(abscissae, dtype=float)
    scaled = None if error is None else lambda entry, step: 2.0 * math.pi * error(entry, step)
    values, errors, converged = nested_trapezoid(
        lambda t, entry: f(c[entry] + 1j * t, entry), half_heights, steps, error=scaled)
    return values / (2.0 * math.pi), errors / (2.0 * math.pi), converged


# ---------------------------------------------------------------------------
# contour-based Laurent coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaurentResult:
    lowest: int
    coeffs: np.ndarray          # coeffs[i] multiplies (s - s0)**(lowest + i)
    samples: int = 128          # points on the ring
    alias_bound: float = math.inf   # proven error of every coefficient; inf if checked only

    def coefficient(self, power):
        return complex(self.coeffs[power - self.lowest])

    @property
    def residue(self):
        return self.coefficient(-1)


# Ring sizes a majorant may prove, and the alias bound each coefficient must meet.
_RING_SAMPLES = (16, 32, 64, 128)
_ALIAS_TOL = 1e-13


def laurent_coefficients_many(f, centres, radius, count, lowest=None, majorant=None):
    """Laurent coefficients of f about every centre by trapezoidal contour quadrature.

    Returns one LaurentResult per centre, with the coefficients of (s-s0)**m
    for m = lowest .. lowest+count-1 (default: the principal part
    c_{-count} .. c_{-1}): the means over a ring of N samples at
    theta_j = 2 pi (j + 1/2)/N about it.  f is evaluated once, on the rings
    of all centres together.

    A majorant (R, M), with R > radius and M >= |f| on |s - s0| = R (a
    scalar or one value per centre), asserts that f is analytic on that
    disc, and needs lowest >= 0.  Then |c_n| <= M R^-n (Cauchy), and the
    N-point rule errs in c_m by sum_{j>=1} c_{m+jN} radius^{jN}, at most
    M R^-m q^N/(1 - q^N) with q = radius/R (the alias theorem of the
    trapezoid rule; Trefethen & Weideman, SIAM Rev. 56 (2014)).  N is the
    smallest of 16, 32, 64, 128 at which that bound is <= 1e-13 for every
    extracted c_m, and the result carries the bound as `alias_bound`;
    nothing is checked, since nothing needs to be.

    Without a majorant, or where no N <= 128 reaches 1e-13, N = 128 and the
    ring checks itself: its even samples are a 64-point ring turned by a
    quarter step, and if that rule differs from the 128-point one by more
    than 1e-11 of max(1, the centre's largest coefficient),
    ConvergenceError is raised for the first such centre, so a returned
    result is a converged one.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    if lowest is None:
        lowest = -count
    centres = list(centres)
    s0 = np.asarray(centres, dtype=complex).reshape(-1)
    samples = np.full(len(s0), 128)
    alias = np.full(len(s0), np.inf)
    if majorant is not None:
        outer, bound = majorant
        if lowest < 0 or not outer > radius:
            raise ValidationError("a majorant needs lowest >= 0 and its radius > the ring's")
        worst = np.broadcast_to(np.asarray(bound, dtype=float), s0.shape) \
            * max(outer ** -float(lowest), outer ** -float(lowest + count - 1))
        sizes = np.array(_RING_SAMPLES)
        qn = (radius / outer) ** sizes[:, None]
        err = worst[None, :] * qn / (1.0 - qn)
        ok = err <= _ALIAS_TOL
        proven = ok.any(axis=0)
        first = np.argmax(ok, axis=0)[proven]
        samples[proven] = sizes[first]
        alias[proven] = err[first, np.flatnonzero(proven)]
    # not np.unique, which imports numpy.ma: 27 ms and 2.5 MiB in a cold process
    groups = [(n, np.flatnonzero(samples == n)) for n in sorted(set(samples.tolist()))]
    rings = [radius * np.exp(1j * (2.0 * math.pi * (np.arange(n) + 0.5) / n)) for n, _ in groups]
    vals = np.asarray(f(np.concatenate([(s0[idx, None] + ring).ravel()
                                        for (_, idx), ring in zip(groups, rings)])),
                      dtype=complex)
    if np.any(~np.isfinite(vals)):
        raise SingularityOnCircleError("non-finite sample on extraction circle")
    if np.max(np.abs(vals)) > 1e250:
        raise SingularityOnCircleError("samples exceed overflow threshold; singularity on circle?")
    results = [None] * len(s0)
    failed = []
    start = 0
    for (n, idx), ring in zip(groups, rings):
        v = vals[start:start + n * len(idx)].reshape(len(idx), n)
        start += n * len(idx)
        terms = [v * ring ** (-m) for m in range(lowest, lowest + count)]
        b = np.array([np.mean(t, axis=1) for t in terms])
        if n == 128:
            a = np.array([np.mean(t[:, ::2], axis=1) for t in terms])
            delta = np.max(np.abs(a - b), axis=0)
            scale = np.maximum(np.max(np.abs(b), axis=0), 1.0)
            bad = (delta > 1e-11 * scale) & np.isinf(alias[idx])
            failed += list(zip(idx[bad], delta[bad]))
        for j, i in enumerate(idx):
            results[i] = LaurentResult(lowest=lowest, coeffs=b[:, j].copy(), samples=int(n),
                                       alias_bound=float(alias[i]))
    if failed:
        i, delta = min(failed)
        raise ConvergenceError(
            f"Laurent coefficients about s0 = {centres[i]} on radius {radius} did not converge: "
            f"64 -> 128 samples moved them by {delta:.2e}")
    return results


def laurent_coefficients(f, s0, radius, count, lowest=None):
    """Laurent coefficients of f about s0: laurent_coefficients_many at one centre.

    There is no majorant here, so this is one ring of 128 samples, checked
    against its 64 even samples.  A caller that can bound |f| on a larger
    circle calls laurent_coefficients_many instead: by the trapezoid alias
    theorem the bound then proves the ring's error and picks its size.
    """
    return laurent_coefficients_many(f, [s0], radius, count, lowest)[0]


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


def memo_many(keys, compute):
    """The stored value of every key, the missing ones from one compute(missing keys) call.

    compute returns one value per missing key, in order; if it raises,
    nothing is stored.  key[0] names the quantity, the rest identifies it
    (usually starting with field.cache_key).  There is no size bound: the
    entries (fields, coefficient tables, constants, residue polynomials,
    data at zeros) grow only with the distinct fields, orders, table sizes
    and zeros a process asks for.
    """
    missing = [key for key in dict.fromkeys(keys) if key not in _MEMO]
    if missing:
        _MEMO.update(zip(missing, compute(missing)))
    return [_MEMO[key] for key in keys]


def memo(key, compute):
    """compute() on the first call with `key`, the stored value after that."""
    return memo_many([key], lambda missing: [compute()])[0]
