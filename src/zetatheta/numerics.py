"""Complex-plane special-function backbone.

Log-gamma on the whole plane (Stirling after the recurrence) with its error
bound, Hurwitz zeta (Euler-Maclaurin), Taylor jets whose coefficients carry
proven errors: of the L-factors, from which Dirichlet L, Dedekind zeta, their
error bounds and the jets of zeta_F are all read, and of the gamma factor of
Lambda_F in log space, whose values and Laurent jets are all read; vertical-line
quadrature (one trapezoid level over a batch of lines, on the steps and
windows the caller proves), residue polynomials, and the package's one memo.
Everything downstream (kernels, theta sums, zero scans) is built on the
operations in this module.

All functions but `memo` are pure; vectorized variants take numpy arrays and
are safe to call concurrently.
"""

from dataclasses import dataclass
import cmath
import functools
import math
import operator

import numpy as np

from .errors import DomainError, PoleError, ValidationError

_EPS = float(np.finfo(float).eps)
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
# Stirling's coefficients B_2k / (2k (2k - 1)), k = 1 .. 12.
_STIRLING = _BERNOULLI / (np.arange(2, 25, 2) * np.arange(1, 24, 2))
# log Gamma shifts |z| < 6 to Re w >= 6: there |B_24|/(552 w^23), the last remainder, is eps on the real axis.
_STIRLING_RADIUS = 6.0


def _loggamma_and_error(z):
    """(log Gamma(z) on an array of z off the poles, a bound on each value's error).

    Left of Re z = 1/2, the reflection log pi - log sin(pi z) - log Gamma(u),
    u = 1 - z, with log sin(pi z) = -i s pi z + log(s expm1(2 i s pi r)/2i),
    r = z - k exact for the integer k nearest Re z and s = 1 for Im z >= 0, -1
    below: nothing overflows at any height, and the poles keep their relative
    accuracy.  Right of it, u = z.  Then Stirling's series after the
    recurrence, w = u + n, n = 0 if |u| >= 6 and else the least with Re w >= 6:
    log Gamma(u) = (u - 1/2)(log w - 1) + log(2 pi)/2 - 1/2 - n
                   + sum_{k<K} B_2k/(2k (2k-1) w^(2k-1)) - log prod_{i<n} (u + i)/w,
    K = 12 at every z, so no value depends on the rest of the array.
    The error bound is that remainder, at most |B_2K| sec^2K(ph w/2) /
    (2K (2K-1) |w|^(2K-1)) (DLMF 5.11(ii)), plus 8 eps times a bound on the
    terms' moduli (for the reflection |log sin| and |2 pi r|/|expm1|): a model
    of the float arithmetic like the Hurwitz rounding term.  The branch is the
    continuous one on every point checked against mpmath; it could differ by
    2 pi i, which the integer gamma powers this package exponentiates ignore.
    """
    shape = np.shape(z)
    z = np.asarray(z, dtype=complex).reshape(-1)
    left = z.real < 0.5
    reflect = left.any()
    u = np.where(left, 1.0 - z, z) if reflect else z
    size = modulus = np.abs(u)
    n, w, log_q, shift = 0.0, u, 0.0, size < _STIRLING_RADIUS
    if np.any(shift):
        n = np.where(shift, np.ceil(_STIRLING_RADIUS - u.real), 0.0)
        w, log_q = u + n, np.zeros_like(u)
        i = np.arange(n.max())
        log_q[shift] = np.log(np.where(i < n[shift, None], (u[shift, None] + i) / w[shift, None], 1.0).prod(1))
        size = np.abs(w)
    sec2 = 2.0 * size / (size + w.real)                     # sec^2(ph w / 2)
    inv, log_w = 1.0 / w, np.log(w)
    square, series = inv * inv, _STIRLING[10]
    for c in _STIRLING[9::-1]:
        series = series * square + c
    out = (u - 0.5) * (log_w - 1.0) + (_HALF_LOG_TWO_PI - 0.5 - n) - log_q + series * inv
    error = abs(_STIRLING[11]) * sec2 ** 12 / size ** 23 \
        + 8.0 * _EPS * ((modulus + 1.5) * (np.abs(log_w) + 1.0) + n + np.abs(log_q))
    if reflect:
        zl = z[left]
        spi = (1j * math.pi) * np.copysign(1.0, zl.imag)    # i s pi
        x = 2.0 * spi * (zl - np.round(zl.real))
        e = np.expm1(x)
        log_sin = np.log(e * spi / (-2.0 * math.pi)) - spi * zl
        out[left] = _LOG_PI - log_sin - out[left]
        error[left] += 8.0 * _EPS * (np.abs(log_sin) + np.abs(x / e))
    return out.reshape(shape), error.reshape(shape)


def loggamma(z):
    """log Gamma(z) on the whole plane off the poles, scalar or array: the values of _loggamma_and_error."""
    out = _loggamma_and_error(z)[0]
    return out if out.ndim else complex(out)


def log_gamma_factor(r1, r2, s):
    """(r1 log Gamma(s/2) + r2 log Gamma(s) off the poles, its proven error): coefficient 0 of log_gamma_factor_jet."""
    jet = log_gamma_factor_jet(r1, r2, s, 1, 1)[0]
    return jet.coeffs[..., 0], jet.err[..., 0]


def _hurwitz_shift(s, radius=0.0):
    """The Euler-Maclaurin summation shift for the whole array s, or for the discs |s - s0| <= radius about it."""
    im_max = float(np.abs(s.imag).max()) + radius if s.size else 0.0
    re_min = float(s.real.min()) - radius if s.size else 0.0
    # balance the Euler-Maclaurin remainder (grows with |Im s|) against the
    # cancellation of the head sum for Re(s) < 0 (grows with the shift)
    return int(max(16.0, math.ceil(0.62 * im_max + 8.0 + 2.0 * max(0.0, -re_min))))


# Upper bound on shift * len(a) * points for one block of _hurwitz_jet's head
# sum: its terms stay within 64 KiB however many points are evaluated.
_HURWITZ_CHUNK_ELEMENTS = 2 ** 12
# The disc about each centre on which Cauchy bounds a jet's coefficients j >= 1, and
# the error of numpy's float64 log, at most, in ulps: glibc's bound for its log.
_JET_RADIUS, _LOG_ULPS = 0.5, 0.52


def hurwitz_zeta_many(s, a):
    """Vectorized Hurwitz zeta over an array of s, for a scalar a in (0, 1] or a 1-d bank of them.

    A scalar a gives s.shape; a 1-d array a gives (len(a),) + s.shape.  All
    values share one summation shift, set by the whole s array, and are the
    constant coefficients of _hurwitz_jet.
    """
    s = np.asarray(s, dtype=complex)
    a_arr = np.asarray(a, dtype=float)
    bank = a_arr.reshape(-1)
    if a_arr.ndim > 1 or not np.all((bank > 0.0) & (bank <= 1.0)):
        raise DomainError("hurwitz_zeta requires a in (0, 1], as a scalar or a 1-d array")
    if np.any(np.abs(s - 1.0) < 1e-12):
        raise PoleError("hurwitz zeta pole at s = 1")
    return _hurwitz_jet(s.ravel(), bank, _hurwitz_shift(s), 1)[0][..., 0].reshape(a_arr.shape + s.shape)


def hurwitz_zeta(s, a=1.0):
    """zeta_H(s, a) = sum_{n>=0} (n+a)^(-s), continued to all s != 1.

    Euler-Maclaurin with B_2 .. B_24 at a shift that grows with |Im s|, so the
    remainder stays below the rounding at every height (_hurwitz_jet bounds
    both per value): Q's zeros at t = 10^4 come out within 3.6e-12.
    """
    return complex(hurwitz_zeta_many(np.array([complex(s)]), a)[0])


def _character_bank(characters):
    """(a_bank, rows): the distinct a/q with chi(a) != 0, and per character its (slot, chi(a)) list."""
    slots, rows = {}, []
    for chi in characters:
        q = chi.modulus
        rows.append([(slots.setdefault((q, a), len(slots)), v)
                     for a, v in ((a, chi.value(a)) for a in range(1, q + 1)) if v != 0])
    return np.array([a / q for q, a in slots]), rows


def dirichlet_l(s, chi):
    """L(s, chi) via Hurwitz zeta: dirichlet_l_many at one point."""
    return complex(dirichlet_l_many(np.array([complex(s)]), chi)[0])


def dirichlet_l_many(s, chi):
    """Vectorized L(s, chi): coefficient 0 of its jet, q^(-s) * sum_a chi(a) zeta_H(s, a/q).

    At s = 1 a non-principal character is evaluated with the digamma closed
    form (psi off log Gamma's jet); the principal character raises PoleError.
    """
    s = np.asarray(s, dtype=complex)
    flat = s.reshape(-1)
    at_one = (np.abs(flat - 1.0) < 1e-12) & (not chi.is_principal)
    out = np.empty(flat.shape, dtype=complex)
    if not np.all(at_one):
        out[~at_one] = _l_factor_jets((chi,), flat[~at_one], 1)[0].coeffs[:, 0]
    if np.any(at_one):
        q = chi.modulus
        a = np.arange(1, q + 1)
        out[at_one] = -complex(np.dot(chi.values_at(a), _log_gamma_derivatives(a / q + 0j, 2)[0][:, 0])) / q
    return out.reshape(s.shape)


def dedekind_zeta(s, field):
    """zeta_F(s), the product of its Dirichlet L-factors: dedekind_zeta_many at one point."""
    return complex(dedekind_zeta_many(np.array([complex(s)]), field)[0])


def dedekind_zeta_many(s, field):
    """Vectorized Dedekind zeta: coefficient 0 of the product of the L-factor jets (_l_factor_jets)."""
    s = np.asarray(s, dtype=complex)
    jet = functools.reduce(operator.mul, _l_factor_jets(field.characters, s, 1))
    return jet.coeffs[:, 0].reshape(s.shape)


# ---------------------------------------------------------------------------
# Taylor jets: truncated power series, each coefficient with a proven error
# ---------------------------------------------------------------------------

def _series_mul(a, b):
    """Cauchy product of coefficient arrays (powers on the last axis), truncated to the shorter."""
    n = min(a.shape[-1], b.shape[-1])
    out = a[..., :1] * b[..., :n]
    for j in range(1, n):
        out[..., j:] += a[..., j:j + 1] * b[..., :n - j]
    return out


@dataclass(frozen=True)
class Jet:
    """sum_j coeffs[..., j] e^(lowest + j), e = s - s0: a truncated Laurent series per centre.

    The leading axes run over the centres, the last over the powers;
    err[..., j] bounds the error of coeffs[..., j].  Every operation carries
    it to first order (a product errs by |a| err_b + err_a |b|, as series)
    plus its rounding, (count + 4) eps times the operation on the moduli: a
    model of the float arithmetic, like the Hurwitz rounding term.
    """
    coeffs: np.ndarray
    err: np.ndarray
    lowest: int = 0

    def principal(self):
        """[c_-1, c_-2, .., c_lowest] along the last axis; empty when lowest >= 0."""
        return self.coeffs[..., max(-self.lowest, 0) - 1::-1][..., :max(-self.lowest, 0)]

    def _rounding(self, moduli):
        return (moduli.shape[-1] + 4) * _EPS * moduli

    def __mul__(self, other):
        a, b = np.abs(self.coeffs), np.abs(other.coeffs)
        rounding = (min(a.shape[-1], b.shape[-1]) + 4) * _EPS
        return Jet(_series_mul(self.coeffs, other.coeffs),
                   _series_mul(a, other.err + rounding * b) + _series_mul(self.err, b),
                   self.lowest + other.lowest)

    def __pow__(self, k):
        """The k-th power, k >= 1, by repeated products."""
        return self if k == 1 else self * self ** (k - 1)

    def reciprocal(self):
        """1/f, for a jet whose leading coefficient is nonzero."""
        a = self.coeffs
        q = np.empty(a.shape, dtype=np.result_type(a, float))
        q[..., 0] = 1.0 / a[..., 0]
        for n in range(1, a.shape[-1]):
            q[..., n] = -np.sum(a[..., 1:n + 1] * q[..., n - 1::-1], axis=-1) * q[..., 0]
        square = _series_mul(np.abs(q), np.abs(q))
        return Jet(q, _series_mul(square, self.err + self._rounding(np.abs(a))), -self.lowest)

    def exp(self):
        """exp(f), for a Taylor jet (lowest 0)."""
        a = self.coeffs
        e = np.empty_like(a)
        e[..., 0] = np.exp(a[..., 0])
        for n in range(1, a.shape[-1]):
            e[..., n] = np.sum(np.arange(1, n + 1) * a[..., 1:n + 1] * e[..., n - 1::-1], axis=-1) / n
        moduli = np.abs(e)
        return Jet(e, _series_mul(moduli, self.err + self._rounding(np.abs(a))) + 2.0 * _EPS * moduli)


def _hurwitz_jet(s0, a, shift, count):
    """(Coefficients e^0 .. e^(count-1) of zeta_H(s0 + e, a), their proven errors), each (len(a), len(s0), count).

    The Euler-Maclaurin sum at this shift N with B_2 .. B_24, each term a jet
    in e: (n + a)^(-s0-e) = (n + a)^-s0 sum_j (-log(n + a))^j e^j/j!,
    1/(s - 1) and the Pochhammer factors; the head in blocks of at most
    _HURWITZ_CHUNK_ELEMENTS terms, each row summed along the contiguous axis.
    Each error is a running bound (Higham, Accuracy and Stability, 3.3) from
    the moduli its value sums: a head term x^-s0 (-log x)^j/j!, x = n + a,
    errs by eps |s0| (d + |log x|/2) times its modulus from its exponent, d
    eps the error of log x (_LOG_ULPS ulps, a and n + a rounded), plus ulps
    per exp, product and pairwise-sum rounding; these moduli are summed once
    per distinct sigma.  The tail is charged from its factors' moduli at the
    bank's largest base, the Bernoulli terms' majorant being (pi/6) rho/(1 -
    rho^2) r^-j, rho = (|s0| + r + 11.5)/(2 pi base), r = 0 for j = 0 and
    _JET_RADIUS (Cauchy on the disc) above; the remainder after B_24 is at
    most 4 base^(1 - sigma + r) rho^24/(sigma - r + 23) r^-j (Johansson,
    Numer. Algorithms 69 (2015), Thm 1, with AM-GM for |(s)_24|).
    """
    head = np.empty((len(a), len(s0), count), dtype=complex)
    if not s0.size:
        return head, np.zeros(head.shape)
    log_n = -np.log(np.arange(shift, dtype=float)[None, :] + a[:, None])[:, None, :]
    block = max(1, _HURWITZ_CHUNK_ELEMENTS // (shift * max(1, len(a))))
    for lo in range(0, len(s0), block):
        term = np.exp(s0[None, lo:lo + block, None] * log_n)
        for j in range(count):
            if j:
                term = term * (log_n / j)
            head[:, lo:lo + block, j] = term.sum(axis=2)
    powers = np.arange(count)
    factorials = np.cumprod(np.maximum(np.arange(count + 1), 1))
    base = (shift + a)[:, None, None]
    log_base = np.log(base)
    decay = np.exp(-s0[None, :, None] * log_base) * (-log_base) ** powers / factorials[:-1]   # base^-(s0 + e)
    correction = base * (-1.0) ** powers / (s0[:, None] - 1.0) ** (powers + 1)
    correction[..., 0] += 0.5
    poch = np.zeros((len(s0), count + 1), dtype=complex)     # 0, then (s0 + e)_(2j-1)
    poch[:, 1], poch[:, 2:3] = s0, 1.0
    fac = 2.0
    factors = s0[:, None, None] + np.arange(1.0, 2 * len(_BERNOULLI) - 1)[:, None]    # s0 + i, i >= 1
    for j, b2j in enumerate(_BERNOULLI, start=1):
        if j > 1:
            for c in (factors[:, 2 * j - 4], factors[:, 2 * j - 3]):
                poch[:, 1:] = poch[:, 1:] * c + poch[:, :-1]
            fac *= (2 * j - 1) * (2 * j)
        correction = correction + (b2j / fac) * poch[:, 1:] * base ** (1.0 - 2 * j)
    # the head's: per distinct sigma, its moduli x^-sigma summed against |log x|^j/j! times
    # d + |log x|/2, the exponent's error per unit |s0|, and against |log x|^j/j!
    sigma, size = s0.real, np.abs(s0)
    sigmas = [sigma.item(0)] if sigma.min() == sigma.max() else sorted(set(sigma.tolist()))

    def moduli_sums(keys):
        magnitude = np.abs(log_n[:, 0])
        ulps = (magnitude.view(np.int64) & 0x7FF0000000000000).view(float)      # ulp(log x)/eps
        drift = _LOG_ULPS * ulps + 0.5 + 0.5 * np.exp(log_n[:, 0]) * a[:, None]
        terms = np.array([drift + 0.5 * magnitude, np.ones_like(magnitude)])[..., None] * (
            magnitude[..., None] ** powers / factorials[:-1])
        return (np.exp(np.array([key[-1] for key in keys])[:, None, None] * log_n[:, 0])[:, None, ..., None]
                * terms).sum(axis=3)
    sums = np.array(memo_many([("hurwitz_moduli", a.tobytes(), shift, count, v) for v in sigmas], moduli_sums))
    sums = sums[0][:, :, None] if len(sigmas) == 1 else sums[np.searchsorted(sigmas, sigma)].transpose(1, 2, 0, 3)
    roundings = min(shift // 4 + 4, math.ceil(math.log2(shift)) + 14)     # of numpy's pairwise sum
    error = (_EPS * size)[:, None] * sums[0] + (_EPS * (3.0 + 1.52 * powers + 0.5 * roundings)) * sums[1]
    error[..., 1:] += _EPS * sums[1][..., :-1]
    # the tail's and the remainder's, at the bank's base where each modulus is largest
    lo, hi = shift + float(a.min()), shift + 1.0
    log_lo, log_hi = math.log(lo), math.log(hi)
    peak = np.exp(-sigma * log_lo if sigmas[0] >= 0.0 else np.maximum(-sigma * log_lo, -sigma * log_hi))
    first = np.array([1.0] + [0.0] * (count - 1))
    radius = _JET_RADIUS * (1.0 - first)
    pole = hi / np.abs(s0 - 1.0)[:, None] ** (powers + 1)
    rho = (size[:, None] + radius + 11.5) / (2.0 * math.pi * lo)
    bernoulli = (math.pi / 6.0) * 2.0 ** powers * rho / np.maximum(1.0 - rho * rho, 1e-300)
    weight = size * ((_LOG_ULPS + 0.5) * log_hi + 1.0) + 11.0 + 4.5 * (count - 1)
    tail = _series_mul(peak[:, None] * (log_hi ** powers / factorials[:-1]), weight[:, None] * (
        pole + bernoulli + 0.5 * first) + (5.5 + 2.0 * powers) * pole + 64.0 * bernoulli)
    remainder = (4.0 * hi ** (1.0 + radius) * 2.0 ** powers) * peak[:, None] * rho ** 24 \
        / np.maximum(sigma[:, None] - radius + 23.0, 1e-300)
    return head + _series_mul(decay, correction), error + (_EPS * tail + remainder)


def _l_factor_jets(characters, centres, count):
    """Jets of L(s, chi) about every centre, one per character: count coefficients with proven errors.

    One Hurwitz jet bank holds zeta_H(s0 + e, a/q) for every distinct (q, a)
    with chi(a) != 0 over all the characters; each factor is
    q^-(s0 + e) sum_a chi(a) zeta_H(s0 + e, a/q), summed in residue order.
    The bank's shift is hurwitz_zeta_many's for the centres, and with
    count > 1 for the discs |s - s0| <= _JET_RADIUS, which must miss s = 1.
    A coefficient errs by its residues' errors (_hurwitz_jet, each built at
    its point) plus the residue sum's rounding, (n + 2) eps sum_a |zeta_H|, n
    the most residues a factor sums.  q^-(s0 + e) carries its phase's error,
    eps (6 + |s0| log q) times its moduli.
    """
    s0 = np.asarray(centres, dtype=complex).reshape(-1)
    near = np.abs(s0 - 1.0)
    if count > 1 and np.any(near <= _JET_RADIUS):
        raise DomainError("a jet's disc about its centre must miss s = 1")
    if np.any(near < 1e-12):
        raise PoleError("L-factor pole at s = 1")
    a_bank, rows = _character_bank(characters)
    bank, error = _hurwitz_jet(s0, a_bank, _hurwitz_shift(s0, _JET_RADIUS if count > 1 else 0.0), count)
    powers = np.arange(count)
    q_jets = {}
    for q in {chi.modulus for chi in characters} - {1}:   # 1^-(s0 + e) = 1 is left out
        log_q = math.log(q)
        q_jet = np.exp(-s0 * log_q)[:, None] * (-log_q) ** powers / np.cumprod(np.maximum(powers, 1))
        q_jets[q] = Jet(q_jet, _EPS * (6.0 + np.abs(s0) * log_q)[:, None] * np.abs(q_jet))
    # each residue's error, and the residue sums' rounding at the most residues a factor sums
    error = error + (max(map(len, rows)) + 2) * _EPS * np.abs(bank)
    error = [error[[slot for slot, _ in row]].sum(axis=0) for row in rows]
    jets = [Jet(sum(v * bank[slot] for slot, v in row), err) for row, err in zip(rows, error)]
    return [q_jets[chi.modulus] * jet if chi.modulus > 1 else jet for chi, jet in zip(characters, jets)]


def dedekind_zeta_jet(field, centres, count):
    """Jet of zeta_F about every centre: count coefficients, each with a proven error.

    The product of the L-factor jets (_l_factor_jets).  About s0 = 0 a factor
    with Gamma_R shift 0 and conductor q > 1 has a trivial zero: its
    constant coefficient is dropped, so the jet starts at e^r, r the unit rank.
    """
    s0 = np.asarray(centres, dtype=complex).reshape(-1)
    at_zero = int(not np.any(s0))
    jets = _l_factor_jets(field.characters, s0, count + at_zero)
    if at_zero:
        jets = [Jet(jet.coeffs[..., 1:], jet.err[..., 1:], 1) if f.shift == 0 and f.conductor > 1 else jet
                for f, jet in zip(field.factors, jets)]
    out = functools.reduce(operator.mul, jets)
    return Jet(out.coeffs[..., :count], out.err[..., :count], out.lowest)


def _log_gamma_derivatives(z, count):
    """(Coefficients 1 .. count-1 of log Gamma(z + e), less the log e of a pole; their errors) on 1-d z.

    Gamma(z + e) = Gamma(w + e)/prod_{i<n} (z + i + e), w = z + n with
    Re w >= 10: Stirling's series differentiated term by term, psi(w + e) =
    log(w + e) - 1/(2(w + e)) - sum_k B_2k/(2k) (w + e)^-2k over B_2 .. B_22,
    less the jets of log(z + i + e); a factor z + i = 0 is a pole, its log e
    left to the caller.  Errors: Stirling's remainder, <= 2^12 |B_24|/(552
    (|w| - 1)^23) on |e| <= 1 (DLMF 5.11(ii)), by Cauchy, and (count + 4)
    eps times the sum of the terms' moduli.
    """
    steps = np.ceil(np.maximum(0.0, 10.0 - z.real)).astype(int)
    w = (z + steps)[:, None]
    factors = z[:, None] + np.arange(steps.max())
    live = (np.arange(steps.max()) < steps[:, None]) & (factors != 0)
    factors = np.where(live, factors, 1.0)
    i = np.arange(count - 1)[None, :]                # psi's power; log Gamma's is i + 1
    two_k = 2.0 * np.arange(1, len(_BERNOULLI))[:, None, None]
    binom = np.array([[math.comb(int(k) + j - 1, j) for j in range(count - 1)] for k in two_k.flat])
    terms = [np.where(i == 0, np.log(w), -(-1.0) ** i / np.maximum(i, 1) / w ** i),
             -0.5 * (-1.0) ** i / w ** (i + 1),
             -(_BERNOULLI[:-1, None, None] / two_k * (-1.0) ** i * binom[:, None] / w ** (two_k + i)).sum(0),
             -(live[..., None] * (-1.0) ** i / factors[..., None] ** (i + 1)).sum(1)]
    remainder = 2.0 ** 12 * abs(_BERNOULLI[-1]) / (552.0 * (np.abs(w) - 1.0) ** 23)
    return sum(terms) / (i + 1), remainder + (count + 4) * _EPS * sum(np.abs(t) for t in terms) / (i + 1)


def log_gamma_factor_jet(r1, r2, centres, sign, count):
    """(Jet of r1 log Gamma(s/2) + r2 log Gamma(s) about s = s0 + sign e, less log e at the poles; pole orders).

    The one place the gamma factor of Lambda_F is formed, on centres of any
    shape.  Coefficient 0 and its error are _loggamma_and_error's at s0/2
    and s0; at a pole z = -m, Gamma(z + scale e) = (-1)^m (1 + O(e))/(m!
    scale e), so it is i pi (m mod 2) - log Gamma(1 - z) - log scale with 8
    eps times its modulus charged, and the centre's order counts r1 or r2.
    The others are _log_gamma_derivatives' times the powers of e's scale.
    """
    s0 = np.asarray(centres, dtype=complex)
    orders = np.zeros(s0.shape, dtype=int)
    left = np.count_nonzero(s0.real <= 0.0)
    coeffs = error = None                                    # r1 + r2 >= 1
    for power, z, scale in ((r1, s0 / 2.0, 0.5 * sign), (r2, s0, float(sign))):
        if not power:
            continue
        pole = (z.real <= 0.0) & (z == np.round(z.real)) if left else None
        value, err = _loggamma_and_error(z if pole is None else np.where(pole, 1.0 - z, z))
        if left:
            orders += power * pole
            regular = 1j * math.pi * (-z.real % 2.0) - value - cmath.log(scale)
            value, err = np.where(pole, regular, value), np.where(pole, err + 8.0 * _EPS * np.abs(regular), err)
        value, err = value[..., None], err[..., None]
        if count > 1:
            higher, higher_err = _log_gamma_derivatives(z.reshape(-1), count)
            powers = scale ** np.arange(1, count)
            value = np.concatenate([value, (higher * powers).reshape(z.shape + (-1,))], -1)
            err = np.concatenate([err, (higher_err * abs(powers)).reshape(z.shape + (-1,))], -1)
        if power > 1:
            value, err = power * value, power * err
        coeffs, error = (value, err) if coeffs is None else (coeffs + value, error + err)
    return Jet(coeffs, error), orders


def gamma_factor_jet(r1, r2, centres, sign, count, log_base=0.0):
    """Jet of e^(s log_base) Gamma^r1(s/2) Gamma^r2(s) about s = s0 + sign e, for every centre s0.

    One exp of log_gamma_factor_jet plus (s0 + sign e) log_base, charged 4 eps
    times its moduli, over e^order at each centre: lower orders start behind 0s.
    """
    s0 = np.asarray(centres, dtype=complex).reshape(-1)
    log, orders = log_gamma_factor_jet(r1, r2, s0, sign, count)
    exponent = np.zeros(log.coeffs.shape, dtype=complex)
    exponent[:, 0], exponent[:, 1:2] = s0 * log_base, sign * log_base
    jet = Jet(log.coeffs + exponent, log.err + 4.0 * _EPS * np.abs(exponent)).exp()
    top = int(orders.max(initial=0))
    if not top:
        return jet
    j = np.arange(count) - (top - orders)[:, None]
    return Jet(*(np.where(j >= 0, np.take_along_axis(a, np.maximum(j, 0), 1), 0.0)
                 for a in (jet.coeffs, jet.err)), -top)


# ---------------------------------------------------------------------------
# vertical-line quadrature
# ---------------------------------------------------------------------------

# Nodes of one integrand call of line_integral_many: the entries are grouped
# by the slot of this width that their first node falls in, and an entry with
# more nodes than that is a group of its own.
_TRAPEZOID_CHUNK_NODES = 4096


def line_integral_many(f, abscissae, half_heights, steps):
    """((1/2 pi i) int f(s, i) ds over each vertical segment i of a batch, each sum's rounding bound).

    Segment i is Re(s) = abscissae[i], |Im s| <= half_heights[i], summed on
    the nodes Im s = j steps[i], |j steps[i]| <= half_heights[i]; the caller
    proves the step and window.  `f(s, entry)` gets a 1-d array of points
    and the entry of each, and returns the values and a bound on each
    value's relative error; every call holds whole entries and about
    _TRAPEZOID_CHUNK_NODES nodes.  Each entry's nodes are summed over their
    own segment in one fixed order, so its value does not depend on the
    other entries.  The rounding bound of an entry of n nodes is step/2 pi
    times the sum of its nodes' moduli, each times its relative bound plus
    (n + 3) eps: the recursive sum, the product with the step and the
    division by 2 pi.
    """
    c = np.asarray(abscissae, dtype=float)
    T = np.asarray(half_heights, dtype=float)
    h = np.asarray(steps, dtype=float)
    if not np.all((h > 0) & (h <= T)):
        raise ValidationError("steps must satisfy 0 < step <= half_height")
    top = np.floor(T / h).astype(np.int64)          # the largest j with j step <= T
    counts = 2 * top + 1
    starts = np.cumsum(counts) - counts
    slot = starts // _TRAPEZOID_CHUNK_NODES
    big = counts > _TRAPEZOID_CHUNK_NODES
    first = np.ones(len(T), dtype=bool)
    first[1:] = (slot[1:] != slot[:-1]) | big[1:] | big[:-1]
    bounds = np.append(np.flatnonzero(first), len(T))
    sums, slack = np.empty(len(T), dtype=complex), np.empty(len(T))
    for a, b in zip(bounds[:-1], bounds[1:]):
        cnt = counts[a:b]
        seg = starts[a:b] - starts[a]
        entry = np.repeat(np.arange(a, b), cnt)
        j = np.arange(seg[-1] + cnt[-1]) - np.repeat(seg + top[a:b], cnt)
        vals, err = f(c[entry] + 1j * (j * h[entry]), entry)
        if np.any(~np.isfinite(vals)):
            raise DomainError("integrand returned a non-finite value on the contour")
        sums[a:b] = np.add.reduceat(vals, seg)
        slack[a:b] = np.add.reduceat(np.abs(vals) * (err + (cnt[entry - a] + 3) * _EPS), seg)
    return h * sums / (2.0 * math.pi), h * slack / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# residue terms as polynomials in log x
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogPolynomial:
    """Polynomial in log(x); coeffs[j] multiplies (log x)**j, err[j] bounds its error (empty: not tracked)."""
    coeffs: tuple
    err: tuple = ()

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


def jet_residue_polynomial(order, jet, scale):
    """residue_log_polynomial of jet(order), a one-centre Jet with a pole of `order`; zero if 0."""
    if not order:
        return LogPolynomial(coeffs=(0.0 + 0.0j,))
    return residue_log_polynomial(jet(order).principal()[0], scale)


def residue_log_polynomial(principal, scale, err=()):
    """Residue of f(s) * exp(-scale*(s-s0)*log x) as a LogPolynomial in log x.

    `principal` lists the principal-part coefficients [c_{-1}, c_{-2}, ...]
    of f at s0, `err` bounds on their errors if known.  The residue is
    sum_m c_{-m} (-scale*log x)^{m-1}/(m-1)!.
    """
    coeffs = []
    for j in range(len(principal)):
        coeffs.append(complex(principal[j]) * (-scale) ** j / math.factorial(j))
    return LogPolynomial(coeffs=tuple(coeffs),
                         err=tuple(float(e) * abs(scale) ** j / math.factorial(j) for j, e in enumerate(err)))


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
