"""Inverse theta side: mu-weighted kernel sums and the zero-residue series.

U(x) collects the Moebius-weighted shifted kernels, the residue of the
inverse completed zeta at s = 0, and half the sum of residues at the
non-trivial zeros, each read off one memoized datum per zero (zeta_taylor;
a whole zero list shares one ring call); U(1/x) = sqrt(x) U(x) is
equivalent to the functional equation of 1/zeta_F^k.  The
Hardy-Littlewood-Ramanujan and Dixit-Gupta-Vatwani identities are its F = Q
and quadratic-field specializations, each checked through its own formulas;
the HLR zero term is the DGV zero sum of Q.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import fields, numerics, steen, theta
from .errors import (
    ConvergenceError,
    DomainError,
    ParseError,
    ValidationError,
    ZeroNotSimpleError,
)


# ---------------------------------------------------------------------------
# zero lists
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroList:
    """Ascending positive imaginary parts of critical-line zeros, never empty."""
    gammas: tuple

    def __post_init__(self):
        g = self.gammas
        if not g:
            raise ValidationError("the zero sum needs a nonempty zero list")
        bad = [v for v in g if not 0 < v < math.inf]
        if bad:
            raise ValidationError(f"zero ordinates must be positive and finite, got {bad[0]}")
        for i in range(1, len(g)):
            if g[i] - g[i - 1] <= 1e-6:
                raise ValidationError(
                    f"zeros must be ascending and separated by > 1e-6 "
                    f"(entries {i - 1}, {i}: {g[i - 1]}, {g[i]})")

    def __len__(self):
        return len(self.gammas)

    def head(self, count):
        return ZeroList(gammas=self.gammas[:count])


def load_zeros(path):
    """Read a zeros file: one ascending positive decimal per line, `#` comments."""
    gammas = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                val = float(line)
            except ValueError:
                raise ParseError(f"not a decimal: {line!r}", line=lineno) from None
            if gammas and val <= gammas[-1]:
                raise ParseError(f"zeros not ascending at {val}", line=lineno)
            if not 0 < val < math.inf:
                raise ParseError(f"zero ordinate must be positive and finite: {val}",
                                 line=lineno)
            gammas.append(val)
    return ZeroList(gammas=tuple(gammas))


def write_zeros(path, zeros):
    """Write gammas in the zeros-file format (ASCII decimals, LF), round-trip safe.

    Each gamma is written as its repr, so load_zeros reads back the same float.
    """
    gammas = zeros.gammas if isinstance(zeros, ZeroList) else tuple(zeros)
    with open(path, "w") as fh:
        for g in gammas:
            fh.write(f"{float(g)!r}\n")
    return path


# ---------------------------------------------------------------------------
# the L series (mu-weighted shifted kernels)
# ---------------------------------------------------------------------------

_EPS = 2.0 ** -52


def _inverse_zeta_derivatives(field, k, m_top, count):
    """[D_1, ..., D_{m_top}], D_m[i] = d^i/ds^i zeta_F(s)^{-k} at s = 1 + m, i < count.

    D_m[i] = sum_n mu_{F,k}(n) (-log n)^i n^{-1-m}, read off Taylor
    coefficients on radius-1/2 circles, memoized per m; the orders not yet
    stored share one laurent_coefficients_many call.  1/zeta_F^k is analytic
    on Re(s) > 1 and its nearest singularity (a zero of zeta_F, Re <= 1)
    lies at distance >= m from the centre, so each 128-sample ring (checked
    against its 64 even samples) is exact to rounding.  All rings share one
    Hurwitz shift, so a value does not depend on which orders were computed
    with it.
    """
    def compute(missing):
        rings = numerics.laurent_coefficients_many(
            lambda s: 1.0 / numerics.dedekind_zeta_many(s, field) ** k,
            [1.0 + key[3] for key in missing], 0.5, count=count, lowest=0)
        factorials = np.array([math.factorial(i) for i in range(count)])
        return [ring.coeffs * factorials for ring in rings]
    return numerics.memo_many([("inverse_zeta_taylor", field.cache_key, k, m, count)
                               for m in range(1, m_top + 1)], compute)


def _recentred_coeffs(poly, log_alpha):
    """b_i with P(log alpha + u) = sum_i b_i u^i."""
    c = poly.coeffs
    return [sum(c[j] * math.comb(j, i) * log_alpha ** (j - i) for j in range(i, len(c)))
            for i in range(len(c))]


def _l_series_parts(field, k, x):
    """(value, N0, certified bound) of L_{F,-k}(x); see l_series."""
    fields.require_k(k)
    x = complex(x)
    if x == 0:
        raise DomainError("l_series undefined at x = 0")
    theta._require_sector(field, cmath.log(x))
    d = field.degree
    kr1, kr2 = k * field.r1, k * field.r2
    alpha = fields.kernel_scale(field, k) * cmath.sqrt(x)
    a_abs = abs(alpha)
    log_alpha = cmath.log(alpha)

    # N0 and M are fixed before summing.  Each tail order m below carries
    # alpha^m (D - head) with D ~ 1 exact to rounding, while the true
    # difference is about N0^{-m} (1 + log N0)^{k(r1+r2)}: M is the last m at
    # which that still exceeds eps.  Further orders (and a stop rule on term
    # size) would only add alpha^m-weighted rounding noise.
    n0 = max(64, math.ceil(100.0 * a_abs))
    log_n0 = math.log(n0)
    n_logs = kr1 + kr2          # highest pole order of the kernel's gamma factors
    m_top = 1
    while float(n0) ** -(m_top + 1) * (1.0 + log_n0) ** n_logs >= _EPS:
        m_top += 1
    derivs = _inverse_zeta_derivatives(field, k, m_top, n_logs)
    polys = steen._left_pole_polynomials(kr1, kr2, 1, m_top + 4)

    mu = fields.moebius_coeffs(field, k, n0).values[1:].astype(float)
    ns = np.arange(1.0, n0 + 1.0)
    # the head in one kernel-array call; a quadrature entry is charged the
    # proven error of its line, alias terms plus window
    head = np.nonzero(mu)[0]
    z, charge = steen.z_shifted_many(kr1, kr2, alpha / ns[head], tol=1e-13)
    weights = mu[head] / ns[head]
    head_terms = np.zeros(n0, dtype=complex)
    head_terms[head] = weights * z
    quad_error = float(np.sum(np.abs(weights) * charge))

    # tail n > N0: Z(y) = sum_m y^m P_m(log y) turns it into
    # sum_m alpha^m sum_i b_{m,i} T_{m,i}, T_{m,i} = sum_{n > N0} mu(n) (-log n)^i n^{-1-m}
    log_n = np.log(ns)
    tail = 0.0 + 0.0j
    tail_abs = 0.0
    for m in range(1, m_top + 1):
        poly = polys[m - 1]
        if poly.degree == 0 and poly.coeffs[0] == 0:
            continue
        # |zeta_F(s)^-k| <= zeta(Re s)^{dk} <= (Re s / (Re s - 1))^{dk} on the extraction circle
        ring_max = ((m + 0.5) / (m - 0.5)) ** (d * k)
        partial = mu * ns ** (-1.0 - m)
        for i, b in enumerate(_recentred_coeffs(poly, log_alpha)):
            weight = alpha ** m * b
            tail += weight * (derivs[m - 1][i] - np.sum(partial))
            tail_abs += abs(weight) * (math.factorial(i) * 2.0 ** i * ring_max
                                       + float(np.sum(np.abs(partial))))
            partial = partial * -log_n

    # truncation after m = M, with |mu_{F,k}(n)| <= d_{dk}(n) and, for n > N0,
    # L = log N0, a = (i+1)/L < m (Rankin):
    #   sum_{n>N0} d_{dk}(n) (log n)^i n^{-1-m}
    #     <= N0^{a-m} max_t t^i e^{-i t/L} zeta(1 + 1/L)^{dk} <= e N0^{-m} L^i (1 + L)^{dk}.
    # The P_m coefficients fall factorially and |alpha|/N0 <= 1/100, so four
    # more orders, doubled, majorize the rest.
    truncation = 0.0
    for m in range(m_top + 1, m_top + 5):
        for i, b in enumerate(_recentred_coeffs(polys[m - 1], log_alpha)):
            if (i + 1) / log_n0 >= m:
                truncation = math.inf
                continue
            truncation += abs(alpha ** m * b) * math.e * n0 ** (-m) * log_n0 ** i \
                * (1.0 + log_n0) ** (d * k)
    bound = 2.0 * truncation + quad_error \
        + 64.0 * _EPS * (float(np.sum(np.abs(head_terms))) + tail_abs)
    return complex(np.sum(head_terms)) + tail, n0, bound


def l_series(field, k, x, tol=1e-7):
    """L_{F,-k}(x) = sum_n (mu_{F,k}(n)/n) Z_{k r1, k r2}(scale * sqrt(x) / n).

    Head plus exact tail: n <= N0 = max(64, ceil(100 |alpha|)) is summed
    term by term (alpha = scale * sqrt(x)); for n > N0 the ascending
    expansion of Z turns the tail into Taylor data of 1/zeta_F^k at
    s = 1 + m, m = 1..M, less their head partial sums, with M the largest
    m (at least 1) such that N0^{-m} (1 + log N0)^{k(r1+r2)} >= 2^-52.  The
    sum always runs to rounding level; `tol` only bounds the certified
    remainder (truncation plus rounding), and a bound above tol/2 raises
    ConvergenceError.
    """
    value, n0, bound = _l_series_parts(field, k, x)
    if bound > tol / 2.0:
        raise ConvergenceError(
            f"l_series certified remainder {bound:.2e} > {tol / 2:g} at N0 = {n0}")
    return value


# ---------------------------------------------------------------------------
# residues of Lambda^k at s = 0, s = 1 and at the zeros
# ---------------------------------------------------------------------------

def r0_inverse_polynomial(field, k):
    """LogPolynomial P with Res_{s=0}[Lambda_F^k(s) x^{-s/2}] = P(log x); zero when r = 0."""
    return numerics.memo(("r0_inverse", field.cache_key, k), lambda: numerics.residue_polynomial(
        lambda s: fields.lambda_many(field, s, k), 0.0, k * field.unit_rank, scale=0.5))


def r0_inverse(field, k, x):
    """Residue at s = 0 of Lambda_F^k(s) x^{-s/2} (absent for unit rank 0, e.g. F = Q)."""
    x = complex(x)
    if x == 0:
        raise DomainError("r0_inverse undefined at x = 0")
    return r0_inverse_polynomial(field, k)(x)


# The Taylor ring about a zero, and the circle its majorant is taken on.
_ZERO_RING_RADIUS = 0.07
_ZERO_MAJORANT_RADIUS = 0.4


def zeta_taylor_many(field, gammas, order):
    """One LaurentResult per gamma: Taylor data c_0..c_order of zeta_F at rho = 1/2 + i gamma.

    Memoized per (field, exact gamma, order); the zeros not yet stored share
    one laurent_coefficients_many call, so one Hurwitz bank serves a whole
    zero list.  zeta_F is analytic on every disc about rho (whatever zeros it
    holds), and numerics.dedekind_zeta_majorant bounds it by a proven M on
    the radius-0.4 circle.  So the trapezoid alias theorem bounds the error
    of each c_m on a ring of radius r = 0.07 and N samples by
    M 0.4^-m q^N/(1 - q^N), q = r/0.4, and the ring takes the smallest N in
    16, 32, 64, 128 that holds it below 1e-13.  That is N = 32 for the
    builtin fields up to t = 100 (zeta5 up to t = 38, then 64); a ring the
    majorant cannot size falls back to 128 samples checked against their 64
    even ones.  Each result carries its bound as `alias_bound`.  Sample
    rounding reaches c_2 as r^-2 N^-1/2, so at r = 0.07 a 32-sample ring
    rounds like a 128-sample ring of radius 0.05.  The batch shares one Hurwitz
    shift, set by its highest zero, so a zero's data moves by rounding with
    the list that first computed it: c_m by at most r^-m times the mean
    change of its samples, measured up to 1.2e-13 relative in c_1 and
    2.7e-13 in c_2 on the scanned zeros of Q (t < 102), sqrt5 (t < 50) and
    zeta5 (t < 30).  Raises
    ZeroNotSimpleError if |c_1| <= 1e-6 |c_2| r, ValidationError if
    |c_0| > 1e-6 |c_1| (not a zero), naming the first such gamma of the list.
    """
    def compute(missing):
        rhos = [0.5 + 1j * key[2] for key in missing]
        bound = numerics.dedekind_zeta_majorant(field, rhos, _ZERO_MAJORANT_RADIUS)
        rings = numerics.laurent_coefficients_many(
            lambda s: numerics.dedekind_zeta_many(s, field), rhos, _ZERO_RING_RADIUS,
            count=order + 1, lowest=0, majorant=(_ZERO_MAJORANT_RADIUS, bound))
        for key, ring in zip(missing, rings):
            gamma, c = key[2], ring.coeffs
            if abs(c[1]) <= 1e-6 * abs(c[2]) * _ZERO_RING_RADIUS:
                raise ZeroNotSimpleError(f"zero at gamma = {gamma} is not simple")
            if abs(c[0]) > 1e-6 * abs(c[1]):
                raise ValidationError(f"gamma = {gamma} is not a zero of zeta_F: |zeta_F(rho)| "
                                      f"= {abs(c[0]) / abs(c[1]):.1e} |zeta_F'(rho)|")
        return rings
    return numerics.memo_many([("zeta_taylor", field.cache_key, float(g), order)
                               for g in gammas], compute)


def zeta_taylor(field, gamma, order):
    """(c_0, ..., c_order), order >= 2: Taylor coefficients of zeta_F at rho = 1/2 + i gamma.

    zeta_taylor_many at one zero: a 32-sample ring of radius 0.07 whose
    alias error the majorant of |zeta_F| on the radius-0.4 circle proves
    below 1e-13 (trapezoid alias theorem), or the datum of gamma that a zero
    list stored first.  Raises ZeroNotSimpleError or ValidationError
    as zeta_taylor_many does.
    """
    return tuple(complex(v) for v in zeta_taylor_many(field, [gamma], order)[0].coeffs)


def _contour_alias(field, gammas, order):
    """The largest proven alias bound of the zero rings; inf if a ring is checked only."""
    return max(ring.alias_bound for ring in zeta_taylor_many(field, gammas, order))


def _lambda_principal_many(field, k, gammas):
    """[(rho, residue polynomial) of Lambda_F^k at rho = 1/2 + i gamma for each gamma].

    Schwarz reflection gives zeta_F(1 - rho - w) = w h(w), h_j = (-1)^(j+1)
    conj(c_{j+1}) from zeta_taylor_many, so Lambda_F^k(rho + w) = w^-k (p/h)^k
    with p the Taylor data of the gamma prefactor: c_{-m} is coefficient
    k - m.  Memoized per zero; the gamma-only rings of the zeros not yet
    stored (128 samples each, checked) share one call.
    """
    def compute(missing):
        new = [key[3] for key in missing]
        rhos = [0.5 + 1j * g for g in new]
        taylor = zeta_taylor_many(field, new, max(k, 2))
        prefactor = numerics.laurent_coefficients_many(
            lambda s: fields.gamma_prefactor_many(field, s), rhos, _ZERO_RING_RADIUS,
            count=k, lowest=0)
        out = []
        for rho, ring, p in zip(rhos, taylor, prefactor):
            h = [(-1) ** (j + 1) * complex(c).conjugate()
                 for j, c in enumerate(ring.coeffs[1:k + 1])]
            q = []
            for n in range(k):
                q.append((complex(p.coeffs[n]) - sum(h[j] * q[n - j] for j in range(1, n + 1)))
                         / h[0])
            power = np.polynomial.polynomial.polypow(q, k)[:k]
            out.append((rho, numerics.residue_log_polynomial([complex(v) for v in power[::-1]],
                                                             scale=0.5)))
        return out
    return numerics.memo_many([("lambda_at_zero", field.cache_key, k, float(g)) for g in gammas],
                              compute)


def _lambda_principal_at_zero(field, k, gamma):
    """(rho, residue polynomial) of Lambda_F^k at rho = 1/2 + i gamma: one zero of the batch."""
    return _lambda_principal_many(field, k, [gamma])[0]


def r_rho(field, k, x, gamma):
    """Conjugate-pair residue contribution at rho = 1/2 + i gamma and its mirror.

    Returns R_rho(x) + R_conj(rho)(x); real for real positive x.
    """
    fields.require_k(k)
    x = complex(x)
    if x == 0:
        raise DomainError("r_rho undefined at x = 0")
    rho, poly = _lambda_principal_at_zero(field, k, gamma)
    logx = cmath.log(x)
    term = cmath.exp(-rho * logx / 2.0) * poly.eval_log(logx)
    # Lambda(conj s) = conj(Lambda(s)), so the principal part at the conjugate
    # zero has conjugated coefficients; for real x > 0 the pair sum is 2 Re.
    conj_poly = numerics.LogPolynomial(tuple(complex(c).conjugate() for c in poly.coeffs))
    partner = cmath.exp(-rho.conjugate() * logx / 2.0) * conj_poly.eval_log(logx)
    return term + partner


def zero_sum(field, k, x, zeros):
    """Sum of conjugate-pair residues over the listed zeros, ascending gamma.

    Returns (sum, tail_estimate) with the tail estimated by the magnitude of
    the last included pair.  The principal parts of the whole list come from
    one ring call, and each r_rho then reads its own.
    """
    fields.require_k(k)
    _lambda_principal_many(field, k, zeros.gammas)
    total = 0.0 + 0.0j
    last = 0.0
    for g in zeros.gammas:
        pair = r_rho(field, k, x, g)
        total += pair
        last = abs(pair)
    return total, last


def _u_inverse_parts(field, k, x, zeros, tol):
    """(U_{F,-k}(x), magnitude of the last zero pair); see u_inverse."""
    zsum, last = zero_sum(field, k, x, zeros)
    return l_series(field, k, x, tol=tol) + r0_inverse(field, k, x) + 0.5 * zsum, last


def u_inverse(field, k, x, zeros, tol=1e-7):
    """U_{F,-k}(x) = L_{F,-k}(x) + R_0(x) + (1/2) sum_rho R_rho(x)."""
    return _u_inverse_parts(field, k, x, zeros, tol)[0]


def check_inverse_theta(field, k, x, zeros, tol=1e-6):
    """Verify U(1/x) = sqrt(x) U(x) for 1/zeta_F^k.

    lhs is U(1/x), rhs sqrt(x) U(x), and the residual is relative.  The
    budget's zero_tail_estimate is the larger last-pair magnitude of the
    two zero sums, and contour_alias the largest proven alias bound of the
    zero rings (zeta_taylor_many).
    """
    x = complex(x)
    inner = min(tol * 0.25, 1e-7)
    u_x, tail_x = _u_inverse_parts(field, k, x, zeros, inner)
    u_inv, tail_inv = _u_inverse_parts(field, k, 1.0 / x, zeros, inner)
    rhs = cmath.sqrt(x) * u_x
    rel = abs(u_inv - rhs) / max(abs(u_inv), abs(rhs), 1e-30)
    return theta.Report(lhs=u_inv, rhs=rhs, residual=rel,
                        budget={"zero_tail_estimate": max(tail_x, tail_inv),
                                "contour_alias": _contour_alias(field, zeros.gammas, max(k, 2))})


# ---------------------------------------------------------------------------
# Hardy-Littlewood-Ramanujan identity (F = Q, k = 1 in its classical variables)
# ---------------------------------------------------------------------------

def _hlr_zero_sum(x, zeros):
    """(zero term, magnitude of its last included pair); see hlr_zero_term.

    The HLR zero term is the F = Q case of the DGV zero sum, taken at
    alpha = pi/sqrt(x): the summand alpha^rho Gamma((1-rho)/2)/zeta'(rho) is
    the same.
    """
    total, last = _dgv_zero_sum(fields.builtin_field("Q"), math.pi / math.sqrt(x), zeros)
    norm = 2.0 * math.sqrt(math.pi)
    return total / norm, last / norm


def hlr_zero_term(x, zeros):
    """(1/(2 sqrt(pi))) sum over zero pairs of (pi/sqrt(x))^rho Gamma((1-rho)/2)/zeta'(rho)."""
    return _hlr_zero_sum(x, zeros)[0]


def hlr_check(x, zeros, tol=1e-4):
    """Check Eq-style identity: sum mu(n)/n e^{-x/n^2} against its reflected form.

    Both exponential Moebius sums are exact: since sum mu(n)/n = 0,
    sum mu(n)/n e^{-y/n^2} = (1/2) L_{Q,-1}(y/pi), which l_series sums to
    rounding level.  A certified remainder of the two sums above tol/4
    raises ConvergenceError.  rhs is sqrt(pi/x) times the reflected sum minus
    the zero term.  At the symmetric point x = pi the two exponential sums
    cancel termwise and the residual reduces to the zero term's own numerics.
    The residual is |lhs - rhs|; the budget holds the last zero pair's
    magnitude (zero_tail_estimate), the certified remainder of the two sums
    (l_series_remainder) and the largest proven alias bound of the zero
    rings (contour_alias).
    """
    if x <= 0:
        raise DomainError("hlr_check needs x > 0")
    rational = fields.builtin_field("Q")
    direct, _, bound = _l_series_parts(rational, 1, x / math.pi)
    reflected, _, bound_reflected = _l_series_parts(rational, 1, math.pi / x)
    remainder = 0.5 * (bound + math.sqrt(math.pi / x) * bound_reflected)
    if remainder > tol / 4.0:
        raise ConvergenceError(
            f"hlr_check certified remainder {remainder:.2e} > {tol / 4:g}")
    lhs = 0.5 * direct.real
    zterm, zero_tail = _hlr_zero_sum(x, zeros)
    rhs = math.sqrt(math.pi / x) * 0.5 * reflected.real - zterm
    return theta.Report(lhs=complex(lhs), rhs=complex(rhs), residual=abs(lhs - rhs),
                        budget={"zero_tail_estimate": zero_tail,
                                "l_series_remainder": remainder,
                                "contour_alias": _contour_alias(rational, zeros.gammas, 2)})


# ---------------------------------------------------------------------------
# Dixit-Gupta-Vatwani identity (quadratic fields and Q)
# ---------------------------------------------------------------------------

def _dgv_r0_polynomial(field):
    """LogPolynomial P with R_0(alpha) = P(log alpha) in the DGV normalization."""
    def h(s):
        return np.exp(numerics.log_gamma_factor(field.r1, field.r2, 1.0 - s)) \
            / numerics.dedekind_zeta_many(s, field)

    return numerics.memo(("dgv_r0", field.cache_key), lambda: numerics.residue_polynomial(
        h, 0.0, field.unit_rank, scale=-1.0))


def _dgv_zero_sum(field, alpha, zeros):
    """sum over pairs of R_rho(alpha) = alpha^rho Gamma-form / zeta_F'(rho).

    Returns (sum, magnitude of the last included pair).  Also the HLR zero
    term (F = Q).  One zeta_taylor_many call, one log_gamma_factor call and
    one exponential serve the whole list.
    """
    derivative = np.array([ring.coeffs[1] for ring in zeta_taylor_many(field, zeros.gammas, 2)])
    rho = 0.5 + 1j * np.array(zeros.gammas)
    log_num = rho * math.log(alpha) + numerics.log_gamma_factor(field.r1, field.r2, 1.0 - rho)
    pairs = 2.0 * (np.exp(log_num) / derivative).real
    return float(np.sum(pairs)), abs(float(pairs[-1]))


def dgv_check(field, x, zeros, tol=1e-5):
    """Check the alpha/beta form of the inverse identity for Q or a quadratic field.

    The left side reuses the kernel machinery (l_series); the right side is
    built from the DGV residue formulas with zeta_F'(rho) read off zeta_taylor,
    so the comparison crosses two genuinely different evaluation routes.
    The residual is |lhs - rhs|; the budget holds zero_tail_estimate and
    contour_alias, the largest proven alias bound of the zero rings.
    """
    if field.degree > 2:
        raise DomainError("dgv_check covers Q and quadratic fields")
    x = float(x)
    if x <= 0:
        raise DomainError("dgv_check needs x > 0")
    scale = fields.kernel_scale(field)
    alpha = scale * math.sqrt(x)
    beta = scale / math.sqrt(x)
    inner = min(tol * 0.25, 1e-7)
    lhs = math.sqrt(alpha) * l_series(field, 1, x, tol=inner) \
        - math.sqrt(beta) * l_series(field, 1, 1.0 / x, tol=inner)
    r0p = _dgv_r0_polynomial(field)
    z_alpha, tail_alpha = _dgv_zero_sum(field, alpha, zeros)
    z_beta, tail_beta = _dgv_zero_sum(field, beta, zeros)
    rhs = r0p(alpha) / math.sqrt(alpha) - r0p(beta) / math.sqrt(beta) \
        + 0.5 * (z_alpha / math.sqrt(alpha) - z_beta / math.sqrt(beta))
    lhs, rhs = complex(lhs), complex(rhs)
    return theta.Report(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs),
                        budget={"zero_tail_estimate": 0.5 * max(tail_alpha / math.sqrt(alpha),
                                                                 tail_beta / math.sqrt(beta)),
                                "contour_alias": _contour_alias(field, zeros.gammas, 2)})
