"""Inverse theta side: mu-weighted kernel sums and the zero-residue series.

U(x) collects the Moebius-weighted shifted kernels, the residue of the
inverse completed zeta at s = 0, and half the sum of residues at the
non-trivial zeros.  Every residue reads Taylor jets (numerics.Jet) with
proven coefficient errors: one memoized jet of zeta_F per zero (a zero list
shares one jet call), those of 1/zeta_F^k at s = 1 + m for the Moebius
tails, and those at s = 0.  U(1/x) = sqrt(x) U(x) is
equivalent to the functional equation of 1/zeta_F^k.  The
Hardy-Littlewood-Ramanujan (F = Q) and Dixit-Gupta-Vatwani (any F) identities
are its k = 1 forms, rearranged: their checks read the same L series, R_0
and zero sum as check_inverse_theta.
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

def _inverse_zeta_derivatives(field, k, m_top, count):
    """[J_1, ..., J_{m_top}]: numerics.Jet of zeta_F(s)^{-k} about s = 1 + m, count coefficients.

    D_m[i] = d^i/ds^i zeta_F^{-k}(1 + m) = sum_n mu_{F,k}(n) (-log n)^i
    n^{-1-m} = i! J_m.coeffs[i], with proven error i! J_m.err[i]: the
    reciprocal of numerics.dedekind_zeta_jet, to the k.  Memoized per m;
    the orders not yet stored share one jet call, so one Hurwitz shift.
    """
    def compute(missing):
        jet = numerics.dedekind_zeta_jet(field, [1.0 + key[3] for key in missing],
                                         count).reciprocal() ** k
        return [numerics.Jet(c, e) for c, e in zip(jet.coeffs, jet.err)]
    return numerics.memo_many([("inverse_zeta_taylor", field.cache_key, k, m, count)
                               for m in range(1, m_top + 1)], compute)


def _recentred_coeffs(poly, log_alpha):
    """b_i with P(log alpha + u) = sum_i b_i u^i."""
    c = poly.coeffs
    return [sum(c[j] * math.comb(j, i) * log_alpha ** (j - i) for j in range(i, len(c)))
            for i in range(len(c))]


def _l_series_parts(field, k, x, tol=math.inf):
    """(value, N0, certified bound) of L_{F,-k}(x); see l_series.  A bound above tol/2 raises."""
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
    while float(n0) ** -(m_top + 1) * (1.0 + log_n0) ** n_logs >= numerics._EPS:
        m_top += 1
    derivs = _inverse_zeta_derivatives(field, k, m_top, n_logs)
    polys = steen._left_pole_polynomials(kr1, kr2, 1, m_top + 4)

    mu = fields.moebius_coeffs(field, k, n0).values[1:].astype(float)
    ns = np.arange(1.0, n0 + 1.0)
    # the head in one kernel-array call; each entry is charged its proven error,
    # a line's alias terms plus window or the ascending series' remainder
    head = np.nonzero(mu)[0]
    z, charge = steen.z_shifted_many(kr1, kr2, alpha / ns[head])
    weights = mu[head] / ns[head]
    head_terms = np.zeros(n0, dtype=complex)
    head_terms[head] = weights * z
    quad_error = float(np.sum(np.abs(weights) * charge))

    # tail n > N0: Z(y) = sum_m y^m P_m(log y) turns it into
    # sum_m alpha^m sum_i b_{m,i} T_{m,i}, T_{m,i} = sum_{n > N0} mu(n) (-log n)^i n^{-1-m}
    log_n = np.log(ns)
    tail = 0.0 + 0.0j
    tail_abs = 0.0          # sum of |weight| (|D| + its error + sum |partial|), for the rounding
    jet_error = 0.0         # sum of |weight| times the proven error of D
    for m in range(1, m_top + 1):
        poly = polys[m - 1]
        if poly.degree == 0 and poly.coeffs[0] == 0:
            continue
        partial = mu * ns ** (-1.0 - m)
        for i, b in enumerate(_recentred_coeffs(poly, log_alpha)):
            weight = alpha ** m * b
            value, error = (math.factorial(i) * v[i] for v in (derivs[m - 1].coeffs, derivs[m - 1].err))
            tail += weight * (value - np.sum(partial))
            tail_abs += abs(weight) * (abs(value) + error + float(np.sum(np.abs(partial))))
            jet_error += abs(weight) * error
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
    bound = 2.0 * truncation + quad_error + jet_error \
        + 64.0 * numerics._EPS * (float(np.sum(np.abs(head_terms))) + tail_abs)
    if bound > tol / 2.0:
        raise ConvergenceError(
            f"l_series certified remainder {bound:.2e} > {tol / 2:g} at N0 = {n0}")
    return complex(np.sum(head_terms)) + tail, n0, bound


def l_series(field, k, x, tol=1e-7):
    """L_{F,-k}(x) = sum_n (mu_{F,k}(n)/n) Z_{k r1, k r2}(scale * sqrt(x) / n).

    Head plus exact tail: n <= N0 = max(64, ceil(100 |alpha|)) is summed
    term by term (alpha = scale * sqrt(x)); for n > N0 the ascending
    expansion of Z turns the tail into Taylor data of 1/zeta_F^k at
    s = 1 + m, m = 1..M, less their head partial sums, with M the largest
    m (at least 1) such that N0^{-m} (1 + log N0)^{k(r1+r2)} >= 2^-52.  The
    sum always runs to rounding level; `tol` only bounds the certified
    remainder (truncation, the head kernels' charges, the proven error of
    the Taylor data, and rounding), and a bound above tol/2 raises
    ConvergenceError.
    """
    return _l_series_parts(field, k, x, tol)[0]


# ---------------------------------------------------------------------------
# residues of Lambda^k at s = 0, s = 1 and at the zeros
# ---------------------------------------------------------------------------

def r0_inverse_polynomial(field, k):
    """LogPolynomial P with Res_{s=0}[Lambda_F^k(s) x^{-s/2}] = P(log x); zero when r = 0.

    By the functional equation Lambda_F(s) = prefactor(1 - s)/zeta_F(s), whose
    jet about 0 starts at e^-r (the trivial zeros of zeta_F, r the unit rank).
    """
    def jet(n):
        return (fields.prefactor_jet(field, [1], -1, n)
                * numerics.dedekind_zeta_jet(field, [0.0], n).reciprocal()) ** k
    return numerics.memo(("r0_inverse", field.cache_key, k),
                         lambda: numerics.jet_residue_polynomial(k * field.unit_rank, jet, 0.5))


def r0_inverse(field, k, x):
    """Residue at s = 0 of Lambda_F^k(s) x^{-s/2} (absent for unit rank 0, e.g. F = Q)."""
    x = complex(x)
    if x == 0:
        raise DomainError("r0_inverse undefined at x = 0")
    return r0_inverse_polynomial(field, k)(x)


def zeta_taylor_many(field, gammas, order):
    """One numerics.Jet per gamma: Taylor data c_0..c_order of zeta_F at rho = 1/2 + i gamma.

    Memoized per (field, exact gamma, order); the zeros not yet stored share
    one numerics.dedekind_zeta_jet call, whose one Hurwitz shift is set by
    the highest zero, so a zero's data moves by rounding, within the proven
    errors (`err`), with the list that first computed it.  Raises
    ZeroNotSimpleError if |c_1| <= 1e-6 |c_2| 0.07, ValidationError if
    |c_0| > 1e-6 |c_1| (not a zero), naming the first such gamma.
    """
    def compute(missing):
        jet = numerics.dedekind_zeta_jet(field, [0.5 + 1j * key[2] for key in missing], order + 1)
        for gamma, c in zip([key[2] for key in missing], jet.coeffs):
            if abs(c[1]) <= 1e-6 * abs(c[2]) * 0.07:
                raise ZeroNotSimpleError(f"zero at gamma = {gamma} is not simple")
            if abs(c[0]) > 1e-6 * abs(c[1]):
                raise ValidationError(f"gamma = {gamma} is not a zero of zeta_F: |zeta_F(rho)| "
                                      f"= {abs(c[0]) / abs(c[1]):.1e} |zeta_F'(rho)|")
        return [numerics.Jet(c, e) for c, e in zip(jet.coeffs, jet.err)]
    return numerics.memo_many([("zeta_taylor", field.cache_key, float(g), order)
                               for g in gammas], compute)


def zeta_taylor(field, gamma, order):
    """(c_0, ..., c_order), order >= 2: Taylor coefficients of zeta_F at rho = 1/2 + i gamma.

    zeta_taylor_many at one zero, or the datum a zero list stored first.
    """
    return tuple(complex(v) for v in zeta_taylor_many(field, [gamma], order)[0].coeffs)


def _taylor_error(field, gammas, order):
    """The largest proven error of the zero jets' coefficients c_0..c_order."""
    return max(float(np.max(jet.err)) for jet in zeta_taylor_many(field, gammas, order))


def _lambda_principal_many(field, k, gammas):
    """[(rho, residue polynomial) of Lambda_F^k at rho = 1/2 + i gamma for each gamma].

    Schwarz reflection gives zeta_F(1 - rho - w) = w h(w), h_j = (-1)^(j+1)
    conj(c_{j+1}) from zeta_taylor_many, so Lambda_F^k(rho + w) = w^-k (p/h)^k
    with p the jet of the gamma prefactor (fields.prefactor_jet): c_-m
    is coefficient k - m.  Memoized per zero; the zeros not yet stored share
    one prefactor jet call.
    """
    def compute(missing):
        new = [key[3] for key in missing]
        rhos = [0.5 + 1j * g for g in new]
        taylor = zeta_taylor_many(field, new, max(k, 2))
        sign = (-1.0) ** np.arange(1, k + 1)
        h = numerics.Jet(np.array([sign * np.conj(jet.coeffs[1:k + 1]) for jet in taylor]),
                         np.array([jet.err[1:k + 1] for jet in taylor]))
        power = (fields.prefactor_jet(field, rhos, 1, k) * h.reciprocal()) ** k
        return [(rho, numerics.residue_log_polynomial(principal, 0.5))
                for rho, principal in zip(rhos, numerics.Jet(power.coeffs, power.err, -k).principal())]
    return numerics.memo_many([("lambda_at_zero", field.cache_key, k, float(g)) for g in gammas],
                              compute)


def zero_sum(field, k, x, zeros):
    """Sum of conjugate-pair residues R_rho(x) + R_conj(rho)(x) over the listed zeros.

    Returns (sum, magnitude of the last pair); real for real positive x.
    The principal parts of the whole list come from one jet call
    (_lambda_principal_many) and the pairs from one numpy pass, summed in
    ascending gamma, so a longer list's sum is the shorter list's plus the
    added pairs.
    """
    fields.require_k(k)
    x = complex(x)
    if x == 0:
        raise DomainError("zero_sum undefined at x = 0")
    parts = _lambda_principal_many(field, k, zeros.gammas)
    rho = np.array([r for r, _ in parts])
    coeffs = np.array([poly.coeffs for _, poly in parts])
    logx = cmath.log(x)

    def residues(r, c):
        poly = np.zeros(len(r), dtype=complex)
        for j in range(k - 1, -1, -1):
            poly = poly * logx + c[:, j]
        return np.exp(-r * logx / 2.0) * poly

    # Lambda(conj s) = conj(Lambda(s)), so the principal part at the conjugate
    # zero has conjugated coefficients; for real x > 0 the pair sum is 2 Re.
    pairs = residues(rho, coeffs) + residues(rho.conj(), coeffs.conj())
    return complex(np.cumsum(pairs)[-1]), float(abs(pairs[-1]))


def r_rho(field, k, x, gamma):
    """R_rho(x) + R_conj(rho)(x) at rho = 1/2 + i gamma: zero_sum over the one zero."""
    return zero_sum(field, k, x, ZeroList(gammas=(gamma,)))[0]


def _u_inverse_parts(field, k, x, zeros, tol):
    """((L, R_0, (1/2) zero sum) at x, certified bound of L, last zero pair's magnitude).

    U_{F,-k}(x) is the sum of the three terms; see u_inverse.
    """
    zsum, last = zero_sum(field, k, x, zeros)
    value, _, bound = _l_series_parts(field, k, x, tol)
    return (value, r0_inverse(field, k, x), 0.5 * zsum), bound, last


def u_inverse(field, k, x, zeros, tol=1e-7):
    """U_{F,-k}(x) = L_{F,-k}(x) + R_0(x) + (1/2) sum_rho R_rho(x)."""
    (value, r0, half_zsum), _, _ = _u_inverse_parts(field, k, x, zeros, tol)
    return value + r0 + half_zsum


def check_inverse_theta(field, k, x, zeros, tol=1e-6):
    """Verify U(1/x) = sqrt(x) U(x) for 1/zeta_F^k.

    lhs is U(1/x), rhs sqrt(x) U(x), and the residual is |lhs - rhs| over the
    largest modulus the sides are summed from: |lhs|, |rhs|, |L|, |R_0| and
    half the zero sum's at 1/x, and sqrt(x) times them at x.  The
    budget's zero_tail_estimate is the larger last-pair magnitude of the
    two zero sums, l_series_remainder the certified bounds of the two L
    series weighted as the sides are, and taylor_error the largest proven
    error of the zero jets' coefficients (zeta_taylor_many).
    """
    x = complex(x)
    inner = min(tol * 0.25, 1e-7)
    (l_x, r0_x, z_x), bound_x, tail_x = _u_inverse_parts(field, k, x, zeros, inner)
    (l_inv, r0_inv, z_inv), bound_inv, tail_inv = _u_inverse_parts(field, k, 1.0 / x, zeros, inner)
    u_inv = l_inv + r0_inv + z_inv
    rhs = cmath.sqrt(x) * (l_x + r0_x + z_x)
    rel = abs(u_inv - rhs) / max(abs(u_inv), abs(rhs), *map(abs, (l_inv, r0_inv, z_inv)),
                                 *(abs(cmath.sqrt(x) * v) for v in (l_x, r0_x, z_x)), 1e-30)
    return theta.Report(lhs=u_inv, rhs=rhs, residual=rel,
                        budget={"zero_tail_estimate": max(tail_x, tail_inv),
                                "l_series_remainder": bound_inv + abs(cmath.sqrt(x)) * bound_x,
                                "taylor_error": _taylor_error(field, zeros.gammas, max(k, 2))})


# ---------------------------------------------------------------------------
# the k = 1 inverse relation in the Hardy-Littlewood-Ramanujan and
# Dixit-Gupta-Vatwani forms
# ---------------------------------------------------------------------------

def hlr_check(x, zeros, tol=1e-4):
    """Check Eq-style identity: sum mu(n)/n e^{-x/n^2} against its reflected form.

    The inverse relation for F = Q, k = 1 at x/pi, in HLR's normalization.
    Both exponential Moebius sums are exact: since sum mu(n)/n = 0,
    sum mu(n)/n e^{-y/n^2} = (1/2) L_{Q,-1}(y/pi), which l_series sums to
    rounding level.  A certified remainder of the two sums above tol/4
    raises ConvergenceError.  rhs is sqrt(pi/x) times the reflected sum minus
    the zero term, (1/2) zero_sum(Q, 1, x/pi).  At the symmetric point x = pi
    the two exponential sums cancel termwise and the residual reduces to the
    zero term's own numerics.  The residual is |lhs - rhs|; the budget holds
    the last zero pair's weighted magnitude (zero_tail_estimate), the
    certified remainder of the two sums (l_series_remainder) and the largest
    proven error of the zero jets' coefficients (taylor_error).
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
    zsum, last = zero_sum(rational, 1, x / math.pi, zeros)
    rhs = math.sqrt(math.pi / x) * 0.5 * reflected.real - 0.5 * zsum.real
    return theta.Report(lhs=complex(lhs), rhs=complex(rhs), residual=abs(lhs - rhs),
                        budget={"zero_tail_estimate": 0.5 * last,
                                "l_series_remainder": remainder,
                                "taylor_error": _taylor_error(rational, zeros.gammas, 2)})


def dgv_check(field, x, zeros, tol=1e-5):
    """Check the alpha/beta form of the inverse relation at k = 1, for any field.

    With alpha = c sqrt(x), beta = c/sqrt(x) (c = fields.kernel_scale) and
    V = R_0 + (1/2) sum_rho R_rho, lhs is sqrt(alpha) L(x) - sqrt(beta) L(1/x)
    and rhs sqrt(beta) V(1/x) - sqrt(alpha) V(x): U(1/x) = sqrt(x) U(x)
    times -sqrt(beta), rearranged.  The residual is |lhs - rhs|; the budget
    holds zero_tail_estimate, l_series_remainder (the two L series' certified
    bounds) and taylor_error (the largest proven error of the zero jets'
    coefficients), each weighted as the sides are.
    """
    x = float(x)
    if x <= 0:
        raise DomainError("dgv_check needs x > 0")
    scale = fields.kernel_scale(field)
    root_alpha, root_beta = math.sqrt(scale * math.sqrt(x)), math.sqrt(scale / math.sqrt(x))
    inner = min(tol * 0.25, 1e-7)
    (l_x, r0_x, z_x), bound_x, tail_x = _u_inverse_parts(field, 1, x, zeros, inner)
    (l_inv, r0_inv, z_inv), bound_inv, tail_inv = _u_inverse_parts(field, 1, 1.0 / x, zeros, inner)
    lhs = complex(root_alpha * l_x - root_beta * l_inv)
    rhs = complex(root_beta * (r0_inv + z_inv) - root_alpha * (r0_x + z_x))
    return theta.Report(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs),
                        budget={"zero_tail_estimate": 0.5 * max(root_alpha * tail_x,
                                                                 root_beta * tail_inv),
                                "l_series_remainder": root_alpha * bound_x + root_beta * bound_inv,
                                "taylor_error": _taylor_error(field, zeros.gammas, 2)})
