"""The Taylor jets against 30-digit mpmath: each coefficient within its reported error.

Every case prints its largest error and its smallest bound/error ratio; run
with `-s` to see them.  The mpmath side builds the same series from
independent data: Hurwitz zeta derivatives (mpmath.zeta(s, a, derivative=j))
and Gamma's Taylor data (mpmath.taylor), multiplied at 30 digits.
"""

import os

import numpy as np
import pytest

from zetatheta import fields as fd
from zetatheta import inverse_theta as iv
from zetatheta import numerics as nx
from zetatheta import theta as th

mpmath = pytest.importorskip("mpmath")

FIELDS = ("Q", "sqrt5", "cubic7", "zeta5", "gauss")
REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "reference")


def _mul(a, b):
    return [mpmath.fsum(a[j] * b[n - j] for j in range(n + 1)) for n in range(min(len(a), len(b)))]


def _reciprocal(a):
    q = [1 / a[0]]
    for n in range(1, len(a)):
        q.append(-mpmath.fsum(a[j] * q[n - j] for j in range(1, n + 1)) / a[0])
    return q


def _power(a, k):
    out = a
    for _ in range(k - 1):
        out = _mul(out, a)
    return out


def _zeta_series(field, s0, count):
    """Taylor coefficients of zeta_F about s0: products of q^-s sum_a chi(a) zeta(s, a/q)."""
    out = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (count - 1)
    for chi in field.characters:
        q = chi.modulus
        hurwitz = [mpmath.fsum(mpmath.mpc(chi.value(a)) * mpmath.zeta(s0, mpmath.mpf(a) / q,
                                                                        derivative=j)
                               for a in range(1, q + 1) if chi.value(a) != 0) / mpmath.factorial(j)
                   for j in range(count)]
        power = [mpmath.mpf(q) ** -s0 * (-mpmath.log(q)) ** j / mpmath.factorial(j)
                 for j in range(count)]
        out = _mul(out, _mul(power, hurwitz))
    return out


def _gamma_series(b, scale, count):
    """Laurent coefficients of Gamma(b + scale e) from e^-1 (at a pole) or e^0, half-integer b."""
    b = mpmath.mpf(b)
    if b <= 0 and b == int(b):          # Gamma(-m + u) = Gamma(1 + u)/(u (u - 1) .. (u - m))
        def f(e):
            u = scale * e
            return mpmath.gamma(1 + u) / scale / mpmath.fprod(u - i for i in range(1, int(-b) + 1))
        return mpmath.taylor(f, 0, count - 1)
    return mpmath.taylor(lambda e: mpmath.gamma(b + scale * e), 0, count - 1)


def _check(label, got, err, want):
    got, err = np.asarray(got), np.asarray(err)
    error = np.abs(got - np.array([complex(w) for w in want]))
    ratio = float(np.min(err / np.maximum(error, 1e-300)))
    print(f"{label}: largest error {error.max():.2e}, bound/error >= {ratio:.3g}")
    assert np.all(error <= err), label


@pytest.mark.parametrize("name", FIELDS)
def test_zero_data(name):
    # c_0 .. c_4 at the first zero and at the highest listed one up to t = 236
    field = fd.builtin_field(name)
    gammas = iv.load_zeros(os.path.join(REFERENCE, f"{name}.zeros")).gammas
    picks = [gammas[0], max(g for g in gammas if g < 236.6)]
    with mpmath.workdps(30):
        for g in picks:
            jet = nx.dedekind_zeta_jet(field, [0.5 + 1j * g], 5)
            want = _zeta_series(field, mpmath.mpc(0.5, g), 5)
            _check(f"zeta_F {name} c_0..c_4 at t = {g}", jet.coeffs[0], jet.err[0], want)


@pytest.mark.parametrize("name", FIELDS)
def test_prefactor_at_zeros(name):
    # c_0 .. c_2 of (D/(4^r2 pi^d))^{s/2} Gamma^r1(s/2) Gamma^r2(s), at counts 1 to 3, at the
    # first zero and at the highest listed one up to t = 236: the data _lambda_principal_many
    # reads.  The series is exp of the log's, whose coefficients are log Gamma and psi's values.
    field = fd.builtin_field(name)
    gammas = iv.load_zeros(os.path.join(REFERENCE, f"{name}.zeros")).gammas
    for g in (gammas[0], max(g for g in gammas if g < 236.6)):
        with mpmath.workdps(30):
            s = mpmath.mpc(0.5, g)
            log = [s / 2 * mpmath.log(mpmath.mpf(field.disc) / (4 ** field.r2 * mpmath.pi ** field.degree))]
            log += [log[0] / s, 0]
            for power, z, scale in ((field.r1, s / 2, mpmath.mpf(0.5)), (field.r2, s, 1)):
                log = [c + power * scale ** j * mpmath.psi(j - 1, z) / mpmath.factorial(j) if j
                       else c + power * mpmath.loggamma(z) for j, c in enumerate(log)]
            want = [mpmath.exp(log[0])]
            for n in (1, 2):
                want.append(mpmath.fsum(j * log[j] * want[n - j] for j in range(1, n + 1)) / n)
        for count in (1, 2, 3):
            jet = fd.prefactor_jet(field, [0.5 + 1j * g], 1, count)
            _check(f"prefactor {name} c_0..c_{count - 1} at t = {g}", jet.coeffs[0], jet.err[0],
                   want[:count])


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("k", [1, 2])
def test_inverse_zeta_at_one_plus_m(name, k):
    field = fd.builtin_field(name)
    jets = iv._inverse_zeta_derivatives(field, k, 4, 3)
    with mpmath.workdps(30):
        for m, jet in enumerate(jets, start=1):
            want = _power(_reciprocal(_zeta_series(field, mpmath.mpf(1 + m), 3)), k)
            _check(f"1/zeta_F^{k} {name} at s = {1 + m}", jet.coeffs, jet.err, want)


@pytest.mark.parametrize("name", FIELDS)
def test_laurent_constant_and_r0(name):
    field = fd.builtin_field(name)
    r = field.unit_rank
    half_log_q = mpmath.log(mpmath.mpf(field.disc) / (4 ** field.r2 * mpmath.pi ** field.degree)) / 2
    for k in (1, 2):
        with mpmath.workdps(30):
            zeta = _zeta_series(field, mpmath.mpf(0), k * max(r, 1) + r)[r:]
            # Omega_F^k: (D/(4^r2 pi^d))^{s/2} Gamma^r1(s/2) Gamma^r2(s) zeta_F(s), from e^-1
            q_up = [half_log_q ** j / mpmath.factorial(j) for j in range(k)]
            omega = _mul(_mul(q_up, _power(_gamma_series(0, 0.5, k), field.r1) if field.r1
                              else [1] + [0] * (k - 1)),
                         _mul(_power(_gamma_series(0, 1, k), field.r2) if field.r2
                              else [1] + [0] * (k - 1), zeta))
            want = _power(omega, k)[::-1]
        jet = (fd.prefactor_jet(field, [0], 1, k) * nx.dedekind_zeta_jet(field, [0.0], k)) ** k
        _check(f"R_0 of Omega_F^{k} {name}", jet.principal()[0], jet.err[0, ::-1], want)
        poly = th.r0_theta_polynomial(field, k)
        assert poly.coeffs[0] == complex(jet.principal()[0, 0])
        if not r:
            continue
        with mpmath.workdps(30):
            # Lambda_F^k = (prefactor(1 - s)/zeta_F(s))^k, from e^-kr
            n = k * r
            q_down = [mpmath.exp(half_log_q) * (-half_log_q) ** j / mpmath.factorial(j)
                      for j in range(n)]
            numerator = q_down
            for power, b, scale in ((field.r1, 0.5, -0.5), (field.r2, 1, -1)):
                if power:
                    numerator = _mul(numerator, _power(_gamma_series(b, scale, n), power))
            want = _power(_mul(numerator, _reciprocal(zeta[:n])), k)[::-1]
        jet = (fd.prefactor_jet(field, [1], -1, n)
               * nx.dedekind_zeta_jet(field, [0.0], n).reciprocal()) ** k
        _check(f"R_0 of Lambda_F^{k} {name}", jet.principal()[0], jet.err[0, ::-1], want)
    jet = nx.dedekind_zeta_jet(field, [0.0], 1)
    _check(f"C_F {name}", jet.coeffs[0], jet.err[0], zeta[:1])
    assert fd.laurent_constant(field) == float(jet.coeffs[0, 0].real)


@pytest.mark.parametrize("r1, r2", [(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (4, 0), (6, 0),
                                    (0, 4)])
def test_left_pole_polynomials(r1, r2):
    ms = np.arange(0, 12)
    jet = nx.gamma_factor_jet(r1, r2, -ms, 1, r1 + r2)
    with mpmath.workdps(30):
        for m, principal, err in zip(ms.tolist(), jet.principal(), jet.err[:, ::-1]):
            series = [1] + [0] * (r1 + r2 - 1)
            lowest = 0
            for power, b, scale in ((r1, -m / 2, 0.5), (r2, -m, 1)):
                if power:
                    factor = _gamma_series(b, scale, r1 + r2)
                    lowest -= power if b == int(b) else 0
                    series = _mul(series, _power(factor, power))
            order = -lowest
            if order:
                _check(f"P_{m} of ({r1}, {r2})", principal[:order], err[:order], series[:order][::-1])
            assert np.all(principal[order:] == 0)
