import cmath
import math
import time

import numpy as np
import pytest

from zetatheta import fields as fd
from zetatheta import inverse_theta as iv
from zetatheta import numerics as nx
from zetatheta import steen as st
from zetatheta.errors import (
    ConvergenceError,
    DomainError,
    ParseError,
    ValidationError,
    ZeroNotSimpleError,
)

import _oracles as oracle
from _oracles import gamma, moebius_sieve, r1_inverse, smoothed_mu_exp_sum, zeta_derivative


def _mu_exp_sum_30_digits(y, n_head=2000):
    """S(y) = sum mu(n)/n e^{-y/n^2} to 30 digits: an n <= n_head head plus
    the Taylor tail sum_j (-y)^j/j! (1/zeta(1+2j) - head), using sum mu(n)/n = 0."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        y = mpmath.mpf(y)
        mu = moebius_sieve(n_head)
        terms = [(mpmath.mpf(n), int(mu[n])) for n in range(1, n_head + 1) if mu[n]]
        total = mpmath.fsum(m / n * (mpmath.exp(-y / n ** 2) - 1) for n, m in terms)
        j = 1
        while True:
            head = mpmath.fsum(m / n ** (1 + 2 * j) for n, m in terms)
            term = (-y) ** j / mpmath.factorial(j) * (1 / mpmath.zeta(1 + 2 * j) - head)
            total += term
            if j > 3 and abs(term) < mpmath.mpf(10) ** -32:
                return total
            j += 1


class TestZeroList:
    def test_load(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("# three zeros\n14.134725\n21.022040\n25.010858\n")
        zl = iv.load_zeros(p)
        assert len(zl) == 3
        assert zl.gammas[0] == pytest.approx(14.134725)

    def test_out_of_order(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("14.13\n13.0\n")
        with pytest.raises(ParseError) as err:
            iv.load_zeros(p)
        assert err.value.line == 2

    def test_not_a_number(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("14.13\nxyz\n")
        with pytest.raises(ParseError):
            iv.load_zeros(p)

    def test_comment_only_file_rejected(self, tmp_path):
        # an empty list is refused where it is made, not by each zero sum
        p = tmp_path / "z.txt"
        p.write_text("# nothing\n")
        with pytest.raises(ValidationError, match="the zero sum needs a nonempty zero list"):
            iv.load_zeros(p)

    def test_write_round_trip(self, tmp_path, riemann_zeros_reference):
        p = tmp_path / "out.txt"
        iv.write_zeros(p, riemann_zeros_reference)
        back = iv.load_zeros(p)
        assert len(back) == len(riemann_zeros_reference)
        for a, b in zip(back.gammas, riemann_zeros_reference.gammas):
            assert abs(a - b) < 1e-11

    def test_separation_validation(self):
        with pytest.raises(ValidationError):
            iv.ZeroList(gammas=(14.0, 14.0))


class TestLSeries:
    def test_rational_closed_form(self, field_q):
        # L(x) = sum mu(n)/n * 2 (e^{-pi x / n^2} - 1), absolutely convergent
        x = 4.0
        val = iv.l_series(field_q, 1, x, tol=1e-9)
        mu = fd.moebius_coeffs(field_q, 1, 400000).values
        n = np.arange(1, 400001, dtype=float)
        ref = float(np.sum(mu[1:] / n * 2.0 * (np.exp(-math.pi * x / n ** 2) - 1.0)))
        assert abs(val - ref) < 1e-9

    def test_large_argument_regime(self, field_q):
        # at large x each exponential is negligible but the -1 parts resum to
        # ~0 through sum mu(n)/n = 0; the naive single-term guess -2 is off by 2
        x = 30.0
        val = iv.l_series(field_q, 1, x, tol=1e-6)
        assert abs(val) < 0.05
        assert abs(val - 2.0 * smoothed_mu_exp_sum(math.pi * x)) < 1e-4

    def test_sector(self, field_q):
        from zetatheta.errors import SectorError
        with pytest.raises(SectorError):
            iv.l_series(field_q, 1, cmath.exp(1j * (math.pi / 2 - 0.1)))

    def test_truncation_stability(self, field_sqrt5):
        a = iv.l_series(field_sqrt5, 1, 2.0, tol=1e-5)
        b = iv.l_series(field_sqrt5, 1, 2.0, tol=1e-7)
        assert abs(a - b) < 1e-5

    # pi/0.277 is the reflected HLR point y = pi^2/0.277, where a stop rule
    # on term size once summed the tail's rounding noise into a 2.2e-5 error
    @pytest.mark.parametrize("x", [0.25, 1.0, 4.0, 11.3, math.pi / 0.277])
    def test_mpmath_oracle(self, field_q, x):
        # L_{Q,-1}(x) = 2 sum mu(n)/n e^{-pi x/n^2}
        ref = 2 * _mu_exp_sum_30_digits(math.pi * x)
        val = iv.l_series(field_q, 1, x)
        assert abs(val - complex(ref)) < 1e-12

    def test_tol_bounds_remainder_only(self, field_q):
        # tol never changes the sum; it only caps the certified remainder
        val, n0, bound = iv._l_series_parts(field_q, 2, 3.0)
        assert n0 == max(64, math.ceil(100 * math.pi * math.sqrt(3.0)))
        assert 0 < bound < 1e-8
        assert iv.l_series(field_q, 2, 3.0, tol=4.0 * bound) == val
        with pytest.raises(ConvergenceError):
            iv.l_series(field_q, 2, 3.0, tol=bound)

    def test_head_is_one_kernel_array_call(self, field_sqrt5, monkeypatch):
        calls = []
        kernel_many = st._kernel_many

        def spy(r1, r2, xs, shifted):
            calls.append((r1, r2, xs, shifted))
            return kernel_many(r1, r2, xs, shifted)

        def refuse(*args, **kwargs):
            raise AssertionError("the head called the one-point kernel")
        monkeypatch.setattr(st, "_kernel_many", spy)
        monkeypatch.setattr(st, "z_shifted", refuse)
        monkeypatch.setattr(st, "z_tilde", refuse)
        value, n0, bound = iv._l_series_parts(field_sqrt5, 1, 2.0)
        assert len(calls) == 1
        r1, r2, xs, shifted = calls[0]
        assert (r1, r2, shifted) == (2, 0, True)
        mu = fd.moebius_coeffs(field_sqrt5, 1, n0).values[1:]
        assert len(xs) == np.count_nonzero(mu) and np.max(np.abs(xs)) > 0.4
        assert 0 < bound < 1e-9


class TestR0Inverse:
    def test_rational_vanishes(self, field_q):
        for k in (1, 2, 3):
            assert iv.r0_inverse(field_q, k, 2.0) == 0

    def test_quadratic_constant(self, field_sqrt5):
        # k=1, r=1: lim s Lambda(s) = -4 / H_F, x-independent
        ref = -4.0 / fd.residue_constant(field_sqrt5)
        for x in (0.5, 1.0, 3.0):
            assert iv.r0_inverse(field_sqrt5, 1, x) == pytest.approx(ref, rel=1e-10)

    def test_k2_log_parity(self, field_sqrt5):
        # degree kr - 1 = 1 polynomial in log x: P(log(1/x)) flips the odd part
        poly = iv.r0_inverse_polynomial(field_sqrt5, 2)
        assert poly.degree == 1
        x = 3.0
        direct = iv.r0_inverse(field_sqrt5, 2, 1.0 / x)
        flipped = poly.coeffs[0] - poly.coeffs[1] * math.log(x)
        assert abs(direct - flipped) < 1e-12


class TestRRho:
    def test_k1_against_direct_formula(self, field_q, riemann_zeros_reference):
        # residue of Lambda at rho is -prefactor(rho)/zeta'(1-rho)
        g = riemann_zeros_reference.gammas[0]
        rho = 0.5 + 1j * g
        for x in (1.0, 4.0):
            pair = iv.r_rho(field_q, 1, x, g)
            pref = oracle.gamma_prefactor_many(field_q, np.array([rho]), 1)[0]
            res = -pref / zeta_derivative(1.0 - rho, 1)
            direct = x ** (-rho / 2.0) * res
            assert abs(pair - 2.0 * direct.real) < 1e-12

    def test_pair_scale(self, field_q, riemann_zeros_reference):
        # one-sided residue magnitude ~ e^{-pi gamma / 4} ~ 1e-5 at the first zero
        g = riemann_zeros_reference.gammas[0]
        _, poly = iv._lambda_principal_many(field_q, 1, [g])[0]
        assert 1e-6 < abs(poly.coeffs[0]) < 1e-4

    def test_pair_at_one_is_structurally_tiny(self, field_q, riemann_zeros_reference):
        # Lambda(1-s) = Lambda(s) makes Res_rho Lambda purely imaginary, so the
        # conjugate pair cancels at x = 1
        g = riemann_zeros_reference.gammas[0]
        assert abs(iv.r_rho(field_q, 1, 1.0, g)) < 1e-15

    def test_double_pole_extraction(self, field_q, riemann_zeros_reference):
        g = riemann_zeros_reference.gammas[0]
        pair = iv.r_rho(field_q, 2, 4.0, g)
        assert np.isfinite(pair.real) and np.isfinite(pair.imag)
        _, poly = iv._lambda_principal_many(field_q, 2, [g])[0]
        assert poly.degree == 1

    @pytest.mark.parametrize("k", [1, 2])
    def test_principal_part_against_mpmath(self, field_q, riemann_zeros_reference, k):
        # the same series inversion at 40 digits, with zeta(1 - rho - w) read
        # off mpmath.taylor directly rather than through Schwarz reflection
        mpmath = pytest.importorskip("mpmath")
        for g in riemann_zeros_reference.gammas[:8]:
            with mpmath.workdps(40):
                rho = mpmath.mpc(0.5, g)
                d = mpmath.taylor(mpmath.zeta, 1 - rho, k)
                h = [(-1) ** (j + 1) * d[j + 1] for j in range(k)]
                p = mpmath.taylor(lambda s: mpmath.pi ** (-s / 2) * mpmath.gamma(s / 2),
                                  rho, k - 1)
                q = []
                for n in range(k):
                    q.append((p[n] - mpmath.fsum(h[j] * q[n - j] for j in range(1, n + 1)))
                             / h[0])
                power = q
                for _ in range(k - 1):
                    power = [mpmath.fsum(power[j] * q[n - j] for j in range(n + 1))
                             for n in range(k)]
                ref = [complex(power[k - m] * mpmath.mpf(-0.5) ** (m - 1)
                               / mpmath.factorial(m - 1)) for m in range(1, k + 1)]
            _, poly = iv._lambda_principal_many(field_q, k, [g])[0]
            for got, want in zip(poly.coeffs, ref):
                assert abs(got - want) <= 1e-12 * abs(want), (k, g)


class TestZetaTaylor:
    def test_derivative_matches_zeta_derivative(self, field_q, riemann_zeros_reference):
        for g in riemann_zeros_reference.gammas[:3]:
            c = iv.zeta_taylor(field_q, g, 2)
            rho = 0.5 + 1j * g
            assert abs(c[0]) < 1e-12
            assert abs(c[1] - zeta_derivative(rho, 1)) <= 1e-12 * abs(c[1])
            assert abs(c[2] - zeta_derivative(rho, 2) / 2.0) <= 1e-11 * abs(c[2])

    def test_double_zero_is_not_simple(self, field_q, monkeypatch):
        # a planted zeta_F = (s - rho)^2 (s + 3) with a double zero at rho: the datum must raise
        rho = 0.5 + 20.0j

        def planted(field, centres, count):
            coeffs = np.zeros((len(centres), count), dtype=complex)
            coeffs[:, 2], coeffs[:, 3:4] = rho + 3.0, 1.0
            return nx.Jet(coeffs, np.zeros(coeffs.shape))

        monkeypatch.setattr(nx, "_MEMO", {})
        monkeypatch.setattr(nx, "dedekind_zeta_jet", planted)
        with pytest.raises(ZeroNotSimpleError, match="gamma = 20.0"):
            iv.zeta_taylor(field_q, 20.0, 2)
        with pytest.raises(ZeroNotSimpleError):
            iv.r_rho(field_q, 1, 4.0, 20.0)

    @pytest.mark.parametrize("offset", [0.3, 1e-4])
    def test_listed_ordinate_off_a_zero_is_rejected(self, field_q, riemann_zeros_reference,
                                                    offset):
        gammas = list(riemann_zeros_reference.gammas)
        gammas[4] += offset
        moved = iv.ZeroList(gammas=tuple(gammas))
        for check in (lambda: iv.check_inverse_theta(field_q, 1, 4.0, moved),
                      lambda: iv.dgv_check(field_q, 4.0, moved),
                      lambda: iv.hlr_check(4.0, moved)):
            with pytest.raises(ValidationError, match=f"gamma = {gammas[4]} is not a zero"):
                check()

    def test_scanned_zeros_pass(self, field_sqrt5, scanned_zeros_sqrt5):
        for g in scanned_zeros_sqrt5.gammas:
            c = iv.zeta_taylor(field_sqrt5, g, 2)
            assert abs(c[0]) <= 1e-8 * abs(c[1])


class TestZeroRings:
    """One Hurwitz jet call per zero list, each coefficient with a proven error."""

    @pytest.fixture(params=["Q", "zeta5"])
    def field_and_zeros(self, request, riemann_zeros_reference, zeta5_zeros_reference):
        zeros = {"Q": riemann_zeros_reference, "zeta5": zeta5_zeros_reference}[request.param]
        return fd.builtin_field(request.param), zeros

    def test_jet_within_its_error_of_a_128_ring(self, field_and_zeros):
        # the oracle ring samples zeta_F with its own rounding, about 1e-13 of
        # its largest sample at these heights, which c_m carries times r^-m
        field, zeros = field_and_zeros
        r = 0.07
        f = lambda s: nx.dedekind_zeta_many(s, field)
        refs = oracle.laurent_coefficients_many(f, [0.5 + 1j * g for g in zeros.gammas], r,
                                                count=3, lowest=0)
        jets = iv.zeta_taylor_many(field, zeros.gammas, 2)
        for g, jet, ref in zip(zeros.gammas, jets, refs):
            assert np.all(jet.err > 0)
            theta = 2.0 * math.pi * (np.arange(128) + 0.5) / 128
            largest = np.max(np.abs(f(0.5 + 1j * g + r * np.exp(1j * theta))))
            allowed = jet.err + 1e-12 * largest * r ** -np.arange(3.0)
            assert np.all(np.abs(jet.coeffs - ref.coeffs) <= allowed), g

    def test_derivative_against_mpmath(self, field_q, riemann_zeros_reference):
        mpmath = pytest.importorskip("mpmath")
        for g in riemann_zeros_reference.gammas[:10]:
            want = complex(mpmath.zeta(mpmath.mpc(0.5, g), derivative=1))
            assert abs(iv.zeta_taylor(field_q, g, 2)[1] - want) <= 1e-12 * abs(want), g

    def test_one_ring_call_per_list(self, field_sqrt5, scanned_zeros_sqrt5, monkeypatch):
        calls = []
        real = nx.dedekind_zeta_many

        def counting(s, field):
            calls.append(np.size(s))
            return real(s, field)

        monkeypatch.setattr(nx, "dedekind_zeta_many", counting)
        counts = []
        for zeros in (scanned_zeros_sqrt5.head(5), scanned_zeros_sqrt5):
            monkeypatch.setattr(nx, "_MEMO", {})
            calls.clear()
            iv.dgv_check(field_sqrt5, 2.0, zeros)
            counts.append(len(calls))
        assert len(scanned_zeros_sqrt5) > 5 and counts[0] == counts[1] <= 5

    def test_one_hurwitz_jet_call_per_list(self, field_sqrt5, scanned_zeros_sqrt5, monkeypatch):
        calls = []
        real = nx._hurwitz_jet

        def counting(s0, a, shift, count):
            calls.append(bool(np.all(s0.real == 0.5)))      # a call about zeros
            return real(s0, a, shift, count)

        monkeypatch.setattr(nx, "_hurwitz_jet", counting)
        counts = []
        for zeros in (scanned_zeros_sqrt5.head(5), scanned_zeros_sqrt5):
            monkeypatch.setattr(nx, "_MEMO", {})
            calls.clear()
            iv.dgv_check(field_sqrt5, 2.0, zeros)
            counts.append(sum(calls))
        # the other calls are about s = 0 (R_0) and s = 1 + m (the l_series tails)
        assert len(scanned_zeros_sqrt5) > 5 and counts == [1, 1]

    def test_one_zero_alone_agrees_with_its_batch(self, field_sqrt5, scanned_zeros_sqrt5,
                                                  monkeypatch):
        # a batch shares one Hurwitz shift, set by its highest zero, so a zero's
        # data round differently alone, within the proven errors of both
        field, gammas = field_sqrt5, scanned_zeros_sqrt5.gammas
        monkeypatch.setattr(nx, "_MEMO", {})
        batch = iv.zeta_taylor_many(field, gammas, 2)
        for g, in_batch in zip(gammas, batch):
            monkeypatch.setattr(nx, "_MEMO", {})
            alone = iv.zeta_taylor_many(field, [g], 2)[0]
            assert np.all(np.abs(alone.coeffs - in_batch.coeffs) <= alone.err + in_batch.err), g

    def test_zero_sum_is_one_pass_per_list(self, field_q, riemann_zeros_reference,
                                           monkeypatch):
        # the principal parts of the whole list: one prefactor jet, one zeta jet
        calls = []
        prefactor_jet, zeta_jet = fd.prefactor_jet, nx.dedekind_zeta_jet

        def counting_prefactor(field, centres, sign, count):
            calls.append(("prefactor", len(centres)))
            return prefactor_jet(field, centres, sign, count)

        def counting_zeta(field, centres, count):
            calls.append(("zeta", len(centres)))
            return zeta_jet(field, centres, count)

        monkeypatch.setattr(nx, "_MEMO", {})
        monkeypatch.setattr(fd, "prefactor_jet", counting_prefactor)
        monkeypatch.setattr(nx, "dedekind_zeta_jet", counting_zeta)
        iv.zero_sum(field_q, 1, 1.3, riemann_zeros_reference)
        count = len(riemann_zeros_reference)
        assert sorted(calls) == [("prefactor", count), ("zeta", count)]

    def test_checks_report_the_taylor_error(self, field_q, field_sqrt5, riemann_zeros_reference,
                                            scanned_zeros_sqrt5):
        def largest(field, zeros, order):
            return max(float(np.max(jet.err))
                       for jet in iv.zeta_taylor_many(field, zeros.gammas, order))

        q_bound = largest(field_q, riemann_zeros_reference, 2)
        assert 0 < q_bound <= 1e-10
        for rep, bound in ((iv.check_inverse_theta(field_q, 2, 2.0, riemann_zeros_reference),
                            q_bound),
                           (iv.hlr_check(2.0, riemann_zeros_reference), q_bound),
                           (iv.dgv_check(field_sqrt5, 2.0, scanned_zeros_sqrt5),
                            largest(field_sqrt5, scanned_zeros_sqrt5, 2))):
            assert rep.budget["taylor_error"] == bound
            assert "contour_alias" not in rep.budget

    def test_checks_report_the_inverse_budget(self, field_q, field_sqrt5,
                                              riemann_zeros_reference, scanned_zeros_sqrt5):
        # the inverse relation's three budget terms, in each of its three forms
        for rep in (iv.check_inverse_theta(field_q, 2, 2.0, riemann_zeros_reference),
                    iv.hlr_check(2.0, riemann_zeros_reference),
                    iv.dgv_check(field_sqrt5, 2.0, scanned_zeros_sqrt5)):
            for name in ("zero_tail_estimate", "taylor_error", "l_series_remainder"):
                assert 0 < rep.budget[name] < math.inf, name

    def test_l_series_remainder_is_the_weighted_bounds(self, field_sqrt5, scanned_zeros_sqrt5):
        x = 2.0
        bound_x, bound_inv = (iv._l_series_parts(field_sqrt5, 1, y)[2] for y in (x, 1.0 / x))
        inverse = iv.check_inverse_theta(field_sqrt5, 1, x, scanned_zeros_sqrt5)
        assert inverse.budget["l_series_remainder"] == bound_inv + math.sqrt(x) * bound_x
        scale = fd.kernel_scale(field_sqrt5)
        dgv = iv.dgv_check(field_sqrt5, x, scanned_zeros_sqrt5)
        assert dgv.budget["l_series_remainder"] == pytest.approx(
            math.sqrt(scale * math.sqrt(x)) * bound_x + math.sqrt(scale / math.sqrt(x)) * bound_inv,
            rel=1e-15)


class TestZeroSum:
    def test_reality(self, field_q, riemann_zeros_reference):
        total, _ = iv.zero_sum(field_q, 1, 4.0, riemann_zeros_reference)
        assert abs(total.imag) < 1e-10

    def test_tail_decay(self, field_q, riemann_zeros_reference):
        _, tail = iv.zero_sum(field_q, 1, 1.0, riemann_zeros_reference)
        assert tail < 1e-25

    def test_cauchy_doubling(self, field_q, riemann_zeros_reference):
        s15, _ = iv.zero_sum(field_q, 1, 4.0, riemann_zeros_reference.head(15))
        s30, tail30 = iv.zero_sum(field_q, 1, 4.0, riemann_zeros_reference)
        pair16 = abs(iv.r_rho(field_q, 1, 4.0, riemann_zeros_reference.gammas[15]))
        assert abs(s30 - s15) < 20.0 * max(pair16, 1e-30)

    @pytest.mark.parametrize("k,x", [(1, 4.0), (2, 2.0), (1, 0.6 + 0.3j), (2, 0.6 + 0.3j)])
    def test_one_pass_is_the_pair_loop(self, field_q, riemann_zeros_reference, k, x):
        # the residue and its mirror, zero by zero, added in ascending gamma
        logx = cmath.log(x)
        want, size = 0.0, 0.0
        for rho, poly in iv._lambda_principal_many(field_q, k, riemann_zeros_reference.gammas):
            mirror = nx.LogPolynomial(tuple(c.conjugate() for c in poly.coeffs))
            pair = cmath.exp(-rho * logx / 2.0) * poly.eval_log(logx) \
                + cmath.exp(-rho.conjugate() * logx / 2.0) * mirror.eval_log(logx)
            want, size = want + pair, size + abs(pair)
        total, last = iv.zero_sum(field_q, k, x, riemann_zeros_reference)
        assert abs(total - want) <= 8 * len(riemann_zeros_reference) * 2.0 ** -52 * size
        assert last == pytest.approx(abs(pair), rel=1e-15)

    def test_empty(self, field_q):
        with pytest.raises(ValidationError):
            iv.zero_sum(field_q, 1, 1.0, iv.ZeroList(gammas=()))


class TestCheckInverseTheta:
    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_named(self, field_q, riemann_zeros_reference, k):
        # the forward side's message, not the contour's "count must be >= 1"
        zeros = riemann_zeros_reference
        for call in (lambda: iv.l_series(field_q, k, 2.0),
                     lambda: iv.u_inverse(field_q, k, 2.0, zeros),
                     lambda: iv.r_rho(field_q, k, 2.0, zeros.gammas[0]),
                     lambda: iv.zero_sum(field_q, k, 2.0, zeros),
                     lambda: iv.check_inverse_theta(field_q, k, 2.0, zeros)):
            with pytest.raises(ValidationError, match="k must be >= 1"):
                call()

    def test_rational_k1(self, field_q, riemann_zeros_reference):
        rep = iv.check_inverse_theta(field_q, 1, 4.0, riemann_zeros_reference)
        assert rep.residual < 1e-6

    def test_rational_k2_fixed_point(self, field_q, riemann_zeros_reference):
        rep = iv.check_inverse_theta(field_q, 2, 1.0, riemann_zeros_reference)
        assert rep.residual < 1e-12   # identical sides; double poles must stay finite

    def test_rational_k2(self, field_q, riemann_zeros_reference):
        rep = iv.check_inverse_theta(field_q, 2, 2.0, riemann_zeros_reference)
        assert rep.residual < 1e-5

    def test_quadratic_with_scanned_zeros(self, field_sqrt5, scanned_zeros_sqrt5):
        rep = iv.check_inverse_theta(field_sqrt5, 1, 2.0, scanned_zeros_sqrt5)
        assert rep.residual < 1e-5

    @pytest.mark.parametrize("field_name,k,zeros_name", [
        ("gauss", 1, "scanned_zeros_gauss"),
        ("cubic7", 1, "scanned_zeros_cubic7"),
        ("sqrt5", 2, "scanned_zeros_sqrt5"),
    ])
    def test_exact_tail_fields(self, request, field_name, k, zeros_name):
        # the term-by-term tail could not certify these below 1e-7 by N = 10^7
        field = fd.builtin_field(field_name)
        zeros = request.getfixturevalue(zeros_name)
        for x in (0.5, 2.0):
            rep = iv.check_inverse_theta(field, k, x, zeros)
            assert rep.residual < 1e-6, (field_name, k, x)
            assert 0 < rep.budget["zero_tail_estimate"] < 1e-20

    def test_zeta5_close_zeros(self, field_zeta5, zeta5_zeros_reference):
        # 14.11546 and 14.13473 lie 0.019 apart, inside one radius-0.05 circle
        assert len(zeta5_zeros_reference) == 35
        for x in (0.25, 2.0, 0.6 + 0.4j):
            rep = iv.check_inverse_theta(field_zeta5, 1, x, zeta5_zeros_reference)
            assert rep.residual < 1e-12, x

    def test_rational_k2_time(self, field_q, riemann_zeros_reference):
        start = time.perf_counter()
        rep = iv.check_inverse_theta(field_q, 2, 2.0, riemann_zeros_reference)
        assert time.perf_counter() - start < 0.5
        assert rep.residual < 1e-5

    def test_zero_count_stability(self, field_q, riemann_zeros_reference):
        a = iv.check_inverse_theta(field_q, 1, 4.0, riemann_zeros_reference.head(15))
        b = iv.check_inverse_theta(field_q, 1, 4.0, riemann_zeros_reference)
        assert abs(abs(a.lhs - a.rhs) - abs(b.lhs - b.rhs)) < 1e-8


class TestHLR:
    def test_residual_small(self, riemann_zeros_reference):
        for x in (1.0, 4.0, math.pi ** 2):
            rep = iv.hlr_check(x, riemann_zeros_reference)
            assert rep.residual < 1e-4, x

    def test_symmetric_point(self, riemann_zeros_reference):
        # x = pi: the two exponential sums cancel termwise, so the residual
        # equals the standalone zero-term magnitude to near machine precision
        rep = iv.hlr_check(math.pi, riemann_zeros_reference)
        standalone = abs(oracle.hlr_zero_term(math.pi, riemann_zeros_reference))
        assert abs(rep.residual - standalone) < 1e-8

    def test_domain(self, riemann_zeros_reference):
        with pytest.raises(DomainError):
            iv.hlr_check(-1.0, riemann_zeros_reference)

    def test_exact_sums(self, riemann_zeros_reference):
        rep = iv.hlr_check(1.0, riemann_zeros_reference)
        assert rep.residual < 1e-9
        assert rep.budget["zero_tail_estimate"] == abs(
            oracle.hlr_zero_term(1.0, iv.ZeroList(gammas=riemann_zeros_reference.gammas[-1:])))
        assert rep.budget["l_series_remainder"] <= 1e-4 / 4
        with pytest.raises(ConvergenceError):
            iv.hlr_check(1.0, riemann_zeros_reference, tol=1e-18)

    def test_zero_term_against_zeta_derivative(self, riemann_zeros_reference):
        # the zero term reads zeta'(rho) from the DGV route (zeta_taylor of Q);
        # this sum takes it from the zeta_derivative oracle instead
        for x in (1.0, 3.7):
            base = math.pi / math.sqrt(x)
            ref = 0.0
            for g in riemann_zeros_reference.gammas:
                rho = 0.5 + 1j * g
                term = base ** rho * gamma((1.0 - rho) / 2.0) / zeta_derivative(rho)
                ref += 2.0 * term.real / (2.0 * math.sqrt(math.pi))
            assert abs(oracle.hlr_zero_term(x, riemann_zeros_reference) - ref) <= 1e-13 * abs(ref)

    def test_empty_zero_list(self, field_sqrt5):
        # without zeros the zero term and its tail estimate would be a silent 0
        with pytest.raises(ValidationError):
            iv.hlr_check(2.0, iv.ZeroList(gammas=()))
        with pytest.raises(ValidationError):
            iv.dgv_check(field_sqrt5, 2.0, iv.ZeroList(gammas=()))

    def test_empty_zero_list_rejected_before_series_work(self, field_sqrt5, monkeypatch):
        def no_series(*args):
            pytest.fail("a Moebius series was summed for an empty zero list")

        monkeypatch.setattr(iv, "_l_series_parts", no_series)
        for check in (lambda z: iv.hlr_check(2.0, z), lambda z: iv.dgv_check(field_sqrt5, 2.0, z)):
            with pytest.raises(ValidationError, match="the zero sum needs a nonempty zero list"):
                check(iv.ZeroList(gammas=()))

    def test_u_inverse_specialization(self, field_q, riemann_zeros_reference):
        # the remark's simplification: U_{Q,-1}(x) = 2 sum mu(n)/n e^{-pi x/n^2}
        # (+ half the zero sum), using sum mu(n)/n = 0
        x = 2.0
        u = iv.u_inverse(field_q, 1, x, riemann_zeros_reference, tol=1e-8)
        smoothed = smoothed_mu_exp_sum(math.pi * x)
        zs, _ = iv.zero_sum(field_q, 1, x, riemann_zeros_reference)
        assert abs(u - (2.0 * smoothed + 0.5 * zs)) < 1e-4


class TestDGV:
    def test_trivial_fixed_point(self, field_sqrt5, scanned_zeros_sqrt5):
        rep = iv.dgv_check(field_sqrt5, 1.0, scanned_zeros_sqrt5)
        assert rep.residual == 0.0

    def test_quadratic(self, field_sqrt5, scanned_zeros_sqrt5):
        rep = iv.dgv_check(field_sqrt5, 4.0, scanned_zeros_sqrt5)
        assert rep.residual < 1e-5
        assert 0 < rep.budget["zero_tail_estimate"] < 1e-20

    def test_rational_matches_hlr_content(self, field_q, riemann_zeros_reference):
        rep = iv.dgv_check(field_q, 4.0, riemann_zeros_reference)
        assert rep.residual < 1e-4

    @pytest.mark.parametrize("field_name,zeros_name", [
        ("cubic7", "scanned_zeros_cubic7"),
        ("zeta5", "zeta5_zeros_reference"),
    ])
    def test_beyond_quadratic(self, request, field_name, zeros_name):
        # the relation holds in every degree: a cubic and a quartic field
        field = fd.builtin_field(field_name)
        zeros = request.getfixturevalue(zeros_name)
        for x in (0.25, 1.7, 4.0):
            rep = iv.dgv_check(field, x, zeros)
            assert rep.residual < 1e-8, (field_name, x)

    @pytest.mark.parametrize("x", [2.0, 0.4])
    def test_residual_is_the_inverse_relation(self, field_sqrt5, scanned_zeros_sqrt5, x):
        # lhs - rhs = sqrt(alpha) U(x) - sqrt(beta) U(1/x) = -sqrt(beta) (U(1/x) - sqrt(x) U(x))
        rep = iv.dgv_check(field_sqrt5, x, scanned_zeros_sqrt5)
        u_x, u_inv = (sum(iv._u_inverse_parts(field_sqrt5, 1, y, scanned_zeros_sqrt5, 1e-7)[0])
                      for y in (x, 1.0 / x))
        root_beta = math.sqrt(fd.kernel_scale(field_sqrt5) / math.sqrt(x))
        want = root_beta * abs(u_inv - math.sqrt(x) * u_x)
        assert abs(rep.residual - want) <= 1e-13 * max(abs(u_x), abs(u_inv))


class TestInverseResidueReflection:
    def test_r1_equals_reflected_r0(self, field_sqrt5, field_cubic7):
        # Res_{s=1} Lambda^k(s) x^{-s/2} = -(1/sqrt(x)) R_0(1/x)
        for field, k in [(field_sqrt5, 1), (field_sqrt5, 2), (field_cubic7, 1)]:
            for x in (0.7, 2.0):
                lhs = r1_inverse(field, k, x)
                rhs = -iv.r0_inverse(field, k, 1.0 / x) / cmath.sqrt(x)
                assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs)), (field.label, k, x)
