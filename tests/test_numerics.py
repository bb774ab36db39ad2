import cmath
import functools
import math
import operator
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from zetatheta import critical_line as cl
from zetatheta import fields as fd
from zetatheta import numerics as nx
from zetatheta import steen as st
from zetatheta import theta as th
from zetatheta.errors import (
    ConvergenceError,
    DomainError,
    PoleError,
    ValidationError,
)

import _oracles as oracle


class TestGamma:
    def test_at_one(self):
        assert oracle.gamma(1.0) == pytest.approx(1.0, rel=1e-13)

    def test_at_half(self):
        assert oracle.gamma(0.5).real == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_quarter_against_integral_oracle(self):
        # oracle: direct integral of t^{s-1} e^{-t} plus the recurrence
        ref = oracle.gamma_by_integral(0.25)
        assert abs(ref - 3.6256099082219083) < 1e-11
        assert oracle.gamma(0.25) == pytest.approx(ref, rel=1e-11)

    def test_reflection_formula_grid(self):
        rng = np.random.RandomState(11)
        count = 0
        while count < 100:
            s = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            if min(abs(s - round(s.real)), abs(1 - s - round(1 - s.real))) < 0.1:
                continue
            if abs(s.imag) < 0.05 and (s.real < 0.5):
                continue
            lhs = oracle.gamma(s) * oracle.gamma(1.0 - s)
            rhs = math.pi / cmath.sin(math.pi * s)
            assert abs(lhs - rhs) < 1e-10 * abs(rhs)
            count += 1

    def test_duplication_formula_grid(self):
        rng = np.random.RandomState(12)
        count = 0
        while count < 100:
            s = complex(rng.uniform(0.3, 10), rng.uniform(-15, 15))
            if abs(s.imag) < 0.05:
                continue
            lhs = oracle.gamma(s) * oracle.gamma(s + 0.5)
            rhs = 2.0 ** (1.0 - 2.0 * s) * math.sqrt(math.pi) * oracle.gamma(2.0 * s)
            assert abs(lhs - rhs) < 1e-10 * abs(rhs)
            count += 1

    def test_pole_error(self):
        with pytest.raises(PoleError):
            oracle.gamma(0.0)
        with pytest.raises(PoleError):
            oracle.gamma(-3.0)

    def test_loggamma_whole_plane_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.RandomState(23)
        points = []
        # (Re range, |Im| bound, count): deep left, tall left, the critical strip
        # of Gamma(s/2), and the right half-plane
        for (re_lo, re_hi), im, count in (((-40.0, 0.5), 20.0, 400), ((-5.0, 0.5), 1000.0, 300),
                                          ((0.2, 0.3), 1000.0, 200), ((0.5, 40.0), 1000.0, 200)):
            box = []
            while len(box) < count:
                z = complex(rng.uniform(re_lo, re_hi), rng.uniform(-im, im))
                if z.real < 0.5 and abs(z - min(0, round(z.real))) < 0.05:
                    continue        # 0.05 away from the poles
                box.append(z)
            points += box
        assert len(points) >= 1000
        values = nx.loggamma(np.array(points))
        for z, value in zip(points, values):
            ref = complex(mpmath.loggamma(z))
            delta = value - ref
            # log-gamma is defined up to 2 pi i
            delta = complex(delta.real, (delta.imag + math.pi) % (2.0 * math.pi) - math.pi)
            assert abs(delta) <= 1e-14 * (1.0 + abs(ref)), z

    def test_loggamma_error_bound_against_mpmath(self):
        # the proven error of every value, up to |Im z| = 10^4 in both half-planes, next to
        # the poles on the left and at z = 1 and 2, where log Gamma cancels to 0
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.RandomState(29)
        points = [complex(rng.uniform(re_lo, re_hi), rng.uniform(-im, im))
                  for (re_lo, re_hi), im in (((-40.0, 0.5), 30.0), ((-3.0, 0.5), 1e4),
                                             ((0.5, 3.0), 1e4), ((0.5, 60.0), 60.0))
                  for _ in range(150)]
        points += [complex(-m + d) for m in range(0, 40, 3) for d in (1e-9, -1e-4, 3e-3j, 0.01 - 0.02j)]
        points += [complex(c + d) for c in (1, 2) for d in (1e-12, -1e-6, 1e-4j, 0.03 + 0.01j)]
        points += [0.5 + 6.0j, 0.25 + 1e4j, 0.75 - 1e4j, 30.0 + 1e4j]
        values, errors = nx._loggamma_and_error(np.array(points))
        with mpmath.workdps(30):
            for z, value, error in zip(points, values, errors):
                delta = value - complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
                # log-gamma is defined up to 2 pi i
                delta = complex(delta.real, (delta.imag + math.pi) % (2.0 * math.pi) - math.pi)
                assert abs(delta) <= error, (z, abs(delta), error)
        assert np.all(nx.loggamma(np.array(points)) == values)

    def test_loggamma_value_does_not_depend_on_its_batch(self):
        # each value and its error bound alone and in one array with the others, bit for bit
        points = np.array([0.3 + 0.1j, 6.0, 7.5, -3.2 + 40.0j, 100.0, 6.5 - 2.0j, 1e5 + 3.0j, -30.3 + 0.2j])
        values, errors = nx._loggamma_and_error(points)
        for z, value, error in zip(points, values, errors):
            alone, alone_error = nx._loggamma_and_error(np.array([z]))
            assert (alone[0], alone_error[0]) == (value, error), z

    def test_loggamma_scalar_returns_complex(self):
        assert type(nx.loggamma(-2.5 + 1j)) is complex
        assert type(nx.loggamma(3.0)) is complex

    @pytest.mark.parametrize("s", [0.25 + 230j, 0.25 + 300j, 0.25 - 300j])
    def test_gamma_many_at_height(self, s):
        # the reflection through sin(pi s) overflowed here (|Im s| > 226)
        mpmath = pytest.importorskip("mpmath")
        value = complex(oracle.gamma(np.array([s]))[0])
        ref = complex(mpmath.gamma(s))
        assert math.isfinite(value.real) and math.isfinite(value.imag)
        assert abs(value - ref) <= 1e-12 * abs(ref)

    def test_log_gamma_factor_is_the_gamma_product(self):
        s = np.array([0.3 + 2.0j, -1.7 + 0.5j, 4.2 - 9.0j, 0.5 + 40.0j])
        for r1, r2 in ((1, 0), (0, 1), (2, 1), (3, 2)):
            got = np.exp(nx.log_gamma_factor(r1, r2, s)[0])
            for si, g in zip(s, got):
                ref = oracle.gamma(si / 2.0) ** r1 * oracle.gamma(si) ** r2
                assert abs(g - ref) <= 1e-12 * abs(ref), (r1, r2, si)


class TestHurwitzZeta:
    def test_zeta_two(self):
        # brute-force check of the classical value
        brute = oracle.brute_hurwitz(2.0, 1.0)
        assert abs(brute - math.pi ** 2 / 6.0) < 1e-12
        assert nx.hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-13)

    def test_zeta_zero_against_hasse(self):
        ref = oracle.hasse_zeta(0.0)
        assert abs(ref - (-0.5)) < 1e-12
        assert nx.hurwitz_zeta(0.0, 1.0) == pytest.approx(-0.5, abs=1e-13)

    def test_half_shift(self):
        # sum (n + 1/2)^{-2} = pi^2/2 - 4 + 4 = pi^2/2 over n >= 0
        brute = oracle.brute_hurwitz(2.0, 0.5)
        assert abs(brute - math.pi ** 2 / 2.0) < 1e-11
        assert nx.hurwitz_zeta(2.0, 0.5) == pytest.approx(math.pi ** 2 / 2.0, rel=1e-12)

    def test_agrees_with_hasse_on_strip(self):
        rng = np.random.RandomState(13)
        for _ in range(30):
            s = complex(rng.uniform(-3, 3), rng.uniform(-30, 30))
            if abs(s - 1.0) < 0.2:
                continue
            ref = oracle.hasse_zeta(s)
            val = nx.hurwitz_zeta(s, 1.0)
            assert abs(val - ref) < 1e-10 * max(1.0, abs(ref))

    def test_pole(self):
        with pytest.raises(PoleError):
            nx.hurwitz_zeta(1.0, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            nx.hurwitz_zeta(2.0, 1.5)

    def test_vectorized_matches_scalar(self):
        # shared-shift vectorized path vs per-point scalar path; both honor
        # the 12-digit contract, so they may differ by ~1e-11 absolute
        ss = np.array([0.5 + 14j, -2 + 3j, 3.0 + 0j, 0.25 - 40j])
        vec = nx.hurwitz_zeta_many(ss, 0.3)
        for s, v in zip(ss, vec):
            assert abs(v - nx.hurwitz_zeta(s, 0.3)) < 1e-10 * max(1.0, abs(v))

    def test_bank_rows_match_single_a(self):
        ss = np.array([[0.5 + 14j, -2 + 3j], [3.0 + 0j, 0.25 - 40j]])
        bank_a = np.array([1.0, 0.3, 1.0 / 7.0])
        bank = nx.hurwitz_zeta_many(ss, bank_a)
        assert bank.shape == (3, 2, 2)
        for row, a in zip(bank, bank_a):
            assert np.array_equal(row, nx.hurwitz_zeta_many(ss, a))

    def test_chunking_leaves_values_unchanged(self, monkeypatch):
        ss = np.linspace(-2.0, 3.0, 37) + 1j * np.linspace(-90.0, 90.0, 37)
        bank_a = np.array([1.0, 0.2, 0.4, 0.6, 0.8])
        whole = nx.hurwitz_zeta_many(ss, bank_a)
        monkeypatch.setattr(nx, "_HURWITZ_CHUNK_ELEMENTS", 1000)
        assert np.array_equal(nx.hurwitz_zeta_many(ss, bank_a), whole)

    def test_bank_domain(self):
        with pytest.raises(DomainError):
            nx.hurwitz_zeta_many(np.array([2.0]), np.array([0.5, 1.5]))


class TestDirichletL:
    def test_principal_mod_one_is_zeta(self, field_q):
        chi = field_q.characters[0]
        assert nx.dirichlet_l(2.0, chi) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-12)

    def test_class_number_value_mod5(self, field_sqrt5):
        chi = next(c for c in field_sqrt5.characters if not c.is_principal)
        # class number formula oracle for Q(sqrt5): 2 log((1+sqrt5)/2)/sqrt5
        ref = 2.0 * math.log((1.0 + math.sqrt(5.0)) / 2.0) / math.sqrt(5.0)
        assert abs(ref - 0.4304089409640040) < 1e-15
        assert nx.dirichlet_l(1.0, chi) == pytest.approx(ref, rel=1e-12)

    def test_odd_character_series(self):
        from zetatheta.fields import kronecker_character
        chi = kronecker_character(-4)
        # brute-force paired partial sums of sum chi(n) n^{-3}
        total = 0.0
        for n in range(1, 20002, 2):
            total += (-1) ** ((n - 1) // 2) / n ** 3
        assert abs(total - math.pi ** 3 / 32.0) < 1e-12
        assert nx.dirichlet_l(3.0, chi) == pytest.approx(total, rel=1e-11)

    def test_principal_pole(self, field_q):
        with pytest.raises(PoleError):
            nx.dirichlet_l(1.0, field_q.characters[0])

    def test_dirichlet_series_agreement(self, field_sqrt5):
        chi = next(c for c in field_sqrt5.characters if not c.is_principal)
        s = 2.5 + 1.5j
        direct = sum(chi.value(n) * n ** (-s) for n in range(1, 40000))
        assert abs(nx.dirichlet_l(s, chi) - direct) < 1e-10

    def test_vector_equals_scalar_at_one(self, field_sqrt5):
        # s = 1 of a non-principal character is the digamma closed form in both
        chi = next(c for c in field_sqrt5.characters if not c.is_principal)
        ss = [1.0, 2.0, 0.5 + 14.0j]
        values = nx.dirichlet_l_many(ss, chi)
        assert values[0] == nx.dirichlet_l(1.0, chi)
        for s, v in zip(ss, values, strict=True):
            assert abs(v - nx.dirichlet_l(s, chi)) <= 1e-13 * abs(v), s


class TestDedekindZeta:
    def test_rational_field(self, field_q):
        assert nx.dedekind_zeta(2.0, field_q) == pytest.approx(math.pi ** 2 / 6, rel=1e-12)

    def test_at_zero_matches_hasse(self, field_q):
        assert nx.dedekind_zeta(0.0, field_q) == pytest.approx(-0.5, abs=1e-12)

    def test_quadratic_against_coefficient_series(self, field_sqrt5):
        from zetatheta.fields import ideal_coeffs
        table = ideal_coeffs(field_sqrt5, 20000)
        n = np.arange(1, 20001, dtype=float)
        direct = float(np.sum(table.values[1:] / n ** 2))
        val = nx.dedekind_zeta(2.0, field_sqrt5)
        # truncation of the direct series dominates the comparison
        assert abs(val - direct) < 1e-3
        assert abs(val.imag) < 1e-12

    def test_pole(self, field_sqrt5):
        with pytest.raises(PoleError):
            nx.dedekind_zeta(1.0, field_sqrt5)

    @staticmethod
    def _hurwitz_product(field, s, hurwitz):
        # zeta_F as the product over characters of q^(-s) sum_a chi(a) zeta_H(s, a/q)
        out = 1.0
        for chi in field.characters:
            q = chi.modulus
            total = 0.0
            for a in range(1, q + 1):
                if chi.value(a) != 0:
                    total = total + chi.value(a) * hurwitz(s, a / q)
            out = out * q ** (-s) * total
        return out

    @staticmethod
    def _zeta_jet(field, s):
        # zeta_F and its bound at each point: the product of the one-coefficient L-factor jets
        return functools.reduce(operator.mul, nx._l_factor_jets(field.characters, s, 1))

    @pytest.mark.parametrize("name", ["Q", "sqrt5", "cubic7", "zeta5", "gauss"])
    def test_shared_bank_matches_per_residue_sums(self, name):
        field = fd.builtin_field(name)
        rng = np.random.RandomState(23)
        ss = rng.uniform(-2.0, 3.0, 40) + 1j * rng.uniform(-100.0, 100.0, 40)
        ss = np.concatenate([ss, [3.0, -2.0 + 100j, 0.5 - 100j, 2.0 + 0.5j, 0.0, -2.0]])
        # s = 0 and -2 are trivial zeros of most of the fields, where a relative
        # check reads only rounding: there the value is checked within its own bound
        about_zero = (ss == 0.0) | (ss == -2.0)
        # one Hurwitz call per residue over the whole array shares the shift
        # that array sets, as the bank does
        ref = self._hurwitz_product(field, ss, nx.hurwitz_zeta_many)
        vec = nx.dedekind_zeta_many(ss, field)
        bound = self._zeta_jet(field, ss).err[:, 0]
        assert np.max(np.abs(vec - ref)[~about_zero] / np.abs(ref[~about_zero])) < 1e-13
        assert np.all(np.abs(vec - ref)[about_zero] <= bound[about_zero])
        # point by point: the scalar wrapper against scalar hurwitz_zeta
        for s, near_zero in zip(ss, about_zero):
            ref = self._hurwitz_product(field, s, nx.hurwitz_zeta)
            allowed = self._zeta_jet(field, [s]).err[0, 0] if near_zero else 1e-13 * abs(ref)
            assert abs(nx.dedekind_zeta(s, field) - ref) <= allowed, s

    @pytest.mark.parametrize("name", ["Q", "sqrt5", "cubic7", "zeta5", "gauss"])
    def test_error_bound_holds_against_mpmath(self, name):
        mpmath = pytest.importorskip("mpmath")
        field = fd.builtin_field(name)
        lines = [(0.5, 3.0), (0.5, 141.0), (2.0, 20.0), (-1.5, 20.0)]
        if name in ("Q", "zeta5"):
            lines.append((0.5, 1000.0))
        for sigma, t in lines:
            ss = sigma + 1j * (t + np.array([0.0, 1.1]))
            factors = nx._l_factor_jets(field.characters, ss, 1)
            zeta = self._zeta_jet(field, ss)
            vals, bound = zeta.coeffs[:, 0], zeta.err[:, 0]
            assert np.array_equal(vals, nx.dedekind_zeta_many(ss, field))
            with mpmath.workdps(25):
                for i, s in enumerate(ss):
                    refs = [complex(mpmath.dirichlet(s, [chi.value(a) for a in range(chi.modulus)]))
                            for chi in field.characters]
                    for chi, jet, ref in zip(field.characters, factors, refs):
                        assert abs(jet.coeffs[i, 0] - ref) <= jet.err[i, 0], (s, chi.modulus)
                    ref = complex(mpmath.fprod(refs))
                    assert abs(vals[i] - ref) <= bound[i], (s, abs(vals[i] - ref), bound[i])
                    assert bound[i] <= 1e-8 * (1.0 + abs(ref)), (s, bound[i])

    @pytest.mark.parametrize("count", [1, 2])
    def test_high_grid_memory_is_bounded(self, count):
        # a line up to t = 1000 at step 0.2: the unchunked bank would need ~350 MB.
        # count 2 reads the jet, whose disc about s = 1/2 would reach s = 1, so its line starts at t = 1
        field = fd.builtin_field("cubic7")
        ss = 0.5 + 1j * np.linspace(count - 1.0, 1000.0, 5001)
        tracemalloc.start()
        try:
            vals = nx.dedekind_zeta_jet(field, ss, count).coeffs if count > 1 \
                else nx.dedekind_zeta_many(ss, field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(vals) == len(ss) and np.all(np.isfinite(vals))
        assert peak < 64 * 2 ** 20


class TestBesselK:
    def test_k0_at_one_integral_oracle(self):
        ref = oracle.bessel_k_integral(0.0, 1.0)
        assert abs(ref - 0.42102443824070834) < 1e-11
        assert oracle.bessel_k(0, 1.0) == pytest.approx(ref, rel=1e-11)

    def test_half_integer_closed_form(self):
        for z in [0.7, 2.0, 5.0 + 1.0j]:
            ref = cmath.sqrt(math.pi / (2.0 * z)) * cmath.exp(-z)
            assert oracle.bessel_k(0.5, z) == pytest.approx(ref, rel=1e-12)

    def test_large_argument_asymptotic_vs_integral(self):
        z = 20.0
        ref = oracle.bessel_k_integral(0.0, z)
        lead = math.sqrt(math.pi / (2 * z)) * math.exp(-z)
        assert abs(ref - lead) < 0.01 * lead       # asymptotic leading order
        assert oracle.bessel_k(0, z) == pytest.approx(ref, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            oracle.bessel_k(0, 0.0)
        with pytest.raises(DomainError):
            oracle.bessel_k(0, -2.0)

    def test_runs_without_scipy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.special", None)
        assert oracle.bessel_k(0, 1.0) == pytest.approx(0.42102443824070834, rel=1e-13)
        x = 2.0
        lhs = oracle.koshliakov_theta_w2(1.0 / x)
        assert abs(lhs - math.sqrt(x) * oracle.koshliakov_theta_w2(x)) < 1e-9 * abs(lhs)


class TestLineIntegral:
    # the step sums' rounding: a few eps times the integrand's modulus summed over ~80
    # nodes, itself within a few |value| on these saddle lines (measured: <= 1.1e-15 |value|)
    ROUNDING = 1e-13

    @staticmethod
    def line(f, r1, r2, x):
        """(value, proven error) of line_integral_many on _line_plan's line for Z~_{r1,r2}(x).

        Gamma(s) x^{-s} is the (0, 1) kernel e^{-x}, Gamma(s)^2 x^{-s} the (0, 2)
        kernel 2 K_0(2 sqrt x), so the plan's proven error holds for them.
        """
        _, c, T, h, error = st._line_plan(r1, r2, np.array([complex(x)]))
        values, _ = nx.line_integral_many(lambda s, entry: (f(s), np.zeros(len(s))), c, T, h)
        return complex(values[0]), float(error[0])

    @staticmethod
    def raw_line(f, c, T, step):
        return nx.line_integral_many(lambda s, entry: (f(s), np.zeros(len(s))), [c], [T], [step])

    def test_exponential_kernel(self):
        for x, expected in [(1.0, math.exp(-1.0)), (2.0, math.exp(-2.0))]:
            f = lambda s: oracle.gamma(s) * np.exp(-s * math.log(x))
            value, error = self.line(f, 0, 1, x)
            assert error <= 1e-11 * abs(value)
            assert abs(value - expected) <= error + self.ROUNDING * expected

    def test_bessel_kernel(self):
        f = lambda s: oracle.gamma(s) ** 2
        value, error = self.line(f, 0, 2, 1.0)
        expected = 2.0 * oracle.bessel_k(0, 2.0)
        assert abs(value - expected) <= error + self.ROUNDING * abs(expected)

    def test_node_doubling_stability(self):
        # one proven level: the error is at most 1e-11 of the value, no halving delta needed
        f = lambda s: oracle.gamma(s)
        value, error = self.line(f, 0, 1, 1.0)
        assert error <= 1e-11 * abs(value)
        assert abs(value - math.exp(-1.0)) <= error + self.ROUNDING * abs(value)

    def test_spec_validation(self):
        f = lambda s: oracle.gamma(s)
        with pytest.raises(ValidationError):
            self.raw_line(f, 1.0, -1.0, 0.25)
        for step in (0.0, -0.25, 1.5):
            with pytest.raises(ValidationError):
                self.raw_line(f, 1.0, 1.0, step)

    def test_nan_integrand_rejected(self):
        f = lambda s: np.full_like(s, np.nan)
        with pytest.raises(DomainError):
            self.raw_line(f, 1.0, 5.0, 0.25)


class TestLaurentCoefficients:
    """The sampled-ring oracle the Taylor jets are compared against."""

    def test_planted_coefficients(self):
        rng = np.random.RandomState(3)
        planted = rng.randn(7) + 1j * rng.randn(7)

        def f(s):
            out = np.zeros_like(s)
            for j, p in enumerate(range(-3, 4)):
                out = out + planted[j] * s ** p
            return out

        res = oracle.laurent_coefficients(f, 0.0, 0.25, count=7, lowest=-3)
        assert np.max(np.abs(res.coeffs - planted)) < 1e-12 * max(1, np.max(np.abs(planted)))

    def test_residue_of_inverse(self):
        res = oracle.laurent_coefficients(lambda s: 1.0 / s, 0.0, 0.3, count=1)
        assert res.residue == pytest.approx(1.0, abs=1e-13)

    def test_residue_of_gamma(self):
        res = oracle.laurent_coefficients(lambda s: oracle.gamma(s), 0.0, 0.25, count=1)
        assert res.residue == pytest.approx(1.0, abs=1e-12)

    def test_gamma_square_taylor(self):
        res = oracle.laurent_coefficients(lambda s: s ** 2 * oracle.gamma(s / 2.0) ** 2,
                                      0.0, 0.25, count=2, lowest=0)
        assert res.coefficient(0) == pytest.approx(4.0, rel=1e-12)
        assert res.coefficient(1) == pytest.approx(-4.0 * oracle.EULER_GAMMA, rel=1e-11)

    def test_near_circle_singularity_flags(self):
        with pytest.raises(ConvergenceError):
            oracle.laurent_coefficients(lambda s: 1.0 / (s - 0.2501), 0.0, 0.25, count=1)

    def test_one_evaluation_on_the_128_point_ring(self):
        calls = []

        def f(s):
            calls.append(np.asarray(s).shape)
            return oracle.gamma(s)

        oracle.laurent_coefficients(f, 0.0, 0.25, count=2)
        assert calls == [(128,)]

    def test_coefficients_are_the_128_sample_means(self):
        s0, radius, lowest, count = 0.5 + 2.0j, 0.3, -1, 4

        def f(s):
            return np.exp(s) / (s - s0)

        theta = 2.0 * math.pi * (np.arange(128) + 0.5) / 128
        ring = radius * np.exp(1j * theta)
        vals = f(s0 + ring)
        expected = [np.mean(vals * ring ** (-m)) for m in range(lowest, lowest + count)]
        res = oracle.laurent_coefficients(f, s0, radius, count=count, lowest=lowest)
        assert res.coeffs.tolist() == expected

    def test_aliasing_into_the_64_point_check(self):
        # a degree-64 term aliases onto c_0 in the 64-point rule on the even
        # samples but onto no extracted power in the 128-point rule
        s0, radius = 0.3, 0.25

        def planted(weight):
            return lambda s: 1.0 / (s - s0) + weight * ((s - s0) / radius) ** 64

        with pytest.raises(ConvergenceError):
            oracle.laurent_coefficients(planted(1e-9), s0, radius, count=2, lowest=-1)
        res = oracle.laurent_coefficients(planted(1e-14), s0, radius, count=2, lowest=-1)
        assert res.residue == pytest.approx(1.0, abs=1e-13)


class TestLaurentCoefficientsMany:
    def test_each_centre_equals_its_own_ring(self):
        # one f call for all centres, and each result bit-equal to its one-centre call
        centres = [0.3 + 1.0j, -0.2, 2.0 - 0.5j]
        calls = []

        def f(s):
            calls.append(np.asarray(s).shape)
            return np.exp(s) / (s - 0.25)

        many = oracle.laurent_coefficients_many(f, centres, 0.2, count=3, lowest=-1)
        assert calls == [(3 * 128,)]
        for s0, res in zip(centres, many):
            one = oracle.laurent_coefficients(f, s0, 0.2, count=3, lowest=-1)
            assert res.coeffs.tolist() == one.coeffs.tolist()
            assert res.lowest == one.lowest == -1

    def test_each_centre_keeps_its_own_verdict(self):
        # the 64- and 128-sample rules about 0 differ by about (0.25/(1/3))^64 = 1e-8
        # (the pole at 1/3), above 1e-11 of that centre's scale but below 1e-11 of
        # the coefficient near 1e6 about 3, which must not loosen it
        f = lambda s: 1.0 / (s - 1.0 / 3.0) + 1e6 * np.exp(5.0 * (s - 3.0))
        oracle.laurent_coefficients_many(f, [3.0], 0.25, count=2, lowest=-1)
        with pytest.raises(ConvergenceError, match="s0 = 0.0 "):
            oracle.laurent_coefficients_many(f, [3.0, 0.0], 0.25, count=2, lowest=-1)


class TestZetaDerivative:
    def test_at_minus_two(self):
        # classical: zeta'(-2) = -zeta(3)/(4 pi^2); finite-difference oracle on Hasse
        fd = oracle.finite_difference(oracle.hasse_zeta, -2.0, h=1e-3)
        assert abs(fd - (-0.030448457058393270)) < 1e-8
        assert oracle.zeta_derivative(-2.0) == pytest.approx(fd, abs=1e-8)

    def test_at_zero(self):
        fd = oracle.finite_difference(oracle.hasse_zeta, 0.0, h=1e-3)
        assert abs(fd - (-0.5 * math.log(2 * math.pi))) < 1e-9
        assert oracle.zeta_derivative(0.0) == pytest.approx(-0.5 * math.log(2 * math.pi), rel=1e-10)

    def test_self_consistency_at_two(self):
        fd = oracle.finite_difference(lambda s: nx.hurwitz_zeta(s, 1.0), 2.0, h=1e-3)
        assert oracle.zeta_derivative(2.0) == pytest.approx(fd, abs=1e-7)

    def test_second_derivative(self):
        fd = oracle.finite_difference(lambda s: nx.hurwitz_zeta(s, 1.0), 3.0, h=1e-4,
                                      order=2)
        assert oracle.zeta_derivative(3.0, order=2) == pytest.approx(fd, abs=1e-6)

    def test_pole_guard(self):
        with pytest.raises(PoleError):
            oracle.zeta_derivative(1.0)


class TestLogPolynomial:
    def test_value_at_one_is_constant_term(self):
        p = nx.LogPolynomial(coeffs=(2.5 + 1j, -3.0, 0.5))
        assert p(1.0) == pytest.approx(2.5 + 1j)

    def test_evaluation(self):
        p = nx.LogPolynomial(coeffs=(1.0, 2.0))
        x = 4.0
        assert p(x) == pytest.approx(1.0 + 2.0 * math.log(4.0))

    def test_residue_helper(self):
        # f(s) = 1/s^2 + 3/s around 0, times exp(-s L): residue = 3 - L
        poly = nx.residue_log_polynomial([3.0, 1.0], scale=1.0)
        x = 2.0
        assert poly(x) == pytest.approx(3.0 - math.log(2.0))


class TestResiduePolynomial:
    """The oracle's residue polynomial, off its sampled ring."""

    def test_order_zero_is_zero_polynomial(self):
        poly = oracle.residue_polynomial(lambda s: 1.0 / s, 0.0, 0, scale=1.0)
        assert poly.coeffs == (0.0 + 0.0j,)
        assert poly(3.0) == 0

    def test_gamma_squared_at_zero(self):
        # Gamma(s)^2 = 1/s^2 - 2 gamma/s + ...: Res[Gamma(s)^2 x^{-s}] = -2 gamma - log x
        poly = oracle.residue_polynomial(lambda s: oracle.gamma(s) ** 2, 0.0, 2, scale=1.0)
        for x in (0.5, 2.0, 7.0):
            assert poly(x) == pytest.approx(-2.0 * oracle.EULER_GAMMA - math.log(x), abs=1e-12)

    def test_pole_outside_circle_raises(self):
        with pytest.raises(ConvergenceError):
            oracle.residue_polynomial(lambda s: 1.0 / (s - 0.2501), 0.0, 1, scale=1.0)


class TestMemo:
    def test_compute_runs_once_per_key(self):
        calls = []

        def compute():
            calls.append(1)
            return len(calls)

        key = ("test_memo_once", object())
        assert nx.memo(key, compute) == 1
        assert nx.memo(key, compute) == 1
        assert len(calls) == 1
        assert nx.memo(("test_memo_once", object()), compute) == 2

    def test_failed_compute_stores_nothing(self):
        calls = []

        def compute():
            calls.append(1)
            raise ConvergenceError("no value")

        key = ("test_memo_raise", object())
        for _ in range(2):
            with pytest.raises(ConvergenceError):
                nx.memo(key, compute)
        assert len(calls) == 2


def test_import_leaves_scipy_unloaded():
    # numpy is the one runtime dependency: importing the package must not
    # pull scipy in (it would dominate the import time)
    src = os.path.dirname(os.path.dirname(os.path.abspath(nx.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, zetatheta; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_checks_leave_numpy_ma_unloaded():
    # numpy's set routines (setdiff1d and its family) import numpy.ma on first
    # use, which a forked benchmark op pays in full: no check may reach them
    src = os.path.dirname(os.path.dirname(os.path.abspath(nx.__file__)))
    data = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
    riemann, zeta5 = (os.path.join(data, name) for name in ("riemann_zeros_30.txt",
                                                            "zeta5_zeros_30.txt"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import contextlib, io, sys\n"
            "from zetatheta import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(argv) for argv in (\n"
            "        ['zeros-scan', '--field', 'sqrt5', '--range=20,25'],\n"
            "        ['theta-check', '--field', 'Q', '--x=0.7'],\n"
            "        ['phi-check', '--field', 'Q', '--z=0.3'],\n"
            f"        ['inverse-check', '--field', 'Q', '--k=2', '--x=2', '--zeros', {riemann!r}],\n"
            f"        ['dgv-check', '--field', 'zeta5', '--x=4', '--zeros', {zeta5!r}],\n"
            f"        ['hlr-check', '--x=1', '--zeros', {riemann!r}])]\n"
            "print(codes, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[0, 0, 0, 0, 0, 0] False"


EMPTY_INPUT_CASES = {
    "hurwitz_zeta_many": lambda F, e: nx.hurwitz_zeta_many(e, 0.5),
    "hurwitz_zeta_many_bank": lambda F, e: nx.hurwitz_zeta_many(e, np.array([0.25, 0.5])),
    "dirichlet_l_many": lambda F, e: nx.dirichlet_l_many(e, F.characters[1]),
    "dedekind_zeta_many": lambda F, e: nx.dedekind_zeta_many(e, F),
    "dedekind_zeta_jet": lambda F, e: nx.dedekind_zeta_jet(F, e, 2).coeffs,
    "xi_many": lambda F, e: cl.xi_many(F, e),
    "z_tilde_many": lambda F, e: st.z_tilde_many(F.r1, F.r2, e),
    "check_theta_many": lambda F, e: th.check_theta_many(F, 1, e),
}


@pytest.mark.parametrize("name", EMPTY_INPUT_CASES)
def test_empty_input_gives_empty_result(name, field_zeta5):
    assert np.size(EMPTY_INPUT_CASES[name](field_zeta5, np.array([], dtype=complex))) == 0
