import cmath
import math

import numpy as np
import pytest

from zetatheta import numerics as nx
from zetatheta import steen as st
from zetatheta.errors import DomainError, SectorError

import _oracles as oracle

REAL_GRID = [0.5, 1.0, 2.0, 5.0]
# the kernels (k r1, k r2) of the builtin fields at k = 1, 2
BUILTIN_KERNELS = [(1, 0), (2, 0), (3, 0), (4, 0), (6, 0), (0, 1), (0, 2), (0, 4)]


class TestSteenV:
    def test_exponential_case(self):
        # V(x|0) = e^{-x}
        for x in [1.0, 2.0]:
            assert st.steen_v(x, [0.0]) == pytest.approx(math.exp(-x), rel=1e-12)

    def test_bessel_case(self):
        # V(x|a,b) = 2 x^{(a+b)/2} K_{a-b}(2 sqrt(x))
        ref = oracle.bessel_k_integral(0.0, 2.0)
        assert st.steen_v(1.0, [0.0, 0.0]) == pytest.approx(2.0 * ref, rel=1e-11)

    def test_half_order_bessel(self):
        v = st.steen_v(4.0, [0.5, -0.5])
        ref = 2.0 * oracle.bessel_k_integral(1.0, 4.0)
        assert v == pytest.approx(ref, rel=1e-10)

    def test_sector_error(self):
        with pytest.raises(SectorError):
            st.steen_v(cmath.exp(1j * (math.pi / 2 - 0.01)), [0.0])

    def test_abscissa_left_of_zero(self):
        # V(x|5) = x^5 e^{-x}; a line left of 0 is allowed since the pole sits at -5
        for c in [-3.0, -0.5]:
            assert st.steen_v(2.0, [5.0], c=c) == pytest.approx(32.0 * math.exp(-2.0), rel=1e-12)

    def test_abscissa_guard(self):
        with pytest.raises(DomainError):
            st.steen_v(1.0, [-3.0], c=2.0)


class TestZTilde:
    def test_gaussian_closed_form(self):
        for x in REAL_GRID:
            assert st.z_tilde(1, 0, x) == pytest.approx(2.0 * math.exp(-x * x), rel=1e-11)

    def test_exponential_closed_form(self):
        for x in REAL_GRID:
            assert st.z_tilde(0, 1, x) == pytest.approx(math.exp(-x), rel=1e-11)

    def test_bessel_closed_form(self):
        for x in REAL_GRID:
            assert st.z_tilde(2, 0, x) == pytest.approx(4.0 * oracle.bessel_k(0, 2.0 * x),
                                                        rel=1e-11)

    @pytest.mark.parametrize("r1,r2", [(1, 0), (2, 0), (0, 1), (0, 2)])
    def test_closed_forms_across_the_sector(self, r1, r2):
        # 1e-11 relative, where a quadrature entry's proven error would halve it,
        # out to |x| = 100 and 0.9 of the sector; below the normal double range
        # the value must be too
        mpmath = pytest.importorskip("mpmath")
        closed = {(1, 0): lambda x: 2 * mpmath.exp(-x * x),
                  (2, 0): lambda x: 4 * mpmath.besselk(0, 2 * x),
                  (0, 1): lambda x: mpmath.exp(-x),
                  (0, 2): lambda x: 2 * mpmath.besselk(0, 2 * mpmath.sqrt(x))}[(r1, r2)]
        d = r1 + 2 * r2
        with mpmath.workdps(30):
            for frac in (0.0, 0.5, -0.5, 0.9, -0.9):
                for abs_x in np.geomspace(0.45, 100.0, 15):
                    x = cmath.rect(abs_x, frac * (math.pi * d / 4.0 - 0.1))
                    v = st.z_tilde(r1, r2, x)
                    ref = closed(mpmath.mpc(x.real, x.imag))
                    if abs(ref) < 1e-300:
                        assert abs(v) < 1e-300, (abs_x, frac)
                    else:
                        assert abs(mpmath.mpc(v.real, v.imag) - ref) <= 1e-11 * abs(ref), \
                            (abs_x, frac)

    def test_complex_rays(self):
        # arguments on Arg x = +-(pi d / 4 - 0.2)
        for (r1, r2), closed in [((1, 0), lambda x: 2.0 * cmath.exp(-x * x)),
                                 ((0, 1), lambda x: cmath.exp(-x)),
                                 ((2, 0), lambda x: 4.0 * oracle.bessel_k(0, 2.0 * x))]:
            d = r1 + 2 * r2
            for sgn in (1.0, -1.0):
                x = 1.2 * cmath.exp(sgn * 1j * (math.pi * d / 4.0 - 0.2))
                v = st.z_tilde(r1, r2, x)
                assert abs(v - closed(x)) < 1e-10 * abs(closed(x))

    def test_path_independence(self):
        ref = 4.0 * oracle.bessel_k(0, 2.0)
        for c in (0.8, 1.2, 2.0):
            assert st._kernel_lines(2, 0, [1.0], [c], 1e-12, [0.0])[0] == \
                pytest.approx(ref, rel=1e-10)

    def test_sector_error(self):
        with pytest.raises(SectorError):
            st.z_tilde(1, 0, 1j)          # Arg = pi/2 > pi/4
        with pytest.raises(SectorError):
            st.z_tilde(0, 1, cmath.exp(1j * (math.pi / 2 - 0.01)))

    def test_underflow_is_exact_zero(self):
        assert st.z_tilde(1, 0, 50.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            st.z_tilde(1, 0, 0.0)


CLOSED_FORMS = {(1, 0): lambda mp, x: 2 * mp.exp(-x * x),
                (2, 0): lambda mp, x: 4 * mp.besselk(0, 2 * x),
                (0, 1): lambda mp, x: mp.exp(-x),
                (0, 2): lambda mp, x: 2 * mp.besselk(0, 2 * mp.sqrt(x))}


class TestProvenQuadrature:
    """A kernel line's charge is a proven bound: alias terms by Poisson summation, window by Stirling."""

    # the last digits of a line's value rest on log-gamma and exp in log space, not
    # on the quadrature: 1.25e-12 relative where the integrand's modulus on the
    # line sums to ~700 |Z~| ((0, 2) at |x| = 0.45, 0.9 of the sector)
    ROUNDING = 2e-12

    @staticmethod
    def grid(r1, r2):
        # TestZTilde's grid: 0, +-0.5 and +-0.9 of the sector, |x| in [0.45, 100]
        d = r1 + 2 * r2
        return np.array([cmath.rect(a, f * (math.pi * d / 4.0 - 0.1))
                         for f in (0.0, 0.5, -0.5, 0.9, -0.9) for a in np.geomspace(0.45, 100.0, 15)])

    @pytest.mark.parametrize("r1,r2", sorted(CLOSED_FORMS))
    def test_charge_bounds_the_error(self, r1, r2):
        mpmath = pytest.importorskip("mpmath")
        xs = self.grid(r1, r2)
        with mpmath.workdps(30):
            refs = [CLOSED_FORMS[(r1, r2)](mpmath, mpmath.mpc(x.real, x.imag)) for x in xs]
            values, charge = st._kernel_many(r1, r2, xs, 1e-12, shifted=False)
            for x, v, ch, ref in zip(xs, values, charge, refs):
                if abs(ref) < 1e-300:             # below the double range: 0
                    assert abs(v) < 1e-300, x
                    continue
                err = abs(mpmath.mpc(v.real, v.imag) - ref)
                assert err <= ch + self.ROUNDING * abs(ref), (x, float(err / abs(ref)), ch)

    @pytest.mark.parametrize("r1,r2", sorted(CLOSED_FORMS))
    def test_bound_holds_at_coarse_steps(self, r1, r2):
        # plans for 1e-2 .. 1e-8 of |Z~|: the error shows, far above the rounding
        mpmath = pytest.importorskip("mpmath")
        xs = self.grid(r1, r2)
        ratios = []
        with mpmath.workdps(30):
            refs = [CLOSED_FORMS[(r1, r2)](mpmath, mpmath.mpc(x.real, x.imag)) for x in xs]
            for target in (1e-2, 1e-4, 1e-6, 1e-8):
                live, c, T, h, error = st._line_plan(r1, r2, xs, target)
                sums = nx.line_integral_many(st._kernel_integrand(r1, r2, np.log(xs[live])), c, T, h,
                                             error=lambda entry, step: np.zeros(len(entry)))[0]
                bounds = error(np.arange(len(live)), h)
                for i, v, bound in zip(live, sums, bounds):
                    x, ref = xs[i], refs[i]
                    if abs(ref) < 1e-290:
                        continue
                    err = float(abs(mpmath.mpc(v.real, v.imag) - ref))
                    assert err <= bound, (target, x, err, bound)
                    ratios.append(err / bound)
        print(f"({r1},{r2}) error/bound over {len(ratios)} entries: median "
              f"{np.median(ratios):.2f}, max {max(ratios):.2f}")


class TestR0Gamma:
    def test_single_gamma(self):
        # Gamma(s/2) ~ 2/s at 0, so the residue is the constant 2
        assert st._r0_polynomial(1, 0)(2.7) == pytest.approx(2.0, rel=1e-12)
        assert st._r0_polynomial(1, 0)(0.3 + 1j) == pytest.approx(2.0, rel=1e-11)

    def test_double_gamma_at_one(self):
        # s^2 Gamma^2(s/2) = 4 - 4 gamma s + ..., residue at x = 1 is -4 gamma
        assert st._r0_polynomial(2, 0)(1.0) == pytest.approx(-4.0 * oracle.EULER_GAMMA, rel=1e-11)

    def test_degree(self):
        assert st._r0_polynomial(1, 0).degree == 0
        assert st._r0_polynomial(3, 0).degree == 2


class TestZShifted:
    def test_rational_closed_form(self):
        for x in REAL_GRID:
            ref = 2.0 * (math.exp(-x * x) - 1.0)
            assert st.z_shifted(1, 0, x) == pytest.approx(ref, rel=1e-10)
            assert st._kernel_lines(1, 0, [x], [-0.5], 1e-12, [0.0])[0] == pytest.approx(ref, rel=1e-10)

    def test_small_argument_limit(self):
        v = st.z_shifted(1, 0, 1e-3)
        assert abs(v) < 1e-5
        assert v.real == pytest.approx(-2e-6, rel=1e-3)

    def test_route_agreement(self):
        for (r1, r2) in [(1, 0), (2, 0), (0, 1), (1, 1), (3, 0)]:
            for x in (0.5, 1.0, 2.0):
                a = st.z_shifted(r1, r2, x)
                b = st._kernel_lines(r1, r2, [x], [-0.5], 1e-12, [0.0])[0]
                assert abs(a - b) < 1e-9 * max(1.0, abs(a))
                if x <= 1.0:
                    c = complex(st.z_small_series_many(r1, r2, [x])[0])
                    assert abs(a - c) < 1e-9 * max(1.0, abs(a))

    def test_shift_abscissa_domain(self):
        # a line at or left of -1 has crossed more poles than the one at 0
        with pytest.raises(DomainError):
            st._kernel_lines(1, 0, [1.0], [-1.5], 1e-12, [0.0])[0]
        with pytest.raises(DomainError):
            st._kernel_lines(1, 0, [1.0], [0.0], 1e-12, [0.0])[0]

    def test_subtract_equals_ztilde_minus_residue(self):
        for (r1, r2) in [(2, 0), (1, 1)]:
            x = 1.3
            z = st.z_shifted(r1, r2, x)
            expected = st.z_tilde(r1, r2, x) - st._r0_polynomial(r1, r2)(x)
            assert abs(z - expected) < 1e-12


class TestKernelMany:
    """The one route rule: ascending series for |x| <= 0.4, a saddle-line quadrature beyond."""

    # |x| <= 0.05, 0.05 < |x| <= 0.4 and |x| > 0.4, real and complex inside every sector
    XS = [0.03, 0.02 + 0.01j, 0.2, 0.3 - 0.15j, 0.4, 0.45, 1.3, 2.0 + 0.9j, 0.9 - 0.5j]

    @pytest.mark.parametrize("r1,r2", [(1, 0), (2, 0), (0, 1), (1, 1)])
    def test_array_equals_one_point_wrappers(self, r1, r2):
        xs = np.array(self.XS)
        tilde = st.z_tilde_many(r1, r2, xs)
        shifted, charge = st.z_shifted_many(r1, r2, xs)
        for i, x in enumerate(self.XS):
            assert tilde[i] == st.z_tilde(r1, r2, x)
            assert shifted[i] == st.z_shifted(r1, r2, x)
            # the proven quadrature error: 0 on the series, per entry on a line
            assert charge[i] == st.z_shifted_many(r1, r2, [x])[1][0]
            assert (charge[i] == 0.0) == (abs(x) <= 0.4)

    def test_sector_checked_before_any_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a quadrature ran before the sector check")
        monkeypatch.setattr(nx, "line_integral_many", refuse)
        xs = [1.3, 2.0, 0.9 * 1j]                # Arg = pi/2 > pi/4 for (1, 0)
        with pytest.raises(SectorError):
            st.z_tilde_many(1, 0, xs)
        with pytest.raises(SectorError):
            st.z_shifted_many(1, 0, xs)

    @pytest.mark.parametrize("r1,r2", [(2, 1), (0, 4)])
    def test_quadrature_work_is_per_chunk(self, r1, r2, monkeypatch):
        # all quadrature entries share each step halving: log_gamma_factor runs
        # once per chunk of nodes and level, not once or twice per entry
        calls = []
        log_gamma_factor = nx.log_gamma_factor

        def spy(r1, r2, s):
            calls.append(np.size(s))
            return log_gamma_factor(r1, r2, s)

        monkeypatch.setattr(nx, "log_gamma_factor", spy)
        for n in (40, 80):
            xs = np.geomspace(0.45, 30.0, n) * np.exp(0.3j * np.linspace(-1.0, 1.0, n))
            calls.clear()
            st.z_tilde_many(r1, r2, xs)
            chunks = math.ceil(sum(calls) / nx._TRAPEZOID_CHUNK_NODES)
            assert len(calls) <= 5 * chunks, (n, len(calls), chunks)

    @pytest.mark.parametrize("r1,r2,most", [(1, 0, 20000), (2, 1, 6000)])
    def test_one_proven_level_of_nodes(self, r1, r2, most, monkeypatch):
        # the step-halving rule took 93,876 and 11,354 nodes here
        nodes = []
        log_gamma_factor = nx.log_gamma_factor

        def spy(r1, r2, s):
            nodes.append(np.size(s))
            return log_gamma_factor(r1, r2, s)

        monkeypatch.setattr(nx, "log_gamma_factor", spy)
        st.z_tilde_many(r1, r2, np.geomspace(0.45, 30.0, 40) * np.exp(0.3j * np.linspace(-1.0, 1.0, 40)))
        assert sum(nodes) <= most

    def test_domain(self):
        with pytest.raises(DomainError):
            st.z_tilde_many(1, 0, [1.0, 0.0])
        with pytest.raises(DomainError):
            st.z_shifted_many(0, 0, [1.0])


class TestTailBound:
    @pytest.mark.parametrize("r1,r2", [(1, 0), (0, 1), (2, 0), (3, 0), (1, 1), (2, 1)])
    def test_majorizes_kernel(self, r1, r2):
        for y in np.geomspace(1.0, 50.0, 50):
            bound = st.z_tail_bound(r1, r2, float(y))
            val = abs(st.z_tilde(r1, r2, float(y)))
            assert val <= bound

    def test_gaussian_shape(self):
        # (1,0): bound must dominate 2 e^{-y^2}
        y = 3.0
        assert st.z_tail_bound(1, 0, y) >= 2.0 * math.exp(-y * y)

    def test_bessel_comparison(self):
        assert st.z_tail_bound(2, 0, 10.0) >= abs(4.0 * oracle.bessel_k(0, 20.0))

    def test_domain(self):
        with pytest.raises(DomainError):
            st.z_tail_bound(1, 0, 0.0)

    @pytest.mark.parametrize("r1,r2", BUILTIN_KERNELS + [(1, 1), (2, 1)])
    def test_majorizes_kernel_complex(self, r1, r2):
        d = r1 + 2 * r2
        for frac in (0.0, 0.5, -0.5, 0.9, -0.9):
            phi = frac * (math.pi * d / 4.0 - 0.15)
            for abs_y in np.geomspace(1.0, 40.0, 12):
                bound = st.z_tail_bound_complex_many(r1, r2, [abs_y], phi)[0]
                val = abs(st.z_tilde(r1, r2, cmath.rect(abs_y, phi), tol=1e-14))
                assert val <= bound, (abs_y, phi)

    @pytest.mark.parametrize("r1,r2", BUILTIN_KERNELS)
    def test_complex_bound_is_real_bound_at_contracted_modulus(self, r1, r2):
        # step two of the proof: |Z~(y)| <= Z~(|y| cos^{d/2}(2 arg y / d))
        d = r1 + 2 * r2
        for phi in (0.3, -0.7, 0.9 * (math.pi * d / 4.0)):
            for abs_y in (0.6, 3.0, 17.0):
                bound = st.z_tail_bound_complex_many(r1, r2, [abs_y], phi)[0]
                real = st.z_tail_bound(r1, r2, abs_y * math.cos(2.0 * phi / d) ** (d / 2.0))
                assert bound == pytest.approx(real, rel=1e-14, abs=0.0)

    def test_gaussian_ratio_is_stirling_sized(self):
        # step one for (1, 0): c G(c) Y^{-c} over 2 e^{-y^2} is about sqrt(2 pi) y
        for y in np.linspace(0.5, 26.0, 60):
            ratio = st.z_tail_bound(1, 0, float(y)) / (2.0 * math.exp(-y * y))
            assert 1.0 <= ratio <= 3.0 * max(1.0, y), y


class TestDuplicationRemark:
    def test_ztilde_as_steen(self):
        # Z~_{r1,r2}(x) = 2 / (2^{r2} pi^{r2/2}) V(x^2/4^{r2} | 0_{r1+r2}, (1/2)_{r2})
        for (r1, r2) in [(1, 1), (0, 1), (2, 1)]:
            x = 1.3
            lhs = st.z_tilde(r1, r2, x)
            params = [0.0] * (r1 + r2) + [0.5] * r2
            rhs = 2.0 / (2.0 ** r2 * math.pi ** (r2 / 2.0)) * \
                st.steen_v(x * x / 4.0 ** r2, params)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))
