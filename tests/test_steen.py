import cmath
import math

import numpy as np
import pytest

from zetatheta import numerics as nx
from zetatheta import steen as st
from zetatheta.errors import ConvergenceError, DomainError, SectorError

import _oracles as oracle

REAL_GRID = [0.5, 1.0, 2.0, 5.0]
# the kernels (k r1, k r2) of the builtin fields at k = 1, 2
BUILTIN_KERNELS = [(1, 0), (2, 0), (3, 0), (4, 0), (6, 0), (0, 1), (0, 2), (0, 4)]
# those and two mixed pairs: the gamma powers whose kernel plans the value snapshot records
MARGIN_PAIRS = [(1, 0), (2, 0), (4, 0), (0, 1), (0, 2), (3, 0), (6, 0), (0, 4), (2, 1), (1, 1)]


class TestSteenV:
    def test_exponential_case(self):
        # V(x|0) = e^{-x}
        for x in [1.0, 2.0]:
            assert oracle.steen_v(x, [0.0]) == pytest.approx(math.exp(-x), rel=1e-12)

    def test_bessel_case(self):
        # V(x|a,b) = 2 x^{(a+b)/2} K_{a-b}(2 sqrt(x))
        ref = oracle.bessel_k_integral(0.0, 2.0)
        assert oracle.steen_v(1.0, [0.0, 0.0]) == pytest.approx(2.0 * ref, rel=1e-11)

    def test_half_order_bessel(self):
        v = oracle.steen_v(4.0, [0.5, -0.5])
        ref = 2.0 * oracle.bessel_k_integral(1.0, 4.0)
        assert v == pytest.approx(ref, rel=1e-10)

    def test_sector_error(self):
        with pytest.raises(SectorError):
            oracle.steen_v(cmath.exp(1j * (math.pi / 2 - 0.01)), [0.0])

    def test_abscissa_left_of_zero(self):
        # V(x|5) = x^5 e^{-x}; a line left of 0 is allowed since the pole sits at -5
        for c in [-3.0, -0.5]:
            assert oracle.steen_v(2.0, [5.0], c=c) == pytest.approx(32.0 * math.exp(-2.0), rel=1e-12)

    def test_abscissa_guard(self):
        with pytest.raises(DomainError):
            oracle.steen_v(1.0, [-3.0], c=2.0)


class TestZTilde:
    def test_gaussian_closed_form(self):
        for x in REAL_GRID:
            assert st.z_tilde(1, 0, x) == pytest.approx(2.0 * math.exp(-x * x), rel=1e-11)

    def test_exponential_closed_form(self):
        for x in REAL_GRID:
            assert st.z_tilde(0, 1, x) == pytest.approx(math.exp(-x), rel=1e-11)

    def test_bessel_closed_form(self):
        # against Gauss-Legendre on int e^{-z cosh t} dt, not the sinh^2 trapezoid rule
        # that _kernel_many runs
        for x in REAL_GRID:
            assert st.z_tilde(2, 0, x) == pytest.approx(4.0 * oracle.bessel_k_integral(0, 2.0 * x),
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
                                 ((2, 0), lambda x: 4.0 * oracle.bessel_k_integral(0, 2.0 * x))]:
            d = r1 + 2 * r2
            for sgn in (1.0, -1.0):
                x = 1.2 * cmath.exp(sgn * 1j * (math.pi * d / 4.0 - 0.2))
                v = st.z_tilde(r1, r2, x)
                assert abs(v - closed(x)) < 1e-10 * abs(closed(x))

    def test_path_independence(self):
        ref = 4.0 * oracle.bessel_k(0, 2.0)
        for c in (0.8, 1.2, 2.0):
            assert oracle.kernel_lines(2, 0, [1.0], [c], 1e-12, [0.0])[0] == \
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


def line_route(r1, r2, xs):
    """(Z~, proven error) off the saddle lines alone, whatever route _kernel_many takes.

    The error is the quadrature bound plus the rounding bound.  An entry below the
    underflow cut reads 0 with charge 0, as in _kernel_many.
    """
    xs = np.asarray(xs, dtype=complex)
    values, charge = np.zeros_like(xs), np.zeros(xs.shape)
    live, c, T, h, error = st._line_plan(r1, r2, xs)
    values[live], rounding = st._mellin_barnes(st._kernel_integrand(r1, r2, np.log(xs[live])),
                                               c, T, h, error)
    charge[live] = error + rounding
    return values, charge


class TestProvenQuadrature:
    """A kernel line's charge is a proven bound: alias terms by Poisson summation, window by
    Stirling, and the rounding of log-gamma, of the exponent in log space and of the sum."""

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
            values, charge = line_route(r1, r2, xs)
            ratios = []
            for x, v, ch, ref in zip(xs, values, charge, refs):
                if abs(ref) < 1e-300:             # below the double range: 0
                    assert abs(v) < 1e-300, x
                    continue
                err = abs(mpmath.mpc(v.real, v.imag) - ref)
                assert err <= ch, (x, float(err / abs(ref)), ch)
                ratios.append(float(err / ch))
        print(f"({r1},{r2}) error/charge: median {np.median(ratios):.3f}, max {max(ratios):.3f}")

    @pytest.mark.parametrize("r1,r2", sorted(CLOSED_FORMS))
    def test_bound_holds_at_coarse_steps(self, r1, r2):
        # plans for 1e-2 .. 1e-8 of |Z~|: the error shows, far above the rounding
        mpmath = pytest.importorskip("mpmath")
        xs = self.grid(r1, r2)
        ratios = []
        with mpmath.workdps(30):
            refs = [CLOSED_FORMS[(r1, r2)](mpmath, mpmath.mpc(x.real, x.imag)) for x in xs]
            for target in (1e-2, 1e-4, 1e-6, 1e-8):
                live, c, T, h, bounds = st._line_plan(r1, r2, xs, target)
                sums, _ = nx.line_integral_many(st._kernel_integrand(r1, r2, np.log(xs[live])), c, T, h)
                for i, v, bound in zip(live, sums, bounds):
                    x, ref = xs[i], refs[i]
                    if abs(ref) < 1e-290:
                        continue
                    err = float(abs(mpmath.mpc(v.real, v.imag) - ref))
                    assert err <= bound, (target, x, err, bound)
                    ratios.append(err / bound)
        print(f"({r1},{r2}) error/bound over {len(ratios)} entries: median "
              f"{np.median(ratios):.2f}, max {max(ratios):.2f}")

    def test_plan_margin_far_from_refusal(self):
        # the plan's proven error against |value|, |x| in [0.41, 1e4] and |Arg x| up to 0.1
        # inside the sector edge: at worst 1.73e-13 measured on a 60 x 41 grid, for
        # (6, 0), so the 1e-11 refusal of _mellin_barnes is far from every input
        worst = 0.0
        for r1, r2 in MARGIN_PAIRS:
            edge = min(math.pi * (r1 + 2 * r2) / 4.0 - 0.1, math.pi)
            xs = (np.geomspace(0.41, 1e4, 12)[:, None] * np.exp(1j * np.linspace(-edge, edge, 7))).ravel()
            live, c, T, h, error = st._line_plan(r1, r2, xs)
            values = np.abs(nx.line_integral_many(st._kernel_integrand(r1, r2, np.log(xs[live])), c, T, h)[0])
            assert np.all(error <= 1e-12 * values), (r1, r2)
            worst = max(worst, float(np.max(error / np.maximum(values, 1e-300))))
        print(f"largest proven error / |value|: {worst:.3g}")

    def test_loose_plan_is_refused(self, monkeypatch):
        # a plan for 1e-6 of |Z~| proves no value to 1e-11: ConvergenceError names the line
        line_plan, plans = st._line_plan, []

        def coarse(r1, r2, xs, rtol=None):
            plans.append(line_plan(r1, r2, xs, 1e-6))
            return plans[-1]

        monkeypatch.setattr(st, "_line_plan", coarse)
        with pytest.raises(ConvergenceError) as info:
            st._kernel_many(3, 0, np.array([1.3, 2.0 + 0.5j]), shifted=False)
        assert f"Re(s) = {plans[0][1][0]}" in str(info.value)


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
            assert oracle.kernel_lines(1, 0, [x], [-0.5], 1e-12, [0.0])[0] == pytest.approx(ref, rel=1e-10)

    def test_small_argument_limit(self):
        v = st.z_shifted(1, 0, 1e-3)
        assert abs(v) < 1e-5
        assert v.real == pytest.approx(-2e-6, rel=1e-3)

    def test_route_agreement(self):
        for (r1, r2) in [(1, 0), (2, 0), (0, 1), (1, 1), (3, 0)]:
            for x in (0.5, 1.0, 2.0):
                a = st.z_shifted(r1, r2, x)
                b = oracle.kernel_lines(r1, r2, [x], [-0.5], 1e-12, [0.0])[0]
                assert abs(a - b) < 1e-9 * max(1.0, abs(a))
                if x <= 1.0:
                    c = complex(st.z_small_series_many(r1, r2, [x])[0][0])
                    assert abs(a - c) < 1e-9 * max(1.0, abs(a))

    def test_shift_abscissa_domain(self):
        # a line at or left of -1 has crossed more poles than the one at 0
        with pytest.raises(DomainError):
            oracle.kernel_lines(1, 0, [1.0], [-1.5], 1e-12, [0.0])[0]
        with pytest.raises(DomainError):
            oracle.kernel_lines(1, 0, [1.0], [0.0], 1e-12, [0.0])[0]

    def test_subtract_equals_ztilde_minus_residue(self):
        for (r1, r2) in [(2, 0), (1, 1)]:
            x = 1.3
            z = st.z_shifted(r1, r2, x)
            expected = st.z_tilde(r1, r2, x) - st._r0_polynomial(r1, r2)(x)
            assert abs(z - expected) < 1e-12


def series_bound(r1, r2, x, order):
    """B_M of the ascending series after order M: its Mellin-Barnes remainder on Re s = -M - 1/2.

    |x|^(M+1/2) 2^(r1 + r2/2) pi^(r1+r2-1) kappa / ((kappa^2 - theta^2)
    Gamma(M/2 + 5/4)^r1 Gamma(M + 3/2)^r2), kappa = pi d/4, theta = arg x.
    """
    kappa, theta = math.pi * (r1 + 2 * r2) / 4.0, cmath.phase(x)
    return math.exp((order + 0.5) * math.log(abs(x)) + (r1 + r2 / 2.0) * math.log(2.0)
                    + (r1 + r2 - 1) * math.log(math.pi) - r1 * math.lgamma(order / 2.0 + 1.25)
                    - r2 * math.lgamma(order + 1.5)) * kappa / (kappa ** 2 - theta ** 2)


def series_stop(r1, r2, x):
    """The least M with B_M <= eps |x|^m0, m0 = 1 if r2 else 2 the order of the first term."""
    return next(m for m in range(1, 81)
                if series_bound(r1, r2, x, m) <= 2.0 ** -52 * abs(x) ** (1 if r2 else 2))


class TestKernelMany:
    """The one route rule: a closed form for one gamma factor, K_0 for (2, 0) and (0, 2);
    else the ascending series for |x| <= 0.4 and a saddle-line quadrature beyond."""

    # |x| <= 0.05, 0.05 < |x| <= 0.4 and |x| > 0.4, real and complex inside every sector
    XS = [0.03, 0.02 + 0.01j, 0.2, 0.3 - 0.15j, 0.4, 0.45, 1.3, 2.0 + 0.9j, 0.9 - 0.5j]

    @pytest.mark.parametrize("r1,r2", MARGIN_PAIRS)
    def test_array_equals_one_point_wrappers(self, r1, r2):
        xs = np.array(self.XS)
        tilde = st.z_tilde_many(r1, r2, xs)
        shifted, charge = st.z_shifted_many(r1, r2, xs)
        for i, x in enumerate(self.XS):
            assert tilde[i] == st.z_tilde(r1, r2, x)
            assert shifted[i] == st.z_shifted(r1, r2, x)
            # the proven error per entry, whatever else the array holds
            assert charge[i] == st.z_shifted_many(r1, r2, [x])[1][0]
            assert charge[i] > 0.0
            if r1 + r2 == 1:
                # the closed form's rounding charge, eps (9 |Z| + 1.5 r1 s |w| |e^w|) + 2^-1070
                scale, w = (2.0, -x * x) if r1 else (1.0, -x)
                closed = 2.0 ** -52 * (9.0 * abs(shifted[i]) + 1.5 * r1 * scale * abs(w) * math.exp(w.real))
                assert charge[i] == pytest.approx(closed + 2.0 ** -1070, rel=1e-12), (x, charge[i])
            elif abs(x) <= 0.4 and (r1, r2) not in ((2, 0), (0, 2)):
                # the series' remainder B_M, plus the coefficient errors and rounding of
                # the terms summed, which stay below 1e-12 of the value
                bound = series_bound(r1, r2, x, series_stop(r1, r2, x))
                assert bound <= charge[i] <= bound + 1e-12 * abs(shifted[i]), (x, charge[i], bound)

    def test_sector_checked_before_any_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a quadrature ran before the sector check")
        monkeypatch.setattr(nx, "line_integral_many", refuse)
        xs = [1.3, 2.0, 0.9 * 1j]                # Arg = pi/2 > r1 pi/4 - 0.1 for (1, 0) and (2, 0)
        for r1 in (1, 2):
            with pytest.raises(SectorError):
                st.z_tilde_many(r1, 0, xs)
            with pytest.raises(SectorError):
                st.z_shifted_many(r1, 0, xs)

    @pytest.mark.parametrize("r1,r2", [(2, 1), (0, 4)])
    def test_quadrature_work_is_per_chunk(self, r1, r2, monkeypatch):
        # all quadrature entries share one pass over their nodes: log_gamma_factor runs
        # once per group of entries whose first nodes share a chunk-sized slot, so at
        # most once per chunk of nodes, plus once per entry longer than a chunk
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
            _, _, T, h, _ = st._line_plan(r1, r2, xs)
            big = int(np.sum(2 * np.floor(T / h) + 1 > nx._TRAPEZOID_CHUNK_NODES))
            assert len(calls) <= chunks + big, (n, len(calls), chunks, big)

    @pytest.mark.parametrize("r1,r2,most", [(1, 0, 20000), (2, 1, 6000)])
    def test_one_proven_level_of_nodes(self, r1, r2, most, monkeypatch):
        # the step-halving rule took 93,876 and 11,354 nodes here
        nodes = []
        log_gamma_factor = nx.log_gamma_factor

        def spy(r1, r2, s):
            nodes.append(np.size(s))
            return log_gamma_factor(r1, r2, s)

        monkeypatch.setattr(nx, "log_gamma_factor", spy)
        line_route(r1, r2, np.geomspace(0.45, 30.0, 40) * np.exp(0.3j * np.linspace(-1.0, 1.0, 40)))
        assert sum(nodes) <= most

    def test_domain(self):
        with pytest.raises(DomainError):
            st.z_tilde_many(1, 0, [1.0, 0.0])
        with pytest.raises(DomainError):
            st.z_shifted_many(0, 0, [1.0])


class TestClosedForm:
    """One gamma factor: Z~_{1,0} = 2 e^{-x^2} and Z~_{0,1} = e^{-x} in closed form; two:
    Z~_{2,0} = 4 K_0(2x) and Z~_{0,2} = 2 K_0(2 sqrt x); each with a proven charge."""

    @staticmethod
    def grid(r1, r2, abs_x):
        # |Arg x| up to 0.1 inside the sector edge, where _sector_rate refuses
        edge = math.pi * (r1 + 2 * r2) / 4.0 - 0.1 - 1e-12
        return (np.asarray(abs_x)[:, None] * np.exp(1j * np.linspace(-edge, edge, 9))).ravel()

    @pytest.mark.parametrize("r1,r2", sorted(CLOSED_FORMS))
    def test_general_routes_agree(self, r1, r2):
        # the saddle lines past |x| = 0.4 and the ascending series within it, driven
        # directly, match the closed form within the sum of both charges; a line's
        # charge is its quadrature error plus its rounding in log space
        far = self.grid(r1, r2, np.geomspace(0.45, 20.0, 12))
        lines, line_charge = line_route(r1, r2, far)
        closed, closed_charge = st._kernel_many(r1, r2, far, shifted=False)
        assert np.all(np.abs(lines - closed) <= line_charge + closed_charge)
        near = self.grid(r1, r2, np.geomspace(0.01, 0.4, 8))
        series, series_charge = st.z_small_series_many(r1, r2, near)
        closed, closed_charge = st._kernel_many(r1, r2, near, shifted=True)
        assert np.all(np.abs(series - closed) <= series_charge + closed_charge)

    @pytest.mark.parametrize("r1,r2", [(1, 0), (0, 1)])
    def test_huge_argument(self, r1, r2):
        # past |x| = 1e150, where x*x would overflow (to inf - inf off the real axis),
        # e^w is 0: Z~ = 0 and Z = -s, with no floating-point warning
        xs = np.array([1e200, 1e200 * cmath.exp(0.5j)])
        assert np.all(st.z_tilde_many(r1, r2, xs) == 0.0)
        shifted, charge = st.z_shifted_many(r1, r2, xs)
        assert np.all(shifted == (-2.0 if r1 else -1.0)) and np.all(charge < 1e-14)

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("r1,r2", [(1, 0), (0, 1)])
    def test_charge_bounds_the_error(self, r1, r2, shifted):
        # against 30 digits on |x| in [1e-3, 30]: Z~ = s e^w, Z = s expm1(w)
        mpmath = pytest.importorskip("mpmath")
        xs = self.grid(r1, r2, np.geomspace(1e-3, 30.0, 60))
        values, charge = st._kernel_many(r1, r2, xs, shifted)
        ratios = []
        with mpmath.workdps(30):
            for x, v, ch in zip(xs, values, charge):
                x = mpmath.mpc(x.real, x.imag)
                w = -x * x if r1 else -x
                ref = (2 if r1 else 1) * (mpmath.expm1(w) if shifted else mpmath.exp(w))
                err = float(abs(mpmath.mpc(v.real, v.imag) - ref))
                assert err <= ch, (complex(x), err, ch)
                if err > 0.0:
                    ratios.append(ch / err)
        print(f"({r1},{r2}) shifted={shifted}: median charge/error {np.median(ratios):.1f} "
              f"over {len(ratios)} of {len(xs)} entries")

    @pytest.mark.parametrize("r1,r2", [(2, 0), (0, 2)])
    def test_bessel_huge_argument(self, r1, r2):
        # K_0 underflows long before |x| = 1e200: Z~ = 0 and Z = -Res_0 = s (log(z/2) + gamma),
        # finite, with no floating-point warning
        mpmath = pytest.importorskip("mpmath")
        xs = np.array([1e200, 1e200 * cmath.exp(0.5j)])
        assert np.all(st.z_tilde_many(r1, r2, xs) == 0.0)
        shifted, charge = st.z_shifted_many(r1, r2, xs)
        assert np.all(np.isfinite(shifted)) and np.all(charge < 1e-13 * np.abs(shifted))
        with mpmath.workdps(30):
            for x, v, ch in zip(xs, shifted, charge):
                x = mpmath.mpc(x.real, x.imag)
                ref = 4 * (mpmath.log(x) + mpmath.euler) if r1 else 2 * (mpmath.log(x) / 2 + mpmath.euler)
                assert abs(mpmath.mpc(v.real, v.imag) - ref) <= ch

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("r1,r2", [(2, 0), (0, 2)])
    def test_bessel_charge_bounds_the_error(self, r1, r2, shifted):
        # against 30 digits on |x| in [1e-3, 300], both sides of the series radius |z| = 2:
        # Z~ = s K_0(z), Z = Z~ + s (log(z/2) + gamma), each charge at most 1e-11 of the
        # value, where _mellin_barnes would refuse a line
        mpmath = pytest.importorskip("mpmath")
        xs = self.grid(r1, r2, np.geomspace(1e-3, 300.0, 40))
        values, charge = st._kernel_many(r1, r2, xs, shifted)
        ratios = []
        with mpmath.workdps(30):
            for x, v, ch in zip(xs, values, charge):
                x = mpmath.mpc(x.real, x.imag)
                ref = CLOSED_FORMS[(r1, r2)](mpmath, x)
                if shifted:
                    ref += 4 * (mpmath.log(x) + mpmath.euler) if r1 else 2 * (mpmath.log(x) / 2 + mpmath.euler)
                err = float(abs(mpmath.mpc(v.real, v.imag) - ref))
                assert err <= ch, (complex(x), err, ch)
                assert ch <= 1e-11 * abs(ref) or abs(ref) < 1e-300, (complex(x), ch, float(abs(ref)))
                if err > 0.0:
                    ratios.append(ch / err)
        print(f"({r1},{r2}) shifted={shifted}: median charge/error {np.median(ratios):.1f} "
              f"over {len(ratios)} of {len(xs)} entries")


def _shifted_kernel_mp(mpmath, r1, r2, xs, orders=45):
    """Z_{r1,r2}(x) at the working precision: sum_m x^m P_m(log x) over 45 left poles.

    P_m off the Taylor coefficients of e^p G(-m + e), G = Gamma^r1(s/2) Gamma^r2(s)
    and p its pole order, by mpmath.taylor (good to about 1e-30 absolute); the
    terms past order 45 are below 1e-33 at |x| <= 0.4.
    """
    def regular(e, m, p):
        return e ** p * mpmath.gamma((e - m) / 2) ** r1 * mpmath.gamma(e - m) ** r2

    taylor = []
    for m in range(1, orders + 1):
        p = r2 + (r1 if m % 2 == 0 else 0)
        taylor.append((p, mpmath.taylor(lambda e: regular(e, m, p), 0, p - 1, singular=True) if p else []))
    out = []
    for x in xs:
        x = mpmath.mpc(x.real, x.imag)
        log_x = mpmath.log(x)
        # Res_{e=0} of e^-p (sum_j c_j e^j) x^{m - e}
        out.append(mpmath.fsum(
            x ** m * mpmath.fsum(c[p - 1 - i] * (-log_x) ** i / mpmath.factorial(i) for i in range(p))
            for m, (p, c) in enumerate(taylor, 1)))
    return out


class TestSeriesRemainder:
    """The ascending series near 0: each entry stops on its own proven remainder B_M."""

    @pytest.mark.parametrize("r1,r2", MARGIN_PAIRS)
    def test_charge_bounds_the_error(self, r1, r2):
        # against 30 digits, at |x| in {0.05, 0.2, 0.4} on the real axis and at +-0.95 of
        # the sector edge (or of pi, past which x leaves the principal sheet): the charge
        # is B_M plus the P_m's coefficient errors and rounding
        mpmath = pytest.importorskip("mpmath")
        edge = min(math.pi * (r1 + 2 * r2) / 4.0 - 0.1, math.pi)
        xs = np.array([cmath.rect(a, f * edge) for a in (0.05, 0.2, 0.4) for f in (0.0, 0.95, -0.95)])
        values, charge = st.z_small_series_many(r1, r2, xs)
        with mpmath.workdps(30):
            refs = _shifted_kernel_mp(mpmath, r1, r2, xs)
            for x, v, ch, ref in zip(xs, values, charge, refs):
                err = float(abs(mpmath.mpc(v.real, v.imag) - ref))
                assert err <= ch, (x, err, ch)
                assert ch >= series_bound(r1, r2, x, series_stop(r1, r2, x))

    @pytest.mark.parametrize("r1,r2", [(1, 0), (0, 2), (2, 1)])
    def test_one_read_up_to_the_largest_stop(self, r1, r2, monkeypatch):
        # every order from 1 to the largest stop in one call, and each entry's value
        # is its own sum to its own stop
        reads = []
        left_pole_polynomials = st._left_pole_polynomials

        def spy(r1, r2, m_lo, m_hi):
            reads.append((m_lo, m_hi))
            return left_pole_polynomials(r1, r2, m_lo, m_hi)
        monkeypatch.setattr(st, "_left_pole_polynomials", spy)
        xs = np.array([0.4, 0.01, 0.2 - 0.1j])
        values, _ = st.z_small_series_many(r1, r2, xs)
        stops = [series_stop(r1, r2, x) for x in xs]
        assert reads == [(1, max(stops))]
        for x, v, stop in zip(xs, values, stops):
            reads.clear()
            assert st.z_small_series_many(r1, r2, [x])[0][0] == v
            assert reads == [(1, stop)]

    def test_guard(self):
        # at |x| = 30 no order up to 80 brings B_M of (1, 0) below eps |x|^2
        with pytest.raises(ConvergenceError):
            st.z_small_series_many(1, 0, [30.0])

    def test_no_tolerance_knob(self):
        # the near route stops on its own bound: no kernel function takes a tol
        import inspect
        for name, fn in inspect.getmembers(st, inspect.isfunction):
            if fn.__module__ == st.__name__:
                assert "tol" not in inspect.signature(fn).parameters, name
        assert not hasattr(st, "_LEFT_POLE_BLOCK")


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
                val = abs(st.z_tilde(r1, r2, cmath.rect(abs_y, phi)))
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

    @pytest.mark.parametrize("r1,r2", MARGIN_PAIRS)
    def test_binet_majorant_against_mpmath(self, r1, r2):
        # the majorant reads G(c) as Binet's bound: log Gamma(u) plus a remainder in
        # (0, 1/(12 u)) at u = c/2 and u = c, so c G(c) Y^{-c} <= bound <= that times
        # exp(r1/(6c) + r2/(12c)), with G from 30-digit Gamma
        mpmath = pytest.importorskip("mpmath")
        d = r1 + 2 * r2
        abs_y = np.geomspace(0.5, 1e3, 25)
        compared = 0
        with mpmath.workdps(30):
            for frac in (0.0, 0.45, -0.9):
                arg_y = frac * (math.pi * d / 4.0 - 0.1)
                bounds = st.z_tail_bound_complex_many(r1, r2, abs_y, arg_y)
                ys = abs_y * math.cos(2.0 * abs(arg_y) / d) ** (d / 2.0)
                cs = np.maximum(1.0, (2.0 ** (r1 / 2.0) * ys) ** (2.0 / d))
                for bound, y, c in zip(bounds, ys, cs):
                    c = mpmath.mpf(float(c))
                    exact = c * mpmath.gamma(c / 2) ** r1 * mpmath.gamma(c) ** r2 * mpmath.mpf(float(y)) ** -c
                    if exact < 1e-290:          # below the double range the bound reads 0
                        continue
                    compared += 1
                    assert exact <= bound <= exact * mpmath.exp(r1 / (6 * c) + r2 / (12 * c)), \
                        (float(y), arg_y, float(bound / exact))
        assert compared >= 25

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
                oracle.steen_v(x * x / 4.0 ** r2, params)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))
