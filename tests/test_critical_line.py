import math
import os
import warnings

import numpy as np
import pytest

from zetatheta import critical_line as cl
from zetatheta import fields as fd
from zetatheta import inverse_theta as iv
from zetatheta import numerics as nx
from zetatheta.errors import (
    ConvergenceError,
    PoleError,
    RealityViolationError,
    SectorError,
    ValidationError,
    ZetaThetaError,
)

import _oracles as oracle

BUILTIN = ["Q", "sqrt5", "cubic7", "zeta5", "gauss"]
# one width-5 scan window per builtin field at the default step
SCAN_WINDOWS = [("Q", 100.0), ("sqrt5", 40.0), ("gauss", 30.0), ("cubic7", 10.0), ("zeta5", 18.0)]
REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "reference")


class TestXiCompleted:
    def test_value_at_center(self, field_q):
        # xi(1/2) = -(1/8) pi^{-1/4} Gamma(1/4) zeta(1/2), positive
        ref = -0.125 * math.pi ** -0.25 * oracle.gamma(0.25).real \
            * nx.hurwitz_zeta(0.5).real
        assert abs(ref - 0.4971207781883141) < 1e-12
        assert cl.xi_completed(field_q, 0.5) == pytest.approx(ref, rel=1e-11)

    def test_functional_equation_strip(self, field_q, field_sqrt5, field_cubic7):
        rng = np.random.RandomState(17)
        for field in (field_q, field_sqrt5, field_cubic7):
            for _ in range(20):
                s = complex(rng.uniform(-1, 2), rng.uniform(-20, 20))
                a = cl.xi_completed(field, s)
                b = cl.xi_completed(field, 1.0 - s)
                assert abs(a - b) < 1e-9 * (1.0 + abs(a)), (field.label, s)

    def test_series_route_at_two(self, field_sqrt5):
        # xi(2) = s(s-1)/2 * Omega(2) with zeta_F(2) from the coefficient series
        table = fd.ideal_coeffs(field_sqrt5, 4000)
        n = np.arange(1, 4001, dtype=float)
        zeta2 = float(np.sum(table.values[1:] / n ** 2))
        pref = (5.0 / math.pi ** 2) ** 1.0 * oracle.gamma(1.0).real ** 2
        ref = 0.5 * 2.0 * 1.0 * pref * zeta2
        assert cl.xi_completed(field_sqrt5, 2.0).real == pytest.approx(ref, rel=1e-4)

    def test_poles_of_the_gamma_factor(self, field_q):
        # xi_F is entire: at s = 0, -2, .. it is read off the Laurent product of its factors;
        # xi(0) = xi(1) = 1/2 for Q, and s = 1, the pole of zeta_F, stays refused
        assert cl.xi_completed(field_q, 0.0) == pytest.approx(0.5, abs=1e-14)
        with pytest.raises(PoleError):
            cl.xi_completed(field_q, 1.0)

    @pytest.mark.parametrize("name", ["Q", "sqrt5", "cubic7", "zeta5", "gauss"])
    def test_at_the_poles_against_mpmath(self, name):
        # xi_F(s) = xi_F(1 - s), and at 1 - s = 3, 5 no factor has a pole: each value at
        # s = -2, -4 is within its proven error of that one, at 30 digits
        mpmath = pytest.importorskip("mpmath")
        field = fd.builtin_field(name)
        vals, error = cl._xi_scaled_many(field, np.array([-2.0, -4.0]), 0.0)
        with mpmath.workdps(30):
            half_log_q = mpmath.log(mpmath.mpf(field.disc) / (4 ** field.r2 * mpmath.pi ** field.degree)) / 2
            for s, v, e in zip((3, 5), vals, error):
                s = mpmath.mpf(s)
                zeta = mpmath.fprod(mpmath.dirichlet(s, [chi.value(a) for a in range(chi.modulus)])
                                    for chi in field.characters)
                ref = complex(s * (s - 1) / 2 * mpmath.exp(s * half_log_q) * mpmath.gamma(s / 2) ** field.r1
                              * mpmath.gamma(s) ** field.r2 * zeta)
                assert abs(v - ref) <= e, (s, abs(v - ref), e)
                assert abs(v - ref) <= 1e-6 * abs(ref)


class TestBigXi:
    def test_even_and_real(self, field_q, field_sqrt5, field_cubic7):
        for field in (field_q, field_sqrt5, field_cubic7):
            for t in np.linspace(0.1, 24.0, 50):
                v = cl.big_xi(field, float(t))
                assert cl.big_xi(field, -float(t)) == pytest.approx(v, abs=1e-10 * (1 + abs(v)))

    def test_specific_evenness_points(self, field_sqrt5):
        for t in (1.0, 5.0, 14.0):
            assert cl.big_xi(field_sqrt5, t) == pytest.approx(cl.big_xi(field_sqrt5, -t),
                                                              rel=1e-10)

    def test_first_zero(self, field_q):
        assert abs(cl.big_xi(field_q, 14.134725141734693)) < 1e-12

    def test_positive_at_zero(self, field_q):
        assert cl.big_xi(field_q, 0.0) > 0


class TestXiAtHeight:
    @pytest.mark.parametrize("name, t", [("zeta5", 242.0), ("cubic7", 322.0), ("Q", 735.0)])
    def test_rescaled_xi_is_finite_and_nonzero(self, name, t):
        # Gamma((s + a)/2) alone underflows to 0 here and e^{pi t/4} overflows: every
        # factor's Z has to take the rescale inside its prefactor's exponent
        field = fd.builtin_field(name)
        vals, error = cl._hardy_z_many(field, [t])
        assert vals.shape == (field.degree, 1)
        assert np.all(np.isfinite(vals)) and np.all(vals != 0.0) and np.all(np.isfinite(error))


def _xi_rescaled_mpmath(mpmath, field, t):
    """exp(pi d t / 4) Xi_F(t) by mpmath, and the modulus of its factor beside zeta_F."""
    s = mpmath.mpc(0.5, t)
    zeta = mpmath.mpf(1)
    for chi in field.characters:
        zeta *= mpmath.dirichlet(s, [chi.value(a) for a in range(chi.modulus)])
    q = field.disc / (4 ** field.r2 * mpmath.pi ** field.degree)
    outer = mpmath.exp(mpmath.pi * field.degree * t / 4) * s * (s - 1) / 2 \
        * q ** (s / 2) * mpmath.gamma(s / 2) ** field.r1 * mpmath.gamma(s) ** field.r2
    return complex(outer * zeta), float(abs(outer))


class TestRealityCheck:
    @pytest.mark.parametrize("name, t", [("Q", 141.1237074027586), ("Q", 730.42),
                                         ("sqrt5", 111.87), ("gauss", 84.7317),
                                         ("cubic7", 46.09), ("zeta5", 241.19)])
    def test_error_bound_holds_against_mpmath(self, name, t):
        # the bound the reality check reads, against 30 digits, at points
        # where the absolute floor 1e-9 (1 + |Re|) raised or was marginal
        mpmath = pytest.importorskip("mpmath")
        field = fd.builtin_field(name)
        ts = t + np.array([0.0, 1e-3, 0.5])
        vals, bound = cl._xi_scaled_many(field, 0.5 + 1j * ts, math.pi * field.degree * ts / 4.0)
        with mpmath.workdps(30):
            for ti, v, b in zip(ts, vals, bound):
                ref, outer = _xi_rescaled_mpmath(mpmath, field, ti)
                assert abs(v - ref) <= b, (ti, abs(v - ref), b)
                assert b <= 1e-8 * (outer + abs(ref)), (ti, b)

    @pytest.mark.parametrize("name, t", [("Q", 141.1237074027586), ("Q", 730.42),
                                         ("sqrt5", 111.87), ("gauss", 84.7317),
                                         ("cubic7", 46.09), ("zeta5", 241.19)])
    def test_hardy_z_bound_holds_against_mpmath(self, name, t):
        # every factor's Z against 30 digits: |value - Z| within the proven bound, which
        # also holds Z's imaginary part, so eps^{-1/2} is the root that makes Z real
        mpmath = pytest.importorskip("mpmath")
        field = fd.builtin_field(name)
        ts = t + np.array([0.0, 1e-3, 0.5])
        vals, bound = cl._hardy_z_many(field, ts)
        with mpmath.workdps(30):
            for f, row_vals, row_bound in zip(field.factors, vals, bound):
                chi, q, a = f.character, f.conductor, f.shift
                tau = mpmath.fsum(chi.value(b) * mpmath.expjpi(mpmath.mpf(2 * b) / q) for b in range(q))
                eps = tau / (mpmath.mpc(0, 1) ** a * mpmath.sqrt(q))
                for ti, v, b in zip(ts, row_vals, row_bound):
                    s = mpmath.mpc(0.5, ti)
                    outer = mpmath.exp(mpmath.pi * ti / 4) / mpmath.sqrt(eps) \
                        * (q / mpmath.pi) ** ((s + a) / 2) * mpmath.gamma((s + a) / 2)
                    ref = complex(outer * mpmath.dirichlet(s, [chi.value(n) for n in range(q)]))
                    assert abs(v - ref) <= b, (f.conductor, ti, abs(v - ref), b)
                    assert b <= 1e-8 * (float(abs(outer)) + abs(ref)), (f.conductor, ti, b)

    def test_window_that_raised_at_a_trial_point(self, field_q):
        # ITP's trial point t = 141.1237074027586 read Im = 1.002e-9 here,
        # over the absolute floor; the bound there is about 1e-7
        mpmath = pytest.importorskip("mpmath")
        res = cl.scan_zeros(field_q, 139.635, 144.635, 0.02)
        first, last = int(mpmath.nzeros(139.635)) + 1, int(mpmath.nzeros(144.635))
        ref = [float(mpmath.zetazero(n).imag) for n in range(first, last + 1)]
        assert len(res.refined) == len(ref) == 3
        assert np.max(np.abs(np.array(res.refined) - ref)) <= 1e-12

    def test_height_where_the_floor_raised(self, field_q):
        # defect op 12: the absolute floor raised at t = 276.45
        mpmath = pytest.importorskip("mpmath")
        res = cl.scan_zeros(field_q, 276.0, 281.0, 0.02)
        ref = [float(mpmath.zetazero(n).imag)
               for n in range(int(mpmath.nzeros(276.0)) + 1, int(mpmath.nzeros(281.0)) + 1)]
        assert len(res.refined) == len(ref)
        assert np.max(np.abs(np.array(res.refined) - ref)) <= 1e-10

    def test_wrong_phase_is_refused(self, field_q, monkeypatch):
        # a prefactor off by the phase e^{1e-9 i}: the floor 1e-9 (1 + |Re|)
        # let it pass, the error bound does not
        real = nx.log_gamma_factor_jet

        def shifted(r1, r2, centres, sign, count):
            jet, orders = real(r1, r2, centres, sign, count)
            return nx.Jet(jet.coeffs + 1e-9j, jet.err), orders
        monkeypatch.setattr(nx, "log_gamma_factor_jet", shifted)
        with pytest.raises(RealityViolationError):
            cl.scan_zeros(field_q, 20.0, 25.0, 0.02)


class TestScanZeros:
    def test_window_at_height_is_never_silently_empty(self, field_q):
        # zeta has 8 zeros on [730, 740]: a scan may refuse the window with an
        # error, but an empty zero list would be a silent omission
        try:
            res = cl.scan_zeros(field_q, 730.0, 740.0, 0.02)
        except ZetaThetaError:
            return
        assert len(res.refined) >= 8

    def test_rational_field(self, field_q, riemann_zeros_reference):
        res = cl.scan_zeros(field_q, 0.0, 30.0, 0.05)
        assert len(res.refined) == 3
        for mine, ref in zip(res.refined, riemann_zeros_reference.gammas):
            assert abs(mine - ref) < 1e-6

    def test_brackets_really_bracket(self, field_q):
        res = cl.scan_zeros(field_q, 10.0, 22.0, 0.05)
        for (lo, hi), g in zip(res.brackets, res.refined):
            assert lo < g < hi
            assert cl.big_xi(field_q, lo) * cl.big_xi(field_q, hi) < 0

    def test_step_halving_keeps_zeros(self, field_q):
        coarse = cl.scan_zeros(field_q, 0.0, 30.0, 0.05)
        fine = cl.scan_zeros(field_q, 0.0, 30.0, 0.025)
        for g in coarse.refined:
            assert min(abs(g - h) for h in fine.refined) < 1e-8

    def test_quadratic_zeros_kill_zeta_f(self, field_sqrt5):
        res = cl.scan_zeros(field_sqrt5, 0.0, 25.0, 0.02)
        assert len(res.refined) >= 8
        for g in res.refined:
            assert abs(nx.dedekind_zeta(0.5 + 1j * g, field_sqrt5)) < 1e-7

    def test_product_structure(self, field_q, field_sqrt5):
        # zeros of zeta_F = zeta * L(chi_5) are the union of both factors' zeros
        res = cl.scan_zeros(field_sqrt5, 0.0, 25.0, 0.02)
        zeta_zeros = cl.scan_zeros(field_q, 0.0, 25.0, 0.05).refined
        chi = next(c for c in field_sqrt5.characters if not c.is_principal)

        def completed_l(ts):
            # xi_L(s) = (5/pi)^{s/2} Gamma(s/2) L(s, chi); real on the line for
            # this even real character
            out = []
            for t in ts:
                s = 0.5 + 1j * float(t)
                v = (5.0 / math.pi) ** (s / 2.0) * oracle.gamma(s / 2.0) \
                    * nx.dirichlet_l(s, chi)
                out.append(v.real * math.exp(math.pi * float(t) / 4.0))
            return out

        grid = np.arange(0.0, 25.0, 0.02)
        vals = completed_l(grid)
        l_zeros = []
        for i in range(len(grid) - 1):
            if vals[i] * vals[i + 1] < 0:
                lo, hi = grid[i], grid[i + 1]
                for _ in range(40):
                    mid = 0.5 * (lo + hi)
                    vm = completed_l([mid])[0]
                    if vals[i] * vm < 0:
                        hi = mid
                    else:
                        lo = mid
                        vals[i] = vm if vm != 0 else vals[i]
                l_zeros.append(0.5 * (lo + hi))
        union = sorted(list(zeta_zeros) + l_zeros)
        assert len(union) == len(res.refined)
        for a, b in zip(union, res.refined):
            assert abs(a - b) < 1e-6

    def test_empty_range(self, field_q):
        with pytest.raises(ValidationError):
            cl.scan_zeros(field_q, 5.0, 5.0, 0.05)

    def test_bad_step(self, field_q):
        with pytest.raises(ValidationError):
            cl.scan_zeros(field_q, 0.0, 10.0, -0.1)

    def test_coarse_step_warns(self, field_q):
        # zeta's zeros 48.005 and 49.774 are closer than twice the step
        with pytest.warns(UserWarning, match="of factor 0 closer than twice"):
            res = cl.scan_zeros(field_q, 45.0, 52.0, 1.0)
        assert len(res.refined) == 2

    def test_zeros_of_two_factors_do_not_warn(self, field_sqrt5):
        # the window's two zeros belong to zeta and L(s, chi_5): each factor's Z has one
        # sign change, so the coarse step loses neither
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = cl.scan_zeros(field_sqrt5, 20.5, 23.0, 0.65)
        assert len(res.refined) == 2

    def test_grid_sign_within_its_error_is_refused(self, field_cubic7, monkeypatch):
        # a grid value whose |Z| does not exceed its error bound has no proven sign
        real = cl._hardy_z_many

        def inflated(field, ts):
            vals, error = real(field, ts)
            return vals, np.where(np.arange(len(field.factors))[:, None] == 1, 1e30, error)

        monkeypatch.setattr(cl, "_hardy_z_many", inflated)
        with pytest.raises(ConvergenceError, match=r"factor 1's Z at t = 20\.0 "):
            cl.scan_zeros(field_cubic7, 20.0, 25.0, 0.02)

    @pytest.mark.parametrize("name, t_min", SCAN_WINDOWS)
    def test_few_xi_calls_per_scan(self, name, t_min, monkeypatch):
        # one call for the grid and one lockstep step, which closes a bracket on
        # its grid seed and reads its residual off that step; a bracket that
        # does not close at once, or whose ordinate is no evaluated point, may
        # take one more step and one residual call
        calls = []
        real = cl._hardy_z_many

        def counting(field, ts):
            calls.append(np.size(ts))
            return real(field, ts)

        monkeypatch.setattr(cl, "_hardy_z_many", counting)
        res = cl.scan_zeros(fd.builtin_field(name), t_min, t_min + 5.0, 0.02)
        assert len(res.refined) >= 1 and 2 <= len(calls) <= 4

    @pytest.mark.parametrize("name, t_min", SCAN_WINDOWS)
    def test_residuals_are_values_at_the_ordinates(self, name, t_min):
        # a residual read off a lockstep step is the value of its factor's Z at its
        # ordinate, the factor whose Z changes sign there; a fresh one-point call sets
        # its own Hurwitz shift, so the bits may differ, within the fresh value's
        # proven error bound
        field = fd.builtin_field(name)
        res = cl.scan_zeros(field, t_min, t_min + 5.0, 0.02)
        for g, residual in zip(res.refined, res.residuals):
            fresh, bound = (a[:, 0] for a in cl._hardy_z_many(field, [g]))
            ends = cl._hardy_z_many(field, [g - 5e-10, g + 5e-10])[0]
            owner = (fresh == 0.0) | (ends[:, 0] * ends[:, 1] < 0.0)
            assert np.count_nonzero(owner) == 1, (g, fresh, ends)
            assert abs(residual - abs(fresh[owner][0])) <= bound[owner][0], (g, residual, fresh, bound)

    @pytest.mark.parametrize("name, step", [("Q", 0.05), ("zeta5", 0.0025), ("zeta5", 0.02)])
    def test_ordinates_match_the_reference(self, name, step, riemann_zeros_reference):
        # zeta5's 74 zeros on (0, 50] hold the pairs 29.70278/29.70791 and 48.47766/48.47785,
        # each split across two factors whose Z each change sign once between the two, so
        # the default step keeps both
        if name == "Q":
            ref = riemann_zeros_reference.gammas
        else:
            ref = [g for g in iv.load_zeros(os.path.join(REFERENCE, "zeta5.zeros")).gammas if g <= 50.0]
        res = cl.scan_zeros(fd.builtin_field(name), 0.0, ref[-1] + 0.5, step)
        assert len(res.refined) == len(ref)
        assert np.max(np.abs(np.array(res.refined) - ref)) <= 1e-12

    @pytest.mark.parametrize("t_min, t_max, gamma", [(14.125, 19.125, 0), (16.03, 21.03, 1)],
                             ids=["first-cell", "last-cell"])
    def test_zero_in_an_end_cell(self, field_q, riemann_zeros_reference, t_min, t_max, gamma):
        # no grid value past the cell on one side: the seed's degree-9 window is the
        # grid's first or last 10 points
        res = cl.scan_zeros(field_q, t_min, t_max, 0.02)
        assert len(res.refined) == 1
        assert res.brackets[0][0] == t_min or res.brackets[0][1] == t_max
        assert abs(res.refined[0] - riemann_zeros_reference.gammas[gamma]) <= 1e-12

    @pytest.mark.parametrize("name, t_min, t_max, pair", [
        ("zeta5", 22.0, 58.0, (29.70278, 29.70791)), ("zeta5", 22.0, 58.0, (48.47766, 48.47785)),
        ("zeta5", 22.0, 58.0, (51.08775, 51.08999)), ("cubic7", 37.0, 54.0, (46.08677, 46.09610)),
        ("gauss", 76.0, 93.0, (84.73174, 84.73549)), ("sqrt5", 115.0, 130.0, (124.24284, 124.25682))])
    def test_close_pair_of_two_factors_is_kept(self, name, t_min, t_max, pair):
        # pairs the Xi_F grid lost at the default step, each split across two L-factors
        ref = np.array(iv.load_zeros(os.path.join(REFERENCE, f"{name}.zeros")).gammas)
        refined = np.array(cl.scan_zeros(fd.builtin_field(name), t_min, t_max, 0.02).refined)
        for approx in pair:
            gamma = ref[np.argmin(np.abs(ref - approx))]
            assert abs(gamma - approx) < 1e-5
            assert np.min(np.abs(refined - gamma)) <= 1e-12, (approx, gamma)

    def test_close_pair_of_a_dense_factor_is_kept(self):
        # Q(sqrt 1009): zeta's zero 52.97032 and L(s, chi_1009)'s 52.96730
        field = fd.make_field_abelian([fd.principal_character(), fd.kronecker_character(1009)])
        refined = np.array(cl.scan_zeros(field, 50.0, 55.0, 0.02).refined)
        zeta, l_zero = (refined[np.argmin(np.abs(refined - g))] for g in (52.97032, 52.96730))
        assert abs(zeta - 52.97032) < 1e-5 and abs(l_zero - 52.96730) < 1e-5
        ref = np.array(iv.load_zeros(os.path.join(REFERENCE, "Q.zeros")).gammas)
        assert np.min(np.abs(ref - zeta)) <= 1e-12
        ends = cl._hardy_z_many(field, [l_zero - 5e-10, l_zero + 5e-10])[0]
        assert ends[1, 0] * ends[1, 1] < 0.0

    def test_every_zero_of_zeta_up_to_1000(self, field_q):
        ref = iv.load_zeros(os.path.join(REFERENCE, "Q.zeros")).gammas
        ref = np.array([g for g in ref if g <= 1000.0])
        res = cl.scan_zeros(field_q, 0.0, 1000.0, 0.02)
        assert len(ref) == len(res.refined) == 649
        assert np.max(np.abs(np.array(res.refined) - ref)) <= 1e-12
        mpmath = pytest.importorskip("mpmath")
        for n in (1, 300, 649):
            assert abs(res.refined[n - 1] - float(mpmath.zetazero(n).imag)) <= 1e-12


def _lockstep(field, brackets, tol=cl._ORDINATE_TOL):
    """_itp_lockstep from regula falsi seeds, each bracket on the first row of _hardy_z_many that changes sign across it."""
    lo, hi = (np.array([b[i] for b in brackets], dtype=float) for i in (0, 1))
    z_lo, z_hi = cl._hardy_z_many(field, lo)[0], cl._hardy_z_many(field, hi)[0]
    rows = np.argmax(z_lo * z_hi < 0.0, axis=0)
    f_lo, f_hi = z_lo[rows, np.arange(len(lo))], z_hi[rows, np.arange(len(lo))]
    return cl._itp_lockstep(field, rows, lo, hi, f_lo, f_hi, tol,
                            lo + (hi - lo) * (f_lo / (f_lo - f_hi)), (hi - lo) / 8.0)


class TestRefineZero:
    def test_first_zero(self, field_q):
        assert abs(_lockstep(field_q, [(14.1, 14.2)])[0][0] - 14.134725141734693) < 1e-8

    def test_second_zero(self, field_q):
        assert abs(_lockstep(field_q, [(20.9, 21.1)])[0][0] - 21.022039638771555) < 1e-8


class TestRefineZeros:
    def test_lockstep_matches_one_at_a_time(self, field_cubic7):
        # brackets of all three factors, refined together and one at a time
        brackets = cl.scan_zeros(field_cubic7, 0.0, 30.0, 0.02).brackets
        assert len(brackets) > 10
        batch = _lockstep(field_cubic7, brackets)[0]
        alone = [_lockstep(field_cubic7, [br])[0][0] for br in brackets]
        assert len(batch) == len(alone)
        assert np.max(np.abs(batch - np.array(alone))) < 1e-12

    def test_exact_zeros_end_early(self, field_q, monkeypatch):
        # a stand-in Z that vanishes exactly at t = 1: a trial point that lands on
        # the zero ends its bracket there, with residual 0
        monkeypatch.setattr(cl, "_hardy_z_many",
                            lambda field, ts: (np.asarray(ts, dtype=float)[None] - 1.0, None))
        out, value = _lockstep(field_q, [(0.5, 1.5), (0.75, 1.25), (0.0, 2.0), (0.3, 1.9)])
        assert list(out[:3]) == [1.0, 1.0, 1.0] and list(value[:3]) == [0.0, 0.0, 0.0]
        assert abs(out[3] - 1.0) < 1e-9

    @pytest.mark.parametrize("kernel", [
        np.cbrt,
        lambda u: np.tanh(1e7 * u),
        lambda u: np.sign(u) * np.abs(u) ** 0.02,
        lambda u: u ** 3,
        lambda u: np.where(u > 0, 1e6 * u, u),
    ], ids=["cbrt", "tanh", "power-0.02", "cube", "kink"])
    def test_worst_case_on_non_smooth_stand_ins(self, field_q, kernel, monkeypatch):
        # where regula falsi and the companion points gain nothing, ITP still
        # takes at most bisection's step count plus one, with at most 4 points
        # per bracket in each step, evaluates no point twice, and stops within
        # tol/2 of the sign change
        tol = 1e-9
        lo = np.arange(12.0)
        widths = np.array([0.02, 0.7, 0.02, 0.35] * 3)
        fractions = np.array([0.5, 0.01, 0.9, 1e-8, 0.3, 0.999, 0.62, 0.25,
                              1.0 - 1e-9, 0.77, 0.05, 0.4])
        centres = lo + fractions * widths
        seen, calls = [], []

        def stand_in(field, ts):
            ts = np.asarray(ts, dtype=float)
            seen.extend(ts.tolist())
            calls.append(ts)
            return kernel(ts - centres[np.searchsorted(lo, ts, side="right") - 1])[None], None

        monkeypatch.setattr(cl, "_hardy_z_many", stand_in)
        out = _lockstep(field_q, list(zip(lo, lo + widths)), tol)[0]
        assert np.all(np.abs(out - centres) <= tol / 2)
        assert len(set(seen)) == len(seen)
        # the points strictly inside each bracket, per Z call
        inside = np.array([[np.count_nonzero((ts > a) & (ts < a + w)) for a, w in zip(lo, widths)]
                           for ts in calls])
        assert np.all(inside <= 4)
        steps = np.count_nonzero(inside, axis=0)
        assert np.all(steps <= np.ceil(np.log2(widths / (tol / 2))) + 1)

    def test_empty(self, field_q):
        out, value = _lockstep(field_q, [])
        assert len(out) == 0 and len(value) == 0


def strip_points(field):
    """z = 0.3 and two points at 0.9 of the strip |Im z| < pi d/4 - 0.2, one with Re z = 0.6."""
    strip = math.pi * field.degree / 4.0 - 0.2
    return [0.3, complex(0.6, 0.9 * strip), complex(0.0, -0.9 * strip)]


class TestPhiIdentity:
    @pytest.mark.parametrize("z", [0.0, 0.25, 0.5, -0.3j])
    def test_quadratic(self, field_sqrt5, z):
        rep = cl.phi_identity_check(field_sqrt5, z)
        assert rep.residual < 1e-6
        assert rep.residual <= sum(rep.budget.values())

    @pytest.mark.parametrize("z", [0.0, 0.25, 0.5, -0.3j])
    def test_cubic(self, field_cubic7, z):
        rep = cl.phi_identity_check(field_cubic7, z)
        assert rep.residual < 1e-6
        assert rep.residual <= sum(rep.budget.values())

    @pytest.mark.parametrize("name", ["cubic7", "zeta5"])
    @pytest.mark.parametrize("frac", [0.75, -0.75, 0.9, -0.9])
    @pytest.mark.parametrize("re", [0.0, 0.6])
    def test_near_strip_edge(self, name, frac, re):
        # |Im z| > pi/2 puts x = e^{-2z} past the principal sheet; W is read on log x = -2z
        field = fd.builtin_field(name)
        z = complex(re, frac * (math.pi * field.degree / 4.0 - 0.2))
        assert cl.phi_identity_check(field, z).residual < 1e-6

    def test_sector_guard(self, field_sqrt5):
        with pytest.raises(SectorError):
            cl.phi_identity_check(field_sqrt5, 2.0j)

    # Xi nodes per call of the step-halving rule this plan replaced, which stopped at
    # h = 1/16 on the window (log(1/tol) + 25)/(pi d/4 - |Im z|): at z = 0.3 and at
    # z = 0.9i (pi d/4 - 0.2)
    HALVING_NODES = {"Q": (791, 2403), "sqrt5": (396, 1843), "gauss": (396, 1843),
                     "cubic7": (264, 1495), "zeta5": (198, 1257)}

    @pytest.mark.parametrize("name", sorted(HALVING_NODES))
    def test_no_more_nodes_than_halving(self, name, monkeypatch):
        field = fd.builtin_field(name)
        nodes = []
        xi_many = cl.xi_many

        def spy(field, s):
            nodes.append(np.size(s))
            return xi_many(field, s)

        monkeypatch.setattr(cl, "xi_many", spy)
        strip = math.pi * field.degree / 4.0 - 0.2
        for z, most in zip((0.3, 0.9j * strip), self.HALVING_NODES[name]):
            nodes.clear()
            cl.phi_identity_check(field, z)
            assert sum(nodes) <= most, (z, sum(nodes))

    @pytest.mark.parametrize("name", BUILTIN)
    def test_bound_holds_at_coarse_targets(self, name):
        # plans for 1e-3 .. 1e-9: the quadrature error shows, far above the rhs's own
        # budget, and stays within the proven bound
        field = fd.builtin_field(name)
        ratios = []
        for z in strip_points(field):
            rep = cl.phi_identity_check(field, z)
            rhs_budget = rep.budget["series_tail"] + rep.budget["kernel_quadrature"]
            for target in (1e-3, 1e-5, 1e-7, 1e-9):
                n, h, bound = cl._phi_plan(field, complex(z), target)
                assert bound <= target
                t = h * np.arange(n + 1)
                vals = cl.xi_many(field, 0.5 + 1j * t) / (t * t + 0.25) * np.cos(z * t)
                vals[0] *= 0.5
                err = abs(h * np.sum(vals) - rep.rhs)
                assert err <= bound + rhs_budget, (z, target, err, bound, rhs_budget)
                ratios.append(err / (bound + rhs_budget))
        print(f"{name} error/bound over {len(ratios)} plans: median {np.median(ratios):.2e}, "
              f"max {max(ratios):.2e}")

    @pytest.mark.parametrize("name", BUILTIN)
    def test_omega_bound_holds(self, name):
        # Stirling times Rademacher's bound, against Omega_F on the lines the plan reads:
        # at points, and over the alias line's cells
        field = fd.builtin_field(name)
        for sigma in (0.5, 0.75, 0.5 + cl._PHI_STRIP):
            u = np.linspace(0.0, 200.0, 541)
            omega = np.abs(oracle.omega_many(field, sigma + 1j * u))
            assert np.all(np.log(omega) <= cl._log_omega_bound(field, sigma, u, u))
        sigma, lo = 0.5 + cl._PHI_STRIP, np.arange(0.0, 20.0, cl._PHI_CELL)
        for frac in (0.0, 0.5, 1.0):
            u = lo + frac * cl._PHI_CELL
            omega = np.abs(oracle.omega_many(field, sigma + 1j * u))
            assert np.all(np.log(omega) <= cl._log_omega_bound(field, sigma, lo, lo + cl._PHI_CELL))


class TestEmitRoundTrip:
    def test_scan_to_zerolist(self, tmp_path, field_q):
        res = cl.scan_zeros(field_q, 0.0, 30.0, 0.05)
        p = tmp_path / "emitted.txt"
        iv.write_zeros(p, res.refined)
        back = iv.load_zeros(p)
        assert len(back) == len(res.refined)
        assert back.gammas == res.refined
