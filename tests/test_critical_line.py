import math

import numpy as np
import pytest

from zetatheta import critical_line as cl
from zetatheta import fields as fd
from zetatheta import inverse_theta as iv
from zetatheta import numerics as nx
from zetatheta.errors import LostBracketError, SectorError, ValidationError, ZetaThetaError

import _oracles as oracle


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
        # xi_F alone underflows to 0 here and e^{pi d t/4} overflows: the
        # rescale has to happen inside the gamma prefactor's exponent
        vals = cl._xi_rescaled_many(fd.builtin_field(name), [t])
        assert np.all(np.isfinite(vals)) and np.all(vals != 0.0)


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

    def test_coarse_step_warns(self, field_sqrt5):
        with pytest.warns(UserWarning):
            cl.scan_zeros(field_sqrt5, 20.5, 23.0, 0.65)


class TestRefineZero:
    def test_first_zero(self, field_q):
        g = cl.refine_zero(field_q, (14.1, 14.2))
        assert abs(g - 14.134725141734693) < 1e-8

    def test_second_zero(self, field_q):
        g = cl.refine_zero(field_q, (20.9, 21.1))
        assert abs(g - 21.022039638771555) < 1e-8

    def test_non_bracketing(self, field_q):
        with pytest.raises(LostBracketError):
            cl.refine_zero(field_q, (2.0, 3.0))


class TestRefineZeros:
    def test_lockstep_matches_one_at_a_time(self, field_cubic7):
        brackets = cl.scan_zeros(field_cubic7, 0.0, 30.0, 0.02).brackets
        assert len(brackets) > 10
        batch = cl.refine_zeros(field_cubic7, brackets)
        alone = [cl.refine_zero(field_cubic7, br) for br in brackets]
        assert len(batch) == len(alone)
        assert np.max(np.abs(batch - np.array(alone))) < 1e-12

    def test_lost_bracket_is_named(self, field_q):
        with pytest.raises(LostBracketError, match=r"\[2\.0, 3\.0\]"):
            cl.refine_zeros(field_q, [(14.1, 14.2), (2.0, 3.0), (20.9, 21.1)])

    def test_exact_zeros_end_early(self, field_q, monkeypatch):
        # a stand-in Xi that vanishes exactly at t = 1 hits both early exits:
        # an endpoint that is already a zero, and a midpoint that lands on one
        monkeypatch.setattr(cl, "_xi_rescaled_many",
                            lambda field, ts: np.asarray(ts, dtype=float) - 1.0)
        out = cl.refine_zeros(field_q, [(1.0, 2.0), (0.5, 1.0), (0.0, 2.0), (0.3, 1.7)])
        assert list(out[:3]) == [1.0, 1.0, 1.0]
        assert abs(out[3] - 1.0) < 1e-9

    def test_empty(self, field_q):
        assert len(cl.refine_zeros(field_q, [])) == 0

    def test_bad_bracket(self, field_q):
        with pytest.raises(ValidationError):
            cl.refine_zeros(field_q, [(14.1, 14.2), (3.0, 2.0)])


class TestPhiIdentity:
    @pytest.mark.parametrize("z", [0.0, 0.25, 0.5, -0.3j])
    def test_quadratic(self, field_sqrt5, z):
        rep = cl.phi_identity_check(field_sqrt5, z)
        assert rep.residual < 1e-6
        assert 0 <= rep.budget["quadrature_delta"] <= max(0.1 * 1e-6, 1e-12)

    @pytest.mark.parametrize("z", [0.0, 0.25, 0.5, -0.3j])
    def test_cubic(self, field_cubic7, z):
        rep = cl.phi_identity_check(field_cubic7, z)
        assert rep.residual < 1e-6
        assert 0 <= rep.budget["quadrature_delta"] <= max(0.1 * 1e-6, 1e-12)

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


class TestEmitRoundTrip:
    def test_scan_to_zerolist(self, tmp_path, field_q):
        res = cl.scan_zeros(field_q, 0.0, 30.0, 0.05)
        p = tmp_path / "emitted.txt"
        iv.write_zeros(p, res.refined)
        back = iv.load_zeros(p)
        assert len(back) == len(res.refined)
        for a, b in zip(back.gammas, res.refined):
            assert abs(a - b) < 1e-11
