import cmath
import math

import numpy as np
import pytest

from zetatheta import cli
from zetatheta import critical_line as cl
from zetatheta import fields as fd
from zetatheta import numerics as nx
from zetatheta import steen as st
from zetatheta import theta as th
from zetatheta.errors import DomainError, SectorError

import _oracles as oracle

BUILTIN = ["Q", "sqrt5", "cubic7", "zeta5", "gauss"]


class TestDirectOracles:
    def test_jacobi_value(self):
        # W_1(1) = theta_3(e^{-pi}) = pi^{1/4} / Gamma(3/4)
        ref = oracle.jacobi_theta_w1(1.0)
        assert abs(ref - 1.0864348112133080) < 1e-13
        assert ref == pytest.approx(math.pi ** 0.25 / math.gamma(0.75), abs=1e-13)

    def test_jacobi_classical_relation(self):
        # W1(1/x) = sqrt(x) W1(x) straight from the series
        x = 2.0
        lhs = oracle.jacobi_theta_w1(1.0 / x)
        rhs = math.sqrt(x) * oracle.jacobi_theta_w1(x)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    def test_jacobi_domain(self):
        with pytest.raises(DomainError):
            oracle.jacobi_theta_w1(-1.0)

    def test_koshliakov_relation(self):
        x = 2.0
        lhs = oracle.koshliakov_theta_w2(1.0 / x)
        rhs = math.sqrt(x) * oracle.koshliakov_theta_w2(x)
        assert abs(lhs - rhs) < 1e-9 * abs(rhs)

    def test_koshliakov_domain(self):
        with pytest.raises(DomainError):
            oracle.koshliakov_theta_w2(-2.0)


class TestSSeries:
    def test_rational_field_gaussians(self, field_q):
        # S_{Q,1}(1) = 2 sum e^{-pi n^2}; 5 terms suffice at 1e-15
        ref = 2.0 * sum(math.exp(-math.pi * n * n) for n in range(1, 6))
        assert abs(ref - 0.0864348112133080) < 1e-14
        assert th.s_series(field_q, 1, 1.0) == pytest.approx(ref, abs=1e-12)

    def test_rearrangement_consistency(self, field_q):
        # S(x) = W1(x) - 1 + R_0-free part: W = S - R_0 with R_0 = -1 for F=Q
        x = 1.0
        s_val = th.s_series(field_q, 1, x)
        assert abs((oracle.jacobi_theta_w1(x) - 1.0) - s_val) < 1e-12

    def test_quadratic_bessel_form(self, field_sqrt5):
        # real quadratic corollary: S(x) = 4 sum a(n) K_0(2 pi n sqrt(x)/sqrt(5))
        x = 1.0
        table = fd.ideal_coeffs(field_sqrt5, 60)
        ref = 4.0 * sum(table[n] * oracle.bessel_k(0, 2 * math.pi * n / math.sqrt(5))
                        for n in range(1, 60))
        assert th.s_series(field_sqrt5, 1, x) == pytest.approx(ref, abs=1e-11)

    def test_sector_error(self, field_q):
        with pytest.raises(SectorError):
            th.s_series(field_q, 1, cmath.exp(1j * (math.pi / 2 - 0.1)))

    def test_coefficient_table_exhaustion(self, field_q):
        from zetatheta.errors import CoefficientTableExhausted
        with pytest.raises(CoefficientTableExhausted):
            th.s_series(field_q, 1, 1e-13, tol=1e-10)


class TestSeriesPlan:
    """The truncation certificate of s_series: kernel majorant times coefficient majorant."""

    @pytest.mark.parametrize("name", BUILTIN)
    def test_plan_needs_no_quadrature(self, name, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the tail certificate ran a quadrature")
        monkeypatch.setattr(nx, "_MEMO", {})
        monkeypatch.setattr(st, "z_tilde", refuse)
        monkeypatch.setattr(st, "_kernel_many", refuse)
        monkeypatch.setattr(nx, "line_integral_many", refuse)
        field = fd.builtin_field(name)
        for k in (1, 2):
            for x in (0.3, 2.0, 0.7 + 0.3j):
                n_stop, _, tail = th._series_plan(field, k, cmath.log(x), 1e-10)
                assert n_stop >= 1 and tail < 5e-11
        assert not [key for key in nx._MEMO if key[0] == "z_tail_constant"]

    def test_one_kernel_array_call_per_series(self, field_sqrt5, monkeypatch):
        calls = []
        kernel_many = st._kernel_many

        def spy(r1, r2, xs, shifted):
            calls.append((r1, r2, xs, shifted))
            return kernel_many(r1, r2, xs, shifted)
        monkeypatch.setattr(st, "_kernel_many", spy)
        total, n_stop, _ = th._s_series_log(field_sqrt5, 1, cmath.log(0.7 + 0.3j), 1e-10)
        assert len(calls) == 1 and n_stop > 1
        # the sequential sum of a(n) Z~(y n) over the nonzero a(n), n <= n_stop, at the
        # series' own y = scale e^{log x/2}: Z~ at cmath.sqrt's y, one ulp away, differs by 7e-15
        y1 = fd.kernel_scale(field_sqrt5, 1) * cmath.exp(cmath.log(0.7 + 0.3j) / 2.0)
        ref = sum(fd.power_coeffs(field_sqrt5, 1, n_stop)[n] * st.z_tilde(2, 0, y1 * n)
                  for n in range(1, n_stop + 1))
        assert abs(total - ref) <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("x", [300.0, 1.0 / 300.0, 333.0])
    def test_underflowed_majorant_stops(self, field_q, x):
        # at |x| >= 300 every majorant of the series at x is an exact 0: it stops at once
        # with a 0 tail, with no larger coefficient table
        rep = th.check_theta(field_q, 1, x, tol=1e-8)
        assert rep.residual <= 1e-8
        n_stop, _, tail = th._series_plan(field_q, 1, cmath.log(max(x, 1.0 / x)), 1e-10)
        assert (n_stop, tail) == (1, 0.0)

    @pytest.mark.parametrize("name", BUILTIN)
    def test_coefficient_majorant_holds(self, name):
        # _series_plan reads c_maj = 1.5 max_{n <= 128} a(n)/sqrt(n) off its first
        # table; this checks, without proving, that c_maj sqrt(n) >= a(n) up to 2^16
        field = fd.builtin_field(name)
        for k in (1, 2):
            vals = fd.power_coeffs(field, k, 1 << 16).values[1:]
            root_n = np.sqrt(np.arange(1, len(vals) + 1, dtype=float))
            c_maj = 1.5 * float(np.max(vals[:128] / root_n[:128]))
            assert np.all(vals <= c_maj * root_n), (name, k)


class TestR0Theta:
    def test_rational_constant(self, field_q):
        for x in (0.3, 1.0, 2.0, 4.0):
            assert th.r0_theta(field_q, 1, x) == pytest.approx(-1.0, rel=1e-11)

    def test_quadratic_constant(self, field_sqrt5):
        ref = 4.0 * fd.laurent_constant(field_sqrt5)
        assert th.r0_theta(field_sqrt5, 1, 2.3) == pytest.approx(ref, rel=1e-10)

    def test_k_one_x_independence(self, field_cubic7):
        vals = [th.r0_theta(field_cubic7, 1, x) for x in (0.4, 0.9, 1.7, 3.2)]
        spread = max(abs(v - vals[0]) for v in vals)
        assert spread < 1e-10

    def test_koshliakov_form_k2(self, field_q):
        # matching W_2: R_0(x) = -(euler_gamma - log(4 pi) + (1/2) log x)
        for x in (1.0, 2.0):
            ref = -(oracle.EULER_GAMMA - math.log(4.0 * math.pi) + 0.5 * math.log(x))
            assert th.r0_theta(field_q, 2, x) == pytest.approx(ref, rel=1e-10)


class TestWTheta:
    def test_jacobi_oracle_equality(self, field_q):
        for x in (0.5, 1.0, 2.0):
            w = th.w_theta(field_q, 1, x)
            assert abs(w - oracle.jacobi_theta_w1(x)) < 1e-9

    def test_koshliakov_oracle_equality(self, field_q):
        for x in (0.5, 1.0, 2.0):
            w = th.w_theta(field_q, 2, x)
            assert abs(w - oracle.koshliakov_theta_w2(x)) < 1e-7

    def test_zero_names_the_function(self, field_q):
        with pytest.raises(DomainError, match="w_theta undefined at x = 0"):
            th.w_theta(field_q, 1, 0)
        with pytest.raises(DomainError, match="r0_theta undefined at x = 0"):
            th.r0_theta(field_q, 1, 0)

    def test_fixed_point(self, field_sqrt5):
        rep = th.check_theta(field_sqrt5, 1, 1.0)
        assert rep.residual < 1e-14


class TestCheckTheta:
    def test_rational_jacobi(self, field_q):
        for x in (0.5, 1.0, 2.0, 4.0):
            rep = th.check_theta(field_q, 1, x, tol=1e-10)
            assert rep.residual < 1e-10
            assert 0 < rep.budget["series_tail"] < 1e-2 * 1e-10

    def test_rational_koshliakov(self, field_q):
        for x in (0.5, 1.0, 2.0, 4.0):
            assert th.check_theta(field_q, 2, x).residual < 1e-8

    def test_all_fields_k12(self, field_q, field_sqrt5, field_cubic7):
        for field in (field_q, field_sqrt5, field_cubic7):
            d = field.degree
            xs = [0.5, 1.0, 2.0, 4.0,
                  1.5 * cmath.exp(1j * min(0.4 * d, 1.2)),
                  0.8 * cmath.exp(-1j * min(0.3 * d, 1.0))]
            for k in (1, 2):
                for x in xs:
                    rep = th.check_theta(field, k, x)
                    assert rep.residual < 1e-8, (field.label, k, x)

    def test_quadratic_complex_point(self, field_sqrt5):
        rep = th.check_theta(field_sqrt5, 1, 2.0 * cmath.exp(1j * math.pi / 3))
        assert rep.residual < 1e-8

    def test_cubic_imaginary_point(self, field_cubic7):
        # valid since pi d / 2 = 3 pi / 2 > pi / 2
        rep = th.check_theta(field_cubic7, 1, cmath.exp(1j * math.pi / 2))
        assert rep.residual < 1e-6

    def test_zero_rejected(self, field_q):
        with pytest.raises(DomainError):
            th.check_theta(field_q, 1, 0.0)

    @pytest.mark.parametrize("x", [16.0, 1.0 / 16.0])
    def test_near_a_zero_of_w(self, x):
        # W(1/x) crosses zero at x ~ 16 for zeta5 at k = 2: W(1/16) = 3.2e-8, while the sides
        # are summed from terms of 2.6e-2, so the residual is relative to those terms
        rep = th.check_theta(fd.builtin_field("zeta5"), 2, x)
        assert abs(rep.lhs) < 1e-7 and abs(rep.lhs - rep.rhs) < 1e-12
        assert rep.residual < 1e-10


class TestCheckThetaMany:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", BUILTIN)
    def test_equals_scalar_calls(self, name, k):
        # |x| <= 0.05 and 0.05 < |x| <= 0.4 on the ascending series, a complex x 0.05
        # inside the sector edge, and |x| > 1, all in one call
        field = fd.builtin_field(name)
        edge = math.pi * field.degree / 2.0 - 0.25
        xs = [0.04, 0.3, 1.3 * cmath.exp(1j * edge), 2.5, 0.02 + 0.01j, 0.35, 30.0]
        for x, rep in zip(xs, th.check_theta_many(field, k, xs), strict=True):
            one = th.check_theta(field, k, x)
            assert (rep.lhs, rep.rhs, rep.residual, rep.budget) == \
                (one.lhs, one.rhs, one.residual, one.budget), x

    def test_sheet_does_not_depend_on_its_batch(self, field_zeta5):
        # zeta5's k = 2 series at x = 0.04 alone and in one kernel call with its 1/x sheet:
        # every kernel entry, and so the sum and its budget, bit for bit; no log-gamma
        # value may depend on the other nodes of its call
        log_x = cmath.log(0.04)
        alone = next(th._s_series_many(field_zeta5, 2, [log_x], 1e-10))
        both = next(th._s_series_many(field_zeta5, 2, [log_x, -log_x], 1e-10))
        assert alone == both

    @pytest.mark.parametrize("argv,calls", [
        (("theta-check", "--field", "cubic7", "--k", "2", "--x", "0.04", "--x", "0.7,0.3",
          "--x", "2.5"), 1),
        (("phi-check", "--field", "zeta5", "--z", "0.25"), 1),
        # x = -1 is one more point of the relation, on the sheet log x = i pi
        (("theta-check", "--field", "cubic7", "--x", "2", "--x=-1", "--x", "0.5"), 1),
    ])
    def test_one_kernel_call_per_op(self, argv, calls, monkeypatch, capsys):
        seen = []
        kernel_many = st._kernel_many

        def spy(*args, **kwargs):
            seen.append(1)
            return kernel_many(*args, **kwargs)
        monkeypatch.setattr(st, "_kernel_many", spy)
        assert cli.main(list(argv)) == 0
        assert len(seen) == calls
        rows = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()[1:]]
        if argv[0] == "theta-check":
            assert rows == ["theta" for a in argv if a.startswith("--x")]


class TestResidueReflection:
    def test_r1_equals_reflected_r0(self, field_q, field_sqrt5, field_cubic7):
        # Res_{s=1} Omega^k(s) x^{-s/2} = -(1/sqrt(x)) R_0(1/x)
        for field, k in [(field_q, 1), (field_q, 2), (field_sqrt5, 1),
                         (field_sqrt5, 2), (field_cubic7, 1)]:
            for x in (0.7, 2.0):
                lhs = oracle.r1_theta(field, k, x)
                rhs = -th.r0_theta(field, k, 1.0 / x) / cmath.sqrt(x)
                assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs)), (field.label, k, x)


def sum_and_constant(field):
    """S, the kernel sum on the sheet log x = i pi, and 2^r1 C_F."""
    return th.s_series(field, 1, -1, tol=1e-9), 2.0 ** field.r1 * fd.laurent_constant(field)


class TestExactEvaluation:
    # at x = -1, log x = i pi, the relation reads conj(W) = i W, which is
    # Re S + Im S = 2^r1 C_F: the exact evaluation is the relation on its sheet
    def test_degree_guard(self, field_q, field_sqrt5):
        with pytest.raises(DomainError):
            th.check_theta(field_q, 1, -1)
        with pytest.raises(DomainError):
            th.check_theta(field_sqrt5, 1, -1)

    def test_cubic_boundary_form(self, field_cubic7):
        rep = th.check_theta(field_cubic7, 1, -1, tol=1e-9)
        assert rep.residual < 1e-6
        assert 0 < rep.budget["series_tail"] < 1e-9 / 2
        s, constant = sum_and_constant(field_cubic7)
        assert abs(s.real + s.imag - constant) < 1e-6

    def test_quartic_boundary_form(self, field_zeta5):
        assert th.check_theta(field_zeta5, 1, -1, tol=1e-9).residual < 1e-6
        s, constant = sum_and_constant(field_zeta5)
        assert abs(s.real + s.imag - constant) < 1e-6

    @pytest.mark.xfail(reason="the kernel sum at x = -1 keeps a genuine imaginary "
                              "part; the theta relation at log x = i pi gives "
                              "Re + Im = 2^r1 C_F, not a flat complex equality",
                       strict=True)
    def test_cubic_literal_equality(self, field_cubic7):
        s, constant = sum_and_constant(field_cubic7)
        assert abs(s - constant) < 1e-6


@pytest.mark.parametrize("name", BUILTIN)
def test_forward_checks_report_kernel_quadrature(name):
    # sum_n |a(n)| times each kernel entry's proven quadrature error, next to the other terms
    field = fd.builtin_field(name)
    reports = [(th.check_theta(field, 1, 0.8 + 0.3j), "series_tail")]
    if field.degree >= 3:
        reports.append((th.check_theta(field, 1, -1), "series_tail"))
    for rep, other in reports:
        quadrature = rep.budget["kernel_quadrature"]
        assert math.isfinite(quadrature) and quadrature >= 0.0
        assert rep.residual <= rep.budget[other] + quadrature + 1e-12
    # Phi: the proven quadrature_error, its rounding, and the series' terms as they enter the rhs
    strip = math.pi * field.degree / 4.0 - 0.2
    for z in (0.3, complex(0.6, 0.9 * strip), complex(0.0, -0.9 * strip)):
        rep = cl.phi_identity_check(field, z)
        quadrature = rep.budget["kernel_quadrature"]
        assert math.isfinite(quadrature) and quadrature >= 0.0
        assert rep.residual <= sum(rep.budget.values()), (z, rep.residual, rep.budget)
