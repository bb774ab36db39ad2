"""Snapshot of residuals and values, for diffing a refactor against its parent.

Usage:

    python tools/value_snapshot.py <src-dir> <out.json>
    python tools/value_snapshot.py --diff <before.json> <after.json>

The first form imports `zetatheta` from <src-dir> and writes every value as
float hex, [re, im, scale], so two snapshots compare bit for bit.  The scale
is the absolute size the value is a rounding error of: |value| for most
keys, and for a check's two sides the largest term they are summed from
(the theta series and R_0, the Moebius series, R_0 and the zero sum), so a
side that is a small difference of large terms does not read rounding as a
move.  The theta relation is recorded both one x at a time (`check_theta`),
x = -1 on the sheet log x = i pi among them, and for three x in one call of
its vector twin (`check_theta_many`).
It records each builtin field's L-factors (the Gamma_R shift, conductor
and root number of each) and its coefficient tables a_{F,k} and mu_{F,k},
k = 1, 2, by the exact integers sum c(n) and sum n c(n) over n <= 2^16, so a
table change shows at the table itself.  Besides the checks' values it
records the per-zero Taylor data they sum
(zeta_F'(rho) off the Taylor jet of zeta_F at a zero, the principal parts
of Lambda_F^k built on it, the Taylor data of 1/zeta_F^k), so a change in
a datum shows at the datum itself, and the proven errors of each zero's
jet coefficients c_0 .. c_2, of the Taylor data of 1/zeta_F^2, and of the
L-factor jets on one batch of mixed heights and at s = 3, so a change in a
Hurwitz error shows at its source.  It also records where the forward theta
series stops (n_stop and its certified tail) and the kernel majorant behind
it, N0 and the certified bound of l_series, and the largest proven error
of a kernel line's plan relative to its value per gamma power, and where
the kernels' ascending series stops and its charge per gamma power, and
the charge of z_shifted for the one-factor powers (1, 0) and (0, 1) and the
two-factor powers (2, 0) and (0, 2), so a
change in a truncation bound, a quadrature charge or a plan's distance from
its refusal shows even when every checked value stays the same; so do the
error bounds of Xi_F up to t = 1000 and of zeta_F at s = 2 + i, read
through `critical_line._xi_scaled_many`.  The gamma data is recorded at its
source with its proven errors: `fields.prefactor_jet` about 0, about 1 and
about each field's first zero, and the left-pole polynomials P_1 .. P_12
(`steen._left_pole_polynomials`) of every gamma power whose plan is
recorded.  log-gamma far left and at height with its proven error, each
L-factor's Hardy Z at heights where xi_F alone underflows, the ordinates and residuals of one zeros-scan
window per builtin field, the number of Z calls it makes and the number of
points they evaluate after the grid, the Phi
identity past |Im z| = pi/2, and the Phi integral's proven plan (window,
step and error) per builtin field are recorded too.  A value whose
computation raises is recorded as the exception's type and message.  The
primitive characters of imprimitive ones mod 15, 20 and 24 (modulus, order,
exponents) are recorded, and so are what make_field_abelian makes of lists
that are not character groups (the degree, or the refusal's type and
message) and the refusal of an exponent table that is not multiplicative.
The second form lists each key whose value differs, with its absolute change and its scale, and exits 1 when any does,
so it can serve as a gate.  Zero lists come from this repository's `tests/data` and
`perfbench/reference`, and gamma, zeta', the theta-side R_1, V and the
kernel on a line left of 0 from the oracles in its `tests/_oracles.py`,
whichever source tree is imported; so is HLR's zero term, which that file
reads off the imported tree's zero sum.
"""

import cmath
import json
import math
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIELDS = ("Q", "sqrt5", "cubic7", "zeta5", "gauss")
GAMMA_PAIRS = ((1, 0), (2, 0), (0, 1), (1, 1), (4, 0), (0, 2))
SCAN_WINDOWS = (("Q", 100.0), ("sqrt5", 40.0), ("gauss", 30.0), ("cubic7", 10.0),
                ("zeta5", 18.0))
# the (k r1, k r2) of the builtin fields and two mixed pairs, whose kernel-line plans
# are recorded by their margin
PLAN_MARGIN_PAIRS = ((1, 0), (2, 0), (4, 0), (0, 1), (0, 2), (3, 0), (6, 0), (0, 4), (2, 1), (1, 1))
# the points of one check_theta_many call per builtin field and k: |x| < 0.05, a
# complex x and |x| > 1
THETA_MANY_XS = (0.04, 0.7 + 0.3j, 2.5)
# the coefficient tables' sums run over n <= TABLE_SIZE
TABLE_SIZE = 1 << 16
# the coefficients recorded of each prefactor jet
PREFACTOR_COUNT = 4
XI_ERROR_HEIGHTS = (3.5, 14.1, 141.0, 1000.0)
# the heights of one batch of L-factor jets on the line, whose errors are recorded
L_FACTOR_HEIGHTS = (0.0, 14.1, 1000.0)
# (q, D): the Kronecker character (D/.) lifted to modulus q, whose primitive is recorded
IMPRIMITIVE_LIFTS = ((15, -3), (15, 5), (20, -4), (20, 5), (24, -3), (24, -4), (24, 8))
TAIL_BOUND_POINTS = ((1, 0, 0.5, 0.0), (1, 0, 2.5, 0.6), (2, 0, 7.0, -0.9), (0, 1, 3.0, 1.2),
                     (1, 1, 4.0, 0.5), (0, 2, 12.0, 1.3), (6, 0, 30.0, 2.0))


def _hex(v, scale=None):
    v = complex(v)
    return [v.real.hex(), v.imag.hex(), float(abs(v) if scale is None else scale).hex()]


def _record(out, key, compute, scale=None):
    """Record compute() under key, each component of a tuple under key[i].

    `scale`, if given, returns the largest |term| the value is summed from,
    recorded as the scale of every component; otherwise each component's
    scale is its own modulus.
    """
    try:
        value = compute()
        size = None if scale is None else scale()
    except Exception as exc:   # recorded so that a new raise shows in the diff
        out[key] = f"{type(exc).__name__}: {exc}"
        return
    if isinstance(value, tuple):
        for i, v in enumerate(value):
            out[f"{key}[{i}]"] = _hex(v, size)
    else:
        out[key] = _hex(value, size)


def _sides(report):
    return report.lhs, report.rhs


def _largest(*terms):
    return max(abs(complex(t)) for t in terms)


def _table_sums(values):
    """(sum c(n), sum n c(n)) over a table, which must be exact as floats."""
    import numpy as np
    sums = (int(values.sum()), int(np.arange(len(values)) @ values))
    if max(abs(v) for v in sums) >= 2 ** 53:
        raise OverflowError(f"table sums {sums} are not exact as floats")
    return tuple(float(v) for v in sums)


def _derivatives(data):
    """D[i] = i! c_i off a Taylor jet; data stored as derivatives are returned as they are."""
    if not hasattr(data, "coeffs"):
        return tuple(data)
    return tuple(c * math.factorial(i) for i, c in enumerate(data.coeffs))


def _plan_margin(steen, nx, r1, r2):
    """max proven error / |value| of the kernel lines of (r1, r2) on a 12 x 7 grid of x."""
    import numpy as np
    edge = min(math.pi * (r1 + 2 * r2) / 4.0 - 0.1, math.pi)
    xs = (np.geomspace(0.41, 1e4, 12)[:, None] * np.exp(1j * np.linspace(-edge, edge, 7))).ravel()
    live, c, T, h, error = steen._line_plan(r1, r2, xs)
    values = np.abs(nx.line_integral_many(steen._kernel_integrand(r1, r2, np.log(xs[live])), c, T, h)[0])
    return float(np.max(error / np.maximum(values, 1e-300)))


def _primitive_of_lift(fields, chi, q):
    """(modulus, order, *exponents) of the primitive character inducing chi lifted to modulus q."""
    lift = fields.DirichletCharacter(q, chi.order, tuple(
        chi.exponents[a % chi.modulus] if math.gcd(a, q) == 1 else -1 for a in range(q)))
    p = lift.primitive()
    return (p.modulus, p.order) + p.exponents


def snapshot():
    from zetatheta import critical_line as cl
    from zetatheta import fields, inverse_theta as iv, numerics as nx, steen, theta
    sys.path.insert(0, os.path.join(REPO, "tests"))
    import _oracles as oracle

    out = {}
    zeros_q = iv.load_zeros(os.path.join(REPO, "tests", "data", "riemann_zeros_30.txt"))
    zeros_sqrt5 = iv.load_zeros(os.path.join(REPO, "perfbench", "reference",
                                              "sqrt5-inverse.zeros"))
    zeros_zeta5 = iv.load_zeros(os.path.join(REPO, "perfbench", "reference",
                                              "zeta5-inverse.zeros"))
    for name in FIELDS:
        F = fields.builtin_field(name)
        _record(out, f"C_F/{name}", lambda: fields.laurent_constant(F))
        _record(out, f"H_F/{name}", lambda: fields.residue_constant(F))
        for kind, table in (("a", fields.power_coeffs), ("mu", fields.moebius_coeffs)):
            for k in (1, 2):
                _record(out, f"table_sums/{name}/{kind}/k={k}", lambda: _table_sums(
                    table(F, k, TABLE_SIZE).values))
        for k in (1, 2):
            for x in (2.0, 0.7 + 0.3j):
                # W = S - R_0 on both sides, the right one times sqrt(x)
                _record(out, f"check_theta/{name}/k={k}/x={x}",
                        lambda: _sides(theta.check_theta(F, k, x)),
                        lambda: _largest(*(w * f(F, k, y) for w, y in ((1.0, 1.0 / x),
                                                                       (cmath.sqrt(x), x))
                                           for f in (theta.s_series, theta.r0_theta))))
            # the vector twin: the series of all three x and their inverses in one kernel pass
            _record(out, f"check_theta_many/{name}/k={k}",
                    lambda: tuple(v for rep in theta.check_theta_many(F, k, THETA_MANY_XS)
                                  for v in _sides(rep)),
                    lambda: _largest(*(w * f(F, k, y) for x in THETA_MANY_XS
                                       for w, y in ((1.0, 1.0 / x), (cmath.sqrt(x), x))
                                       for f in (theta.s_series, theta.r0_theta))))
            _record(out, f"r1_theta/{name}/k={k}", lambda: oracle.r1_theta(F, k, 1.7))
        for t in (0.0, 3.5, 14.1):
            _record(out, f"xi_completed/{name}/t={t}",
                    lambda: cl.xi_completed(F, 0.5 + 1j * t))
            _record(out, f"big_xi/{name}/t={t}", lambda: cl.big_xi(F, t))
        _record(out, f"xi_completed/{name}/s=2+1i", lambda: cl.xi_completed(F, 2.0 + 1.0j))
        # xi_F is entire: at the poles of its gamma factor too
        for s in (0.0, -2.0, -4.0):
            _record(out, f"xi_completed/{name}/s={s}", lambda: cl.xi_completed(F, s))
        # the error bounds the reality check and Phi read: of Xi_F times e^{pi d t/4}, the
        # scanner's factor, so the bound at t = 1000 does not underflow, and of zeta_F at
        # s = 2 + i, the xi bound times |zeta_F / xi_F| there
        for t in XI_ERROR_HEIGHTS:
            _record(out, f"xi_error/{name}/t={t}", lambda: cl._xi_scaled_many(
                F, 0.5 + 1j * t, math.pi * F.degree * t / 4.0)[1])
        _record(out, f"zeta_error/{name}/s=2+1i", lambda: (lambda xi, error: error * abs(
            nx.dedekind_zeta(2.0 + 1.0j, F) / xi))(*cl._xi_scaled_many(F, 2.0 + 1.0j, 0.0)))
    # x = -1, log x = i pi, inside the sector for d >= 3: the relation's sides, and the
    # kernel sum S on that sheet, whose Re S + Im S the relation fixes at 2^r1 C_F
    for name in ("cubic7", "zeta5"):
        F = fields.builtin_field(name)
        for k in (1, 2):
            _record(out, f"check_theta/{name}/k={k}/x=-1",
                    lambda: _sides(theta.check_theta(F, k, -1)),
                    lambda: _largest(*(w * f(F, k, -1) for w in (1.0, 1.0j)
                                       for f in (theta.s_series, theta.r0_theta))))
        _record(out, f"s_series/{name}/x=-1", lambda: theta.s_series(F, 1, -1))
    # 3/4 of the strip |Im z| < pi d/4 - 0.2 is past |Im z| = pi/2, where x = e^{-2z} leaves
    # the principal sheet
    edge = {name: 0.75j * (math.pi * fields.builtin_field(name).degree / 4.0 - 0.2)
            for name in ("cubic7", "zeta5")}
    for name, z in (("sqrt5", 0.5), ("cubic7", 0.25), ("Q", -0.3j), ("gauss", 0.0),
                    ("cubic7", edge["cubic7"]), ("zeta5", edge["zeta5"])):
        _record(out, f"phi_identity_check/{name}/z={z}", lambda: (
            lambda r: (r.lhs, r.rhs))(
                cl.phi_identity_check(fields.builtin_field(name), z)))
    # Phi's proven plan at z = 0.3 and at 0.9 of the strip: the window T = nh, the step h
    # and the proven quadrature error
    for name in FIELDS:
        F = fields.builtin_field(name)
        for z in (0.3, 0.9j * (math.pi * F.degree / 4.0 - 0.2)):
            _record(out, f"phi_plan/{name}/z={z}", lambda: (
                lambda p: (p[0] * p[1], p[1], p[2]))(cl._phi_plan(F, complex(z), 1e-12)))
    for name, k, x, zeros in (("Q", 1, 4.0, zeros_q), ("Q", 2, 2.0, zeros_q),
                              ("sqrt5", 1, 2.0, zeros_sqrt5)):
        F = fields.builtin_field(name)
        # U = L + R_0 + (1/2) zero sum on both sides, the right one times sqrt(x)
        _record(out, f"check_inverse_theta/{name}/k={k}/x={x}",
                lambda: _sides(iv.check_inverse_theta(F, k, x, zeros)),
                lambda: _largest(*(w * t for w, y in ((1.0, 1.0 / x), (math.sqrt(x), x))
                                   for t in (iv.l_series(F, k, y, tol=1e-7), iv.r0_inverse(F, k, y),
                                             0.5 * iv.zero_sum(F, k, y, zeros)[0]))))
    for name, zeros in (("Q", zeros_q), ("sqrt5", zeros_sqrt5)):
        F = fields.builtin_field(name)
        alpha, beta = fields.kernel_scale(F) * 2.0, fields.kernel_scale(F) / 2.0
        # each side is a difference of its alpha and beta terms, sqrt(alpha) times
        # L, R_0 and the half zero sum at x and sqrt(beta) times them at 1/x
        _record(out, f"dgv_check/{name}/x=4", lambda: _sides(iv.dgv_check(F, 4.0, zeros)),
                lambda: _largest(*(math.sqrt(a) * t for a, y in ((alpha, 4.0), (beta, 0.25))
                                   for t in (iv.l_series(F, 1, y, tol=1e-7), iv.r0_inverse(F, 1, y),
                                             0.5 * iv.zero_sum(F, 1, y, zeros)[0]))))
    # the per-zero contour data behind the zero sums and the l_series tails
    for g in zeros_sqrt5.gammas[:5]:
        _record(out, f"dedekind_zeta_prime/sqrt5/gamma={g}",
                lambda: iv.zeta_taylor(fields.builtin_field("sqrt5"), g, 2)[1])
    # the proven error of each zero's jet coefficients c_0 .. c_2, for every listed zero
    for name, zeros in (("Q", zeros_q), ("sqrt5", zeros_sqrt5), ("zeta5", zeros_zeta5)):
        for g, jet in zip(zeros.gammas, iv.zeta_taylor_many(fields.builtin_field(name),
                                                            zeros.gammas, 2)):
            _record(out, f"zero_jet_error/{name}/gamma={g}", lambda: tuple(jet.err))
    # zeta5's zeros at 14.11546 and 14.13473 share one radius-0.05 circle
    close_pair = tuple(g for g in zeros_zeta5.gammas if 14.1 < g < 14.14)
    for name, k, gammas in (("sqrt5", 1, zeros_sqrt5.gammas[:3]),
                            ("Q", 2, zeros_q.gammas[:3]), ("zeta5", 1, close_pair)):
        for g in gammas:
            _record(out, f"lambda_principal_at_zero/{name}/k={k}/gamma={g}", lambda: tuple(
                iv._lambda_principal_many(fields.builtin_field(name), k, [g])[0][1].coeffs))
    for m in (1, 2, 3):
        _record(out, f"inverse_zeta_derivatives/Q/k=2/m={m}", lambda: _derivatives(
            iv._inverse_zeta_derivatives(fields.builtin_field("Q"), 2, 3, 2)[m - 1]))
        _record(out, f"inverse_zeta_error/Q/k=2/m={m}", lambda: tuple(
            iv._inverse_zeta_derivatives(fields.builtin_field("Q"), 2, 3, 2)[m - 1].err))
    # each builtin field's L-factor records at their source: per factor, in the field's order,
    # its Gamma_R shift, conductor and root number
    for name in FIELDS:
        for i, factor in enumerate(fields.builtin_field(name).factors):
            _record(out, f"l_factor/{name}/{i}", lambda: (
                factor.shift, factor.conductor, factor.root_number))
    # the primitive of each imprimitive lift, and of zeta5's quartic character lifted to 15 and 20
    quartic = fields.builtin_field("zeta5").characters[1]
    lifts = [(q, f"({d}/.)", fields.kronecker_character(d)) for q, d in IMPRIMITIVE_LIFTS]
    lifts += [(q, "zeta5[1]", quartic) for q in (15, 20)]
    for q, label, chi in lifts:
        _record(out, f"primitive/mod={q}/from={label}", lambda: _primitive_of_lift(fields, chi, q))
    # lists that are not character groups, and an exponent table that is not multiplicative
    one, chi_5, chi_7 = (fields.principal_character(), fields.kronecker_character(5),
                         fields.builtin_field("cubic7").characters[1])
    dlog = {pow(2, j, 11): j for j in range(10)}
    chi_11 = fields.character_from_exponents(11, 5, [dlog[a] % 5 if a < 11 else -1 for a in range(1, 12)])
    for label, chars in (("1,chi5,chi8", [one, chi_5, fields.kronecker_character(8)]),
                         ("1,chi5,chi5", [one, chi_5, chi_5]), ("1,chi7", [one, chi_7]), ("chi5", [chi_5]),
                         ("1,chi11,conj", [one, chi_11, chi_11.conjugate()]),
                         ("1,chi5,chi7,conj", [one, chi_5, chi_7, chi_7.conjugate()])):
        _record(out, f"make_field_abelian/{label}", lambda: fields.make_field_abelian(chars).degree)
    _record(out, "character_from_exponents/5,2,[0,1,0,0,-1]",
            lambda: fields.character_from_exponents(5, 2, [0, 1, 0, 0, -1]).order)
    # the Hurwitz errors at their source: the coefficient errors of every L-factor jet, one
    # tuple over the characters, on one batch mixing heights on the line and at s = 3 with
    # three coefficients
    for name in FIELDS:
        characters = fields.builtin_field(name).characters
        for i, t in enumerate(L_FACTOR_HEIGHTS):
            _record(out, f"l_factor_error/{name}/t={t}", lambda: tuple(
                jet.err[i, 0] for jet in nx._l_factor_jets(
                    characters, [0.5 + 1j * h for h in L_FACTOR_HEIGHTS], 1)))
        _record(out, f"l_factor_error/{name}/s=3", lambda: tuple(
            e for jet in nx._l_factor_jets(characters, [3.0], 3) for e in jet.err[0]))
    for x in (1.0, 3.0):
        # the two Moebius series and the zero term
        _record(out, f"hlr_check/x={x}", lambda: _sides(iv.hlr_check(x, zeros_q)),
                lambda: _largest(0.5 * iv.l_series(fields.builtin_field("Q"), 1, x / math.pi),
                                 0.5 * math.sqrt(math.pi / x)
                                 * iv.l_series(fields.builtin_field("Q"), 1, math.pi / x),
                                 oracle.hlr_zero_term(x, zeros_q)))
    for x in (1.0, 3.7, math.pi):
        # each pair is 2 Re of its summand, the first summand the largest
        _record(out, f"hlr_zero_term/x={x}", lambda: oracle.hlr_zero_term(x, zeros_q),
                lambda: _largest(cmath.exp(
                    (0.5 + 1j * zeros_q.gammas[0]) * math.log(math.pi / math.sqrt(x))
                    + nx.loggamma(0.25 - 0.5j * zeros_q.gammas[0]))
                    / iv.zeta_taylor(fields.builtin_field("Q"), zeros_q.gammas[0], 2)[1]
                    / math.sqrt(math.pi)))
    for s in (0.25, 3.3 - 2.0j, -2.7 + 0.4j, -7.5, 0.5 + 30.0j):
        _record(out, f"gamma/s={s}", lambda: oracle.gamma(s))
    for z in (-7.5 + 3.0j, 0.25 + 300.0j, 0.25 - 300.0j, -30.3 + 0.2j):
        _record(out, f"loggamma/z={z}", lambda: nx.loggamma(z))
        _record(out, f"loggamma_error/z={z}", lambda: nx._loggamma_and_error(z)[1])
    # one width-5 zeros-scan window per field at the default step: the ordinates, then
    # the residuals, the number of Z calls the scan made, and the number of points
    # those calls evaluated after the grid
    hardy_z_many = cl._hardy_z_many
    for name, a in SCAN_WINDOWS:
        calls = []
        cl._hardy_z_many = lambda field, ts: calls.append(len(ts)) or hardy_z_many(field, ts)
        _record(out, f"scan_zeros/{name}/[{a},{a + 5.0}]", lambda: (
            lambda r: r.refined + r.residuals)(
                cl.scan_zeros(fields.builtin_field(name), a, a + 5.0, 0.02)))
        cl._hardy_z_many = hardy_z_many
        _record(out, f"scan_z_calls/{name}", lambda: len(calls))
        _record(out, f"scan_z_points/{name}", lambda: sum(calls[1:]))
    # heights where xi_F alone underflows: each factor's Z
    for name, t in (("zeta5", 242.0), ("cubic7", 322.0), ("Q", 735.0)):
        for row in range(fields.builtin_field(name).degree):
            _record(out, f"hardy_z/{name}/{row}/t={t}",
                    lambda: cl._hardy_z_many(fields.builtin_field(name), [t])[0][row, 0])
    for s, order in ((-2.0, 1), (0.0, 1), (3.0, 2), (0.5 + 14.134725141734693j, 1)):
        _record(out, f"zeta_derivative/s={s}/order={order}",
                lambda: oracle.zeta_derivative(s, order))
    for r1, r2 in GAMMA_PAIRS:
        for x in (0.8, 3.0, 25.0, 2.0 + 1.5j):
            _record(out, f"z_tilde/{r1},{r2}/x={x}", lambda: steen.z_tilde(r1, r2, x))
        for x in (0.8, 3.0, 1.2 - 0.7j):
            _record(out, f"z_shifted_direct/{r1},{r2}/x={x}",
                    lambda: oracle.kernel_lines(r1, r2, [x], [-0.5], 1e-12, [0.0])[0])
    # z_shifted on both sides of the 0.4 series radius, and the l_series head's
    # certified bound, which carries the quadrature charge of its kernel entries
    for r1, r2 in ((1, 0), (2, 0)):
        for x in (0.3, 0.45, 1.2 - 0.7j):
            _record(out, f"z_shifted/{r1},{r2}/x={x}", lambda: steen.z_shifted(r1, r2, x))
    # the charge of the one- and two-factor kernels on the same x, so a change in their
    # charge model shows
    for r1, r2 in ((1, 0), (0, 1), (2, 0), (0, 2)):
        for x in (0.3, 0.45, 1.2 - 0.7j):
            _record(out, f"z_shifted_charge/{r1},{r2}/x={x}",
                    lambda: steen.z_shifted_many(r1, r2, [x])[1][0])
    for name, k, x in (("Q", 2, 3.0), ("sqrt5", 1, 2.0)):
        _record(out, f"l_series_parts/{name}/k={k}/x={x}",
                lambda: iv._l_series_parts(fields.builtin_field(name), k, x))
    # where the forward theta series stops, and the kernel majorant that decides it
    for name in FIELDS:
        F = fields.builtin_field(name)
        for k in (1, 2):
            for label, x in (("0.3", 0.3), ("2.0", 2.0), ("0.7+0.3j", 0.7 + 0.3j),
                             ("1.2e^1.2i", 1.2 * cmath.exp(1.2j))):
                _record(out, f"series_plan/{name}/k={k}/x={label}", lambda: (
                    lambda p: (p[0], p[2]))(theta._series_plan(F, k, cmath.log(x), 1e-10)))
    for r1, r2, abs_y, arg_y in TAIL_BOUND_POINTS:
        _record(out, f"z_tail_bound_complex_many/{r1},{r2}/|y|={abs_y}/arg={arg_y}",
                lambda: steen.z_tail_bound_complex_many(r1, r2, [abs_y], arg_y)[0])
    # the largest proven error / |value| of steen._line_plan's level of nodes over
    # |x| in [0.41, 1e4] and |Arg x| up to 0.1 inside the sector edge, so a plan that
    # drifts toward the 1e-11 refusal of steen._mellin_barnes shows
    for r1, r2 in PLAN_MARGIN_PAIRS:
        _record(out, f"kernel_plan_margin/{r1},{r2}", lambda: _plan_margin(steen, nx, r1, r2))
    # where the ascending series of each gamma power stops (the last order read off the
    # left poles) and its charge, at |x| = 0.05 and 0.4 on the real axis and at 0.95 of
    # the sector edge or of pi, whichever is smaller
    left_pole_polynomials = steen._left_pole_polynomials
    for r1, r2 in PLAN_MARGIN_PAIRS:
        edge = 0.95 * min(math.pi * (r1 + 2 * r2) / 4.0 - 0.1, math.pi)
        for label, x in ((f"{a}{f}", cmath.rect(a, edge) if f else a) for a in (0.05, 0.4)
                         for f in ("", f"e^{edge:.4f}i")):
            reads = []
            steen._left_pole_polynomials = lambda *args: reads.append(args[3]) or left_pole_polynomials(*args)
            _record(out, f"series_stop/{r1},{r2}/x={label}", lambda: (
                lambda z: (max(reads), z[1][0]))(steen.z_small_series_many(r1, r2, [x])))
    steen._left_pole_polynomials = left_pole_polynomials
    # the gamma data at its source, coefficients then errors: the prefactor's jet about 0
    # (Laurent, from e^-(r1 + r2)), about 1 from the left and about each field's first zero,
    # and P_1 .. P_12 of the left poles per gamma power
    for name in FIELDS:
        F = fields.builtin_field(name)
        first = iv.load_zeros(os.path.join(REPO, "perfbench", "reference", f"{name}.zeros")).gammas[0]
        for label, s0, sign in (("0", 0.0, 1), ("1", 1.0, -1), (f"0.5+{first}i", 0.5 + 1j * first, 1)):
            _record(out, f"prefactor_jet/{name}/s0={label}/sign={sign}", lambda: (
                lambda jet: tuple(jet.coeffs[0]) + tuple(jet.err[0]))(
                    fields.prefactor_jet(F, [s0], sign, PREFACTOR_COUNT)))
    for r1, r2 in PLAN_MARGIN_PAIRS:
        for m, poly in enumerate(steen._left_pole_polynomials(r1, r2, 1, 12), 1):
            _record(out, f"left_pole/{r1},{r2}/m={m}", lambda: poly.coeffs + poly.err)
    for x, params, c in ((2.0, (5.0,), None), (2.0, (5.0,), -3.0),
                         (0.7, (1.0,), -0.5), (1.5, (2.0, 3.0), None)):
        _record(out, f"steen_v/x={x}/a={params}/c={c}", lambda: oracle.steen_v(x, params, c=c))
    return out


def diff(before, after):
    """Lines naming each key that is missing on one side or whose value differs.

    A value that moved is listed with its absolute change, the larger of its
    two recorded scales, and the change in units of that scale.
    """
    lines = []
    for key in sorted(set(before) | set(after)):
        a, b = before.get(key), after.get(key)
        if isinstance(a, list) and isinstance(b, list):
            if a[:2] == b[:2]:
                continue
            va, vb = (complex(float.fromhex(v[0]), float.fromhex(v[1])) for v in (a, b))
            delta = abs(va - vb)
            scale = max(float.fromhex(a[2]), float.fromhex(b[2]))
            lines.append(f"{key}: abs {delta:.2e}, scale {scale:.2e}, "
                         f"{delta / max(scale, 1e-300):.2e} of scale")
        elif a != b:
            lines.append(f"{key}: {a!r} -> {b!r}")
    return lines


def main(argv):
    if len(argv) == 3 and argv[0] == "--diff":
        with open(argv[1]) as fa, open(argv[2]) as fb:
            before, after = json.load(fa), json.load(fb)
        lines = diff(before, after)
        print("\n".join(lines))
        print(f"{len(after) - len(lines)} of {len(after)} values bit-identical")
        return 1 if lines else 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(argv[0]))
    values = snapshot()
    with open(argv[1], "w") as fh:
        json.dump(values, fh, indent=0, sort_keys=True)
    package = os.path.dirname(sys.modules["zetatheta"].__file__)
    print(f"wrote {len(values)} values of {package} to {argv[1]}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
