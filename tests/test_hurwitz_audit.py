"""The Hurwitz bank and the L-factor jets against 30-digit mpmath: each error within its bound.

Every coefficient of zeta_H(s0 + e, a/q) and of L(s0 + e, chi) is checked
against mpmath.zeta(s, a, derivative=j) on one batch mixing heights on the
critical line (so the points share one shift, set by the highest) and with
three coefficients at real s.  Each bound is built at its own point, so on
the line it must also stay close to the error: the median bound/error of
the bank's coefficient 0 is checked per field.  An L-factor sums its
residues' bounds while their errors partly cancel, so its ratios run higher;
they are printed.  Run with `-s` to see them.
"""

import numpy as np
import pytest

from zetatheta import fields as fd
from zetatheta import numerics as nx

mpmath = pytest.importorskip("mpmath")

FIELDS = ("Q", "sqrt5", "cubic7", "zeta5", "gauss")
HEIGHTS = (0.0, 3.5, 14.1, 60.0, 141.0, 1000.0)


def _audit(field, centres, count):
    """(bank, its errors, mpmath's bank, factor jets, mpmath's factors) at the centres."""
    s0 = np.asarray(centres, dtype=complex)
    a_bank, rows = nx._character_bank(field.characters)
    shift = nx._hurwitz_shift(s0, nx._JET_RADIUS if count > 1 else 0.0)
    bank, error = nx._hurwitz_jet(s0, a_bank, shift, count)
    with mpmath.workdps(30):
        # the bank's a as the exact a/q it rounds
        exact = {a / chi.modulus: mpmath.mpf(a) / chi.modulus
                 for chi in field.characters for a in range(1, chi.modulus + 1)}
        want = np.array([[[mpmath.zeta(mpmath.mpc(s.real, s.imag), exact[a], derivative=j) / mpmath.factorial(j)
                           for j in range(count)] for s in s0] for a in a_bank])
        factors = []
        for chi, row in zip(field.characters, rows):
            q = chi.modulus
            hurwitz = sum(mpmath.mpc(v) * want[slot] for slot, v in row)
            power = np.array([[mpmath.mpf(q) ** -mpmath.mpc(s.real, s.imag) * (-mpmath.log(q)) ** j
                               / mpmath.factorial(j) for j in range(count)] for s in s0])
            factors.append(np.array([[complex(mpmath.fsum(power[i, m] * hurwitz[i, j - m]
                                                          for m in range(j + 1)))
                                      for j in range(count)] for i in range(len(s0))]))
    return bank, error, want.astype(complex), nx._l_factor_jets(field.characters, s0, count), factors


@pytest.mark.parametrize("name", FIELDS)
def test_bounds_hold_and_are_tight(name):
    field = fd.builtin_field(name)
    # one batch on the line: every point reads the shift of t = 1000
    bank, error, want, jets, refs = _audit(field, [0.5 + 1j * t for t in HEIGHTS], 1)
    miss = np.abs(bank - want)
    assert np.all(miss <= error), name
    ratios = (error / miss)[..., 0]
    median = float(np.median(ratios))
    print(f"{name} Hurwitz bank on the line: bound/error of coefficient 0, median {median:.3g}, "
          f"least {ratios.min():.3g}, medians per height "
          + ", ".join(f"t = {t}: {r:.3g}" for t, r in zip(HEIGHTS, np.median(ratios, axis=0))))
    assert median <= 100.0, name
    for chi, jet, ref in zip(field.characters, jets, refs):
        miss = np.abs(jet.coeffs - ref)
        assert np.all(miss <= jet.err), (name, chi.modulus)
        print(f"{name} chi mod {chi.modulus} on the line: bound/error of c_0 "
              f"{(jet.err / np.maximum(miss, 1e-300))[:, 0].round(0).tolist()}")
    # three coefficients at real s, each read by Cauchy on its disc for j >= 1
    bank, error, want, jets, refs = _audit(field, [2.0, 3.0, 5.0], 3)
    assert np.all(np.abs(bank - want) <= error), name
    for chi, jet, ref in zip(field.characters, jets, refs):
        miss = np.abs(jet.coeffs - ref)
        assert np.all(miss <= jet.err), (name, chi.modulus)
        print(f"{name} chi mod {chi.modulus} at s = 2, 3, 5: bound/error of c_0 .. c_2 >= "
              f"{np.min(jet.err / np.maximum(miss, 1e-300), axis=0).round(1).tolist()}")


def test_log_within_its_model():
    # the bank's error charges log(n + a) nx._LOG_ULPS ulps: check numpy's log on the
    # arguments of every builtin bank up to the shift of t = 1000
    x = np.concatenate([np.arange(700) + a for name in FIELDS
                        for a in nx._character_bank(fd.builtin_field(name).characters)[0]])
    got = np.log(x)
    ulp = np.spacing(np.abs(got))
    with mpmath.workdps(30):
        miss = np.array([float(abs(mpmath.mpf(g) - mpmath.log(mpmath.mpf(v)))) for g, v in zip(got, x)])
    assert np.all(miss <= nx._LOG_ULPS * ulp), float(np.max(miss / np.maximum(ulp, 1e-300)))
