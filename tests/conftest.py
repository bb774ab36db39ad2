import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from zetatheta import critical_line, fields, inverse_theta

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="session")
def field_q():
    return fields.builtin_field("Q")


@pytest.fixture(scope="session")
def field_sqrt5():
    return fields.builtin_field("sqrt5")


@pytest.fixture(scope="session")
def field_cubic7():
    return fields.builtin_field("cubic7")


@pytest.fixture(scope="session")
def field_zeta5():
    return fields.builtin_field("zeta5")


@pytest.fixture(scope="session")
def field_gauss():
    return fields.builtin_field("gauss")


@pytest.fixture(scope="session")
def riemann_zeros_reference():
    """First 30 zeta zero ordinates from the checked-in reference file."""
    return inverse_theta.load_zeros(os.path.join(DATA_DIR, "riemann_zeros_30.txt"))


@pytest.fixture(scope="session")
def zeta5_zeros_reference():
    """The 35 zero ordinates t <= 30 of zeta5, from the checked-in reference file."""
    return inverse_theta.load_zeros(os.path.join(DATA_DIR, "zeta5_zeros_30.txt"))


@pytest.fixture(scope="session")
def scanned_zeros_q(field_q):
    """30 zeros of zeta produced by this package's own scanner."""
    result = critical_line.scan_zeros(field_q, 0.0, 102.0, 0.05)
    return inverse_theta.ZeroList(gammas=tuple(result.refined[:30]))


@pytest.fixture(scope="session")
def scanned_zeros_sqrt5(field_sqrt5):
    """Zeros of zeta_{Q(sqrt5)} on [0, 50] from the scanner."""
    result = critical_line.scan_zeros(field_sqrt5, 0.0, 50.0, 0.02)
    return inverse_theta.ZeroList(gammas=tuple(result.refined))


@pytest.fixture(scope="session")
def scanned_zeros_gauss(field_gauss):
    """Zeros of zeta_{Q(i)} on [0, 40] from the scanner."""
    result = critical_line.scan_zeros(field_gauss, 0.0, 40.0, 0.02)
    return inverse_theta.ZeroList(gammas=tuple(result.refined))


@pytest.fixture(scope="session")
def scanned_zeros_cubic7(field_cubic7):
    """Zeros of the cubic field of conductor 7 on [0, 30] from the scanner."""
    result = critical_line.scan_zeros(field_cubic7, 0.0, 30.0, 0.02)
    return inverse_theta.ZeroList(gammas=tuple(result.refined))
