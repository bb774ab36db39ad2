"""Numerical verification of theta relations and critical-line zeros for
Dedekind zeta functions of abelian number fields."""

from .errors import ZetaThetaError
from .fields import (
    CoefficientTable,
    DirichletCharacter,
    FieldDescriptor,
    builtin_field,
    ideal_coeffs,
    laurent_constant,
    make_field_abelian,
    moebius_coeffs,
    power_coeffs,
    residue_constant,
)
from .numerics import (
    LogPolynomial,
    dedekind_zeta,
    dirichlet_l,
    hurwitz_zeta,
)
from .steen import z_shifted, z_tail_bound, z_tilde
from .theta import (
    Report,
    check_theta,
    r0_theta,
    s_series,
    w_theta,
)
from .inverse_theta import (
    ZeroList,
    check_inverse_theta,
    dgv_check,
    hlr_check,
    l_series,
    load_zeros,
    r0_inverse,
    r_rho,
    u_inverse,
    write_zeros,
    zero_sum,
)
from .critical_line import (
    ScanResult,
    big_xi,
    phi_identity_check,
    scan_zeros,
    xi_completed,
)

__version__ = "0.1.0"
