"""Exact computer algebra for skew cyclic codes over F_q + vF_q + v^2F_q (v^3 = v)."""

from .finite_field import Field, FieldElem
from .ring_r import (
    RingElem,
    crt_join,
    crt_split,
    gray_map,
    gray_inverse,
    lee_distance,
    lee_weight,
    make_idempotents,
)
from .skew_poly import (
    Factorization,
    SkewPoly,
    extended_gcd_commutative,
    factor_xn_minus_1,
    is_right_divisor_of_xn_minus_1,
    monic_right_divisors,
    poly_from_string,
    poly_to_string,
    right_divide,
    ring_skew_poly_combine,
    project_components,
    skew_mul,
)
from .codes import (
    ComponentCode,
    SkewCyclicCode,
    census,
    code_from_components,
    component_code_new,
    count_skew_cyclic_codes,
    skew_shift,
)
from .oracle import (
    Bounds,
    TestMatrixEntry,
    VerdictReport,
    oracle_code_enumerate,
    verify_all,
)

__version__ = "0.1.0"
