"""charp: exact commutative algebra in prime characteristic.

Sparse polynomial arithmetic and Groebner bases over F_p, quotient-ring
presentations with regular-sequence checks, Frobenius bracket powers and
closure chains with soundness certificates, Q-numbers, a census driver for
uniform-bound experiments, and Cech-style top local cohomology with the
Frobenius skew action.
"""

__version__ = "0.1.0"

from .poly import (
    GREVLEX,
    LEX,
    DegreeCapExceeded,
    MonomialOrder,
    Polynomial,
    PolyRing,
    RingMismatchError,
    block_order,
    divide_exact,
    frobenius_power,
    frobenius_root,
    frobenius_substitute,
    is_prime,
    set_degree_cap,
)
from .parse import PolyParseError, parse_polynomial
from .groebner import (
    Ideal,
    buchberger,
    normal_form,
    s_polynomial,
)
from .linalg import DenseMembershipOracle, membership_oracle
from .quotient import QuotientRing, RegularSequenceCheck
from .frobenius import (
    CensusReport,
    CensusRow,
    ClosureChainReport,
    NotStabilizedError,
    STATUS_NOT_STABILIZED,
    STATUS_STABLE,
    bracket_power,
    closure_step,
    frobenius_closure,
    frobenius_power_family,
    frobenius_preimage,
    instantiate_template,
    q_number,
    run_census,
    uniform_census,
)
from .cohomology import (
    CechClass,
    EtaReport,
    InvalidSequenceError,
    cech_class,
    cech_equal,
    cech_is_zero,
    eta_estimate,
    f_injective_flag,
    parameter_ideal_check,
    scale,
    torsion_order,
    x_act,
)
from .ringfile import RingFile, RingFileError, parse_ring_file, print_ring_file

__all__ = [
    "GREVLEX", "LEX", "MonomialOrder", "block_order", "is_prime",
    "PolyRing", "Polynomial", "RingMismatchError", "DegreeCapExceeded",
    "divide_exact", "frobenius_power", "frobenius_root", "frobenius_substitute",
    "set_degree_cap",
    "PolyParseError", "parse_polynomial",
    "Ideal", "buchberger", "normal_form", "s_polynomial",
    "DenseMembershipOracle", "membership_oracle",
    "QuotientRing", "RegularSequenceCheck",
    "bracket_power", "frobenius_preimage", "closure_step", "frobenius_closure",
    "q_number", "ClosureChainReport", "NotStabilizedError",
    "STATUS_STABLE", "STATUS_NOT_STABILIZED",
    "CensusRow", "CensusReport", "instantiate_template", "frobenius_power_family",
    "run_census", "uniform_census",
    "CechClass", "cech_class", "cech_is_zero", "cech_equal", "x_act", "scale",
    "torsion_order", "EtaReport", "eta_estimate", "f_injective_flag",
    "parameter_ideal_check", "InvalidSequenceError",
    "RingFile", "RingFileError", "parse_ring_file", "print_ring_file",
]
