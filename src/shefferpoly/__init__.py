"""Exact computer algebra for Sheffer polynomial families on Legendre and
Gould-Hopper bases: truncated power series over the rationals, a formal
operator calculus, the classical pair catalog, and verification suites for
the families' quasi-monomial structure."""

from .checks import Check
from .multipoly import BadExponent, MultiPoly, poly_latex, poly_str
from .series import (
    ConstantTermNotOne,
    NonScalarCoefficient,
    NonzeroConstantTerm,
    NotDeltaSeries,
    OrderTooSmall,
    Series,
    SeriesError,
    ZeroConstantTerm,
)
from .operators import (
    CutoffRequired,
    LinOp,
    NonNilpotentGenerator,
    OpSeries,
    commutator_check,
    compose,
    crofton_check,
    deriv,
    exp_operator,
    identity,
    inv_deriv,
    mul_poly,
    mul_var,
    op_pow,
    op_sum,
    scale,
    substitute_operators,
)
from .pairs import ShefferPair, catalog, get_pair, pair_names
from .families import (
    gould_hopper,
    leghp_R,
    leghp_S,
    legendre_R,
    legendre_S,
    sheffer_poly,
    tricomi_c,
    umbral_pairing,
)
from .mixed import (
    MixedFamily,
    REDUCTIONS,
    UnknownReduction,
    theta_operator,
)
from .oracle import (
    UnknownSuite,
    cross_validate,
    lagrange_inverse,
    oracle_series_product,
)

__version__ = "0.1.0"

__all__ = [
    "MultiPoly", "BadExponent", "poly_latex", "poly_str",
    "Series", "SeriesError", "NonzeroConstantTerm", "ConstantTermNotOne",
    "ZeroConstantTerm", "NotDeltaSeries", "OrderTooSmall", "NonScalarCoefficient",
    "LinOp", "OpSeries", "CutoffRequired", "NonNilpotentGenerator",
    "deriv", "inv_deriv", "mul_var", "mul_poly", "scale", "identity",
    "compose", "op_sum", "op_pow", "commutator_check", "crofton_check",
    "exp_operator", "substitute_operators",
    "ShefferPair", "catalog", "get_pair", "pair_names",
    "gould_hopper", "tricomi_c", "legendre_S", "legendre_R",
    "leghp_S", "leghp_R", "sheffer_poly", "umbral_pairing",
    "Check", "MixedFamily", "REDUCTIONS",
    "UnknownReduction", "theta_operator",
    "UnknownSuite", "cross_validate", "oracle_series_product", "lagrange_inverse",
    "__version__",
]
