"""Exact elimination of x2 from pairs of bivariate Ore polynomials over
finite fields, by skew Sylvester determinants (direct) or by operator
evaluation and Moore interpolation (modular)."""

from .errors import (
    BadEvaluation,
    BothConstant,
    BothZero,
    ContextMismatch,
    DegreeMismatch,
    DivisionByZero,
    EqualRows,
    IndexOutOfRange,
    NotAnExtension,
    NotPrime,
    OreError,
    ParseError,
    PlanFailure,
    ReducibleModulus,
    RingMismatch,
    SingularMooreSystem,
    ZeroElement,
    ZeroPolynomial,
)
from .field import (
    NEG_INF,
    Automorphism,
    FieldCtx,
    FieldElem,
    FieldEmbedding,
    field_new,
    sigma_norm,
)
from .modres import (
    ModularPlan,
    PartialEval,
    chain_evaluate,
    check_bad_eval,
    embed_bivar,
    embed_uni,
    extend_field,
    partial_evaluations,
    plan_modular,
    res_x2_modular,
)
from .ore_bivar import BivarOrePoly, BivarRing
from .ore_uni import OrePoly, OreRing, gcrd
from .parsing import (
    make_rings,
    parse_bivar_poly,
    parse_element,
    parse_field_spec,
    parse_ore_poly,
)
from .resultant import (
    res_x2_direct,
    sylvester_degree_bound,
    sylvester_matrix,
)
from .skewdet import (
    AddMulOp,
    DetResult,
    OreMatrix,
    SurrogateVerdict,
    SwapSignedOp,
    apply_op_log,
    dieudonne_det,
    surrogates_equal,
    triangularize_with_log,
)

__version__ = "0.1.0"
