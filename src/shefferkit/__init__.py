"""Multivariate Sheffer sequences as graded coefficient transforms, with a
norm-bound verification harness."""

from .engine import (
    BinomialReport,
    DegreeOverflowError,
    PolynomialOnDual,
    ShefferSequence,
    binomial_check,
    build_basic,
    build_sheffer,
    load_sequence,
    random_polynomial,
    save_sequence,
    sheffer_apply,
    sheffer_inverse_apply,
)
from .families import FamilySpec, lift_1d, make_family
from .norms import (
    BoundReport,
    GradedNorm,
    PreconditionError,
    ProbeReport,
    SweepReport,
    appell_condition_check,
    coeff_norm,
    divergence_sweep,
    embedding_check,
    graded_block_norms,
    operator_bound_check,
    quasi_holo_probe,
    sup_norm_estimate,
)
from .series import (
    ScalarSeries,
    VectorSeries,
    monomial_basis,
    ps_compose,
    ps_derivative,
    ps_exp,
    ps_log,
    ps_mul,
    ps_recip,
    vs_compose,
    vs_inverse,
)
from .symtensor import (
    SymCoeff,
    WeightedInnerProduct,
    sym_contract,
    sym_norm,
    sym_product,
    to_dense,
)

__version__ = "0.1.0"
