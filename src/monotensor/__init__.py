"""Moments of monotone and cyclic-monotone families, with matrix models.

The package has three layers:

- symbolic words and polynomials in two families of letters, with the
  centering quotient that splits a polynomial into the words that
  survive either functional and the words both annihilate
  (``words``, ``moments``);
- a finite-dimensional tensor model whose diagonal states reproduce both
  functionals exactly, taken on its reachable blocks (``model``);
- randomized conjugation experiments that approach the same targets at
  a 1/n rate (``haar``), plus shared linear algebra, sampling, and
  report formatting helpers.
"""
from .linalg import (
    embed_top_corner,
    hermitian_eigenvalues,
    is_hermitian,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    qr_unitary,
    trace,
)
from .words import (
    CenteredRun,
    IdealMembershipError,
    Letter,
    MissingMomentError,
    NCPolynomial,
    ParseError,
    a,
    b,
    b_centered,
    center_expand,
    parse_polynomial,
    quotient_map,
    split_runs,
)
from .moments import (
    AFamilyMoments,
    BMomentTable,
    CYCLIC_SIGN_PATTERN,
    MONOTONE_SIGN_PATTERN,
    MomentData,
    OrthonormalState,
    SignPatternReport,
    cyclic_moment,
    moment_via_quotient,
    monotone_moment,
    quotient_check,
    sign_pattern_check,
)
from .model import (
    ExamplePair,
    LimitSweepReport,
    ModelSpec,
    TensorModel,
    VerifyReport,
    build_example_pair,
    build_model,
    evaluate_state,
    limit_sweep,
    model_spec_from_json_obj,
    verify_cyclic,
    verify_monotone,
)
from .sampling import (
    complex_gaussians,
    random_alternating_poly,
    random_hermitian,
    random_model_spec,
    stream,
)
from .haar import (
    CornerFamily,
    DiagPatternFamily,
    HaarWordSpec,
    McReport,
    RateFit,
    mc_estimate,
    parse_word,
    rate_check,
    sample_haar_rows,
)
from .reports import canonical_json, emit_report, render_csv, write_text

__version__ = "0.1.0"

__all__ = [
    "AFamilyMoments",
    "BMomentTable",
    "CYCLIC_SIGN_PATTERN",
    "CenteredRun",
    "CornerFamily",
    "DiagPatternFamily",
    "ExamplePair",
    "HaarWordSpec",
    "IdealMembershipError",
    "Letter",
    "LimitSweepReport",
    "McReport",
    "MissingMomentError",
    "ModelSpec",
    "MomentData",
    "MONOTONE_SIGN_PATTERN",
    "NCPolynomial",
    "OrthonormalState",
    "ParseError",
    "RateFit",
    "SignPatternReport",
    "TensorModel",
    "VerifyReport",
    "a",
    "b",
    "b_centered",
    "build_example_pair",
    "build_model",
    "canonical_json",
    "center_expand",
    "complex_gaussians",
    "cyclic_moment",
    "embed_top_corner",
    "emit_report",
    "evaluate_state",
    "hermitian_eigenvalues",
    "is_hermitian",
    "limit_sweep",
    "matrix_from_json",
    "matrix_to_json",
    "mc_estimate",
    "model_spec_from_json_obj",
    "moment_via_quotient",
    "monotone_moment",
    "parse_polynomial",
    "parse_word",
    "partial_trace",
    "qr_unitary",
    "quotient_check",
    "quotient_map",
    "random_alternating_poly",
    "random_hermitian",
    "random_model_spec",
    "rate_check",
    "render_csv",
    "sample_haar_rows",
    "sign_pattern_check",
    "split_runs",
    "stream",
    "trace",
    "verify_cyclic",
    "verify_monotone",
    "write_text",
]
