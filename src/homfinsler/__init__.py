"""Curvature of reductive homogeneous Finsler spaces with (alpha, beta)-metrics.

The package computes the S-curvature and the mean Berwald curvature at the
origin of a reductive homogeneous space described by Lie-algebra structure
constants, for metrics F = alpha * phi(beta/alpha).  Closed-form evaluation
routes, for every exact profile (the five built-ins and the polynomials), are
cross-checked against a generic route and numerical oracles.
"""

from .algebra import (
    CheckResult,
    InvariantVector,
    OriginTensors,
    ReductiveModel,
    StructureConstants,
    ValidationReport,
    bracket_m,
    build_model,
    orthonormal_frame,
    origin_tensors,
    validate_model,
)
from .catalog import CatalogEntry, get as catalog_get, names as catalog_names
from .curvature import (
    CoefficientBundle,
    IsotropyReport,
    TranscriptionAudit,
    coefficients_exponential,
    coefficients_generic,
    coefficients_infinite_series,
    isotropy_test,
    mean_berwald,
    s_curvature,
    s_curvature_via_tensors,
    transcription_audit,
    unit_directions,
)
from .errors import (
    ConfigError,
    DomainError,
    FinslerError,
    QuadratureError,
    SingularityError,
    ValidatedModeError,
)
from .metrics import MetricSpec, PhiFamily, ShenReport, finsler_norm, phi_family, shen_check
from .volume import t_function, volume_coefficient

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "CheckResult",
    "CoefficientBundle",
    "ConfigError",
    "DomainError",
    "FinslerError",
    "InvariantVector",
    "IsotropyReport",
    "MetricSpec",
    "OriginTensors",
    "PhiFamily",
    "QuadratureError",
    "ReductiveModel",
    "ShenReport",
    "SingularityError",
    "StructureConstants",
    "TranscriptionAudit",
    "ValidatedModeError",
    "ValidationReport",
    "bracket_m",
    "build_model",
    "catalog_get",
    "catalog_names",
    "coefficients_exponential",
    "coefficients_generic",
    "coefficients_infinite_series",
    "finsler_norm",
    "isotropy_test",
    "mean_berwald",
    "orthonormal_frame",
    "origin_tensors",
    "phi_family",
    "s_curvature",
    "s_curvature_via_tensors",
    "shen_check",
    "t_function",
    "transcription_audit",
    "unit_directions",
    "validate_model",
    "volume_coefficient",
]
