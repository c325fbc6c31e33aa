"""Discrete self-dual / anti-self-dual lattice fields on Z^4.

Matrix-valued cochains on finite 4-dimensional windows, the shifted
difference curvature of a connection, a combinatorial Hodge star in
Euclidean and Minkowski signatures, exact duality identity checks, and a
quasi-Newton solver for the duality residual.

The package namespace holds what the CLI, the identity checks and the
library tour in the README use; everything else stays in its module.
"""
from __future__ import annotations

from .algebra import is_sl2c, is_su2, random_algebra
from .cochain import (
    PLANES,
    ConnectionField,
    CurvatureField,
    GaugeField,
    diagonal_shift,
    max_entry,
    shifted_read,
)
from .curvature import (
    constant_connection,
    curvature,
    diag_invariant_slice,
    pure_gauge,
    random_connection,
    random_gauge,
    zero_connection,
)
from .duality import (
    CONSISTENT,
    DualityProblem,
    check_diagonal_relation,
    residual,
    residual_componentwise,
    scalar_residual,
    synthetic_dual_curvature,
    verify_triviality_theorem,
)
from .fieldio import FieldIOError, load, save
from .hodge import double_star, star
from .lattice import Window
from .solver import SolveConfig, gradient_coefficients, objective, solve

__all__ = [
    "CONSISTENT",
    "ConnectionField",
    "CurvatureField",
    "DualityProblem",
    "FieldIOError",
    "GaugeField",
    "PLANES",
    "SolveConfig",
    "Window",
    "check_diagonal_relation",
    "constant_connection",
    "curvature",
    "diag_invariant_slice",
    "diagonal_shift",
    "double_star",
    "gradient_coefficients",
    "is_sl2c",
    "is_su2",
    "load",
    "max_entry",
    "objective",
    "pure_gauge",
    "random_algebra",
    "random_connection",
    "random_gauge",
    "residual",
    "residual_componentwise",
    "save",
    "scalar_residual",
    "shifted_read",
    "solve",
    "star",
    "synthetic_dual_curvature",
    "verify_triviality_theorem",
    "zero_connection",
]
