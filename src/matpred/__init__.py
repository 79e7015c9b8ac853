"""Online matrix prediction: multiplicative weights over decomposable
matrix classes, with problem adapters for online max-cut, gambling, and
collaborative filtering."""

from .decompose import (
    CutSet,
    Decomposition,
    Permutation,
    decompose_cut,
    decompose_permutation,
    decompose_trace_norm,
    decompose_triangular,
    validate,
)
from .linalg import eig_sym, inner, qre, symmetrize, trace_norm
from .mmw import ConstraintSet, LinConstraint, project_qre
from .omp import OmpConfig, OmpSession, new_session, omp_round
from .problems import LossFn, cf_config, gambling_config, maxcut_config

__all__ = [
    "CutSet", "Decomposition", "Permutation",
    "decompose_cut", "decompose_permutation", "decompose_trace_norm",
    "decompose_triangular", "validate",
    "eig_sym", "inner", "qre", "symmetrize", "trace_norm",
    "ConstraintSet", "LinConstraint", "project_qre",
    "OmpConfig", "OmpSession", "new_session", "omp_round",
    "LossFn", "cf_config", "gambling_config", "maxcut_config",
]
