"""Exact symbolic engine for lambda-bracket algebras, Lie pseudoalgebras in D
variables and higher-dimensional vertex Lie algebra data.

Everything is computed over the rationals with no floating point anywhere, so
every axiom check is a hard symbolic-zero assertion (or an exact comparison
on a declared truncation window).
"""

from . import cone, pseudo, rings, vla
from .cone import (
    BiConeSeries,
    ConeSeries,
    FULL_WINDOW,
    Kernel,
    Window,
    basis_poly_in,
    bicone_from_poly,
    cone_from_poly,
    gauss_decompose,
    h_dim,
    harmonic_basis,
    iota_antisym,
    iota_expand,
    iota_kernel,
)
from .errors import TruncationError, WorkspaceError
from .ope1d import (
    DeltaDistribution,
    JthProductList,
    LaurentTerm,
    commutator_from_lambda,
    delta_mul_pow,
    delta_pair,
    jth_from_lambda,
    lambda_from_jth,
    locality_check,
)
from .pseudo import (
    BracketTable,
    ChiVector,
    LambdaPoly,
    LieStructure,
    ModuleElement,
    bracket_extend,
    build_cur,
    build_hd,
    build_wd,
    current_extend,
    jacobi_check,
    pseudo_space,
    sd_basis,
    sd_closure_check,
    sd_divergence,
    skew_check,
)
from .report import CheckReport, Failure
from .rings import FAMILIES, Poly, VarSpace
from .vla import (
    VLAStructure,
    apply_exp_zT,
    borcherds_check,
    d1_bridge,
    extend_action,
    jacobi_check_vla,
    skew_check_vla,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every module-level ``lru_cache`` of rings, cone, pseudo and vla:
    these memo tables are unbounded, and refill on demand with the same values."""
    for module in (rings, cone, pseudo, vla):
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == module.__name__:
                value.cache_clear()


__all__ = [
    "BiConeSeries", "BracketTable", "CheckReport", "ChiVector", "ConeSeries",
    "DeltaDistribution", "FAMILIES", "FULL_WINDOW", "Failure",
    "JthProductList", "Kernel", "LambdaPoly", "LaurentTerm", "LieStructure",
    "ModuleElement", "Poly", "TruncationError", "VLAStructure", "VarSpace",
    "Window", "WorkspaceError", "apply_exp_zT", "basis_poly_in",
    "bicone_from_poly", "borcherds_check", "bracket_extend", "build_cur", "build_hd", "build_wd",
    "clear_caches", "commutator_from_lambda", "cone_from_poly", "current_extend",
    "d1_bridge", "delta_mul_pow", "delta_pair", "extend_action",
    "gauss_decompose", "h_dim", "harmonic_basis", "iota_antisym",
    "iota_expand", "iota_kernel", "jacobi_check", "jacobi_check_vla",
    "jth_from_lambda", "lambda_from_jth", "locality_check", "pseudo_space",
    "sd_basis", "sd_closure_check", "sd_divergence", "skew_check",
    "skew_check_vla",
]
