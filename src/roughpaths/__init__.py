"""Rough-path analysis toolkit: signatures, path seminorms on the
Hoelder/variation/Nikolskii scale, inhomogeneous rough-path distances,
controlled differential equation solvers, and a verification harness."""

from .exceptions import (
    BlowUpError,
    CsvFormatError,
    DimensionMismatchError,
    GridMismatchError,
    NonUniformGridError,
    ParameterError,
    PartitionSizeError,
    RoughPathsError,
)
from .tensor_core import (
    MAX_DEPTH,
    MAX_ENTRIES,
    GroupElement,
    TruncatedTensor,
    dilate,
    group_distance,
    group_inverse,
    group_mul,
    grouplike_defect,
    homogeneous_norm,
    identity_element,
    segment_exp,
    tensor_mul,
    unit_tensor,
    zero_tensor,
)
from .paths import (
    EuclideanPath,
    GroupPath,
    TimeGrid,
    increment,
    level1_path,
    lift,
    resample_uniform,
    signature,
    time_reversed,
)
from .norms import (
    P_INF,
    NormKind,
    NormSpec,
    compute_norm,
    frac_sobolev_norm,
    holder_norm,
    mixed_norm,
    nikolskii_norm,
    qvar_norm,
    refined_nikolskii_norm,
    riesz_norm,
)
from .distances import (
    DistKind,
    rho_aggregate,
    rho_level,
    rho_mixed_level,
    rho_nikolskii_hat_level,
    rho_qvar_level,
    rho_riesz_level,
)
from .rde import (
    FieldFamily,
    RdeConfig,
    Scheme,
    VectorField,
    ito_lyons,
    solve_bv,
    solve_rough,
)

__version__ = "0.1.0"
