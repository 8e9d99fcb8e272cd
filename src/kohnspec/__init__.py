"""Exact Kohn Laplacian spectra on odd spheres and lens spaces.

Computes eigenspace dimensions and eigenvalue multiplicities in exact
integer arithmetic, samples the lens/sphere Weyl ratio, validates the
counting-bound inequalities, and decides CR isometry/isospectrality of
3-dimensional lens spaces.
"""
from .core import (
    DEFAULT_BUDGET,
    DimensionTooSmall,
    DomainViolation,
    InsufficientSamples,
    InvalidEigenvalue,
    InvalidOrder,
    InvalidWeight,
    KohnSpecError,
    LensSpace,
    MismatchedSpaces,
    NonConvergence,
    ResourceLimit,
    UnsupportedDimension,
    format_lens_spec,
    gcd_invariant,
    make_lens_space,
    parse_lens_spec,
)
from .sphere import dim_hpq, eigenvalue, sphere_counting
from .invariant import (
    MNCounts,
    base_dim_table,
    dim_invariant,
    dim_invariant_bruteforce,
    dim_invariant_dp,
    dim_invariant_recurrence,
    exponent_profile,
    mn_counts,
)
from .spectrum import (
    Contributor,
    SpectrumTable,
    build_spectrum,
    lens_counting,
    multiplicity,
    multiplicity_table,
)
from .asymptotics import (
    BoundCheck,
    BoundParams,
    QuadratureConfig,
    RatioSample,
    RemainderSample,
    check_lower_bound,
    check_upper_bound,
    lemma_ratio_decay,
    remainder_experiment,
    sphere_volume,
    universal_constant,
    weyl_constant_experiment,
    weyl_ratio_series,
)
from .isospectral import (
    CMatrix,
    IsometryWitness,
    c_matrix,
    classify_all,
    condition4_witness,
    d_invariant_check,
    dims_equal,
    span_dimension,
    spectra_equal_up_to,
    t_apply,
    t_inverse,
    verify_witness,
)
from .genfunc import (
    genfunc_closed,
    genfunc_series,
    independence_probe,
    max_deviation,
    unit_disk_points,
)

__version__ = "0.1.0"
