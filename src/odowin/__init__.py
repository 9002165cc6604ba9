"""Toeplitz arrays from cut-and-project windows over group completions.

The package builds digit expansions with exact carry arithmetic over nested
congruence subgroups of residually finite groups, constructs boundary-heavy
windows in the associated completion as cylinder trees, emits the resulting
0-1 arrays as model sets, and verifies the structural claims (boundary
measure, genericity, irredundancy, self-similarity, regularity, fiber
cardinality) by exact finite-level computation.
"""

from . import presets
from .expansion import (
    CarryRange,
    DomainSequence,
    carry_mul,
    carry_ranges,
    reconstruct,
)
from .fibers import (
    FiberSet,
    SimilarityReport,
    TRegionResult,
    birkhoff_stats,
    boundary_hitters_exact,
    critical_point,
    enumerate_fiber,
    similarity_classes,
    t_region,
)
from .groups import (
    ConstructionError,
    GroupContext,
    HeisenbergGroup,
    PrecisionError,
    SubgroupChain,
    Z2Group,
    ZGroup,
    geometric_moduli,
    group_by_name,
)
from .model_sets import (
    PerSets,
    SymbolicPatch,
    classify,
    emit_patch,
    patch_jsonl,
    patch_pgm,
    per_sets,
    regularity,
)
from .odometer import (
    Cylinder,
    MetricResult,
    OdometerPoint,
    embed,
    haar,
    metric,
    odo_inv,
    odo_mul,
    points_equal,
    sample_point,
)
from .windows import (
    CLS_IN,
    CLS_OUT,
    CLS_PENDING,
    CylinderTree,
    Report,
    Window,
    WindowSpec,
    boundary_measure,
    build_k,
    build_ktilde,
    build_perf,
    check_boundary_stability,
    check_genericity,
    check_irredundancy,
    check_self_similarity,
    parse_window,
    serialize_window,
    vanhove_boundary,
    verify_window,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
