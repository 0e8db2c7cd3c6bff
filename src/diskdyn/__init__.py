"""Iteration of holomorphic self-maps of the disk/ball and their half-plane models."""

from .errors import (
    DegenerateInputError,
    DiskDynError,
    DomainError,
    EstimationError,
    EvaluationError,
    ModelMismatchError,
    PreconditionError,
)
from .geometry import (
    BoundaryPoint,
    cayley_ball_to_siegel,
    cayley_disk_to_halfplane,
    cayley_halfplane_to_disk,
    cayley_siegel_to_ball,
    koranyi_quotient,
    pdist_ball,
    pdist_disk,
    pdist_halfplane,
    pdist_siegel,
    projection_nt_quotient,
    special_ratio,
    tangency_angle,
)
from .maps import (
    Composition,
    Conjugated,
    DiskMoebius,
    HalfplaneAffine,
    HalfplanePerturbed,
    HeisenbergTranslation,
    Identity,
    SiegelTranslation,
    ValidityReport,
    compose,
    evaluate,
    spec_from_dict,
    spec_to_dict,
    validate_self_map,
)
from .dynamics import (
    Budgets,
    ClassificationReport,
    Orbit,
    StepSeries,
    StoppingPolicy,
    classify,
    estimate_denjoy_wolff,
    estimate_multiplier,
    iterate,
    step_series,
)
from .conjugation import (
    ConjugationResult,
    baker_pommerenke_normalized,
    conjugation_report,
    default_grid,
    pommerenke_normalized,
)
from .diagnostics import (
    ApproachReport,
    HarnessReport,
    ProbeReport,
    approach_report,
    conjecture_probe,
    default_harness_suite,
    radial_quotient_series,
    theorem_harness,
)

__version__ = "0.1.0"
