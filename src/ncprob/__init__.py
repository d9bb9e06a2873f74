"""Transform calculus for classical, free, Boolean and monotone convolutions.

Atomic measures on the line and the circle, their half-plane and disk
transforms, the four additive convolutions with exact or grid-numerical
power engines, the infinitely divisible families of a Levy triple, and a
triangular-array harness that checks the limit-theorem correspondence
between the four convolutions at desk scale.
"""

from .convolutions import (
    boolean_convolve,
    boolean_power,
    classical_convolve,
    classical_power_cf,
    free_convolve,
    free_power_grid,
    monotone_convolve,
    monotone_power_grid,
)
from .errors import (
    ConvergenceError,
    FlowError,
    NumericalError,
    RecoveryError,
    ValidationError,
    ZeroMeanError,
)
from .harness import (
    ArraySpec,
    bp_crosscheck,
    chernoff_residual,
    condition_e,
    run_powers,
    subprobability_equivalence,
)
from .idiv import (
    LevyTriple,
    boolean_idiv,
    classical_idiv_cf,
    flow_distance_bound,
    flow_map,
    free_idiv,
    monotone_idiv,
    monotone_idiv_eval,
    monotone_idiv_flow,
    phi_eval,
)
from .measures import CircleMeasure, FiniteAtomicMeasure
from .transforms import (
    NevanlinnaData,
    TransformGrid,
    ZR,
    cauchy_G,
    e_transform,
    f_transform,
    recover_measure,
    stieltjes_invert,
    voiculescu_phi,
    weak_distance,
)

__version__ = "0.1.0"

__all__ = [
    "ArraySpec",
    "CircleMeasure",
    "ConvergenceError",
    "FiniteAtomicMeasure",
    "FlowError",
    "LevyTriple",
    "NevanlinnaData",
    "NumericalError",
    "RecoveryError",
    "TransformGrid",
    "ValidationError",
    "ZR",
    "ZeroMeanError",
    "boolean_convolve",
    "boolean_idiv",
    "boolean_power",
    "bp_crosscheck",
    "cauchy_G",
    "chernoff_residual",
    "classical_convolve",
    "classical_idiv_cf",
    "classical_power_cf",
    "condition_e",
    "e_transform",
    "f_transform",
    "flow_distance_bound",
    "flow_map",
    "free_convolve",
    "free_idiv",
    "free_power_grid",
    "monotone_convolve",
    "monotone_idiv",
    "monotone_idiv_eval",
    "monotone_idiv_flow",
    "monotone_power_grid",
    "phi_eval",
    "recover_measure",
    "run_powers",
    "stieltjes_invert",
    "subprobability_equivalence",
    "voiculescu_phi",
    "weak_distance",
]
