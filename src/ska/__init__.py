"""Forward-only entropy-driven learning.

Continuous-time weight dynamics integrated with explicit Euler steps, the
trajectory metric suite (entropy, alignment, knowledge flow, tensor net),
characteristic-time invariance comparisons across step sizes, and numeric
checks of the variational form of the entropy.
"""

__version__ = "0.1.0"

from .data import (
    Dataset,
    constant_dataset,
    from_idx,
    glyph_dataset,
    synthetic_blobs,
)
from .dynamics import (
    Network,
    NetworkConfig,
    entropy_gradient,
    forward,
    init_network,
    run,
    sigmoid,
    step,
)
from .invariance import (
    compare,
    resample_common_grid,
    run_family,
)
from .metrics import (
    TrajectoryTrace,
    entropy_step,
    find_entropy_minimum,
    find_flow_peak,
    find_zero_crossings,
    net_step,
)
from .variational import (
    UnitTrajectory,
    action_entropy,
    el_residual,
    entropy_by_definition,
    extract_unit_trajectories,
    lagrangian,
    net_action_identity,
)

__all__ = [
    "__version__",
    "Dataset",
    "constant_dataset",
    "from_idx",
    "glyph_dataset",
    "synthetic_blobs",
    "Network",
    "NetworkConfig",
    "entropy_gradient",
    "forward",
    "init_network",
    "run",
    "sigmoid",
    "step",
    "compare",
    "resample_common_grid",
    "run_family",
    "TrajectoryTrace",
    "entropy_step",
    "find_entropy_minimum",
    "find_flow_peak",
    "find_zero_crossings",
    "net_step",
    "UnitTrajectory",
    "action_entropy",
    "entropy_by_definition",
    "el_residual",
    "extract_unit_trajectories",
    "lagrangian",
    "net_action_identity",
]
