"""Free n-dimensional rigid body: dynamics, stationary rotations, stability.

The package simulates the momentum flow dM/dt = [M, W] with M = W J + J W
on skew-symmetric matrices, classifies stationary rotations into regular
(principal-axis) and exotic ones, generates both kinds, and probes their
stability and non-isolation numerically.
"""

from .linalg import (
    sym,
    skew,
    SkewMatrix,
    eigen_symmetric,
)
from .body import (
    InertiaSpec,
    Trajectory,
    IntegrationAbort,
    casimirs,
    manakov_labels,
    compute_invariants,
    integrate,
)
from .equilibria import (
    ClassificationError,
    NotAnEquilibrium,
    AmbiguousClustering,
    FrequencyBlock,
    standard_structure,
    random_structure,
    EquilibriumStructure,
    is_equilibrium,
    classify,
    generate,
)
from .stability import (
    LinearizationReport,
    OrbitKernelReport,
    ProbeResult,
    linearize,
    orbit_kernel,
    stabilizer_dimension,
    instability_probe,
)
from .scenario import Scenario, scenario_from_doc, run_scenario
from .serialize import SchemaError

__version__ = "0.1.0"
