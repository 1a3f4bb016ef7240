"""Phase-field gradient-flow simulation and verification laboratory.

Three flows share one discrete framework: mass-conserving Cahn-Hilliard
transport with nonlinear diffusion, the conserved Allen-Cahn relaxation, and
the nonlocal convolution-kernel Cahn-Hilliard model, all driven by a singular
(logarithmic) mixing potential.  The package integrates them with an
energy-stable scheme and checks the structural properties the models promise:
exact mass conservation, per-step energy dissipation, strict pointwise bounds,
good-time measure bounds, level-set separation certificates, and
convergence-to-equilibrium diagnostics.
"""

__version__ = "0.1.0"

from .grid import (
    Grid,
    Field,
    KernelMatrix,
    inner,
    norm_l2,
    norm_h1_semi,
    norm_hminus1,
    save_field,
    load_field,
)
from .physics import (
    PotentialSpec,
    MobilitySpec,
    DiffusionSpec,
    KernelSpec,
    ModelConfig,
    cahn_hilliard,
    conserved_allen_cahn,
    nonlocal_cahn_hilliard,
    chemical_potential,
    energy,
    dissipation_rate,
)
from .dynamics import State, StepperConfig, Trajectory, step, run
from .stationary import (
    EquilibriumState,
    solve_equilibrium,
    separation_bound,
    equilibrium_seeds,
)
from . import analysis

__all__ = [
    "Grid",
    "Field",
    "KernelMatrix",
    "inner",
    "norm_l2",
    "norm_h1_semi",
    "norm_hminus1",
    "save_field",
    "load_field",
    "PotentialSpec",
    "MobilitySpec",
    "DiffusionSpec",
    "KernelSpec",
    "ModelConfig",
    "cahn_hilliard",
    "conserved_allen_cahn",
    "nonlocal_cahn_hilliard",
    "chemical_potential",
    "energy",
    "dissipation_rate",
    "State",
    "StepperConfig",
    "Trajectory",
    "step",
    "run",
    "EquilibriumState",
    "solve_equilibrium",
    "separation_bound",
    "equilibrium_seeds",
    "analysis",
]
