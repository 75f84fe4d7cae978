"""Conclusive teleportation of d-dimensional states via joint POVMs.

The library builds the non-orthogonal measurement basis of a partially
entangled pure channel, assembles the identifying POVM with its positivity
bound, evaluates Haar-average fidelities exactly through second-moment
identities, simulates the protocol run by run, and realizes the POVM as an
orthogonal measurement on an ancilla-extended space.
"""

from .channel import (
    SchmidtChannel,
    basis_states,
    dual_states,
    make_channel,
    qubit_channel_from_cos_theta,
)
from .dilation import DilationResult, dilate, dilated_channel_maps, outcome_probabilities, realized_povm
from .errors import (
    CapacityError,
    ConsistencyError,
    DecompositionError,
    DomainError,
    NormalizationError,
    PositivityError,
    QTeleportError,
    ShapeError,
    SingularChannelError,
)
from .fidelity import (
    FidelityReport,
    channel_maps,
    report,
    simulate,
)
from .formulas import (
    best_orthogonal_fidelity,
    binary_entropy,
    channel_from_entropy,
    optimal_average_fidelity,
    product_strategy_fidelity,
    qubit_average_fidelity,
    relaxed_angle_fidelity,
)
from .linalg import (
    Monomial,
    haar_random_ket,
    haar_random_unitary,
    partial_trace,
    von_neumann_entropy,
)
from .povm import (
    PovmSet,
    ThetaPovmFamily,
    build_conclusive_povm,
    build_theta_povm,
    lambda_max,
    refine_inconclusive_product,
    refine_inconclusive_residual,
)
from .verify import CheckResult, run_battery
from .weyl import UnitaryBasis, build_weyl_basis, conjugated_basis, maximally_entangled_basis

__all__ = [
    "CapacityError",
    "CheckResult",
    "ConsistencyError",
    "DecompositionError",
    "DilationResult",
    "DomainError",
    "FidelityReport",
    "Monomial",
    "NormalizationError",
    "PositivityError",
    "PovmSet",
    "QTeleportError",
    "SchmidtChannel",
    "ShapeError",
    "SingularChannelError",
    "ThetaPovmFamily",
    "UnitaryBasis",
    "basis_states",
    "best_orthogonal_fidelity",
    "binary_entropy",
    "build_conclusive_povm",
    "build_theta_povm",
    "build_weyl_basis",
    "channel_from_entropy",
    "channel_maps",
    "conjugated_basis",
    "dilate",
    "dilated_channel_maps",
    "dual_states",
    "haar_random_ket",
    "haar_random_unitary",
    "lambda_max",
    "make_channel",
    "maximally_entangled_basis",
    "optimal_average_fidelity",
    "outcome_probabilities",
    "partial_trace",
    "product_strategy_fidelity",
    "qubit_average_fidelity",
    "qubit_channel_from_cos_theta",
    "realized_povm",
    "refine_inconclusive_product",
    "refine_inconclusive_residual",
    "relaxed_angle_fidelity",
    "report",
    "run_battery",
    "simulate",
    "von_neumann_entropy",
]
