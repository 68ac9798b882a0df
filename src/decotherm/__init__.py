"""decotherm: thermodynamics of decoherence baths.

Lindblad dynamics of small open quantum systems with equilibrium defined by
relative entropy to a bath's stationary set, first/second-law bookkeeping
for baths without a temperature, and the reciprocal linear-response
relations between decoherence and transport.
"""

from .baths import (
    Bath,
    JumpTerm,
    LindbladGenerator,
    PropagateToFixedPoint,
    apply_generator,
    dephasing_bath,
    generator_superop,
    left_pump_bath,
    right_pump_bath,
    stationary_map,
    thermal_occupation,
    thermal_two_level_bath,
)
from .dynamics import (
    EvolutionSpec,
    Trajectory,
    default_timestep,
    liouvillian,
    propagate,
    steady_state,
)
from .onsager import (
    ForceFlowPair,
    LinearResponse,
    flow,
    force,
    force_flow_pairs,
    force_parameters,
    linear_flow_prediction,
    linear_response,
    ness_entropy_production,
    reciprocal_coefficients,
)
from .operators import (
    SuperOperator,
    assert_density_matrix,
    hermitize,
    hs_inner,
    unvectorize,
    vectorize,
)
from .scenarios import (
    DEFAULT_DEVICE,
    DeviceAssembly,
    DeviceParams,
    DeviceReport,
    TwoLevelDecoherenceParams,
    bloch_state,
    build_device,
    device_dephasing_bath,
    device_report,
    device_reports,
    gamma_sweep,
    two_level_decoherence_heat,
)
from .thermo import (
    ThermoSample,
    ThermoSamples,
    energy,
    entropy_balance_residuals,
    entropy_flux,
    entropy_production,
    first_law_residuals,
    heat_rate,
    relative_entropy_to_bath,
    sample_thermodynamics,
    von_neumann_entropy,
    work_rate,
)

__version__ = "0.1.0"
