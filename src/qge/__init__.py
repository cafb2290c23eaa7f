"""qge: quantum evolution and classical bond walks on regular metric graphs.

Builds d-regular graphs, quantises them with back-scattering-free vertex
matrices, estimates the quantum variance of bond observables, analyses the
associated doubly-stochastic walk, and assembles the explicit variance
bound that ties the two together.
"""

__version__ = "0.1.0"

from .bonds import BondIndex
from .bounds import (
    BoundInputs,
    WormaldParams,
    choose_horizon,
    explicit_variance_bound,
    fejer_geo_sum,
    weighted_geo_sum,
    weighted_geo_sum_inf,
    wormald_probability,
)
from .census import (
    census_report,
    cycle_bond_census,
    lemma_sides,
    near_cycle_census,
)
from .errors import (
    AssemblyError,
    HadamardOrderError,
    IdentityFailureError,
    NoEquiTransmittingMatrixError,
    NumericalError,
    ParameterError,
    ParseError,
    QgeError,
    SamplingError,
    StochasticityError,
    ValidationError,
    WalkBoundUnavailableError,
    WorkBudgetError,
)
from .evolution import (
    Assembly,
    MetricGraph,
    Observable,
    build_assembly,
    constant_observable,
    draw_lengths,
    eigenbasis,
    fejer,
    fejer_kernel,
    lemma_a_sides,
    m_tilde,
    parity_observable,
    trace_correlator,
    variance_estimate,
)
from .experiment import ExperimentConfig, ExperimentRow, family_experiment, parse_config
from .fileio import export_graph, import_graph
from .graphs import (
    Graph,
    generate_random_regular,
    girth,
    is_ramanujan,
    spectral_report,
)
from .scattering import (
    VertexScattering,
    equi_transmitting_sigma,
    is_equi_transmitting,
    kirchhoff_sigma,
    skew_hadamard,
)
from .walk import (
    DecayRow,
    classical_map,
    decay_profile,
    g2_contraction,
    project_g1,
    project_g2,
    psi,
    reduced_consistency,
    reduced_matrix,
    singular_profile,
    vertex_basis,
    walk_action_identities,
    walk_decay_constant,
    y_from_z,
    z_bound,
    z_closed_form,
    z_sequence,
)
