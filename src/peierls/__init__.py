"""Contour machinery and exact finite-volume checks for symmetric
finite-range lattice spin models.

The package certifies ground states from the cube-energy spectrum, builds
contour decompositions with a removal operation, verifies probability and
counting bounds by exact enumeration at desk scale, and cross-checks with
seeded single-site Monte Carlo.
"""

__version__ = "0.1.0"

from .errors import CapacityError, CertificationError, InputError, VerificationError
from .lattice import (Box, Cube, Site, ball_offsets, chebyshev_distance,
                      containing_cube_count, cubes_meeting, cubes_meeting_box, diameter)
from .model import (CubePotential, GroundStateReport, InteractionTerm, ModelSpec,
                    PeierlsReport, SpectrumSummary, builtin_model, check_symmetry,
                    conditional_hamiltonian, excited_potts_model, ising_model,
                    permute_spins, potential_spectrum, potts_model, relative_hamiltonian,
                    require_certified, verify_ground_states, verify_peierls)
from .contours import (Boundary, Configuration, Contour, Subcontour, boundary,
                       contours, remove_contour, subcontours)
from .exact import (ContourRecord, ContourStatistics, DistributionSummary,
                    FiniteVolumeEnsemble, GapRecord, coexistence_gap,
                    config_from_index, contour_probability, contour_statistics,
                    dlr_consistency, enumerate_distribution, full_sweep,
                    index_of_config, marginal_trend, verify_peierls_bound)
from .census import (CensusRecord, CensusReport, ConnectorReport, CubeGraph,
                     contour_roundtrip_mismatches, max_degree, rooted_contour_counts,
                     rooted_subgraph_counts, subgraph_census, verify_connector_bound)
from .mcmc import (ChainResult, ChainSpec, TailReport, estimate_contour_size_tail,
                   run_chain, site_conditional, site_indicator, tail_envelope)
