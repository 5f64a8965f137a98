"""Entropy-stable two-point-flux finite volumes for multicomponent mixtures."""

from .mesh import Mesh, dump_csv, uniform_interval, uniform_rectangle, validate
from .model import (SpeciesSystem, build_system, is_simplex_point,
                    mat_A, mat_Abar, mat_B, mat_C, mat_M)
from .scheme import (FluxField, NonConvergence, SolverConfig, StateField,
                     StepStats, compute_fluxes, edge_flux, jacobian,
                     log_mean, newton_step, project_simplex, residual, run)
from .diagnostics import (DiagnosticsRecord, SampledRun, dissipation, entropy,
                          equilibrium_composition, l1_space_time_error,
                          reconstruct_flux_field, reconstruct_gradient,
                          relative_entropy)
from .config import (ConfigError, InitialConfig, RunConfig, load_config,
                     load_config_file, preset_initial)
from .checks import run_property_suite

__version__ = "0.1.0"
