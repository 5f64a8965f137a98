"""Entropy-stable two-point-flux finite volumes for multicomponent mixtures."""

from .mesh import Mesh, uniform_interval, uniform_rectangle, validate
from .model import (SpeciesSystem, build_system, is_simplex_point,
                    mat_A, mat_Abar, mat_B, mat_C)
from .scheme import (FluxField, NonConvergence, StateField, StepStats,
                     jacobian, log_mean, newton_step, project_simplex,
                     residual, run)
from .diagnostics import (DiagnosticsRecord, SampledRun, dissipation, entropy,
                          equilibrium_composition, l1_space_time_error,
                          relative_entropy)
from .config import (ConfigError, InitialConfig, RunConfig, load_config,
                     load_config_file, preset_initial)
from .checks import run_property_suite

__version__ = "0.1.0"
