"""safestab: CLF/CBF-based safe stabilization for control-affine systems.

Sontag's universal feedback with rate tuning, three QP safety filters, a
hybrid switching law with region bookkeeping, control-sharing verification
with an explicit domain-of-attraction estimate, and a closed-loop simulation
harness with two bundled case studies. make_controller(cfg, name)(x) runs
each pointwise law, one of CONTROLLER_NAMES, at a state x.
"""
from .core import (Barrier, ControlAffineSystem, EquilibriumPair,
                   QuadraticCLF, SafeSet, equilibrium_residual,
                   is_valid_local_clf, sontag_terms)
from .doa import (DoaEstimate, compute_c_star, control_sharing_holds, in_awc,
                  largest_clf_sublevel_inside)
from .errors import (DecreaseIdentityError, DegenerateConstraintError,
                     IndefiniteQPError, InfeasibleQPError, QPIterationError, SafeStabError,
                     ScenarioError, SharingInfeasibleError, SimulationError)
from .filters import (CONTROLLER_NAMES, FilterConfig, Region, classify_region,
                      closed_form_ustar, evaluate, make_controller, make_filter_config,
                      s_cbf_qp_filter)
from .qp import QPSolution, QPSpec, lp_feasible, solve_qp
from .scenarios import (SCENARIO_NAMES, ScenarioBundle, build_scenario,
                        load_scenario)
from .sim import (Metrics, SimConfig, Trajectory, compute_metrics, integrate,
                  read_trajectory_csv, write_trajectory_csv)
from .sontag import sontag_control, sontag_decrease_rate

__version__ = "0.1.0"
