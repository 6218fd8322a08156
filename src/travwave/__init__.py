"""Controlled traveling-wave profiles for invasion-front models.

Computes natural and controlled wave speeds of bistable reaction-diffusion
fronts, minimum-effort controls via the Pontryagin conditions, the effort
function E(c), tree-infection profiles, and the insect/tree system's
spectral threshold, barrier sandwich and nonexistence demonstration; all
cross-validated by direct PDE evolution.
"""

from .model import (ModelSpec, Model2Params, make_weed_model,
                    make_cubic_model, make_logistic_model, check_A1, check_A2)
from .phaseplane import (PhaseTrajectory, saddle_eigenvalues,
                         unstable_manifold, stable_manifold, integrate_pu)
from .speed import natural_speed, modified_speed, manifold_gap
from .control_construct import (ConcatProfile, bang_control,
                                finite_cost_control, cost_of)
from .pmp import (OptimalProfile, shoot_from, optimal_profile, pmp_residual,
                  effort_curve)
from .profile import (SpatialProfile, reconstruct_x, theta_model1,
                      decay_check, alpha_multiplicative)
from .model2 import (Model2Spectrum, TriplePath, char_poly, c_sharp, spectrum,
                     supersolution, subsolution, solve_vtheta, case2_demo,
                     check_drate)
from .pde import (evolve_scalar, front_speed, evolve_model1, evolve_model2,
                  EvolutionRecord)

__version__ = "0.1.0"
