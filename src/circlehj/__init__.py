"""Numerical laboratory for contact Hamilton-Jacobi equations on the circle.

The package simulates the evolution w_t + H(x, w_x, w) = 0 on the unit
circle for Hamiltonians strictly decreasing in the value variable,
computes the stationary smooth solution and its periodic orbit by
shooting, constructs explicit oscillating subsolutions, detects
nontrivial time-periodic solutions, classifies long-time behavior, and
sweeps a one-parameter family to exhibit the sign-change bifurcation.
"""

from .errors import CircleHJError
from .model import (HamiltonianModel, check_assumptions, conjugate_model,
                    constant_drift_model, cosine_potential_model,
                    freeze_classical, legendre_transform,
                    make_quadratic_model, shift_hamiltonian)
from .flow import (ContactState, OrbitResult, check_condition_A,
                   integrate_contact, integrate_reduced, shoot_stationary_orbit)
from .semigroup import (ActionResult, EvolutionTrace, Field, Grid,
                        SearchParams, action_function,
                        estimate_critical_value, evolve, evolve_forward,
                        lax_oleinik_step, solve_reversibility, sup_dist,
                        weak_kam_backward, weak_kam_forward)
from .periodic import (BifurcationDiagram, PeriodicSolution, SubsolutionSpec,
                       TrichotomyReport, bifurcation_sweep, build_subsolution,
                       classify_trichotomy, detect_period,
                       long_time_periodic_limit, min_shift_combine,
                       pinned_periodic_limit, verify_subsolution)

__version__ = "0.1.0"
