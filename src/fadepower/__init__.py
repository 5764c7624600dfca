"""Energy-minimal transmit policies for a Rayleigh link without CSIT.

The library models bursty packet loss with a success-runs Markov chain
over outage states, and minimizes average transmit power subject to an
average loss-rate constraint and a bound on the N-th consecutive-loss
probability.  Solvers: one seeded search for every N (a structured family,
exploration rows and a coordinate polish) that serves the fixed-rate and
variable-rate problems alike, started for the fixed rate from an exact
Lagrangian pass that also bounds its power from below; the N=1 closed
forms of the paper, which keep the loss budget binding and so bound the
optimum from above; and a slot-level Monte-Carlo simulator that
cross-checks any policy.
"""

from .annealer import (
    AnnealingSchedule,
    NoFeasibleSolution,
    SolveResult,
    solve_fixed,
    solve_variable,
)
from .channel import ChannelModel, max_rate, outage_probability, power_for_outage
from .closed_form import (
    n1_epsilon0,
    n1_fixed_solution,
    n1_region,
    n1_variable_search,
    n1_variable_solution,
)
from .markov import (
    achieved_loss_rate,
    build_transition_matrix,
    steady_state,
    steady_state_for,
)
from .policy import (
    EvalReport,
    Policy,
    ProblemSpec,
    average_power,
    check_power_ordering,
    evaluate_fixed,
    evaluate_variable,
    make_policy,
)
from .simulator import SimReport, ValidationRecord, simulate, validate

__version__ = "0.1.0"

__all__ = [
    "AnnealingSchedule",
    "ChannelModel",
    "EvalReport",
    "NoFeasibleSolution",
    "Policy",
    "ProblemSpec",
    "SimReport",
    "SolveResult",
    "ValidationRecord",
    "achieved_loss_rate",
    "average_power",
    "build_transition_matrix",
    "check_power_ordering",
    "evaluate_fixed",
    "evaluate_variable",
    "make_policy",
    "max_rate",
    "n1_epsilon0",
    "n1_fixed_solution",
    "n1_region",
    "n1_variable_search",
    "n1_variable_solution",
    "outage_probability",
    "power_for_outage",
    "simulate",
    "solve_fixed",
    "solve_variable",
    "steady_state",
    "steady_state_for",
    "validate",
]
