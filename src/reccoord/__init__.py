"""Scheduling and decentralized flexibility coordination for energy communities."""

from .billing import (BillingError, MemberBenefit, ModeSummary, activation_price,
                      compute_bill, individual_benefits, summarize)
from .central import (CarriedState, DayLpError, DaySchedule, DeviceRefs, FlexRefs,
                      InfeasibleDayError, MemberDaySchedule, PlannerMode, PlannerError,
                      SolvedDay, SolverFailureError, default_refs, final_states,
                      prioritize_self_consumption, solve_centralized,
                      verify_day_schedule)
from .decentral import (DecentralError, IterationLimitError, IterationTrace, MemberAgent,
                        Shift, initial_request, refine_bounds, run_ecflexit,
                        settle_community)
from .devices import simulate_bss, simulate_ev, simulate_hp, simulate_wb
from .kor import cascade_key, equal_key, get_key, prorate_key
from .lpcore import (LpError, LpProblem, LpSolution, LpStatus, TOL_FEAS, TOL_OPT,
                     solve_lp)
from .reporting import ReportFiles, write_report
from .scenario import (BssParams, EvParams, Horizon, HpParams, Member, Prices,
                       Scenario, ScenarioError, ScenarioParseError,
                       ScenarioValidationError, SyntheticConfig, Violation, WbParams,
                       dump_scenario, generate_synthetic, load_bundled_scenario,
                       load_scenario, scenario_from_dict, scenario_to_dict,
                       validate_scenario)

__version__ = "0.1.0"
