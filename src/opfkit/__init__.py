"""Grid optimization toolkit: AC optimal power flow with multi-period,
security-constrained, and stochastic extensions, solved by a built-in
primal-dual interior-point method.

The public surface re-exported here covers the usual workflow: parse a
MATPOWER case (`load_case`), build or compose an NLP and its
CompositeIndexMap (`build_acopf`, `build_lattice`, `compose_*`), solve
it (`solve`), and inspect or write every stage's result
(`extract_solution`, `write_case`).  `run(plan)` is the
one executor of a `RunPlan` for every application and structure, and
`write_output_tree` writes its report.
"""

from . import errors
from .acopf import (AcopfLayout, SolvedCase, pack_solution, residuals_at,
                    solution_from_case)
from .composer import (CORRECTIVE, PREVENTIVE, CompositeIndexMap,
                       CouplingMode, CouplingRow, Lattice, StageSpec,
                       build_acopf, build_lattice, compose_general,
                       compose_multiperiod, compose_multiperiod_scopf,
                       compose_scopf, compose_sopf_flat, compose_sopf_full,
                       extract_solution)
from .inputs import (ContingencySet, ScenarioSet, parse_contingencies,
                     parse_contingencies_file, parse_load_profile,
                     parse_load_profile_files, parse_scenarios,
                     parse_scenarios_file)
from .ipm import (DerivativeReport, IterationRecord, SolveResult,
                  SolverOptions, check_derivatives, kkt_error, solve)
from .matpower import (RawCase, format_case, parse_case, parse_case_file,
                       write_case, write_case_file)
from .network import (Branch, Bus, Contingency, GenCost, Generator,
                      LoadProfile, NetworkCase, Outage, Scenario,
                      apply_contingency, apply_load_step, apply_scenario,
                      branch_admittance, check_connectivity, declare_wind,
                      from_raw, load_case)
from .nlp import NlpProblem
from .runner import (RunPlan, RunReport, StageReport,
                     compare_empar_monolithic, run, write_output_tree)

__version__ = "0.1.0"

__all__ = [
    "AcopfLayout", "Branch", "Bus", "CompositeIndexMap", "Contingency",
    "ContingencySet", "CouplingMode", "CouplingRow", "CORRECTIVE",
    "DerivativeReport", "GenCost", "Generator", "IterationRecord",
    "Lattice", "LoadProfile", "NetworkCase", "NlpProblem", "Outage", "PREVENTIVE",
    "RawCase", "RunPlan", "RunReport", "Scenario", "ScenarioSet",
    "SolveResult", "SolvedCase", "SolverOptions", "StageReport",
    "StageSpec", "apply_contingency", "apply_load_step", "apply_scenario",
    "branch_admittance", "build_acopf", "build_lattice",
    "check_connectivity",
    "check_derivatives", "compare_empar_monolithic", "compose_general",
    "compose_multiperiod", "compose_multiperiod_scopf", "compose_scopf",
    "compose_sopf_flat", "compose_sopf_full", "declare_wind", "errors",
    "extract_solution", "format_case", "from_raw", "kkt_error",
    "load_case", "pack_solution", "parse_case", "parse_case_file",
    "parse_contingencies", "parse_contingencies_file",
    "parse_load_profile", "parse_load_profile_files", "parse_scenarios",
    "parse_scenarios_file", "residuals_at", "run",
    "solution_from_case", "solve", "write_case",
    "write_case_file", "write_output_tree",
]
