"""Exact toolkit for interval scheduling games.

Players own colors of jobs and place intervals in [0, T); a single machine
picks a color-labeled configuration maximizing covered weight. The package
computes machine responses, social optima, Nash equilibria (grid-relative),
best-response dynamics, and price-of-anarchy/stability reports, all in exact
rational arithmetic.
"""

from .model import (FormatError, GameError, GuardError, Instance, InternalFailure,
                    Job, Profile, Schedule, UnsupportedInstanceError, UtilityVector,
                    ValidationError, instance_from_document, instance_to_document,
                    instance_to_json, parse_instance, parse_profile, parse_schedule,
                    profile_from_document, profile_to_document, profile_to_json,
                    schedule_to_document, schedule_to_json, to_rational, utilities,
                    validate_instance, validate_profile)
from .machine import solve_machine_bruteforce, solve_machine_dp
from .optimum import (social_optimum_bruteforce, social_optimum_enumerate,
                      social_optimum_single_knapsack)
from .equilibrium import (AnalysisReport, BrdOutcome, CandidateGrid, Deviation,
                          analyze, applicable_bounds, best_response, brd,
                          build_grid, enumerate_grid_ne, grid_candidates,
                          grid_profiles, is_nash, joint_grid_size, ne_single,
                          ne_unit, tightest_bound, verify_deviation)
from .generators import (FAMILIES, Fact, Fixture, fixture, fixture_names,
                         from_knapsack, from_partition_br, from_partition_decide,
                         from_partition_nonsymm, random_instance, random_profile)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport", "BrdOutcome", "CandidateGrid", "Deviation", "FAMILIES",
    "Fact", "Fixture", "FormatError", "GameError", "GuardError", "Instance",
    "InternalFailure", "Job", "Profile", "Schedule", "UnsupportedInstanceError",
    "UtilityVector", "ValidationError", "analyze", "applicable_bounds",
    "best_response", "brd", "build_grid", "enumerate_grid_ne", "fixture",
    "fixture_names", "from_knapsack", "from_partition_br", "from_partition_decide",
    "from_partition_nonsymm", "grid_candidates", "grid_profiles",
    "instance_from_document", "instance_to_document", "instance_to_json",
    "is_nash", "joint_grid_size", "ne_single", "ne_unit", "parse_instance",
    "parse_profile", "parse_schedule", "profile_from_document",
    "profile_to_document", "profile_to_json", "random_instance", "random_profile",
    "schedule_to_document", "schedule_to_json", "social_optimum_bruteforce",
    "social_optimum_enumerate", "social_optimum_single_knapsack",
    "solve_machine_bruteforce", "solve_machine_dp", "tightest_bound",
    "to_rational", "utilities", "validate_instance", "validate_profile",
    "verify_deviation",
]
