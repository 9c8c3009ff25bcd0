"""Pay, pay gaps, and the value of information when employers misperceive
the skill distribution of a worker population.

The package computes exact (rational) or float answers for finite
instances: Bayes posteriors, task assignment, average pay, stochastic
orders on beliefs and structures, informativeness (garbling) checks, the
split of an information gain into a perception-correcting and an
instrumental part, and the pay-gap claims built on top of it.
"""

from .errors import InfopayError, InputError, OrderingError, ParseError
from .model import (
    Dist,
    Firm,
    Population,
    SignalStructure,
    SkillSpace,
    Task,
    average_pay,
    binary_symmetric_structure,
    fully_informative_structure,
    posterior,
    uninformative_structure,
)
from .orders import (
    PerceptionClass,
    fosd_geq,
    is_mlr,
    lr_geq,
    lr_violation,
    perception_class,
    separating_signal_structure,
)
from .garbling import (
    GarblingKernel,
    compose_kernels,
    extremeness_eps_bound,
    find_garbling,
    garble,
    is_slightly_more_informative,
    kernel_reproduces,
    within_eps_of_full,
)
from .decomposition import (
    DecompResult,
    SignReport,
    check_signs,
    decompose,
)
from .discrimination import (
    Counterexample,
    GapRankingReport,
    GapScenario,
    NarrowingReport,
    NearlyFullReport,
    check_gap_ranking,
    check_narrowing,
    check_nearly_full,
    narrowing_counterexamples,
    pay_gap,
)
from .instancefile import (
    load_instance,
    loads_instance,
    save_instance,
    serialize_instance,
)
from .suites import SUITE_NAMES, ClaimStats, SuiteResult, run_suite

__all__ = [
    "InfopayError",
    "InputError",
    "OrderingError",
    "ParseError",
    "SkillSpace",
    "Dist",
    "Task",
    "Firm",
    "SignalStructure",
    "Population",
    "posterior",
    "average_pay",
    "uninformative_structure",
    "fully_informative_structure",
    "binary_symmetric_structure",
    "PerceptionClass",
    "lr_geq",
    "lr_violation",
    "fosd_geq",
    "is_mlr",
    "perception_class",
    "separating_signal_structure",
    "GarblingKernel",
    "find_garbling",
    "garble",
    "compose_kernels",
    "kernel_reproduces",
    "is_slightly_more_informative",
    "within_eps_of_full",
    "extremeness_eps_bound",
    "DecompResult",
    "SignReport",
    "decompose",
    "check_signs",
    "GapScenario",
    "GapRankingReport",
    "NarrowingReport",
    "NearlyFullReport",
    "Counterexample",
    "pay_gap",
    "check_gap_ranking",
    "check_narrowing",
    "check_nearly_full",
    "narrowing_counterexamples",
    "load_instance",
    "loads_instance",
    "save_instance",
    "serialize_instance",
    "SUITE_NAMES",
    "ClaimStats",
    "SuiteResult",
    "run_suite",
]

__version__ = "0.1.0"
