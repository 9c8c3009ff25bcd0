"""Pay, pay gaps, and the value of information when employers misperceive
the skill distribution of a worker population.

The package computes exact (rational) or float answers for finite
instances: Bayes posteriors, task assignment, average pay, stochastic
orders on beliefs and structures, informativeness (garbling) checks, the
split of an information gain into a perception-correcting and an
instrumental part, and the pay-gap claims built on top of it.

Each public name lives in one submodule, which is imported the first
time the name is read from the package.  The name is looked up in that
submodule on every read, never copied here, so a function rebound in
its home module is what ``infopay.<name>`` returns.
"""

from importlib import import_module

from .errors import InfopayError, InputError, OrderingError, ParseError

# home submodule -> the public names it defines
_EXPORTS = {
    "errors": ("InfopayError", "InputError", "OrderingError", "ParseError"),
    "model": (
        "SkillSpace", "Dist", "Task", "Firm", "SignalStructure", "Population",
        "posterior", "average_pay", "uninformative_structure",
        "fully_informative_structure", "binary_symmetric_structure",
    ),
    "orders": (
        "PerceptionClass", "lr_geq", "lr_violation", "fosd_geq", "is_mlr",
        "perception_class", "separating_signal_structure",
    ),
    "garbling": (
        "GarblingKernel", "find_garbling", "garble", "compose_kernels",
        "kernel_reproduces", "is_slightly_more_informative",
        "within_eps_of_full", "extremeness_eps_bound",
    ),
    "decomposition": ("DecompResult", "SignReport", "decompose", "check_signs"),
    "discrimination": (
        "GapScenario", "GapRankingReport", "NarrowingReport", "NearlyFullReport",
        "Counterexample", "pay_gap", "check_gap_ranking", "check_narrowing",
        "check_nearly_full", "narrowing_counterexamples",
    ),
    "instancefile": (
        "load_instance", "loads_instance", "save_instance", "serialize_instance",
    ),
    "suites": ("SUITE_NAMES", "ClaimStats", "SuiteResult", "run_suite"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
