"""The public surface: every exported name resolves."""

import functools
import importlib
import inspect
import math
import pkgutil
from fractions import Fraction as F
from unittest import mock

import pytest

import infopay
from infopay import InputError
from infopay.model import pay_table

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(infopay.__path__, "infopay.")
)


def test_package_exports_resolve():
    assert [n for n in infopay.__all__ if not hasattr(infopay, n)] == []
    assert len(set(infopay.__all__)) == len(infopay.__all__)


def test_dir_lists_every_export():
    assert set(infopay.__all__) <= set(dir(infopay))


def test_export_reads_its_home_module_on_every_access():
    import infopay.suites

    def fake(*args, **kwargs):
        return None

    with mock.patch.object(infopay.suites, "run_suite", fake):
        assert infopay.run_suite is fake
    assert infopay.run_suite is infopay.suites.run_suite
    assert "run_suite" not in vars(infopay)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


@pytest.mark.parametrize(
    "name",
    ["argmax_task_set", "assign_task", "worker_pay", "instrumental",
     "perception_correcting", "model.PayTable.true_rows",
     "model.PayTable.signal_pay"],
)
def test_removed_names_stay_removed(name):
    # optimal tasks come from model.pay_table; the instrumental part and
    # the correction are fields of decompose's result; pay-table rows stay
    # at the scales they are kept at, and the pay at a signal is read off
    # a row's score
    *path, attr = name.split(".")
    assert not hasattr(functools.reduce(getattr, path, infopay), attr)



@pytest.mark.parametrize("func", [pay_table, infopay.decompose, infopay.check_signs])
def test_the_tie_rule_takes_no_knob(func):
    # one tie rule, the lowest optimal task; the firm with its tasks
    # reversed keeps the other end, so no function takes a tie rule
    assert "tie_break" not in inspect.signature(func).parameters


def test_gap_judges_take_a_scenario():
    # the three gap judges take the scenario their callers hold
    for judge in (infopay.check_gap_ranking, infopay.check_narrowing):
        assert list(inspect.signature(judge).parameters) == ["scenario", "kernel", "tol"]
    params = inspect.signature(infopay.check_nearly_full).parameters
    assert list(params) == ["scenario", "eps", "tol"]


def _judges(mode):
    """Every public function that takes a ``tol``, each called on the
    kink-crossing scenario (or its float twin) with a given ``tol``."""
    s = infopay.narrowing_counterexamples()[-1].scenario
    if mode == "float":
        s = s.to_float()
    firm, p, q, coarse, fine = s.firm, s.p, s.q_i, s.coarse, s.fine
    kernel = infopay.find_garbling(fine, coarse)
    return {
        "lr_geq": lambda t: infopay.lr_geq(p, q, tol=t),
        "lr_violation": lambda t: infopay.lr_violation(p, q, tol=t),
        "fosd_geq": lambda t: infopay.fosd_geq(p, q, tol=t),
        "perception_class": lambda t: infopay.perception_class(p, q, tol=t),
        "is_mlr": lambda t: infopay.is_mlr(fine, t),
        "find_garbling": lambda t: infopay.find_garbling(fine, coarse, tol=t),
        "kernel_reproduces": lambda t: infopay.kernel_reproduces(
            kernel, fine, coarse, tol=t
        ),
        "is_slightly_more_informative": lambda t: (
            infopay.is_slightly_more_informative(firm, q, fine, coarse, kernel, tol=t)
        ),
        "within_eps_of_full": lambda t: infopay.within_eps_of_full(fine, F(1, 2), tol=t),
        "decompose": lambda t: infopay.decompose(firm, p, q, coarse, fine, tol=t),
        "decompose-with-kernel": lambda t: infopay.decompose(
            firm, p, q, coarse, fine, kernel, tol=t
        ),
        "check_signs": lambda t: infopay.check_signs(
            firm, p, q, coarse, fine, kernel, tol=t
        ),
        "check_gap_ranking": lambda t: infopay.check_gap_ranking(s, kernel, tol=t),
        "check_narrowing": lambda t: infopay.check_narrowing(s, kernel, tol=t),
        "check_nearly_full": lambda t: infopay.check_nearly_full(s, F(1, 2), tol=t),
    }


JUDGES = list(_judges("rational"))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0], ids=str)
@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("judge", JUDGES)
def test_judges_reject_a_bad_tol(judge, mode, tol):
    # a nan slack makes every float comparison False and a negative one
    # flips verdicts, so each public judge refuses such a tol outright
    call = _judges(mode)[judge]
    call(None)  # the instance itself is fine
    with pytest.raises(InputError, match="tolerance must be a finite nonnegative"):
        call(tol)


def _mode_calls():
    """Every public entry point that takes a ``mode``, on a small input."""
    from infopay.examples import run_example
    from infopay.instancefile import loads_instance
    from infopay.suites import run_suite
    from infopay.sweep import figure1_rows

    return {
        "run_suite": lambda m: run_suite("theorem1", trials=1, mode=m),
        "run_example": lambda m: run_example("ex1-reversal", mode=m),
        "figure1_rows": lambda m: figure1_rows((F(1, 2), F(3, 4)), mode=m),
        "loads_instance": lambda m: loads_instance("[firm]\n0 1\n", mode=m),
    }


@pytest.mark.parametrize("mode", ["exact", "Float", "", None], ids=repr)
@pytest.mark.parametrize("entry", list(_mode_calls()))
def test_entry_points_reject_an_unknown_mode(entry, mode):
    call = _mode_calls()[entry]
    call("rational")
    call("float")
    with pytest.raises(InputError) as info:
        call(mode)
    assert str(info.value) == f"unknown mode {mode!r}"
