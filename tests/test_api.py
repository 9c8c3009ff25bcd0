"""The public surface: every exported name resolves."""

import functools
import importlib
import pkgutil
from unittest import mock

import pytest

import infopay

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
     "perception_correcting", "model.PayTable.true_rows"],
)
def test_removed_names_stay_removed(name):
    # optimal tasks come from model.pay_table; both instrumental forms and
    # the correction are fields of decompose's result; pay-table rows stay
    # at the scales they are kept at
    *path, attr = name.split(".")
    assert not hasattr(functools.reduce(getattr, path, infopay), attr)
