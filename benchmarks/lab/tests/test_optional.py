"""Optional-path probes read ``None`` once the path is gone."""

import os
import sys

import pytest

sys.path.insert(0, os.path.abspath(os.path.join(os.path.dirname(__file__), "../../..")))

from benchmarks.lab.layers import optional  # noqa: E402


class Gone(Exception):
    pass


def _raise(exc):
    raise exc


def test_present_path_returns_its_value():
    assert optional(lambda: 1.5) == 1.5


@pytest.mark.parametrize("exc", [ImportError("no module"), AttributeError("no class"),
                                 TypeError("no such flag")])
def test_deleted_path_reads_none(exc):
    assert optional(lambda: _raise(exc)) is None


def test_repo_specific_rejection_is_opt_in():
    assert optional(lambda: _raise(Gone()), Gone) is None
    with pytest.raises(Gone):
        optional(lambda: _raise(Gone()))
    with pytest.raises(ZeroDivisionError):
        optional(lambda: 1 / 0, Gone)
