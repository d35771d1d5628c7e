"""Each run of each check of contracts.py under pytest, and a class that the coverage check must name.

That the import-closure check sees argparse load is shown by its probe row
exp-check-r-equals-3, whose `--r=3` only argparse reads.
"""

import gc

import pytest
from contracts import CHECKS, every_value_class_has_a_value, runs

from gamow.exact import Value

RUNS = dict(run for check in CHECKS for run in runs(check))


@pytest.mark.parametrize("name", RUNS)
def test_the_contract_holds(name):
    assert RUNS[name]() == []


def test_a_value_class_with_no_value_fails_the_coverage_check():
    class Throwaway(Value):
        __slots__ = ()

    try:
        faults = every_value_class_has_a_value()
    finally:
        del Throwaway
        gc.collect()  # a class is in a reference cycle with itself
    assert faults == ["no value of Throwaway"]
    assert every_value_class_has_a_value() == []

