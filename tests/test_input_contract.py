"""Out-of-range library input raises a MomtError, never a bare Python error."""

import warnings

import numpy as np
import pytest

from momt import lp
from momt.costs import CostSpec
from momt.errors import InvariantViolation, MomtError
from momt.instance import DiscreteInstance
from momt.scenarios import NormalField, ScenarioConfig, run_scenario
from momt.twomap import extreme_assemblies

CASES = {
    "sphere without atoms":
        lambda: run_scenario(ScenarioConfig("sphere", extras={"pairs": 0})),
    "sphere with a negative pair count":
        lambda: run_scenario(ScenarioConfig("sphere", extras={"pairs": -1, "equator": 2})),
    "sphere with a negative equator count":
        lambda: run_scenario(ScenarioConfig("sphere", extras={"equator": -1})),
    "negative shell radius": lambda: ScenarioConfig("shells", radii=(-1.0, 1.0)),
    "zero shell radius": lambda: ScenarioConfig("shells", radii=(0.0, 1.0)),
    "NaN shell radius": lambda: ScenarioConfig("shells", radii=(float("nan"),)),
    "NaN normal": lambda: NormalField(np.array([[np.nan, 0.0]])),
    "gangboSwiech on one axis":
        lambda: run_scenario(ScenarioConfig("gs", extras={"n_axes": 1})),
    "instance without axes": lambda: lp.solve(DiscreteInstance(
        [], [], CostSpec("tensor", "min", {"values": np.zeros(())}))),
    "gromovWasserstein without parameters": lambda: CostSpec("gromovWasserstein", "max", {}),
    "tensor without values": lambda: CostSpec("tensor", "min", {}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_out_of_range_input_raises_a_momt_error(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # a NaN that slips through warns first
        with pytest.raises(MomtError):
            CASES[case]()


def test_missing_cost_parameters_are_named():
    with pytest.raises(InvariantViolation, match="'xi', 'A'"):
        CostSpec("gromovWasserstein", "max", {})
    with pytest.raises(InvariantViolation, match="'values'"):
        CostSpec("tensor", "min", {})


def test_extreme_assemblies_accept_zero_atoms():
    lower, upper = extreme_assemblies([], [], (np.array([], int),) * 4, 0, 0)
    assert lower.L.shape == upper.L.shape == (0, 4)
