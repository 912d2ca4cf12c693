"""Problem statements: point clouds with weights plus a cost specification."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import CostSpec, cost_array
from .errors import InvariantViolation
from .measure import DiscreteMeasure, Space


@dataclass
class DiscreteInstance:
    spaces: list[Space]
    measures: list[DiscreteMeasure]
    cost: CostSpec

    def __post_init__(self):
        if not self.spaces:
            raise InvariantViolation("an instance needs at least one axis")
        if len(self.spaces) != len(self.measures):
            raise InvariantViolation("one measure per space required")
        for s, m in zip(self.spaces, self.measures):
            if m.space is not s and m.space.size != s.size:
                raise InvariantViolation("measure does not match its space")
        self._cost_cache = None

    @property
    def n_axes(self) -> int:
        return len(self.spaces)

    @property
    def arities(self) -> tuple[int, ...]:
        return tuple(s.size for s in self.spaces)

    @property
    def sense(self) -> str:
        return self.cost.sense

    def cost_grid(self) -> np.ndarray:
        if self._cost_cache is None:
            self._cost_cache = cost_array(self.cost, self.spaces)
        return self._cost_cache

    def grid_size(self) -> int:
        return math.prod(self.arities)

