"""C2 cutoff factors built from the quintic smoothstep.

Both cutoffs have exact plateaus: the level factor is exactly 1 up to the
level m and exactly 0 from m+1 on; the budget factor is exactly 1 up to the
budget delta and exactly 0 from 2*delta on.  The maximal slope of the
smoothstep is 15/8, so the level factor has slope bound 15/8 independent of
m, and the budget factor has slope bound (15/8)/delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: max |d/ds smoothstep| = slope at the midpoint
SMOOTHSTEP_MAX_SLOPE = 15.0 / 8.0


def smoothstep(s):
    """0 for s<=0, 1 for s>=1, the C2 quintic 6s^5-15s^4+10s^3 between."""
    s = np.clip(s, 0.0, 1.0)
    return s * s * s * (10.0 + s * (6.0 * s - 15.0))


@dataclass(frozen=True)
class Cutoff:
    """Pair of multiplicative factors taming the convection term.

    ``level`` caps the H norm of the advecting state, ``budget`` the
    accumulated dissipation norm.  Either may be None, in which case the
    corresponding factor is identically 1.
    """

    level: float | None = None
    budget: float | None = None

    def __post_init__(self):
        if self.level is not None and not self.level > 0.0:
            raise ValueError("level must be positive")
        if self.budget is not None and not self.budget > 0.0:
            raise ValueError("budget must be positive")

    def level_factor(self, state_norm):
        if self.level is None:
            return 1.0
        return 1.0 - smoothstep(state_norm - self.level)

    def budget_factor(self, xi):
        if self.budget is None:
            return 1.0
        return 1.0 - smoothstep((xi - self.budget) / self.budget)

    def factor(self, state_norm, xi):
        """Combined coefficient multiplying the convection term; broadcasts."""
        return self.level_factor(state_norm) * self.budget_factor(xi)

    def along(self, states, xi_sq):
        """Factor at each grid time of states (..., dim) with dissipation sums
        ``xi_sq``; ``np.vecdot`` reduces each row with the dot kernel of
        ``h_norm``, so it matches per-state calls."""
        c = self.factor(np.sqrt(np.vecdot(states, states)), np.sqrt(xi_sq))
        return np.broadcast_to(c, np.shape(xi_sq))
