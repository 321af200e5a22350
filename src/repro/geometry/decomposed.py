"""The model cost of exact geometry tests.

Section 6.3 notes that the exact intersection test is "supported by a
decomposed representation of the objects [SK91] where one test needs
roughly 0.75 msec".  The tests themselves are the batch kernels of
:mod:`repro.geometry.intersect`; this module *accounts* the model cost
(0.75 ms per pairwise test) so the Figure 17 cost breakdown can be
reproduced independently of Python's actual speed.
"""

from __future__ import annotations

from repro.constants import EXACT_TEST_MS

__all__ = ["ExactTestCounter"]


class ExactTestCounter:
    """Accounts the CPU cost of exact geometry tests.

    The paper charges a flat 0.75 ms per candidate pair (Section 6.3).
    Joins and window queries report this model cost so that the Figure 17
    breakdown (MBR-join / object transfer / exact test) is reproducible.
    """

    __slots__ = ("tests", "cost_per_test_ms")

    def __init__(self, cost_per_test_ms: float = EXACT_TEST_MS):
        self.tests = 0
        self.cost_per_test_ms = cost_per_test_ms

    def record(self, n: int = 1) -> None:
        """Record ``n`` executed exact tests."""
        if n < 0:
            raise ValueError("cannot record a negative number of tests")
        self.tests += n

    @property
    def cost_ms(self) -> float:
        """Accumulated model CPU cost in milliseconds."""
        return self.tests * self.cost_per_test_ms

    def reset(self) -> None:
        self.tests = 0
