"""Timers and testers — the feedback half of the empirical loop."""

from .timer import MAX_N, KernelTiming, Timer, paper_n
from .tester import (DEFAULT_SIZES, make_inputs, test_function, test_kernel)

__all__ = ["KernelTiming", "MAX_N", "Timer", "paper_n", "DEFAULT_SIZES",
           "make_inputs", "test_function", "test_kernel"]
