"""The range rules of ``experiments.check_ranges``: extreme values on a given grid end in a run or in one line."""

from test_fuzz import fuzz_slice

test_extreme_values_run_or_give_one_line = fuzz_slice(("propagate",), extreme=True)
