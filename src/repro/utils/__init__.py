"""Shared utilities: numeric optimization helpers and argument validation.

These are deliberately dependency-light.  The analysis code in
:mod:`repro.network` relies on :func:`repro.utils.numeric.golden_section_min`
and :func:`repro.utils.numeric.grid_then_golden` for the numeric
optimization over the free parameters ``gamma`` and ``alpha`` of the
end-to-end delay bound (Section IV of the paper).
"""

from repro.utils.numeric import (
    bisect_increasing,
    golden_section_min,
    grid_then_golden,
)
from repro.utils.validation import (
    check_finite,
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "bisect_increasing",
    "golden_section_min",
    "grid_then_golden",
    "check_finite",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_probability",
]
