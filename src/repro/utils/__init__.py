"""Shared utilities: numeric optimization helpers and argument validation.

These are deliberately dependency-light.  The analysis code in
:mod:`repro.network` minimizes the end-to-end delay bound over its free
parameters ``gamma`` and ``alpha`` (Section IV of the paper) with the
searches of :mod:`repro.utils.numeric`, each one generator body that
:func:`~repro.utils.numeric.grid_then_golden` (or
:func:`~repro.utils.numeric.golden_section_min`) and the lane engine of
:mod:`repro.network.lanes` both drive.
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
