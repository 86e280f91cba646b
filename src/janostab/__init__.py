"""Truncated power series and numerical stability (subordination) checks
for the Janowski-type family ((1+Az)/(1+Bz))**lambda."""

from .inequalities import (
    GridSpec,
    InequalityReport,
    check_alternating_identity,
    check_coeff_lemmas,
)
from .janowski import (
    JanowskiParams,
    coeff_table,
    convolution_coeffs,
    janowski_series,
)
from .search import SweepCell, sweep_parameter_grid
from .series import BranchFailureError, TruncatedSeries
from .subordination import (
    DiskSpec,
    KNOWN_COUNTEREXAMPLE,
    SampleGrid,
    StabilityReport,
    check_stability_vs_base,
    check_stability_vs_self,
    closed_form_disk,
    mobius_image_disk,
    reference_disk_comparison,
)

__version__ = "0.1.0"
