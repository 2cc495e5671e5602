"""Central numerical tolerances.

Every comparison threshold used by the library lives here so that tests and
callers agree on one set of numbers.  :data:`TOLERANCES` is the one set the
library uses; functions that take a ``tols`` argument default to it, and a
caller who needs other thresholds passes its own frozen instance.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # state and density-matrix admission
    norm_atol: float = 1e-12          # |sum |a_i|^2 - 1| for pure states
    hermitian_atol: float = 1e-12     # max |rho - rho^dag| entrywise
    trace_atol: float = 1e-12         # |tr rho - 1|
    psd_floor: float = -1e-10         # smallest eigenvalue still accepted

    # circuits
    unitarity_atol: float = 1e-12     # max |U U^dag - I| entrywise for a circuit matrix

    # measure values
    measure_clamp: float = 1e-12      # [-clamp, 0) -> 0 and (1, 1+clamp] -> 1

    # ensembles and roof search
    rank_cutoff: float = 1e-10        # eigenvalues below this do not count as rank
    weight_drop: float = 1e-12        # ensemble members below this weight are dropped
    weight_sum_atol: float = 1e-10
    reconstruction_atol: float = 1e-9


TOLERANCES = Tolerances()
