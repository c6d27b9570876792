"""Analytic propagators for a spin-half driven by an N-mode frequency comb.

The package carries four layers: a canonical phase-term algebra
(:mod:`polyrabi.terms`), the progressive dressing cascade that reduces the
comb-driven problem to a single resonant two-level rotation
(:mod:`polyrabi.cascade`), the undressing chain that pulls the rotation back
to the lab frame and reads out excitation probabilities
(:mod:`polyrabi.propagator`), and the exact reference solvers used to
validate everything, the period (Floquet) propagator and the truncated
field lattice (:mod:`polyrabi.oracle`).  Closed-form
shortcuts live in :mod:`polyrabi.closed_forms`, the coherent-field weight
model in :mod:`polyrabi.field_state`, and the batch/CLI front end in
:mod:`polyrabi.cli`.

All frequencies are in units of the comb base frequency and time is
dimensionless (base frequency times seconds).
"""

from .terms import (
    Term,
    TermSum,
    mat_vec,
    dagger,
    sandwich,
)
from .cascade import (
    ModeConfig,
    StageParams,
    CascadeResult,
    DegenerateStageError,
    ChiExtractionError,
    ResonanceOrderWarning,
    stage_zero,
    stage_unitary,
    build_M,
    next_stage,
    run_cascade,
)
from .propagator import (
    PropagatorComponents,
    PeSeries,
    dressed_propagator,
    build_T,
    undress,
    excitation_probability,
)
from .closed_forms import (
    WeakFieldWarning,
    two_mode_u0,
    weak_field_uge,
    single_mode_rabi,
)
from .oracle import (
    TruncatedBasis,
    OracleRun,
    SkVerification,
    ComparisonReport,
    BasisSizeError,
    GridMismatchError,
    build_hamiltonian,
    evolve,
    floquet_evolve,
    verify_Sk,
    compare,
)
from .field_state import FieldWeights, WindowOverflowError, gamma_weights, weighted_pe

__version__ = "0.1.0"
