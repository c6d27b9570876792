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

The package namespace re-exports the ``__all__`` of each of the six library
modules, and nothing else: a public name is declared once, in its module.
The CLI stays a submodule, so ``python -m polyrabi.cli`` finds it unloaded.

All frequencies are in units of the comb base frequency and time is
dimensionless (base frequency times seconds).
"""

from .terms import *
from .cascade import *
from .propagator import *
from .closed_forms import *
from .oracle import *
from .field_state import *

__version__ = "0.1.0"
