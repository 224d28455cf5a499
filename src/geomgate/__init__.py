"""Geometric-phase entangling gates for driven qubits coupled through a cavity.

A simulation library and CLI for a driven circuit-QED model: qubits share a
cavity mode and a strong classical drive, producing a spin-dependent force
that drags the cavity around closed phase-space loops.  Each closed loop
imprints a collective geometric phase — an entangling gate — on the qubits.
The package builds the model Hamiltonians, propagates closed (unitary) and
open (Lindblad) dynamics, and reproduces Bell/GHZ fidelities and the
phase-space trajectories as CSV artifacts.

Layers: :mod:`geomgate.core` (operators and states), :mod:`geomgate.model`
(Hamiltonians, gates, analytic results), :mod:`geomgate.dynamics`
(propagation and fidelities), :mod:`geomgate.scenarios` (experiment runners
behind the ``geomgate`` CLI).
"""

# each layer's __all__ is the one list of its public names
from . import core, dynamics, model, scenarios
from .core import *
from .dynamics import *
from .model import *
from .scenarios import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *dynamics.__all__,
    *model.__all__,
    *scenarios.__all__,
    "__version__",
]
