"""spinpulse: compile N-spin unitaries into pulse sequences built from
single-spin x/y rotations and Ising couplings, verified by direct matrix
simulation up to global phase."""

from .decompose import DecompositionPlan, SingleOp
from .generator import BranchConvention, GeneratorExpansion, expand, extract_generator
from .linalg import eig_unitary
from .pauli import PauliString, commutator, commutes, materialize
from .pipeline import CompileOptions, CompileReport, compile_unitary
from .pulse import Coupling, PulseOp, PulseSequence, Rotation
from .sim import equal_up_to_phase, simulate

__version__ = "0.1.0"

__all__ = [
    "BranchConvention",
    "CompileOptions",
    "CompileReport",
    "Coupling",
    "DecompositionPlan",
    "GeneratorExpansion",
    "PauliString",
    "PulseOp",
    "PulseSequence",
    "Rotation",
    "SingleOp",
    "commutator",
    "commutes",
    "compile_unitary",
    "eig_unitary",
    "equal_up_to_phase",
    "expand",
    "extract_generator",
    "materialize",
    "simulate",
]
