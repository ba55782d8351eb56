"""Heuristic recognition of PL spheres and combinatorial manifolds.

Finite abstract simplicial complexes, random discrete Morse functions,
integer homology via the Smith normal form, fundamental-group presentations
with bounded Tietze simplification, and bistellar-flip simplification, tied
together by a sphere-recognition pipeline that answers with machine-
checkable certificates.
"""

from .complex_core import HasseDiagram, SimplicialComplex, build_hasse
from .flips import FlipState, bistellar_simplify, replay
from .homology import HomologyGroups, SmithNormalForm, boundary_matrix, homology, smith_normal_form
from .morse import MorseResult, Strategy, is_spherical, morse_spectrum, morse_vector, random_discrete_morse
from .pi1 import GroupPresentation, pi1_presentation, tietze_simplify, triviality_verdict
from .recognizer import (
    Answer,
    ManifoldReport,
    RecognitionConfig,
    Verdict,
    is_combinatorial_manifold,
    recognize,
    recognize_small_dim,
    recognize_sphere,
)
from .rng import Rng

__version__ = "0.1.0"

__all__ = [
    "Answer",
    "FlipState",
    "GroupPresentation",
    "HasseDiagram",
    "HomologyGroups",
    "ManifoldReport",
    "MorseResult",
    "RecognitionConfig",
    "Rng",
    "SimplicialComplex",
    "SmithNormalForm",
    "Strategy",
    "Verdict",
    "bistellar_simplify",
    "boundary_matrix",
    "build_hasse",
    "homology",
    "is_combinatorial_manifold",
    "is_spherical",
    "morse_spectrum",
    "morse_vector",
    "pi1_presentation",
    "random_discrete_morse",
    "recognize",
    "recognize_small_dim",
    "recognize_sphere",
    "replay",
    "smith_normal_form",
    "tietze_simplify",
    "triviality_verdict",
    "__version__",
]
