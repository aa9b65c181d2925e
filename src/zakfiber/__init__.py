"""Computational harmonic analysis of group-invariant subspaces.

The package fiberizes functions on finite weighted point sets through a
Zak-type transform over a free action of a finite abelian group, and
characterizes invariant subspaces, frame/Riesz properties, Parseval
decompositions, and subgroup-translation duality through per-fiber linear
algebra.  Every analysis has an independent dense-matrix reference route
in :mod:`zakfiber.oracle`.
"""

from .action import (
    ActionReport,
    NotFreeError,
    QuasiInvariantAction,
    WeightedSpace,
    affine_action,
    tiling_transversal,
    validate_action,
)
from .decomp import (
    DecompositionCheck,
    parseval_decompose,
    verify_decomposition,
)
from .frames import (
    FrameReport,
    frame_check,
    riesz_check,
)
from .group import (
    FiniteAbelianGroup,
    Subgroup,
    annihilator,
    character,
    coset_transversal,
    dft,
    subgroup_from_generators,
)
from .ranges import (
    RangeFunction,
    membership,
    membership_fibers,
    range_from_generators,
)
from .scenario import Scenario, ScenarioError, fixture_path, parse_scenario
from .translation import (
    DualityReport,
    TranslationScenario,
    build_scenario,
    duality_check,
    fiberize,
    weil_check,
)
from .zak import ZakTransform

__version__ = "0.1.0"
