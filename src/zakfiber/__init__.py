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
    parseval_decompose_fibers,
    verify_decomposition,
    verify_decomposition_fibers,
)
from .frames import (
    FrameReport,
    frame_check,
    frame_check_fibers,
    riesz_check,
    riesz_check_fibers,
)
from .group import (
    FiniteAbelianGroup,
    Subgroup,
    annihilator,
    character,
    character_table,
    coset_transversal,
    dft,
    idft,
    subgroup_from_generators,
)
from .ranges import (
    RangeFunction,
    membership,
    membership_fibers,
    project,
    range_from_fibers,
    range_from_generators,
)
from .scenario import Scenario, ScenarioError, fixture_path, parse_scenario
from .translation import (
    DualityReport,
    TranslationScenario,
    build_scenario,
    duality_check,
    fiberize,
    ti_analyze,
    weil_check,
    zakG_forward,
    zakG_inverse,
    zak_point,
)
from .zak import FiberedVector, ZakTransform

__version__ = "0.1.0"
