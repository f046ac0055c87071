"""Bundled presets: the canonical two-symbol instantiation, the rational and
transcendental canon pairs, and the regime pair used by the convergence-switch
demonstrations.

The canonical grammar and A/B table live in ``data/canonical.json`` alone.
The table targets aggregate densities of 35 notes/s (deterministic regime:
constant IOI 0.2 s across 3:4 voices, so 15 + 20 events/s) and 120.6
notes/s (textural regime: exponential rate 40.2 across 1:2 voices).
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from importlib import resources

from .canon import VoiceSpec
from .grammar import Grammar, grammar_from_config
from .mapping import MappingTable, ParameterConfig, PitchSet, table_from_config
from .stochastic import Constant, Exponential, Uniform

CHROMATIC = tuple(range(12))
MAJOR_TRIAD = (0, 4, 7)


def fibonacci_grammar() -> Grammar:
    """The bundled config's grammar: A -> AB, B -> A from axiom A."""
    return grammar_from_config(load_bundled_config()["grammar"])


def canonical_table(depth_weighted: bool = False) -> MappingTable:
    """The bundled config's two-regime mapping: deterministic 'A' versus
    textural 'B'.

    With ``depth_weighted`` the geometric depth modulation is enabled
    (deeper symbols get denser IOIs and wider registers); the plain table
    resolves identically for every generation.
    """
    table = table_from_config(load_bundled_config()["mapping"])
    return replace(table, scale_ioi=0.9, scale_pitch=1.1) if depth_weighted else table


def rational_canon() -> tuple[VoiceSpec, VoiceSpec]:
    """3:4 canon on a base interval of 3 s: voice IOIs of 1.0 s and 0.75 s."""
    return VoiceSpec(3.0, 3.0), VoiceSpec(4.0, 3.0)


def transcendental_canon() -> tuple[VoiceSpec, VoiceSpec]:
    """e:pi canon on a base interval of 1 s: voice IOIs of 1/e and 1/pi seconds."""
    return VoiceSpec(math.e, 1.0), VoiceSpec(math.pi, 1.0)


def cp_switch_configs() -> tuple[ParameterConfig, ParameterConfig]:
    """Sparse/concentrated regime before the switch, dense/chromatic after."""
    pre = ParameterConfig(
        ioi=Exponential(3.0),
        pitch=PitchSet(MAJOR_TRIAD, 48, 84),
        velocity=Constant(800),
        ratios=(1.0,),
        duration=15.0,
    )
    post = ParameterConfig(
        ioi=Exponential(36.0),
        pitch=PitchSet(CHROMATIC, 21, 108),
        velocity=Uniform(100, 1000),
        ratios=(1.0,),
        duration=15.0,
    )
    return pre, post


def load_bundled_config(name: str = "canonical") -> dict:
    """Bundled JSON configuration document (grammar, mapping, HAL and MIDI)."""
    path = resources.files("polycanon").joinpath("data", f"{name}.json")
    with path.open() as fh:
        return json.load(fh)
