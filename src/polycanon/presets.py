"""Bundled presets: the canonical two-symbol instantiation, the rational and
transcendental canon pairs, and the regime pair used by the convergence-switch
demonstrations.

The canonical A/B table targets aggregate densities of 35 notes/s
(deterministic regime: constant IOI 0.2 s across 3:4 voices, so 15 + 20
events/s) and 120.6 notes/s (textural regime: exponential rate 40.2 across
1:2 voices).
"""

from __future__ import annotations

import json
import math
from importlib import resources

from .canon import VoiceSpec
from .grammar import Grammar, grammar_from_strings
from .hal import LatencyModel
from .mapping import MappingTable, ParameterConfig, PitchSet
from .stochastic import Constant, Exponential, Uniform

C_MAJOR = (0, 2, 4, 5, 7, 9, 11)
CHROMATIC = tuple(range(12))
MAJOR_TRIAD = (0, 4, 7)


def fibonacci_grammar() -> Grammar:
    return grammar_from_strings({"A": "AB", "B": "A"}, "A")


def canonical_table(depth_weighted: bool = False) -> MappingTable:
    """The two-regime mapping: deterministic 'A' versus textural 'B'.

    With ``depth_weighted`` the geometric depth modulation is enabled
    (deeper symbols get denser IOIs and wider registers); the plain table
    resolves identically for every generation.
    """
    config_a = ParameterConfig(
        ioi=Constant(0.2),
        pitch=(PitchSet(C_MAJOR, 48, 59), PitchSet(C_MAJOR, 60, 71)),
        velocity=Constant(800),
        ratios=(3.0, 4.0),
        duration=10.0,
    )
    config_b = ParameterConfig(
        ioi=Exponential(40.2),
        pitch=PitchSet(CHROMATIC, 21, 108),
        velocity=Uniform(100, 1000),
        ratios=(1.0, 2.0),
        duration=8.0,
    )
    scale_ioi, scale_pitch = (0.9, 1.1) if depth_weighted else (1.0, 1.0)
    return MappingTable({"A": config_a, "B": config_b},
                        scale_ioi=scale_ioi, scale_pitch=scale_pitch)


def rational_canon(tau_base: float = 3.0) -> tuple[VoiceSpec, VoiceSpec]:
    """3:4 canon; the default base interval gives voice IOIs of 1.0 s and 0.75 s."""
    return VoiceSpec(3.0, tau_base), VoiceSpec(4.0, tau_base)


def transcendental_canon(tau_base: float = 1.0) -> tuple[VoiceSpec, VoiceSpec]:
    """e:pi canon; with tau_base 1.0 the voice IOIs are 1/e and 1/pi seconds."""
    return VoiceSpec(math.e, tau_base), VoiceSpec(math.pi, tau_base)


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


def default_latency_model() -> LatencyModel:
    return LatencyModel(variant="power", c=0.5)


def load_bundled_config(name: str = "canonical") -> dict:
    """Bundled JSON configuration document (grammar, mapping, HAL and MIDI)."""
    path = resources.files("polycanon").joinpath("data", f"{name}.json")
    with path.open() as fh:
        return json.load(fh)
