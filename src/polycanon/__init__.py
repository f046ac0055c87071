"""polycanon: grammar-driven stochastic composition for automated piano.

Four-layer pipeline: L-system expansion with recursion tags (grammar),
symbol-to-regime mapping with depth modulation (mapping), tempo-canon and
stochastic event generation (canon, stochastic, pipeline), and a
hardware abstraction layer for velocity-dependent latency and mechanical
constraints (hal). Companion modules supply structural metrics (metrics),
a statistics kernel (stats), serialization (fileio), and a seeded
experiment harness (experiments).
"""

from .events import NoteEvent, Piece
from .grammar import Grammar, SymbolString, TaggedSymbol, expand, shuffle_preserving_counts, symbol_counts
from .canon import ConvergenceEvent, ConvergenceQuery, VoiceSpec, find_convergences, next_convergence_after, voice_time
from .mapping import MappingTable, ParameterConfig, PitchSet, describe, parse, resolve
from .pipeline import apply_collision_mask, generate, generate_beyond_human, generate_cp_continuous, generate_cp_discrete
from .hal import ConstraintSet, FilterConfig, LatencyModel, enforce_constraints, fit_power_law, latency, precompensate, robustness_filter, simulate_mismatch
from .stochastic import Constant, Exponential, Gaussian, Uniform, derive_rng, make_rng, renewal_onsets, thinned_onsets

__version__ = "0.1.0"
