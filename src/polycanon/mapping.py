"""Symbol-to-regime mapping: each grammar symbol selects a distribution *type*
per musical parameter, and recursion depth modulates the resolved parameters
(deeper = denser timing, wider pitch spread).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .stochastic import ConfigError, Distribution, dist_from_config, dist_to_config


class MappingError(KeyError):
    pass


@dataclass(frozen=True)
class PitchSet:
    """Allowed pitch classes within a register, optionally class-weighted."""

    classes: tuple[int, ...]
    lo: int
    hi: int
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.classes:
            raise ConfigError("pitch set needs at least one pitch class")
        if any(not 0 <= c <= 11 for c in self.classes):
            raise ConfigError("pitch classes must be in 0..11")
        if not 0 <= self.lo <= self.hi <= 127:
            raise ConfigError(f"register [{self.lo}, {self.hi}] invalid")
        cdf = None
        if self.weights is not None:
            if len(self.weights) != len(self.classes):
                raise ConfigError("weights must match classes")
            if not all(0.0 <= w < np.inf for w in self.weights):
                raise ConfigError("weights must be finite and non-negative")
            if abs(sum(self.weights) - 1.0) > 1e-9:
                raise ConfigError("weights must sum to 1")
            cdf = np.cumsum(np.asarray(self.weights, dtype=float))
            cdf /= cdf[-1]
        notes = tuple(range(self.lo + (c - self.lo) % 12, self.hi + 1, 12) for c in self.classes)
        for c, placements in zip(self.classes, notes):
            if not placements:
                raise ConfigError(f"pitch class {c} has no notes in [{self.lo}, {self.hi}]")
        # sampler tables, derived from the fields (not fields themselves):
        # the class CDF, and each class's octave placements in the register
        object.__setattr__(self, "_cdf", cdf)
        object.__setattr__(self, "_notes", notes)
        # the placements as arrays for vector draws: lowest note and count per class
        object.__setattr__(self, "_first", np.array([p[0] for p in notes]))
        object.__setattr__(self, "_counts", np.array([len(p) for p in notes]))

    def sample(self, rng: np.random.Generator, size=None):
        """Pick a class (uniform or weighted), then a uniform octave placement.

        One draw (``size`` None) is the class then its octave, exactly what
        ``rng.choice(len(classes), p=weights)`` followed by
        ``rng.integers(len(notes))`` draws: an unweighted class is one
        ``rng.integers`` call, a weighted one inverts the normalised CDF at
        one ``rng.random()``, as numpy's ``choice`` does. ``size`` draws come
        from the same law in another order, two vector draws: all the
        classes first, then all the octave placements.
        """
        if size is None:
            if self._cdf is None:
                idx = rng.integers(len(self.classes))
            else:
                idx = self._cdf.searchsorted(rng.random(), side="right")
            notes = self._notes[idx]
            return notes[rng.integers(len(notes))]
        if self._cdf is None:
            idx = rng.integers(len(self.classes), size=size)
        else:
            idx = self._cdf.searchsorted(rng.random(size), side="right")
        return self._first[idx] + 12 * rng.integers(self._counts[idx])

    def pmf(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact (pitches, probabilities) of the sampler, in pitch order."""
        values, probs = [], []
        n_classes = len(self.classes)
        for i, notes in enumerate(self._notes):
            w = self.weights[i] if self.weights else 1.0 / n_classes
            for note in notes:
                values.append(note)
                probs.append(w / len(notes))
        order = np.argsort(values)
        return np.array(values)[order], np.array(probs)[order]

    def widened(self, factor: float) -> "PitchSet":
        """Register scaled about its centre by `factor`, clamped to 0..127."""
        center = 0.5 * (self.lo + self.hi)
        half = 0.5 * (self.hi - self.lo) * factor
        lo = int(max(0, round(center - half)))
        hi = int(min(127, round(center + half)))
        return replace(self, lo=lo, hi=hi)


PitchSource = Distribution | PitchSet


@dataclass(frozen=True)
class ParameterConfig:
    """Full regime for one symbol: timing, pitch, dynamics, voice ratios, duration."""

    ioi: Distribution
    pitch: PitchSource | tuple[PitchSource, ...]
    velocity: Distribution
    ratios: tuple[float, ...]
    duration: float

    def __post_init__(self):
        if not self.ratios:
            raise ConfigError("at least one voice ratio required")
        if any(r <= 0 for r in self.ratios):
            raise ConfigError("voice ratios must be positive")
        if self.duration <= 0:
            raise ConfigError("section duration must be positive")
        if isinstance(self.pitch, tuple) and len(self.pitch) != len(self.ratios):
            raise ConfigError("per-voice pitch sources must match the number of ratios")

    def pitch_for_voice(self, voice: int) -> PitchSource:
        if isinstance(self.pitch, tuple):
            return self.pitch[voice]
        return self.pitch


@dataclass(frozen=True)
class MappingTable:
    """Per-symbol base configs plus geometric depth-modulation coefficients."""

    configs: dict[str, ParameterConfig]
    scale_ioi: float = 1.0
    scale_pitch: float = 1.0

    def __post_init__(self):
        if self.scale_ioi <= 0 or self.scale_pitch <= 0:
            raise ConfigError("modulation coefficients must be positive")

    def symbols(self):
        return sorted(self.configs)


def resolve(table: MappingTable, symbol: str, generation: int) -> ParameterConfig:
    """Config for (symbol, generation): base regime with depth modulation applied."""
    if symbol not in table.configs:
        raise MappingError(f"symbol {symbol!r} has no mapping")
    if generation < 0:
        raise ValueError(f"generation must be >= 0, got {generation}")
    base = table.configs[symbol]
    ioi_factor = table.scale_ioi**generation
    pitch_factor = table.scale_pitch**generation
    if ioi_factor == 1.0 and pitch_factor == 1.0:
        return base
    pitch = base.pitch
    if isinstance(pitch, tuple):
        pitch = tuple(p.widened(pitch_factor) for p in pitch)
    else:
        pitch = pitch.widened(pitch_factor)
    return replace(base, ioi=base.ioi.scaled(ioi_factor), pitch=pitch)


# ---------------------------------------------------------------------------
# Config round-trip and the human-readable dump
# ---------------------------------------------------------------------------


def _pitch_to_config(source: PitchSource) -> dict:
    if isinstance(source, PitchSet):
        cfg = {"type": "pitch_set", "classes": list(source.classes),
               "lo": source.lo, "hi": source.hi}
        if source.weights is not None:
            cfg["weights"] = list(source.weights)
        return cfg
    return dist_to_config(source)


def _pitch_from_config(cfg: dict) -> PitchSource:
    if cfg.get("type") == "pitch_set":
        weights = cfg.get("weights")
        return PitchSet(tuple(cfg["classes"]), int(cfg["lo"]), int(cfg["hi"]),
                        tuple(weights) if weights else None)
    return dist_from_config(cfg)


def config_to_dict(pc: ParameterConfig) -> dict:
    if isinstance(pc.pitch, tuple):
        pitch = [_pitch_to_config(p) for p in pc.pitch]
    else:
        pitch = _pitch_to_config(pc.pitch)
    return {
        "ioi": dist_to_config(pc.ioi),
        "pitch": pitch,
        "velocity": dist_to_config(pc.velocity),
        "ratios": list(pc.ratios),
        "duration": pc.duration,
    }


def config_from_dict(cfg: dict) -> ParameterConfig:
    pitch_cfg = cfg["pitch"]
    if isinstance(pitch_cfg, list):
        pitch = tuple(_pitch_from_config(p) for p in pitch_cfg)
    else:
        pitch = _pitch_from_config(pitch_cfg)
    return ParameterConfig(
        ioi=dist_from_config(cfg["ioi"]),
        pitch=pitch,
        velocity=dist_from_config(cfg["velocity"]),
        ratios=tuple(float(r) for r in cfg["ratios"]),
        duration=float(cfg["duration"]),
    )


def table_to_config(table: MappingTable) -> dict:
    return {
        "symbols": {s: config_to_dict(c) for s, c in sorted(table.configs.items())},
        "scale_ioi": table.scale_ioi,
        "scale_pitch": table.scale_pitch,
    }


def table_from_config(cfg: dict) -> MappingTable:
    return MappingTable(
        configs={s: config_from_dict(c) for s, c in cfg["symbols"].items()},
        scale_ioi=float(cfg.get("scale_ioi", 1.0)),
        scale_pitch=float(cfg.get("scale_pitch", 1.0)),
    )


def describe(table: MappingTable) -> str:
    """Readable, parseable dump of every symbol-to-regime mapping."""
    return json.dumps(table_to_config(table), indent=2, sort_keys=True)


def parse(text: str) -> MappingTable:
    return table_from_config(json.loads(text))
