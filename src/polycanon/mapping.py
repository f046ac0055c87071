"""Symbol-to-regime mapping: each grammar symbol selects a distribution *type*
per musical parameter, and recursion depth modulates the resolved parameters
(deeper = denser timing, wider pitch spread).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .events import PITCH_MAX
from .stochastic import (
    ConfigError,
    Distribution,
    config_list,
    config_value,
    dist_from_config,
    dist_to_config,
    reject_unknown_keys,
    require_keys,
)


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
        if not 0 <= self.lo <= self.hi <= PITCH_MAX:
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
        # sampler tables, derived from the fields: the class CDF, and per class
        # the lowest note in the register and the count of its octave placements
        first = self.lo + (np.array(self.classes) - self.lo) % 12
        counts = (self.hi - first) // 12 + 1
        if counts.min() < 1:
            c = self.classes[int(np.argmin(counts))]
            raise ConfigError(f"pitch class {c} has no notes in [{self.lo}, {self.hi}]")
        object.__setattr__(self, "_cdf", cdf)
        object.__setattr__(self, "_first", first)
        object.__setattr__(self, "_counts", counts)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` pitches: a class each (uniform or weighted), then a uniform
        octave placement each.

        Two vector draws: all the classes first, then all the placements.
        An unweighted class is ``rng.integers(len(classes), size=n)``; a
        weighted one inverts the normalised CDF at ``rng.random(n)``, as
        numpy's ``choice`` does.
        """
        if self._cdf is None:
            idx = rng.integers(len(self.classes), size=n)
        else:
            idx = self._cdf.searchsorted(rng.random(n), side="right")
        return self._first[idx] + 12 * rng.integers(self._counts[idx])

    def pmf(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact (pitches, probabilities) of the sampler, in pitch order."""
        w = np.array(self.weights or [1.0 / len(self.classes)] * len(self.classes))
        values = np.concatenate([np.arange(f, self.hi + 1, 12) for f in self._first.tolist()])
        probs = np.repeat(w / self._counts, self._counts)
        order = np.argsort(values)
        return values[order], probs[order]

    def widened(self, factor: float) -> "PitchSet":
        """Register scaled about its centre by `factor`, clamped to 0..``PITCH_MAX``."""
        center = 0.5 * (self.lo + self.hi)
        half = 0.5 * (self.hi - self.lo) * factor
        lo = int(max(0, round(center - half)))
        hi = int(min(PITCH_MAX, round(center + half)))
        return replace(self, lo=lo, hi=hi)


PitchSource = Distribution | PitchSet


@dataclass(frozen=True)
class ParameterConfig:
    """Full regime for one symbol: timing, pitch, dynamics, voice ratios, duration.

    ``pitch`` holds one source per voice; a single source given for it is
    used by every voice.
    """

    ioi: Distribution
    pitch: tuple[PitchSource, ...]
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
        if not isinstance(self.pitch, tuple):
            object.__setattr__(self, "pitch", (self.pitch,) * len(self.ratios))
        if len(self.pitch) != len(self.ratios):
            raise ConfigError("per-voice pitch sources must match the number of ratios")


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
    return replace(base, ioi=base.ioi.scaled(ioi_factor),
                   pitch=tuple(p.widened(pitch_factor) for p in base.pitch))


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


def _pitch_from_config(cfg: dict, path: str) -> PitchSource:
    if isinstance(cfg, dict) and cfg.get("type") == "pitch_set":
        reject_unknown_keys(cfg, ("type", "classes", "lo", "hi", "weights"), path)
        require_keys(cfg, ("classes", "lo", "hi"), path)
        weights = cfg.get("weights")
        return PitchSet(config_list(cfg["classes"], int, f"{path}.classes"),
                        config_value(cfg["lo"], int, f"{path}.lo"),
                        config_value(cfg["hi"], int, f"{path}.hi"),
                        config_list(weights, float, f"{path}.weights") if weights else None)
    return dist_from_config(cfg, path)


def config_to_dict(pc: ParameterConfig) -> dict:
    return {
        "ioi": dist_to_config(pc.ioi),
        "pitch": [_pitch_to_config(p) for p in pc.pitch],
        "velocity": dist_to_config(pc.velocity),
        "ratios": list(pc.ratios),
        "duration": pc.duration,
    }


def config_from_dict(cfg: dict, path: str = "") -> ParameterConfig:
    """A symbol's parameters from their JSON form; a key it does not read, or
    one it needs and lacks, raises ConfigError naming it under ``path``."""
    at = f"{path}." if path else ""
    keys = ("ioi", "pitch", "velocity", "ratios", "duration")
    reject_unknown_keys(cfg, keys, path)
    require_keys(cfg, keys, path)
    pitch_cfg = cfg["pitch"]
    if isinstance(pitch_cfg, list):
        pitch = tuple(_pitch_from_config(p, f"{at}pitch.{i}") for i, p in enumerate(pitch_cfg))
    else:
        pitch = _pitch_from_config(pitch_cfg, f"{at}pitch")
    return ParameterConfig(
        ioi=dist_from_config(cfg["ioi"], f"{at}ioi"),
        pitch=pitch,
        velocity=dist_from_config(cfg["velocity"], f"{at}velocity"),
        ratios=config_list(cfg["ratios"], float, f"{at}ratios"),
        duration=config_value(cfg["duration"], float, f"{at}duration"),
    )


def table_to_config(table: MappingTable) -> dict:
    return {
        "symbols": {s: config_to_dict(c) for s, c in sorted(table.configs.items())},
        "scale_ioi": table.scale_ioi,
        "scale_pitch": table.scale_pitch,
    }


def table_from_config(cfg: dict) -> MappingTable:
    """The ``mapping`` section's table; a key it does not read, or one it
    needs and lacks, raises ConfigError naming its path, e.g.
    ``mapping.symbols.A.ioi.sigma`` or ``mapping.symbols.A.ratios``."""
    reject_unknown_keys(cfg, ("symbols", "scale_ioi", "scale_pitch"), "mapping")
    require_keys(cfg, ("symbols",), "mapping")
    symbols = config_value(cfg["symbols"], dict, "mapping.symbols")
    return MappingTable(
        configs={s: config_from_dict(c, f"mapping.symbols.{s}") for s, c in symbols.items()},
        scale_ioi=config_value(cfg.get("scale_ioi", 1.0), float, "mapping.scale_ioi"),
        scale_pitch=config_value(cfg.get("scale_pitch", 1.0), float, "mapping.scale_pitch"),
    )


def describe(table: MappingTable) -> str:
    """Readable, parseable dump of every symbol-to-regime mapping."""
    return json.dumps(table_to_config(table), indent=2, sort_keys=True)


def parse(text: str) -> MappingTable:
    return table_from_config(json.loads(text))
