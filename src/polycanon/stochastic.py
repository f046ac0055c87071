"""Seeded random sampling for every distribution family used by the pipeline.

One PRNG is used project-wide: numpy's PCG64 behind ``numpy.random.Generator``,
seeded through ``SeedSequence``. Identical seeds give identical sample streams
within this implementation; cross-implementation reproducibility is statistical
(tests use tolerances, never exact draw values). Parallel work derives
independent generators from (master seed, stream label).

Each law is a frozen dataclass that carries its own behaviour, so this module
(with ``mapping.PitchSet``) is the only place that knows which families exist:

- ``sample(rng, n)`` is the one way to draw: it returns an array of ``n``
  values and makes the numpy call the law names: ``rng.uniform(lo, hi, n)``,
  ``rng.normal(mu, sigma, n)``, ``rng.exponential(scale, n)``; a constant
  draws nothing.
- ``scaled(factor)`` is the IOI law under depth modulation, ``widened(factor)``
  the pitch law (spread scaled about the centre).
- ``cdf(x)``, the closed-form CDF, exists for constant, uniform and exponential.
- Config I/O is one type-name table plus the dataclass fields. Every config
  reader checks its values with :func:`config_value` and :func:`config_list`,
  the keys of each mapping with one :func:`config_keys` call, and a dataclass
  section with :func:`config_section`.

``PitchSet.sample`` has the same signature and one draw order: all ``n``
classes, then all ``n`` octave placements.

Onset streams have one sampler per kind of process. :func:`renewal_onsets`
draws a renewal stream from a law: draw an IOI, advance by it, with the IOIs
drawn in blocks; ``pipeline.generate`` draws every voice of every section
with it. :func:`thinned_onsets` draws an inhomogeneous Poisson process from
a rate function by thinning against its peak; it is an event-time process,
not a law.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np


class ConfigError(ValueError):
    """A distribution or pipeline configuration is unusable."""


_JSON_KINDS = {float: (numbers.Real, "a number"), int: (numbers.Integral, "an integer"),
               str: (str, "a string"), list: (list, "a list"), dict: (dict, "a mapping")}


def config_value(value, kind: type, path: str):
    """``value`` as ``kind`` (float, int, str, list or dict); a value of
    another JSON type, or an integer too large for a float, raises
    ConfigError naming ``path``. A bool is not a number, and a float is not
    an integer."""
    types, name = _JSON_KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{path or 'the config'} must be {name}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ConfigError(f"{path} is too large for a float") from None


def config_list(values, kind: type, path: str) -> tuple:
    """``values``, a JSON list, with each item as ``kind``; anything else
    raises ConfigError naming its path, e.g. ``path.2`` for the third item."""
    return tuple(config_value(v, kind, f"{path}.{i}")
                 for i, v in enumerate(config_value(values, list, path)))


def config_keys(cfg: dict, path: str, required=(), optional=()) -> None:
    """Raise ConfigError naming ``path`` when ``cfg`` is not a mapping, else
    every key of ``cfg`` in neither ``required`` nor ``optional`` as
    ``path.key`` (a bare key at the top level), else every ``required`` key
    missing from ``cfg``."""
    config_value(cfg, dict, path)
    name = (lambda key: f"{path}.{key}") if path else str
    if unknown := [name(key) for key in cfg if key not in required and key not in optional]:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    if missing := [name(key) for key in required if key not in cfg]:
        raise ConfigError(f"missing config key(s): {', '.join(missing)}")


def config_section(cls, cfg: dict, path: str, exclude=()):
    """The dataclass ``cls`` from the config section ``cfg`` at ``path``, each value
    read as its field default's type; a field in ``exclude`` is an unknown key.
    A ConfigError names ``path.key`` or ``path``."""
    kinds = {f.name: type(f.default) for f in fields(cls) if f.name not in exclude}
    config_keys(cfg, path, optional=kinds)
    values = {key: config_value(value, kinds[key], f"{path}.{key}") for key, value in cfg.items()}
    try:
        return cls(**values)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def make_rng(seed: int) -> np.random.Generator:
    """Project-standard generator: PCG64 seeded via SeedSequence."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def derive_rng(master_seed: int, stream: str | int) -> np.random.Generator:
    """Independent generator for a named sub-stream of a master seed."""
    if isinstance(stream, str):
        import hashlib

        digest = hashlib.sha256(stream.encode("utf-8")).digest()
        stream = int.from_bytes(digest[:8], "big")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed, stream))))


# ---------------------------------------------------------------------------
# Distribution laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    value: float

    def mean(self) -> float:
        return self.value

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value, dtype=float)

    def scaled(self, factor: float) -> "Constant":
        return Constant(self.value * factor)

    def widened(self, factor: float) -> "Constant":
        return self

    def cdf(self, x):
        # float-tolerant step so de-scaled constants (value/r * r) score zero
        return (np.asarray(x) >= self.value - 1e-12).astype(float)


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ConfigError(f"uniform bounds reversed: [{self.lo}, {self.hi}]")

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, n)

    def scaled(self, factor: float) -> "Uniform":
        return Uniform(self.lo * factor, self.hi * factor)

    def widened(self, factor: float) -> "Uniform":
        center = 0.5 * (self.lo + self.hi)
        half = 0.5 * (self.hi - self.lo) * factor
        return Uniform(center - half, center + half)

    def cdf(self, x):
        # for integer-rounded draws the lattice step is tiny relative to the span
        return np.clip((np.asarray(x, float) - self.lo) / (self.hi - self.lo), 0, 1)


@dataclass(frozen=True)
class Gaussian:
    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ConfigError(f"gaussian sigma must be >= 0, got {self.sigma}")

    def mean(self) -> float:
        return self.mu

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(self.mu, self.sigma, n)

    def scaled(self, factor: float) -> "Gaussian":
        return Gaussian(self.mu * factor, self.sigma * factor)

    def widened(self, factor: float) -> "Gaussian":
        return Gaussian(self.mu, self.sigma * factor)


@dataclass(frozen=True)
class Exponential:
    """Parameterised by rate (events per unit); scale is 1/rate."""

    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ConfigError(f"exponential rate must be > 0, got {self.rate}")

    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def scale(self) -> float:
        return 1.0 / self.rate

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(self.scale, n)

    def scaled(self, factor: float) -> "Exponential":
        return Exponential(self.rate / factor)  # scale 1/rate multiplied by factor

    def widened(self, factor: float) -> "Exponential":
        return self

    def cdf(self, x):
        return 1.0 - np.exp(-self.rate * np.maximum(np.asarray(x, float), 0.0))


Distribution = Constant | Uniform | Gaussian | Exponential


# IOI draws below this are clipped up, so onset sequences stay strictly increasing
# even for Gaussian IOI laws whose tail crosses zero.
MIN_IOI = 1e-4
# the most IOIs one renewal stream may draw
MAX_EVENTS_PER_SECTION = 1_000_000


def renewal_onsets(ioi: Distribution, ratio: float, t_start: float, t_end: float,
                   rng: np.random.Generator, where: str) -> tuple[np.ndarray, np.ndarray]:
    """Onsets and durations of one renewal stream over [t_start, t_end).

    Each event lasts ``tau = max(draw / ratio, MIN_IOI)`` and the next one
    starts when it ends; events start only before ``t_end - 1e-12``, and the
    interval that would start past it is discarded. IOIs are drawn in blocks
    sized from the law's mean and the time left, at most
    ``MAX_EVENTS_PER_SECTION`` in all. A constant law draws nothing. ``where``
    names the stream in errors.
    """
    if isinstance(ioi, Constant) and ioi.value <= 0:
        raise ConfigError(f"{where}: constant IOI {ioi.value} would never advance the section")
    mean_tau = max(ioi.mean() / ratio, MIN_IOI)
    t, drawn = t_start, 0
    onsets, taus = [np.empty(0)], [np.empty(0)]
    while t < t_end - 1e-12:
        if drawn == MAX_EVENTS_PER_SECTION:
            raise ConfigError(
                f"{where} exceeded {MAX_EVENTS_PER_SECTION} events; "
                "IOI distribution too dense or degenerate")
        # the mean count left plus about four exponential-count standard
        # deviations, so one block usually reaches the end
        expected = (t_end - t) / mean_tau
        block = min(int(expected + 4.0 * np.sqrt(expected)) + 8,
                    MAX_EVENTS_PER_SECTION - drawn)
        tau = np.maximum(ioi.sample(rng, block) / ratio, MIN_IOI)
        # a sequential cumsum from the current onset: the same float additions
        # as advancing one event at a time
        ends = np.cumsum(np.concatenate(([t], tau)))
        onsets.append(ends[:-1])
        taus.append(tau)
        t = ends[-1]
        drawn += block
    onsets, taus = np.concatenate(onsets), np.concatenate(taus)
    n = int(np.searchsorted(onsets, t_end - 1e-12))
    return onsets[:n], taus[:n]


def thinned_onsets(rate_fn: Callable[[float], float], rate_max: float, duration: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Onsets in [0, duration) of an inhomogeneous Poisson process with rate
    ``rate_fn(t)``, drawn by thinning (Lewis & Shedler 1979): per candidate, an
    exponential gap at ``rate_max``, then a uniform draw that keeps it with
    probability ``rate_fn(t) / rate_max``. A ``rate_max`` that is not finite
    and > 0, or a rate outside [0, rate_max], NaN included, raises ConfigError.
    """
    if not 0 < rate_max < np.inf:
        raise ConfigError(f"rate_max must be finite and > 0, got {rate_max}")
    onsets = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate_max)
        if t >= duration:
            break
        lam = rate_fn(t)
        if not 0 <= lam <= rate_max * (1 + 1e-9):
            raise ConfigError(f"rate function out of [0, rate_max] at t={t:.6f}: {lam}")
        if rng.uniform() * rate_max < lam:
            onsets.append(t)
    return np.array(onsets, dtype=float)


# ---------------------------------------------------------------------------
# Config (de)serialisation
# ---------------------------------------------------------------------------


_TYPES = {"constant": Constant, "uniform": Uniform, "gaussian": Gaussian,
          "exponential": Exponential}
_TYPE_NAMES = {law: kind for kind, law in _TYPES.items()}


def dist_from_config(cfg: dict, path: str = "") -> Distribution:
    """Build a distribution from its JSON form, e.g. {"type": "exponential", "rate": 40.0}.

    An exponential may give its ``scale`` in place of its ``rate``. A key
    the law does not have, or one it needs and lacks, raises ConfigError
    naming it under ``path``.
    """
    at = f"{path}." if path else ""
    config_keys(cfg, path, ("type",), cfg)  # any key may stand until the type names the fields
    kind = config_value(cfg["type"], str, f"{at}type")
    if kind not in _TYPES:
        raise ConfigError(f"unknown distribution type: {kind!r}")
    if kind == "exponential" and "rate" not in cfg and "scale" in cfg:
        config_keys(cfg, path, ("type", "scale"))
        scale = config_value(cfg["scale"], float, f"{at}scale")
        if scale <= 0:
            raise ConfigError(f"{at}scale must be > 0, got {scale}")
        return Exponential(1.0 / scale)
    law = _TYPES[kind]
    names = tuple(f.name for f in fields(law))
    config_keys(cfg, path, ("type", *names))
    return law(*(config_value(cfg[name], float, f"{at}{name}") for name in names))


def dist_to_config(dist: Distribution) -> dict:
    return {"type": _TYPE_NAMES[type(dist)],
            **{f.name: getattr(dist, f.name) for f in fields(dist)}}
