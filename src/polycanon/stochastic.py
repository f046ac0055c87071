"""Seeded random sampling for every distribution family used by the pipeline.

One PRNG is used project-wide: numpy's PCG64 behind ``numpy.random.Generator``,
seeded through ``SeedSequence``. Identical seeds give identical sample streams
within this implementation; cross-implementation reproducibility is statistical
(tests use tolerances, never exact draw values). Parallel work derives
independent generators from (master seed, stream label).

Each law is a frozen dataclass that carries its own behaviour, so this module
(with ``mapping.PitchSet``) is the only place that knows which families exist:

- ``sample(rng, size=None)`` follows numpy's ``size`` convention (a Python
  scalar when ``size`` is None, else an array) and makes the numpy call the
  law names: ``rng.uniform(lo, hi, size)``, ``rng.normal(mu, sigma, size)``,
  ``rng.exponential(scale, size)``; a constant draws nothing.
- ``scaled(factor)`` is the IOI law under depth modulation, ``widened(factor)``
  the pitch law (spread scaled about the centre).
- ``cdf(x)``, the closed-form CDF, exists for constant, uniform and exponential.
- Config I/O is one type-name table plus the dataclass fields.

``PitchSet.sample`` has the same signature and two draw orders: one draw is a
class then its octave, ``size`` draws are all classes, then all octaves.
``InhomogeneousPoisson`` describes event times, not values: its ``sample``
raises :class:`WrongVariantError`, and :func:`sample_ioi_stream` thins it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np


class WrongVariantError(TypeError):
    """A distribution variant was used through the wrong sampling entry point."""


class ConfigError(ValueError):
    """A distribution or pipeline configuration is unusable."""


def make_rng(seed: int) -> np.random.Generator:
    """Project-standard generator: PCG64 seeded via SeedSequence."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def derive_rng(master_seed: int, stream: str | int) -> np.random.Generator:
    """Independent generator for a named sub-stream of a master seed."""
    if isinstance(stream, str):
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

    def sample(self, rng: np.random.Generator, size=None):
        return self.value if size is None else np.full(size, self.value, dtype=float)

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

    def sample(self, rng: np.random.Generator, size=None):
        return rng.uniform(self.lo, self.hi, size)

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

    def sample(self, rng: np.random.Generator, size=None):
        return rng.normal(self.mu, self.sigma, size)

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

    def sample(self, rng: np.random.Generator, size=None):
        return rng.exponential(self.scale, size)

    def scaled(self, factor: float) -> "Exponential":
        return Exponential(self.rate / factor)  # scale 1/rate multiplied by factor

    def widened(self, factor: float) -> "Exponential":
        return self

    def cdf(self, x):
        return 1.0 - np.exp(-self.rate * np.maximum(np.asarray(x, float), 0.0))


@dataclass(frozen=True)
class InhomogeneousPoisson:
    """Time-varying event rate; sampled by thinning against the peak bound.

    It describes event *times*, not single values: draw them with
    :func:`sample_ioi_stream`. Depth modulation leaves it unchanged.
    """

    rate_fn: Callable[[float], float]
    rate_max: float

    def __post_init__(self):
        if self.rate_max <= 0:
            raise ConfigError("rate_max must be > 0")

    def sample(self, rng: np.random.Generator, size=None):
        raise WrongVariantError(
            "inhomogeneous Poisson samples event times; use sample_ioi_stream")

    def scaled(self, factor: float) -> "InhomogeneousPoisson":
        return self

    def widened(self, factor: float) -> "InhomogeneousPoisson":
        return self


Distribution = Constant | Uniform | Gaussian | Exponential | InhomogeneousPoisson


# IOI draws below this are clipped up, so onset sequences stay strictly increasing
# even for Gaussian IOI laws whose tail crosses zero.
MIN_IOI = 1e-4


def sample_ioi_stream(dist: Distribution, duration: float, rng: np.random.Generator) -> np.ndarray:
    """Onset times in [0, duration) produced by repeatedly drawing IOIs.

    Homogeneous variants follow the generation loop's advance rule (first
    event at t=0, then advance by ``max(draw, MIN_IOI)`` per event) with one
    scalar draw per event. The inhomogeneous variant is a thinned Poisson
    process against ``rate_max`` (no forced event at 0).
    """
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")

    if isinstance(dist, InhomogeneousPoisson):
        onsets = []
        t = 0.0
        while True:
            t += rng.exponential(1.0 / dist.rate_max)
            if t >= duration:
                break
            lam = dist.rate_fn(t)
            if lam < 0 or lam > dist.rate_max * (1 + 1e-9):
                raise ConfigError(f"rate function out of [0, rate_max] at t={t:.6f}: {lam}")
            if rng.uniform() * dist.rate_max < lam:
                onsets.append(t)
        return np.array(onsets, dtype=float)

    onsets = []
    t = 0.0
    while t < duration:
        onsets.append(t)
        step = dist.sample(rng)
        if isinstance(dist, Constant) and step <= 0:
            raise ConfigError("constant IOI must be positive to terminate the stream")
        t += max(step, MIN_IOI)
    return np.array(onsets, dtype=float)


# ---------------------------------------------------------------------------
# Config (de)serialisation
# ---------------------------------------------------------------------------


_TYPES = {"constant": Constant, "uniform": Uniform, "gaussian": Gaussian,
          "exponential": Exponential}
_TYPE_NAMES = {law: kind for kind, law in _TYPES.items()}


def dist_from_config(cfg: dict) -> Distribution:
    """Build a distribution from its JSON form, e.g. {"type": "exponential", "rate": 40.0}.

    An exponential may give its ``scale`` in place of its ``rate``.
    """
    kind = cfg.get("type")
    if kind not in _TYPES:
        raise ConfigError(f"unknown distribution type: {kind!r}")
    if kind == "exponential" and "rate" not in cfg:
        return Exponential(1.0 / float(cfg["scale"]))
    law = _TYPES[kind]
    return law(*(float(cfg[f.name]) for f in fields(law)))


def dist_to_config(dist: Distribution) -> dict:
    kind = _TYPE_NAMES.get(type(dist))
    if kind is None:
        raise ConfigError("rate-function distributions have no JSON form")
    return {"type": kind, **{f.name: getattr(dist, f.name) for f in fields(dist)}}
