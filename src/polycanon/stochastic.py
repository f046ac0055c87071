"""Seeded random sampling for every distribution family used by the pipeline.

One PRNG is used project-wide: numpy's PCG64 behind ``numpy.random.Generator``,
seeded through ``SeedSequence``. Identical seeds give identical sample streams
within this implementation; cross-implementation reproducibility is statistical
(tests use tolerances, never exact draw values). Parallel work derives
independent generators from (master seed, stream label).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
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
# Distribution variants (tagged union)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    value: float

    def mean(self) -> float:
        return self.value


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ConfigError(f"uniform bounds reversed: [{self.lo}, {self.hi}]")

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class Gaussian:
    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ConfigError(f"gaussian sigma must be >= 0, got {self.sigma}")

    def mean(self) -> float:
        return self.mu


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


@dataclass(frozen=True)
class InhomogeneousPoisson:
    """Time-varying event rate; sampled by thinning against the peak bound."""

    rate_fn: Callable[[float], float]
    rate_max: float

    def __post_init__(self):
        if self.rate_max <= 0:
            raise ConfigError("rate_max must be > 0")


Distribution = Constant | Uniform | Gaussian | Exponential | InhomogeneousPoisson


def sample(dist: Distribution, rng: np.random.Generator) -> float:
    """One draw from a scalar distribution.

    The inhomogeneous variant describes event *times*, not single values, and
    must go through :func:`sample_ioi_stream`.
    """
    if isinstance(dist, Constant):
        return dist.value
    if isinstance(dist, Uniform):
        return float(rng.uniform(dist.lo, dist.hi))
    if isinstance(dist, Gaussian):
        return float(rng.normal(dist.mu, dist.sigma))
    if isinstance(dist, Exponential):
        return float(rng.exponential(dist.scale))
    if isinstance(dist, InhomogeneousPoisson):
        raise WrongVariantError(
            "inhomogeneous Poisson samples event times; use sample_ioi_stream"
        )
    raise TypeError(f"not a distribution: {dist!r}")


def sample_many(dist: Distribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorised draws (same laws as :func:`sample`)."""
    if isinstance(dist, Constant):
        return np.full(n, dist.value, dtype=float)
    if isinstance(dist, Uniform):
        return rng.uniform(dist.lo, dist.hi, n)
    if isinstance(dist, Gaussian):
        return rng.normal(dist.mu, dist.sigma, n)
    if isinstance(dist, Exponential):
        return rng.exponential(dist.scale, n)
    raise WrongVariantError("inhomogeneous Poisson samples event times; use sample_ioi_stream")


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
        step = sample(dist, rng)
        if isinstance(dist, Constant) and step <= 0:
            raise ConfigError("constant IOI must be positive to terminate the stream")
        t += max(step, MIN_IOI)
    return np.array(onsets, dtype=float)


# ---------------------------------------------------------------------------
# Config (de)serialisation
# ---------------------------------------------------------------------------


def dist_from_config(cfg: dict) -> Distribution:
    """Build a distribution from its JSON form, e.g. {"type": "exponential", "rate": 40.0}."""
    kind = cfg.get("type")
    if kind == "constant":
        return Constant(float(cfg["value"]))
    if kind == "uniform":
        return Uniform(float(cfg["lo"]), float(cfg["hi"]))
    if kind == "gaussian":
        return Gaussian(float(cfg["mu"]), float(cfg["sigma"]))
    if kind == "exponential":
        if "rate" in cfg:
            return Exponential(float(cfg["rate"]))
        return Exponential(1.0 / float(cfg["scale"]))
    raise ConfigError(f"unknown distribution type: {kind!r}")


def dist_to_config(dist: Distribution) -> dict:
    if isinstance(dist, Constant):
        return {"type": "constant", "value": dist.value}
    if isinstance(dist, Uniform):
        return {"type": "uniform", "lo": dist.lo, "hi": dist.hi}
    if isinstance(dist, Gaussian):
        return {"type": "gaussian", "mu": dist.mu, "sigma": dist.sigma}
    if isinstance(dist, Exponential):
        return {"type": "exponential", "rate": dist.rate}
    raise ConfigError("rate-function distributions have no JSON form")
