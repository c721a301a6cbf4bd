"""Named, independently seeded random streams for reproducible simulation.

Different model components (arrival process, service times, placement
jitter, ...) each draw from their own stream so adding draws to one
component never perturbs another — a standard variance-reduction and
reproducibility technique in discrete-event simulation.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Iterator

import numpy as np

from ..errors import ConfigurationError


def split_seed(master_seed: int, key: str) -> int:
    """Derive a stable 64-bit child seed from a master seed and a key.

    This is the library's single seed-splitting primitive: named
    simulation streams use it with the stream name, and the sweep engine
    uses it with the task key, so a sweep point's seed depends only on
    ``(master_seed, task_key)`` — never on execution order or worker
    count. Parallel and serial runs therefore draw identical variates.

    The derivation is defined over non-negative master seeds only;
    anything else is a caller bug and fails loudly here rather than
    producing a quietly different variate sequence.
    """
    if master_seed < 0:
        raise ConfigurationError(
            f"master seed must be non-negative, got {master_seed}"
        )
    digest = hashlib.sha256(f"{master_seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


#: Variates drawn per numpy call. Simulations draw millions of scalar
#: variates; batching amortizes the numpy call overhead ~50x.
_BATCH_SIZE = 8192

#: Batch draws of the standard variates each scalar draw scales.
_STANDARD_EXPONENTIAL = np.random.Generator.standard_exponential
_STANDARD_NORMAL = np.random.Generator.standard_normal
_STANDARD_UNIFORM = np.random.Generator.random

#: The attributes holding each draw kind's batch iterators, by stream.
_BATCH_KINDS = ("_exponential", "_normal", "_uniform")


def _lognormal_params(mean: float, cv: float) -> tuple[float, float] | None:
    """``(mu, sigma)`` of the normal under a lognormal with this arithmetic
    mean and CV, or None when ``cv`` is zero (the draw is ``mean``)."""
    if mean <= 0:
        raise ValueError("lognormal mean must be positive")
    if cv < 0:
        raise ValueError("lognormal cv must be non-negative")
    if cv == 0:
        return None
    sigma2 = math.log(1.0 + cv * cv)
    return math.log(mean) - sigma2 / 2.0, math.sqrt(sigma2)


class RandomStreams:
    """A registry of named :class:`numpy.random.Generator` streams.

    Scalar draws are served from per-stream batches of *standard*
    variates (unit exponential / standard normal / unit uniform) scaled
    at use, so a stream's sequence stays deterministic even when the
    requested mean, CV or range changes between draws. Each batch stays
    a numpy array; draws iterate a ``memoryview`` of it, which yields
    plain floats without building a list or a numpy scalar per draw.
    A buffered draw equals the matching ``Generator`` method's next
    variate for the stream, as long as the stream serves one kind of
    draw (every stream in this library does).

    A registry pickles as its generators plus the rest of each batch,
    so a restored registry draws exactly the variates the original
    would have drawn next.
    """

    def __init__(self, master_seed: int = 0) -> None:
        self._master_seed = master_seed
        self._streams: dict[str, np.random.Generator] = {}
        self._exponential: dict[str, Iterator[float]] = {}
        self._normal: dict[str, Iterator[float]] = {}
        self._uniform: dict[str, Iterator[float]] = {}
        self._lognormal: dict[tuple[float, float], tuple[float, float] | None] = {}

    def __getstate__(self) -> dict:
        # An iterator's position can only be read by consuming it: take
        # the rest of each batch, and carry on over a copy of that rest.
        rests = {}
        for kind in _BATCH_KINDS:
            batches = getattr(self, kind)
            rest = {name: np.fromiter(batch, dtype=float) for name, batch in batches.items()}
            for name, values in rest.items():
                batches[name] = iter(memoryview(values))
            rests[kind] = rest
        return {
            "master_seed": self._master_seed,
            "streams": self._streams,
            "rests": rests,
            "lognormal": self._lognormal,
        }

    def __setstate__(self, state: dict) -> None:
        self._master_seed = state["master_seed"]
        self._streams = state["streams"]
        for kind in _BATCH_KINDS:
            rest = state["rests"][kind]
            setattr(self, kind, {name: iter(memoryview(values)) for name, values in rest.items()})
        self._lognormal = state["lognormal"]

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def get(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the stream called ``name``."""
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(split_seed(self._master_seed, name))
        return self._streams[name]

    def _refill(
        self,
        batches: dict[str, Iterator[float]],
        name: str,
        draw: Callable[[np.random.Generator, int], np.ndarray],
    ) -> float:
        """Draw a fresh batch for ``name`` and return its first variate."""
        batch = batches[name] = iter(memoryview(draw(self.get(name), _BATCH_SIZE)))
        return next(batch)

    def exponential(self, name: str, mean: float) -> float:
        """Draw an exponential variate with the given mean."""
        try:
            return next(self._exponential[name]) * mean
        except (KeyError, StopIteration):
            return self._refill(self._exponential, name, _STANDARD_EXPONENTIAL) * mean

    def lognormal(self, name: str, mean: float, cv: float) -> float:
        """Draw a lognormal variate with target mean and coefficient of variation.

        ``cv`` is the ratio of the standard deviation to the mean; the
        underlying normal parameters are solved so the *arithmetic* mean
        and CV match the request.
        """
        try:
            params = self._lognormal[mean, cv]
        except KeyError:
            params = self._lognormal[mean, cv] = _lognormal_params(mean, cv)
        if params is None:
            return mean
        mu, sigma = params
        try:
            normal = next(self._normal[name])
        except (KeyError, StopIteration):
            normal = self._refill(self._normal, name, _STANDARD_NORMAL)
        return math.exp(mu + sigma * normal)

    def uniform(self, name: str, low: float, high: float) -> float:
        """Draw a uniform variate in ``[low, high)``."""
        span = high - low
        if not 0.0 <= span < math.inf:
            raise ValueError(f"uniform range [{low}, {high}) is empty or unbounded")
        try:
            unit = next(self._uniform[name])
        except (KeyError, StopIteration):
            unit = self._refill(self._uniform, name, _STANDARD_UNIFORM)
        return low + span * unit


__all__ = ["RandomStreams", "split_seed"]
