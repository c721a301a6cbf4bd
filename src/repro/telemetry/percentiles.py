"""Exact percentiles for latency and power distributions.

The paper reports P95 and P99 latencies and P99 power draw. We keep
exact samples in :class:`LatencyRecorder` and compute percentiles with
the standard nearest-rank-with-interpolation definition that NumPy
uses (``method="linear"``), so reported numbers are stable across runs
with the same seed. Every result equals ``np.percentile`` bit for bit
(``tests/test_percentiles.py`` is the oracle).

The samples live in an ``array("d")``: 8 bytes each, against about 32
for a Python float held in a list, so the ~1.8M requests of one Fig. 16
ramp take about 14 MB. ``np.asarray`` reads that buffer as a zero-copy
float64 view. ``np.mean`` sums the view in place, but ``np.percentile``
copies whatever it is given and partitions the copy: on a seed-4001
ramp the first percentile lifted max RSS from 59.4 to 74.1 MB. So the
percentiles here never copy the view. :func:`_order_statistics` reads
it in chunks of ``_CHUNK`` samples, narrows each rank it needs by radix
counts over the samples' bit patterns, and partitions only the small
bucket that holds the rank. A statistic over 1M samples (an 8 MB
buffer) allocates about 1 MB at its peak, all-equal samples included,
and runs faster than ``np.percentile`` (see ``docs/architecture.md``).

While a view is alive the buffer cannot grow, so no view may outlive
the statistic that took it (see :meth:`LatencyRecorder._data`). A
:class:`LatencyRecorder` keeps every sample for its whole life, as an
experiment's statistics over its whole run need. A process that never
stops uses :class:`LatencyWindow`, which keeps the samples of its last
``ticks`` ticks and stays exact over exactly them: its buffer holds at
most twice the window's samples. A bounded alternative with approximate
quantiles is :class:`~repro.telemetry.histogram.LogHistogram`.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from typing import Iterable, Sequence

import numpy as np

from ..errors import ConfigurationError

#: Samples read per pass (256 KB of float64). A pass allocates a few
#: arrays of this size however large the buffer grows, and a bucket
#: that fits in one chunk is partitioned instead of narrowed further.
_CHUNK = 1 << 15
#: Radix digits, most significant first: the first 16 bits of a key are
#: the sign, the exponent and four mantissa bits; later digits take 12.
_FIRST_DIGIT_BITS = 16
_DIGIT_BITS = 12
_SIGN = np.uint64(1 << 63)
#: The keys of -inf and +inf: a key outside them is a NaN's.
_KEY_NEG_INF = 0x000F_FFFF_FFFF_FFFF
_KEY_POS_INF = 0xFFF0_0000_0000_0000


def _keys(chunk: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The order-preserving unsigned keys of ``chunk``'s floats, in ``out``.

    The standard key for signed floats: flip every bit of a negative
    float and only the sign bit of any other. Unsigned order of the
    keys is then the order of the floats, with -0.0 just below 0.0 and
    NaNs beyond the infinities.
    """
    bits = chunk.view(np.uint64)
    keys = out[: bits.size]
    # An arithmetic shift spreads the sign bit: all ones or all zeros.
    np.right_shift(bits.view(np.int64), 63, out=keys.view(np.int64))
    np.bitwise_or(keys, _SIGN, out=keys)
    return np.bitwise_xor(keys, bits, out=keys)


def _value(key: int) -> float:
    """The float whose key is ``key``."""
    bits = key ^ (1 << 63) if key >> 63 else key ^ 0xFFFF_FFFF_FFFF_FFFF
    return float(np.uint64(bits).view(np.float64))


class _Bucket:
    """The samples whose keys ``k`` have ``k >> shift == prefix``.

    ``ranks`` maps each sought rank of the whole array to its rank
    among these samples. ``shift`` 64 is the root: every sample.
    """

    __slots__ = ("prefix", "shift", "ranks", "count", "low", "high", "counts", "values")

    def __init__(self, prefix: int, shift: int, ranks: dict[int, int], count: int) -> None:
        self.prefix = prefix
        self.shift = shift
        self.ranks = ranks
        self.count = count

    @property
    def digit_shift(self) -> int:
        return self.shift - (_FIRST_DIGIT_BITS if self.shift == 64 else _DIGIT_BITS)

    def select(self, keys: np.ndarray, work: np.ndarray) -> np.ndarray:
        """The mask of ``keys`` inside this bucket (``work`` is scratch)."""
        return np.right_shift(keys, self.shift, out=work[: keys.size]) == self.prefix

    def split(self) -> list[_Bucket]:
        """The children, one per digit, that hold a sought rank."""
        width = self.shift - self.digit_shift
        # Summed in place: the root's histogram alone is 512 KB.
        upto = np.cumsum(self.counts, out=self.counts)
        self.counts = None
        children: dict[int, tuple[int, dict[int, int]]] = {}
        for rank, within in self.ranks.items():
            digit = int(np.searchsorted(upto, within, side="right"))
            start = int(upto[digit - 1]) if digit else 0
            _, ranks = children.setdefault(digit, (int(upto[digit]) - start, {}))
            ranks[rank] = within - start
        return [
            _Bucket((self.prefix << width) | digit, self.digit_shift, ranks, count)
            for digit, (count, ranks) in children.items()
        ]


def _count(
    data: np.ndarray, buckets: list[_Bucket], keys_out: np.ndarray, work: np.ndarray
) -> None:
    """One pass: each bucket's lowest and highest key and a histogram of
    its next digit."""
    for bucket in buckets:
        bucket.low, bucket.high = 1 << 64, -1
        bucket.counts = np.zeros(1 << (bucket.shift - bucket.digit_shift), dtype=np.int64)
    for start in range(0, data.size, _CHUNK):
        keys = _keys(data[start : start + _CHUNK], keys_out)
        for bucket in buckets:
            inside = keys if bucket.shift == 64 else keys[bucket.select(keys, work)]
            if not inside.size:
                continue
            low, high = int(inside.min()), int(inside.max())
            bucket.low, bucket.high = min(bucket.low, low), max(bucket.high, high)
            # The digits of this chunk, less its lowest, so the tally is
            # only as long as the chunk's range of digits.
            first = low >> bucket.digit_shift
            digits = np.right_shift(inside, bucket.digit_shift, out=work[: inside.size])
            np.subtract(digits, first, out=digits)
            tally = np.bincount(digits.view(np.int64))
            offset = first & (bucket.counts.size - 1)
            bucket.counts[offset : offset + tally.size] += tally


def _gather(
    data: np.ndarray, buckets: list[_Bucket], keys_out: np.ndarray, work: np.ndarray
) -> None:
    """One pass copying out each bucket's samples (at most a chunk each)."""
    filled = []
    for bucket in buckets:
        bucket.values = np.empty(bucket.count)
        filled.append(0)
    for start in range(0, data.size, _CHUNK):
        chunk = data[start : start + _CHUNK]
        keys = _keys(chunk, keys_out)
        for index, bucket in enumerate(buckets):
            values = chunk[bucket.select(keys, work)]
            bucket.values[filled[index] : filled[index] + values.size] = values
            filled[index] += values.size


def _order_statistics(data: np.ndarray, ranks: Iterable[int]) -> dict[int, float]:
    """The value at each rank of ``data`` sorted ascending, NaNs last.

    Reads ``data`` in place. Up to one chunk it partitions a copy, as
    ``np.percentile`` does. Past that, each pass counts, for every open
    bucket, the next radix digit of its samples' order-preserving keys
    (see :func:`_keys`), which tells the child bucket that holds each
    rank and the rank within it. A bucket whose lowest and highest keys
    agree holds one value, and so does one whose prefix is a whole key.
    Children that fit in one chunk are copied out in one last pass and
    partitioned. The first digit splits each binade into 16, so a
    latency buffer of 1.8M samples takes two or three passes; five
    digits and the copy bound it at six. Any NaN makes every rank NaN,
    as it makes ``np.percentile``'s result NaN.
    """
    ranks = set(ranks)
    size = data.size
    if size <= _CHUNK:
        # The last rank is partitioned too, so a NaN (sorted last) shows.
        part = np.partition(data, sorted(ranks | {size - 1}))
        if math.isnan(part[-1]):
            return dict.fromkeys(ranks, math.nan)
        return {rank: float(part[rank]) for rank in ranks}
    keys_out = np.empty(_CHUNK, dtype=np.uint64)
    work = np.empty(_CHUNK, dtype=np.uint64)
    found: dict[int, float] = {}
    small: list[_Bucket] = []
    buckets = [_Bucket(0, 64, {rank: rank for rank in ranks}, size)]
    while buckets:
        _count(data, buckets, keys_out, work)
        root = buckets[0]
        if root.shift == 64 and not (_KEY_NEG_INF <= root.low and root.high <= _KEY_POS_INF):
            return dict.fromkeys(ranks, math.nan)
        narrow = []
        for bucket in buckets:
            if bucket.low == bucket.high:
                found.update(dict.fromkeys(bucket.ranks, _value(bucket.low)))
                continue
            for child in bucket.split():
                if child.shift == 0:
                    found.update(dict.fromkeys(child.ranks, _value(child.prefix)))
                elif child.count <= _CHUNK:
                    small.append(child)
                else:
                    narrow.append(child)
        buckets = narrow
    if small:
        _gather(data, small, keys_out, work)
        for bucket in small:
            bucket.values.partition(sorted(bucket.ranks.values()))
            for rank, within in bucket.ranks.items():
                found[rank] = float(bucket.values[within])
    return found


def _lerp(below: float, above: float, gamma: float) -> float:
    """numpy's ``_lerp``: from the upper neighbour once ``gamma >= 0.5``."""
    diff = above - below
    if gamma >= 0.5:
        return above - diff * (1 - gamma)
    return below + diff * gamma


def _percentiles(data: np.ndarray, qs: Sequence[float]) -> list[float]:
    """``np.percentile(data, q)`` for each ``q``, bit for bit.

    numpy's own arithmetic: the virtual index ``(n - 1) * (q / 100)``,
    its floor and the weight ``gamma = virtual - floor``, then
    :func:`_lerp`. At or past the last index numpy reads index -1 for
    both neighbours, so there its ``gamma`` is ``virtual - (-1)``; the
    weight only shows with signed zeros and infinities, and is kept.
    """
    size = data.size
    plan = []
    for q in qs:
        virtual = (size - 1) * (q / 100)
        if virtual >= size - 1:
            plan.append((size - 1, size - 1, virtual + 1))
        else:
            below = math.floor(virtual)
            plan.append((below, below + 1, virtual - below))
    found = _order_statistics(data, {rank for below, above, _ in plan for rank in (below, above)})
    return [_lerp(found[below], found[above], gamma) for below, above, gamma in plan]


def _check_q(q: float) -> None:
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError("percentile q must be within [0, 100]")


def percentile(samples: Sequence[float] | np.ndarray, q: float) -> float:
    """Return the ``q``-th percentile (0..100) of ``samples``.

    Equal to ``np.percentile(samples, q)``; an array is read in place.
    """
    _check_q(q)
    data = np.ravel(np.asarray(samples, dtype=float))
    if data.size == 0:
        raise ConfigurationError("cannot take a percentile of zero samples")
    return _percentiles(data, (q,))[0]


class LatencyRecorder:
    """Collects request latencies and summarizes them.

    ``drop_warmup_before`` excludes samples whose *completion* time falls
    in the warmup period, matching standard practice of discarding the
    cold start from latency statistics.
    """

    def __init__(self, name: str = "", drop_warmup_before: float = 0.0) -> None:
        if not 0.0 <= drop_warmup_before < math.inf:
            raise ConfigurationError(
                f"drop_warmup_before must be finite and non-negative, got {drop_warmup_before}"
            )
        self.name = name
        self._warmup = drop_warmup_before
        self._latencies = array("d")
        self._dropped = 0

    def __len__(self) -> int:
        return len(self._latencies)

    def record(self, completion_time: float, latency: float) -> None:
        """Record one request's end-to-end latency."""
        if not 0.0 <= latency < math.inf:
            raise ConfigurationError(f"latency must be finite and non-negative, got {latency}")
        if completion_time < self._warmup:
            self._dropped += 1
            return
        self._latencies.append(latency)

    def extend(self, latencies: Iterable[float], completion_time: float = float("inf")) -> None:
        """Record many latencies sharing one completion timestamp."""
        for latency in latencies:
            self.record(completion_time, latency)

    @property
    def samples(self) -> Sequence[float]:
        return tuple(self._latencies)

    @property
    def dropped_warmup_samples(self) -> int:
        return self._dropped

    def _data(self) -> np.ndarray:
        """The samples as a float64 array, a view of the buffer.

        Checks for emptiness *before* taking the view: an exception
        raised with a view in its frame would keep the buffer exported
        for as long as the exception lives, and every later
        :meth:`record` would fail with :class:`BufferError`. Callers
        must likewise drop the view before they return. A recorder
        unpickled from a cache entry written when the samples were a
        list still works: ``np.asarray`` copies the list instead.
        """
        if not self._latencies:
            raise ConfigurationError(f"no latency samples recorded for {self.name!r}")
        return np.asarray(self._latencies, dtype=float)

    def mean(self) -> float:
        return float(np.mean(self._data()))

    def percentile(self, q: float, start: int = 0, stop: int | None = None) -> float:
        """The ``q``-th percentile of the samples recorded from index
        ``start`` up to ``stop`` (slice bounds; every sample by default),
        read in place."""
        _check_q(q)
        window = range(len(self))[start:stop]
        if not window:
            raise ConfigurationError(
                f"no latency samples recorded for {self.name!r} in [{start}:{stop}]"
            )
        return _percentiles(self._data()[window.start : window.stop], (q,))[0]

    def p50(self) -> float:
        return self.percentile(50.0)

    def p95(self) -> float:
        return self.percentile(95.0)

    def p99(self) -> float:
        return self.percentile(99.0)

    def summary(self) -> dict[str, float]:
        """Return mean/P50/P95/P99 and the sample count.

        Equal to :meth:`mean`, :meth:`p50`, :meth:`p95` and :meth:`p99`,
        but takes one view of the samples for all four and finds the
        three percentiles in the same passes.
        """
        data = self._data()
        p50, p95, p99 = _percentiles(data, (50.0, 95.0, 99.0))
        return {
            "count": float(data.size),
            "mean": float(np.mean(data)),
            "p50": p50,
            "p95": p95,
            "p99": p99,
        }


class LatencyWindow(LatencyRecorder):
    """A :class:`LatencyRecorder` over the samples of its last ``ticks``
    ticks only.

    Its owner calls :meth:`close_tick` at the end of every tick. ``len``,
    :attr:`samples`, every statistic and the indices :meth:`percentile`
    takes then cover exactly the samples recorded in the last ``ticks``
    closed ticks and the open one. Recording is the inherited
    :meth:`LatencyRecorder.record`, so warm-up samples are still dropped
    as they arrive.

    The samples of older ticks stay in the buffer until they fill half of
    it, and are then dropped in one cut. A cut moves no more samples
    than it drops, and each sample is dropped once, so trimming costs
    amortized O(1) per sample; the buffer never holds more than twice
    the window's samples.
    """

    def __init__(self, ticks: int, name: str = "", drop_warmup_before: float = 0.0) -> None:
        if ticks < 1:
            raise ConfigurationError(f"a latency window must keep at least one tick, got {ticks}")
        super().__init__(name, drop_warmup_before)
        #: Where each tick in the window began, the open one last, counted
        #: in samples ever recorded.
        self._starts: deque[int] = deque([0], maxlen=ticks + 1)
        #: Samples cut from the front of the buffer so far.
        self._trimmed = 0

    def _start(self) -> int:
        """The buffer index of the window's first sample."""
        return self._starts[0] - self._trimmed

    def __len__(self) -> int:
        return len(self._latencies) - self._start()

    @property
    def samples(self) -> Sequence[float]:
        return tuple(self._latencies[self._start() :])

    def _data(self) -> np.ndarray:
        """The window's samples, a view of the buffer (the same rules as
        :meth:`LatencyRecorder._data`)."""
        start = self._start()
        if start == len(self._latencies):
            raise ConfigurationError(f"no latency samples in the window of {self.name!r}")
        return np.asarray(self._latencies, dtype=float)[start:]

    def close_tick(self) -> None:
        """End the open tick: the oldest tick leaves a full window, and
        the samples outside it are cut once they are half the buffer."""
        self._starts.append(self._trimmed + len(self._latencies))
        expired = self._start()
        if expired and 2 * expired >= len(self._latencies):
            del self._latencies[:expired]
            self._trimmed += expired


__all__ = ["LatencyRecorder", "LatencyWindow", "percentile"]
