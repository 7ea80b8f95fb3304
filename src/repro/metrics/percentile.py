"""Tail-latency estimation.

The paper tracks the 99th percentile latency per second (SLA definition,
§5.1) and feeds a windowed tail estimate to the runtime controller.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile of ``samples`` (must be non-empty)."""
    if len(samples) == 0:
        raise ConfigurationError("cannot take a percentile of zero samples")
    if not (0.0 <= pct <= 100.0):
        raise ConfigurationError(f"percentile must be in [0,100], got {pct!r}")
    return float(np.percentile(np.asarray(samples, dtype=float), pct))


class ReservoirSampler:
    """Fixed-size uniform reservoir over an unbounded sample stream."""

    def __init__(self, capacity: int = 4096, seed: int = 0) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._rng = np.random.default_rng(seed)
        self._store: List[float] = []
        self._seen = 0

    def add(self, value: float) -> None:
        """Offer one sample to the reservoir."""
        self._seen += 1
        if len(self._store) < self.capacity:
            self._store.append(float(value))
        else:
            j = int(self._rng.integers(0, self._seen))
            if j < self.capacity:
                self._store[j] = float(value)

    def extend(self, values: Iterable[float]) -> None:
        """Offer many samples with one batched RNG draw.

        The replacement indices for the whole batch come from a single
        ``integers(..., size=n)`` call, so the per-sample Python/RNG
        overhead of :meth:`add` is paid once per batch. The acceptance
        probabilities match the sequential algorithm exactly (sample
        ``i`` is kept with probability ``capacity / seen_i``); only the
        consumed RNG stream differs from an :meth:`add` loop.
        """
        arr = np.asarray(
            values if isinstance(values, np.ndarray) else list(values), dtype=float
        )
        n = int(arr.size)
        if n == 0:
            return
        fill = min(self.capacity - len(self._store), n)
        if fill > 0:
            self._store.extend(float(v) for v in arr[:fill])
            self._seen += fill
        rest = arr[fill:]
        if rest.size == 0:
            return
        # seen counts *after* each remaining sample arrives.
        highs = self._seen + 1 + np.arange(rest.size, dtype=np.int64)
        slots = self._rng.integers(0, highs, size=rest.size)
        self._seen += int(rest.size)
        for slot, value in zip(slots, rest):
            if slot < self.capacity:
                self._store[int(slot)] = float(value)

    @property
    def seen(self) -> int:
        """Total samples offered."""
        return self._seen

    def percentile(self, pct: float) -> float:
        """Percentile estimate over the retained sample."""
        return percentile(self._store, pct)

    def __len__(self) -> int:
        return len(self._store)


class WindowedTailTracker:
    """Per-window tail percentile with worst-case retention.

    Mirrors how the paper defines SLAs: record the tail percentile per
    window (per second in the paper) and keep the worst one.
    """

    def __init__(self, pct: float = 99.0) -> None:
        if not (0.0 < pct < 100.0):
            raise ConfigurationError(f"tail percentile must be in (0,100), got {pct}")
        self.pct = float(pct)
        self._window: List[float] = []
        self._per_window: List[float] = []
        self._worst: Optional[float] = None

    def add_samples(self, values: Iterable[float]) -> None:
        """Add latency samples to the current window.

        Bulk path: one ``asarray`` + ``tolist`` round-trip replaces the
        per-value ``float()`` loop for array inputs (float64 round-trips
        exactly, so the stored samples are unchanged).
        """
        if not isinstance(values, (list, tuple, np.ndarray)):
            values = list(values)
        self._window.extend(np.asarray(values, dtype=float).tolist())

    def roll_window(self) -> Optional[float]:
        """Close the current window; returns its tail (None if empty)."""
        if not self._window:
            return None
        tail = percentile(self._window, self.pct)
        self._window.clear()
        self.record_window_tail(tail)
        return tail

    def record_window_tail(self, tail: float) -> None:
        """Record an externally computed window tail; O(1).

        The co-location loop computes one tail per control window anyway
        (the controller input); recording it directly avoids buffering
        and re-sorting the same samples once per machine.
        """
        tail = float(tail)
        self._per_window.append(tail)
        if self._worst is None or tail > self._worst:
            self._worst = tail

    def record_window_tails(self, tails: Sequence[float]) -> None:
        """Record many externally computed window tails at once.

        One list-extend plus one ``max`` replaces a python call per
        window per machine when the fleet kernel replays a whole run's
        window closes at finalize time; the stored state is identical
        to a :meth:`record_window_tail` loop.
        """
        if not tails:
            return
        values = [float(tail) for tail in tails]
        self._per_window.extend(values)
        top = max(values)
        if self._worst is None or top > self._worst:
            self._worst = top

    @property
    def current_tail(self) -> Optional[float]:
        """Tail of the most recently closed window."""
        return self._per_window[-1] if self._per_window else None

    @property
    def worst_tail(self) -> Optional[float]:
        """Worst per-window tail seen so far."""
        return self._worst

    @property
    def window_tails(self) -> Tuple[float, ...]:
        """Tails of every closed window, in order (immutable snapshot).

        Returned as a tuple so repeated property reads do not copy a
        growing list on every access.
        """
        return tuple(self._per_window)

    def violation_count(self, sla: float) -> int:
        """Number of closed windows whose tail exceeded ``sla``."""
        return sum(1 for tail in self._per_window if tail > sla)


class HistogramTailTracker:
    """Per-window tail estimation on a fixed log-spaced histogram.

    A drop-in alternative to :class:`WindowedTailTracker` for streaming
    contexts: inserts are O(1) (compute a bin index arithmetically, no
    sort, no sample retention) and closing a window is O(bins). The
    estimate's *relative* error is bounded by the bin geometry::

        bound = sqrt(hi_ms / lo_ms) ** (1 / bins) - 1

    (about 1.6% with the defaults), because a window tail is reported as
    the geometric midpoint of the bin holding the target rank. Samples
    below ``lo_ms`` clamp into the first bin; samples above ``hi_ms``
    land in an overflow bucket whose quantile reports the exact window
    maximum seen.
    """

    def __init__(
        self,
        pct: float = 99.0,
        lo_ms: float = 1e-2,
        hi_ms: float = 1e5,
        bins: int = 512,
    ) -> None:
        if not (0.0 < pct < 100.0):
            raise ConfigurationError(f"tail percentile must be in (0,100), got {pct}")
        if not (0.0 < lo_ms < hi_ms):
            raise ConfigurationError(
                f"need 0 < lo_ms < hi_ms, got lo={lo_ms!r} hi={hi_ms!r}"
            )
        if bins < 2:
            raise ConfigurationError(f"need at least 2 bins, got {bins}")
        self.pct = float(pct)
        self.lo_ms = float(lo_ms)
        self.hi_ms = float(hi_ms)
        self.bins = int(bins)
        self._log_lo = math.log(self.lo_ms)
        self._log_step = (math.log(self.hi_ms) - self._log_lo) / self.bins
        # bins regular buckets + one overflow bucket at the end.
        self._counts = np.zeros(self.bins + 1, dtype=np.int64)
        self._window_n = 0
        self._window_max = 0.0
        self._per_window: List[float] = []
        self._worst: Optional[float] = None

    @property
    def error_bound(self) -> float:
        """Worst-case relative error of an in-range window tail."""
        return math.exp(self._log_step / 2.0) - 1.0

    def _index(self, value: float) -> int:
        if value <= self.lo_ms:
            return 0
        if value >= self.hi_ms:
            return self.bins  # overflow bucket
        return min(self.bins - 1, int((math.log(value) - self._log_lo) / self._log_step))

    def add(self, value: float) -> None:
        """Insert one latency sample into the current window; O(1)."""
        value = float(value)
        self._counts[self._index(value)] += 1
        self._window_n += 1
        if value > self._window_max:
            self._window_max = value

    def add_samples(self, values: Iterable[float]) -> None:
        """Insert a batch of samples (vectorised binning)."""
        arr = np.asarray(
            values if isinstance(values, np.ndarray) else list(values), dtype=float
        )
        n = int(arr.size)
        if n == 0:
            return
        clipped = np.clip(arr, self.lo_ms, self.hi_ms)
        idx = ((np.log(clipped) - self._log_lo) / self._log_step).astype(np.int64)
        np.clip(idx, 0, self.bins - 1, out=idx)
        idx[arr >= self.hi_ms] = self.bins
        self._counts += np.bincount(idx, minlength=self.bins + 1)
        self._window_n += n
        top = float(arr.max())
        if top > self._window_max:
            self._window_max = top

    def snapshot(self) -> "HistogramTailTracker":
        """An independent copy: open-window bins and closed-window tails."""
        clone = object.__new__(HistogramTailTracker)
        clone.__dict__.update(self.__dict__)
        clone._counts = self._counts.copy()
        clone._per_window = list(self._per_window)
        return clone

    def _window_quantile(self) -> float:
        # Nearest-rank within the histogram: the smallest bin whose
        # cumulative count covers pct% of the window.
        rank = max(1, int(math.ceil(self.pct / 100.0 * self._window_n)))
        cumulative = np.cumsum(self._counts)
        bin_idx = int(np.searchsorted(cumulative, rank))
        if bin_idx >= self.bins:  # overflow bucket
            return self._window_max
        log_left = self._log_lo + bin_idx * self._log_step
        return math.exp(log_left + self._log_step / 2.0)

    def roll_window(self) -> Optional[float]:
        """Close the current window; returns its estimated tail."""
        if self._window_n == 0:
            return None
        tail = self._window_quantile()
        self.record_window_tail(tail)
        self._counts.fill(0)
        self._window_n = 0
        self._window_max = 0.0
        return tail

    def record_window_tail(self, tail: float) -> None:
        """Record an externally computed window tail; O(1)."""
        tail = float(tail)
        self._per_window.append(tail)
        if self._worst is None or tail > self._worst:
            self._worst = tail

    @property
    def current_tail(self) -> Optional[float]:
        """Tail of the most recently closed window."""
        return self._per_window[-1] if self._per_window else None

    @property
    def worst_tail(self) -> Optional[float]:
        """Worst per-window tail seen so far."""
        return self._worst

    @property
    def window_tails(self) -> Tuple[float, ...]:
        """Tails of every closed window, in order."""
        return tuple(self._per_window)

    def violation_count(self, sla: float) -> int:
        """Number of closed windows whose tail exceeded ``sla``."""
        return sum(1 for tail in self._per_window if tail > sla)
