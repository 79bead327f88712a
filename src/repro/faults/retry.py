"""Bounded retry with exponential backoff and deterministic jitter.

One :class:`RetryPolicy` object per call site (the HiGHS backend, the
disk cache), shared by every thread that hits it.  The policy is frozen
configuration; per-call state (the delay sequence) lives in the
:meth:`delays` iterator, so concurrent callers never interfere.

Jitter is drawn from a policy-seeded RNG (full jitter over
``[delay * (1 - jitter), delay]``) so chaos runs stay reproducible; pass
``seed=None`` for wall-clock-seeded jitter in production use.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple, Type, TypeVar

from ..obs.metrics import get_registry

__all__ = ["RetryPolicy"]

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Retry ``fn`` up to ``attempts`` times on ``retry_on`` exceptions.

    ``attempts`` counts total tries (so ``attempts=3`` means at most two
    retries).  Delay before retry *k* (1-based) is
    ``min(base_delay * multiplier**(k-1), max_delay)``, reduced by up to
    ``jitter`` (a fraction in [0, 1]) via a seeded draw.
    """

    attempts: int = 3
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 0.25
    jitter: float = 0.5
    retry_on: Tuple[Type[BaseException], ...] = (Exception,)
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.base_delay < 0 or self.max_delay < 0 or self.multiplier <= 0:
            raise ValueError("delays must be >= 0 and multiplier > 0")
        # One RNG per policy object, shared across threads under a lock;
        # object.__setattr__ because the dataclass is frozen.
        object.__setattr__(self, "_rng", random.Random(self.seed))
        object.__setattr__(self, "_rng_lock", threading.Lock())

    def _jittered(self, delay: float) -> float:
        if self.jitter == 0.0 or delay == 0.0:
            return delay
        with self._rng_lock:  # type: ignore[attr-defined]
            frac = self._rng.random()  # type: ignore[attr-defined]
        return delay * (1.0 - self.jitter * frac)

    def delays(self) -> Iterator[float]:
        """The backoff sequence for one call: ``attempts - 1`` delays."""
        delay = self.base_delay
        for _ in range(self.attempts - 1):
            yield self._jittered(min(delay, self.max_delay))
            delay *= self.multiplier

    def call(
        self,
        fn: Callable[[], T],
        *,
        metric: Optional[str] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> T:
        """Run ``fn``, retrying on ``retry_on``; re-raise the last error.

        Each retry (not the first attempt) increments the ``metric``
        counter in the global registry, so ``/metrics`` exposes how often
        the resilience layer is actually working.
        """
        # A delay is drawn only once an attempt has failed: successful
        # calls never touch the jitter RNG, so a seeded policy's retry
        # delays do not depend on how many calls succeeded before them.
        delays = self.delays()
        while True:
            try:
                return fn()
            except self.retry_on:
                delay = next(delays, None)
                if delay is None:
                    raise
                if metric:
                    get_registry().counter(
                        metric, "retries absorbed by the resilience layer"
                    ).inc()
                if delay > 0:
                    sleep(delay)
