"""RetryPolicy: bounded attempts, deterministic backoff, metric wiring."""

from __future__ import annotations

import pytest

from repro.faults import RetryPolicy
from repro.obs.metrics import get_registry


class Flaky:
    """Callable that fails ``failures`` times, then returns ``value``."""

    def __init__(self, failures: int, value: str = "ok", exc=ValueError):
        self.failures = failures
        self.value = value
        self.exc = exc
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc(f"transient #{self.calls}")
        return self.value


def _no_sleep(_delay: float) -> None:
    pass


class TestCall:
    def test_first_try_success_never_retries(self):
        fn = Flaky(failures=0)
        policy = RetryPolicy(attempts=3)
        assert policy.call(fn, sleep=_no_sleep) == "ok"
        assert fn.calls == 1

    def test_transient_failures_are_absorbed(self):
        fn = Flaky(failures=2)
        policy = RetryPolicy(attempts=3)
        assert policy.call(fn, sleep=_no_sleep) == "ok"
        assert fn.calls == 3

    def test_exhaustion_reraises_last_error(self):
        fn = Flaky(failures=5)
        policy = RetryPolicy(attempts=3)
        with pytest.raises(ValueError, match="transient #3"):
            policy.call(fn, sleep=_no_sleep)
        assert fn.calls == 3

    def test_non_matching_exception_not_retried(self):
        fn = Flaky(failures=1, exc=KeyError)
        policy = RetryPolicy(attempts=3, retry_on=(ValueError,))
        with pytest.raises(KeyError):
            policy.call(fn, sleep=_no_sleep)
        assert fn.calls == 1

    def test_attempts_one_means_no_retry(self):
        fn = Flaky(failures=1)
        policy = RetryPolicy(attempts=1)
        with pytest.raises(ValueError):
            policy.call(fn, sleep=_no_sleep)
        assert fn.calls == 1

    def test_each_retry_increments_metric(self):
        counter = get_registry().counter("test.retry.metric")
        before = counter.value
        policy = RetryPolicy(attempts=3)
        policy.call(Flaky(failures=2), metric="test.retry.metric",
                    sleep=_no_sleep)
        assert counter.value == before + 2

    def test_sleep_receives_backoff_delays(self):
        seen = []
        policy = RetryPolicy(
            attempts=3, base_delay=0.01, multiplier=2.0,
            max_delay=1.0, jitter=0.0,
        )
        policy.call(Flaky(failures=2), sleep=seen.append)
        assert seen == [0.01, 0.02]

    def test_successful_calls_leave_the_rng_untouched(self):
        policy = RetryPolicy(attempts=3, jitter=0.5, seed=3)
        state = policy._rng.getstate()
        for _ in range(50):
            assert policy.call(Flaky(failures=0), sleep=_no_sleep) == "ok"
        assert policy._rng.getstate() == state

    def test_retry_delays_ignore_earlier_successes(self):
        kwargs = dict(attempts=4, base_delay=0.1, jitter=0.9, seed=7)
        policy = RetryPolicy(**kwargs)
        for _ in range(25):
            policy.call(Flaky(failures=0), sleep=_no_sleep)
        seen = []
        with pytest.raises(ValueError):
            policy.call(Flaky(failures=10), sleep=seen.append)
        assert seen == list(RetryPolicy(**kwargs).delays())


class TestDelays:
    def test_yields_attempts_minus_one_values(self):
        policy = RetryPolicy(attempts=4, jitter=0.0)
        assert len(list(policy.delays())) == 3

    def test_capped_by_max_delay(self):
        policy = RetryPolicy(
            attempts=5, base_delay=0.1, multiplier=10.0,
            max_delay=0.3, jitter=0.0,
        )
        assert all(d <= 0.3 for d in policy.delays())

    def test_jitter_only_shrinks_delay(self):
        policy = RetryPolicy(
            attempts=4, base_delay=0.1, multiplier=1.0,
            max_delay=1.0, jitter=0.5, seed=42,
        )
        for delay in policy.delays():
            assert 0.05 <= delay <= 0.1

    def test_seeded_jitter_is_reproducible(self):
        kwargs = dict(attempts=4, base_delay=0.1, jitter=0.9, seed=7)
        assert list(RetryPolicy(**kwargs).delays()) == list(
            RetryPolicy(**kwargs).delays()
        )


class TestValidation:
    def test_attempts_below_one_rejected(self):
        with pytest.raises(ValueError, match="attempts"):
            RetryPolicy(attempts=0)

    def test_jitter_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delays"):
            RetryPolicy(base_delay=-0.1)
