"""The reusable request scheduler: dedup, cache, single-flight coalescing."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.engine import RequestScheduler, ResultCache, RunRegistry
from repro.engine.scheduler import (
    SOURCE_CACHE,
    SOURCE_COALESCED,
    SOURCE_SOLVED,
)


def _counting_solve(log=None, delay_event=None):
    """A solve callback that records what it was asked to solve."""
    calls = []

    def solve(units):
        if delay_event is not None:
            delay_event.wait()
        calls.append(list(units))
        if log is not None:
            log.append(list(units))
        return [(f"answer:{unit}", 0.0) for unit in units]

    solve.calls = calls
    return solve


class TestSchedulerBasics:
    def test_results_in_submission_order(self):
        scheduler = RequestScheduler(cache=ResultCache())
        solve = _counting_solve()
        out = scheduler.run(
            ["k1", "k2"],
            [lambda: "u1", lambda: "u2"],
            kind="t",
            solve=solve,
        )
        assert out == ["answer:u1", "answer:u2"]
        assert scheduler.stats.executed == 2

    def test_within_batch_dedup_builds_once(self):
        scheduler = RequestScheduler(cache=ResultCache())
        built = []

        def builder(name):
            def build():
                built.append(name)
                return name
            return build

        solve = _counting_solve()
        out = scheduler.run(
            ["a", "b", "a", "a"],
            [builder("u-a"), builder("u-b"), builder("dup1"), builder("dup2")],
            kind="t",
            solve=solve,
        )
        assert out == ["answer:u-a", "answer:u-b", "answer:u-a", "answer:u-a"]
        assert built == ["u-a", "u-b"]  # duplicate builders never invoked
        assert scheduler.stats.dedup_saved == 2
        assert scheduler.stats.executed == 2

    def test_cache_hits_skip_solving(self):
        cache = ResultCache()
        scheduler = RequestScheduler(cache=cache)
        solve = _counting_solve()
        scheduler.run(["k"], [lambda: "u"], kind="t", solve=solve)
        again = scheduler.run(["k"], [lambda: "u"], kind="t", solve=solve)
        assert again == ["answer:u"]
        assert len(solve.calls) == 1
        assert cache.stats.hits == 1

    def test_details_reports_sources(self):
        scheduler = RequestScheduler(cache=ResultCache())
        solve = _counting_solve()
        first = scheduler.run(
            ["k"], [lambda: "u"], kind="t", solve=solve, details=True
        )
        second = scheduler.run(
            ["k"], [lambda: "u"], kind="t", solve=solve, details=True
        )
        assert first == [("answer:u", SOURCE_SOLVED)]
        assert second == [("answer:u", SOURCE_CACHE)]

    def test_works_without_cache_or_registry(self):
        scheduler = RequestScheduler()
        solve = _counting_solve()
        assert scheduler.run(["k"], [lambda: "u"], kind="t", solve=solve) == [
            "answer:u"
        ]

    def test_registry_records_solved_and_cached(self):
        registry = RunRegistry()
        scheduler = RequestScheduler(cache=ResultCache(), registry=registry)
        solve = _counting_solve()
        scheduler.run(["k"], [lambda: "u"], kind="kind-x", solve=solve)
        scheduler.run(["k"], [lambda: "u"], kind="kind-x", solve=solve)
        records = [record for record in registry if record.kind == "kind-x"]
        assert len(records) == 2
        assert [record.cached for record in records] == [False, True]

    def test_solve_exception_propagates_and_records_error(self):
        registry = RunRegistry()
        scheduler = RequestScheduler(cache=ResultCache(), registry=registry)

        def solve(units):
            raise RuntimeError("solver exploded")

        with pytest.raises(RuntimeError, match="solver exploded"):
            scheduler.run(["k"], [lambda: "u"], kind="t", solve=solve)
        (record,) = list(registry)
        assert record.error == "solver exploded"
        # The failed flight must not linger: a retry solves afresh.
        ok = _counting_solve()
        assert scheduler.run(["k"], [lambda: "u"], kind="t", solve=ok) == [
            "answer:u"
        ]


class TestSchedulerCoalescing:
    def test_concurrent_identical_requests_solve_once(self):
        cache = ResultCache()
        scheduler = RequestScheduler(cache=cache)
        release = threading.Event()
        solve = _counting_solve(delay_event=release)
        n_threads = 8
        started = threading.Barrier(n_threads + 1)
        results = [None] * n_threads

        def request(slot):
            started.wait()
            (out,) = scheduler.run(
                ["shared"], [lambda: f"unit-{slot}"], kind="t", solve=solve
            )
            results[slot] = out

        threads = [
            threading.Thread(target=request, args=(slot,))
            for slot in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        started.wait()  # all requests in flight...
        release.set()  # ...then let the single owner solve
        for thread in threads:
            thread.join()
        assert scheduler.stats.executed == 1
        assert len(solve.calls) == 1
        # Everyone got the owner's payload, whichever thread owned it.
        assert len(set(results)) == 1
        assert results[0].startswith("answer:unit-")
        # Every non-owner either attached to the flight or (arriving after
        # publication) hit the cache; none of them solved.
        assert scheduler.stats.coalesced + cache.stats.hits == n_threads - 1

    def test_attached_requests_see_owner_exception(self):
        scheduler = RequestScheduler(cache=ResultCache())
        release = threading.Event()
        arrived = threading.Barrier(2 + 1)

        def failing_solve(units):
            release.wait()
            raise ValueError("owner failed")

        errors = []

        def request():
            arrived.wait()
            try:
                scheduler.run(
                    ["shared"], [lambda: "u"], kind="t", solve=failing_solve
                )
            except ValueError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=request) for _ in range(2)]
        for thread in threads:
            thread.start()
        arrived.wait()
        release.set()
        for thread in threads:
            thread.join()
        assert errors == ["owner failed", "owner failed"]

    def test_two_way_foreign_flights_do_not_deadlock(self):
        """Thread A owns k1 and waits on k2; thread B the reverse.

        Builders run immediately after a key is claimed, so a builder that
        blocks until the *other* thread has claimed its own key forces the
        exact cross-ownership interleaving: each thread then attaches to a
        flight owned by the other.  The solve-and-publish-before-waiting
        ordering is what keeps this from deadlocking.
        """
        cache = ResultCache()
        scheduler = RequestScheduler(cache=cache)
        claimed = {"k1": threading.Event(), "k2": threading.Event()}
        done = []

        def make_builder(own: str):
            other = "k2" if own == "k1" else "k1"

            def build():
                claimed[own].set()
                assert claimed[other].wait(timeout=10), "peer never claimed"
                return own

            return build

        def solve(units):
            return [(f"answer:{unit}", 0.0) for unit in units]

        def request(own: str, foreign: str) -> None:
            out = scheduler.run(
                [own, foreign],
                [make_builder(own), lambda: foreign],
                kind="t",
                solve=solve,
            )
            done.append(sorted(out))

        a = threading.Thread(target=request, args=("k1", "k2"))
        b = threading.Thread(target=request, args=("k2", "k1"))
        a.start()
        b.start()
        a.join(timeout=30)
        b.join(timeout=30)
        assert not a.is_alive() and not b.is_alive(), "coalescing deadlocked"
        assert done[0] == ["answer:k1", "answer:k2"]
        assert done[1] == ["answer:k1", "answer:k2"]
        assert scheduler.stats.executed == 2  # each key solved exactly once
        # Each thread's foreign key was answered without solving: by
        # attaching to the peer's flight, or — when the peer had already
        # published and cached — by a cache hit.
        assert scheduler.stats.coalesced + cache.stats.hits == 2

    def test_flight_landing_between_miss_and_claim_is_not_solved_twice(self):
        """A late caller whose cache miss predates the owner's publication.

        The owner solves, caches and retires its flight after the late
        caller has read the cache but before the late caller claims a
        flight; the late caller must answer from the cache, not re-solve.
        """
        missed = threading.Event()
        landed = threading.Event()

        class LateCache(ResultCache):
            def get_with_tier(self, key, default=None):
                found = super().get_with_tier(key, default)
                if threading.current_thread().name == "late" and not missed.is_set():
                    missed.set()
                    assert landed.wait(timeout=10), "owner never landed"
                return found

        scheduler = RequestScheduler(cache=LateCache())
        solve = _counting_solve()
        late_out = []

        def late_request():
            late_out.append(
                scheduler.run(
                    ["k"], [lambda: "late"], kind="t", solve=solve, details=True
                )
            )

        late = threading.Thread(target=late_request, name="late")
        late.start()
        assert missed.wait(timeout=10)
        owner_out = scheduler.run(["k"], [lambda: "owner"], kind="t", solve=solve)
        landed.set()
        late.join(timeout=30)
        assert owner_out == ["answer:owner"]
        assert late_out == [[("answer:owner", SOURCE_CACHE)]]
        assert solve.calls == [["owner"]]
        assert scheduler.stats.executed == 1

    def test_concurrent_bursts_solve_each_key_once_under_stress(self):
        # More threads than cores and a tiny switch interval, so a
        # check-then-claim gap would show up as a second solve of a key.
        scheduler = RequestScheduler(cache=ResultCache())
        solve = _counting_solve()
        rounds, n_threads = 20, 16
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(rounds):
                barrier = threading.Barrier(n_threads)

                def request(key=f"k{round_}"):
                    barrier.wait(timeout=10)
                    scheduler.run([key], [lambda: key], kind="t", solve=solve)

                threads = [threading.Thread(target=request) for _ in range(n_threads)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        assert scheduler.stats.executed == rounds
        assert sorted(call[0] for call in solve.calls) == sorted(
            f"k{round_}" for round_ in range(rounds)
        )

    def test_coalesce_disabled_solves_independently(self):
        scheduler = RequestScheduler(cache=None, coalesce=False)
        release = threading.Event()
        solve = _counting_solve(delay_event=release)
        barrier = threading.Barrier(2 + 1)

        def request():
            barrier.wait()
            scheduler.run(["k"], [lambda: "u"], kind="t", solve=solve)

        threads = [threading.Thread(target=request) for _ in range(2)]
        for thread in threads:
            thread.start()
        barrier.wait()
        release.set()
        for thread in threads:
            thread.join()
        assert scheduler.stats.executed == 2
        assert scheduler.stats.coalesced == 0

    def test_coalesced_source_reported_in_details(self):
        scheduler = RequestScheduler(cache=ResultCache())
        release = threading.Event()
        owner_running = threading.Event()

        def slow_solve(units):
            owner_running.set()
            release.wait()
            return [(f"answer:{unit}", 0.0) for unit in units]

        owner_out = []

        def owner():
            owner_out.append(
                scheduler.run(
                    ["k"], [lambda: "u"], kind="t", solve=slow_solve, details=True
                )
            )

        thread = threading.Thread(target=owner)
        thread.start()
        assert owner_running.wait(timeout=10)
        follower_out = []

        def follower():
            follower_out.append(
                scheduler.run(
                    ["k"], [lambda: "u"], kind="t", solve=slow_solve, details=True
                )
            )

        follower_thread = threading.Thread(target=follower)
        follower_thread.start()
        # Give the follower a moment to attach, then publish.
        release.set()
        thread.join(timeout=30)
        follower_thread.join(timeout=30)
        assert owner_out[0] == [("answer:u", SOURCE_SOLVED)]
        (payload, source) = follower_out[0][0]
        assert payload == "answer:u"
        assert source in (SOURCE_COALESCED, SOURCE_CACHE)
