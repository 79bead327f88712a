"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's artefacts (a figure, a
theorem's quantitative content, or an application scenario) and prints the
corresponding text table; run with ``pytest benchmarks/ --benchmark-only -s``
to see the tables, or without ``-s`` to only collect the timings.  The
printed tables are the source of the numbers recorded in EXPERIMENTS.md.

The serve, obs and faults benchmarks all drive a live
:class:`~repro.serve.ReproServer`; the ``solve_server`` and ``warm_replay``
fixtures are the one copy of that HTTP protocol they share.
"""

from __future__ import annotations

import json
import os
import sys
import time
import urllib.request
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple

import pytest

from repro.scenarios.spec import ScenarioSpec
from repro.serve import ReproServer, SolverService

# Benchmarks import the test-only references as ``tests.<module>``.
# ``python -m pytest`` puts the repository root on ``sys.path``; a bare
# ``pytest`` does not, so put it there for both.
_REPO_ROOT = str(Path(__file__).resolve().parent.parent)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)


def emit(title: str, text: str) -> None:
    """Print a benchmark's result table with a recognisable banner."""
    banner = "=" * len(title)
    print(f"\n{banner}\n{title}\n{banner}\n{text}\n")


@pytest.fixture(scope="session")
def report():
    """The ``emit`` helper as a fixture (keeps benchmark signatures tidy)."""
    return emit


@pytest.fixture(scope="session")
def bench_out():
    """Write a benchmark's measured JSON to ``REPRO_BENCH_OUT``, when set.

    Tests call it before their floor assertions, so a run that fails a
    gate still leaves its numbers behind.
    """

    def write(payload) -> None:
        out = os.environ.get("REPRO_BENCH_OUT")
        if out:
            Path(out).write_text(json.dumps(payload, indent=2))

    return write


@contextmanager
def _solve_server(
    distinct: int, cache_dir: Optional[str] = None
) -> Iterator[Tuple[SolverService, Callable[[bytes], bytes], List[bytes]]]:
    """A live server on an ephemeral port over ``distinct`` small scenarios.

    Yields ``(service, post, bodies)``: ``bodies[i]`` is the JSON body of
    the i-th scenario (cycles and paths of 6 + i agents, R=1) and
    ``post(body)`` sends one ``POST /solve`` and returns the raw response.
    """
    specs = [
        ScenarioSpec(
            family=("cycle", "path")[i % 2],
            params={"n": 6 + i},
            seed=i,
            radii=(1,),
        )
        for i in range(distinct)
    ]
    bodies = [spec.to_json().encode("utf-8") for spec in specs]
    service = SolverService(cache_dir=cache_dir)
    with ReproServer(service, port=0) as server:
        url = server.url + "/solve"

        def post(body: bytes) -> bytes:
            request = urllib.request.Request(
                url,
                data=body,
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request) as response:
                return response.read()

        yield service, post, bodies


@contextmanager
def _warm_replay(distinct: int, requests: int) -> Iterator[Callable[[], float]]:
    """A timed warm ``POST /solve`` replay: every request a cache hit.

    Each scenario is solved once up front; the yielded ``replay()`` then
    sends ``requests`` requests cycling through them from one client and
    returns the wall-clock seconds.
    """
    with _solve_server(distinct) as (_, post, bodies):
        for body in bodies:
            post(body)  # warm the scenario cache
        order = [i % distinct for i in range(requests)]

        def replay() -> float:
            start = time.perf_counter()
            for idx in order:
                post(bodies[idx])
            return time.perf_counter() - start

        yield replay


@pytest.fixture(scope="session")
def solve_server():
    """:func:`_solve_server` as a fixture."""
    return _solve_server


@pytest.fixture(scope="session")
def warm_replay():
    """:func:`_warm_replay` as a fixture."""
    return _warm_replay
