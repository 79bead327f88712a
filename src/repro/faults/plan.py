"""Deterministic, seeded fault injection at named pipeline seams.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries, each bound
to one *seam* -- a named instrumentation point the pipeline consults on
its hot path (``inject("lp.highs.call")`` just before every HiGHS call,
``inject("cache.disk.read")`` before every disk-cache read, and so on).
A spec fires on a probability draw from its own seeded RNG or on an
every-Nth-hit counter, so the same plan + seed reproduces the identical
fault sequence run after run: chaos tests are regression tests, not dice.

Fault kinds
-----------
``raise``
    Raise :class:`InjectedFault` at the seam.  The transient failure the
    retry layer exists for.
``latency``
    Sleep ``latency_s`` seconds at the seam, then continue normally.
``corrupt``
    Only meaningful on the cache seams: the call site receives the fired
    :class:`ActiveFault` back and applies the corruption itself (mangling
    the JSON it read or wrote), exercising the quarantine path.
``crash``
    Only meaningful on ``engine.worker``: raise
    :class:`InjectedWorkerCrash`, which subclasses
    ``concurrent.futures.process.BrokenProcessPool`` so the executor's
    pool-recovery arm (respawn once, then degrade to serial) handles it
    exactly as it would a real dead worker.
``crash-process``
    Only meaningful on the durability seams (``cache.disk.write``,
    ``suite.checkpoint``): the call site receives the fired
    :class:`ActiveFault` back and, at its most damaging instruction,
    calls :func:`apply_crash` -- ``SIGKILL`` to the *whole process*, no
    cleanup of any kind.  This is how the crash-recovery chaos tests kill
    a real subprocess deterministically mid-write.

Installation is a context manager (:meth:`FaultPlan.install`), the
``REPRO_FAULT_PLAN`` environment variable (a path to a plan JSON file,
read once on first ``inject`` call), or ``--fault-plan plan.json`` on the
CLI subcommands that solve.  The idle cost of the harness is one
module-global ``None`` check per seam hit.

Every firing increments ``faults.injected.<seam>`` in the global
:class:`~repro.obs.metrics.MetricsRegistry` and appends
``(seam, kind, hit_number)`` to :attr:`FaultPlan.log`, which is what the
determinism tests diff across runs.
"""

from __future__ import annotations

import json
import os
import random
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs.metrics import get_registry

__all__ = [
    "SEAMS",
    "KINDS",
    "ActiveFault",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InjectedWorkerCrash",
    "active_plan",
    "apply_crash",
    "inject",
    "install_plan",
]

#: The named instrumentation points the pipeline consults.
SEAMS: Tuple[str, ...] = (
    "lp.highs.call",
    "cache.disk.read",
    "cache.disk.write",
    "engine.worker",
    "serve.request",
    "suite.checkpoint",
)

KINDS: Tuple[str, ...] = ("raise", "latency", "corrupt", "crash", "crash-process")

#: Seams where a ``corrupt`` fault makes sense (the call site mangles the
#: bytes it just read/wrote).
_CORRUPT_SEAMS = ("cache.disk.read", "cache.disk.write")

#: The one seam where ``crash`` (a broken process pool) makes sense.
_CRASH_SEAMS = ("engine.worker",)

#: Seams where ``crash-process`` (SIGKILL of the whole process, applied by
#: the call site at its most damaging instruction) makes sense: mid
#: cache-entry write (row inserted, not yet committed) and mid
#: checkpoint-journal append (after a partial line).
_CRASH_PROCESS_SEAMS = ("cache.disk.write", "suite.checkpoint")


class InjectedFault(Exception):
    """A deterministic, injected transient failure.

    Retry policies treat this exactly like the real transient error of the
    seam it fired at; nothing downstream can (or should) tell the
    difference.
    """


class InjectedWorkerCrash(InjectedFault, BrokenProcessPool):
    """An injected process-pool death.

    Subclasses ``BrokenProcessPool`` so the executor's real crash-recovery
    arm handles it without special-casing injected faults.
    """


@dataclass(frozen=True)
class ActiveFault:
    """A fault that fired at a seam; returned for kinds the call site
    must apply itself (``corrupt``)."""

    seam: str
    kind: str
    spec_index: int
    hit: int
    message: str


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule bound to one seam.

    Exactly one of ``probability`` (Bernoulli draw per hit, from the
    plan's seeded RNG) or ``every`` (fire on hits N, 2N, 3N, ...) must be
    set.  ``max_injections`` caps total firings (0 = unlimited) -- the
    standard way to model "transient for the first k attempts, then
    healthy", which is what makes retry masking provable.
    """

    seam: str
    kind: str = "raise"
    probability: float = 0.0
    every: int = 0
    max_injections: int = 0
    latency_s: float = 0.0
    message: str = ""

    def __post_init__(self) -> None:
        if self.seam not in SEAMS:
            raise ValueError(
                f"unknown seam {self.seam!r}; known seams: {', '.join(SEAMS)}"
            )
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"known kinds: {', '.join(KINDS)}"
            )
        if self.kind == "corrupt" and self.seam not in _CORRUPT_SEAMS:
            raise ValueError(
                f"kind 'corrupt' only applies to cache seams "
                f"({', '.join(_CORRUPT_SEAMS)}), not {self.seam!r}"
            )
        if self.kind == "crash" and self.seam not in _CRASH_SEAMS:
            raise ValueError(
                f"kind 'crash' only applies to {_CRASH_SEAMS[0]!r}, "
                f"not {self.seam!r}"
            )
        if self.kind == "crash-process" and self.seam not in _CRASH_PROCESS_SEAMS:
            raise ValueError(
                f"kind 'crash-process' only applies to durability seams "
                f"({', '.join(_CRASH_PROCESS_SEAMS)}), not {self.seam!r}"
            )
        if (self.probability > 0.0) == (self.every > 0):
            raise ValueError(
                "exactly one of probability (>0) or every (>0) must be set; "
                f"got probability={self.probability}, every={self.every}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability out of range: {self.probability}")
        if self.every < 0 or self.max_injections < 0 or self.latency_s < 0:
            raise ValueError("every/max_injections/latency_s must be >= 0")
        if self.kind == "latency" and self.latency_s <= 0.0:
            raise ValueError("kind 'latency' needs latency_s > 0")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        known = {
            "seam", "kind", "probability", "every",
            "max_injections", "latency_s", "message",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown FaultSpec field(s): {', '.join(sorted(unknown))}"
            )
        return cls(**data)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"seam": self.seam, "kind": self.kind}
        if self.probability:
            out["probability"] = self.probability
        if self.every:
            out["every"] = self.every
        if self.max_injections:
            out["max_injections"] = self.max_injections
        if self.latency_s:
            out["latency_s"] = self.latency_s
        if self.message:
            out["message"] = self.message
        return out


class FaultPlan:
    """A seeded set of :class:`FaultSpec` rules plus their firing state.

    Thread-safe: one lock guards the per-spec hit counters, RNGs, and the
    firing log.  Each spec draws from its own ``random.Random`` seeded
    with ``(plan.seed, spec_index)`` so adding a spec never perturbs the
    draws of the others.
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec],
        *,
        seed: int = 0,
        name: str = "",
    ) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = int(seed)
        self.name = name
        self._lock = threading.Lock()
        self._hits: List[int] = [0] * len(self.specs)
        self._fired: List[int] = [0] * len(self.specs)
        #: Chronological ``(seam, kind, seam_hit_number)`` firing record.
        self.log: List[Tuple[str, str, int]] = []
        self._rngs = [
            random.Random(f"{self.seed}:{index}")
            for index in range(len(self.specs))
        ]
        self._by_seam: Dict[str, List[int]] = {}
        for index, spec in enumerate(self.specs):
            self._by_seam.setdefault(spec.seam, []).append(index)

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ValueError("fault plan must be a JSON object")
        unknown = set(data) - {"name", "seed", "faults"}
        if unknown:
            raise ValueError(
                f"unknown fault-plan field(s): {', '.join(sorted(unknown))}"
            )
        raw_specs = data.get("faults", [])
        if not isinstance(raw_specs, list):
            raise ValueError("'faults' must be a list of fault specs")
        specs = [FaultSpec.from_dict(item) for item in raw_specs]
        return cls(
            specs,
            seed=data.get("seed", 0),
            name=data.get("name", ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: "str | Path") -> "FaultPlan":
        plan = cls.from_json(Path(path).read_text())
        if not plan.name:
            plan.name = Path(path).stem
        return plan

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        if self.name:
            out["name"] = self.name
        out["seed"] = self.seed
        out["faults"] = [spec.to_dict() for spec in self.specs]
        return out

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def check(self, seam: str) -> Optional[ActiveFault]:
        """Record one hit at ``seam``; return the fault that fired, if any.

        Every spec bound to the seam advances its hit counter and RNG on
        every hit (so firing order is a pure function of the hit sequence),
        and the first spec that fires wins.
        """
        indices = self._by_seam.get(seam)
        if not indices:
            return None
        with self._lock:
            winner: Optional[ActiveFault] = None
            for index in indices:
                spec = self.specs[index]
                self._hits[index] += 1
                hit = self._hits[index]
                if spec.probability > 0.0:
                    fires = self._rngs[index].random() < spec.probability
                else:
                    fires = hit % spec.every == 0
                if not fires or winner is not None:
                    continue
                if spec.max_injections and self._fired[index] >= spec.max_injections:
                    continue
                self._fired[index] += 1
                winner = ActiveFault(
                    seam=seam,
                    kind=spec.kind,
                    spec_index=index,
                    hit=hit,
                    message=spec.message
                    or f"injected {spec.kind} at {seam} (hit {hit})",
                )
                self.log.append((seam, spec.kind, hit))
            return winner

    def injected(self) -> int:
        """Total faults fired so far."""
        with self._lock:
            return sum(self._fired)

    def hits(self) -> int:
        """Total seam consultations recorded (fired or not).

        The idle-overhead benchmark uses this to count how many times a
        solving serve request consults an instrumented seam.
        """
        with self._lock:
            return sum(self._hits)

    def reset(self) -> None:
        """Rewind hit counters, RNGs, and the log to the just-built state."""
        with self._lock:
            self._hits = [0] * len(self.specs)
            self._fired = [0] * len(self.specs)
            self.log = []
            self._rngs = [
                random.Random(f"{self.seed}:{index}")
                for index in range(len(self.specs))
            ]

    @contextmanager
    def install(self) -> Iterator["FaultPlan"]:
        """Make this the process's active plan for the ``with`` body."""
        global _active_plan
        with _install_lock:
            if _active_plan is not None:
                raise RuntimeError(
                    "a fault plan is already installed; nest plans by "
                    "composing specs, not installs"
                )
            _active_plan = self
        try:
            yield self
        finally:
            with _install_lock:
                _active_plan = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(name={self.name!r}, seed={self.seed}, "
            f"specs={len(self.specs)}, injected={self.injected()})"
        )


# ----------------------------------------------------------------------
# Process-global active plan
# ----------------------------------------------------------------------
_install_lock = threading.Lock()
_active_plan: Optional[FaultPlan] = None
_env_checked = False

_ENV_VAR = "REPRO_FAULT_PLAN"


def _maybe_load_env_plan() -> None:
    """Install a plan from ``REPRO_FAULT_PLAN`` (a JSON file path), once."""
    global _active_plan, _env_checked
    with _install_lock:
        if _env_checked:
            return
        _env_checked = True
        path = os.environ.get(_ENV_VAR)
        if not path or _active_plan is not None:
            return
        _active_plan = FaultPlan.load(path)


def active_plan() -> Optional[FaultPlan]:
    """The currently installed plan, if any (loads the env plan lazily)."""
    if _active_plan is None and not _env_checked:
        _maybe_load_env_plan()
    return _active_plan


@contextmanager
def install_plan(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """``plan.install()`` that tolerates ``None`` (no-op) -- the CLI's
    "maybe --fault-plan was given" helper."""
    if plan is None:
        yield None
    else:
        with plan.install():
            yield plan


def inject(seam: str, **context: Any) -> Optional[ActiveFault]:
    """The seam hook: one global ``None`` check when no plan is active.

    ``raise``/``crash`` faults raise here; ``latency`` sleeps here; a
    ``corrupt`` or ``crash-process`` fault is returned for the call site
    to apply (mangle the bytes, or :func:`apply_crash` at the precise
    instruction the chaos test wants to die at).  ``context`` keys ride
    along in the exception message for debuggability.
    """
    plan = _active_plan
    if plan is None:
        if _env_checked:
            return None
        _maybe_load_env_plan()
        plan = _active_plan
        if plan is None:
            return None
    fault = plan.check(seam)
    if fault is None:
        return None
    get_registry().counter(
        f"faults.injected.{seam}", f"injected faults at seam {seam}"
    ).inc()
    detail = fault.message
    if context:
        extras = ", ".join(f"{k}={v}" for k, v in sorted(context.items()))
        detail = f"{detail} [{extras}]"
    if fault.kind == "latency":
        time.sleep(plan.specs[fault.spec_index].latency_s)
        return None
    if fault.kind == "raise":
        raise InjectedFault(detail)
    if fault.kind == "crash":
        raise InjectedWorkerCrash(detail)
    return fault  # corrupt / crash-process: applied by the call site


def apply_crash(fault: Optional[ActiveFault]) -> None:
    """Kill the process *now* if ``fault`` is a fired ``crash-process``.

    Call sites place this at the exact instruction the chaos test wants to
    die at -- e.g. between a cache row's INSERT and its COMMIT, or
    halfway through a checkpoint-journal line -- so the
    SIGKILL lands deterministically mid-write.  ``SIGKILL`` (not
    ``sys.exit``) because the whole point is that *no* cleanup handler,
    ``finally`` block or ``atexit`` hook runs: the recovery machinery must
    cope with the rawest possible death.  A ``None`` or non-crash fault is
    a no-op, so the call can be unconditional after an ``inject()``.
    """
    if fault is not None and fault.kind == "crash-process":
        os.kill(os.getpid(), signal.SIGKILL)
