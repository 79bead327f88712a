"""Job and run bookkeeping for the batch-solver engine.

Every piece of work the engine executes (a per-agent local LP, a
whole-instance exact solve, a batch submitted from a sweep) can be recorded
as a :class:`JobRecord` in a :class:`RunRegistry`.  The registry is the
engine's flight recorder: it captures what was submitted, when it started
and finished, whether the result came from the cache, and which artefact
files (if any) were written — enough to reconstruct or resume a run, and to
print a timing table next to the paper's figures.

Registries serialise to JSON (:meth:`RunRegistry.save` /
:meth:`RunRegistry.load`) in the same spirit as :mod:`repro.io`: plain
combinatorial data, no pickling, human-diffable on disk.
"""

from __future__ import annotations

import json
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

__all__ = ["JobRecord", "RunRegistry"]


@dataclass
class JobRecord:
    """One unit of work submitted to the engine.

    Attributes
    ----------
    job_id:
        Registry-unique identifier (``job-000042``).
    kind:
        What was computed, e.g. ``"local_lp_canon"`` or ``"maxmin_exact"``.
    fingerprint:
        Content fingerprint of the solve request (the cache key).
    status:
        ``"done"``, ``"cached"`` or ``"failed"``.
    submitted_at / finished_at:
        Wall-clock POSIX timestamps.
    duration_s:
        Execution time of the solve itself (0.0 for cache hits).
    error:
        Stringified exception for failed jobs.
    artifacts:
        Paths of files written on behalf of this job.
    meta:
        Free-form JSON-serialisable context (instance label, shape, ...).
    """

    job_id: str
    kind: str
    fingerprint: str
    status: str
    submitted_at: float
    finished_at: Optional[float] = None
    duration_s: float = 0.0
    error: Optional[str] = None
    artifacts: List[str] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def cached(self) -> bool:
        return self.status == "cached"

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form of the record."""
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "duration_s": self.duration_s,
            "error": self.error,
            "artifacts": list(self.artifacts),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRecord":
        """Inverse of :meth:`as_dict`."""
        return cls(
            job_id=data["job_id"],
            kind=data["kind"],
            fingerprint=data["fingerprint"],
            status=data["status"],
            submitted_at=float(data["submitted_at"]),
            finished_at=data.get("finished_at"),
            duration_s=float(data.get("duration_s", 0.0)),
            error=data.get("error"),
            artifacts=list(data.get("artifacts", [])),
            meta=dict(data.get("meta", {})),
        )


class RunRegistry:
    """An append-only record of the jobs executed during one engine run."""

    def __init__(self, run_id: Optional[str] = None) -> None:
        self.run_id = run_id if run_id is not None else f"run-{uuid.uuid4().hex[:12]}"
        self.created_at = time.time()
        self._jobs: List[JobRecord] = []
        self._counter = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def new_job(
        self,
        kind: str,
        fingerprint: str,
        *,
        meta: Optional[Dict[str, Any]] = None,
    ) -> JobRecord:
        """Open a record for a freshly submitted unit of work."""
        self._counter += 1
        record = JobRecord(
            job_id=f"job-{self._counter:06d}",
            kind=kind,
            fingerprint=fingerprint,
            status="pending",
            submitted_at=time.time(),
            meta=dict(meta) if meta else {},
        )
        self._jobs.append(record)
        return record

    def finish_job(
        self,
        record: JobRecord,
        *,
        cached: bool = False,
        duration_s: float = 0.0,
        error: Optional[str] = None,
        artifacts: Optional[List[str]] = None,
    ) -> JobRecord:
        """Close a record with its outcome."""
        record.finished_at = time.time()
        record.duration_s = float(duration_s)
        if error is not None:
            record.status = "failed"
            record.error = error
        else:
            record.status = "cached" if cached else "done"
        if artifacts:
            record.artifacts.extend(str(a) for a in artifacts)
        return record

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[JobRecord]:
        return iter(self._jobs)

    @property
    def jobs(self) -> List[JobRecord]:
        return list(self._jobs)

    def summary(self) -> Dict[str, Any]:
        """Aggregate counts and total solve time for reporting."""
        by_status: Dict[str, int] = {}
        for job in self._jobs:
            by_status[job.status] = by_status.get(job.status, 0) + 1
        return {
            "run_id": self.run_id,
            "jobs": len(self._jobs),
            "by_status": by_status,
            "total_solve_s": sum(j.duration_s for j in self._jobs),
        }

    def to_rows(self) -> List[Dict[str, Any]]:
        """Rows for :func:`repro.analysis.tables.render_rows`."""
        return [
            {
                "job": j.job_id,
                "kind": j.kind,
                "status": j.status,
                "duration_s": j.duration_s,
                "fingerprint": j.fingerprint[:12],
            }
            for j in self._jobs
        ]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form of the whole registry."""
        return {
            "format": "repro.run_registry",
            "version": 1,
            "run_id": self.run_id,
            "created_at": self.created_at,
            "jobs": [j.as_dict() for j in self._jobs],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRegistry":
        """Inverse of :meth:`as_dict`."""
        if data.get("format") != "repro.run_registry":
            raise ValueError("not a serialised run registry")
        registry = cls(run_id=data["run_id"])
        registry.created_at = float(data.get("created_at", registry.created_at))
        for entry in data.get("jobs", []):
            registry._jobs.append(JobRecord.from_dict(entry))
        registry._counter = len(registry._jobs)
        return registry

    def save(self, path: Union[str, Path]) -> Path:
        """Write the registry to a JSON file; returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.as_dict(), indent=2))
        return target

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunRegistry":
        """Read a registry back from :meth:`save` output."""
        return cls.from_dict(json.loads(Path(path).read_text()))
