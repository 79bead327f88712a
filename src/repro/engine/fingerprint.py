"""Stable content fingerprints for instances and solve requests.

The batch-solver engine (:mod:`repro.engine.executor`) keys its result cache
by *content*, not by object identity: two :class:`~repro.core.problem.MaxMinLP`
instances with the same index sets and coefficient maps receive the same
fingerprint no matter how, when or in which process they were built.  This
is what makes the cache safe to persist on disk and share between runs.

A fingerprint is a SHA-256 hex digest:

* **instances** digest their compiled CSR buffers directly — the
  ``indptr``/``indices``/``data`` arrays of ``A`` and ``C`` in fixed
  little-endian layout, prefixed by a version tag and the ``repr`` of the
  identifier orderings.  The matrices are already canonical (rows and
  columns follow the instance's index orders, entries sorted within rows),
  so construction order cannot leak into the digest, and no JSON
  round-trip of the coefficient lists is needed — on the batch paths this
  is the difference between hashing a few kilobytes of raw buffers and
  serialising thousands of coefficient records;
* **solve requests** combine an instance fingerprint with the algorithm
  name, the backend and a JSON-serialisable parameter mapping (rendered
  canonically), plus a format-version tag so that future encoding changes
  cannot silently alias old cache entries.

Agent order is deliberately *kept* in the instance digest: the column order
of an instance is semantically meaningful (it fixes the LP handed to the
backend, and therefore the exact optimiser output).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, List, Mapping, Optional, Sequence

import numpy as np

from ..core.problem import MaxMinLP

__all__ = [
    "FINGERPRINT_VERSION",
    "canonical_json",
    "fingerprint_canonical_request",
    "fingerprint_canonical_requests",
    "fingerprint_data",
    "fingerprint_instance",
    "fingerprint_request",
]

#: Bumped whenever the canonical encoding changes; part of every request
#: fingerprint so stale on-disk entries can never be misread as current.
#: Version 2: instance digests switched from canonical JSON to raw CSR
#: buffers (same content semantics, no serialisation round-trip).
FINGERPRINT_VERSION = 2


def canonical_json(data: Any) -> str:
    """Render JSON-serialisable ``data`` deterministically.

    Keys are sorted and separators fixed, so equal data always produces the
    same byte string regardless of construction order or platform.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def fingerprint_data(data: Any) -> str:
    """SHA-256 hex digest of the canonical JSON rendering of ``data``."""
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def _validate_identifier(identifier: Any) -> None:
    """Reject identifiers whose ``repr`` is not stable content.

    Mirrors the constraint :func:`repro.io.instance_to_dict` enforces (and
    the version-1 JSON digest inherited): strings, numbers, ``None`` and
    nested tuples of those have deterministic, value-only ``repr``; for
    anything else — most dangerously objects with the default
    address-bearing ``repr`` — the digest would silently differ between
    processes, so refuse loudly instead.
    """
    if isinstance(identifier, tuple):
        for item in identifier:
            _validate_identifier(item)
        return
    if isinstance(identifier, (str, int, float, bool)) or identifier is None:
        return
    raise TypeError(
        f"cannot fingerprint identifier {identifier!r} of type "
        f"{type(identifier).__name__}; use strings, numbers or (nested) "
        "tuples of those"
    )


def fingerprint_instance(problem: MaxMinLP) -> str:
    """Content fingerprint of a max-min LP instance (raw-buffer fast path).

    Stable across processes, platforms and Python versions: the digest
    covers a version tag, the ``repr`` of the three identifier orderings,
    and the compiled CSR buffers of ``A`` and ``C`` in explicit
    little-endian ``int64``/``float64`` layout.  The compiled matrices are
    a pure function of the instance's content (rows/columns follow the
    index orders, entries sorted within rows), so equal instances digest
    equally no matter how they were built — the same guarantee the
    previous canonical-JSON rendering gave, without serialising a record
    per coefficient.
    """
    digest = hashlib.sha256()
    for identifier in problem.agents:
        _validate_identifier(identifier)
    for identifier in problem.resources:
        _validate_identifier(identifier)
    for identifier in problem.beneficiaries:
        _validate_identifier(identifier)
    header = repr(
        (problem.agents, problem.resources, problem.beneficiaries)
    ).encode("utf-8")
    digest.update(b"repro-instance-v%d:" % FINGERPRINT_VERSION)
    digest.update(str(len(header)).encode("ascii"))
    digest.update(b":")
    digest.update(header)
    for matrix in (problem.A, problem.C):
        if not matrix.has_sorted_indices:
            matrix.sort_indices()
        digest.update(np.ascontiguousarray(matrix.indptr, dtype="<i8").tobytes())
        digest.update(np.ascontiguousarray(matrix.indices, dtype="<i8").tobytes())
        digest.update(np.ascontiguousarray(matrix.data, dtype="<f8").tobytes())
    return digest.hexdigest()


def fingerprint_request(
    problem: Optional[MaxMinLP],
    algorithm: str,
    *,
    backend: str,
    params: Optional[Mapping[str, Any]] = None,
    instance_fingerprint: Optional[str] = None,
) -> str:
    """Fingerprint of one solve request: instance + algorithm + params + backend.

    Parameters
    ----------
    problem:
        The instance being solved; may be ``None`` when
        ``instance_fingerprint`` is supplied directly (avoids re-hashing an
        instance that the caller already fingerprinted).
    algorithm:
        Name of the computation, e.g. ``"maxmin_exact"``.
    backend:
        LP backend name; part of the key because different backends may
        return different (equally optimal) vertices.
    params:
        JSON-serialisable algorithm parameters (e.g. ``{"R": 2}``).
    instance_fingerprint:
        Pre-computed :func:`fingerprint_instance` digest.
    """
    if instance_fingerprint is None:
        if problem is None:
            raise ValueError("either problem or instance_fingerprint is required")
        instance_fingerprint = fingerprint_instance(problem)
    payload = {
        "fingerprint_version": FINGERPRINT_VERSION,
        "instance": instance_fingerprint,
        "algorithm": algorithm,
        "backend": backend,
        "params": dict(params) if params else {},
    }
    return fingerprint_data(payload)


def fingerprint_canonical_request(
    canonical_key: str,
    *,
    backend: str,
    params: Optional[Mapping[str, Any]] = None,
) -> str:
    """Fingerprint of a *canonical* local-LP solve request.

    Instead of hashing a particular compiled sub-instance, the request is
    keyed by the :class:`~repro.canon.labeling.CanonicalForm` content key of
    the view's local LP, which is shared by every isomorphic view — of the
    same instance, of a differently labelled copy, or of a completely
    different instance whose local structure happens to coincide (a small
    torus warms the disk cache for the interior of a much larger one).  The
    cached payload is the solution of the canonical LP in canonical
    coordinates; callers pull it back through their own view's canonical
    position map.

    The canonical key already embeds
    :data:`repro.canon.labeling.CANON_FORMAT_VERSION`, and the distinct
    ``local_lp_canon`` algorithm tag keeps these requests disjoint from
    requests keyed by an instance fingerprint, so neither encoding can
    alias the other across versions.
    """
    return fingerprint_request(
        None,
        "local_lp_canon",
        backend=backend,
        params=params,
        instance_fingerprint=canonical_key,
    )


#: Sentinel spliced into the request template where the canonical key goes;
#: control characters cannot appear in backend names or canonical keys.
_KEY_PLACEHOLDER = "\x00canonical-key\x00"


def fingerprint_canonical_requests(
    canonical_keys: Sequence[str],
    *,
    backend: str,
    params: Optional[Mapping[str, Any]] = None,
) -> List[str]:
    """Batch variant of :func:`fingerprint_canonical_request`.

    The request payload differs between the batch's units only in the
    canonical key, so the canonical JSON rendering is performed once on a
    placeholder and each unit's digest hashes ``prefix + key + suffix``
    directly — element-for-element equal to calling
    :func:`fingerprint_canonical_request` per key (asserted by the tests),
    at a fraction of the per-unit cost for the engine's
    one-request-per-agent batches.
    """
    template = canonical_json(
        {
            "fingerprint_version": FINGERPRINT_VERSION,
            "instance": _KEY_PLACEHOLDER,
            "algorithm": "local_lp_canon",
            "backend": backend,
            "params": dict(params) if params else {},
        }
    )
    parts = template.split(json.dumps(_KEY_PLACEHOLDER))
    if len(parts) != 2:  # a params value collides with the placeholder
        return [
            fingerprint_canonical_request(key, backend=backend, params=params)
            for key in canonical_keys
        ]
    prefix, suffix = parts
    return [
        hashlib.sha256(
            (prefix + json.dumps(key) + suffix).encode("utf-8")
        ).hexdigest()
        for key in canonical_keys
    ]
