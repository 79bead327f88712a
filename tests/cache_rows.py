"""Read, rewrite and corrupt the rows of a :class:`ResultCache` disk store.

The disk tier is one SQLite database per cache directory; tests that need
to look behind the cache's API (a flipped byte, a poisoned value under a
refreshed checksum, an aged entry) go through these helpers instead of
knowing the schema themselves.
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import closing
from pathlib import Path
from typing import Any, Callable, Dict

from repro.engine.cache import DB_NAME
from repro.engine.fingerprint import fingerprint_data


def db_path(directory) -> Path:
    return Path(directory) / DB_NAME


def connect(directory):
    """An autocommit connection to the store (use as a context manager)."""
    return closing(sqlite3.connect(db_path(directory), isolation_level=None))


def rows(directory, table: str = "entries") -> Dict[str, Dict[str, Any]]:
    """``{key: {"sha256", "value" (raw bytes), "written"}}`` of one table."""
    if not db_path(directory).exists():
        return {}
    with connect(directory) as conn:
        return {
            key: {"sha256": sha256, "value": value, "written": written}
            for key, sha256, value, written in conn.execute(
                f"SELECT key, sha256, value, written FROM {table}"
            )
        }


def value(directory, key: str) -> Any:
    """The parsed JSON value stored under ``key``."""
    return json.loads(rows(directory)[key]["value"])


def write_raw(directory, key: str, **columns: Any) -> None:
    """Overwrite columns of ``key``'s row verbatim (no checksum refresh)."""
    assignments = ", ".join(f"{name} = ?" for name in columns)
    with connect(directory) as conn:
        updated = conn.execute(
            f"UPDATE entries SET {assignments} WHERE key = ?",
            (*columns.values(), key),
        ).rowcount
    assert updated == 1, f"no row for {key[:12]}"


def flip(directory, key: str, old: str, new: str) -> None:
    """Replace text inside ``key``'s stored value, keeping its old checksum:
    the silent corruption only the checksum can see."""
    raw = rows(directory)[key]["value"]
    assert old.encode() in raw
    write_raw(directory, key, value=raw.replace(old.encode(), new.encode()))


def rewrite_values(directory, change: Callable[[Any], None]) -> int:
    """Apply ``change`` to every parsed value in place and store the result
    under a *refreshed* checksum: tampering the checksum cannot see, only a
    solution certificate can.  Returns how many rows were rewritten."""
    stored = rows(directory)
    for key, row in stored.items():
        data = json.loads(row["value"])
        change(data)
        write_raw(
            directory, key,
            value=json.dumps(data).encode(), sha256=fingerprint_data(data),
        )
    return len(stored)


def age(directory, keys) -> None:
    """Give ``keys`` strictly increasing, long-past write times."""
    for offset, key in enumerate(keys):
        write_raw(directory, key, written=1_000_000.0 + offset)
