"""Atomic JSON checkpoints for interruptible searches.

Checkpoint files are single JSON objects written atomically
(write-to-temp in the same directory, fsync, then ``os.replace``), so a
checkpoint on disk is always either the complete previous state or the
complete new state -- never a torn hybrid. The envelope is versioned and
kind-tagged so a resume can refuse a checkpoint from a different
computation instead of silently producing garbage:

.. code-block:: json

    {
      "checkpoint_version": 1,
      "kind": "exhaustive.sharded",    // which search wrote it
      "created_unix": 1754464000.1,
      "params": {"n": 6, "alphabet": ["", "0", "1"]},
      "state": { ... search-specific resumable state ... }
    }

:class:`Checkpointer` adds cadence (write every N units / every S
seconds) so inner loops can call :meth:`Checkpointer.maybe_write` each
iteration without thrashing the disk.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Any, Callable, Dict, Mapping, Optional

from repro.errors import CheckpointError
from repro.resilience.retry import retry_transient

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpointer",
    "read_checkpoint",
    "write_checkpoint",
]

#: Bump when the checkpoint envelope changes incompatibly.
CHECKPOINT_VERSION = 1


def write_checkpoint(
    path: str,
    kind: str,
    params: Mapping[str, Any],
    state: Mapping[str, Any],
) -> Dict[str, Any]:
    """Atomically write a checkpoint envelope to ``path``; returns it.

    The temp file lives in the target's directory so ``os.replace`` is a
    same-filesystem atomic rename on POSIX. Transient ``OSError``\\ s
    (EINTR, a momentarily full or flaky filesystem) are retried with
    bounded exponential backoff via
    :func:`repro.resilience.retry.retry_transient`; each attempt starts
    from a fresh temp file, so retries compose with atomicity -- the
    target path still only ever flips complete-to-complete.
    """
    payload = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "kind": kind,
        "created_unix": time.time(),
        "params": dict(params),
        "state": dict(state),
    }
    directory = os.path.dirname(os.path.abspath(path)) or "."

    def attempt() -> None:
        fd, tmp_path = tempfile.mkstemp(
            prefix=".ckpt-", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    try:
        retry_transient(attempt)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path!r}: {exc}") from exc
    return payload


def read_checkpoint(
    path: str,
    kind: Optional[str] = None,
    params: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Read and validate a checkpoint envelope.

    ``kind`` (when given) must match the stored kind; ``params`` (when
    given) must match the stored params key-by-key. Mismatches raise
    :class:`~repro.errors.CheckpointError` -- resuming an n=7 search from
    an n=6 checkpoint is an error, not an adventure.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError as exc:
        raise CheckpointError(f"checkpoint file not found: {path!r}") from exc
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path!r} is not valid JSON ({exc}); it may be torn "
            f"-- atomic writes should prevent this, so suspect manual edits"
        ) from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"checkpoint {path!r} is not a JSON object")
    version = payload.get("checkpoint_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} has version {version!r}; this build "
            f"supports version {CHECKPOINT_VERSION}"
        )
    for field in ("kind", "params", "state"):
        if field not in payload:
            raise CheckpointError(f"checkpoint {path!r} missing field {field!r}")
    if kind is not None and payload["kind"] != kind:
        raise CheckpointError(
            f"checkpoint {path!r} is for kind {payload['kind']!r}, "
            f"expected {kind!r}"
        )
    if params is not None:
        stored = payload["params"]
        for key, expected in params.items():
            if stored.get(key) != expected:
                raise CheckpointError(
                    f"checkpoint {path!r} params mismatch on {key!r}: "
                    f"stored {stored.get(key)!r}, resuming run has {expected!r}"
                )
    return payload


class Checkpointer:
    """Cadenced atomic checkpoint writer bound to one path and kind.

    ``state_fn`` is called lazily (only when a write actually happens) so
    building the state dict costs nothing between checkpoints.
    """

    def __init__(
        self,
        path: str,
        kind: str,
        params: Mapping[str, Any],
        state_fn: Callable[[], Mapping[str, Any]],
        every_units: int = 256,
        every_seconds: float = 5.0,
    ):
        if every_units < 1:
            raise ValueError(f"every_units must be >= 1, got {every_units}")
        if every_seconds <= 0:
            raise ValueError(f"every_seconds must be > 0, got {every_seconds}")
        self.path = path
        self.kind = kind
        self.params = dict(params)
        self._state_fn = state_fn
        self.every_units = every_units
        self.every_seconds = every_seconds
        self._units_since_write = 0
        self._last_write = time.monotonic()
        self.writes = 0

    def maybe_write(self, units: int = 1) -> bool:
        """Write if the unit or time cadence has elapsed; returns whether."""
        self._units_since_write += units
        due_units = self._units_since_write >= self.every_units
        due_time = (
            time.monotonic() - self._last_write >= self.every_seconds
        )
        if not (due_units or due_time):
            return False
        self.flush()
        return True

    def flush(self) -> Dict[str, Any]:
        """Write unconditionally (used for final/SIGINT checkpoints)."""
        payload = write_checkpoint(self.path, self.kind, self.params, self._state_fn())
        self._units_since_write = 0
        self._last_write = time.monotonic()
        self.writes += 1
        return payload
