"""The step-addressable session store: record once, re-execute forever.

A *session log* is a crash-safe JSONL file on the trace v5 wire format
(envelope ``run_id`` / ``seq`` / ``ts`` / ``event`` per line, parsed and
torn-tail-tolerated by :func:`repro.obs.read_trace`) that captures one
execution completely enough to re-run it bit-identically::

    {"event": "trace_start",   "schema_version": 5, ...}
    {"event": "session_start", "session_version": 1, "kind": "run",
     "params": {...everything needed to rebuild the execution...}}
    {"event": "step", "step": 0, "t": 1, "broadcasts": [...],
     "digests": ["sha256...", ...], "faults": [...], "deliveries": [...],
     "rng": {"faults": "sha256...", "net": null}, "all_finished": false}
    ...
    {"event": "result",      "payload": {...normalized outcome...}}
    {"event": "session_end", "steps": 7, "complete": true,
     "interrupted": false}

For simulator runs a step is one synchronous round: the on-channel
broadcast vector, a per-vertex SHA-256 digest of that round's transcript
record (``RoundRecord.comparable()`` -- two executions agree on every
per-round digest prefix iff every vertex's ``state_view`` prefix agrees),
the fault and delivery events injected that round, and the post-round
RNG state digests of the fault and channel layers. For the batch engines
(exhaustive / sampling / ranks / fault-sweep) a step is one unit of the
computation (a report, a curve point).

Crash safety is the trace contract plus two session-specific pieces:

* every line write goes through :func:`repro.resilience.retry_transient`
  (bounded retries on transient ``OSError``/EINTR), with the partially
  written tail rolled back (seek + truncate) before each retry so a
  retried line can never corrupt the middle of the file;
* an open store registers with
  :func:`repro.resilience.register_flush_hook`, so
  ``graceful_interrupts`` seals the log with an
  ``interrupted`` ``session_end`` on SIGINT/SIGTERM -- a killed run
  replays cleanly up to its last complete step.

Parallel recording: a step is always written by the parent process.
Sharded engines hand each finished unit back to the parent, which appends
its step once every earlier unit has finished, so the log is in unit
order for every worker count and an interrupted run keeps a replayable
prefix.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, TextIO, Tuple, Union

from repro.errors import SessionError
from repro.obs.trace import TRACE_SCHEMA_VERSION, read_trace, validate_trace_events
from repro.resilience.interrupt import register_flush_hook, unregister_flush_hook
from repro.resilience.retry import retry_transient

__all__ = [
    "SESSION_SCHEMA_VERSION",
    "RecordedSession",
    "SessionStore",
    "read_session",
    "round_digest",
    "validate_session_events",
]

#: Bump when the session-log surface changes incompatibly.
SESSION_SCHEMA_VERSION = 1

#: Envelope fields stamped by the writer; stripped before comparisons.
ENVELOPE_FIELDS = ("run_id", "seq", "ts")


def round_digest(record) -> str:
    """SHA-256 of one vertex's :class:`RoundRecord` in canonical JSON.

    Digesting ``RoundRecord.comparable()`` -- ``(sent, sorted received
    port/message pairs)`` -- makes per-step comparison exactly the
    paper's ``state_view`` comparison: two executions whose digests
    agree on a prefix are indistinguishable to every vertex over it.
    """
    comparable = record.comparable()
    blob = json.dumps(comparable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class SessionStore:
    """Writes one execution's session log; the simulator's ``session`` hook.

    Parameters mirror :class:`repro.obs.RunTrace`: ``sink`` is a path
    (opened line-buffered for append) or an open text stream (ownership
    stays with the caller), ``fsync`` forces every line to disk. The
    store is thread-safe and idempotently closeable; it seals itself
    with an ``interrupted`` session_end if the process is interrupted
    inside :func:`repro.resilience.graceful_interrupts`.
    """

    def __init__(
        self,
        sink: Union[str, TextIO],
        run_id: Optional[str] = None,
        fsync: bool = False,
    ):
        self.run_id = run_id if run_id is not None else uuid.uuid4().hex
        self._lock = threading.RLock()
        self._seq = 0
        self._steps = 0
        if isinstance(sink, (str, bytes)):
            self._stream: TextIO = open(sink, "a", encoding="utf-8", buffering=1)
            self._owns_stream = True
        else:
            self._stream = sink
            self._owns_stream = False
        self._fsync = fsync
        self._closed = False
        self._started = False
        self._finished = False
        self._flush_handle = register_flush_hook(self.interrupt)
        self._emit("trace_start", schema_version=TRACE_SCHEMA_VERSION)

    # -- writer core ----------------------------------------------------
    def _emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event line, retrying transient I/O errors.

        A failed attempt rolls the stream back to the line boundary
        (seek + truncate, when the sink supports it) before retrying, so
        retries can only ever re-write the *final* line -- mid-file
        corruption stays impossible and the torn-tail reader contract
        holds.
        """
        with self._lock:
            if self._closed:
                raise SessionError("session store is closed")
            record: Dict[str, Any] = {
                "run_id": self.run_id,
                "seq": self._seq,
                "ts": time.time(),
                "event": event,
            }
            record.update(fields)
            line = json.dumps(record, sort_keys=False, default=_jsonable) + "\n"

            def attempt() -> None:
                try:
                    position = self._stream.tell()
                except (OSError, io.UnsupportedOperation, ValueError):
                    position = None
                try:
                    self._stream.write(line)
                    self._stream.flush()
                    if self._fsync:
                        os.fsync(self._stream.fileno())
                except OSError:
                    if position is not None:
                        try:
                            self._stream.seek(position)
                            self._stream.truncate()
                        except (OSError, io.UnsupportedOperation):
                            pass
                    raise
                except (AttributeError, io.UnsupportedOperation):
                    pass  # in-memory sinks have no file descriptor to fsync

            retry_transient(attempt)
            self._seq += 1
            return record

    # -- lifecycle -------------------------------------------------------
    def start(self, kind: str, params: Mapping[str, Any]) -> None:
        """Write the session header; must precede any step."""
        with self._lock:
            if self._started:
                raise SessionError("session already started")
            self._started = True
            self._emit(
                "session_start",
                kind=kind,
                session_version=SESSION_SCHEMA_VERSION,
                params=dict(params),
            )

    def record_round(
        self,
        t: int,
        messages: Sequence[str],
        transcripts,
        all_finished: bool,
        fault_events: Sequence = (),
        net_events: Sequence = (),
        fault_rng: Optional[str] = None,
        net_rng: Optional[str] = None,
    ) -> None:
        """One simulator round -> one step event (the Simulator hook)."""
        with self._lock:
            digests = [round_digest(tr.record(t)) for tr in transcripts]
            self._emit(
                "step",
                step=self._steps,
                t=t,
                broadcasts=list(messages),
                digests=digests,
                all_finished=all_finished,
                faults=[event.as_dict() for event in fault_events],
                deliveries=[event.as_dict() for event in net_events],
                rng={"faults": fault_rng, "net": net_rng},
            )
            self._steps += 1

    def write_step(self, name: str, data: Mapping[str, Any]) -> None:
        """One generic engine step (a report, a sweep cell, a rank row)."""
        with self._lock:
            self._emit("step", step=self._steps, name=name, data=dict(data))
            self._steps += 1

    def write_result(self, payload: Mapping[str, Any]) -> None:
        """The execution's normalized outcome (volatile fields zeroed)."""
        self._emit("result", payload=dict(payload))

    def finish(self, complete: bool = True) -> None:
        """Seal the log with a ``session_end`` and close the store."""
        with self._lock:
            if self._finished:
                return
            self._finished = True
            self._emit(
                "session_end",
                steps=self._steps,
                complete=complete,
                interrupted=False,
            )
            self.close()

    def interrupt(self) -> None:
        """Seal the log as interrupted (idempotent; the SIGINT/SIGTERM hook)."""
        with self._lock:
            if self._finished or self._closed:
                return
            self._finished = True
            try:
                self._emit(
                    "session_end",
                    steps=self._steps,
                    complete=False,
                    interrupted=True,
                )
            finally:
                self.close()

    def close(self) -> None:
        """Idempotent close; only closes streams this store opened."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            unregister_flush_hook(self._flush_handle)
            try:
                self._stream.flush()
            except (OSError, ValueError):
                pass
            if self._owns_stream:
                self._stream.close()

    def __enter__(self) -> "SessionStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def steps_recorded(self) -> int:
        return self._steps

    @property
    def closed(self) -> bool:
        return self._closed

def _jsonable(value: Any) -> Any:
    """json.dumps fallback for tuples-in-dicts and exotic values."""
    if isinstance(value, (list, tuple)):
        return list(value)
    return repr(value)


# ----------------------------------------------------------------------
# reading and validation
# ----------------------------------------------------------------------
@dataclass
class RecordedSession:
    """A parsed session log, step-addressable and replayable."""

    run_id: str
    kind: str
    params: Dict[str, Any]
    session_version: int
    steps: List[Dict[str, Any]] = field(default_factory=list)
    result: Optional[Dict[str, Any]] = None
    complete: bool = False
    interrupted: bool = False

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def step(self, index: int) -> Dict[str, Any]:
        """Step ``index`` (0-based) with the envelope stripped."""
        if not 0 <= index < len(self.steps):
            raise SessionError(
                f"step {index} not in session of {len(self.steps)} steps"
            )
        return self.steps[index]


def validate_session_events(events: List[Dict[str, Any]]) -> List[str]:
    """Schema violations for a parsed session log (empty = valid).

    Layered on :func:`repro.obs.validate_trace_events` (envelope and
    per-event field shapes), then the session-structure contract:
    exactly one ``session_start`` right after the header, step indices
    contiguous from 0, at most one ``result`` (after all steps), and a
    final ``session_end`` whose ``steps`` matches the count -- absent
    only in truncated (crashed/interrupted-before-seal) logs, which are
    valid *partial* sessions.
    """
    problems = list(validate_trace_events(events))
    if not events:
        return problems
    starts = [e for e in events if e.get("event") == "session_start"]
    if not starts:
        problems.append("session log has no session_start event")
        return problems
    if len(starts) > 1:
        problems.append(f"session log has {len(starts)} session_start events")
    start = starts[0]
    version = start.get("session_version")
    if isinstance(version, int) and version > SESSION_SCHEMA_VERSION:
        problems.append(
            f"session_version {version} is newer than supported "
            f"{SESSION_SCHEMA_VERSION}"
        )
    if events[0].get("event") == "trace_start" and events[1] is not start:
        problems.append("session_start is not the first event after trace_start")
    expected_step = 0
    seen_result = False
    seen_end = False
    for index, event in enumerate(events):
        name = event.get("event")
        if seen_end and name in ("step", "result", "session_end"):
            problems.append(f"event {index} appears after session_end")
        if name == "step":
            if seen_result:
                problems.append(f"step event {index} appears after result")
            if event.get("step") != expected_step:
                problems.append(
                    f"step event {index} has step={event.get('step')!r}, "
                    f"expected {expected_step} (steps must be contiguous from 0)"
                )
            expected_step += 1
        elif name == "result":
            if seen_result:
                problems.append(f"session log has a second result at event {index}")
            seen_result = True
        elif name == "session_end":
            seen_end = True
            steps = event.get("steps")
            if isinstance(steps, int) and steps != expected_step:
                problems.append(
                    f"session_end declares {steps} steps but {expected_step} "
                    f"were recorded"
                )
    return problems


def read_session(source: Union[str, TextIO]) -> RecordedSession:
    """Parse (and validate) a session log into a :class:`RecordedSession`.

    Tolerates a torn final line and a missing seal -- a truncated log
    (hard kill mid-record) comes back as a valid partial session with
    ``complete=False`` -- but raises :class:`~repro.errors.SessionError`
    on any structural violation earlier in the file.
    """
    try:
        events = read_trace(source)
    except (OSError, ValueError) as exc:
        raise SessionError(f"cannot read session log: {exc}") from exc
    problems = validate_session_events(events)
    if problems:
        summary = "; ".join(problems[:3])
        more = f" (+{len(problems) - 3} more)" if len(problems) > 3 else ""
        raise SessionError(f"invalid session log: {summary}{more}")
    start = next(e for e in events if e.get("event") == "session_start")
    steps = [
        _strip_envelope(e) for e in events if e.get("event") == "step"
    ]
    result = None
    complete = False
    interrupted = False
    for event in events:
        if event.get("event") == "result":
            result = event.get("payload")
        elif event.get("event") == "session_end":
            complete = bool(event.get("complete"))
            interrupted = bool(event.get("interrupted"))
    return RecordedSession(
        run_id=str(start.get("run_id")),
        kind=str(start.get("kind")),
        params=dict(start.get("params", {})),
        session_version=int(start.get("session_version", 0)),
        steps=steps,
        result=result,
        complete=complete,
        interrupted=interrupted,
    )


def _strip_envelope(event: Mapping[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in event.items() if k not in ENVELOPE_FIELDS}
