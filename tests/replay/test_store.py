"""Unit tests for the session store: wire format, validation, recovery."""

import errno
import io
import json

import pytest

from repro.errors import SessionError
from repro.replay import (
    SESSION_SCHEMA_VERSION,
    SessionStore,
    read_session,
    validate_session_events,
)
from repro.resilience import set_retry_sleep


def _record_minimal(sink, steps=3, finish=True):
    store = SessionStore(sink, run_id="fixed")
    store.start("ranks", {"ns": [3]})
    for index in range(steps):
        store.write_step(f"unit/{index}", {"value": index})
    if finish:
        store.write_result({"rows": list(range(steps))})
        store.finish(complete=True)
    return store


class TestRoundTrip:
    def test_write_then_read(self):
        buffer = io.StringIO()
        _record_minimal(buffer)
        session = read_session(io.StringIO(buffer.getvalue()))
        assert session.run_id == "fixed"
        assert session.kind == "ranks"
        assert session.params == {"ns": [3]}
        assert session.session_version == SESSION_SCHEMA_VERSION
        assert session.step_count == 3
        assert session.step(1)["data"] == {"value": 1}
        assert session.result == {"rows": [0, 1, 2]}
        assert session.complete and not session.interrupted

    def test_path_sink(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        store = _record_minimal(path)
        assert store.closed
        session = read_session(path)
        assert session.complete

    def test_step_index_bounds(self):
        buffer = io.StringIO()
        _record_minimal(buffer)
        session = read_session(io.StringIO(buffer.getvalue()))
        with pytest.raises(SessionError):
            session.step(3)
        with pytest.raises(SessionError):
            session.step(-1)

    def test_write_after_close_rejected(self):
        buffer = io.StringIO()
        store = _record_minimal(buffer)
        with pytest.raises(SessionError):
            store.write_step("late", {})


class TestTornTail:
    def test_truncated_log_is_valid_partial(self):
        buffer = io.StringIO()
        _record_minimal(buffer, steps=3, finish=False)
        # hard kill: last line torn mid-write, no session_end ever
        text = buffer.getvalue()
        torn = text[: text.rindex('{"run_id"') + 25]
        session = read_session(io.StringIO(torn))
        assert not session.complete
        assert session.result is None
        assert session.step_count == 2  # the torn third step is discarded

    def test_interrupt_seals_as_interrupted(self):
        buffer = io.StringIO()
        store = SessionStore(buffer, run_id="fixed")
        store.start("ranks", {"ns": [3]})
        store.write_step("unit/0", {"value": 0})
        store.interrupt()
        store.interrupt()  # idempotent
        session = read_session(io.StringIO(buffer.getvalue()))
        assert session.interrupted and not session.complete
        assert session.step_count == 1


class TestValidation:
    def _events(self, mutate=None):
        buffer = io.StringIO()
        _record_minimal(buffer)
        events = [json.loads(line) for line in buffer.getvalue().splitlines()]
        if mutate:
            mutate(events)
        return events

    def test_clean_log_validates(self):
        assert validate_session_events(self._events()) == []

    def test_non_contiguous_steps_flagged(self):
        def skip(events):
            for event in events:
                if event.get("event") == "step" and event["step"] == 1:
                    event["step"] = 5

        problems = validate_session_events(self._events(skip))
        assert any("contiguous" in p for p in problems)

    def test_second_result_flagged(self):
        def duplicate(events):
            result = next(e for e in events if e["event"] == "result")
            events.insert(events.index(result), dict(result))

        problems = validate_session_events(self._events(duplicate))
        assert any("second result" in p for p in problems)

    def test_event_after_end_flagged(self):
        def trailing(events):
            events.append(dict(events[-2]))  # replay a step after session_end

        problems = validate_session_events(self._events(trailing))
        assert any("after session_end" in p for p in problems)

    def test_newer_session_version_flagged(self):
        def bump(events):
            start = next(e for e in events if e["event"] == "session_start")
            start["session_version"] = SESSION_SCHEMA_VERSION + 1

        problems = validate_session_events(self._events(bump))
        assert any("newer than supported" in p for p in problems)

    def test_read_session_raises_on_invalid(self):
        buffer = io.StringIO()
        _record_minimal(buffer)
        lines = buffer.getvalue().splitlines()
        # drop the session_start line
        lines = [l for l in lines if '"session_start"' not in l]
        with pytest.raises(SessionError):
            read_session(io.StringIO("\n".join(lines) + "\n"))


class _FlakyStream(io.StringIO):
    """Fails the first N write attempts with a transient OSError."""

    def __init__(self, failures):
        super().__init__()
        self.failures = failures
        self.attempts = 0

    def write(self, text):
        self.attempts += 1
        if self.failures > 0:
            self.failures -= 1
            raise OSError(errno.EINTR, "interrupted system call")
        return super().write(text)


class TestRetryOnWrite:
    def setup_method(self):
        self._previous = set_retry_sleep(None)  # deterministic: no sleeping

    def teardown_method(self):
        set_retry_sleep(self._previous)

    def test_transient_failures_retried(self):
        stream = _FlakyStream(failures=2)
        store = SessionStore(stream, run_id="fixed")
        store.start("ranks", {"ns": [3]})
        store.write_step("unit/0", {"value": 0})
        store.finish()
        session = read_session(io.StringIO(stream.getvalue()))
        assert session.complete and session.step_count == 1

    def test_rollback_keeps_lines_whole(self):
        """A torn partial write is erased before the retry lands."""

        class TornStream(io.StringIO):
            def __init__(self):
                super().__init__()
                self.failed = False

            def write(self, text):
                if not self.failed and '"step"' in text:
                    # write half the line, then fail: the retry must not
                    # leave the fragment in front of the replacement
                    super().write(text[: len(text) // 2])
                    self.failed = True
                    raise OSError(errno.EIO, "flaky disk")
                return super().write(text)

        stream = TornStream()
        store = SessionStore(stream, run_id="fixed")
        store.start("ranks", {"ns": [3]})
        store.write_step("unit/0", {"value": 0})
        store.finish()
        for line in stream.getvalue().splitlines():
            json.loads(line)  # every line must be whole JSON
        session = read_session(io.StringIO(stream.getvalue()))
        assert session.step_count == 1

    def test_persistent_failure_raises(self):
        stream = _FlakyStream(failures=99)
        with pytest.raises(OSError):
            SessionStore(stream, run_id="fixed")  # trace_start never lands
