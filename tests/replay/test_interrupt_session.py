"""Kill-mid-run: an interrupted recording leaves a replayable session.

The child process records a fault sweep and sends *itself* SIGTERM after
a fixed number of steps -- deterministic, no sleep/poll races -- going
through the exact production path: ``graceful_interrupts`` turns the
signal into ``KeyboardInterrupt``, the registered flush hook seals the
session log with an ``interrupted`` ``session_end``, and the process
exits 130. The parent then replays the truncated session and must get a
clean partial match over the recorded prefix. The recording runs once in
process and once over a two-worker pool: the parent writes every step in
cell order either way, so both leave the same replayable prefix and no
side files.
"""

import glob
import os
import subprocess
import sys
import textwrap

import pytest

from repro.replay import read_session, replay_session

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

PARAMS = (
    "{'algorithms': ['neighbor_exchange', 'flooding'], 'kinds': ['bit_flip'],"
    " 'rates': [0.0, 0.05, 0.1], 'n': 6, 'trials': 2, 'seed': 0,"
    " 'workers': int(sys.argv[2])}"
)

CHILD = textwrap.dedent(
    f"""
    import os, signal, sys
    sys.path.insert(0, {SRC!r})
    from repro.replay import SessionStore
    from repro.replay.engines import execute_record
    from repro.resilience import graceful_interrupts

    params = {PARAMS}
    store = SessionStore(sys.argv[1])
    store.start("fault-sweep", params)
    recorded = store.write_step
    count = [0]

    def terminating_write(name, data):
        recorded(name, data)
        count[0] += 1
        if count[0] == 3:
            os.kill(os.getpid(), signal.SIGTERM)  # the "kill" arrives mid-run

    store.write_step = terminating_write
    try:
        with graceful_interrupts():
            execute_record("fault-sweep", params, session=store)
    except KeyboardInterrupt:
        sys.exit(130)
    sys.exit(0)  # unreachable if the kill landed
    """
)


def _record_until_killed(directory, workers):
    path = str(directory / "session.jsonl")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, path, str(workers)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 130, proc.stderr
    return path


class TestKilledMidRun:
    """The kill lands during an in-process recording (``workers=1``)."""

    WORKERS = 1

    @pytest.fixture(scope="class")
    def killed_session(self, tmp_path_factory):
        return _record_until_killed(tmp_path_factory.mktemp("killed"), self.WORKERS)

    def test_log_is_sealed_as_interrupted(self, killed_session):
        session = read_session(killed_session)
        assert session.interrupted and not session.complete
        assert session.result is None
        assert session.step_count == 3  # exactly the steps before the kill
        assert [step["name"] for step in session.steps] == [
            "neighbor_exchange/bit_flip/0.0",
            "neighbor_exchange/bit_flip/0.05",
            "neighbor_exchange/bit_flip/0.1",
        ]

    def test_no_side_files_left(self, killed_session):
        assert glob.glob(killed_session + ".shard-*") == []

    def test_truncated_session_replays_as_prefix(self, killed_session):
        report = replay_session(killed_session)
        assert report.partial
        assert report.matched, report.describe()
        assert report.steps_compared == 3
        # the replay ran to completion; the recording is its strict prefix
        assert report.steps_replayed > report.steps_compared


class TestKilledMidRunOverPool(TestKilledMidRun):
    """The same kill during a recording over a two-worker pool."""

    WORKERS = 2
