"""Tests for atomic checkpoints and the checkpoint/resume search paths."""

import json
import os
import random

import pytest

from repro.errors import BudgetExceededError, CheckpointError
from repro.information.sampling import estimate_protocol_information
from repro.lowerbounds.exhaustive import universal_bound_id_oblivious
from repro.partitions.linalg import rank_bareiss, rank_exact
from repro.resilience import (
    Budget,
    CHECKPOINT_VERSION,
    Checkpointer,
    read_checkpoint,
    write_checkpoint,
)
from repro.twoparty import TrivialPartitionCompProtocol


class TestAtomicWriteRead:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, "demo", {"n": 6}, {"index": 41})
        payload = read_checkpoint(path, kind="demo", params={"n": 6})
        assert payload["checkpoint_version"] == CHECKPOINT_VERSION
        assert payload["state"]["index"] == 41

    def test_no_temp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "ck.json")
        for i in range(5):
            write_checkpoint(path, "demo", {"n": 6}, {"index": i})
        assert sorted(os.listdir(tmp_path)) == ["ck.json"]

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, "demo", {}, {"index": 1})
        write_checkpoint(path, "demo", {}, {"index": 2})
        assert read_checkpoint(path)["state"]["index"] == 2

    def test_missing_file_raises_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_checkpoint(str(tmp_path / "absent.json"))

    def test_corrupt_json_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError):
            read_checkpoint(str(path))

    def test_kind_mismatch_raises(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, "exhaustive", {}, {})
        with pytest.raises(CheckpointError):
            read_checkpoint(path, kind="sampling")

    def test_params_mismatch_raises(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, "demo", {"n": 6}, {})
        with pytest.raises(CheckpointError):
            read_checkpoint(path, kind="demo", params={"n": 7})


class TestCheckpointer:
    def test_cadence_by_units(self, tmp_path):
        path = str(tmp_path / "ck.json")
        state = {"i": 0}
        ck = Checkpointer(path, "demo", {}, lambda: dict(state), every_units=10, every_seconds=3600.0)
        for i in range(25):
            state["i"] = i
            ck.maybe_write()
        assert 1 <= ck.writes <= 3
        ck.flush()
        assert read_checkpoint(path)["state"]["i"] == 24

    def test_flush_always_writes(self, tmp_path):
        path = str(tmp_path / "ck.json")
        ck = Checkpointer(path, "demo", {}, lambda: {"x": 1}, every_units=10**9)
        ck.flush()
        assert os.path.exists(path)


class TestExhaustiveResume:
    def test_interrupted_plus_resumed_equals_uninterrupted(self, tmp_path):
        plain = universal_bound_id_oblivious(6)
        path = str(tmp_path / "ck.json")
        with pytest.raises(BudgetExceededError) as exc_info:
            universal_bound_id_oblivious(
                6,
                budget=Budget(max_units=200, check_interval=1),
                checkpoint_path=path,
                checkpoint_every=16,
                checkpoint_seconds=0.001,
            )
        assert exc_info.value.checkpoint_path == path
        assert exc_info.value.partial is not None
        stored = json.load(open(path))
        # 729 assignments over four shards; 200 units fill the first
        # shard (183) and the first 17 of the second
        assert stored["state"]["shard_starts"] == [0, 183, 365, 547]
        assert stored["state"]["positions"] == [183, 200, 365, 547]
        resumed = universal_bound_id_oblivious(6, resume=path)
        assert resumed == plain

    def test_resume_param_mismatch_raises(self, tmp_path):
        path = str(tmp_path / "ck.json")
        with pytest.raises(BudgetExceededError):
            universal_bound_id_oblivious(
                6,
                budget=Budget(max_units=50, check_interval=1),
                checkpoint_path=path,
                checkpoint_seconds=0.001,
            )
        with pytest.raises(CheckpointError):
            universal_bound_id_oblivious(7, resume=path)

    def test_malformed_state_raises(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(
            path,
            "exhaustive.sharded",
            {"n": 6, "alphabet": ["", "0", "1"]},
            {"nonsense": 1},
        )
        with pytest.raises(CheckpointError, match="malformed"):
            universal_bound_id_oblivious(6, resume=path)

    def test_old_serial_checkpoint_is_refused(self, tmp_path):
        # the serial per-assignment checkpoint kind no longer exists; a
        # resume must fail loudly instead of restarting from scratch
        path = str(tmp_path / "ck.json")
        write_checkpoint(
            path,
            "exhaustive",
            {"n": 6, "alphabet": ["", "0", "1"]},
            {
                "next_index": 200,
                "best": 0.25,
                "best_assignment": ["", "", "", "", "", ""],
                "enumerated": 200,
                "fooled_total": 0,
            },
        )
        with pytest.raises(CheckpointError):
            universal_bound_id_oblivious(6, resume=path)


class TestSamplingResume:
    def test_interrupted_plus_resumed_equals_uninterrupted(self, tmp_path):
        protocol = TrivialPartitionCompProtocol(5)
        uninterrupted = estimate_protocol_information(
            protocol, 5, 150, random.Random(7), budget=Budget(max_units=10**9)
        )
        path = str(tmp_path / "ck.json")
        with pytest.raises(BudgetExceededError) as exc_info:
            estimate_protocol_information(
                protocol,
                5,
                150,
                random.Random(7),
                budget=Budget(max_units=60, check_interval=1),
                checkpoint_path=path,
                checkpoint_every=8,
                checkpoint_seconds=0.001,
            )
        assert exc_info.value.partial.samples == 60
        # a fresh RNG seeded like the original draws the same inputs
        resumed = estimate_protocol_information(
            protocol, 5, 150, random.Random(7), resume=path
        )
        assert resumed == uninterrupted

    def test_old_serial_checkpoint_is_refused(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(
            path,
            "sampling",
            {"n": 5, "samples": 150},
            {"samples_done": 60, "errors": 0, "counts": [], "rng_state": None},
        )
        with pytest.raises(CheckpointError):
            estimate_protocol_information(
                TrivialPartitionCompProtocol(5), 5, 150, random.Random(7), resume=path
            )

    def test_resilient_path_matches_lean_numbers(self):
        protocol = TrivialPartitionCompProtocol(5)
        lean = estimate_protocol_information(protocol, 5, 120, random.Random(3))
        resilient = estimate_protocol_information(
            protocol, 5, 120, random.Random(3), budget=Budget(max_units=10**9)
        )
        assert resilient.information_estimate == pytest.approx(
            lean.information_estimate, abs=1e-9
        )
        assert resilient.distinct_inputs_seen == lean.distinct_inputs_seen
        assert resilient.error_rate_estimate == lean.error_rate_estimate


class TestRankBudget:
    def test_budget_does_not_change_the_answer(self):
        matrix = [[(i * j + i + j) % 2 for j in range(12)] for i in range(12)]
        assert rank_exact(matrix, budget=Budget(max_units=10**6)) == rank_exact(matrix)

    def test_budget_trips_inside_elimination(self):
        matrix = [[(i + j) % 5 for j in range(30)] for i in range(30)]
        with pytest.raises(BudgetExceededError):
            rank_bareiss(matrix, budget=Budget(max_units=2, check_interval=1))
