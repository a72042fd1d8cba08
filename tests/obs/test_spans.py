"""Tests for the hierarchical span profiler: recorder semantics, the
span() context manager/decorator, thread-local nesting, trace-v3 export,
payload validation, rendering, and the instrumented kernels."""

import json
import random
import threading

import pytest

from repro.obs import (
    SPAN_TREE_SCHEMA_VERSION,
    SpanRecorder,
    aggregate_spans,
    get_recorder,
    render_hotspots,
    render_span_tree,
    set_recorder,
    span,
    use_recorder,
    validate_span_tree_payload,
    validate_trace_events,
)
from repro.obs.trace import RunTrace


class TestSpanRecorder:
    def test_nesting_builds_a_tree(self):
        rec = SpanRecorder()
        outer = rec.start("outer", n=4)
        inner = rec.start("inner")
        rec.finish(inner)
        rec.finish(outer)
        roots = rec.roots
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner"]
        assert roots[0].attrs == {"n": 4}
        assert roots[0].finished and roots[0].children[0].finished

    def test_siblings_attach_to_the_same_parent(self):
        rec = SpanRecorder()
        parent = rec.start("parent")
        for name in ("a", "b", "c"):
            child = rec.start(name)
            rec.finish(child)
        rec.finish(parent)
        assert [c.name for c in rec.roots[0].children] == ["a", "b", "c"]

    def test_durations_and_self_time(self):
        rec = SpanRecorder()
        outer = rec.start("outer")
        inner = rec.start("inner")
        rec.finish(inner)
        rec.finish(outer)
        assert outer.duration_seconds >= inner.duration_seconds >= 0.0
        assert outer.self_seconds == pytest.approx(
            outer.duration_seconds - inner.duration_seconds
        )

    def test_finish_closes_stale_descendants(self):
        """An exception that skips inner finishes must not corrupt the tree."""
        rec = SpanRecorder()
        outer = rec.start("outer")
        rec.start("leaked")
        rec.start("leaked_deeper")
        rec.finish(outer)  # lenient: closes everything above too
        assert rec.current is None
        assert all(s.finished for root in rec.roots for s in root.walk())

    def test_finish_unopened_span_raises(self):
        rec = SpanRecorder()
        node = rec.start("a")
        rec.finish(node)
        with pytest.raises(ValueError):
            rec.finish(node)

    def test_span_ids_unique(self):
        rec = SpanRecorder()
        for _ in range(5):
            rec.finish(rec.start("x"))
        ids = [s.span_id for root in rec.roots for s in root.walk()]
        assert len(set(ids)) == len(ids)

    def test_reset_clears_roots_and_stack(self):
        rec = SpanRecorder()
        rec.start("open")
        rec.reset()
        assert rec.roots == []
        assert rec.current is None
        assert rec.span_count() == 0

    def test_thread_local_stacks(self):
        """Spans on thread B never attach under thread A's open span."""
        rec = SpanRecorder()
        main = rec.start("main")
        seen = {}

        def worker():
            s = rec.start("worker")
            seen["parentless"] = rec.roots  # worker must be a root
            rec.finish(s)

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        rec.finish(main)
        names = sorted(r.name for r in rec.roots)
        assert names == ["main", "worker"]
        assert rec.roots[0].children == [] or all(
            c.name != "worker" for c in rec.roots[0].children
        )


class TestSpanContextManager:
    def test_noop_without_recorder(self):
        assert get_recorder() is None
        with span("free") as node:
            assert node is None  # nothing allocated, nothing recorded

    def test_records_under_installed_recorder(self):
        rec = SpanRecorder()
        with use_recorder(rec):
            with span("outer", n=3):
                with span("inner"):
                    pass
        assert [r.name for r in rec.roots] == ["outer"]
        assert rec.roots[0].attrs == {"n": 3}
        assert [c.name for c in rec.roots[0].children] == ["inner"]

    def test_exception_still_closes_span(self):
        rec = SpanRecorder()
        with use_recorder(rec):
            with pytest.raises(RuntimeError):
                with span("failing"):
                    raise RuntimeError("boom")
        assert rec.roots[0].finished

    def test_decorator_and_recursion(self):
        rec = SpanRecorder()

        @span("fib")
        def fib(k):
            return k if k < 2 else fib(k - 1) + fib(k - 2)

        with use_recorder(rec):
            assert fib(5) == 5
        # each recursive call got its own span, properly nested
        root = rec.roots[0]
        assert root.name == "fib"
        assert all(s.name == "fib" for s in root.walk())
        assert rec.span_count() > 5

    def test_use_recorder_restores_previous(self):
        first, second = SpanRecorder(), SpanRecorder()
        previous = set_recorder(first)
        try:
            with use_recorder(second):
                assert get_recorder() is second
            assert get_recorder() is first
        finally:
            set_recorder(previous)


class TestPayloadAndRendering:
    def _tree(self):
        rec = SpanRecorder()
        with use_recorder(rec):
            with span("run", n=8):
                for t in range(3):
                    with span("round", t=t):
                        with span("broadcast"):
                            pass
        return rec

    def test_payload_validates(self):
        payload = self._tree().tree_payload()
        assert payload["schema_version"] == SPAN_TREE_SCHEMA_VERSION
        assert validate_span_tree_payload(payload) == []

    def test_payload_json_roundtrip(self):
        payload = self._tree().tree_payload()
        assert validate_span_tree_payload(json.loads(json.dumps(payload))) == []

    def test_validator_flags_problems(self):
        assert validate_span_tree_payload({}) != []
        bad = self._tree().tree_payload()
        bad["roots"][0].pop("name")
        bad["roots"][0]["children"][0]["duration_seconds"] = "fast"
        problems = validate_span_tree_payload(bad)
        assert any("name" in p for p in problems)
        assert any("duration_seconds" in p for p in problems)
        newer = {"schema_version": SPAN_TREE_SCHEMA_VERSION + 1,
                 "created_unix": 0.0, "roots": []}
        assert any("newer" in p for p in validate_span_tree_payload(newer))

    def test_aggregate_merges_repeated_paths(self):
        rows = aggregate_spans(self._tree())
        by_name = {r["name"]: r for r in rows}
        assert by_name["round"]["count"] == 3
        assert by_name["broadcast"]["count"] == 3
        assert by_name["round"]["depth"] == 1
        # cumulative time is additive down the tree
        assert by_name["run"]["cumulative_seconds"] >= by_name["round"]["cumulative_seconds"]

    def test_render_tree_and_hotspots(self):
        rec = self._tree()
        tree = render_span_tree(rec)
        assert "run" in tree and "round" in tree and "broadcast" in tree
        shallow = render_span_tree(rec, max_depth=0)
        assert "broadcast" not in shallow
        hot = render_hotspots(rec, top=2)
        assert len(hot.splitlines()) == 4  # header + rule + 2 rows
        assert render_span_tree(SpanRecorder()) == "(no spans recorded)"

    def test_trace_v3_mirroring_validates(self):
        import io

        from repro.obs import read_trace

        buf = io.StringIO()
        trace = RunTrace(buf)
        rec = SpanRecorder(trace=trace)
        with use_recorder(rec):
            with span("outer", n=2):
                with span("inner"):
                    pass
        trace.close()
        events = read_trace(io.StringIO(buf.getvalue()))
        kinds = [e["event"] for e in events]
        assert kinds.count("span_start") == 2
        assert kinds.count("span_end") == 2
        assert validate_trace_events(events) == []
        starts = {e["name"]: e for e in events if e["event"] == "span_start"}
        assert starts["outer"]["parent_id"] is None
        assert starts["inner"]["parent_id"] == starts["outer"]["span_id"]
        ends = {e["name"]: e for e in events if e["event"] == "span_end"}
        assert ends["outer"]["duration_seconds"] >= ends["inner"]["duration_seconds"]


class TestInstrumentedKernels:
    def test_simulator_emits_run_round_phase_spans(self):
        from repro.core import BCC1_KT0, ConstantAlgorithm, Simulator
        from repro.instances import one_cycle_instance

        rec = SpanRecorder()
        rounds = 3
        with use_recorder(rec):
            result = Simulator(BCC1_KT0).run(
                one_cycle_instance(8, kt=0), ConstantAlgorithm, rounds
            )
        run = rec.roots[0]
        assert run.name == "simulator.run"
        assert run.attrs["n"] == 8
        assert run.attrs["rounds_executed"] == result.rounds_executed
        round_spans = [c for c in run.children if c.name == "simulator.round"]
        assert len(round_spans) == rounds
        for rnd in round_spans:
            assert [c.name for c in rnd.children] == [
                "simulator.broadcast",
                "simulator.deliver",
            ]

    def test_simulator_result_identical_with_and_without_recorder(self):
        from repro.core import BCC1_KT0, ConstantAlgorithm, Simulator
        from repro.instances import one_cycle_instance

        inst = one_cycle_instance(10, kt=0)
        bare = Simulator(BCC1_KT0).run(inst, ConstantAlgorithm, 4)
        with use_recorder(SpanRecorder()):
            recorded = Simulator(BCC1_KT0).run(inst, ConstantAlgorithm, 4)
        assert bare.broadcast_history == recorded.broadcast_history
        assert bare.outputs == recorded.outputs

    def test_exhaustive_emits_search_phases(self):
        from repro.lowerbounds.exhaustive import (
            clear_pair_cache,
            universal_bound_id_oblivious,
        )

        clear_pair_cache()  # the precompute span only fires on a cold cache
        rec = SpanRecorder()
        with use_recorder(rec):
            universal_bound_id_oblivious(5, alphabet=("0", "1"))
        root = rec.roots[0]
        assert root.name == "exhaustive.search"
        assert root.attrs == {"n": 5, "class_size": 32}
        assert [c.name for c in root.children] == [
            "exhaustive.precompute_pairs",
            "parallel.map",
        ]
        shards = root.children[1].children
        assert [c.name for c in shards] == ["parallel.shard"] * 4
        assert [[g.name for g in c.children] for c in shards] == [
            ["exhaustive.enumerate"]
        ] * 4
        assert [c.children[0].attrs for c in shards] == [
            {"start": 0, "stop": 8},
            {"start": 8, "stop": 16},
            {"start": 16, "stop": 24},
            {"start": 24, "stop": 32},
        ]

    def test_linalg_and_matching_and_sampling_spans(self):
        from repro.indist.graph_builder import build_combinatorial_graph
        from repro.indist.matching import hopcroft_karp
        from repro.information.sampling import estimate_protocol_information
        from repro.partitions.linalg import rank_exact
        from repro.twoparty import TrivialPartitionCompProtocol

        rec = SpanRecorder()
        with use_recorder(rec):
            rank_exact([[1, 0], [0, 1]])
            graph = build_combinatorial_graph(6)
            hopcroft_karp(graph)
            estimate_protocol_information(
                TrivialPartitionCompProtocol(4), 4, 8, random.Random(3)
            )
        names = [r.name for r in rec.roots]
        assert names == [
            "partitions.rank_exact",
            "indist.build_graph",
            "indist.hopcroft_karp",
            "sampling.estimate",
        ]
        rank = rec.roots[0]
        assert [c.name for c in rank.children] == ["partitions.rank_mod_p"]
        assert rank.children[0].attrs["engine"] == "numpy-batched"
        matching = rec.roots[2]
        assert matching.attrs["left"] == len(graph.left)
        sampling = rec.roots[3]
        assert [c.name for c in sampling.children] == [
            "sampling.draw_inputs",
            "parallel.map",
            "sampling.reduce",
        ]
        assert [
            [g.name for g in c.children] for c in sampling.children[1].children
        ] == [["sampling.draw"]] * 4

    def test_same_seed_same_shape(self):
        """Determinism: tree shape is a function of the computation only."""
        from repro.information.sampling import estimate_protocol_information
        from repro.lowerbounds.exhaustive import (
            covers_and_pairs_for,
            universal_bound_id_oblivious,
        )
        from repro.twoparty import TrivialPartitionCompProtocol

        covers_and_pairs_for(5)  # warm the pair cache: identical shape per run

        def profile():
            rec = SpanRecorder()
            with use_recorder(rec):
                universal_bound_id_oblivious(5, alphabet=("0", "1"))
                estimate_protocol_information(
                    TrivialPartitionCompProtocol(4), 4, 16, random.Random(11)
                )
            return [r.shape() for r in rec.roots]

        assert profile() == profile()
