"""Key derivation: canonical JSON, fingerprints, request/item addresses."""

import hashlib

import pytest

from repro.cache.keys import (
    FINGERPRINT_PREFIXES,
    canonical_json,
    code_fingerprint,
    fingerprint_modules,
    item_key,
    kind_fingerprint,
    payload_digest,
    request_key,
    shard_key,
)


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == canonical_json(
            {"a": [2, 3], "b": 1}
        )

    def test_no_whitespace_and_ascii(self):
        text = canonical_json({"k": "café", "n": 1})
        assert " " not in text
        assert text.encode("ascii")  # must not raise

    def test_non_json_values_raise(self):
        with pytest.raises(TypeError):
            canonical_json({"bad": object()})

    def test_payload_digest_is_sha256_of_canonical_form(self):
        payload = {"z": 0, "a": 1}
        expected = hashlib.sha256(
            canonical_json(payload).encode("ascii")
        ).hexdigest()
        assert payload_digest(payload) == expected
        assert payload_digest({"a": 1, "z": 0}) == expected


class TestFingerprints:
    def test_deterministic_across_calls(self):
        assert code_fingerprint(["repro.partitions"]) == code_fingerprint(
            ["repro.partitions"]
        )

    def test_prefix_order_is_irrelevant(self):
        a = fingerprint_modules(("repro.partitions", "repro.kernels"))
        b = fingerprint_modules(("repro.kernels", "repro.partitions"))
        assert a == b

    def test_different_prefixes_differ(self):
        assert code_fingerprint(["repro.partitions"]) != code_fingerprint(
            ["repro.kernels"]
        )

    def test_non_repro_prefix_rejected(self):
        with pytest.raises(ValueError):
            code_fingerprint(["os.path"])

    def test_every_engine_kind_has_a_table_entry(self):
        for kind in ("run", "exhaustive", "sampling", "ranks", "fault-sweep", "bench"):
            assert kind in FINGERPRINT_PREFIXES
            assert len(kind_fingerprint(kind)) == 64

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            kind_fingerprint("nope")


class TestRequestKey:
    def test_deterministic_and_hex(self):
        key = request_key("exhaustive", {"n": 4}, kernel="auto", fingerprint="f")
        assert key == request_key("exhaustive", {"n": 4}, kernel="auto", fingerprint="f")
        assert len(key) == 64
        int(key, 16)  # must be a hex digest

    def test_every_material_field_matters(self):
        base = request_key("exhaustive", {"n": 4}, kernel="auto", fingerprint="f")
        assert base != request_key("sampling", {"n": 4}, kernel="auto", fingerprint="f")
        assert base != request_key("exhaustive", {"n": 5}, kernel="auto", fingerprint="f")
        assert base != request_key("exhaustive", {"n": 4}, kernel="reference", fingerprint="f")
        assert base != request_key("exhaustive", {"n": 4}, kernel="auto", fingerprint="g")
        assert base != request_key(
            "exhaustive", {"n": 4}, kernel="auto", result_version=2, fingerprint="f"
        )

    def test_workers_never_reaches_the_key(self):
        # normalization strips workers before keying; even a stray field
        # spelled identically must change the key (it is part of params),
        # so the invariance contract lives in normalization, not hashing.
        a = request_key("exhaustive", {"n": 4}, fingerprint="f")
        b = request_key("exhaustive", {"n": 4, "workers": 2}, fingerprint="f")
        assert a != b  # params are hashed verbatim: callers must normalize


class TestItemKey:
    def test_shard_key_is_a_contiguous_item_key(self):
        assert shard_key(
            "exhaustive", {"n": 4}, 0, 81, seed=123, fingerprint="f"
        ) == item_key(
            "exhaustive",
            {"n": 4},
            {"start": 0, "stop": 81, "seed": 123},
            fingerprint="f",
        )

    def test_item_and_request_keys_never_collide(self):
        params = {"n": 4}
        assert request_key("exhaustive", params, fingerprint="f") != item_key(
            "exhaustive", params, {"start": 0, "stop": 81, "seed": 1}, fingerprint="f"
        )

    def test_distinct_items_get_distinct_keys(self):
        params = {"n": 6, "trials": 2, "seed": 0}
        a = item_key("fault-sweep", params, {"algorithm": "flooding", "a_idx": 0})
        b = item_key("fault-sweep", params, {"algorithm": "flooding", "a_idx": 1})
        assert a != b
