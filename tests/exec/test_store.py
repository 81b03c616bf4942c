"""Store layer: content-addressed artifacts and defensive reads."""

import hashlib
import json

import pytest

from repro.config import INTELLINOC, FaultConfig, SECDED_BASELINE, canonical_json
from repro.exec.spec import SPEC_SCHEMA_VERSION, PretrainSpec, parsec_cell
from repro.exec.store import STORE_SCHEMA_VERSION, ResultStore, default_cache_dir
from repro.metrics.latency import LatencySummary
from repro.metrics.reliability import ReliabilitySummary
from repro.metrics.summary import RunMetrics


def make_metrics(**overrides) -> RunMetrics:
    base = dict(
        technique="SECDED",
        workload="swa",
        execution_cycles=1234,
        packets_completed=56,
        packets_injected=58,
        latency=LatencySummary(10.5, 10.0, 12.0, 13.5, 15, 56),
        static_power_w=0.81,
        dynamic_power_w=0.12,
        total_energy_j=5.5e-7,
        reliability=ReliabilitySummary(3, 4, 5, 0, 0, 9000, 3.1e7, 1.01, 1.05),
        mode_breakdown={0: 0.25, 2: 0.75},
        mean_temperature_k=330.0,
        max_temperature_k=345.0,
        qtable_entries_max=17,
    )
    base.update(overrides)
    return RunMetrics(**base)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


def test_default_cache_dir_is_redirected_during_the_suite(tmp_path_factory):
    """``tests/conftest.py`` keeps tier-1 out of ``~/.cache/intellinoc-repro``."""
    assert default_cache_dir().is_relative_to(tmp_path_factory.getbasetemp())


@pytest.fixture
def spec():
    return parsec_cell(SECDED_BASELINE, "swa", 1000, seed=3)


class TestMetricsRoundTrip:
    def test_every_field_survives(self):
        m = make_metrics()
        assert RunMetrics.from_dict(m.to_dict()) == m

    def test_round_trip_through_json_text(self):
        m = make_metrics()
        assert RunMetrics.from_dict(json.loads(json.dumps(m.to_dict()))) == m

    def test_mode_breakdown_keys_restored_as_ints(self):
        m = make_metrics()
        restored = RunMetrics.from_dict(json.loads(json.dumps(m.to_dict())))
        assert restored.mode_breakdown == {0: 0.25, 2: 0.75}

    def test_empty_latency_summary_round_trips(self):
        m = make_metrics(latency=LatencySummary.empty())
        restored = RunMetrics.from_dict(json.loads(json.dumps(m.to_dict())))
        assert restored.latency.count == 0
        assert restored.latency.mean == float("inf")


class TestStore:
    def test_miss_on_empty_store(self, store, spec):
        assert store.get(spec) is None

    def test_put_then_get(self, store, spec):
        payload = {"metrics": make_metrics().to_dict(), "runtime_seconds": 1.5}
        path = store.put(spec, payload)
        assert path.exists()
        assert store.get(spec) == payload

    def test_artifact_embeds_spec_and_schema(self, store, spec):
        store.put(spec, {"metrics": make_metrics().to_dict()})
        artifact = json.loads(store.path_for(spec).read_text())
        assert artifact["schema"] == STORE_SCHEMA_VERSION
        assert artifact["spec_hash"] == spec.content_hash()
        assert artifact["spec"] == spec.canonical()

    def test_different_faults_are_different_entries(self, store, spec):
        other = parsec_cell(
            SECDED_BASELINE, "swa", 1000, seed=3,
            faults=FaultConfig(base_bit_error_rate=1e-9),
        )
        store.put(spec, {"metrics": make_metrics().to_dict()})
        assert store.get(other) is None

    def test_corrupted_file_is_a_miss(self, store, spec):
        store.put(spec, {"metrics": make_metrics().to_dict()})
        store.path_for(spec).write_text("{not json at all")
        assert store.get(spec) is None

    def test_schema_mismatch_is_a_miss(self, store, spec):
        store.put(spec, {"metrics": make_metrics().to_dict()})
        path = store.path_for(spec)
        artifact = json.loads(path.read_text())
        artifact["schema"] = STORE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(artifact))
        assert store.get(spec) is None

    def test_spec_mismatch_is_a_miss(self, store, spec):
        store.put(spec, {"metrics": make_metrics().to_dict()})
        path = store.path_for(spec)
        artifact = json.loads(path.read_text())
        artifact["spec"]["spec"]["seed"] = 99  # tampered content
        path.write_text(json.dumps(artifact))
        assert store.get(spec) is None

    def test_missing_payload_is_a_miss(self, store, spec):
        store.put(spec, {"metrics": make_metrics().to_dict()})
        path = store.path_for(spec)
        artifact = json.loads(path.read_text())
        del artifact["payload"]
        path.write_text(json.dumps(artifact))
        assert store.get(spec) is None

    def test_put_failure_then_get_failure(self, store, spec):
        assert store.get_failure(spec) is None
        store.put_failure(spec, "RuntimeError: doomed", "tb")
        stored = store.get_failure(spec)
        assert (stored["cause"], stored["traceback"]) == ("RuntimeError: doomed", "tb")
        assert store.get(spec) is None  # a post-mortem is not a result

    def test_a_damaged_post_mortem_is_not_read(self, store, spec):
        path = store.put_failure(spec, "RuntimeError: doomed", "tb")
        artifact = json.loads(path.read_text())
        artifact["spec"]["spec"]["seed"] = 99  # not this spec's
        path.write_text(json.dumps(artifact))
        assert store.get_failure(spec) is None
        path.write_text("{torn")
        assert store.get_failure(spec) is None


class TestAuditAndPrune:
    def _fill(self, store, n=3):
        specs = [
            parsec_cell(SECDED_BASELINE, "swa", 1000, seed=20 + i)
            for i in range(n)
        ]
        for s in specs:
            store.put(s, {"metrics": make_metrics().to_dict()})
        return specs

    def test_healthy_store_audits_clean(self, store):
        self._fill(store)
        audit = store.audit()
        assert audit.ok
        assert audit.checked == 3
        assert audit.healthy == 3
        assert audit.corrupt == [] and audit.stale_failures == []

    def test_truncated_artifact_reported_corrupt(self, store):
        specs = self._fill(store)
        path = store.path_for(specs[0])
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        audit = store.audit()
        assert not audit.ok
        assert [e.path for e in audit.corrupt] == [path]
        assert audit.healthy == 2

    def test_bit_rot_in_payload_caught_by_rehash(self, store):
        """audit() must catch damage get() alone cannot see: a flipped
        byte inside the embedded spec changes the content hash."""
        specs = self._fill(store, 1)
        path = store.path_for(specs[0])
        artifact = json.loads(path.read_text())
        artifact["spec"]["spec"]["seed"] = 99
        path.write_text(json.dumps(artifact))
        audit = store.audit()
        assert len(audit.corrupt) == 1
        assert "hash mismatch" in audit.corrupt[0].problem

    def test_stale_failure_classified(self, store, spec):
        store.put_failure(spec, "RuntimeError: flaky", "tb")
        assert store.audit().stale_failures == []  # no success yet: history
        store.put(spec, {"metrics": make_metrics().to_dict()})
        audit = store.audit()
        assert audit.ok  # stale is not corrupt
        assert len(audit.stale_failures) == 1
        assert audit.failures == 1

    def test_prune_removes_corrupt_and_stale(self, store, spec):
        specs = self._fill(store)
        store.path_for(specs[0]).write_text("{broken")
        store.put_failure(spec, "RuntimeError: flaky", "tb")
        store.put(spec, {"metrics": make_metrics().to_dict()})
        assert store.prune() == (1, 1, 0)
        assert store.audit().ok
        assert not store.path_for(specs[0]).exists()
        assert not store.failure_path_for(spec).exists()
        # Healthy artifacts survive pruning.
        assert store.get(specs[1]) is not None
        assert store.get(spec) is not None

    def test_result_under_another_spec_schema_is_unreachable(self, store, spec):
        """An intact artifact written when SPEC_SCHEMA_VERSION was 1: no
        spec built today hashes to it, so it is not healthy (it can never
        be hit), not corrupt (nothing is damaged), and prune reclaims it."""
        embedded = {"schema": 1, "spec": {"__type__": "CellSpec", "seed": 7}}
        h = hashlib.sha256(canonical_json(embedded).encode("utf-8")).hexdigest()
        path = store.cache_dir / h[:2] / f"{h}.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({
            "schema": STORE_SCHEMA_VERSION,
            "spec_hash": h,
            "spec": embedded,
            "payload": {"metrics": make_metrics().to_dict()},
        }))
        store.put(spec, {"metrics": make_metrics().to_dict()})
        audit = store.audit()
        assert audit.ok
        assert (audit.checked, audit.healthy) == (2, 1)
        assert [e.path for e in audit.unreachable] == [path]
        assert audit.unreachable[0].problem == (
            f"unreachable: spec schema 1 != {SPEC_SCHEMA_VERSION}"
        )
        assert store.prune() == (0, 0, 1)
        assert not path.exists()
        assert store.get(spec) is not None

    def test_policy_under_another_spec_schema_is_unreachable(self, store):
        """The same rule for a pre-training job's artefact."""
        embedded = {"schema": 1, "spec": {"__type__": "PretrainSpec", "seed": 7}}
        h = hashlib.sha256(canonical_json(embedded).encode("utf-8")).hexdigest()
        blob = b"INOCPOL2 policy bytes"
        header = {
            "schema": STORE_SCHEMA_VERSION, "spec_hash": h, "spec": embedded,
            "sha256": hashlib.sha256(blob).hexdigest(),
        }
        path = store.cache_dir / h[:2] / f"{h}.policy"
        path.parent.mkdir(parents=True)
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        audit = store.audit()
        assert audit.ok and audit.healthy == 0
        assert [(e.path, e.kind) for e in audit.unreachable] == [(path, "policy")]
        assert store.prune() == (0, 0, 1)
        assert not path.exists()

    def test_a_rehash_mismatch_in_a_post_mortem_is_corrupt(self, store, spec):
        path = store.put_failure(spec, "RuntimeError: doomed", "tb")
        artifact = json.loads(path.read_text())
        artifact["spec"]["spec"]["seed"] = 99
        path.write_text(json.dumps(artifact))
        audit = store.audit()
        assert [(e.path, e.kind) for e in audit.corrupt] == [(path, "failure")]
        assert "hash mismatch" in audit.corrupt[0].problem
        assert store.prune() == (1, 0, 0)
        assert not path.exists()

    def test_post_mortem_under_another_spec_schema_is_unreachable(self, store):
        embedded = {"schema": 1, "spec": {"__type__": "CellSpec", "seed": 7}}
        h = hashlib.sha256(canonical_json(embedded).encode("utf-8")).hexdigest()
        path = store.cache_dir / h[:2] / f"{h}.failure.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({
            "schema": STORE_SCHEMA_VERSION, "kind": "failure", "spec_hash": h,
            "spec": embedded, "cause": "RuntimeError: old", "traceback": "",
        }))
        audit = store.audit()
        assert audit.ok and audit.healthy == 0
        assert [(e.path, e.kind) for e in audit.unreachable] == [(path, "failure")]
        assert store.prune() == (0, 0, 1)
        assert not path.exists()

    def test_a_failed_pretraining_turns_stale_once_its_policy_lands(self, store):
        job = PretrainSpec(INTELLINOC, 7, FaultConfig(), 900)
        store.put_failure(job, "RuntimeError: flaky", "tb")
        assert store.audit().stale_failures == []
        store.put(job, {"policy": b"bytes"})
        audit = store.audit()
        assert (audit.ok, audit.healthy, len(audit.stale_failures)) == (True, 1, 1)
        assert store.get(job) == {"policy": b"bytes"}

    def test_journal_and_tmp_files_ignored(self, store, spec):
        """A campaign journal an older version left, or a campaign log, is
        .jsonl; a torn write is a .tmp leftover.  Neither is an artifact."""
        store.put(spec, {"metrics": make_metrics().to_dict()})
        (store.cache_dir / "campaign.journal.jsonl").write_text("{}\n")
        (store.cache_dir / "ab").mkdir(exist_ok=True)
        (store.cache_dir / "ab" / "leftover.tmp").write_text("partial")
        audit = store.audit()
        assert audit.checked == 1
        assert audit.ok
