"""Snapshot-format tests for the runtime sanitizer (satellite of NoCSan v2).

The snapshot is the debugging artifact operators read when an invariant
trips mid-campaign, so its JSON shape is contract: a golden schema
(``golden/sanitizer_snapshot.schema.json``) pins it, and round-trip
stability guarantees dumped files re-parse byte-identically.
"""

import json
from pathlib import Path

import jsonschema
import pytest

from repro.analysis.sanitizer import InvariantViolation, NocSanitizer
from repro.noc.flit import Packet
from repro.noc.routing import Direction
from repro.traffic.trace import TraceEvent

from tests.analysis.test_sanitizer import small_network

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def snapshot_validator():
    schema = json.loads(
        (GOLDEN / "sanitizer_snapshot.schema.json").read_text()
    )
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


def _busy_snapshot(tmp_path):
    """A snapshot taken mid-flight, while flits occupy buffers."""
    san = NocSanitizer(interval=1, watchdog_cycles=4000,
                      snapshot_dir=tmp_path / "sanitizer")
    events = [TraceEvent(c, c % 4, (c + 1) % 4, 4) for c in range(0, 24, 3)]
    net = small_network(events, sanitizer=san)
    for _ in range(12):
        net.step()
    return san.snapshot(net, net.cycle)


class TestSnapshotSchema:
    def test_mid_flight_snapshot_matches_golden_schema(
        self, tmp_path, snapshot_validator
    ):
        snap = _busy_snapshot(tmp_path)
        snapshot_validator.validate(snap)
        # the run above keeps traffic in flight, so the interesting
        # sections are exercised, not vacuously empty
        assert snap["cycle"] > 0
        assert len(snap["routers"]) == 4
        assert snap["channels"]
        assert any(r["flit_count"] > 0 for r in snap["routers"]) or snap[
            "busy_sources"
        ]

    def test_idle_snapshot_matches_golden_schema(
        self, tmp_path, snapshot_validator
    ):
        san = NocSanitizer(interval=1, watchdog_cycles=4000,
                          snapshot_dir=tmp_path / "sanitizer")
        net = small_network([TraceEvent(0, 0, 3, 4)], sanitizer=san)
        net.run_to_completion(4000)
        snapshot_validator.validate(san.snapshot(net, net.cycle))

    def test_dumped_violation_snapshot_matches_golden_schema(
        self, tmp_path, snapshot_validator
    ):
        """The on-disk dump adds the ``violation`` block; it must stay
        within the schema too."""
        san = NocSanitizer(interval=4, watchdog_cycles=64,
                          snapshot_dir=tmp_path / "sanitizer")
        net = small_network([TraceEvent(0, 0, 3, 4)], sanitizer=san)
        phantom = Packet.create(1, 3, 4, 0)
        port = net.routers[0].input_ports[Direction.LOCAL]
        for vci in range(len(port.vcs)):
            port.claim(vci, phantom)
        with pytest.raises(InvariantViolation) as exc_info:
            net.run_to_completion(5000)
        payload = json.loads(exc_info.value.snapshot_path.read_text())
        snapshot_validator.validate(payload)
        assert payload["violation"]["check"] == "deadlock-watchdog"


class TestSnapshotStability:
    def test_json_round_trip_is_identity(self, tmp_path):
        snap = _busy_snapshot(tmp_path)
        text = json.dumps(snap, indent=2, sort_keys=True)
        assert json.loads(text) == snap
        # serialize -> parse -> serialize is a fixed point
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text

    def test_snapshot_is_pure(self, tmp_path):
        """Taking a snapshot must not perturb the network: two back-to-back
        captures of the same state are identical.  (Snapshots of separate
        runs differ in flit reprs — packet ids are process-global — so
        purity, not cross-run equality, is the contract.)"""
        san = NocSanitizer(interval=1, watchdog_cycles=4000,
                          snapshot_dir=tmp_path / "sanitizer")
        events = [TraceEvent(c, c % 4, (c + 1) % 4, 4) for c in range(0, 24, 3)]
        net = small_network(events, sanitizer=san)
        for _ in range(12):
            net.step()
        first = san.snapshot(net, net.cycle)
        second = san.snapshot(net, net.cycle)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
