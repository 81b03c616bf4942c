"""Job layer: canonicalization and content hashing of cell specs."""

import copy
import dataclasses
import enum
import json
from dataclasses import replace

import pytest

from repro.config import (
    FaultConfig,
    INTELLINOC,
    NocConfig,
    RlConfig,
    SECDED_BASELINE,
    TechniqueConfig,
    canonical_json,
    canonical_value,
    fingerprint,
)
from repro.exec.spec import (
    CellSpec,
    PretrainSpec,
    WorkloadSpec,
    parsec_cell,
    synthetic_cell,
)


def spec(**overrides) -> CellSpec:
    base = dict(
        technique=SECDED_BASELINE,
        benchmark="swa",
        duration=1000,
        seed=3,
        faults=FaultConfig(),
        pretrain_cycles=0,
    )
    base.update(overrides)
    return parsec_cell(**base)


class TestFingerprint:
    def test_equal_configs_equal_fingerprints(self):
        assert fingerprint(FaultConfig()) == fingerprint(FaultConfig())
        assert fingerprint(SECDED_BASELINE) == fingerprint(SECDED_BASELINE)

    def test_any_field_changes_fingerprint(self):
        base = fingerprint(FaultConfig())
        assert fingerprint(FaultConfig(base_bit_error_rate=1e-9)) != base
        assert fingerprint(FaultConfig(multi_bit_fraction=0.36)) != base

    def test_canonical_json_is_deterministic_text(self):
        a = canonical_json(INTELLINOC)
        b = canonical_json(INTELLINOC)
        assert a == b
        json.loads(a)  # valid JSON

    def test_rejects_unserializable_objects(self):
        with pytest.raises(TypeError):
            canonical_json(object())


class TestCellSpecHash:
    def test_stable_across_instances(self):
        assert spec().content_hash() == spec().content_hash()

    def test_canonical_json_round_trips(self):
        decoded = json.loads(spec().canonical_json())
        assert decoded["spec"]["workload"]["name"] == "swa"
        assert decoded["spec"]["technique"]["name"] == "SECDED"

    @pytest.mark.parametrize(
        "change",
        [
            dict(seed=4),
            dict(duration=1001),
            dict(benchmark="bod"),
            dict(technique=INTELLINOC),
            dict(pretrain_cycles=500),
            dict(faults=FaultConfig(base_bit_error_rate=1e-9)),
        ],
    )
    def test_every_field_is_hashed(self, change):
        assert spec(**change).content_hash() != spec().content_hash()

    def test_geometry_is_hashed(self):
        small = replace(
            SECDED_BASELINE, noc=replace(SECDED_BASELINE.noc, width=4, height=4)
        )
        assert spec(technique=small).content_hash() != spec().content_hash()

    def test_synthetic_spec_hashes_rate_and_pattern(self):
        base = synthetic_cell(
            SECDED_BASELINE, "uniform", 1000, injection_rate=0.01, packet_size=4
        )
        other_rate = synthetic_cell(
            SECDED_BASELINE, "uniform", 1000, injection_rate=0.02, packet_size=4
        )
        other_pattern = synthetic_cell(
            SECDED_BASELINE, "tornado", 1000, injection_rate=0.01, packet_size=4
        )
        assert base.content_hash() != other_rate.content_hash()
        assert base.content_hash() != other_pattern.content_hash()

    def test_a_pretraining_job_never_shares_a_cell_key(self):
        cell = spec(technique=INTELLINOC, pretrain_cycles=500)
        job = cell.pretraining
        assert (job.technique, job.seed, job.faults) == (
            cell.technique, cell.seed, cell.faults
        )
        assert json.loads(job.canonical_json())["spec"]["__type__"] == "PretrainSpec"
        assert job.content_hash() != cell.content_hash()

    def test_specs_are_frozen_and_hashable(self):
        s = spec()
        with pytest.raises(Exception):
            s.seed = 9
        assert s in {s}


def with_field(obj, name, value):
    """A copy of a frozen dataclass with one field set, validation bypassed
    (the law below is about the hash, not about which values are legal)."""
    clone = copy.copy(obj)
    object.__setattr__(clone, name, value)
    return clone


def different(value):
    """A value of the same kind as *value* that is not equal to it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, enum.Enum):
        return next(m for m in type(value) if m is not value)
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, tuple):
        return value + (99,)
    if value is None:
        return 0
    first = dataclasses.fields(value)[0].name
    return with_field(value, first, different(getattr(value, first)))


#: One instance of every dataclass that reaches the cache key.
HASHED = {
    cls.__name__: instance
    for cls, instance in [
        (NocConfig, NocConfig()),
        (FaultConfig, FaultConfig()),
        (RlConfig, RlConfig()),
        (TechniqueConfig, SECDED_BASELINE),
        (WorkloadSpec, WorkloadSpec(kind="parsec", name="swa", duration=1000)),
        (CellSpec, parsec_cell(SECDED_BASELINE, "swa", 1000)),
        (PretrainSpec, PretrainSpec(INTELLINOC, 1, FaultConfig(), 1000)),
    ]
}


def _key(obj) -> str:
    if isinstance(obj, (CellSpec, PretrainSpec)):
        return obj.content_hash()
    return fingerprint(obj)


class TestEveryFieldIsHashed:
    """The law that keeps the result cache sound: a spec field that did not
    reach the key would let one stored result answer for two different
    cells.  Fields are enumerated from the dataclasses themselves, so a new
    one is covered the day it is added."""

    @pytest.mark.parametrize(
        "cls,field",
        [
            (name, f.name)
            for name, instance in HASHED.items()
            for f in dataclasses.fields(instance)
        ],
    )
    def test_changing_one_field_changes_the_key(self, cls, field):
        base = HASHED[cls]
        changed = with_field(base, field, different(getattr(base, field)))
        assert _key(changed) != _key(base)

    @pytest.mark.parametrize("cls", sorted(HASHED))
    def test_a_field_at_its_default_is_still_in_the_canonical_form(self, cls):
        """No omit-at-default rule: "absent means the current default" hands
        back a result computed under the old default the day one moves."""
        names = {f.name for f in dataclasses.fields(HASHED[cls])}
        assert set(canonical_value(HASHED[cls])) == names | {"__type__"}

    def test_default_and_explicit_default_hash_alike(self):
        assert fingerprint(NocConfig()) == fingerprint(NocConfig(topology="mesh"))


class TestWorkloadSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="netrace", name="swa", duration=100)

    def test_rejects_empty_duration(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="parsec", name="swa", duration=0)
